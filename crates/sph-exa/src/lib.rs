//! The SPH-EXA mini-app driver.
//!
//! [`DistributedSimulation`] executes Algorithm 1 of the paper on any
//! number of in-process ranks (nranks = 1 is the single-rank run):
//!
//! ```text
//! Initialization
//! while target simulated time is not reached do
//!   1. Build tree                      (phase A)
//!   2. Find neighbors and h            (phases B–D)
//!   3. Execute SPH kernels             (phases E–H)
//!   4. (Optional) Compute self-gravity (phase I)
//!   5. Compute new time-step           (phase J)
//!   6. Update velocity and position    (phase J)
//! end while
//! ```
//!
//! over any [`sph_core::SphConfig`] (i.e. any cell of Tables 1–2), with
//! global, adaptive or (single-rank) individual block time-stepping, optional
//! self-gravity, per-phase wall-clock timing and per-particle work
//! accounting (the input of the cluster performance model).

pub mod distributed;
pub mod resilient;
#[cfg(test)]
mod simulation;

pub use distributed::{
    DistributedBuildError, DistributedBuilder, DistributedConfig, DistributedError,
    DistributedSimulation, ExchangeLog, RankPartitioner, StepReport, SUPPORTED_TIME_STEPPING,
};
pub use resilient::{
    Detection, RecoveryError, RecoveryStats, ResilientConfig, ResilientSimulation, RollbackRecord,
    SchedulerMode,
};
