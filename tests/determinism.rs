//! Determinism across thread counts.
//!
//! The parallel rayon shim splits every hot loop at fixed chunk boundaries
//! (independent of the worker count) and the call sites reduce chunk
//! results in order, so a full time-step must produce **bit-identical**
//! state and conservation sums under `SPH_THREADS=1`, `2`, and `7` (a
//! non-power-of-two on purpose: it exercises ragged task distribution).
//! This property is what keeps the sph-ft conservation-drift SDC detector
//! meaningful — a drift can only mean corruption, never scheduling noise.
//!
//! Every scenario below now runs through the cell-list/CSR neighbour
//! pipeline (grid sort + CSR list build + SoA kernel passes + ping-pong
//! update), so these fingerprints also pin the pipeline's determinism:
//! the CSR rows are assembled per fixed chunk and spliced in order, and
//! the grid's counting sort is sequential — nothing in the hot path
//! depends on `SPH_THREADS` or, via the rank-count test, on `nranks`.
//! The thread-count tests run on a single rank; the absolute values are
//! pinned by the golden table in `sph-bench`'s `golden_fingerprints`
//! test.

use sph_exa_repro::core::diagnostics::Conservation;
use sph_exa_repro::exa::{DistributedBuilder, DistributedSimulation};
use sph_exa_repro::scenarios::{
    evrard_collapse, square_patch, EvrardConfig, Resolution, Scenario, SedovScenario,
    SquarePatchConfig,
};
use sph_exa_repro::tree::{GravityConfig, MultipoleOrder};

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

/// Everything a step exposes, as raw bits (f64 compare would hide −0.0 /
/// NaN mismatches and invite tolerance creep — the contract is *bit*
/// identity).
#[derive(Debug, PartialEq, Eq)]
struct StepFingerprint {
    dt: u64,
    time: u64,
    sph_interactions: u64,
    nodes_visited: u64,
    mass: u64,
    momentum: [u64; 3],
    angular_momentum: [u64; 3],
    kinetic: u64,
    internal: u64,
    gravitational: u64,
    state_hash: u64,
}

fn fingerprint(
    sim: &DistributedSimulation,
    dt: f64,
    interactions: u64,
    nodes: u64,
) -> StepFingerprint {
    let phi_used = sim.gravity.is_some();
    let c = if phi_used { sim.conservation() } else { Conservation::measure(&sim.sys, None) };
    // Order-dependent FNV over every particle's full state (shared helper,
    // so all determinism suites hash exactly the same field set).
    let hash = sph_exa_repro::core::diagnostics::state_fingerprint(&sim.sys);
    StepFingerprint {
        dt: dt.to_bits(),
        time: sim.sys.time.to_bits(),
        sph_interactions: interactions,
        nodes_visited: nodes,
        mass: c.total_mass.to_bits(),
        momentum: [c.momentum.x.to_bits(), c.momentum.y.to_bits(), c.momentum.z.to_bits()],
        angular_momentum: [
            c.angular_momentum.x.to_bits(),
            c.angular_momentum.y.to_bits(),
            c.angular_momentum.z.to_bits(),
        ],
        kinetic: c.kinetic_energy.to_bits(),
        internal: c.internal_energy.to_bits(),
        gravitational: c.gravitational_energy.to_bits(),
        state_hash: hash,
    }
}

fn square_patch_fingerprint(threads: usize) -> StepFingerprint {
    let ic = square_patch(&SquarePatchConfig { nx: 12, nz: 12, ..SquarePatchConfig::default() });
    let mut sim =
        DistributedBuilder::new(ic).num_threads(threads).build().expect("square patch builds");
    let report = sim.step().expect("stable step");
    fingerprint(&sim, report.dt, report.stats.sph_interactions, report.stats.neighbor.nodes_visited)
}

fn evrard_fingerprint(threads: usize) -> StepFingerprint {
    let ic = evrard_collapse(&EvrardConfig { n_target: 1500, seed: 7, ..EvrardConfig::default() });
    let gravity =
        GravityConfig { g: 1.0, theta: 0.6, softening: 1e-2, order: MultipoleOrder::Quadrupole };
    let mut sim = DistributedBuilder::new(ic)
        .gravity(gravity)
        .num_threads(threads)
        .build()
        .expect("evrard builds");
    let report = sim.step().expect("stable step");
    fingerprint(&sim, report.dt, report.stats.sph_interactions, report.stats.neighbor.nodes_visited)
}

#[test]
fn square_patch_step_is_bit_identical_across_thread_counts() {
    let reference = square_patch_fingerprint(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let fp = square_patch_fingerprint(threads);
        assert_eq!(
            reference, fp,
            "square patch step differs between SPH_THREADS={} and {}",
            THREAD_COUNTS[0], threads
        );
    }
}

#[test]
fn evrard_step_is_bit_identical_across_thread_counts() {
    let reference = evrard_fingerprint(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let fp = evrard_fingerprint(threads);
        assert_eq!(
            reference, fp,
            "Evrard step differs between SPH_THREADS={} and {}",
            THREAD_COUNTS[0], threads
        );
    }
}

/// Sedov at a CI-sized resolution, built through the scenario registry —
/// the shock-dominated workload the fixed-chunk contract must also cover
/// (strong shocks exercise the h-iteration escalation and the Balsara
/// branches that the two smooth paper tests never touch).
fn sedov_fingerprint(threads: usize) -> StepFingerprint {
    let setup = SedovScenario.init(Resolution { scale: 0.375 });
    let mut sim = DistributedBuilder::new(setup.sys)
        .config(setup.config)
        .num_threads(threads)
        .build()
        .expect("sedov builds");
    let report = sim.step().expect("stable step");
    fingerprint(&sim, report.dt, report.stats.sph_interactions, report.stats.neighbor.nodes_visited)
}

#[test]
fn sedov_step_is_bit_identical_across_thread_counts() {
    let reference = sedov_fingerprint(THREAD_COUNTS[0]);
    for &threads in &THREAD_COUNTS[1..] {
        let fp = sedov_fingerprint(threads);
        assert_eq!(
            reference, fp,
            "Sedov step differs between SPH_THREADS={} and {}",
            THREAD_COUNTS[0], threads
        );
    }
}

#[test]
fn sedov_is_bit_identical_across_rank_counts() {
    // nranks {2, 4} must reproduce the single-rank shock trajectory
    // bit-for-bit (state hash over every particle field after two
    // macro-steps).
    let state = sph_exa_repro::core::diagnostics::state_fingerprint;
    let run = |nranks: usize| {
        let setup = SedovScenario.init(Resolution { scale: 0.375 });
        let mut dist = DistributedBuilder::new(setup.sys)
            .config(setup.config)
            .nranks(nranks)
            .build()
            .expect("distributed builds");
        dist.run(2).expect("stable steps");
        state(&dist.sys)
    };
    let single = run(1);
    for nranks in [2usize, 4] {
        assert_eq!(run(nranks), single, "{nranks}-rank Sedov diverged from the single-rank run");
    }
}
