//! The Algorithm-1 step driver.
//!
//! [`DistributedSimulation`] runs Algorithm 1 *per rank* over a domain
//! decomposition with halo exchange — the structure the paper's mini-app
//! prescribes for distributed memory — as N in-process ranks; nranks = 1
//! is the single-rank run. Each rank owns a subset of the particles;
//! every macro-step executes the bulk-synchronous supersteps documented
//! in `sph_domain`'s module docs: halo negotiation, collective
//! h-iteration + density over (owned ∪ ghost), ghost-field refresh
//! between kernels, symmetric forces, a global dt reduction, kick/drift,
//! and particle migration with periodic rebalancing.
//!
//! # Determinism contract
//!
//! A run is **bit-identical** for any rank count and any `SPH_THREADS`.
//! Three properties make that hold:
//!
//! 1. every SPH sum iterates neighbours in ascending *global-index* order
//!    (the density pass sorts its gather lists; each rank keeps its local
//!    particles sorted by global id, so local order ≡ global order);
//! 2. the halo import is *verified*, not assumed: if the measured
//!    `StepStats::max_search_radius` of the h-iteration exceeds the
//!    negotiated radius, the exchange is renegotiated and the density
//!    superstep re-runs from the pre-step smoothing lengths — once every
//!    search stayed inside the halo radius, each local ball query returned
//!    exactly the global neighbour set;
//! 3. the dt reduction is an exact `min` (order-independent) and the
//!    integrator is per-particle.
//!
//! Ownership therefore never affects values — migration and rebalancing
//! change *where* a particle is computed, never *what* is computed.
//!
//! Self-gravity is long-range: each rank evaluates its owned particles on
//! a replicated global tree (the in-process analogue of the locally
//! essential tree every distributed gravity code assembles), which keeps
//! the traversal — and its rounding — identical to the single-rank run.
//!
//! Individual (block) time-stepping runs at nranks = 1 only: each substep
//! evaluates the active subset against its gather lists.

use sph_core::config::{GradientScheme, SphConfig, TimeStepping};
use sph_core::density::{compute_density, h_growth_bound, NeighborLists};
use sph_core::diagnostics::Conservation;
use sph_core::eos::IdealGas;
use sph_core::forces::compute_forces;
use sph_core::gradients::{compute_iad_matrices, compute_velocity_gradients};
use sph_core::integrator::{drift, kick};
use sph_core::particles::ParticleSystem;
use sph_core::timestep::{
    active_at_substep, assign_rungs, finalize_adaptive_dt, finalize_global_dt, per_particle_dt,
    validate_dts, TimeStepError,
};
use sph_core::volume::compute_volume_elements;
use sph_core::StepStats;
use sph_domain::exchange::{Exchange, ExchangeError, ExchangePath, InProcessExchange};
use sph_domain::{
    halo_sets, orb_partition, sfc_partition, Decomposition, HaloExchange, HaloRadiusPolicy, SfcKind,
};
use sph_ft::checkpoint::CheckpointStore;
use sph_ft::codec::fnv1a;
use sph_ft::error::FtError;
use sph_kernels::{Kernel, SUPPORT_RADIUS};
use sph_math::Aabb;
use sph_math::Vec3;
use sph_profiler::timers::PhaseTimers;
use sph_profiler::Phase;
use sph_tree::{
    CellGrid, GravityConfig, GravitySolver, NeighborQuery, Octree, OctreeConfig, TraversalStats,
};

/// Result of one completed macro time-step.
#[derive(Debug, Clone, Copy)]
pub struct StepReport {
    /// Step index (1-based after the first step).
    pub step: u64,
    /// Macro time-step actually taken.
    pub dt: f64,
    /// Simulation time after the step.
    pub time: f64,
    /// Work statistics accumulated over the step (all substeps).
    pub stats: StepStats,
    /// Number of substeps (1 for global/adaptive stepping).
    pub substeps: u32,
    /// Mean fraction of particles active per derivative evaluation
    /// (1.0 for global stepping; < 1 shows the block-time-step saving).
    pub active_fraction: f64,
}

/// Why a [`DistributedSimulation`] could not be constructed.
///
/// Typed so callers can distinguish "this configuration is wrong" from
/// "this configuration is valid but the driver does not support it at
/// this rank count" — the latter is a capability gap, not a user error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistributedBuildError {
    /// The configured time-stepping policy is valid but not supported at
    /// the requested rank count.
    UnsupportedTimeStepping {
        /// Human name of the requested policy.
        requested: &'static str,
        /// The policies the driver does support.
        supported: &'static [&'static str],
    },
    /// Rank count is zero or exceeds the particle count.
    BadRankCount { nranks: usize, particles: usize },
    /// SPH configuration, particle state, or driver wiring failed
    /// validation (message from the underlying check).
    Invalid(String),
}

/// The time-stepping policies the driver supports.
pub const SUPPORTED_TIME_STEPPING: &[&str] =
    &["Global", "Adaptive", "Individual (single rank only)"];

impl std::fmt::Display for DistributedBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedBuildError::UnsupportedTimeStepping { requested, supported } => write!(
                f,
                "{requested} time-stepping is not supported; supported modes: {}",
                supported.join(", ")
            ),
            DistributedBuildError::BadRankCount { nranks, particles } => {
                write!(f, "{nranks} ranks cannot each own a particle of {particles}")
            }
            DistributedBuildError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for DistributedBuildError {}

impl From<DistributedBuildError> for String {
    fn from(e: DistributedBuildError) -> String {
        e.to_string()
    }
}

/// Why a distributed step, checkpoint, or restore failed.
///
/// Every failure mode of the running driver folds into this one enum so
/// a recovery layer can branch on the *kind* of fault: time-step errors
/// and exchange corruption call for rollback, storage errors for a
/// checkpoint fallback, build/restore errors for operator attention.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributedError {
    /// A per-particle time-step bound was NaN or non-positive.
    TimeStep(TimeStepError),
    /// An exchange failed beyond the transient-retry budget.
    Exchange(ExchangeError),
    /// Checkpoint storage failed (missing, corrupt, or I/O).
    Storage(FtError),
    /// The restored configuration failed the builder's validation.
    Build(DistributedBuildError),
    /// The checkpoint set is internally inconsistent (manifest/snapshot
    /// shape mismatches).
    Restore { detail: String },
}

impl std::fmt::Display for DistributedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistributedError::TimeStep(e) => write!(f, "{e}"),
            DistributedError::Exchange(e) => write!(f, "{e}"),
            DistributedError::Storage(e) => write!(f, "{e}"),
            DistributedError::Build(e) => write!(f, "{e}"),
            DistributedError::Restore { detail } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for DistributedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DistributedError::TimeStep(e) => Some(e),
            DistributedError::Exchange(e) => Some(e),
            DistributedError::Storage(e) => Some(e),
            DistributedError::Build(e) => Some(e),
            DistributedError::Restore { .. } => None,
        }
    }
}

impl From<TimeStepError> for DistributedError {
    fn from(e: TimeStepError) -> Self {
        DistributedError::TimeStep(e)
    }
}

impl From<ExchangeError> for DistributedError {
    fn from(e: ExchangeError) -> Self {
        DistributedError::Exchange(e)
    }
}

impl From<FtError> for DistributedError {
    fn from(e: FtError) -> Self {
        DistributedError::Storage(e)
    }
}

impl From<DistributedBuildError> for DistributedError {
    fn from(e: DistributedBuildError) -> Self {
        DistributedError::Build(e)
    }
}

impl From<DistributedError> for String {
    fn from(e: DistributedError) -> String {
        e.to_string()
    }
}

/// Which decomposition algorithm the driver uses (Table 3 rows; slab is
/// deliberately absent — it is the strawman the paper's parents moved
/// away from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPartitioner {
    /// Orthogonal recursive bisection (SPH-flow).
    Orb,
    /// Space-filling curve (ChaNGa).
    Sfc(SfcKind),
}

/// Configuration of the rank layout (the SPH physics lives in
/// [`SphConfig`]).
#[derive(Debug, Clone, Copy)]
pub struct DistributedConfig {
    /// Number of in-process ranks.
    pub nranks: usize,
    /// Decomposition algorithm for the initial split and for rebalances.
    pub partitioner: RankPartitioner,
    /// Rebuild the decomposition from scratch every this many macro-steps,
    /// using the measured per-particle work as weights (0 = never; the
    /// migration protocol alone then tracks drifting particles).
    pub rebalance_every: u64,
    /// Smoothing-length-iteration headroom budgeted into the *initial*
    /// halo radius, in iterations of the analytic growth bound. Small
    /// values keep halos tight; the coverage verification renegotiates on
    /// a miss, so correctness never depends on this guess.
    pub halo_growth_steps: u32,
    /// How many times a *transient* exchange failure is retried before it
    /// escalates as [`DistributedError::Exchange`]. The in-process
    /// carrier reissues immediately (a real transport would back off
    /// exponentially between attempts); non-transient failures never
    /// retry.
    pub exchange_retries: u32,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            nranks: 1,
            partitioner: RankPartitioner::Orb,
            rebalance_every: 10,
            halo_growth_steps: 1,
            exchange_retries: 3,
        }
    }
}

/// Exchange/migration counters accumulated over a run — the measured
/// communication record the cluster model consumes instead of estimates.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeLog {
    /// Ghost particles imported across all ranks and density attempts.
    pub ghosts_imported: u64,
    /// Halo renegotiations forced by a measured-radius miss.
    pub renegotiations: u64,
    /// Density supersteps executed (≥ one per derivative evaluation).
    pub density_attempts: u64,
    /// Particles that changed owner through migration.
    pub migrations: u64,
    /// Full decomposition rebuilds.
    pub rebalances: u64,
    /// Transient exchange failures absorbed by the bounded retry loop.
    pub transient_retries: u64,
}

/// Builder for [`DistributedSimulation`].
pub struct DistributedBuilder {
    sys: ParticleSystem,
    config: SphConfig,
    gravity: Option<GravityConfig>,
    dist: DistributedConfig,
    num_threads: Option<usize>,
    exchange: Option<Box<dyn Exchange>>,
}

impl DistributedBuilder {
    pub fn new(sys: ParticleSystem) -> Self {
        DistributedBuilder {
            sys,
            config: SphConfig::default(),
            gravity: None,
            dist: DistributedConfig::default(),
            num_threads: None,
            exchange: None,
        }
    }

    pub fn config(mut self, config: SphConfig) -> Self {
        self.config = config;
        self
    }

    pub fn gravity(mut self, gravity: GravityConfig) -> Self {
        self.gravity = Some(gravity);
        self
    }

    pub fn distributed(mut self, dist: DistributedConfig) -> Self {
        self.dist = dist;
        self
    }

    /// Shorthand: `nranks` ranks with the remaining distributed defaults.
    pub fn nranks(mut self, nranks: usize) -> Self {
        self.dist.nranks = nranks;
        self
    }

    /// Worker threads for every parallel loop (0 = the `SPH_THREADS` /
    /// hardware default). The pool is process-global, so this configures
    /// *all* simulations, not just the one being built; results are
    /// bit-identical for any setting thanks to the fixed-chunk reductions.
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// The exchange carrier behind the driver's five communication paths
    /// (defaults to [`InProcessExchange`], the determinism reference).
    pub fn exchange(mut self, exchange: Box<dyn Exchange>) -> Self {
        self.exchange = Some(exchange);
        self
    }

    pub fn build(self) -> Result<DistributedSimulation, DistributedBuildError> {
        if self.dist.nranks == 0 || self.sys.is_empty() || self.dist.nranks > self.sys.len() {
            return Err(DistributedBuildError::BadRankCount {
                nranks: self.dist.nranks,
                particles: self.sys.len(),
            });
        }
        // Full config validation happens in `assemble`, shared with the
        // checkpoint-restore path; positions must be sane *before* the
        // partitioners sort them.
        self.sys.sanity_check().map_err(DistributedBuildError::Invalid)?;
        if let Some(n) = self.num_threads {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .map_err(|e| DistributedBuildError::Invalid(format!("thread pool: {e}")))?;
        }
        let decomp = partition(&self.sys, self.dist.partitioner, self.dist.nranks, &[]);
        let mut sim = DistributedSimulation::assemble(
            self.sys,
            self.config,
            self.gravity,
            self.dist,
            decomp,
            0.0,
            false,
        )?;
        if let Some(exchange) = self.exchange {
            sim.exchange = exchange;
        }
        Ok(sim)
    }
}

/// A running multi-rank simulation (see the module docs for the
/// superstep protocol and the determinism contract).
pub struct DistributedSimulation {
    /// Global particle state: the union of every rank's owned particles,
    /// indexed by global id. In-process this doubles as the "wire": a
    /// rank publishes owned results here and imports ghost fields from it.
    pub sys: ParticleSystem,
    /// SPH configuration (shared by all ranks).
    pub config: SphConfig,
    /// Self-gravity configuration, if enabled.
    pub gravity: Option<GravityConfig>,
    dist: DistributedConfig,
    kernel: Box<dyn Kernel>,
    eos: IdealGas,
    decomp: Decomposition,
    /// Per-rank owned global ids, ascending — kept in lockstep with
    /// `decomp` (rebuilt on migration and rebalance).
    owned: Vec<Vec<u32>>,
    /// Rank bounding boxes captured at decomposition time — the migration
    /// criterion (a particle drifting out of its owner's box moves to the
    /// nearest box, ties to the lowest rank).
    boxes: Vec<Option<Aabb>>,
    /// Per-particle gravitational potentials (zero with gravity off).
    pub phi: Vec<f64>,
    per_particle_work: Vec<f64>,
    dt_prev: f64,
    /// Per-rank wall-clock phase timers (rank-local kernel work).
    timers: Vec<PhaseTimers>,
    /// Driver-level collective work: halo identification/packing
    /// (phase D), dt reduction + integration (phase J).
    driver_timers: PhaseTimers,
    derivatives_fresh: bool,
    last_exchange: Option<HaloExchange>,
    log: ExchangeLog,
    /// The carrier behind the five exchange paths (see
    /// [`sph_domain::exchange`]); in-process by default.
    exchange: Box<dyn Exchange>,
}

/// Per-rank working set of one derivative evaluation.
struct RankWorkspace {
    /// Global ids of the rank's local particles (owned ∪ ghost),
    /// ascending — so local index order ≡ global id order.
    locals: Vec<u32>,
    /// Local indices of the owned particles, ascending.
    owned_k: Vec<u32>,
    /// Local indices of the owned *active* particles, ascending, when the
    /// evaluation covers a strict subset (`None` = every owned particle).
    active_k: Option<Vec<u32>>,
    /// `(local index, global id)` of every ghost.
    ghosts: Vec<(u32, u32)>,
    /// The rank's local particle system (extracted owned+ghost state).
    sys_l: ParticleSystem,
    /// Cell grid over the local positions (owned ∪ ghost) — the spatial
    /// structure every SPH pass of the attempt queries.
    grid: Option<CellGrid>,
    /// Gather lists of the active particles (from the density pass),
    /// indexed like [`RankWorkspace::active`].
    lists: NeighborLists,
}

/// Local indices the kernel passes run on: owned ∩ active. A free function
/// over the two fields so callers can borrow the rest of the workspace
/// mutably alongside it.
fn active_of<'a>(owned_k: &'a [u32], active_k: &'a Option<Vec<u32>>) -> &'a [u32] {
    active_k.as_deref().unwrap_or(owned_k)
}

impl RankWorkspace {
    fn active(&self) -> &[u32] {
        active_of(&self.owned_k, &self.active_k)
    }
}

fn partition(
    sys: &ParticleSystem,
    partitioner: RankPartitioner,
    nranks: usize,
    weights: &[f64],
) -> Decomposition {
    match partitioner {
        RankPartitioner::Orb => orb_partition(&sys.x, nranks, weights),
        RankPartitioner::Sfc(kind) => sfc_partition(&sys.x, &sys.bounds(), nranks, kind, weights),
    }
}

/// Bucket the assignment into per-rank owned-id lists (ascending, since
/// the pass walks global ids in order) — one O(n) sweep replacing the
/// O(n·ranks) of repeated `Decomposition::indices_of` scans.
fn bucket_owned(decomp: &Decomposition) -> Vec<Vec<u32>> {
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); decomp.nparts];
    for (i, &r) in decomp.assignment.iter().enumerate() {
        owned[r as usize].push(i as u32);
    }
    owned
}

/// Merge two ascending id lists into one ascending list.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Bounded retry around one exchange operation: transient failures are
/// reissued up to `retries` times (counted in the log), anything else —
/// and the final transient miss — escalates to the caller. The
/// in-process carrier reissues immediately; a real transport would sleep
/// an exponential backoff between attempts, which changes wall-clock but
/// never the delivered bits.
fn with_retry<T>(
    exchange: &mut dyn Exchange,
    log: &mut ExchangeLog,
    retries: u32,
    mut op: impl FnMut(&mut dyn Exchange) -> Result<T, ExchangeError>,
) -> Result<T, ExchangeError> {
    let mut attempt = 0u32;
    loop {
        match op(exchange) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && attempt < retries => {
                attempt += 1;
                log.transient_retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Which owner-computed fields a ghost refresh ships (one variant per
/// inter-kernel exchange of the superstep protocol).
#[derive(Debug, Clone, Copy)]
enum GhostFields {
    /// Adapted smoothing length, density, grad-h term (post-density).
    HRhoOmega,
    /// Volume elements + the generalized-VE rewritten density.
    VolRho,
    /// IAD correction matrices.
    CIad,
    /// Velocity divergence and curl.
    DivCurl,
}

impl GhostFields {
    fn words(self) -> usize {
        match self {
            GhostFields::HRhoOmega => 3,
            GhostFields::VolRho => 2,
            GhostFields::CIad => 9,
            GhostFields::DivCurl => 2,
        }
    }

    /// Append particle `g`'s fields (from the owners' published state).
    fn pack(self, sys: &ParticleSystem, g: usize, out: &mut Vec<f64>) {
        match self {
            GhostFields::HRhoOmega => out.extend_from_slice(&[sys.h[g], sys.rho[g], sys.omega[g]]),
            GhostFields::VolRho => out.extend_from_slice(&[sys.vol[g], sys.rho[g]]),
            GhostFields::CIad => {
                for row in sys.c_iad[g].m {
                    out.extend_from_slice(&row);
                }
            }
            GhostFields::DivCurl => out.extend_from_slice(&[sys.div_v[g], sys.curl_v[g]]),
        }
    }

    /// Scatter one particle's delivered words into local index `k`.
    fn unpack(self, sys_l: &mut ParticleSystem, k: usize, words: &[f64]) {
        match self {
            GhostFields::HRhoOmega => {
                sys_l.h[k] = words[0];
                sys_l.rho[k] = words[1];
                sys_l.omega[k] = words[2];
            }
            GhostFields::VolRho => {
                sys_l.vol[k] = words[0];
                sys_l.rho[k] = words[1];
            }
            GhostFields::CIad => {
                for (r, row) in sys_l.c_iad[k].m.iter_mut().enumerate() {
                    row.copy_from_slice(&words[3 * r..3 * r + 3]);
                }
            }
            GhostFields::DivCurl => {
                sys_l.div_v[k] = words[0];
                sys_l.curl_v[k] = words[1];
            }
        }
    }
}

/// One ghost-refresh superstep: for every rank, pack the requested fields
/// of its ghosts (ascending global-id order), move them through the
/// exchange carrier, and scatter the *delivered* words into the rank's
/// local system. In-process the delivery is the identity, so this is
/// bit-identical to copying straight from the global store; a faulty or
/// real carrier interposes here.
fn refresh_ghosts(
    exchange: &mut dyn Exchange,
    log: &mut ExchangeLog,
    retries: u32,
    sys: &ParticleSystem,
    wss: &mut [RankWorkspace],
    fields: GhostFields,
) -> Result<(), ExchangeError> {
    let words = fields.words();
    for (r, ws) in wss.iter_mut().enumerate() {
        if ws.ghosts.is_empty() {
            continue;
        }
        let mut payload = Vec::with_capacity(ws.ghosts.len() * words);
        for &(_, g) in &ws.ghosts {
            fields.pack(sys, g as usize, &mut payload);
        }
        with_retry(exchange, log, retries, |ex| {
            ex.deliver_f64(ExchangePath::GhostRefresh, r as u32, &mut payload)
        })?;
        for (j, &(k, _)) in ws.ghosts.iter().enumerate() {
            fields.unpack(&mut ws.sys_l, k as usize, &payload[j * words..(j + 1) * words]);
        }
    }
    Ok(())
}

/// The symmetric force closure of a rank's owned rows. The pairwise
/// closure must see every pair from both sides. A ghost's gather set is
/// recovered with one frozen ball query at its exchanged h (exact, by the
/// h-iteration's exit invariant and because the final search radius is
/// within the verified halo radius), then the closure is built locally in
/// ascending global-id order — identical membership and summation order to
/// the whole-system `NeighborLists::symmetrized()`. Rows are indexed like
/// `owned_k`.
fn symmetric_closure(ws: &RankWorkspace) -> NeighborLists {
    let n_local = ws.locals.len();
    if ws.ghosts.is_empty() && ws.owned_k.len() == n_local {
        // The rank owns its whole local set (always so at nranks = 1):
        // the CSR builder produces the same closure without the per-row
        // sort.
        return ws.lists.symmetrized();
    }
    let mut gather: Vec<Vec<u32>> = vec![Vec::new(); n_local];
    for (q, &k) in ws.owned_k.iter().enumerate() {
        gather[k as usize] = ws.lists.neighbors(q).to_vec();
    }
    // sph-lint: allow(panic-path) — superstep 2 builds a grid for every
    // rank with local particles, and the caller skips empty ranks; a
    // missing grid is a driver bug, not an input.
    let grid = ws.grid.as_ref().expect("non-empty rank has a grid");
    let mut ts = TraversalStats::default();
    for &(k, _) in &ws.ghosts {
        let k = k as usize;
        let mut out = Vec::new();
        grid.neighbors_within(ws.sys_l.x[k], SUPPORT_RADIUS * ws.sys_l.h[k], &mut out, &mut ts);
        out.sort_unstable();
        gather[k] = out;
    }
    // Symmetric closure over the local set (sorted, deduped — the
    // `symmetrized()` contract). Only the *owned* rows are ever consumed,
    // so ghost rows are neither cloned nor given reverse edges.
    let mut is_owned = vec![false; n_local];
    let mut sym: Vec<Vec<u32>> = vec![Vec::new(); n_local];
    for &k in &ws.owned_k {
        is_owned[k as usize] = true;
        sym[k as usize] = gather[k as usize].clone();
    }
    for (k, list) in gather.iter().enumerate() {
        for &j in list {
            if j as usize != k && is_owned[j as usize] {
                sym[j as usize].push(k as u32);
            }
        }
    }
    let rows: Vec<Vec<u32>> = ws
        .owned_k
        .iter()
        .map(|&k| {
            let s = &mut sym[k as usize];
            s.sort_unstable();
            s.dedup();
            std::mem::take(s)
        })
        .collect();
    NeighborLists::from_lists(rows)
}

impl DistributedSimulation {
    fn assemble(
        sys: ParticleSystem,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
        decomp: Decomposition,
        dt_prev: f64,
        derivatives_fresh: bool,
    ) -> Result<Self, DistributedBuildError> {
        // Every construction path (builder *and* checkpoint restore) must
        // reject what the driver cannot run — a restore with an invalid or
        // multi-rank Individual-stepping config would otherwise fail later.
        config.validate().map_err(DistributedBuildError::Invalid)?;
        sys.sanity_check().map_err(DistributedBuildError::Invalid)?;
        if dist.nranks > 1 && matches!(config.time_stepping, TimeStepping::Individual { .. }) {
            return Err(DistributedBuildError::UnsupportedTimeStepping {
                requested: "multi-rank individual (block)",
                supported: SUPPORTED_TIME_STEPPING,
            });
        }
        if decomp.nparts != dist.nranks {
            return Err(DistributedBuildError::Invalid(format!(
                "decomposition has {} parts for {} ranks",
                decomp.nparts, dist.nranks
            )));
        }
        let boxes = sph_domain::orb::rank_boxes(&sys.x, &decomp);
        let owned = bucket_owned(&decomp);
        let kernel = config.kernel.build();
        let eos = IdealGas::new(config.gamma);
        let n = sys.len();
        Ok(DistributedSimulation {
            sys,
            config,
            gravity,
            kernel,
            eos,
            boxes,
            decomp,
            owned,
            phi: vec![0.0; n],
            per_particle_work: vec![1.0; n],
            dt_prev,
            timers: (0..dist.nranks).map(|_| PhaseTimers::new()).collect(),
            driver_timers: PhaseTimers::new(),
            derivatives_fresh,
            last_exchange: None,
            log: ExchangeLog::default(),
            exchange: Box::new(InProcessExchange::new()),
            dist,
        })
    }

    /// Convenience constructor with distributed defaults.
    pub fn new(
        sys: ParticleSystem,
        config: SphConfig,
        nranks: usize,
    ) -> Result<Self, DistributedBuildError> {
        DistributedBuilder::new(sys).config(config).nranks(nranks).build()
    }

    /// Resume from a state whose accelerations and energy derivatives are
    /// valid (the `sph-ft` codec persists them). The next step reuses them
    /// for its first half-kick, exactly as the original run would have —
    /// restarts are therefore bit-exact.
    pub fn resume(
        sys: ParticleSystem,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
    ) -> Result<Self, DistributedBuildError> {
        let mut b = DistributedBuilder::new(sys).config(config).distributed(dist);
        if let Some(g) = gravity {
            b = b.gravity(g);
        }
        let mut sim = b.build()?;
        sim.derivatives_fresh = true;
        Ok(sim)
    }

    /// The current ownership assignment.
    pub fn decomposition(&self) -> &Decomposition {
        &self.decomp
    }

    /// The distributed-driver configuration this run was built with
    /// (recovery layers need it to re-`restore` with identical wiring).
    pub fn distributed_config(&self) -> DistributedConfig {
        self.dist
    }

    /// Per-rank wall-clock phase timers (rank-local kernel work only;
    /// collective driver work is in [`DistributedSimulation::driver_timers`]).
    pub fn timers(&self) -> &[PhaseTimers] {
        &self.timers
    }

    /// Driver-level collective timers (halo identification, dt reduce,
    /// integration, migration).
    pub fn driver_timers(&self) -> &PhaseTimers {
        &self.driver_timers
    }

    /// All per-rank timers folded into one aggregate view.
    pub fn aggregate_timers(&self) -> PhaseTimers {
        let agg = PhaseTimers::new();
        for t in &self.timers {
            agg.merge_from(t);
        }
        agg.merge_from(&self.driver_timers);
        agg
    }

    /// The halo exchange pattern of the most recent density superstep —
    /// measured communication volumes for the cluster step model.
    pub fn last_exchange(&self) -> Option<&HaloExchange> {
        self.last_exchange.as_ref()
    }

    /// Exchange / migration counters accumulated since construction.
    pub fn exchange_log(&self) -> ExchangeLog {
        self.log
    }

    /// Name of the active exchange carrier.
    pub fn exchange_name(&self) -> &'static str {
        self.exchange.name()
    }

    /// Swap the exchange carrier, returning the previous one. Recovery
    /// layers use this to transplant a (stateful, fault-injecting or
    /// connected) carrier into a simulation restored from checkpoint.
    pub fn replace_exchange(&mut self, exchange: Box<dyn Exchange>) -> Box<dyn Exchange> {
        std::mem::replace(&mut self.exchange, exchange)
    }

    /// Overwrite the exchange counters. A driver restored from checkpoint
    /// starts at zero; recovery layers carry the live log over so the
    /// telemetry records everything that actually happened, replays
    /// included.
    pub fn carry_exchange_log(&mut self, log: ExchangeLog) {
        self.log = log;
    }

    /// Ask the carrier to bring a failed rank back (respawn/reconnect).
    pub fn recover_rank(&mut self, rank: u32) -> Result<(), ExchangeError> {
        self.exchange.recover_rank(rank)
    }

    /// Per-particle work units of the last derivative evaluation (the
    /// load measure rebalancing and the cluster model consume).
    pub fn per_particle_work(&self) -> &[f64] {
        &self.per_particle_work
    }

    /// Conservation snapshot over the global state (includes gravity when
    /// enabled). Bit-identical for any rank count.
    pub fn conservation(&self) -> Conservation {
        let phi = self.gravity.is_some().then_some(self.phi.as_slice());
        Conservation::measure(&self.sys, phi)
    }

    // ---------------------------------------------------------------
    // Halo exchange plumbing (the in-process analogue of MPI packing)
    // ---------------------------------------------------------------

    /// Build each rank's workspace for one density attempt: local id set,
    /// extracted local system, the cell grid over local positions, and —
    /// for a strict `active` subset (ascending global ids) — the owned
    /// active local indices.
    fn build_workspaces(&self, halos: &HaloExchange, active: Option<&[u32]>) -> Vec<RankWorkspace> {
        (0..self.dist.nranks)
            .map(|r| {
                let owned = &self.owned[r];
                // halo_sets emits imports in ascending global id already.
                let locals = merge_sorted(owned, &halos.imports[r]);
                let owned_k: Vec<u32> = {
                    let mut out = Vec::with_capacity(owned.len());
                    let mut oi = 0;
                    for (k, &g) in locals.iter().enumerate() {
                        if oi < owned.len() && owned[oi] == g {
                            out.push(k as u32);
                            oi += 1;
                        }
                    }
                    out
                };
                let ghosts: Vec<(u32, u32)> = {
                    let mut oi = 0;
                    locals
                        .iter()
                        .enumerate()
                        .filter_map(|(k, &g)| {
                            if oi < owned.len() && owned[oi] == g {
                                oi += 1;
                                None
                            } else {
                                Some((k as u32, g))
                            }
                        })
                        .collect()
                };
                // Both lists ascend in global id: one merge walk.
                let active_k = active.map(|act| {
                    let mut out = Vec::with_capacity(act.len().min(owned_k.len()));
                    let mut ai = 0;
                    for &k in &owned_k {
                        let g = locals[k as usize];
                        while ai < act.len() && act[ai] < g {
                            ai += 1;
                        }
                        if ai < act.len() && act[ai] == g {
                            out.push(k);
                        }
                    }
                    out
                });
                let sys_l = self.sys.subset(&locals);
                let grid = (!locals.is_empty()).then(|| {
                    self.timers[r].time(Phase::TreeBuild, || {
                        CellGrid::for_radius(
                            &sys_l.x,
                            sys_l.periodicity,
                            SUPPORT_RADIUS * sys_l.max_h(),
                        )
                    })
                });
                RankWorkspace {
                    locals,
                    owned_k,
                    active_k,
                    ghosts,
                    sys_l,
                    grid,
                    lists: NeighborLists::default(),
                }
            })
            .collect()
    }

    // ---------------------------------------------------------------
    // The distributed derivative evaluation (Algorithm 1, steps 1–4)
    // ---------------------------------------------------------------

    /// Evaluate all derivatives (Algorithm 1 steps 1–4) for every owned
    /// particle on its owner. Exchange failures surface as `Err` with the
    /// state as of the failed superstep — the recovery layer rolls back;
    /// the driver itself never retries a non-transient fault.
    pub fn evaluate_derivatives(&mut self) -> Result<StepStats, ExchangeError> {
        self.evaluate_active(None)
    }

    /// [`DistributedSimulation::evaluate_derivatives`] restricted to the
    /// `active` global ids (ascending; `None` = every particle). A strict
    /// subset runs every pass on owned ∩ active and takes its forces from
    /// the gather lists, as block-stepping codes do; the full system uses
    /// the symmetric closure (exact pairwise conservation).
    fn evaluate_active(&mut self, active: Option<&[u32]>) -> Result<StepStats, ExchangeError> {
        let active = active.filter(|a| a.len() < self.sys.len());
        let nranks = self.dist.nranks;
        let retries = self.dist.exchange_retries;
        let mut stats = StepStats::default();

        // --- Superstep 1+2: halo negotiation, collective h-iteration ---
        //
        // Negotiate a radius from the pre-step per-rank max h with a small
        // iteration headroom, then *verify* it against the largest search
        // radius any rank actually requested. On a miss, restore the
        // pre-step smoothing lengths and re-run at the escalated radius.
        let growth = h_growth_bound(&self.config);
        let headroom_cap = self.config.max_h_iterations.saturating_sub(1) as u32;
        let per_rank_max_h: Vec<f64> = (0..nranks)
            .map(|r| self.owned[r].iter().map(|&i| self.sys.h[i as usize]).fold(0.0, f64::max))
            .collect();
        let initial = HaloRadiusPolicy::with_headroom(
            SUPPORT_RADIUS,
            growth,
            self.dist.halo_growth_steps.min(headroom_cap),
        );
        // The max-h reduction is the first collective of the protocol;
        // `radius_for` over the reduced max reproduces `negotiate`'s
        // sequential fold bit-for-bit (max is order-independent).
        let global_max_h = with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
            ex.reduce_max(ExchangePath::HaloNegotiation, &per_rank_max_h)
        })?;
        let mut radius = initial.radius_for(global_max_h);
        let mut attempts = 0u32;
        let h_before = self.sys.h.clone();

        loop {
            let halos = self.driver_timers.time(Phase::NeighborLists, || {
                halo_sets(&self.sys.x, &self.decomp, radius, &self.sys.periodicity)
            });
            self.log.ghosts_imported += halos.total_volume() as u64;
            self.log.density_attempts += 1;
            let mut wss = self.build_workspaces(&halos, active);
            let mut attempt = StepStats::default();
            let mut per_rank_measured = vec![0.0f64; nranks];
            for (r, ws) in wss.iter_mut().enumerate() {
                let Some(grid) = &ws.grid else { continue };
                let act = active_of(&ws.owned_k, &ws.active_k);
                if act.is_empty() {
                    continue;
                }
                let (lists, dstats) = self.timers[r].time(Phase::Density, || {
                    compute_density(&mut ws.sys_l, grid, self.kernel.as_ref(), &self.config, act)
                });
                ws.lists = lists;
                per_rank_measured[r] = dstats.max_search_radius;
                attempt.merge(&dstats);
            }
            // Owners publish the adapted h, ρ, Ω.
            for ws in &wss {
                for &k in ws.active() {
                    let g = ws.locals[k as usize] as usize;
                    self.sys.h[g] = ws.sys_l.h[k as usize];
                    self.sys.rho[g] = ws.sys_l.rho[k as usize];
                    self.sys.omega[g] = ws.sys_l.omega[k as usize];
                }
            }

            // Collective max-reduce of the measured search radius: inside
            // the negotiated radius, every local ball query saw the exact
            // global neighbour set, so the attempt is the global answer.
            // Acceptance is *only* by measured coverage — never by an
            // analytic cap, whose different rounding path could sit a few
            // ulps under the measured radius and admit a missed ghost.
            // The reduce goes through the exchange carrier (max over
            // per-rank maxima ≡ the merged fold, exactly).
            let measured = with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
                ex.reduce_max(ExchangePath::HaloNegotiation, &per_rank_measured)
            })?;
            if measured <= radius {
                self.last_exchange = Some(halos);
                stats.merge(&attempt);
                return self.finish_evaluation(wss, stats);
            }
            self.log.renegotiations += 1;
            attempts += 1;
            // Escalation grows the radius geometrically (growth ≥ 1.5), so
            // it passes the fully-covered trajectory's finite maximum in a
            // handful of rounds — once covered, measured ≤ radius and the
            // loop accepts. The counter turns any violation of that
            // argument into a loud failure instead of a hang.
            assert!(
                attempts < 64,
                "halo negotiation failed to converge: radius {radius}, measured {measured}"
            );
            // Escalate: at least the observed radius (which the failed
            // attempt understates, since it was computed on short halos),
            // at least one more growth factor.
            radius = measured.max(radius * growth);
            // The failed attempt mutated owned h — restore the pre-step
            // values so the retry reproduces the global trajectory.
            self.sys.h.copy_from_slice(&h_before);
        }
    }

    /// Supersteps 3–5 of the evaluation: ghost refreshes between kernels,
    /// symmetric forces, gravity. `workspaces` arrive with density done
    /// and published.
    fn finish_evaluation(
        &mut self,
        mut wss: Vec<RankWorkspace>,
        mut stats: StepStats,
    ) -> Result<StepStats, ExchangeError> {
        let retries = self.dist.exchange_retries;
        // --- Superstep 3: volume elements / IAD / EOS / velocity grads ---
        // Each kernel reads neighbour fields the owners computed in the
        // previous superstep, so ghost copies are refreshed first — the
        // exchange a real MPI code would post.
        refresh_ghosts(
            self.exchange.as_mut(),
            &mut self.log,
            retries,
            &self.sys,
            &mut wss,
            GhostFields::HRhoOmega,
        )?;
        let iad = self.config.gradients == GradientScheme::Iad;
        for (r, ws) in wss.iter_mut().enumerate() {
            let act = active_of(&ws.owned_k, &ws.active_k);
            if act.is_empty() {
                continue;
            }
            self.timers[r].time(Phase::Gradients, || {
                compute_volume_elements(
                    &mut ws.sys_l,
                    &ws.lists,
                    self.kernel.as_ref(),
                    &self.config,
                    act,
                );
            });
        }
        for ws in &wss {
            for &k in ws.active() {
                let g = ws.locals[k as usize] as usize;
                self.sys.vol[g] = ws.sys_l.vol[k as usize];
                self.sys.rho[g] = ws.sys_l.rho[k as usize]; // generalized VE rewrites ρ
            }
        }
        refresh_ghosts(
            self.exchange.as_mut(),
            &mut self.log,
            retries,
            &self.sys,
            &mut wss,
            GhostFields::VolRho,
        )?;
        if iad {
            for (r, ws) in wss.iter_mut().enumerate() {
                let act = active_of(&ws.owned_k, &ws.active_k);
                if act.is_empty() {
                    continue;
                }
                self.timers[r].time(Phase::Gradients, || {
                    compute_iad_matrices(&mut ws.sys_l, &ws.lists, self.kernel.as_ref(), act);
                });
            }
            for ws in &wss {
                for &k in ws.active() {
                    let g = ws.locals[k as usize] as usize;
                    self.sys.c_iad[g] = ws.sys_l.c_iad[k as usize];
                }
            }
            refresh_ghosts(
                self.exchange.as_mut(),
                &mut self.log,
                retries,
                &self.sys,
                &mut wss,
                GhostFields::CIad,
            )?;
        }
        // EOS is a pure per-particle function of (ρ, u): each rank applies
        // it to its whole local set, which reproduces the owner's p and cs
        // for every ghost bit-for-bit — an exchange with zero payload. Every
        // owned particle publishes, active or not, so an inactive particle's
        // p and cs track its kicked u.
        for (r, ws) in wss.iter_mut().enumerate() {
            if ws.locals.is_empty() {
                continue;
            }
            self.timers[r].time(Phase::Gradients, || {
                let sys_l = &mut ws.sys_l;
                self.eos.apply(&sys_l.rho, &sys_l.u, &mut sys_l.p, &mut sys_l.cs);
            });
        }
        for ws in &wss {
            for &k in &ws.owned_k {
                let g = ws.locals[k as usize] as usize;
                self.sys.p[g] = ws.sys_l.p[k as usize];
                self.sys.cs[g] = ws.sys_l.cs[k as usize];
            }
        }
        for (r, ws) in wss.iter_mut().enumerate() {
            let act = active_of(&ws.owned_k, &ws.active_k);
            if act.is_empty() {
                continue;
            }
            self.timers[r].time(Phase::Gradients, || {
                compute_velocity_gradients(
                    &mut ws.sys_l,
                    &ws.lists,
                    self.kernel.as_ref(),
                    self.config.gradients,
                    act,
                );
            });
        }
        for ws in &wss {
            for &k in ws.active() {
                let g = ws.locals[k as usize] as usize;
                self.sys.div_v[g] = ws.sys_l.div_v[k as usize];
                self.sys.curl_v[g] = ws.sys_l.curl_v[k as usize];
            }
        }
        refresh_ghosts(
            self.exchange.as_mut(),
            &mut self.log,
            retries,
            &self.sys,
            &mut wss,
            GhostFields::DivCurl,
        )?;

        // --- Superstep 4: forces ---
        // The full system uses the symmetric closure (see
        // `symmetric_closure`); a strict active subset keeps its gather
        // lists, as block-stepping codes do.
        for (r, ws) in wss.iter_mut().enumerate() {
            if ws.active().is_empty() {
                continue;
            }
            let (closure, pairs) = self.timers[r].time(Phase::Momentum, || {
                let closure = ws.active_k.is_none().then(|| symmetric_closure(ws));
                let force_lists = closure.as_ref().unwrap_or(&ws.lists);
                let act = active_of(&ws.owned_k, &ws.active_k);
                let pairs = compute_forces(
                    &mut ws.sys_l,
                    force_lists,
                    self.kernel.as_ref(),
                    &self.config,
                    act,
                );
                (closure, pairs)
            });
            stats.sph_interactions += pairs;
            let force_lists = closure.as_ref().unwrap_or(&ws.lists);
            for (q, &k) in ws.active().iter().enumerate() {
                let g = ws.locals[k as usize] as usize;
                self.sys.a[g] = ws.sys_l.a[k as usize];
                self.sys.du_dt[g] = ws.sys_l.du_dt[k as usize];
                // Per-particle SPH work: density + force ≈ 2× the
                // neighbour count (gravity work is added below when on).
                let sph = 2.0 * force_lists.neighbors(q).len() as f64;
                self.per_particle_work[g] = sph.max(2.0);
            }
        }

        // --- Superstep 5: self-gravity on the replicated global tree ---
        if let Some(gcfg) = self.gravity {
            let bounds = self.sys.bounds();
            #[allow(clippy::disallowed_methods)]
            // sph-lint: allow(wall-clock) — feeds the measured cluster model
            // (MeasuredStep) only; timings never influence the trajectory.
            let t0 = std::time::Instant::now();
            let gtree = Octree::build(&self.sys.x, &bounds, OctreeConfig::default());
            let replicated_build = t0.elapsed().as_secs_f64();
            // The multipole moments are rank-independent; build them once
            // and charge the (replicated-in-a-real-code) setup to every
            // rank's Gravity timer, exactly like the tree build above.
            #[allow(clippy::disallowed_methods)]
            // sph-lint: allow(wall-clock) — same measured-model-only timing.
            let t0 = std::time::Instant::now();
            let solver = GravitySolver::new(&gtree, &self.sys.m, gcfg);
            let replicated_moments = t0.elapsed().as_secs_f64();
            let mut merged = TraversalStats::default();
            for (r, ws) in wss.iter().enumerate() {
                // Every rank replicates the tree build in a real code.
                self.timers[r].add(Phase::TreeBuild, replicated_build);
                self.timers[r].add(Phase::Gravity, replicated_moments);
                // The owned ∩ active global ids (a copy only for a subset).
                let active_ids: Option<Vec<u32>> = ws
                    .active_k
                    .as_ref()
                    .map(|act| act.iter().map(|&k| ws.locals[k as usize]).collect());
                let owned = active_ids.as_deref().unwrap_or(&self.owned[r]);
                if owned.is_empty() {
                    continue;
                }
                // Chunked map over fixed REDUCE_CHUNK boundaries, so the
                // rank's threads all participate and the per-rank Gravity seconds fed to
                // `calibrate_machine` reflect the same threaded execution
                // the model assumes. `field_at` is a pure per-particle
                // function, so parallelism cannot change a bit.
                type GravityRow = (usize, sph_tree::gravity::GravitySample, u64);
                let chunks: Vec<(Vec<GravityRow>, TraversalStats)> = {
                    let solver = &solver;
                    let sys = &self.sys;
                    self.timers[r].time(Phase::Gravity, || {
                        use rayon::prelude::*;
                        use sph_math::REDUCE_CHUNK;
                        owned
                            .par_chunks(REDUCE_CHUNK)
                            .map(|chunk| {
                                let mut chunk_stats = TraversalStats::default();
                                let rows = chunk
                                    .iter()
                                    .map(|&gi| {
                                        let i = gi as usize;
                                        let mut ts = TraversalStats::default();
                                        let s = solver.field_at(sys.x[i], Some(gi), &mut ts);
                                        let work = ts.total_interactions();
                                        chunk_stats.merge(&ts);
                                        (i, s, work)
                                    })
                                    .collect();
                                (rows, chunk_stats)
                            })
                            .collect()
                    })
                };
                // Ordered reduce: scatter the rows back in owned order.
                for (rows, chunk_stats) in chunks {
                    merged.merge(&chunk_stats);
                    for (i, s, work) in rows {
                        self.sys.a[i] += s.accel;
                        self.phi[i] = s.potential;
                        self.per_particle_work[i] += work as f64;
                    }
                }
            }
            stats.gravity = merged;
        }

        self.derivatives_fresh = true;
        Ok(stats)
    }

    // ---------------------------------------------------------------
    // The macro-step driver (Algorithm 1, steps 5–6 + migration)
    // ---------------------------------------------------------------

    /// Execute one macro time-step (Algorithm 1 steps 1–6). Pathological
    /// time-step states surface as [`TimeStepError`] (naming the offending
    /// *global* particle id) instead of aborting every rank; the state is
    /// left as of the failed criterion evaluation.
    pub fn step(&mut self) -> Result<StepReport, DistributedError> {
        self.exchange.begin_step(self.sys.step_count);
        let mut stats = StepStats::default();
        if !self.derivatives_fresh {
            stats.merge(&self.evaluate_derivatives()?);
        }

        // Step 5: per-particle bounds on the owner, reduced by an exact,
        // order-independent min. Validation happens rank-side (first
        // offending *global* particle id), then each rank folds its owned
        // minimum and the exchange min-reduces the per-rank values — the
        // min of per-rank minima over a partition is bitwise the global
        // min, and empty ranks contribute the +∞ identity.
        let dts =
            self.driver_timers.time(Phase::Update, || per_particle_dt(&self.sys, &self.config));
        validate_dts(&dts)?;
        let nranks = self.dist.nranks;
        let per_rank_min: Vec<f64> = (0..nranks)
            .map(|r| self.owned[r].iter().map(|&i| dts[i as usize]).fold(f64::INFINITY, f64::min))
            .collect();
        let retries = self.dist.exchange_retries;
        let reduced = with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
            ex.reduce_min(ExchangePath::DtReduce, &per_rank_min)
        })?;
        let dt = match self.config.time_stepping {
            TimeStepping::Adaptive { growth_limit } => {
                finalize_adaptive_dt(reduced, self.dt_prev, growth_limit)
            }
            TimeStepping::Individual { max_rungs } => {
                return self.block_step(&dts, finalize_global_dt(reduced), max_rungs, stats);
            }
            TimeStepping::Global => finalize_global_dt(reduced),
        };

        // Step 6: KDK leapfrog — each rank kicks its owned particles,
        // the drift is per-particle.
        for r in 0..self.dist.nranks {
            self.timers[r].time(Phase::Update, || {
                kick(&mut self.sys, dt / 2.0, &self.owned[r]);
            });
        }
        self.driver_timers.time(Phase::Update, || {
            drift(&mut self.sys, dt);
        });

        // Positions moved: migrate strays and, on schedule, rebalance.
        // Ownership never affects values, so this may happen at any
        // barrier; doing it before the mid-step evaluation keeps the halo
        // pattern aligned with the boxes that will be computed next.
        #[allow(clippy::disallowed_methods)]
        // sph-lint: allow(wall-clock) — PhaseTimers bookkeeping for the
        // measured cluster model; the timing never feeds the trajectory.
        let t0 = std::time::Instant::now();
        self.migrate()?;
        let step_index = self.sys.step_count + 1;
        if self.dist.rebalance_every > 0 && step_index.is_multiple_of(self.dist.rebalance_every) {
            self.rebalance();
        }
        self.driver_timers.add(Phase::Update, t0.elapsed().as_secs_f64());

        stats.merge(&self.evaluate_derivatives()?);
        for r in 0..self.dist.nranks {
            self.timers[r].time(Phase::Update, || {
                kick(&mut self.sys, dt / 2.0, &self.owned[r]);
            });
        }
        Ok(self.finish_step(dt, stats, 1, 1.0))
    }

    /// Individual (block) time-steps (ChaNGa), single rank: assign
    /// power-of-two rungs from the per-particle criteria `dts`, advance one
    /// macro step of dt_max in 2^deepest substeps, evaluating derivatives
    /// only for the particles active at each substep.
    fn block_step(
        &mut self,
        dts: &[f64],
        dt_min: f64,
        max_rungs: u8,
        mut stats: StepStats,
    ) -> Result<StepReport, DistributedError> {
        let n = self.sys.len();
        let finite_max = dts.iter().cloned().filter(|d| d.is_finite()).fold(dt_min, f64::max);
        // Macro step: largest power-of-two multiple of dt_min that covers
        // the slowest particle, capped by max_rungs.
        let levels =
            ((finite_max / dt_min).log2().floor().max(0.0) as u32).min(max_rungs as u32) as u8;
        let dt_max = dt_min * (1u64 << levels) as f64;
        let rungs = assign_rungs(dts, dt_max, levels);
        self.sys.rung.copy_from_slice(&rungs);
        let substeps = 1u64 << levels;
        let dt_sub = dt_max / substeps as f64;
        let mut active_total = 0u64;
        for s in 0..substeps {
            let active = active_at_substep(&rungs, s, levels);
            // sph-lint: allow(reduce-taint) — u64 census of active
            // particles: exact integer arithmetic, order-free.
            active_total += active.len() as u64;
            // Kick each active particle by half its own rung step, drift
            // everyone, re-evaluate, kick the other half — a synchronised
            // block-KDK.
            let rung_dt: Vec<f64> =
                active.iter().map(|&i| dt_max / (1u64 << rungs[i as usize]) as f64).collect();
            self.driver_timers.time(Phase::Update, || {
                for (&i, &rdt) in active.iter().zip(&rung_dt) {
                    kick(&mut self.sys, rdt / 2.0, &[i]);
                }
                drift(&mut self.sys, dt_sub);
            });
            stats.merge(&self.evaluate_active(Some(&active))?);
            self.driver_timers.time(Phase::Update, || {
                for (&i, &rdt) in active.iter().zip(&rung_dt) {
                    kick(&mut self.sys, rdt / 2.0, &[i]);
                }
            });
        }
        let active_fraction = active_total as f64 / (substeps * n as u64) as f64;
        Ok(self.finish_step(dt_max, stats, substeps as u32, active_fraction))
    }

    /// Close a macro step: remember dt, advance the clock, report.
    fn finish_step(
        &mut self,
        dt: f64,
        stats: StepStats,
        substeps: u32,
        active_fraction: f64,
    ) -> StepReport {
        self.dt_prev = dt;
        self.sys.time += dt;
        self.sys.step_count += 1;
        StepReport {
            step: self.sys.step_count,
            dt,
            time: self.sys.time,
            stats,
            substeps,
            active_fraction,
        }
    }

    /// Run `n_steps` macro steps; stops at the first step error.
    pub fn run(&mut self, n_steps: usize) -> Result<Vec<StepReport>, DistributedError> {
        (0..n_steps).map(|_| self.step()).collect()
    }

    /// Reassign particles that drifted out of their owner's decomposition
    /// box to the rank with the nearest box (ties to the lowest rank —
    /// deterministic), shipping each mover's owner state to its new rank
    /// through the exchange carrier. Returns the number of migrated
    /// particles.
    ///
    /// Only `[x, v, m, h, u]` travel (9 f64 words per particle): the step
    /// order is half-kick → drift → **migrate** → re-evaluate → half-kick,
    /// and the re-evaluation recomputes every other field (ρ, ω, vol,
    /// C-IAD, ∇·v, ∇×v, p, cs, a, du/dt) before anything reads it — the
    /// same minimal payload a real MPI migration would post.
    fn migrate(&mut self) -> Result<usize, ExchangeError> {
        // Pass 1: decide every move (pure function of positions + boxes).
        let mut moves: Vec<(usize, u32)> = Vec::new();
        for i in 0..self.sys.len() {
            let r = self.decomp.assignment[i] as usize;
            let p = self.sys.x[i];
            let inside = self.boxes[r].is_some_and(|b| b.contains(p));
            if inside {
                continue;
            }
            // Scan in rank order with strict improvement, so the *lowest*
            // rank wins exact-distance ties — including ties against the
            // current owner (the documented deterministic rule).
            let mut best = r as u32;
            let mut best_d = f64::INFINITY;
            for (s, bx) in self.boxes.iter().enumerate() {
                let Some(bx) = bx else { continue };
                let d = bx.dist_sq_to_point(p);
                if d < best_d {
                    best_d = d;
                    best = s as u32;
                }
            }
            if best != r as u32 {
                moves.push((i, best));
            }
        }
        // Pass 2: ship the movers' owner state to each destination rank,
        // in ascending global-id order (moves are discovered in id order,
        // so per-destination order is already ascending). In-process the
        // delivery is the identity; a faulty carrier interposes here.
        const WORDS: usize = 9;
        let retries = self.dist.exchange_retries;
        for dest in 0..self.dist.nranks as u32 {
            let incoming: Vec<usize> =
                moves.iter().filter(|&&(_, to)| to == dest).map(|&(i, _)| i).collect();
            if incoming.is_empty() {
                continue;
            }
            let mut payload = Vec::with_capacity(incoming.len() * WORDS);
            for &i in &incoming {
                let (x, v) = (self.sys.x[i], self.sys.v[i]);
                payload.extend_from_slice(&[
                    x.x,
                    x.y,
                    x.z,
                    v.x,
                    v.y,
                    v.z,
                    self.sys.m[i],
                    self.sys.h[i],
                    self.sys.u[i],
                ]);
            }
            with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
                ex.deliver_f64(ExchangePath::Migration, dest, &mut payload)
            })?;
            for (j, &i) in incoming.iter().enumerate() {
                let w = &payload[j * WORDS..(j + 1) * WORDS];
                self.sys.x[i] = Vec3::new(w[0], w[1], w[2]);
                self.sys.v[i] = Vec3::new(w[3], w[4], w[5]);
                self.sys.m[i] = w[6];
                self.sys.h[i] = w[7];
                self.sys.u[i] = w[8];
            }
        }
        let moved = moves.len();
        for (i, best) in moves {
            self.decomp.assignment[i] = best;
        }
        if moved > 0 {
            self.owned = bucket_owned(&self.decomp);
        }
        self.log.migrations += moved as u64;
        Ok(moved)
    }

    /// Rebuild the decomposition from scratch with the measured
    /// per-particle work as weights, and refresh the migration boxes.
    fn rebalance(&mut self) {
        self.decomp =
            partition(&self.sys, self.dist.partitioner, self.dist.nranks, &self.per_particle_work);
        self.owned = bucket_owned(&self.decomp);
        self.boxes = sph_domain::orb::rank_boxes(&self.sys.x, &self.decomp);
        self.log.rebalances += 1;
    }

    // ---------------------------------------------------------------
    // Per-rank checkpoint / restart (sph-ft)
    // ---------------------------------------------------------------

    /// Checkpoint the run as per-rank snapshots plus a manifest blob.
    /// Each rank saves only its owned particles (`<label>.rank<r>`), as a
    /// real distributed code writes N files; the manifest records the
    /// rank count, the ownership assignment and the adaptive-step memory,
    /// so a restore reassembles the exact global state.
    ///
    /// Every byte bound for the store first crosses the exchange carrier's
    /// [`ExchangePath::CheckpointBlob`] path (rank → I/O aggregator in a
    /// real code). On `Ok` the carrier contract guarantees the delivered
    /// bytes are unchanged, so the original encoding is saved; a carrier
    /// error gates the save entirely — no torn checkpoints.
    pub fn checkpoint(
        &mut self,
        store: &mut dyn CheckpointStore,
        label: &str,
    ) -> Result<usize, DistributedError> {
        let retries = self.dist.exchange_retries;
        let mut bytes = 0;
        for (r, owned) in self.owned.iter().enumerate() {
            let snap = self.sys.subset(owned);
            let mut encoded = sph_ft::codec::encode(&snap);
            with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
                ex.deliver_bytes(ExchangePath::CheckpointBlob, r as u32, &mut encoded)
            })?;
            bytes += store.save(&format!("{label}.rank{r}"), &snap)?;
        }
        let mut manifest = self.encode_manifest();
        with_retry(self.exchange.as_mut(), &mut self.log, retries, |ex| {
            ex.deliver_bytes(ExchangePath::CheckpointBlob, 0, &mut manifest)
        })?;
        bytes += store.save_blob(label, &manifest)?;
        Ok(bytes)
    }

    /// Restore a distributed run from [`DistributedSimulation::checkpoint`]
    /// output. The restored run reproduces the uninterrupted run's state
    /// bit-for-bit: snapshots carry the accelerations and energy
    /// derivatives, so the first half-kick after the restore reuses them
    /// exactly as the original run did.
    pub fn restore(
        store: &dyn CheckpointStore,
        label: &str,
        config: SphConfig,
        gravity: Option<GravityConfig>,
        dist: DistributedConfig,
    ) -> Result<Self, DistributedError> {
        let restore_err = |detail: String| DistributedError::Restore { detail };
        let manifest = Manifest::decode(&store.restore_blob(label)?).map_err(restore_err)?;
        if manifest.nranks != dist.nranks {
            return Err(restore_err(format!(
                "manifest has {} ranks, caller requested {}",
                manifest.nranks, dist.nranks
            )));
        }
        let decomp = Decomposition::new(manifest.assignment, manifest.nranks);
        let n = decomp.assignment.len();

        // Reassemble the global state by scattering each rank's snapshot
        // back to its owned global ids.
        let mut global: Option<ParticleSystem> = None;
        for r in 0..manifest.nranks as u32 {
            let owned = decomp.indices_of(r);
            let snap = store.restore(&format!("{label}.rank{r}"))?;
            if snap.len() != owned.len() {
                return Err(restore_err(format!(
                    "rank {r} snapshot has {} particles, manifest assigns {}",
                    snap.len(),
                    owned.len()
                )));
            }
            let g = global.get_or_insert_with(|| {
                let mut g = snap.clone();
                let resize3 = |v: &mut Vec<sph_math::Vec3>| v.resize(n, sph_math::Vec3::ZERO);
                let resize1 = |v: &mut Vec<f64>| v.resize(n, 0.0);
                resize3(&mut g.x);
                resize3(&mut g.v);
                resize3(&mut g.a);
                resize1(&mut g.m);
                resize1(&mut g.h);
                resize1(&mut g.rho);
                resize1(&mut g.u);
                resize1(&mut g.p);
                resize1(&mut g.cs);
                resize1(&mut g.du_dt);
                resize1(&mut g.omega);
                resize1(&mut g.vol);
                resize1(&mut g.div_v);
                resize1(&mut g.curl_v);
                g.c_iad.resize(n, sph_math::Mat3::ZERO);
                g.rung.resize(n, 0);
                g
            });
            if snap.time != g.time || snap.step_count != g.step_count {
                return Err(restore_err(format!("rank {r} snapshot is from a different step")));
            }
            for (k, &gi) in owned.iter().enumerate() {
                let gi = gi as usize;
                g.x[gi] = snap.x[k];
                g.v[gi] = snap.v[k];
                g.a[gi] = snap.a[k];
                g.m[gi] = snap.m[k];
                g.h[gi] = snap.h[k];
                g.rho[gi] = snap.rho[k];
                g.u[gi] = snap.u[k];
                g.p[gi] = snap.p[k];
                g.cs[gi] = snap.cs[k];
                g.du_dt[gi] = snap.du_dt[k];
                g.omega[gi] = snap.omega[k];
                g.vol[gi] = snap.vol[k];
                g.div_v[gi] = snap.div_v[k];
                g.curl_v[gi] = snap.curl_v[k];
                g.c_iad[gi] = snap.c_iad[k];
                g.rung[gi] = snap.rung[k];
            }
        }
        let sys = global.ok_or_else(|| restore_err("checkpoint has zero ranks".to_string()))?;
        // Derivatives are fresh in every checkpoint taken *between* steps
        // (a completed step leaves them fresh, and that is the only state
        // a running driver exposes) — but a checkpoint written before the
        // first step carries the constructor's zeroed accelerations, and
        // the replay must re-evaluate them exactly as the original run did.
        let fresh = sys.step_count > 0;
        let mut sim = Self::assemble(sys, config, gravity, dist, decomp, manifest.dt_prev, fresh)?;
        if !manifest.phi.is_empty() {
            // Restore the gravitational-energy baseline; without it the
            // first post-restore conservation() would read Φ = 0.
            sim.phi.copy_from_slice(&manifest.phi);
        }
        Ok(sim)
    }

    fn encode_manifest(&self) -> Vec<u8> {
        let n = self.decomp.assignment.len();
        let mut buf = Vec::with_capacity(40 + 4 * n + 8 * n);
        buf.extend_from_slice(&Manifest::MAGIC.to_le_bytes());
        buf.extend_from_slice(&Manifest::VERSION.to_le_bytes());
        buf.extend_from_slice(&(self.dist.nranks as u32).to_le_bytes());
        buf.extend_from_slice(&self.dt_prev.to_le_bytes());
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        for &r in &self.decomp.assignment {
            buf.extend_from_slice(&r.to_le_bytes());
        }
        // Potentials travel in the manifest (they are driver state, not
        // ParticleSystem state) so conservation baselines survive restore.
        if self.gravity.is_some() {
            buf.extend_from_slice(&(n as u64).to_le_bytes());
            for &p in &self.phi {
                buf.extend_from_slice(&p.to_le_bytes());
            }
        } else {
            buf.extend_from_slice(&0u64.to_le_bytes());
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }
}

/// Decoded distributed-checkpoint manifest.
struct Manifest {
    nranks: usize,
    dt_prev: f64,
    assignment: Vec<u32>,
    /// Gravitational potentials by global id (empty when gravity is off).
    /// They live outside [`ParticleSystem`], so the per-rank snapshots do
    /// not carry them — without this a restored run would report a zero
    /// gravitational-energy baseline until its next evaluation.
    phi: Vec<f64>,
}

impl Manifest {
    /// "SPHEXADM" — distributed manifest.
    const MAGIC: u64 = 0x5350_4845_5841_444d;
    const VERSION: u32 = 1;

    fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut pos = 0;
        let magic = u64::from_le_bytes(take_array(bytes, &mut pos)?);
        if magic != Self::MAGIC {
            return Err("not a distributed-checkpoint manifest (bad magic)".to_string());
        }
        let version = u32::from_le_bytes(take_array(bytes, &mut pos)?);
        if version != Self::VERSION {
            return Err(format!("unsupported manifest version {version}"));
        }
        let nranks = u32::from_le_bytes(take_array(bytes, &mut pos)?) as usize;
        let dt_prev = f64::from_le_bytes(take_array(bytes, &mut pos)?);
        let n = u64::from_le_bytes(take_array::<8>(bytes, &mut pos)?) as usize;
        // Validate the untrusted count against the bytes actually present
        // *before* allocating — a corrupted length field must produce an
        // Err, not an abort-on-allocation-failure.
        if bytes.len().saturating_sub(pos) < 4 * n {
            return Err("manifest truncated".to_string());
        }
        let mut assignment = Vec::with_capacity(n);
        for _ in 0..n {
            assignment.push(u32::from_le_bytes(take_array(bytes, &mut pos)?));
        }
        let phi_n = u64::from_le_bytes(take_array::<8>(bytes, &mut pos)?) as usize;
        if phi_n != 0 && phi_n != n {
            return Err("manifest potential block has the wrong length".to_string());
        }
        if bytes.len().saturating_sub(pos) < 8 * phi_n {
            return Err("manifest truncated".to_string());
        }
        let mut phi = Vec::with_capacity(phi_n);
        for _ in 0..phi_n {
            phi.push(f64::from_le_bytes(take_array(bytes, &mut pos)?));
        }
        let payload_end = pos;
        let stored = u64::from_le_bytes(take_array::<8>(bytes, &mut pos)?);
        if fnv1a(&bytes[..payload_end]) != stored {
            return Err("manifest checksum mismatch".to_string());
        }
        if nranks == 0 || assignment.iter().any(|&r| r as usize >= nranks) {
            return Err("manifest assignment references an out-of-range rank".to_string());
        }
        Ok(Manifest { nranks, dt_prev, assignment, phi })
    }
}

/// Slice exactly `N` bytes at `*pos` or report truncation. Returning a
/// fixed-size array makes the `from_le_bytes` conversions in
/// [`Manifest::decode`] infallible — no `unwrap` on the decode path, so a
/// corrupted checkpoint can only ever surface as a typed `Err`.
fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], String> {
    let end = pos
        .checked_add(N)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| "manifest truncated".to_string())?;
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[*pos..end]);
    *pos = end;
    Ok(out)
}

impl DistributedSimulation {
    /// Largest owned-particle count over ranks divided by the mean — the
    /// instantaneous particle imbalance.
    pub fn imbalance(&self) -> f64 {
        self.decomp.imbalance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_ft::checkpoint::MemoryStore;
    use sph_math::{Periodicity, SplitMix64, Vec3};

    fn gas_ball(n_target: usize, seed: u64) -> ParticleSystem {
        let mut rng = SplitMix64::new(seed);
        let mut x = Vec::new();
        while x.len() < n_target {
            let p =
                Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
            if p.norm() <= 1.0 {
                x.push(p);
            }
        }
        let n = x.len();
        let mut v = vec![Vec3::ZERO; n];
        for (i, vel) in v.iter_mut().enumerate() {
            // A gentle shear so particles actually cross rank boxes.
            *vel = Vec3::new(0.2 * x[i].y, -0.2 * x[i].x, 0.0);
        }
        ParticleSystem::new(
            x,
            v,
            vec![1.0 / n as f64; n],
            vec![0.5; n],
            0.3,
            Periodicity::open(Aabb::cube(Vec3::ZERO, 2.0)),
        )
    }

    fn quick_config() -> SphConfig {
        SphConfig { target_neighbors: 40, max_h_iterations: 5, ..Default::default() }
    }

    fn single_rank(sys: ParticleSystem, config: SphConfig) -> DistributedSimulation {
        DistributedSimulation::new(sys, config, 1).unwrap()
    }

    use sph_core::diagnostics::state_fingerprint as state_hash;

    #[test]
    fn matches_single_rank_bit_for_bit() {
        let steps = 4;
        let mut reference = single_rank(gas_ball(350, 3), quick_config());
        reference.run(steps).unwrap();
        let want = state_hash(&reference.sys);

        for nranks in [2usize, 3, 4] {
            let mut dist = DistributedBuilder::new(gas_ball(350, 3))
                .config(quick_config())
                .nranks(nranks)
                .build()
                .unwrap();
            dist.run(steps).unwrap();
            assert_eq!(
                state_hash(&dist.sys),
                want,
                "{nranks}-rank run diverged from the single-rank reference"
            );
            assert_eq!(dist.conservation().kinetic_energy, reference.conservation().kinetic_energy);
        }
    }

    #[test]
    fn sfc_partitioner_also_matches() {
        let steps = 3;
        let mut reference = single_rank(gas_ball(300, 9), quick_config());
        reference.run(steps).unwrap();
        let mut dist = DistributedBuilder::new(gas_ball(300, 9))
            .config(quick_config())
            .distributed(DistributedConfig {
                nranks: 3,
                partitioner: RankPartitioner::Sfc(SfcKind::Hilbert),
                rebalance_every: 2,
                halo_growth_steps: 1,
                ..Default::default()
            })
            .build()
            .unwrap();
        dist.run(steps).unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
        assert!(dist.exchange_log().rebalances >= 1);
    }

    #[test]
    fn halo_renegotiation_still_matches_when_budget_is_zero() {
        // Start far from the converged smoothing length so the h iteration
        // must grow past the frozen halo radius and force a renegotiation.
        let make = || {
            let mut sys = gas_ball(300, 5);
            for h in sys.h.iter_mut() {
                *h = 0.08;
            }
            sys
        };
        let mut reference = single_rank(make(), quick_config());
        reference.step().unwrap();
        let mut dist = DistributedBuilder::new(make())
            .config(quick_config())
            .distributed(DistributedConfig {
                nranks: 4,
                halo_growth_steps: 0,
                ..Default::default()
            })
            .build()
            .unwrap();
        dist.step().unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
        assert!(
            dist.exchange_log().renegotiations > 0,
            "zero headroom on a far-from-converged state should force a renegotiation"
        );
    }

    #[test]
    fn migration_moves_owners_without_moving_values() {
        let mut dist = DistributedBuilder::new(gas_ball(400, 7))
            .config(quick_config())
            .distributed(DistributedConfig {
                nranks: 4,
                rebalance_every: 0, // migration only
                ..Default::default()
            })
            .build()
            .unwrap();
        let before = dist.decomposition().assignment.clone();
        dist.run(6).unwrap();
        let after = &dist.decomposition().assignment;
        assert!(dist.exchange_log().migrations > 0, "shear flow must migrate some particles");
        assert_ne!(&before, after);

        let mut reference = single_rank(gas_ball(400, 7), quick_config());
        reference.run(6).unwrap();
        assert_eq!(state_hash(&dist.sys), state_hash(&reference.sys));
    }

    #[test]
    fn checkpoint_restore_reproduces_the_uninterrupted_run() {
        let dcfg = DistributedConfig { nranks: 3, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(300, 11))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        run.run(2).unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "mid").unwrap();
        run.run(3).unwrap();
        let want = state_hash(&run.sys);

        let mut replay =
            DistributedSimulation::restore(&store, "mid", quick_config(), None, dcfg).unwrap();
        replay.run(3).unwrap();
        assert_eq!(state_hash(&replay.sys), want, "restore must replay the original run");
    }

    #[test]
    fn gravity_restore_keeps_the_conservation_baseline() {
        use sph_tree::MultipoleOrder;
        let gravity =
            GravityConfig { g: 1.0, theta: 0.6, softening: 0.05, order: MultipoleOrder::Monopole };
        let dcfg = DistributedConfig { nranks: 3, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(250, 37))
            .config(quick_config())
            .gravity(gravity)
            .distributed(dcfg)
            .build()
            .unwrap();
        run.run(2).unwrap();
        let baseline = run.conservation();
        assert!(baseline.gravitational_energy < 0.0);
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "g").unwrap();

        let restored =
            DistributedSimulation::restore(&store, "g", quick_config(), Some(gravity), dcfg)
                .unwrap();
        // The restored potentials must reproduce the baseline exactly —
        // a drift detector armed right after the restore must not fire.
        let c = restored.conservation();
        assert_eq!(c.gravitational_energy.to_bits(), baseline.gravitational_energy.to_bits());

        // And the replay still matches the uninterrupted run.
        run.run(2).unwrap();
        let mut replay =
            DistributedSimulation::restore(&store, "g", quick_config(), Some(gravity), dcfg)
                .unwrap();
        replay.run(2).unwrap();
        assert_eq!(state_hash(&replay.sys), state_hash(&run.sys));
    }

    #[test]
    fn restore_with_different_rank_count_is_rejected() {
        let dcfg = DistributedConfig { nranks: 2, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(150, 13))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "cp").unwrap();
        let err = DistributedSimulation::restore(
            &store,
            "cp",
            quick_config(),
            None,
            DistributedConfig { nranks: 4, ..Default::default() },
        )
        .err()
        .expect("rank-count mismatch must be rejected");
        assert!(err.to_string().contains("ranks"), "{err}");
    }

    #[test]
    fn restore_rejects_unsupported_or_invalid_configs() {
        // The restore path must enforce the same constraints as the
        // builder — an Individual-stepping config would otherwise silently
        // integrate with Global semantics.
        let dcfg = DistributedConfig { nranks: 2, ..Default::default() };
        let mut run = DistributedBuilder::new(gas_ball(150, 31))
            .config(quick_config())
            .distributed(dcfg)
            .build()
            .unwrap();
        let mut store = MemoryStore::new();
        run.checkpoint(&mut store, "cp").unwrap();

        let individual = SphConfig {
            time_stepping: TimeStepping::Individual { max_rungs: 4 },
            ..quick_config()
        };
        let err = DistributedSimulation::restore(&store, "cp", individual, None, dcfg)
            .err()
            .expect("Individual stepping must be rejected on restore");
        assert!(err.to_string().contains("time-stepping"), "{err}");

        let invalid = SphConfig { gamma: 0.1, ..quick_config() };
        assert!(DistributedSimulation::restore(&store, "cp", invalid, None, dcfg).is_err());
    }

    #[test]
    fn manifest_roundtrip_and_corruption_detection() {
        let dist = DistributedBuilder::new(gas_ball(120, 17))
            .config(quick_config())
            .nranks(2)
            .build()
            .unwrap();
        let bytes = dist.encode_manifest();
        let m = Manifest::decode(&bytes).unwrap();
        assert_eq!(m.nranks, 2);
        assert_eq!(m.assignment, dist.decomp.assignment);
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(Manifest::decode(&bad).is_err());
        assert!(Manifest::decode(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn poisoned_state_surfaces_error_with_global_index() {
        let mut dist = DistributedBuilder::new(gas_ball(250, 19))
            .config(quick_config())
            .nranks(3)
            .build()
            .unwrap();
        dist.step().unwrap();
        let time_before = dist.sys.time;
        dist.sys.a[41] = Vec3::new(f64::NAN, 0.0, 0.0);
        let err = dist.step().unwrap_err();
        assert!(
            matches!(err, DistributedError::TimeStep(TimeStepError::NonFinite { particle: 41 })),
            "{err}"
        );
        assert_eq!(dist.sys.time, time_before, "failed step must not advance time");
    }

    #[test]
    fn builder_rejects_individual_stepping_with_typed_error() {
        let individual = SphConfig {
            time_stepping: TimeStepping::Individual { max_rungs: 4 },
            ..quick_config()
        };
        assert!(
            DistributedBuilder::new(gas_ball(100, 23)).config(individual).nranks(1).build().is_ok(),
            "individual stepping must build at nranks 1"
        );
        let err = DistributedBuilder::new(gas_ball(100, 23))
            .config(individual)
            .nranks(2)
            .build()
            .err()
            .expect("multi-rank individual stepping must be rejected");
        // The rejection is a typed capability gap, not a stringly error…
        assert!(
            matches!(err, DistributedBuildError::UnsupportedTimeStepping { .. }),
            "expected UnsupportedTimeStepping, got {err:?}"
        );
        // …and its message names every mode the driver does support, so
        // the caller can correct the configuration without reading source.
        let msg = err.to_string();
        for mode in SUPPORTED_TIME_STEPPING {
            assert!(msg.contains(mode), "error message must name {mode}: {msg}");
        }
    }

    #[test]
    fn builder_rejects_zero_ranks_with_typed_error() {
        let err = DistributedBuilder::new(gas_ball(100, 23))
            .config(quick_config())
            .nranks(0)
            .build()
            .err()
            .expect("zero ranks must be rejected");
        assert!(matches!(err, DistributedBuildError::BadRankCount { nranks: 0, .. }), "{err:?}");
    }

    #[test]
    fn timers_and_exchange_are_populated() {
        let mut dist = DistributedBuilder::new(gas_ball(250, 29))
            .config(quick_config())
            .nranks(2)
            .build()
            .unwrap();
        dist.run(2).unwrap();
        for (r, t) in dist.timers().iter().enumerate() {
            assert!(t.get(Phase::Density) > 0.0, "rank {r} never summed density");
            assert!(t.get(Phase::Momentum) > 0.0, "rank {r} never ran forces");
        }
        assert!(dist.driver_timers().get(Phase::NeighborLists) > 0.0);
        let halos = dist.last_exchange().expect("two ranks must exchange");
        assert!(halos.total_volume() > 0);
        assert!(dist.exchange_log().ghosts_imported > 0);
        let agg = dist.aggregate_timers();
        assert!(agg.total() >= dist.timers()[0].total());
    }
}
