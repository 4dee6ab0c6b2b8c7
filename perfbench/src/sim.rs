//! Simulation episodes through the public driver: scenario `init`,
//! `DistributedBuilder::build`, then `DistributedSimulation::step`.
//! An episode always runs the same fixed number of macro-steps from
//! freshly generated inputs, so every sample of one seed times the same
//! physical steps however long the run is.

use crate::alloc;
use crate::exchange::{CountingExchange, PathCounters};
use crate::replay::{Replay, Work};
use crate::trace::Tracer;
use sph_core::diagnostics::state_fingerprint;
use sph_core::particles::ParticleSystem;
use sph_exa::{DistributedBuilder, DistributedSimulation, ExchangeLog};
use sph_math::SplitMix64;
use sph_scenarios::{Resolution, ScenarioRegistry, ScenarioSetup};
use std::time::Instant;

/// Worker threads per parallel loop: the container's two cores.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub scenario: &'static str,
    pub scale: f64,
    pub nranks: usize,
    /// Macro-steps per episode, the first (priming) one included.
    pub steps: usize,
    /// Perturb the inputs by the seed. Off where they must equal what a
    /// served job builds from its spec.
    pub jitter: bool,
}

/// Scenario initial conditions for `spec`, with the seeded jitter applied.
/// Returns the setup and the seconds spent in `Scenario::init`.
pub fn inputs(reg: &ScenarioRegistry, spec: &SimSpec, seed: u64) -> (ScenarioSetup, f64) {
    let sc = reg.get(spec.scenario).expect("workload scenarios are registered");
    let t0 = Instant::now();
    let mut setup = sc.init(Resolution { scale: spec.scale });
    let init_s = t0.elapsed().as_secs_f64();
    if spec.jitter {
        jitter(&mut setup.sys, seed);
    }
    (setup, init_s)
}

/// Scale every particle's internal energy by a seeded factor within
/// 1 ± 10⁻³: each seed gets its own inputs and trajectory bits, while
/// positions — and so neighbour sets, h-iterations and the rank
/// decomposition — stay those of the scenario, which keeps the work per
/// step the same for every seed.
fn jitter(sys: &mut ParticleSystem, seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x5eed_1e55_0f5e_ed00);
    for u in sys.u.iter_mut() {
        *u *= 1.0 + rng.uniform(-1e-3, 1e-3);
    }
}

pub fn build(
    setup: ScenarioSetup,
    nranks: usize,
    exchange: Option<CountingExchange>,
) -> Result<DistributedSimulation, String> {
    let mut b =
        DistributedBuilder::new(setup.sys).config(setup.config).nranks(nranks).num_threads(THREADS);
    if let Some(g) = setup.gravity {
        b = b.gravity(g);
    }
    if let Some(ex) = exchange {
        b = b.exchange(Box::new(ex));
    }
    b.build().map_err(String::from)
}

/// Time `f`; with a tracer, also record it as a span charged to `layer`.
fn timed<R>(
    tr: Option<&Tracer>,
    name: &'static str,
    layer: usize,
    parent: Option<usize>,
    req: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let out = match tr {
        Some(tr) => tr.layer(name, layer, parent, req, |_| f()),
        None => f(),
    };
    (out, t0.elapsed().as_secs_f64())
}

/// Exchange-layer activity of one traced episode over its steps after
/// the first.
#[derive(Debug, Clone, Copy, Default)]
pub struct DomainDelta {
    pub paths: [PathCounters; 5],
    pub log: ExchangeLog,
    pub imbalance: f64,
    pub steps: usize,
}

pub struct Episode {
    /// `init` + build + the first (priming) step.
    pub setup_s: f64,
    /// Wall time of each macro-step after the first.
    pub steps: Vec<f64>,
    pub complete: bool,
    pub fingerprint: u64,
    /// Conservation totals at the end are all finite.
    pub finite: bool,
    pub particles: usize,
    pub attempted: u64,
    pub failed: u64,
    pub domain: Option<DomainDelta>,
}

impl Episode {
    /// Setup plus every step: what a user waits for to get the result.
    pub fn wall(&self) -> f64 {
        self.setup_s + self.steps.iter().sum::<f64>()
    }

    fn failed(setup_s: f64) -> Episode {
        Episode {
            setup_s,
            steps: Vec::new(),
            complete: false,
            fingerprint: 0,
            finite: false,
            particles: 0,
            attempted: 1,
            failed: 1,
            domain: None,
        }
    }
}

fn log_delta(end: ExchangeLog, start: ExchangeLog) -> ExchangeLog {
    ExchangeLog {
        ghosts_imported: end.ghosts_imported - start.ghosts_imported,
        renegotiations: end.renegotiations - start.renegotiations,
        density_attempts: end.density_attempts - start.density_attempts,
        migrations: end.migrations - start.migrations,
        rebalances: end.rebalances - start.rebalances,
        transient_retries: end.transient_retries - start.transient_retries,
    }
}

/// One episode through the driver. No new step starts after `deadline`.
/// With a tracer the driver gets the counting exchange and every phase is
/// recorded as a span (`req` is the episode's request id).
pub fn episode(
    reg: &ScenarioRegistry,
    spec: &SimSpec,
    seed: u64,
    deadline: Option<Instant>,
    tr: Option<&Tracer>,
    req: u64,
) -> Episode {
    // Set-up: init + build + the first (priming) step; `None` on failure.
    let set_up = |parent: Option<usize>| {
        let ((setup, init_s), _) =
            timed(tr, "setup.init", alloc::SETUP, parent, req, || inputs(reg, spec, seed));
        let (exchange, counters) = match tr {
            Some(_) => {
                let (ex, c) = CountingExchange::new();
                (Some(ex), Some(c))
            }
            None => (None, None),
        };
        let (built, build_s) = timed(tr, "setup.build", alloc::SETUP, parent, req, || {
            build(setup, spec.nranks, exchange)
        });
        let mut setup_s = init_s + build_s;
        let sim = built.ok().and_then(|mut sim| {
            let (first, step_s) = timed(tr, "sph-exa.step", alloc::EXA, parent, req, || sim.step());
            setup_s += step_s;
            first.ok().map(|_| sim)
        });
        (sim, setup_s, counters)
    };
    let (sim, setup_s, counters) = match tr {
        Some(tr) => tr.span("setup", None, req, |id| set_up(Some(id))),
        None => set_up(None),
    };
    let Some(mut sim) = sim else {
        return Episode::failed(setup_s);
    };
    let particles = sim.sys.len();
    let log0 = sim.exchange_log();
    if let Some(c) = &counters {
        *c.lock().expect("counter lock poisoned") = Default::default();
    }
    let mut ep = Episode {
        setup_s,
        steps: Vec::with_capacity(spec.steps),
        complete: false,
        fingerprint: 0,
        finite: false,
        particles,
        attempted: 1,
        failed: 0,
        domain: None,
    };
    for _ in 1..spec.steps {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        ep.attempted += 1;
        let (r, s) = timed(tr, "sph-exa.step", alloc::EXA, None, req, || sim.step());
        if r.is_err() {
            ep.failed += 1;
            return ep;
        }
        ep.steps.push(s);
    }
    ep.complete = ep.steps.len() + 1 == spec.steps;
    ep.fingerprint = state_fingerprint(&sim.sys);
    let c = sim.conservation();
    ep.finite = [c.total_mass, c.kinetic_energy, c.internal_energy, c.gravitational_energy]
        .iter()
        .chain(&[c.momentum.x, c.momentum.y, c.momentum.z])
        .chain(&[c.angular_momentum.x, c.angular_momentum.y, c.angular_momentum.z])
        .all(|v| v.is_finite());
    if let Some(c) = &counters {
        let paths = *c.lock().expect("counter lock poisoned");
        ep.domain = Some(DomainDelta {
            paths,
            log: log_delta(sim.exchange_log(), log0),
            imbalance: sim.imbalance(),
            steps: ep.steps.len(),
        });
    }
    ep
}

/// The replay of one full episode (same inputs, same step count).
pub struct ReplayEpisode {
    pub fingerprint: u64,
    /// Work over the steps after the first.
    pub work: Work,
    /// `replay.step` span ids of the steps after the first.
    pub step_spans: Vec<usize>,
    pub ok: bool,
}

pub fn replay_episode(
    reg: &ScenarioRegistry,
    spec: &SimSpec,
    seed: u64,
    tr: &Tracer,
    req: u64,
) -> ReplayEpisode {
    let (setup, _) = inputs(reg, spec, seed);
    let mut replay = Replay::new(setup);
    let mut out =
        ReplayEpisode { fingerprint: 0, work: Work::default(), step_spans: Vec::new(), ok: true };
    for k in 0..spec.steps {
        let Ok(span) = replay.step(tr, req) else {
            out.ok = false;
            return out;
        };
        if k == 0 {
            replay.work = Work::default();
        } else {
            out.step_spans.push(span);
        }
    }
    out.work = replay.work;
    out.fingerprint = state_fingerprint(&replay.sys);
    out
}
