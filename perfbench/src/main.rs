//! The repository benchmark. One process runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that yields the per-layer
//! metrics. The last stdout line is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it holds
//! the details (sample counts, tail percentiles, failed checks).
//! Spans are kept in memory and written to `.perfbench_out/` at exit.

// The workspace clippy config bans `Instant::now` to keep wall-clock reads
// out of trajectories; timing is this binary's purpose, and no reading
// feeds back into a simulation.
#![allow(clippy::disallowed_methods)]

mod alloc;
mod exchange;
mod replay;
mod serve;
mod sim;
mod stats;
mod trace;

use sim::{SimSpec, THREADS};
use sph_domain::exchange::ExchangePath;
use sph_json::Value;
use sph_scenarios::ScenarioRegistry;
use stats::{mean, median, Timing};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const OUT_DIR: &str = ".perfbench_out";

/// Direct runs of the served spec made before the `serve-miss` load:
/// the reference fingerprint, the step samples and the `overhead_s` base.
const SERVE_DIRECT_RUNS: usize = 8;

struct Workload {
    name: &'static str,
    sim: SimSpec,
    serve: bool,
    /// Fixed tail percentiles of the step and job latencies, chosen so a
    /// run of the configured length leaves at least ten samples beyond.
    step_tail: f64,
    job_tail: f64,
}

fn workload(name: &str) -> Option<Workload> {
    let sim =
        |scenario, scale, nranks, steps, jitter| SimSpec { scenario, scale, nranks, steps, jitter };
    Some(match name {
        "sedov-hydro" => Workload {
            name: "sedov-hydro",
            sim: sim("sedov", 1.0, 1, 9, true),
            serve: false,
            step_tail: 85.0,
            job_tail: 50.0,
        },
        "evrard-gravity" => Workload {
            name: "evrard-gravity",
            sim: sim("evrard", 4.0, 1, 9, true),
            serve: false,
            step_tail: 80.0,
            job_tail: 50.0,
        },
        "sedov-ranks4" => Workload {
            name: "sedov-ranks4",
            sim: sim("sedov", 1.0, 4, 9, true),
            serve: false,
            step_tail: 75.0,
            job_tail: 50.0,
        },
        "serve-miss" => Workload {
            name: "serve-miss",
            sim: sim("sedov", serve::JOB_SCALE, 1, serve::JOB_STEPS, false),
            serve: true,
            step_tail: 75.0,
            job_tail: 75.0,
        },
        _ => return None,
    })
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(key.to_string(), value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("--{k} is required"));
    let name = get("workload")?;
    let workload = workload(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], got {seconds}"));
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Metrics, operation counts and details of one run.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, Value)>,
    failures: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn detail(&mut self, key: &str, value: Value) {
        self.detail.push((key.to_string(), value));
    }

    /// One correctness check: an operation that fails when `ok` is false.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn timing(&mut self, key: &str, t: &Timing) {
        self.detail(
            key,
            Value::obj(vec![
                ("p50", Value::Num(t.p50)),
                ("tail", Value::Num(t.tail)),
                ("tail_percentile", Value::Num(t.tail_percentile)),
                ("samples", Value::Num(t.samples as f64)),
                ("samples_beyond_tail", Value::Num(t.beyond())),
            ]),
        );
    }
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------
// End-to-end run (tracing off)
// ---------------------------------------------------------------------

fn e2e(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) {
    let reg = ScenarioRegistry::builtin();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Episodes give the set-up and step samples; jobs are served misses on
    // `serve-miss` and whole episodes elsewhere.
    let (episodes, jobs, jobs_per_s, server_start_s) = if w.serve {
        let direct: Vec<sim::Episode> = (0..SERVE_DIRECT_RUNS)
            .map(|k| sim::episode(&reg, &w.sim, seed, None, None, k as u64))
            .collect();
        let expected = format!("{:016x}", direct[0].fingerprint);
        let load = serve::run(&state_dir(seed), seed, deadline, &expected, None);
        rep.ops(load.attempted, load.failed);
        rep.failures.extend(load.failures.iter().cloned());
        let completed = (load.misses.len() + load.hits.len()) as f64;
        rep.detail("jobs_completed", Value::Num(completed));
        rep.detail("cache_hits", Value::Num(load.hits.len() as f64));
        rep.detail("server_start_s", Value::Num(load.start_s));
        let misses = load.misses.iter().map(|m| m.latency).collect();
        (direct, misses, load.jobs_per_s, load.start_s)
    } else {
        let mut episodes = Vec::new();
        while episodes.is_empty() || Instant::now() < deadline {
            let req = episodes.len() as u64;
            episodes.push(sim::episode(&reg, &w.sim, seed, Some(deadline), None, req));
        }
        let jobs: Vec<f64> =
            episodes.iter().filter(|e| e.complete).map(sim::Episode::wall).collect();
        let per_s = jobs.len() as f64 / jobs.iter().sum::<f64>();
        (episodes, jobs, per_s, 0.0)
    };
    finish_sim_checks(w, seed, &reg, &episodes, rep);
    let setups: Vec<f64> = episodes.iter().map(|e| server_start_s + e.setup_s).collect();
    let steps: Vec<f64> = episodes.iter().flat_map(|e| e.steps.iter().copied()).collect();
    let particles = episodes.last().map_or(0, |e| e.particles);
    report_e2e(w, rep, &setups, &steps, particles, &jobs, jobs_per_s);
}

fn report_e2e(
    w: &Workload,
    rep: &mut Report,
    setups: &[f64],
    steps: &[f64],
    particles: usize,
    jobs: &[f64],
    jobs_per_s: f64,
) {
    let step = Timing::new(steps, w.step_tail);
    let job = Timing::new(jobs, w.job_tail);
    rep.metric("setup_s", median(setups), "s");
    rep.metric("step_s_p50", step.p50, "s");
    rep.metric("step_s_tail", step.tail, "s");
    rep.metric(
        "particle_steps_per_s",
        particles as f64 * steps.len() as f64 / steps.iter().sum::<f64>(),
        "1/s",
    );
    rep.metric("job_s_p50", job.p50, "s");
    rep.metric("job_s_tail", job.tail, "s");
    rep.metric("jobs_per_s", jobs_per_s, "1/s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.detail("particles", Value::Num(particles as f64));
    rep.detail("setup_samples", Value::Num(setups.len() as f64));
    rep.timing("step_s", &step);
    rep.detail("step_samples", Value::Arr(steps.iter().map(|&s| Value::Num(s)).collect()));
    rep.timing("job_s", &job);
}

/// Checks common to both run kinds, made outside the timed region: every
/// completed episode ends with finite conservation totals and the same
/// fingerprint, and a multi-rank run matches a single-rank run of the
/// same steps.
fn finish_sim_checks(
    w: &Workload,
    seed: u64,
    reg: &ScenarioRegistry,
    episodes: &[sim::Episode],
    rep: &mut Report,
) {
    for ep in episodes {
        rep.ops(ep.attempted, ep.failed);
    }
    let complete: Vec<&sim::Episode> = episodes.iter().filter(|e| e.complete).collect();
    for ep in &complete {
        rep.check("conservation totals finite", ep.finite);
    }
    let fp = complete.first().map(|e| e.fingerprint);
    rep.check(
        "every episode of one seed ends with the same fingerprint",
        complete.iter().all(|e| Some(e.fingerprint) == fp),
    );
    if w.sim.nranks > 1 {
        let fp = match fp {
            Some(fp) => fp,
            None => sim::episode(reg, &w.sim, seed, None, None, u64::MAX).fingerprint,
        };
        let single = SimSpec { nranks: 1, ..w.sim };
        let reference = sim::episode(reg, &single, seed, None, None, u64::MAX);
        rep.check(
            "multi-rank fingerprint equals the nranks = 1 run",
            reference.complete && reference.fingerprint == fp,
        );
        rep.detail("nranks1_fingerprint", Value::Str(format!("{:016x}", reference.fingerprint)));
    }
    if let Some(fp) = fp {
        rep.detail("fingerprint", Value::Str(format!("{fp:016x}")));
    }
}

fn state_dir(seed: u64) -> PathBuf {
    Path::new(OUT_DIR).join(format!("serve-{}-{seed}", std::process::id()))
}

// ---------------------------------------------------------------------
// Traced run (per-layer metrics)
// ---------------------------------------------------------------------

/// Per-step means of the replay's layer spans over its steps after the
/// first, plus the summed-layers and step-wall totals for coverage.
struct ReplayTimes {
    per_step: BTreeMap<&'static str, f64>,
    layers_per_step: f64,
    coverage: f64,
}

fn replay_times(tr: &Tracer, step_spans: &[usize]) -> ReplayTimes {
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut covered, mut wall) = (0.0, 0.0);
    for &id in step_spans {
        wall += tr.get(id).dur();
        for child in tr.children(id) {
            *totals.entry(child.name).or_insert(0.0) += child.dur();
            covered += child.dur();
        }
    }
    let n = step_spans.len().max(1) as f64;
    ReplayTimes {
        per_step: totals.into_iter().map(|(k, v)| (k, v / n)).collect(),
        layers_per_step: covered / n,
        coverage: covered / wall,
    }
}

/// Words streamed per pair by each pass (neighbour fields read for every
/// pair), for the computed bytes-moved figures.
const DENSITY_WORDS: f64 = 4.0; // x, m
const GRADIENT_WORDS: f64 = 7.0; // x, v, vol
const FORCE_WORDS: f64 = 23.0; // x, v, C_iad, h, ρ, p, Ω, ∇·v, |∇×v|, cs, m
const GRAVITY_P2P_WORDS: f64 = 4.0; // x, m
const GRAVITY_P2M_WORDS: f64 = 10.0; // centre of mass, mass, quadrupole

fn traced(w: &Workload, seed: u64, seconds: f64, rep: &mut Report) {
    let reg = ScenarioRegistry::builtin();
    let tr = Tracer::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    // The served load needs most of a serve run; its simulation part only
    // needs a few direct, traced and replayed runs of the job spec.
    let sim_deadline =
        if w.serve { start + Duration::from_secs_f64(0.3 * seconds) } else { deadline };
    let mut untraced = Vec::new();
    let mut traced_eps = Vec::new();
    let mut replays = Vec::new();
    let mut req = 0u64;
    let alloc_start = alloc::snapshot();
    // Untraced, traced and replayed episodes in turn, so drift in the
    // machine's speed affects the three alike. A round starts only if one
    // more round (timed like the last) fits before the deadline.
    loop {
        let round = Instant::now();
        untraced.push(sim::episode(&reg, &w.sim, seed, None, None, req));
        alloc::set_enabled(true);
        traced_eps.push(sim::episode(&reg, &w.sim, seed, None, Some(&tr), req + 1));
        replays.push(sim::replay_episode(&reg, &w.sim, seed, &tr, req + 2));
        alloc::set_enabled(false);
        req += 3;
        if Instant::now() + round.elapsed() >= sim_deadline {
            break;
        }
    }
    let alloc_sim = alloc::snapshot();
    let n_eps = traced_eps.len() as f64;

    for (t, r) in traced_eps.iter().zip(&replays) {
        rep.check("replay ran every step", r.ok);
        rep.check(
            "replay fingerprint equals the driver's",
            r.ok && t.complete && r.fingerprint == t.fingerprint,
        );
    }
    rep.detail("replay_fingerprint", Value::Str(format!("{:016x}", replays[0].fingerprint)));
    let all_eps: Vec<sim::Episode> = untraced.into_iter().chain(traced_eps).collect();
    let (untraced, traced_eps) = all_eps.split_at(all_eps.len() / 2);
    finish_sim_checks(w, seed, &reg, &all_eps, rep);

    let step_spans: Vec<usize> = replays.iter().flat_map(|r| r.step_spans.clone()).collect();
    let rt = replay_times(&tr, &step_spans);
    core_tree_metrics(rep, &rt, &replays[0].work, (w.sim.steps - 1) as f64);

    // sph-exa: the traced driver step against the replay's layer sum.
    let traced_steps: Vec<f64> = traced_eps.iter().flat_map(|e| e.steps.clone()).collect();
    let untraced_steps: Vec<f64> = untraced.iter().flat_map(|e| e.steps.clone()).collect();
    let driver_step = mean(&traced_steps);
    rep.metric("sph-exa.step_s", driver_step, "s");
    rep.metric("sph-exa.driver_overhead_s", driver_step - rt.layers_per_step, "s");
    rep.metric("sph-exa.replay_coverage", rt.coverage, "ratio");

    let domains: Vec<sim::DomainDelta> = traced_eps.iter().filter_map(|e| e.domain).collect();
    domain_metrics(rep, &domains);

    // sph-serve / sph-ft: client-side spans of the served load.
    let mut serve_jobs = 0.0;
    if w.serve {
        let expected = format!("{:016x}", replays[0].fingerprint);
        let direct_wall = median(&untraced.iter().map(sim::Episode::wall).collect::<Vec<_>>());
        alloc::set_enabled(true);
        let previous = alloc::enter(alloc::SERVE);
        let load = serve::run(&state_dir(seed), seed, deadline, &expected, Some(&tr));
        alloc::leave(previous);
        alloc::set_enabled(false);
        rep.ops(load.attempted, load.failed);
        rep.failures.extend(load.failures.iter().cloned());
        serve_metrics(rep, &load, direct_wall);
        serve_jobs = (load.misses.len() + load.hits.len()) as f64;
    } else {
        for name in SERVE_METRICS {
            rep.metric(format!("sph-serve.{}", name.0), 0.0, name.1);
        }
        rep.metric("sph-ft.checkpoints_written", 0.0, "count");
        rep.metric("sph-ft.checkpoint_bytes", 0.0, "B");
    }

    // Allocation attribution: per traced episode (its replay included),
    // per served job for the serve bucket.
    let alloc_end = alloc::snapshot();
    for (k, layer) in alloc::LAYERS.iter().enumerate() {
        let (bytes, count) = if k == alloc::SERVE {
            let per = serve_jobs.max(1.0);
            (
                (alloc_end[k].0 - alloc_sim[k].0) as f64 / per,
                (alloc_end[k].1 - alloc_sim[k].1) as f64 / per,
            )
        } else {
            (
                (alloc_sim[k].0 - alloc_start[k].0) as f64 / n_eps,
                (alloc_sim[k].1 - alloc_start[k].1) as f64 / n_eps,
            )
        };
        rep.metric(format!("{layer}.alloc_bytes"), bytes, "B");
        rep.metric(format!("{layer}.allocs"), count, "count");
    }

    rep.metric(
        "bench.trace_overhead",
        median(&traced_steps) / median(&untraced_steps) - 1.0,
        "ratio",
    );
    rep.detail("traced_episodes", Value::Num(n_eps));
    rep.detail("replay_steps_timed", Value::Num(step_spans.len() as f64));
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{seed}.jsonl", w.name));
    if let Err(e) = tr.write(&path) {
        rep.detail("trace_write_error", Value::Str(e.to_string()));
    } else {
        rep.detail("trace_file", Value::Str(path.display().to_string()));
    }
}

/// `sph-core` and `sph-tree`: replay span times and counted work, per
/// macro-step (`work` covers `steps` steps).
fn core_tree_metrics(rep: &mut Report, rt: &ReplayTimes, work: &replay::Work, steps: f64) {
    let per_step = |x: u64| x as f64 / steps;
    let layer_s = |name: &str| rt.per_step.get(name).copied().unwrap_or(0.0);
    for pass in
        ["density", "volume", "iad", "eos", "velocity_gradients", "forces", "timestep", "integrate"]
    {
        rep.metric(format!("sph-core.{pass}_s"), layer_s(&format!("sph-core.{pass}")), "s");
    }
    rep.metric("sph-core.h_iterations", per_step(work.h_iterations), "count");
    rep.metric("sph-core.neighbor_candidates", per_step(work.neighbor_candidates), "count");
    rep.metric("sph-core.density_pairs", per_step(work.density_pairs), "count");
    rep.metric("sph-core.force_pairs", per_step(work.force_pairs), "count");
    let rate = |pairs: u64, secs: f64| if secs > 0.0 { per_step(pairs) / secs } else { 0.0 };
    let gradient_s = layer_s("sph-core.iad") + layer_s("sph-core.velocity_gradients");
    rep.metric(
        "sph-core.density_computed_bytes",
        per_step(work.density_pairs) * DENSITY_WORDS * 8.0,
        "B",
    );
    rep.metric(
        "sph-core.gradients_computed_bytes",
        per_step(work.density_pairs) * GRADIENT_WORDS * 8.0,
        "B",
    );
    rep.metric(
        "sph-core.forces_computed_bytes",
        per_step(work.force_pairs) * FORCE_WORDS * 8.0,
        "B",
    );
    rep.metric(
        "sph-core.density_pairs_per_s",
        rate(work.density_pairs, layer_s("sph-core.density")),
        "1/s",
    );
    rep.metric("sph-core.gradients_pairs_per_s", rate(work.density_pairs, gradient_s), "1/s");
    rep.metric(
        "sph-core.forces_pairs_per_s",
        rate(work.force_pairs, layer_s("sph-core.forces")),
        "1/s",
    );
    for pass in ["grid_build", "symmetrize", "octree_build", "gravity_moments", "gravity_walk"] {
        rep.metric(format!("sph-tree.{pass}_s"), layer_s(&format!("sph-tree.{pass}")), "s");
    }
    let gravity = work.gravity_p2p + work.gravity_p2m;
    rep.metric("sph-tree.gravity_interactions", per_step(gravity), "count");
    rep.metric(
        "sph-tree.gravity_walk_computed_bytes",
        per_step(work.gravity_p2p) * GRAVITY_P2P_WORDS * 8.0
            + per_step(work.gravity_p2m) * GRAVITY_P2M_WORDS * 8.0,
        "B",
    );
    rep.metric(
        "sph-tree.gravity_walk_interactions_per_s",
        rate(gravity, layer_s("sph-tree.gravity_walk")),
        "1/s",
    );
}

/// `sph-domain`: the counting exchange plus the driver's exchange log,
/// per macro-step after the first.
fn domain_metrics(rep: &mut Report, domains: &[sim::DomainDelta]) {
    let dsteps = domains.iter().map(|d| d.steps).sum::<usize>().max(1) as f64;
    for (k, path) in ExchangePath::ALL.iter().enumerate() {
        let sum = |f: &dyn Fn(&sim::DomainDelta) -> f64| domains.iter().map(f).sum::<f64>();
        let p = path.name();
        rep.metric(
            format!("sph-domain.{p}.calls"),
            sum(&|d| d.paths[k].calls as f64) / dsteps,
            "count",
        );
        rep.metric(
            format!("sph-domain.{p}.f64_words"),
            sum(&|d| d.paths[k].f64_words as f64) / dsteps,
            "count",
        );
        rep.metric(
            format!("sph-domain.{p}.bytes"),
            sum(&|d| d.paths[k].bytes as f64) / dsteps,
            "B",
        );
        rep.metric(format!("sph-domain.{p}.busy_s"), sum(&|d| d.paths[k].busy_s) / dsteps, "s");
    }
    let log_sum = |f: &dyn Fn(&sim::DomainDelta) -> u64| {
        domains.iter().map(|d| f(d) as f64).sum::<f64>() / dsteps
    };
    rep.metric("sph-domain.ghosts_imported", log_sum(&|d| d.log.ghosts_imported), "count");
    rep.metric("sph-domain.density_attempts", log_sum(&|d| d.log.density_attempts), "count");
    rep.metric("sph-domain.renegotiations", log_sum(&|d| d.log.renegotiations), "count");
    rep.metric("sph-domain.migrations", log_sum(&|d| d.log.migrations), "count");
    rep.metric("sph-domain.imbalance", domains.last().map_or(1.0, |d| d.imbalance), "ratio");
}

const SERVE_METRICS: [(&str, &str); 9] = [
    ("submit_s", "s"),
    ("queue_wait_s", "s"),
    ("execute_s", "s"),
    ("hit_s", "s"),
    ("polls_per_job", "count"),
    ("overhead_s", "s"),
    ("cache_hit_rate", "ratio"),
    ("executions_per_miss", "ratio"),
    ("responses_5xx", "count"),
];

fn serve_metrics(rep: &mut Report, load: &serve::Load, direct_wall: f64) {
    let of = |f: fn(&serve::Miss) -> f64| load.misses.iter().map(f).collect::<Vec<f64>>();
    let m = load.server_metrics.as_ref();
    let server = |path: &[&str]| {
        let mut v = m;
        for k in path {
            v = v.and_then(|x| x.get(k));
        }
        v.and_then(Value::as_f64).unwrap_or(f64::NAN)
    };
    let misses = load.misses.len().max(1) as f64;
    let execute = median(&of(|m| m.execute));
    let values = [
        median(&of(|m| m.submit)),
        median(&of(|m| m.queue_wait)),
        execute,
        median(&load.hits),
        mean(&of(|m| m.polls as f64)),
        execute - direct_wall,
        server(&["cache", "hit_rate"]),
        server(&["executions"]) / misses,
        server(&["responses_5xx"]),
    ];
    for ((name, unit), v) in SERVE_METRICS.iter().zip(values) {
        rep.metric(format!("sph-serve.{name}"), v, unit);
    }
    rep.metric("sph-ft.checkpoints_written", mean(&of(|m| m.checkpoints_written)), "count");
    rep.metric("sph-ft.checkpoint_bytes", mean(&of(|m| m.checkpoint_bytes)), "B");
    rep.detail("serve_misses", Value::Num(load.misses.len() as f64));
    rep.detail("serve_hits", Value::Num(load.hits.len() as f64));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sedov-hydro|evrard-gravity|sedov-ranks4|serve-miss> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // One pool size for the driver, the replay and the served jobs.
    std::env::set_var("SPH_THREADS", THREADS.to_string());
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .expect("the rayon shim cannot fail to configure");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }

    let mut rep = Report::default();
    if args.trace {
        traced(&args.workload, args.seed, args.seconds, &mut rep);
        rep.metric("bench.failed_share", rep.failed as f64 / rep.attempted.max(1) as f64, "ratio");
    } else {
        e2e(&args.workload, args.seed, args.seconds, &mut rep);
    }
    rep.detail("workload", Value::str(args.workload.name));
    rep.detail("seed", Value::Num(args.seed as f64));
    rep.detail("threads", Value::Num(THREADS as f64));

    for (name, v, _) in rep.metrics.iter_mut() {
        if !v.is_finite() {
            rep.failed += 1;
            rep.failures.push(format!("metric {name} is not finite"));
            *v = 0.0;
        }
    }
    rep.detail("failed_checks", Value::Arr(rep.failures.iter().map(|f| Value::str(f)).collect()));
    let detail = Value::Obj(rep.detail.clone());
    println!("{}", Value::obj(vec![("detail", detail)]).render());
    let metrics = rep
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            (name.clone(), Value::obj(vec![("value", Value::Num(*v)), ("unit", Value::str(unit))]))
        })
        .collect();
    let result = Value::obj(vec![
        ("correct", Value::Bool(rep.failed == 0)),
        ("attempted", Value::Num(rep.attempted.max(1) as f64)),
        ("failed", Value::Num(rep.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", result.render());
}
