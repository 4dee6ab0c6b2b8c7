//! The `serve-miss` traffic: two closed-loop clients against an
//! in-process `sph_serve::Server` (one job worker, on-disk state), each
//! submitting three fresh Sedov jobs (cache misses that execute) for
//! every repeat of its own last fresh job (a cache hit that must be
//! byte-identical to the first result).

use crate::trace::Tracer;
use sph_json::Value;
use sph_serve::{http_call, Server, ServerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Resolution and length of every served job (4,096 particles, 10 steps).
pub const JOB_SCALE: f64 = 0.5;
pub const JOB_STEPS: usize = 10;
const CLIENTS: u64 = 2;
/// Status poll interval: about 1 % of a miss's latency.
const POLL: Duration = Duration::from_millis(10);
/// A job not done after this long counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy)]
pub struct Miss {
    /// `POST /jobs` until the result is in hand.
    pub latency: f64,
    pub submit: f64,
    pub queue_wait: f64,
    pub execute: f64,
    pub polls: u64,
    pub checkpoints_written: f64,
    pub checkpoint_bytes: f64,
}

#[derive(Default)]
pub struct Load {
    pub misses: Vec<Miss>,
    pub hits: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks by name, for the report.
    pub failures: Vec<String>,
    /// Completed jobs per second: each client's completions over its own
    /// time from first submission to last completion, summed over clients
    /// (a client idling after the deadline while the other finishes does
    /// not dilute the rate).
    pub jobs_per_s: f64,
    pub start_s: f64,
    /// `GET /metrics` after the load.
    pub server_metrics: Option<Value>,
}

impl Load {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    fn absorb(&mut self, other: Load) {
        self.misses.extend(other.misses);
        self.hits.extend(other.hits);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.jobs_per_s += other.jobs_per_s;
    }
}

fn job_body(seed: u64) -> String {
    Value::obj(vec![
        ("scenario", Value::str("sedov")),
        ("resolution", Value::Num(JOB_SCALE)),
        ("steps", Value::Num(JOB_STEPS as f64)),
        ("seed", Value::Num(seed as f64)),
    ])
    .render()
}

/// Distinct job seeds per (run seed, client, submission), below 2^53 so
/// they survive the JSON number round trip.
fn job_seed(seed: u64, client: u64, n: u64) -> u64 {
    let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (client << 40) ^ n;
    h ^= h >> 29;
    h.wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 11
}

/// Parse a response body, turning any non-2xx status into an error.
fn call(addr: &str, method: &str, path: &str, body: &str) -> Result<Value, String> {
    let (status, text) =
        http_call(addr, method, path, body).map_err(|e| format!("{method} {path}: {e}"))?;
    if !(200..300).contains(&status) {
        return Err(format!("{method} {path}: HTTP {status}"));
    }
    sph_json::parse(&text).map_err(|e| format!("{method} {path}: bad JSON: {e}"))
}

struct Fresh {
    miss: Miss,
    id: String,
    body: String,
    result: String,
}

/// One cache-miss job: submit, poll to completion, check its fingerprint.
fn fresh_job(
    addr: &str,
    body: String,
    expected_fingerprint: &str,
    tr: Option<&Tracer>,
) -> Result<Fresh, String> {
    let t0 = Instant::now();
    let submitted = call(addr, "POST", "/jobs", &body)?;
    let t_submit = Instant::now();
    let id = submitted.get("id").and_then(Value::as_str).ok_or("submit: no id")?.to_string();
    let mut polls = 0u64;
    let mut running_at: Option<Instant> = None;
    let doc = loop {
        std::thread::sleep(POLL);
        polls += 1;
        let doc = call(addr, "GET", &format!("/jobs/{id}"), "")?;
        let now = Instant::now();
        match doc.get("status").and_then(Value::as_str) {
            Some("done") => break doc,
            Some("running") => {
                running_at.get_or_insert(now);
            }
            Some("queued") => {}
            other => return Err(format!("job {id}: status {other:?}")),
        }
        if now.duration_since(t0) > JOB_TIMEOUT {
            return Err(format!("job {id}: not done after {JOB_TIMEOUT:?}"));
        }
    };
    let t_done = Instant::now();
    let running_at = running_at.unwrap_or(t_done);
    let result = doc.get("result").ok_or("done job without result")?;
    let fingerprint = result.get("fingerprint").and_then(Value::as_str).unwrap_or_default();
    if fingerprint != expected_fingerprint {
        return Err(format!(
            "job {id}: fingerprint {fingerprint} != direct run {expected_fingerprint}"
        ));
    }
    let telemetry = |k: &str| {
        doc.get("telemetry").and_then(|t| t.get(k)).and_then(Value::as_f64).unwrap_or(0.0)
    };
    if let Some(tr) = tr {
        let req = u64::from_str_radix(&id, 16).unwrap_or(0);
        let job = tr.record("sph-serve.job", None, req, t0, t_done);
        for (name, from, to) in [
            ("sph-serve.submit", t0, t_submit),
            ("sph-serve.queue_wait", t_submit, running_at),
            ("sph-serve.execute", running_at, t_done),
        ] {
            tr.record(name, Some(job), req, from, to);
        }
    }
    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    Ok(Fresh {
        miss: Miss {
            latency: secs(t0, t_done),
            submit: secs(t0, t_submit),
            queue_wait: secs(t_submit, running_at),
            execute: secs(running_at, t_done),
            polls,
            checkpoints_written: telemetry("checkpoints_written"),
            checkpoint_bytes: telemetry("checkpoint_bytes"),
        },
        id,
        body,
        result: result.render(),
    })
}

/// Resubmit a finished spec: must be answered from the cache, and the
/// result must be byte-identical to the fresh one.
fn hit_job(addr: &str, first: &Fresh, tr: Option<&Tracer>) -> Result<f64, String> {
    let t0 = Instant::now();
    let submitted = call(addr, "POST", "/jobs", &first.body)?;
    if submitted.get("cached").and_then(Value::as_bool) != Some(true) {
        return Err(format!("repeat of job {} was not a cache hit", first.id));
    }
    let doc = call(addr, "GET", &format!("/jobs/{}", first.id), "")?;
    let t_done = Instant::now();
    let result = doc.get("result").map(Value::render).unwrap_or_default();
    if result != first.result {
        return Err(format!("cache hit of job {} differs from the fresh result", first.id));
    }
    if let Some(tr) = tr {
        let req = u64::from_str_radix(&first.id, 16).unwrap_or(0);
        tr.record("sph-serve.hit", None, req, t0, t_done);
    }
    Ok(t_done.duration_since(t0).as_secs_f64())
}

fn client(
    addr: &str,
    seed: u64,
    c: u64,
    deadline: Instant,
    expected: &str,
    tr: Option<&Tracer>,
) -> Load {
    let mut load = Load::default();
    let mut last: Option<Fresh> = None;
    let mut n = 0u64;
    let start = Instant::now();
    while Instant::now() < deadline {
        load.attempted += 1;
        match last.as_ref().filter(|_| n % 4 == 3) {
            Some(first) => match hit_job(addr, first, tr) {
                Ok(s) => load.hits.push(s),
                Err(e) => load.fail(e),
            },
            None => match fresh_job(addr, job_body(job_seed(seed, c, n)), expected, tr) {
                Ok(f) => {
                    load.misses.push(f.miss);
                    last = Some(f);
                }
                Err(e) => load.fail(e),
            },
        }
        n += 1;
    }
    let completed = (load.misses.len() + load.hits.len()) as f64;
    load.jobs_per_s = completed / start.elapsed().as_secs_f64();
    load
}

/// Start a server on `state_dir`, drive it until `deadline`, read its
/// metrics, shut it down and remove the state.
pub fn run(
    state_dir: &Path,
    seed: u64,
    deadline: Instant,
    expected_fingerprint: &str,
    tr: Option<&Tracer>,
) -> Load {
    let mut load = Load::default();
    let cfg = ServerConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: 1,
        acceptors: 2,
        ..ServerConfig::default()
    };
    let t0 = Instant::now();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            load.attempted += 1;
            load.fail(format!("server start: {e}"));
            return load;
        }
    };
    load.start_s = t0.elapsed().as_secs_f64();
    let addr = server.addr().to_string();
    let parts: Vec<Load> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || client(addr, seed, c, deadline, expected_fingerprint, tr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for p in parts {
        load.absorb(p);
    }
    load.attempted += 1;
    match call(&addr, "GET", "/metrics", "") {
        Ok(m) => load.server_metrics = Some(m),
        Err(e) => load.fail(e),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(state_dir);
    load
}
