//! Counting, timing `Exchange` decorator around `InProcessExchange`,
//! handed to the driver through `DistributedBuilder::exchange`. Every
//! call is forwarded with the caller's payload untouched, so the
//! delivered bits are exactly the in-process carrier's.

use crate::alloc;
use sph_domain::exchange::{Exchange, ExchangeError, ExchangePath, InProcessExchange};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, Default)]
pub struct PathCounters {
    pub calls: u64,
    pub f64_words: u64,
    pub bytes: u64,
    pub busy_s: f64,
}

/// Per-path counters, indexed like `ExchangePath::ALL`.
pub type Counters = Arc<Mutex<[PathCounters; 5]>>;

pub struct CountingExchange {
    inner: InProcessExchange,
    counters: Counters,
}

impl CountingExchange {
    pub fn new() -> (CountingExchange, Counters) {
        let counters: Counters = Arc::default();
        (CountingExchange { inner: InProcessExchange::new(), counters: counters.clone() }, counters)
    }

    fn timed<T>(
        &mut self,
        path: ExchangePath,
        f64_words: usize,
        bytes: usize,
        op: impl FnOnce(&mut InProcessExchange) -> T,
    ) -> T {
        let previous = alloc::enter(alloc::DOMAIN);
        let t0 = Instant::now();
        let out = op(&mut self.inner);
        let busy = t0.elapsed().as_secs_f64();
        alloc::leave(previous);
        let slot = ExchangePath::ALL.iter().position(|&p| p == path).expect("known path");
        let mut c = self.counters.lock().expect("counter lock poisoned");
        c[slot].calls += 1;
        c[slot].f64_words += f64_words as u64;
        c[slot].bytes += bytes as u64;
        c[slot].busy_s += busy;
        out
    }
}

impl Exchange for CountingExchange {
    fn name(&self) -> &'static str {
        "counting-in-process"
    }

    fn begin_step(&mut self, step: u64) {
        self.inner.begin_step(step);
    }

    fn reduce_max(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        self.timed(path, per_rank.len(), 8 * per_rank.len(), |ex| ex.reduce_max(path, per_rank))
    }

    fn reduce_min(&mut self, path: ExchangePath, per_rank: &[f64]) -> Result<f64, ExchangeError> {
        self.timed(path, per_rank.len(), 8 * per_rank.len(), |ex| ex.reduce_min(path, per_rank))
    }

    fn deliver_f64(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<f64>,
    ) -> Result<(), ExchangeError> {
        let words = payload.len();
        self.timed(path, words, 8 * words, |ex| ex.deliver_f64(path, to_rank, payload))
    }

    fn deliver_bytes(
        &mut self,
        path: ExchangePath,
        to_rank: u32,
        payload: &mut Vec<u8>,
    ) -> Result<(), ExchangeError> {
        let bytes = payload.len();
        self.timed(path, 0, bytes, |ex| ex.deliver_bytes(path, to_rank, payload))
    }

    fn recover_rank(&mut self, rank: u32) -> Result<(), ExchangeError> {
        self.inner.recover_rank(rank)
    }
}
