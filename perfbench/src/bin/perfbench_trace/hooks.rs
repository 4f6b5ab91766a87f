//! Forwarding wrappers for the two seams the traced run times: each
//! core's boxed fetch stream and the boxed `IPrefetcher`.
//!
//! Per-instruction calls are too short and too many to time one by one:
//! a timed call pays two clock reads, about 45 ns on a 2-vCPU Xeon VM,
//! more than a walker step takes. So every call is counted exactly and one call in [`SAMPLE_EVERY`], chosen by a
//! deterministic pseudo-random sequence, is timed. The estimate is the
//! mean sampled duration, less the calibrated cost of reading the clock,
//! times the exact call count. A sample longer than [`INTERRUPTED_NS`]
//! is a host interruption (the thread was descheduled), not the call's
//! cost: scaled by the sampling rate, one such sample would outweigh a
//! whole cell. Those samples are dropped and counted.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use tifs_sim::prefetch::{FetchKind, IPrefetcher, PrefetchCtx};
use tifs_trace::{BlockAddr, FetchRecord};

/// One call in this many is timed.
pub const SAMPLE_EVERY: u64 = 32;

/// Sampled calls longer than this are counted as interrupted and left
/// out of the estimate. Callbacks here take tens to hundreds of
/// nanoseconds.
pub const INTERRUPTED_NS: f64 = 50_000.0;

/// The host clock, with the cost of one timed empty call measured.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    /// Median nanoseconds a timed empty call reads.
    pub overhead_ns: f64,
}

impl Clock {
    /// Measures the timer's own cost as the median of many empty
    /// intervals.
    pub fn calibrate() -> Clock {
        let mut samples: Vec<u128> = (0..20_001)
            .map(|_| {
                let t = Instant::now();
                black_box(());
                t.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        Clock {
            overhead_ns: samples[samples.len() / 2] as f64,
        }
    }
}

/// Exact call count and sampled time of one kind of call.
#[derive(Debug)]
pub struct Sampled {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<f64>,
    interrupted: Cell<u64>,
    rng: Cell<u64>,
}

impl Default for Sampled {
    fn default() -> Sampled {
        Sampled {
            calls: Cell::new(0),
            sampled: Cell::new(0),
            sampled_ns: Cell::new(0.0),
            interrupted: Cell::new(0),
            rng: Cell::new(0x9E37_79B9_7F4A_7C15),
        }
    }
}

impl Sampled {
    /// Counts one call of `f`, timing it if it is sampled.
    #[inline]
    pub fn call<R>(&self, clock: &Clock, f: impl FnOnce() -> R) -> R {
        self.calls.set(self.calls.get() + 1);
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        if !x.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as f64;
        if ns > INTERRUPTED_NS {
            self.interrupted.set(self.interrupted.get() + 1);
        } else {
            self.sampled.set(self.sampled.get() + 1);
            self.sampled_ns
                .set(self.sampled_ns.get() + ns - clock.overhead_ns);
        }
        out
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Sampled calls dropped as interrupted.
    pub fn interrupted(&self) -> u64 {
        self.interrupted.get()
    }

    /// Estimated total nanoseconds spent in the calls.
    pub fn estimated_ns(&self) -> f64 {
        match self.sampled.get() {
            0 => 0.0,
            n => (self.sampled_ns.get() / n as f64 * self.calls.get() as f64).max(0.0),
        }
    }
}

/// A fetch stream that counts and samples every `next`.
pub struct TracedStream<'a, I> {
    inner: I,
    stats: &'a Sampled,
    clock: &'a Clock,
}

impl<'a, I> TracedStream<'a, I> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: I, stats: &'a Sampled, clock: &'a Clock) -> Self {
        TracedStream {
            inner,
            stats,
            clock,
        }
    }
}

impl<I: Iterator<Item = FetchRecord>> Iterator for TracedStream<'_, I> {
    type Item = FetchRecord;

    #[inline]
    fn next(&mut self) -> Option<FetchRecord> {
        let inner = &mut self.inner;
        self.stats.call(self.clock, || inner.next())
    }
}

/// Calls into one prefetcher, by kind.
#[derive(Debug, Default)]
pub struct PrefetcherCalls {
    /// `tick`, once per cycle.
    pub tick: Sampled,
    /// `on_block_fetch` and `on_fetch_instr`.
    pub fetch: Sampled,
    /// `on_retire_fetch_miss`.
    pub retire: Sampled,
    /// `on_l2_evict` and `on_flush`.
    pub other: Sampled,
}

impl PrefetcherCalls {
    /// Calls of every kind.
    pub fn calls(&self) -> u64 {
        self.tick.calls() + self.fetch.calls() + self.retire.calls() + self.other.calls()
    }

    /// Sampled calls of every kind dropped as interrupted.
    pub fn interrupted(&self) -> u64 {
        self.tick.interrupted()
            + self.fetch.interrupted()
            + self.retire.interrupted()
            + self.other.interrupted()
    }
}

/// An `IPrefetcher` that forwards every method to `inner`, counting and
/// sampling the simulation-time callbacks.
pub struct TracedPrefetcher<'a> {
    inner: Box<dyn IPrefetcher + 'a>,
    calls: &'a PrefetcherCalls,
    clock: &'a Clock,
}

impl<'a> TracedPrefetcher<'a> {
    /// Wraps `inner`, recording into `calls`.
    pub fn new(
        inner: Box<dyn IPrefetcher + 'a>,
        calls: &'a PrefetcherCalls,
        clock: &'a Clock,
    ) -> Self {
        TracedPrefetcher {
            inner,
            calls,
            clock,
        }
    }
}

impl IPrefetcher for TracedPrefetcher<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_fetch_instr(&mut self, ctx: &mut PrefetchCtx<'_>, rec: &FetchRecord) {
        let inner = &mut self.inner;
        self.calls
            .fetch
            .call(self.clock, || inner.on_fetch_instr(ctx, rec));
    }

    fn on_block_fetch(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        kind: FetchKind,
    ) -> Option<u64> {
        let inner = &mut self.inner;
        self.calls
            .fetch
            .call(self.clock, || inner.on_block_fetch(ctx, block, kind))
    }

    fn on_retire_fetch_miss(
        &mut self,
        ctx: &mut PrefetchCtx<'_>,
        block: BlockAddr,
        supplied: bool,
    ) {
        let inner = &mut self.inner;
        self.calls.retire.call(self.clock, || {
            inner.on_retire_fetch_miss(ctx, block, supplied)
        });
    }

    fn on_l2_evict(&mut self, block: BlockAddr) {
        let inner = &mut self.inner;
        self.calls
            .other
            .call(self.clock, || inner.on_l2_evict(block));
    }

    fn on_flush(&mut self, ctx: &mut PrefetchCtx<'_>) {
        let inner = &mut self.inner;
        self.calls.other.call(self.clock, || inner.on_flush(ctx));
    }

    fn tick(&mut self, ctx: &mut PrefetchCtx<'_>) {
        let inner = &mut self.inner;
        self.calls.tick.call(self.clock, || inner.tick(ctx));
    }

    fn counters(&self) -> Vec<(String, f64)> {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }
}
