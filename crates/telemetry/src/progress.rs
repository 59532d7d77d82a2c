//! Live progress: shared counters and the stderr reporter.
//!
//! Everything here is display-only — progress never feeds a fold, a
//! report, or a ledger, which is why the sampler thread below is a
//! sanctioned (and annotated) departure from the Runner's
//! order-deterministic parallelism. The reporter samples any source of
//! [`ProgressCounts`]: a run's own [`Metrics`](crate::Metrics) sink, or
//! — for a fabric driver — the coordinator, which already knows every
//! registered sweep and every completed range.

use crate::metrics::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Monotonic progress state, updated by the sweep and sampled by the
/// reporter.
#[derive(Debug, Default)]
pub struct Progress {
    scenarios_total: AtomicU64,
    scenarios_done: AtomicU64,
    pieces_total: AtomicU64,
    pieces_done: AtomicU64,
}

impl Progress {
    /// Announces work: a sweep range adds its scenario and piece totals
    /// before executing (totals accumulate across sweeps in a session).
    pub fn add_planned(&self, scenarios: usize, pieces: usize) {
        self.scenarios_total
            .fetch_add(to_u64(scenarios), Ordering::Relaxed);
        self.pieces_total
            .fetch_add(to_u64(pieces), Ordering::Relaxed);
    }

    /// Marks one piece (of `scenarios` units) complete.
    pub fn piece_done(&self, scenarios: usize) {
        self.scenarios_done
            .fetch_add(to_u64(scenarios), Ordering::Relaxed);
        self.pieces_done.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time reading.
    #[must_use]
    pub fn counts(&self) -> ProgressCounts {
        ProgressCounts {
            scenarios_done: self.scenarios_done.load(Ordering::Relaxed),
            scenarios_total: self.scenarios_total.load(Ordering::Relaxed),
            pieces_done: self.pieces_done.load(Ordering::Relaxed),
            pieces_total: self.pieces_total.load(Ordering::Relaxed),
        }
    }
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// A point-in-time progress reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgressCounts {
    /// Scenarios executed so far.
    pub scenarios_done: u64,
    /// Scenarios planned.
    pub scenarios_total: u64,
    /// Work pieces completed so far.
    pub pieces_done: u64,
    /// Work pieces planned.
    pub pieces_total: u64,
}

/// The sampling interval — coarse enough to be invisible in cost,
/// fine enough to feel live.
const SAMPLE_EVERY: Duration = Duration::from_millis(200);

/// A stderr progress reporter on a sampling thread. Dropping it (or
/// calling [`ProgressReporter::finish`]) wakes the sampler at once —
/// not after its current [`SAMPLE_EVERY`] wait — emits one final
/// reading and joins the thread.
pub struct ProgressReporter {
    /// Dropping the sender wakes and stops the sampler.
    stop: Option<mpsc::Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl ProgressReporter {
    /// Starts sampling `source` and drawing the `\r`-refreshed human
    /// line with rate and ETA.
    #[must_use]
    pub fn new(source: impl Fn() -> ProgressCounts + Send + 'static) -> ProgressReporter {
        let (stop, stopped) = mpsc::channel::<()>();
        let watch = Stopwatch::start();
        // analyze: allow(d5) — display-only stderr sampler: reads counters,
        // writes no fold, joins before the process emits exact output
        let thread = std::thread::spawn(move || {
            emit(&watch, &source(), false);
            while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(SAMPLE_EVERY) {
                emit(&watch, &source(), false);
            }
            emit(&watch, &source(), true);
        });
        ProgressReporter {
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Emits one final reading and joins the sampler.
    pub fn finish(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        drop(self.stop.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One reporter tick. All arithmetic is exact integer math — rate in
/// scenarios/second, ETA in deciseconds — so the display layer obeys
/// the same no-float rule as the folds it watches.
fn emit(watch: &Stopwatch, counts: &ProgressCounts, finished: bool) {
    let ms = u128::from(watch.elapsed_ms().max(1));
    let rate = u128::from(counts.scenarios_done) * 1000 / ms;
    let remaining = counts.scenarios_total.saturating_sub(counts.scenarios_done);
    let eta_ds = if counts.scenarios_done > 0 && remaining > 0 {
        u128::from(remaining) * ms / u128::from(counts.scenarios_done) / 100
    } else {
        0
    };
    eprint!(
        "\r[sweep] pieces {}/{} · scenarios {}/{} · {rate}/s · ETA {}.{}s   ",
        counts.pieces_done,
        counts.pieces_total,
        counts.scenarios_done,
        counts.scenarios_total,
        eta_ds / 10,
        eta_ds % 10
    );
    if finished {
        eprintln!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn progress_accumulates_and_reads_back() {
        let p = Progress::default();
        p.add_planned(100, 4);
        p.add_planned(50, 2);
        p.piece_done(30);
        p.piece_done(20);
        let c = p.counts();
        assert_eq!(c.scenarios_total, 150);
        assert_eq!(c.pieces_total, 6);
        assert_eq!(c.scenarios_done, 50);
        assert_eq!(c.pieces_done, 2);
    }

    #[test]
    fn reporter_finishes_cleanly() {
        let metrics = Arc::new(crate::Metrics::new());
        metrics.progress().add_planned(10, 1);
        let m = Arc::clone(&metrics);
        let (sampled, first_reading) = mpsc::channel();
        let reporter = ProgressReporter::new(move || {
            let _ = sampled.send(());
            m.progress().counts()
        });
        metrics.progress().piece_done(10);
        // After its first reading the sampler waits out an interval;
        // stopping must wake it rather than wait with it.
        first_reading.recv().unwrap();
        let watch = Stopwatch::start();
        reporter.finish();
        let waited = watch.elapsed_ns();
        assert!(
            u128::from(waited) < SAMPLE_EVERY.as_nanos() / 4,
            "finish() took {waited} ns, a sampling interval is {SAMPLE_EVERY:?}"
        );
    }
}
