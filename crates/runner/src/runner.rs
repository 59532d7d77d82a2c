//! The parallel batch executor.

use crate::{Executor, PieceExecutor, RunnerError, Scenario, SweepReport, Workload};
use rendezvous_telemetry::{Metrics, Scope, Stopwatch};
use std::num::NonZeroUsize;
use std::sync::Arc;

/// Executes workload sweeps (and generic per-item jobs) sequentially or
/// across OS threads.
///
/// Parallelism is a pure throughput knob: results are collected in input
/// order and folded sequentially at global workload indices, so a
/// parallel run produces **the same** [`SweepReport`] as a sequential
/// run of the same workload — asserted by the determinism property tests
/// in `tests/` and by the `--parallel`/`--sequential` toggle of the
/// `experiments` binary.
///
/// A [`Metrics`] sink may be attached ([`Runner::with_metrics`]); it
/// observes the sweep (scenarios executed, pieces completed, per-piece
/// wall time, live progress) without ever entering the fold — a sweep
/// with a sink produces byte-identical reports to one without.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    metrics: Option<Arc<Metrics>>,
}

impl Runner {
    /// A runner using `threads` worker threads (1 = sequential).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            metrics: None,
        }
    }

    /// Attaches a telemetry sink observing this runner's sweeps.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The attached telemetry sink, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// A strictly sequential runner.
    #[must_use]
    pub fn sequential() -> Self {
        Runner::with_threads(1)
    }

    /// A runner using all available hardware parallelism.
    #[must_use]
    pub fn parallel() -> Self {
        Runner::with_threads(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(4),
        )
    }

    /// The configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns `true` if this runner actually runs work concurrently.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Order-preserving map over `items`: applies `job` to every item
    /// (receiving the item's index) and returns the results in input
    /// order, regardless of which thread computed what.
    pub fn map<T, R, F>(&self, items: Vec<T>, job: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| job(i, item))
                .collect();
        }
        let len = items.len();
        let chunk_len = len.div_ceil(self.threads);
        // Contiguous chunks keep (chunk id, offset) → global index trivial
        // and let each worker write into its own slice of the output.
        let mut chunks: Vec<Vec<T>> = Vec::new();
        let mut iter = items.into_iter();
        loop {
            let chunk: Vec<T> = iter.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        let mut results: Vec<Option<R>> = Vec::with_capacity(len);
        results.resize_with(len, || None);
        let job = &job;
        std::thread::scope(|scope| {
            let mut remaining: &mut [Option<R>] = &mut results;
            for (chunk_id, chunk) in chunks.into_iter().enumerate() {
                let (slot, rest) = remaining.split_at_mut(chunk.len());
                remaining = rest;
                let base = chunk_id * chunk_len;
                scope.spawn(move || {
                    for (offset, item) in chunk.into_iter().enumerate() {
                        slot[offset] = Some(job(base + offset, item));
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|r| r.expect("every slot written by exactly one worker"))
            .collect()
    }

    /// Executes every scenario through `executor` and returns the raw
    /// outcomes in input order — the building block piece executors use
    /// for their batches.
    ///
    /// # Errors
    ///
    /// The first [`RunnerError`] by scenario index, if any execution
    /// failed — deterministic even under parallelism.
    pub fn outcomes(
        &self,
        executor: &dyn Executor,
        scenarios: &[Scenario],
    ) -> Result<Vec<crate::ScenarioOutcome>, RunnerError> {
        self.map((0..scenarios.len()).collect(), |_, i| {
            executor.run(&scenarios[i]).map_err(|e| e.at_index(i))
        })
        .into_iter()
        .collect()
    }

    /// Sweeps an entire [`Workload`] into a [`SweepReport`] — the one
    /// enumerate → run → fold pipeline behind every experiment.
    ///
    /// # Errors
    ///
    /// The first [`RunnerError`] in global unit order.
    pub fn sweep<W, E>(&self, workload: &W, executor: &E) -> Result<SweepReport, RunnerError>
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        self.sweep_range(workload, 0, workload.size(), executor)
    }

    /// Sweeps the global index range `[lo, hi)` of a [`Workload`].
    ///
    /// Parallelism adapts to the workload's shape: a multi-piece range
    /// (a topology sweep touching many specs) parallelizes **across
    /// pieces**, each piece running its batch sequentially — nesting two
    /// parallel levels would only oversubscribe cores — while a
    /// single-piece range (a plain grid) hands this runner to the piece
    /// executor, which parallelizes across scenarios. Either way the
    /// fold walks outcomes in global order, so parallel and sequential
    /// runs produce identical reports and identical first-error
    /// behavior.
    ///
    /// # Errors
    ///
    /// See [`Runner::sweep`].
    pub fn sweep_range<W, E>(
        &self,
        workload: &W,
        lo: usize,
        hi: usize,
        executor: &E,
    ) -> Result<SweepReport, RunnerError>
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let pieces = workload.pieces(lo, hi);
        let telemetry = self.metrics.as_deref();
        if let Some(metrics) = telemetry {
            metrics.progress().add_planned(hi - lo, pieces.len());
        }
        let inner = if self.is_parallel() && pieces.len() > 1 {
            Runner::sequential()
        } else {
            self.clone()
        };
        let results = self.map(pieces, |_, piece| {
            let watch = telemetry.map(|_| Stopwatch::start());
            let result = executor.run_piece(&inner, &piece);
            if let Some(metrics) = telemetry {
                if let Some(watch) = &watch {
                    metrics
                        .histogram("piece_wall_ns")
                        .record_ns(watch.elapsed_ns());
                }
                if result.is_ok() {
                    metrics
                        .counter(Scope::Scenario, "scenarios_executed")
                        .add_count(piece.scenarios.len());
                    metrics.counter(Scope::Process, "pieces_completed").inc();
                }
                metrics.progress().piece_done(piece.scenarios.len());
            }
            result
                .map_err(|e| e.in_piece(piece.offset, piece.key))
                .map(|(outcomes, bounds)| (piece, outcomes, bounds))
        });
        let mut report = SweepReport::default();
        for result in results {
            let (piece, outcomes, bounds) = result?;
            debug_assert_eq!(outcomes.len(), piece.scenarios.len());
            let spec = piece.entry.map(|e| &e.spec);
            for (k, outcome) in outcomes.iter().enumerate() {
                report.absorb(piece.key, piece.offset + k, spec, outcome, bounds);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_under_parallelism() {
        let items: Vec<usize> = (0..997).collect();
        let sequential = Runner::sequential().map(items.clone(), |i, x| i * 31 + x);
        let parallel = Runner::with_threads(8).map(items, |i, x| i * 31 + x);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn map_handles_small_and_empty_batches() {
        let empty: Vec<u64> = Vec::new();
        assert!(Runner::with_threads(8).map(empty, |_, x| x).is_empty());
        assert_eq!(
            Runner::with_threads(8).map(vec![7], |i, x| (i, x)),
            vec![(0, 7)]
        );
    }

    #[test]
    fn thread_counts_are_clamped() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
        assert!(!Runner::sequential().is_parallel());
        assert!(Runner::parallel().threads() >= 1);
    }
}
