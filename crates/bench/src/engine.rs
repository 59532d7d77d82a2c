//! Sweep-engine selection: the stepped simulator or the delay-batched
//! trajectory solver.
//!
//! Both engines produce byte-identical experiment outputs (that is
//! CI-enforced); the choice is purely a throughput knob, surfaced as
//! `experiments --engine {stepped,batched}`. The choice travels in the
//! run's [`Session`](crate::session::Session) to [`EngineExecutor`], the
//! one switch point both [`crate::common::sweep_worst`] and the `x10`
//! per-piece executor build.

use rendezvous_core::RendezvousAlgorithm;
use rendezvous_runner::{
    AlgorithmExecutor, BatchExecutor, Bounded, Bounds, PieceExecutor, Runner, RunnerError,
    ScenarioOutcome, WorkPiece,
};
use rendezvous_telemetry::Metrics;

/// Which executor pair sweeps run through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Round-by-round simulation ([`rendezvous_runner::AlgorithmExecutor`])
    /// — the semantic reference.
    #[default]
    Stepped,
    /// Delay-batched trajectory solving
    /// ([`rendezvous_runner::BatchExecutor`]) — O(T+D) per (labels,
    /// starts) group instead of O(D·T).
    Batched,
}

impl Engine {
    /// Parses a `--engine` argument value.
    #[must_use]
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "stepped" => Some(Engine::Stepped),
            "batched" => Some(Engine::Batched),
            _ => None,
        }
    }

    /// The CLI name of the engine.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Stepped => "stepped",
            Engine::Batched => "batched",
        }
    }
}

/// One algorithm's executor under an [`Engine`], judging every outcome
/// against the sweep's bounds. Both variants fold byte-identical
/// reports (CI diffs them on every push); a telemetry sink observes
/// either one — plan-cache hit rates and batch classification — without
/// entering the fold.
pub enum EngineExecutor<'a> {
    /// Round-by-round simulation, bounds attached as by [`Bounded`].
    Stepped(AlgorithmExecutor<'a>, Option<Bounds>),
    /// Delay-batched solving; the executor carries its own bounds.
    Batched(BatchExecutor<'a>),
}

impl<'a> EngineExecutor<'a> {
    /// Builds `engine`'s executor for `algorithm`, reporting into
    /// `metrics` when a sink is attached.
    #[must_use]
    pub fn new(
        engine: Engine,
        algorithm: &'a dyn RendezvousAlgorithm,
        bounds: Option<Bounds>,
        metrics: Option<&Metrics>,
    ) -> EngineExecutor<'a> {
        match engine {
            Engine::Stepped => {
                let mut executor = AlgorithmExecutor::new(algorithm);
                if let Some(metrics) = metrics {
                    executor = executor.with_metrics(metrics);
                }
                EngineExecutor::Stepped(executor, bounds)
            }
            Engine::Batched => {
                let mut executor = BatchExecutor::new(algorithm).with_bounds(bounds);
                if let Some(metrics) = metrics {
                    executor = executor.with_metrics(metrics);
                }
                EngineExecutor::Batched(executor)
            }
        }
    }
}

impl PieceExecutor for EngineExecutor<'_> {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        match self {
            EngineExecutor::Stepped(executor, bounds) => {
                Bounded::new(executor, *bounds).run_piece(runner, piece)
            }
            EngineExecutor::Batched(executor) => executor.run_piece(runner, piece),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_roundtrip() {
        assert_eq!(Engine::parse("stepped"), Some(Engine::Stepped));
        assert_eq!(Engine::parse("batched"), Some(Engine::Batched));
        assert_eq!(Engine::parse("turbo"), None);
        assert_eq!(Engine::Stepped.name(), "stepped");
        assert_eq!(Engine::Batched.name(), "batched");
        // The default is the stepped reference engine.
        assert_eq!(Engine::default(), Engine::Stepped);
    }
}
