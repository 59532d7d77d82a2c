//! Sweep-engine selection: the stepped simulator or the delay-batched
//! trajectory solver.
//!
//! Both engines produce byte-identical experiment outputs (that is
//! CI-enforced); the choice is purely a throughput knob, surfaced as
//! `experiments --engine {stepped,batched}`. The choice travels in the
//! run's [`Session`](crate::session::Session) to its executor switch
//! points ([`crate::common::sweep_worst`] and the `x10` per-piece
//! executor).

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
