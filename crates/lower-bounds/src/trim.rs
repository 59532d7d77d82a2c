//! Procedure `Trim(A)` (§3): zeroing the rounds an algorithm never uses.
//!
//! For each label `x`, `m_x` is the latest round, over all partner labels
//! and all pairs of start positions (simultaneous start), in which `x` is
//! still unmet in some execution. Everything after `m_x` in `x`'s behaviour
//! vector is dead code and is zeroed; the lower-bound arguments then reason
//! about the non-zero entries that remain.
//!
//! The pair executions are one sweep: [`trim_grid`] is a delay-0 pair
//! [`Grid`] over the unordered label pairs `x < y` and all ordered start
//! pairs, folded per label pair, so whatever runs sweeps — a
//! [`Runner`], or a session that shards, leases, caches and counts
//! them — runs Trim's. [`TrimmedAlgorithm::from_sweep`] derives `m_x`
//! from the report: the largest `max_time` over the groups containing
//! `x`.

use crate::{behavior_vector, oriented_ring_size, BehaviorVector, LowerBoundError};
use rendezvous_core::{Label, RendezvousAlgorithm};
use rendezvous_graph::NodeId;
use rendezvous_runner::{AlgorithmExecutor, Executor, Grid, Runner, Scenario, SweepReport};

/// The result of trimming: per-label horizons `m_x`, trimmed behaviour
/// vectors, and the worst time/cost observed across all executions
/// (the latter yields the measured slack `φ` of Theorem 3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrimmedAlgorithm {
    /// `vectors[x - 1]` = trimmed behaviour vector of label `x` (length
    /// `max_time`, zeroed after `m_x`).
    pub vectors: Vec<BehaviorVector>,
    /// `horizons[x - 1]` = `m_x`.
    pub horizons: Vec<u64>,
    /// Worst meeting round over all executions (simultaneous start).
    pub max_time: u64,
    /// Worst total cost over all executions.
    pub max_cost: u64,
}

impl TrimmedAlgorithm {
    /// Derives `Trim`'s result from the **full** report of `algorithm`'s
    /// [`trim_grid`] swept with round cap `horizon`.
    ///
    /// # Errors
    ///
    /// * [`LowerBoundError::NoMeeting`] if some execution failed to meet
    ///   (incorrect algorithm or too-small horizon),
    /// * [`LowerBoundError::Algorithm`] if a behaviour vector cannot be
    ///   built.
    ///
    /// # Panics
    ///
    /// Panics if the report does not hold one group per label pair — a
    /// partial fold (one shard's) or another grid's report.
    pub fn from_sweep(
        algorithm: &dyn RendezvousAlgorithm,
        horizon: u64,
        report: &SweepReport,
    ) -> Result<TrimmedAlgorithm, LowerBoundError> {
        let l = algorithm.label_space().size();
        assert_eq!(
            report.groups.len() as u64,
            l * (l - 1) / 2,
            "a trim report holds one group per label pair"
        );
        let mut horizons = vec![0u64; l as usize];
        for group in &report.groups {
            let (x, y) = group
                .key
                .split_once(',')
                .and_then(|(x, y)| Some((x.parse().ok()?, y.parse().ok()?)))
                .expect("trim groups are keyed by their label pair");
            if group.failures > 0 {
                return Err(LowerBoundError::NoMeeting {
                    labels: (x, y),
                    horizon,
                });
            }
            for label in [x, y] {
                let m = &mut horizons[(label - 1) as usize];
                *m = (*m).max(group.max_time);
            }
        }
        let max_time = report.groups.iter().map(|g| g.max_time).max().unwrap_or(0);
        let max_cost = report.groups.iter().map(|g| g.max_cost).max().unwrap_or(0);
        let mut vectors = Vec::with_capacity(l as usize);
        for x in 1..=l {
            let label = Label::new(x).expect(">0");
            let mut v = behavior_vector(algorithm, label, max_time)?;
            v.truncate_after(horizons[(x - 1) as usize] as usize);
            vectors.push(v);
        }
        Ok(TrimmedAlgorithm {
            vectors,
            horizons,
            max_time,
            max_cost,
        })
    }

    /// The trimmed vector of a label.
    ///
    /// # Panics
    ///
    /// Panics if the label is outside the analyzed space.
    #[must_use]
    pub fn vector(&self, label: Label) -> &BehaviorVector {
        &self.vectors[(label.get() - 1) as usize]
    }

    /// `m_x` for a label.
    ///
    /// # Panics
    ///
    /// Panics if the label is outside the analyzed space.
    #[must_use]
    pub fn horizon(&self, label: Label) -> u64 {
        self.horizons[(label.get() - 1) as usize]
    }

    /// The measured slack `φ = max(0, max_cost − E)`: the algorithm's cost
    /// is `E + φ` in the worst case. Theorem 3.1 applies when `φ ∈ o(E)`.
    #[must_use]
    pub fn phi(&self, exploration_bound: u64) -> u64 {
        self.max_cost.saturating_sub(exploration_bound)
    }
}

/// The pair sweep of procedure `Trim` for `algorithm` on its oriented
/// ring: every unordered label pair `x < y` × every ordered pair of
/// distinct start positions, simultaneous start, round cap `horizon`,
/// [executed by](Grid::executed_by) `algorithm` and
/// [folded per label pair](Grid::fold_per_label_pair).
///
/// # Errors
///
/// [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs.
pub fn trim_grid(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
) -> Result<Grid, LowerBoundError> {
    oriented_ring_size(algorithm.graph())?;
    let l = algorithm.label_space().size();
    let pairs: Vec<(u64, u64)> = (1..=l)
        .flat_map(|x| ((x + 1)..=l).map(move |y| (x, y)))
        .collect();
    Ok(Grid::new(horizon)
        .label_pairs_ordered(&pairs)
        .all_start_pairs(algorithm.graph())
        .delays(&[0])
        .executed_by(algorithm)
        .fold_per_label_pair())
}

/// Runs procedure `Trim` for `algorithm` on its oriented ring: its
/// [`trim_grid`] swept sequentially, then
/// [`TrimmedAlgorithm::from_sweep`].
///
/// `horizon` caps each execution; it must exceed the algorithm's time
/// bound or [`LowerBoundError::NoMeeting`] is returned.
///
/// # Errors
///
/// * [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs,
/// * [`LowerBoundError::NoMeeting`] if some execution fails to meet
///   (incorrect algorithm or too-small horizon).
pub fn trim(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
) -> Result<TrimmedAlgorithm, LowerBoundError> {
    let grid = trim_grid(algorithm, horizon)?;
    let report = Runner::sequential().sweep(&grid, &AlgorithmExecutor::new(algorithm))?;
    TrimmedAlgorithm::from_sweep(algorithm, horizon, &report)
}

/// Runs the execution `α(x, px, y, py)` with simultaneous start on
/// `executor` and returns its meeting round and cost.
///
/// # Errors
///
/// [`LowerBoundError::NoMeeting`] if the agents do not meet within
/// `horizon`; [`LowerBoundError::Runner`] if the execution fails.
pub(crate) fn execute(
    executor: &AlgorithmExecutor<'_>,
    (x, px): (u64, usize),
    (y, py): (u64, usize),
    horizon: u64,
) -> Result<(u64, u64), LowerBoundError> {
    let scenario = Scenario::pair(x, y, NodeId::new(px), NodeId::new(py), 0, horizon);
    let out = executor.run(&scenario)?;
    let time = out.time.ok_or(LowerBoundError::NoMeeting {
        labels: (x, y),
        horizon,
    })?;
    Ok((time, out.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_core::{CheapSimultaneous, Fast, LabelSpace};
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::generators;
    use rendezvous_runner::Workload;
    use std::sync::Arc;

    fn cheap_sim(n: usize, l: u64) -> CheapSimultaneous {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        CheapSimultaneous::new(g, ex, LabelSpace::new(l).unwrap())
    }

    #[test]
    fn trim_of_cheap_simultaneous() {
        let alg = cheap_sim(6, 4);
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        let e = alg.exploration_bound();
        // Cost of the simultaneous variant never exceeds E: φ = 0.
        assert!(t.max_cost <= e, "cost {} > E {}", t.max_cost, e);
        assert_eq!(t.phi(e), 0);
        // Worst time is within the paper's bound and at least E
        // (the adversary can always force a full exploration).
        assert!(t.max_time <= alg.time_bound());
        assert!(t.max_time >= e);
        // Smaller labels stop being useful earlier: label 1 explores in
        // rounds 1..E so m_1 <= ... every label's vector is bounded by its
        // own schedule plus the partner's; sanity: horizons nonzero.
        for h in &t.horizons {
            assert!(*h > 0);
        }
    }

    #[test]
    fn trimmed_vectors_are_zero_after_horizon() {
        let alg = cheap_sim(6, 3);
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        for x in 1..=3u64 {
            let label = Label::new(x).unwrap();
            let v = t.vector(label);
            let m = t.horizon(label) as usize;
            assert!(v.entries()[m.min(v.len())..].iter().all(|&e| e == 0));
        }
    }

    /// The pair loop `Trim` ran before it became a sweep, kept as the
    /// reference the sweep-derived result must equal: every unordered
    /// label pair × every ordered pair of distinct starts, one execution
    /// at a time, folding the running maxima.
    fn trim_by_loop(algorithm: &dyn RendezvousAlgorithm, horizon: u64) -> TrimmedAlgorithm {
        let executor = AlgorithmExecutor::new(algorithm);
        let n = algorithm.graph().node_count();
        let l = algorithm.label_space().size();
        let mut horizons = vec![0u64; l as usize];
        let (mut max_time, mut max_cost) = (0u64, 0u64);
        for x in 1..=l {
            for y in (x + 1)..=l {
                for px in 0..n {
                    for py in (0..n).filter(|&py| py != px) {
                        let (t, cost) = execute(&executor, (x, px), (y, py), horizon).unwrap();
                        horizons[(x - 1) as usize] = horizons[(x - 1) as usize].max(t);
                        horizons[(y - 1) as usize] = horizons[(y - 1) as usize].max(t);
                        max_time = max_time.max(t);
                        max_cost = max_cost.max(cost);
                    }
                }
            }
        }
        let vectors = (1..=l)
            .map(|x| {
                let label = Label::new(x).unwrap();
                let mut v = behavior_vector(algorithm, label, max_time).unwrap();
                v.truncate_after(horizons[(x - 1) as usize] as usize);
                v
            })
            .collect();
        TrimmedAlgorithm {
            vectors,
            horizons,
            max_time,
            max_cost,
        }
    }

    #[test]
    fn sweep_derived_trim_equals_the_reference_loop() {
        for (n, l) in [(5, 2), (6, 4), (9, 5), (12, 6)] {
            let g = Arc::new(generators::oriented_ring(n).unwrap());
            let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
            let space = LabelSpace::new(l).unwrap();
            let algorithms: [Box<dyn RendezvousAlgorithm>; 2] = [
                Box::new(CheapSimultaneous::new(g.clone(), ex.clone(), space)),
                Box::new(Fast::new(g, ex, space)),
            ];
            for alg in &algorithms {
                let horizon = 10 * alg.time_bound();
                assert_eq!(
                    trim(alg.as_ref(), horizon).unwrap(),
                    trim_by_loop(alg.as_ref(), horizon),
                    "{} on n={n}, L={l}",
                    alg.name()
                );
            }
        }
    }

    /// One shard's fold is not a trim report: deriving from it would
    /// silently drop label pairs.
    #[test]
    #[should_panic(expected = "one group per label pair")]
    fn partial_reports_are_refused() {
        let alg = cheap_sim(6, 4);
        let horizon = 10 * alg.time_bound();
        let grid = trim_grid(&alg, horizon).unwrap();
        let (lo, hi) = grid.shard(0, 2);
        let report = Runner::sequential()
            .sweep_range(&grid, lo, hi, &AlgorithmExecutor::new(&alg))
            .unwrap();
        let _ = TrimmedAlgorithm::from_sweep(&alg, horizon, &report);
    }

    #[test]
    fn no_meeting_is_reported() {
        let alg = cheap_sim(8, 4);
        // horizon far too small for label pair (3,4) to meet
        let err = trim(&alg, 3).unwrap_err();
        assert!(matches!(err, LowerBoundError::NoMeeting { .. }));
    }

    #[test]
    fn trim_of_fast_has_nonzero_phi() {
        // Fast costs far more than E: φ > 0, so Theorem 3.1's premise
        // fails for it — exactly the tradeoff the paper describes.
        let g = Arc::new(generators::oriented_ring(6).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Fast::new(g, ex, LabelSpace::new(4).unwrap());
        let t = trim(&alg, 10 * alg.time_bound()).unwrap();
        assert!(t.phi(alg.exploration_bound()) > 0);
    }
}
