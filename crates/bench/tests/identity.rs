//! The sweep identity covers the executor: a pair grid's
//! [`WorkloadMeta`] changes with any algorithm parameter, explorer or
//! graph, so two sweeps that can fold different reports never share a
//! fingerprint, a fabric lease identity or a store address.

use rendezvous_bench::common::{adversarial_grid, all_label_pairs, ring_setup, standard_delays};
use rendezvous_core::{
    BaseAlgorithm, Cheap, CheapSimultaneous, Fast, FastWithRelabeling, Iterated, LabelSpace,
    RendezvousAlgorithm,
};
use rendezvous_explore::{
    BoundedWalkExplorer, DfsMapExplorer, ExplorationFamily, Explorer, RingDoublingFamily,
};
use rendezvous_graph::{generators, PortLabeledGraph};
use rendezvous_runner::{Workload, WorkloadMeta};
use std::sync::Arc;

/// The meta of `algorithm`'s standard grid at a fixed horizon, so only
/// the executor can tell two grids apart.
fn meta(algorithm: &dyn RendezvousAlgorithm) -> WorkloadMeta {
    adversarial_grid(algorithm, &all_label_pairs(4), &[0, 1], 1_000).meta()
}

/// The x3 collision: on a 10-ring with L = 16, relabel weights 2 and 4
/// share the time bound (hence the horizon `4 · 297`), and used to
/// share one grid identity — so a store served w = 2's cost for w = 4.
#[test]
fn relabel_weights_with_equal_bounds_get_distinct_identities() {
    let (g, ex) = ring_setup(10);
    let space = LabelSpace::new(16).unwrap();
    let fwr = |w| FastWithRelabeling::new(g.clone(), ex.clone(), space, w).unwrap();
    let (w2, w4) = (fwr(2), fwr(4));
    assert_eq!(w2.time_bound(), w4.time_bound(), "the colliding case");
    let grid_meta = |alg: &FastWithRelabeling| {
        adversarial_grid(
            alg,
            &all_label_pairs(16),
            &standard_delays(9),
            4 * alg.time_bound(),
        )
        .meta()
    };
    assert_ne!(grid_meta(&w2), grid_meta(&w4));
}

/// A level family that walks one step more than [`RingDoublingFamily`]
/// per level: another explorer recipe for the iterated algorithm.
#[derive(Debug)]
struct LongerWalks;

impl ExplorationFamily for LongerWalks {
    fn level(&self, level: u32) -> Arc<dyn Explorer> {
        Arc::new(BoundedWalkExplorer::new(1 << level))
    }
}

/// How a guard-table row builds its algorithm from a graph and an
/// explorer.
type Build = fn(Arc<PortLabeledGraph>, Arc<dyn Explorer>) -> Box<dyn RendezvousAlgorithm>;

fn space(l: u64) -> LabelSpace {
    LabelSpace::new(l).unwrap()
}

fn iterated(
    g: Arc<PortLabeledGraph>,
    family: Arc<dyn ExplorationFamily>,
    base: BaseAlgorithm,
    levels: std::ops::RangeInclusive<u32>,
) -> Box<dyn RendezvousAlgorithm> {
    Box::new(Iterated::new(g, family, space(4), base, levels).unwrap())
}

/// Every algorithm's grid identity moves with each single change — a
/// constructor parameter, the explorer on the same graph, or another
/// graph of the same size — and is stable across rebuilds. Each row
/// names a build and the same build with one parameter changed.
#[test]
fn every_algorithm_identity_covers_parameters_explorer_and_graph() {
    let ring = Arc::new(generators::oriented_ring(8).unwrap());
    let path = Arc::new(generators::path(8).unwrap());
    let ring_explorer: Arc<dyn Explorer> = ring_setup(8).1;
    let dfs = |g: &Arc<PortLabeledGraph>| -> Arc<dyn Explorer> {
        Arc::new(DfsMapExplorer::new(Arc::clone(g)))
    };
    let table: Vec<(&str, Build, Build)> = vec![
        (
            "cheap",
            |g, ex| Box::new(Cheap::new(g, ex, space(4))),
            |g, ex| Box::new(Cheap::new(g, ex, space(5))),
        ),
        (
            "cheap-simultaneous",
            |g, ex| Box::new(CheapSimultaneous::new(g, ex, space(4))),
            |g, ex| Box::new(CheapSimultaneous::new(g, ex, space(5))),
        ),
        (
            "fast",
            |g, ex| Box::new(Fast::new(g, ex, space(4))),
            |g, ex| Box::new(Fast::new(g, ex, space(5))),
        ),
        (
            "fast-with-relabeling",
            |g, ex| Box::new(FastWithRelabeling::new(g, ex, space(4), 2).unwrap()),
            |g, ex| Box::new(FastWithRelabeling::new(g, ex, space(4), 3).unwrap()),
        ),
        // The iterated algorithm takes a level family instead of an
        // explorer: a ring-doubling family stands for the oriented-ring
        // explorer, and a longer-walk family for the swapped one.
        (
            "iterated",
            |g, ex| {
                let family: Arc<dyn ExplorationFamily> = if ex.name() == "dfs-map" {
                    Arc::new(LongerWalks)
                } else {
                    Arc::new(RingDoublingFamily::new())
                };
                iterated(g, family, BaseAlgorithm::Fast, 1..=3)
            },
            |g, _| {
                iterated(
                    g,
                    Arc::new(RingDoublingFamily::new()),
                    BaseAlgorithm::Cheap,
                    1..=3,
                )
            },
        ),
    ];
    for (name, build, varied) in table {
        let base = meta(build(Arc::clone(&ring), Arc::clone(&ring_explorer)).as_ref());
        assert_eq!(
            base,
            meta(build(Arc::clone(&ring), Arc::clone(&ring_explorer)).as_ref()),
            "{name}: rebuilding one configuration must keep its identity"
        );
        let on_ring_dfs = meta(build(Arc::clone(&ring), dfs(&ring)).as_ref());
        let changes = [
            (
                "a constructor parameter",
                base,
                meta(varied(Arc::clone(&ring), Arc::clone(&ring_explorer)).as_ref()),
            ),
            ("the explorer", base, on_ring_dfs),
            (
                "the graph",
                on_ring_dfs,
                meta(build(Arc::clone(&path), dfs(&path)).as_ref()),
            ),
        ];
        for (what, before, after) in changes {
            assert_ne!(
                before, after,
                "{name}: changing {what} must change the grid identity"
            );
        }
    }
}
