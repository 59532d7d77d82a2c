//! The traced run: the workloads' work, done in this process through
//! each crate's public functions, with a span around every call into a
//! layer.
//!
//! Each experiment of `experiments all x10 x11` is rebuilt here from the
//! same public pieces the binary uses (generators, explorers,
//! algorithms, grids, executors, the runner, the audits, the store) and
//! printed through the same serializer; the oracle then proves the
//! output bytes equal the binary's. Inputs of a layer are warmed before
//! the next layer is timed: every (label, start) plan is compiled through
//! [`AlgorithmExecutor::plan`] before [`Runner::sweep`] runs, so plan
//! compilation and execution land in different spans. `sim` runs inside
//! `runner.sweep` and `lower-bounds.audit`; it has no span of its own.
//!
//! Spans are recorded only on the thread that calls the layer. Work a
//! layer fans out to its own threads (the runner's parallel sweep, the
//! parallel map over the lower-bound audits, including their small
//! ring builds) counts toward the span that started it.

use crate::spans::span;
use rendezvous_bench::common::{
    adversarial_grid, all_label_pairs, standard_delays, standard_label_pairs,
};
use rendezvous_bench::serve::{Query, Reply};
use rendezvous_bench::{
    x10_topologies, x11_gathering_topo, x1_cheap, x2_fast, x3_relabel, x4_tradeoff, x5_lb_time,
    x6_lb_cost, x7_families, x8_iterated, x9_gathering,
};
use rendezvous_core::{
    BaseAlgorithm, Cheap, CheapSimultaneous, Fast, FastWithRelabeling, Iterated, LabelSpace,
    RendezvousAlgorithm,
};
use rendezvous_explore::{
    spec_explorer, DfsMapExplorer, EulerianExplorer, ExplorationFamily, Explorer,
    HamiltonianExplorer, OrientedRingExplorer, RingDoublingFamily, TrialDfsExplorer, UxsExplorer,
};
use rendezvous_fabric::wire::{read_json_frame, write_frame, write_json_frame};
use rendezvous_fabric::{CoordinatorConfig, FabricServer, Message, ServerConfig, WorkerClient};
use rendezvous_graph::{generators, GraphSpec, HamiltonianCycle, NodeId, PortLabeledGraph};
use rendezvous_lower_bounds::{eager_chain_audit, progress_audit};
use rendezvous_runner::{
    AlgorithmExecutor, Bounded, Bounds, FleetRule, GatheringExecutor, Grid, GroupStats,
    PieceExecutor, Runner, RunnerError, ScenarioOutcome, SweepReport, TopoGrid, WorkPiece,
    Workload, WorkloadMeta,
};
use rendezvous_store::{Store, StoreKey};
use rendezvous_telemetry::TelemetrySnapshot;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// The engine the binary runs by default, part of every store key.
const ENGINE: &str = "stepped";

/// Counts recorded at the layer boundaries, by metric name.
#[derive(Debug, Default)]
pub struct Counters(Mutex<BTreeMap<&'static str, f64>>);

impl Counters {
    /// Adds `by` to `name`.
    pub fn add(&self, name: &'static str, by: f64) {
        *self.0.lock().expect("counters").entry(name).or_default() += by;
    }

    /// The current value of `name` (0 if never counted).
    #[must_use]
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .lock()
            .expect("counters")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }
}

/// x11's per-entry explorer and merge-and-restart bounds, by spec index.
type EntryContexts = Arc<Vec<(Arc<dyn Explorer>, Bounds)>>;

/// Which algorithm a topology sweep runs.
#[derive(Debug, Clone, Copy)]
enum Algo {
    Cheap,
    Fast,
}

/// The context a traced workload runs in.
pub struct Ctx<'a> {
    /// The runner every sweep uses (the binary's default: all threads).
    pub runner: Runner,
    /// The result store, when the workload reads or writes one.
    pub store: Option<&'a Store>,
    /// Counts, shared with worker lanes.
    pub counters: &'a Counters,
}

fn file_len(path: &std::path::Path) -> f64 {
    std::fs::metadata(path).map_or(0.0, |m| m.len() as f64)
}

impl Ctx<'_> {
    fn ring(&self, n: usize) -> (Arc<PortLabeledGraph>, Arc<dyn Explorer>) {
        let g = span("graph.build", || {
            Arc::new(generators::oriented_ring(n).expect("n >= 3"))
        });
        self.counters.add("graph.builds", 1.0);
        let ex: Arc<dyn Explorer> = span("explore.build", || {
            Arc::new(OrientedRingExplorer::new(g.clone()).expect("oriented ring"))
        });
        self.counters.add("explore.builds", 1.0);
        (g, ex)
    }

    /// The cached report for a sweep, when a store is in use and holds it.
    fn lookup(&self, context: &str, meta: &WorkloadMeta) -> Option<SweepReport> {
        let store = self.store?;
        let key = span("store.key", || StoreKey::new(context, meta, ENGINE));
        let loaded = span("store.load", || store.load(&key));
        self.counters.add("store.loads", 1.0);
        let report = loaded.ok()?;
        self.counters.add("store.hits", 1.0);
        self.counters
            .add("store.bytes_read", file_len(&store.path_of(&key)));
        Some(report)
    }

    /// Writes a computed report back, when a store is in use.
    fn record(&self, context: &str, meta: &WorkloadMeta, report: &SweepReport) {
        let Some(store) = self.store else { return };
        let key = span("store.key", || StoreKey::new(context, meta, ENGINE));
        span("store.save", || {
            store.save(&key, context, ENGINE, meta, report)
        })
        .unwrap_or_else(|e| panic!("cannot record {context}: {e}"));
        self.counters.add("store.saves", 1.0);
        self.counters
            .add("store.bytes_written", file_len(&store.path_of(&key)));
    }

    fn count_sweep(&self, report: &SweepReport) {
        self.counters.add("runner.sweeps", 1.0);
        self.counters
            .add("runner.scenarios", report.executed() as f64);
    }

    /// `common::measure_worst` with its layers split: grid, plans,
    /// sweep. Returns the worst (time, cost).
    fn worst(
        &self,
        alg: &dyn RendezvousAlgorithm,
        pairs: &[(u64, u64)],
        delays: &[u64],
        horizon: u64,
    ) -> (u64, u64) {
        let (grid, meta) = span("bench.grid_build", || {
            let grid = adversarial_grid(alg, pairs, delays, horizon);
            let meta = grid.meta();
            (grid, meta)
        });
        let report = self.lookup(alg.name(), &meta).unwrap_or_else(|| {
            let executor = AlgorithmExecutor::new(alg);
            let scenarios = span("bench.grid_build", || grid.scenarios());
            span("core.plan_compile", || warm(&executor, &scenarios));
            self.counters
                .add("core.plans_compiled", executor.compiled_plans() as f64);
            let bounds = Some(Bounds {
                time: alg.time_bound(),
                cost: alg.cost_bound(),
            });
            let report = span("runner.sweep", || {
                self.runner.sweep(&grid, &Bounded::new(&executor, bounds))
            })
            .unwrap_or_else(|e| panic!("sweep failed for {}: {e}", alg.name()));
            self.count_sweep(&report);
            self.counters
                .add("core.plan_lookups", 2.0 * report.executed() as f64);
            self.record(alg.name(), &meta, &report);
            report
        });
        let stats = report.solo();
        (stats.max_time, stats.max_cost)
    }

    /// Builds a topology grid: one `graph.build` span around
    /// [`TopoGrid::build`], with the explorer and grid built for each
    /// graph as child spans (so the graph span's self time is the graph
    /// builds alone).
    fn topo_grid(
        &self,
        specs: Vec<GraphSpec>,
        mut configure: impl FnMut(&GraphSpec, &Arc<PortLabeledGraph>, &Arc<dyn Explorer>) -> Grid,
    ) -> (TopoGrid, Vec<Arc<dyn Explorer>>) {
        let mut explorers = Vec::new();
        let specs_n = specs.len() as f64;
        let topo = span("graph.build", || {
            TopoGrid::build(specs, |spec, graph| {
                let explorer = span("explore.build", || {
                    spec_explorer(spec, graph.clone()).expect("sound recipe")
                });
                let grid = span("bench.grid_build", || configure(spec, graph, &explorer));
                explorers.push(explorer);
                grid
            })
        })
        .unwrap_or_else(|e| panic!("standard topo specs must build: {e}"));
        self.counters.add("graph.builds", specs_n);
        self.counters.add("explore.builds", specs_n);
        (topo, explorers)
    }

    /// `x10_topologies::build_topo_grid`, traced.
    fn x10_grid(
        &self,
        specs: Vec<GraphSpec>,
        l: u64,
        cap: usize,
    ) -> (TopoGrid, Vec<Arc<dyn Explorer>>) {
        let space = LabelSpace::new(l).expect("l >= 2");
        let pairs = standard_label_pairs(l);
        self.topo_grid(specs, |_, graph, explorer| {
            let e = explorer.bound() as u64;
            let cheap = Cheap::new(graph.clone(), explorer.clone(), space);
            let fast = Fast::new(graph.clone(), explorer.clone(), space);
            let horizon = 4 * cheap.time_bound().max(fast.time_bound());
            Grid::new(horizon)
                .label_pairs_both_orders(&pairs)
                .delays(&standard_delays(e))
                .all_start_pairs(graph)
                .sample_cap(cap)
        })
    }

    /// One algorithm per topology entry, as x10's executor builds them.
    fn topo_algorithms(
        &self,
        topo: &TopoGrid,
        explorers: &[Arc<dyn Explorer>],
        l: u64,
        which: Algo,
    ) -> Vec<Box<dyn RendezvousAlgorithm>> {
        let space = LabelSpace::new(l).expect("l >= 2");
        span("core.plan_compile", || {
            topo.entries()
                .iter()
                .map(|entry| -> Box<dyn RendezvousAlgorithm> {
                    let explorer = Arc::clone(&explorers[entry.spec_index]);
                    match which {
                        Algo::Cheap => Box::new(Cheap::new(entry.graph.clone(), explorer, space)),
                        Algo::Fast => Box::new(Fast::new(entry.graph.clone(), explorer, space)),
                    }
                })
                .collect()
        })
    }

    /// One x10-style sweep of `topo` (cached or computed).
    fn topo_sweep(
        &self,
        context: &str,
        topo: &TopoGrid,
        explorers: &[Arc<dyn Explorer>],
        l: u64,
        which: Algo,
    ) -> SweepReport {
        let meta = span("bench.grid_build", || topo.meta());
        if let Some(report) = self.lookup(context, &meta) {
            return report;
        }
        let algs = self.topo_algorithms(topo, explorers, l, which);
        let exec = TopoExec::new(&algs);
        span("core.plan_compile", || {
            exec.warm(&topo.pieces(0, topo.size()))
        });
        self.counters
            .add("core.plans_compiled", exec.compiled() as f64);
        let report = span("runner.sweep", || self.runner.sweep(topo, &exec))
            .unwrap_or_else(|e| panic!("topology sweep failed for {context}: {e}"));
        self.count_sweep(&report);
        self.counters
            .add("core.plan_lookups", 2.0 * report.executed() as f64);
        assert!(report.clean(), "paper bounds broken in {context}");
        self.record(context, &meta, &report);
        report
    }

    /// `x11_gathering_topo::build_gathering_topo_grid`, traced.
    fn x11_grid(
        &self,
        specs: Vec<GraphSpec>,
        l: u64,
        ks: &[usize],
        phases: &[u64],
        cap: usize,
    ) -> (TopoGrid, EntryContexts) {
        let space = LabelSpace::new(l).expect("l >= 2");
        let mut bounds = Vec::new();
        let (topo, explorers) = self.topo_grid(specs, |spec, graph, explorer| {
            let alg: Arc<dyn RendezvousAlgorithm> =
                Arc::new(Fast::new(graph.clone(), explorer.clone(), space));
            let executor = GatheringExecutor::new(Arc::clone(&alg));
            let fit: Vec<usize> = ks
                .iter()
                .copied()
                .filter(|&k| k <= graph.node_count() && (k as u64) <= l)
                .collect();
            assert!(!fit.is_empty(), "no fleet size fits {spec:?}");
            let k_max = *fit.iter().max().expect("non-empty") as u64;
            let rule = FleetRule::spread(graph, l);
            let loosest_bound = (k_max - 1) * (alg.time_bound() + rule.max_delay());
            let grid = Grid::new(4 * loosest_bound)
                .fleet_sizes(&fit)
                .fleet_rule(rule)
                .fleet_rotations(&[0, 1])
                .delays(phases)
                .sample_cap(cap);
            let (mut time, mut cost) = (0u64, 0u64);
            for s in grid.scenarios() {
                let b = executor.merge_restart_bound(&s);
                time = time.max(b);
                cost = cost.max(s.k() as u64 * b);
            }
            bounds.push(Bounds { time, cost });
            grid
        });
        (topo, Arc::new(explorers.into_iter().zip(bounds).collect()))
    }

    fn x11_sweep(&self, topo: &TopoGrid, contexts: &EntryContexts, l: u64) -> SweepReport {
        let meta = span("bench.grid_build", || topo.meta());
        if let Some(report) = self.lookup(X11_CONTEXT, &meta) {
            return report;
        }
        let exec = GatheringTopoExec {
            space: LabelSpace::new(l).expect("l >= 2"),
            contexts: Arc::clone(contexts),
        };
        let report = span("runner.sweep", || self.runner.sweep(topo, &exec))
            .unwrap_or_else(|e| panic!("x11 sweep failed: {e}"));
        self.count_sweep(&report);
        assert!(report.clean(), "merge-and-restart bound broken in x11");
        self.record(X11_CONTEXT, &meta, &report);
        report
    }

    fn emit<R: Serialize>(&self, out: &mut String, id: &str, rows: &[R]) {
        span("bench.serialize", || {
            let doc = serde_json::json!({ "experiment": id, "rows": rows });
            out.push_str(&serde_json::to_string_pretty(&doc).expect("serializable rows"));
            out.push('\n');
        });
    }

    /// `experiments all x10 x11 --json`, traced; returns its stdout.
    #[must_use]
    pub fn paper_full(&self) -> String {
        let mut out = String::new();
        span("x1", || self.x1(&mut out));
        span("x2", || self.x2(&mut out));
        span("x3", || self.x3(&mut out));
        span("x4", || self.x4(&mut out));
        span("x5", || self.x5(&mut out));
        span("x6", || self.x6(&mut out));
        span("x7", || self.x7(&mut out));
        span("x8", || self.x8(&mut out));
        span("x9", || self.x9(&mut out));
        span("x11", || {
            let (topo, contexts) = self.x11_standard_grid();
            let report = self.x11_sweep(&topo, &contexts, X11_L);
            self.emit(&mut out, "x11", &x11_rows(&topo, &report));
        });
        span("x10", || {
            let (topo, explorers) =
                self.x10_grid(x10_topologies::standard_topo_specs(false), X10_L, X10_CAP);
            let cheap = self.topo_sweep("x10 cheap", &topo, &explorers, X10_L, Algo::Cheap);
            let fast = self.topo_sweep("x10 fast", &topo, &explorers, X10_L, Algo::Fast);
            self.emit(&mut out, "x10", &x10_rows(&topo, &cheap, &fast));
        });
        out
    }

    fn x1(&self, out: &mut String) {
        let (n, ls) = (12, [2u64, 4, 8, 16, 32]);
        let (g, ex) = self.ring(n);
        let e = (n - 1) as u64;
        let delays = standard_delays(e);
        let rows: Vec<x1_cheap::Row> = ls
            .iter()
            .map(|&l| {
                let space = LabelSpace::new(l).expect("l >= 2");
                let pairs = standard_label_pairs(l);
                let cheap = Cheap::new(g.clone(), ex.clone(), space);
                let mc = self.worst(&cheap, &pairs, &delays, 4 * cheap.time_bound());
                let sim = CheapSimultaneous::new(g.clone(), ex.clone(), space);
                let ms = self.worst(&sim, &pairs, &[0], 4 * sim.time_bound() + e);
                x1_cheap::Row {
                    n,
                    l,
                    e,
                    cheap_time: mc.0,
                    cheap_time_bound: cheap.time_bound(),
                    cheap_cost: mc.1,
                    cheap_cost_bound: cheap.cost_bound(),
                    sim_time: ms.0,
                    sim_time_bound: sim.time_bound(),
                    sim_cost: ms.1,
                    sim_cost_bound: sim.cost_bound(),
                }
            })
            .collect();
        self.emit(out, "x1", &rows);
    }

    fn x2(&self, out: &mut String) {
        let (n, ls) = (12, [2u64, 4, 8, 16, 64, 256]);
        let (g, ex) = self.ring(n);
        let delays = standard_delays((n - 1) as u64);
        let rows: Vec<x2_fast::Row> = ls
            .iter()
            .map(|&l| {
                let space = LabelSpace::new(l).expect("l >= 2");
                let pairs = standard_label_pairs(l);
                let alg = Fast::new(g.clone(), ex.clone(), space);
                let m = self.worst(&alg, &pairs, &delays, 4 * alg.time_bound());
                x2_fast::Row {
                    n,
                    l,
                    e: (n - 1) as u64,
                    time: m.0,
                    time_bound: alg.time_bound(),
                    cost: m.1,
                    cost_bound: alg.cost_bound(),
                }
            })
            .collect();
        self.emit(out, "x2", &rows);
    }

    fn x3(&self, out: &mut String) {
        let rows = x3_relabel::run_bounds(&[16, 64, 256, 1024, 4096], &[1, 2, 3, 4]);
        self.emit(out, "x3-bounds", &rows);
        let (n, l) = (10, 16u64);
        let (g, ex) = self.ring(n);
        let delays = standard_delays((n - 1) as u64);
        let pairs = all_label_pairs(l);
        let rows: Vec<x3_relabel::ExecRow> = [1u64, 2, 3, 4]
            .iter()
            .map(|&w| {
                let space = LabelSpace::new(l).expect("l >= 2");
                let alg =
                    FastWithRelabeling::new(g.clone(), ex.clone(), space, w).expect("valid weight");
                let m = self.worst(&alg, &pairs, &delays, 4 * alg.time_bound());
                x3_relabel::ExecRow {
                    n,
                    l,
                    w,
                    time: m.0,
                    time_bound: alg.time_bound(),
                    cost: m.1,
                    cost_bound: alg.cost_bound(),
                }
            })
            .collect();
        self.emit(out, "x3-exec", &rows);
    }

    fn x4(&self, out: &mut String) {
        let (n, l) = (12, 64u64);
        let (g, ex) = self.ring(n);
        let e = (n - 1) as u64;
        let space = LabelSpace::new(l).expect("l >= 2");
        let pairs = standard_label_pairs(l);
        let delays = standard_delays(e);
        let point =
            |name: String, alg: &dyn RendezvousAlgorithm, m: (u64, u64)| x4_tradeoff::Point {
                algorithm: name,
                time: m.0,
                time_bound: alg.time_bound(),
                cost: m.1,
                cost_bound: alg.cost_bound(),
            };
        let mut points = Vec::new();
        let sim = CheapSimultaneous::new(g.clone(), ex.clone(), space);
        let m = self.worst(&sim, &pairs, &[0], 4 * sim.time_bound() + e);
        points.push(point("cheap-simultaneous".into(), &sim, m));
        let cheap = Cheap::new(g.clone(), ex.clone(), space);
        let m = self.worst(&cheap, &pairs, &delays, 4 * cheap.time_bound());
        points.push(point("cheap".into(), &cheap, m));
        for w in [1u64, 2, 3, 4, 5] {
            let alg = FastWithRelabeling::new(g.clone(), ex.clone(), space, w).expect("valid w");
            let m = self.worst(&alg, &pairs, &delays, 4 * alg.time_bound());
            points.push(point(format!("fwr(w={w})"), &alg, m));
        }
        let fast = Fast::new(g, ex, space);
        let m = self.worst(&fast, &pairs, &delays, 4 * fast.time_bound());
        points.push(point("fast".into(), &fast, m));
        self.emit(out, "x4", &points);
    }

    /// Counts one audit and the two-agent simulations its trim runs:
    /// every label pair × every ordered pair of distinct starts.
    fn count_audit(&self, n: usize, l: u64) {
        self.counters.add("lower-bounds.audits", 1.0);
        let pairs = l * (l - 1) / 2;
        self.counters.add(
            "lower-bounds.simulations",
            (pairs * (n * (n - 1)) as u64) as f64,
        );
    }

    fn x5(&self, out: &mut String) {
        let (n, ls) = (12, vec![4u64, 6, 8, 10, 12, 16]);
        for &l in &ls {
            self.count_audit(n, l);
        }
        let rows = span("lower-bounds.audit", || {
            self.runner.map(ls, |_, l| {
                let g = Arc::new(generators::oriented_ring(n).expect("n >= 3"));
                let ex: Arc<dyn Explorer> =
                    Arc::new(OrientedRingExplorer::new(g.clone()).expect("oriented ring"));
                let alg = CheapSimultaneous::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
                let report =
                    eager_chain_audit(&alg, 20 * alg.time_bound()).expect("audit must succeed");
                x5_lb_time::Row {
                    n,
                    l,
                    f: report.f,
                    phi: report.phi,
                    heavy: report.heavy.len(),
                    witness: report.witness,
                    chain_time: report.chain_final_time(),
                    increasing: report.strictly_increasing,
                    upper_bound: alg.time_bound(),
                }
            })
        });
        self.emit(out, "x5", &rows);
    }

    fn x6(&self, out: &mut String) {
        let (n, ls) = (12, vec![4u64, 8, 16, 32]);
        for &l in &ls {
            self.count_audit(n, l);
        }
        let rows = span("lower-bounds.audit", || {
            self.runner.map(ls, |_, l| {
                let g = Arc::new(generators::oriented_ring(n).expect("n >= 3"));
                let ex: Arc<dyn Explorer> =
                    Arc::new(OrientedRingExplorer::new(g.clone()).expect("oriented ring"));
                let alg = Fast::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
                let report =
                    progress_audit(&alg, 4 * alg.time_bound()).expect("audit must succeed");
                x6_lb_cost::Row {
                    n,
                    l,
                    log2_l: l.next_power_of_two().trailing_zeros(),
                    group_size: report.group.len(),
                    m_blocks: report.m_blocks,
                    distinct: report.all_distinct,
                    max_nonzero: report.max_nonzero,
                    cost_witness: report.cost_witness,
                    witnesses_hold: report.witnesses_hold,
                    measured_cost: report.trimmed.max_cost,
                }
            })
        });
        self.emit(out, "x6", &rows);
    }

    /// x7's eight (family, explorer) instances, seed 0xBEEF.
    fn x7_families(&self) -> Vec<(String, Arc<PortLabeledGraph>, Arc<dyn Explorer>)> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let graph = |f: &mut dyn FnMut() -> PortLabeledGraph| {
            let g = span("graph.build", || Arc::new(f()));
            self.counters.add("graph.builds", 1.0);
            g
        };
        let explorer = |f: &mut dyn FnMut() -> Arc<dyn Explorer>| {
            let ex = span("explore.build", f);
            self.counters.add("explore.builds", 1.0);
            ex
        };
        let mut out: Vec<(String, Arc<PortLabeledGraph>, Arc<dyn Explorer>)> = Vec::new();
        let ring = graph(&mut || generators::oriented_ring(10).expect("ring"));
        let ex = explorer(&mut || {
            Arc::new(OrientedRingExplorer::new(ring.clone()).expect("ring explorer"))
        });
        out.push(("oriented ring(10)".into(), ring, ex));
        let star = graph(&mut || generators::star(7).expect("star"));
        let ex = explorer(&mut || Arc::new(DfsMapExplorer::new(star.clone())));
        out.push(("star(7 leaves)".into(), star, ex));
        let tree = graph(&mut || generators::random_tree(12, &mut rng).expect("tree"));
        let ex = explorer(&mut || Arc::new(DfsMapExplorer::new(tree.clone())));
        out.push(("random tree(12)".into(), tree, ex));
        let grid = graph(&mut || generators::grid(3, 4).expect("grid"));
        let ex = explorer(&mut || Arc::new(DfsMapExplorer::new(grid.clone())));
        out.push(("grid(3x4)".into(), grid, ex));
        let cube = graph(&mut || generators::hypercube(3).expect("hypercube"));
        let ex = explorer(&mut || {
            let cycle = HamiltonianCycle::known_hypercube(&cube).expect("gray code");
            Arc::new(HamiltonianExplorer::new(cube.clone(), cycle).expect("hamiltonian"))
        });
        out.push(("hypercube(3)".into(), cube, ex));
        let torus = graph(&mut || generators::torus(3, 3).expect("torus"));
        let ex =
            explorer(&mut || Arc::new(EulerianExplorer::new(torus.clone()).expect("eulerian")));
        out.push(("torus(3x3)".into(), torus, ex));
        let er = graph(&mut || generators::erdos_renyi_connected(9, 0.3, &mut rng).expect("er"));
        let ex = explorer(&mut || Arc::new(TrialDfsExplorer::new(er.clone()).expect("trial dfs")));
        out.push(("erdos-renyi(9, 0.3)".into(), er, ex));
        let scrambled = graph(&mut || generators::scrambled_ring(8, &mut rng).expect("scrambled"));
        let ex = explorer(&mut || {
            Arc::new(UxsExplorer::search(scrambled.clone(), 4_000, &mut rng).expect("uxs"))
        });
        out.push(("scrambled ring(8)".into(), scrambled, ex));
        out
    }

    fn x7(&self, out: &mut String) {
        let l = 8;
        let space = LabelSpace::new(l).expect("l >= 2");
        let pairs = standard_label_pairs(l);
        let rows: Vec<x7_families::Row> = self
            .x7_families()
            .into_iter()
            .map(|(family, graph, explorer)| {
                let e = explorer.bound() as u64;
                let delays = standard_delays(e);
                let cheap = Cheap::new(graph.clone(), explorer.clone(), space);
                let mc = self.worst(&cheap, &pairs, &delays, 4 * cheap.time_bound());
                let fast = Fast::new(graph.clone(), explorer.clone(), space);
                let mf = self.worst(&fast, &pairs, &delays, 4 * fast.time_bound());
                x7_families::Row {
                    family,
                    explorer: explorer.name(),
                    n: graph.node_count(),
                    e_edges: graph.edge_count(),
                    e_bound: e,
                    cheap_time: mc.0,
                    cheap_time_bound: cheap.time_bound(),
                    cheap_cost: mc.1,
                    fast_time: mf.0,
                    fast_time_bound: fast.time_bound(),
                    fast_cost: mf.1,
                }
            })
            .collect();
        self.emit(out, "x7", &rows);
    }

    fn x8(&self, out: &mut String) {
        let l = 4;
        let space = LabelSpace::new(l).expect("l >= 2");
        let pairs = standard_label_pairs(l);
        let mut rows = Vec::new();
        for n in [6usize, 12, 24] {
            let (g, ex) = self.ring(n);
            let delays = standard_delays((n - 1) as u64);
            let fam = Arc::new(RingDoublingFamily::new());
            let top = fam.level_for(n);
            for (base, name) in [
                (BaseAlgorithm::Fast, "fast"),
                (BaseAlgorithm::Cheap, "cheap"),
            ] {
                let iter = Iterated::new(g.clone(), fam.clone(), space, base, 1..=top)
                    .expect("valid levels");
                let mi = self.worst(&iter, &pairs, &delays, 8 * iter.time_bound());
                let (plain_time, plain_cost) = match base {
                    BaseAlgorithm::Fast => {
                        let plain = Fast::new(g.clone(), ex.clone(), space);
                        self.worst(&plain, &pairs, &delays, 4 * plain.time_bound())
                    }
                    _ => {
                        let plain = Cheap::new(g.clone(), ex.clone(), space);
                        self.worst(&plain, &pairs, &delays, 4 * plain.time_bound())
                    }
                };
                rows.push(x8_iterated::Row {
                    n,
                    base: name,
                    iter_time: mi.0,
                    iter_cost: mi.1,
                    plain_time,
                    plain_cost,
                    time_ratio: mi.0 as f64 / plain_time as f64,
                    cost_ratio: mi.1 as f64 / plain_cost.max(1) as f64,
                });
            }
        }
        self.emit(out, "x8", &rows);
    }

    fn x9(&self, out: &mut String) {
        let (n, l) = (12, 32u64);
        let (g, ex) = self.ring(n);
        let space = LabelSpace::new(l).expect("l >= 2");
        let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(g.clone(), ex, space));
        let executor = GatheringExecutor::new(Arc::clone(&alg));
        let rule = FleetRule::spread(&g, l);
        let rows: Vec<x9_gathering::Row> = [2usize, 3, 4, 5, 6]
            .iter()
            .map(|&k| {
                let (grid, meta, loosest) = span("bench.grid_build", || {
                    let worst_bound = (k as u64 - 1) * (alg.time_bound() + rule.max_delay());
                    let grid = Grid::new(4 * worst_bound)
                        .fleet_sizes(&[k])
                        .fleet_rule(rule.clone())
                        .delays(&x9_gathering::standard_phases());
                    let loosest = grid
                        .scenarios()
                        .iter()
                        .map(|s| executor.merge_restart_bound(s))
                        .max()
                        .expect("non-empty fleet grid");
                    let meta = grid.meta();
                    (grid, meta, loosest)
                });
                let context = format!("x9 k={k}");
                let report = self.lookup(&context, &meta).unwrap_or_else(|| {
                    let report = span("runner.sweep", || self.runner.sweep(&grid, &executor))
                        .unwrap_or_else(|e| panic!("x9 sweep failed: {e}"));
                    self.count_sweep(&report);
                    self.record(&context, &meta, &report);
                    report
                });
                let stats = report.solo();
                x9_gathering::Row {
                    n,
                    k,
                    scenarios: stats.executed,
                    rounds: stats.max_time,
                    bound: loosest,
                    ratio: ratio_label(&stats),
                    cost: stats.max_cost,
                    merges: stats.merges,
                }
            })
            .collect();
        self.emit(out, "x9", &rows);
    }

    fn x11_standard_grid(&self) -> (TopoGrid, EntryContexts) {
        self.x11_grid(
            x10_topologies::standard_topo_specs(false),
            X11_L,
            &x11_gathering_topo::standard_fleet_sizes(false),
            &x11_gathering_topo::standard_phases(false),
            X11_CAP,
        )
    }

    /// The sweep service's answer to one query, as `serve` computes it:
    /// validation, the `cached` probe, then the same recorded sweep a
    /// direct query runs. The query arrives and the reply leaves as wire
    /// frames.
    #[must_use]
    pub fn serve_answer(&self, query_frame: &[u8]) -> (Reply, Vec<u8>) {
        let query: Query = span("fabric.wire", || {
            read_json_frame(&mut &query_frame[..], "a query")
        })
        .expect("well-formed query frame")
        .expect("one query per frame");
        let store = self.store.expect("serve runs over a store");
        let reply = match query {
            Query::Token { token } => match span("store.load", || store.load_token(&token)) {
                Ok(entry) => {
                    self.counters.add("store.loads", 1.0);
                    self.counters.add("store.hits", 1.0);
                    self.counters.add(
                        "store.bytes_read",
                        file_len(&store.root().join(format!("{token}.json"))),
                    );
                    Reply::Report {
                        cached: true,
                        token,
                        report: entry.report,
                    }
                }
                Err(miss) => Reply::NotCached {
                    reason: miss.to_string(),
                },
            },
            Query::Grid {
                algorithm,
                spec,
                l,
                cap,
            } => self.serve_grid(&algorithm, spec, l, cap),
            Query::Shutdown => Reply::Bye,
        };
        let mut frame = Vec::new();
        span("fabric.wire", || {
            write_json_frame(&mut frame, &reply, "a reply")
        })
        .expect("serializable reply");
        self.counters.add(
            "fabric.wire_bytes",
            (query_frame.len() + frame.len()) as f64,
        );
        (reply, frame)
    }

    fn serve_grid(&self, algorithm: &str, spec: GraphSpec, l: u64, cap: usize) -> Reply {
        let (Some(context), true, true) =
            (x10_topologies::serve_context(algorithm), l >= 2, cap >= 1)
        else {
            return Reply::BadQuery {
                reason: "malformed query".into(),
            };
        };
        let which = if algorithm == "cheap" {
            Algo::Cheap
        } else {
            Algo::Fast
        };
        let built = span("graph.build", || spec.build());
        self.counters.add("graph.builds", 1.0);
        if let Err(e) = built {
            return Reply::BadQuery {
                reason: format!("spec does not build: {e}"),
            };
        }
        let store = self.store.expect("serve runs over a store");
        // The `cached` probe: its own grid, key and load.
        let (topo, _) = self.x10_grid(vec![spec.clone()], l, cap);
        let meta = span("bench.grid_build", || topo.meta());
        let key = span("store.key", || StoreKey::new(context, &meta, ENGINE));
        let cached = span("store.load", || store.load(&key)).is_ok();
        self.counters.add("store.loads", 1.0);
        // `sweep_single_spec`: a fresh grid through the recorded sweep.
        let (topo, explorers) = self.x10_grid(vec![spec], l, cap);
        let report = self.topo_sweep(context, &topo, &explorers, l, which);
        Reply::Report {
            cached,
            token: key.token().to_string(),
            report,
        }
    }

    /// `experiments x10 x11 --json --fabric workers=N`, traced: an
    /// in-process coordinator and `workers` worker lanes that lease,
    /// execute and submit ranges exactly as worker processes do, then
    /// the main lane's rendering of the merged sweeps. Returns stdout and
    /// the worker lanes' spans.
    ///
    /// The main lane records two root spans, before and after the
    /// workers run; while it only waits for them it records nothing, so
    /// the lanes' summed time counts each working thread once.
    #[must_use]
    pub fn fabric_topo(
        &self,
        workers: usize,
        origin: std::time::Instant,
    ) -> (String, Vec<Vec<crate::spans::Span>>) {
        let server = span("main", || {
            FabricServer::start(ServerConfig {
                coordinator: CoordinatorConfig {
                    workers,
                    chunk: 0,
                    lease_timeout_ms: 5_000,
                },
                checkpoint: None,
                resume: Vec::new(),
            })
        })
        .unwrap_or_else(|e| panic!("cannot start the coordinator: {e}"));
        let addr = server.addr().to_string();
        let lanes: Vec<Vec<crate::spans::Span>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|i| {
                    let addr = addr.clone();
                    scope.spawn(move || {
                        crate::spans::install(i + 1, origin);
                        span("worker", || self.fabric_worker(&addr, i as u64 + 1));
                        crate::spans::finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker lane"))
                .collect()
        });
        span("main", || self.fabric_render(server.join()))
            .map(|out| (out, lanes))
            .unwrap_or_else(|e| panic!("fabric run failed: {e}"))
    }

    /// The rendered output of a fabric run, from the coordinator's outcome.
    fn fabric_render(
        &self,
        outcome: Result<rendezvous_fabric::FabricOutcome, rendezvous_fabric::FabricError>,
    ) -> Result<String, rendezvous_fabric::FabricError> {
        let outcome = outcome?;
        let stats = outcome.stats;
        self.counters
            .add("fabric.reassigned", stats.reassigned as f64);
        self.counters
            .add("fabric.duplicates", stats.duplicates as f64);
        let reports: Vec<SweepReport> = outcome.sweeps.into_iter().map(|(_, r)| r).collect();
        assert_eq!(reports.len(), 3, "x10 cheap, x10 fast and x11 sweeps");
        let mut out = String::new();
        span("x11", || {
            let (topo, _) = self.x11_standard_grid();
            self.emit(&mut out, "x11", &x11_rows(&topo, &reports[2]));
        });
        span("x10", || {
            let (topo, _) =
                self.x10_grid(x10_topologies::standard_topo_specs(false), X10_L, X10_CAP);
            self.emit(&mut out, "x10", &x10_rows(&topo, &reports[0], &reports[1]));
        });
        Ok(out)
    }

    /// One fabric worker: walks the same sweep sequence as every other
    /// worker, pulling lease ranges of each sweep until it completes.
    fn fabric_worker(&self, addr: &str, id: u64) {
        let mut client = span("fabric.lease_wait", || WorkerClient::connect(addr, id))
            .unwrap_or_else(|e| panic!("cannot join the fabric: {e}"));
        let (topo, explorers) =
            self.x10_grid(x10_topologies::standard_topo_specs(false), X10_L, X10_CAP);
        for (sweep, which) in [(0, Algo::Cheap), (1, Algo::Fast)] {
            let algs = self.topo_algorithms(&topo, &explorers, X10_L, which);
            let exec = TopoExec::new(&algs);
            self.lease_loop(&mut client, sweep, &topo, &exec, |lo, hi| {
                span("core.plan_compile", || exec.warm(&topo.pieces(lo, hi)));
                self.counters
                    .add("core.plan_lookups", 2.0 * (hi - lo) as f64);
            });
            self.counters
                .add("core.plans_compiled", exec.compiled() as f64);
        }
        let (topo, contexts) = self.x11_standard_grid();
        let exec = GatheringTopoExec {
            space: LabelSpace::new(X11_L).expect("l >= 2"),
            contexts,
        };
        self.lease_loop(&mut client, 2, &topo, &exec, |_, _| {});
        span("fabric.finish", || {
            client.finish(TelemetrySnapshot::empty())
        })
        .unwrap_or_else(|e| panic!("worker cannot finish: {e}"));
    }

    fn lease_loop<E: PieceExecutor>(
        &self,
        client: &mut WorkerClient,
        sweep: usize,
        topo: &TopoGrid,
        exec: &E,
        mut warm: impl FnMut(usize, usize),
    ) {
        let meta = span("bench.grid_build", || topo.meta());
        loop {
            let lease = span("fabric.lease_wait", || client.next_lease(sweep, meta))
                .unwrap_or_else(|e| panic!("worker lost its coordinator: {e}"));
            let Some((lo, hi)) = lease else { break };
            self.counters.add("fabric.leases", 1.0);
            warm(lo, hi);
            let partial = span("runner.sweep", || {
                self.runner.sweep_range(topo, lo, hi, exec)
            })
            .unwrap_or_else(|e| panic!("fabric sweep failed on [{lo}, {hi}): {e}"));
            self.counters
                .add("runner.scenarios", partial.executed() as f64);
            let mut frame = Vec::new();
            let message = Message::Result {
                sweep,
                lo,
                hi,
                report: partial.clone(),
            };
            if write_frame(&mut frame, &message).is_ok() {
                self.counters.add("fabric.wire_bytes", frame.len() as f64);
            }
            span("fabric.submit", || client.submit(sweep, lo, hi, partial))
                .unwrap_or_else(|e| panic!("worker cannot submit [{lo}, {hi}): {e}"));
        }
        self.counters.add("runner.sweeps", 1.0);
    }
}

const X10_L: u64 = 6;
const X10_CAP: usize = 24;
const X11_L: u64 = 6;
const X11_CAP: usize = 8;
const X11_CONTEXT: &str = "x11 gathering";

/// Compiles the plan of every (label, start) the scenarios use, once.
fn warm(executor: &AlgorithmExecutor<'_>, scenarios: &[rendezvous_runner::Scenario]) {
    let mut seen: BTreeSet<(u64, NodeId)> = BTreeSet::new();
    for s in scenarios {
        seen.insert((s.first_label(), s.start_a()));
        seen.insert((s.second_label(), s.start_b()));
    }
    for (label, start) in seen {
        executor.plan(label, start).expect("plan compiles");
    }
}

fn ratio_label(stats: &GroupStats) -> String {
    stats
        .worst_ratio
        .as_ref()
        .map_or_else(|| "-".into(), rendezvous_runner::Witness::ratio_label)
}

/// x10's per-entry executor with the algorithms built up front, so plan
/// compilation can be warmed (and timed) before the sweep.
struct TopoExec<'a> {
    execs: Vec<AlgorithmExecutor<'a>>,
    bounds: Vec<Bounds>,
}

impl<'a> TopoExec<'a> {
    fn new(algs: &'a [Box<dyn RendezvousAlgorithm>]) -> TopoExec<'a> {
        TopoExec {
            execs: algs
                .iter()
                .map(|a| AlgorithmExecutor::new(a.as_ref()))
                .collect(),
            bounds: algs
                .iter()
                .map(|a| Bounds {
                    time: a.time_bound(),
                    cost: a.cost_bound(),
                })
                .collect(),
        }
    }

    fn warm(&self, pieces: &[WorkPiece<'_>]) {
        for piece in pieces {
            let entry = piece.entry.expect("topology pieces carry their entry");
            warm(&self.execs[entry.spec_index], &piece.scenarios);
        }
    }

    fn compiled(&self) -> usize {
        self.execs
            .iter()
            .map(AlgorithmExecutor::compiled_plans)
            .sum()
    }
}

impl PieceExecutor for TopoExec<'_> {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let outcomes = runner.outcomes(&self.execs[entry.spec_index], &piece.scenarios)?;
        Ok((outcomes, Some(self.bounds[entry.spec_index])))
    }
}

/// x11's per-entry gathering executor.
struct GatheringTopoExec {
    space: LabelSpace,
    contexts: EntryContexts,
}

impl PieceExecutor for GatheringTopoExec {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let (explorer, bounds) = &self.contexts[entry.spec_index];
        let alg: Arc<dyn RendezvousAlgorithm> = Arc::new(Fast::new(
            entry.graph.clone(),
            Arc::clone(explorer),
            self.space,
        ));
        let outcomes = runner.outcomes(&GatheringExecutor::new(alg), &piece.scenarios)?;
        Ok((outcomes, Some(*bounds)))
    }
}

/// Family → spec count, sorted by family, from the grid itself.
fn spec_counts(topo: &TopoGrid) -> Vec<(String, usize)> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for entry in topo.entries() {
        *counts.entry(entry.spec.family()).or_default() += 1;
    }
    counts.into_iter().collect()
}

fn x10_rows(topo: &TopoGrid, cheap: &SweepReport, fast: &SweepReport) -> Vec<x10_topologies::Row> {
    let ratio = |report: &SweepReport, family: &str| {
        report
            .group(family)
            .and_then(|f| f.worst_ratio.as_ref())
            .map_or_else(|| "-".into(), rendezvous_runner::Witness::ratio_label)
    };
    spec_counts(topo)
        .into_iter()
        .map(|(family, specs)| {
            let c = cheap.group(&family);
            let f = fast.group(&family);
            x10_topologies::Row {
                specs,
                scenarios: c.map_or(0, |s| s.executed),
                cheap_time: c.map_or(0, |s| s.max_time),
                cheap_ratio: ratio(cheap, &family),
                cheap_cost: c.map_or(0, |s| s.max_cost),
                fast_time: f.map_or(0, |s| s.max_time),
                fast_ratio: ratio(fast, &family),
                fast_cost: f.map_or(0, |s| s.max_cost),
                family,
            }
        })
        .collect()
}

fn x11_rows(topo: &TopoGrid, stats: &SweepReport) -> Vec<x11_gathering_topo::Row> {
    spec_counts(topo)
        .into_iter()
        .map(|(family, specs)| {
            let f = stats.group(&family);
            x11_gathering_topo::Row {
                specs,
                scenarios: f.map_or(0, |s| s.executed),
                rounds: f.map_or(0, |s| s.max_time),
                ratio: f.map_or_else(|| "-".into(), ratio_label),
                cost: f.map_or(0, |s| s.max_cost),
                merges: f.map_or(0, |s| s.merges),
                family,
            }
        })
        .collect()
}
