//! One partial-fold format, end-to-end in one process: a sweep sequence
//! mixing all three workload shapes — a pair grid, a gathering fleet
//! grid, and a topology sweep — recorded by every shard as fabric
//! [`CheckpointRecord`] lines (what `--shard i/m` prints), folded by
//! [`merge_records`] (what `--merge-shards` runs), and replayed. For
//! every m ∈ {2, 3, 7} the replayed reports must equal the direct run
//! **byte for byte** as JSON; at m = 7 the fleet sweep has fewer units
//! than shards, so some shard ranges are empty and emit no record.
//!
//! Replay diagnostics live here too, each over its own owned
//! [`ExecPlan::Replay`] — no session outlives its test.

use rendezvous_bench::session::{ExecPlan, MergedLedger, Session};
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{spec_explorer, OrientedRingExplorer};
use rendezvous_fabric::{checkpoint, merge_records, CheckpointRecord};
use rendezvous_graph::{generators, GraphSpec, RingSpec, SeededSpec};
use rendezvous_runner::{
    AlgorithmExecutor, Bounded, Bounds, FleetRule, GatheringExecutor, Grid, PieceExecutor, Runner,
    RunnerError, ScenarioOutcome, SweepReport, TopoGrid, WorkPiece, WorkloadKind, WorkloadMeta,
};
use std::sync::Arc;

/// Minimal topology piece executor (the x10 shape): build `Cheap` on the
/// piece's cached graph, report its paper bounds.
struct CheapTopo {
    l: u64,
}

impl PieceExecutor for CheapTopo {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let explorer = spec_explorer(&entry.spec, entry.graph.clone())
            .map_err(|e| RunnerError::new(e.to_string()))?;
        let alg = Cheap::new(
            entry.graph.clone(),
            explorer,
            LabelSpace::new(self.l).expect("l >= 2"),
        );
        let bounds = Bounds {
            time: rendezvous_core::RendezvousAlgorithm::time_bound(&alg),
            cost: rendezvous_core::RendezvousAlgorithm::cost_bound(&alg),
        };
        let outcomes = runner.outcomes(&AlgorithmExecutor::new(&alg), &piece.scenarios)?;
        Ok((outcomes, Some(bounds)))
    }
}

/// One deterministic sweep sequence through the recorded path: pair grid,
/// fleet grid, topology grid — every workload shape the experiments run,
/// in one record stream.
fn run_sequence(session: &mut Session) -> Vec<SweepReport> {
    let mut reports = Vec::new();

    // 1. A pair sweep with sweep-level bounds (the x1–x8 shape).
    let g = Arc::new(generators::oriented_ring(6).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let cheap = Cheap::new(g.clone(), ex.clone(), LabelSpace::new(4).unwrap());
    let bounds = Some(Bounds {
        time: cheap.time_bound(),
        cost: cheap.cost_bound(),
    });
    let pair_grid = Grid::new(4 * cheap.time_bound())
        .label_pairs_both_orders(&[(1, 4), (2, 3)])
        .delays(&[0, 2])
        .all_start_pairs(&g);
    let executor = AlgorithmExecutor::new(&cheap);
    reports.push(
        session
            .sweep("ledger pair", &pair_grid, &Bounded::new(&executor, bounds))
            .report,
    );

    // 2. A gathering fleet sweep with per-scenario bounds (the x9 shape).
    let g8 = Arc::new(generators::oriented_ring(8).unwrap());
    let ex8 = Arc::new(OrientedRingExplorer::new(g8.clone()).unwrap());
    let fast: Arc<dyn RendezvousAlgorithm> =
        Arc::new(Fast::new(g8.clone(), ex8, LabelSpace::new(8).unwrap()));
    let rule = FleetRule::spread(&g8, 8);
    let horizon = 4 * 2 * (fast.time_bound() + rule.max_delay());
    let fleet_grid = Grid::new(horizon)
        .fleet_sizes(&[2, 3])
        .fleet_rule(rule)
        .fleet_rotations(&[0])
        .delays(&[0, 5]);
    reports.push(
        session
            .sweep("ledger fleet", &fleet_grid, &GatheringExecutor::new(fast))
            .report,
    );

    // 3. A topology sweep (the x10 shape), small but multi-family.
    let specs = vec![
        GraphSpec::Ring(RingSpec { n: 5 }),
        GraphSpec::ScrambledRing(SeededSpec { n: 5, seed: 3 }),
        GraphSpec::Tree(SeededSpec { n: 6, seed: 4 }),
        GraphSpec::Ring(RingSpec { n: 6 }),
    ];
    let topo = TopoGrid::build(specs, |_, g| {
        Grid::new(400)
            .label_pairs_both_orders(&[(1, 3)])
            .delays(&[0, 2])
            .all_start_pairs(g)
            .sample_cap(9)
    })
    .expect("specs build");
    reports.push(
        session
            .sweep("ledger topo", &topo, &CheapTopo { l: 3 })
            .report,
    );

    reports
}

fn to_json(reports: &[SweepReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| serde_json::to_string(r).expect("serializable report"))
        .collect()
}

#[test]
fn mixed_shard_records_merge_and_replay_byte_identically_for_m_2_3_7() {
    let runner = Runner::sequential();
    let direct = run_sequence(&mut Session::direct(runner.clone()));
    let direct_json = to_json(&direct);
    assert!(direct.iter().all(SweepReport::clean));
    let kinds = [WorkloadKind::Grid, WorkloadKind::Grid, WorkloadKind::Topo];

    for m in [2usize, 3, 7] {
        // Shard pass: every shard's records cross the "process boundary"
        // as the JSON lines a `--shard i/m` run prints.
        let mut lines = String::new();
        let mut per_sweep = [0usize; 3];
        for i in 0..m {
            let mut session = Session::new(runner.clone(), ExecPlan::shard(i, m));
            assert_eq!(run_sequence(&mut session).len(), 3);
            for record in session.finish().expect("a shard plan returns its records") {
                assert!(record.lo < record.hi, "an empty range emits no record");
                assert_eq!(record.meta.kind, kinds[record.sweep]);
                assert_eq!(record.report.executed(), record.hi - record.lo);
                per_sweep[record.sweep] += 1;
                lines.push_str(&record.to_line());
            }
        }
        for (sweep, direct) in direct.iter().enumerate() {
            assert_eq!(
                per_sweep[sweep],
                m.min(direct.executed()),
                "sweep #{sweep}, m = {m}"
            );
        }
        if m == 7 {
            assert!(
                per_sweep[1] < m,
                "the fleet sweep must leave some shards empty"
            );
        }
        let records = checkpoint::parse(&lines).expect("shard lines parse back");
        assert_eq!(
            records
                .iter()
                .map(CheckpointRecord::to_line)
                .collect::<String>(),
            lines,
            "records re-serialize byte-identically (m = {m})"
        );
        let merged = MergedLedger {
            records: merge_records(records).expect("consistent shards"),
            source: format!("{m} shards"),
        };

        // The merged records alone must already equal the direct folds.
        let merged_reports: Vec<SweepReport> =
            merged.records.iter().map(|(_, r)| r.clone()).collect();
        assert_eq!(
            to_json(&merged_reports),
            direct_json,
            "merged records differ (m = {m})"
        );

        // Replay pass: the sequence consumes the merged ledger instead of
        // executing, and must reproduce the direct reports byte for byte.
        let mut session = Session::new(runner.clone(), ExecPlan::Replay(merged));
        let replayed = run_sequence(&mut session);
        assert!(session.finish().is_none(), "a replay emits no records");
        assert_eq!(
            to_json(&replayed),
            direct_json,
            "replayed reports differ (m = {m})"
        );
    }
}

/// Replay diagnostics: ledger exhaustion and fingerprint mismatches must
/// name the sweep's position in the sequence, the expected versus found
/// fingerprint, and the ledger's source — through the real
/// `Session::sweep` path, not a fabricated plan.
#[test]
fn replay_diagnostics_name_position_fingerprints_and_source() {
    let runner = Runner::sequential();
    // A genuine single-shard run of the mixed sequence: one Grid, one
    // Grid (fleet), one Topo record, fingerprints intact.
    let mut session = Session::new(runner.clone(), ExecPlan::shard(0, 1));
    let _ = run_sequence(&mut session);
    let records: Vec<(WorkloadMeta, SweepReport)> = session
        .finish()
        .expect("a shard plan returns its records")
        .into_iter()
        .map(|r| (r.meta, r.report))
        .collect();
    assert_eq!(records.len(), 3);

    // Replays `records` as a ledger read from `source`, returning the
    // diagnostic the sequence panics with.
    let caught = |records: Vec<(WorkloadMeta, SweepReport)>, source: &str| -> String {
        let ledger = MergedLedger {
            records,
            source: source.into(),
        };
        let mut session = Session::new(runner.clone(), ExecPlan::Replay(ledger));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_sequence(&mut session);
        }))
        .expect_err("diagnostic must panic");
        err.downcast_ref::<String>()
            .cloned()
            .expect("diagnostics panic with a formatted message")
    };

    // Exhaustion: the merged ledger holds only the first record, but the
    // sequence asks for three sweeps.
    let msg = caught(vec![records[0].clone()], "a.jsonl, b.jsonl");
    assert!(
        msg.contains("sweep #1")
            && msg.contains(&records[1].0.fingerprint())
            && msg.contains("holds only 1")
            && msg.contains("a.jsonl, b.jsonl"),
        "exhaustion must name the position, fingerprint, ledger length and source: {msg}"
    );

    // Mismatch: the first sweep of the sequence is a grid sweep, but the
    // ledger leads with the topo record.
    let msg = caught(vec![records[2].clone()], "c.jsonl");
    assert!(
        msg.contains("sweep #0")
            && msg.contains(&format!("expected {}", records[0].0.fingerprint()))
            && msg.contains(&format!("recorded {}", records[2].0.fingerprint()))
            && msg.contains("c.jsonl"),
        "mismatch must name position, both fingerprints and the source: {msg}"
    );

    // Leftovers: a ledger longer than the sequence is refused when the
    // replay ends.
    let mut longer = records.clone();
    longer.push(records[0].clone());
    let ledger = MergedLedger {
        records: longer,
        source: "d.jsonl".into(),
    };
    let mut session = Session::new(runner, ExecPlan::Replay(ledger));
    let _ = run_sequence(&mut session);
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.finish()))
        .expect_err("unconsumed records must panic");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("replay consumed 3 of 4") && msg.contains("d.jsonl"),
        "leftovers must name the counts and the source: {msg}"
    );
}
