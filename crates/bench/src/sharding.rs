//! Multi-process sweep sharding for the experiments binary.
//!
//! One experiment run performs a deterministic *sequence* of workload
//! sweeps (every [`common::sweep_recorded`](crate::common::sweep_recorded)
//! call — the pair grids of X1–X8, the gathering fleet grids of X9, and
//! the topology sweeps of X10/X11 alike, all through the one generic
//! [`Workload`](rendezvous_runner::Workload) pipeline). Sharding splits
//! each sweep in that sequence across `m` independent processes and
//! reassembles the exact single-process result:
//!
//! 1. **Shard pass** (`experiments --shard i/m --emit-shard`, run once per
//!    `i`): every sweep executes only shard `i` of its workload
//!    ([`Workload::shard`](rendezvous_runner::Workload::shard)), and the
//!    partial [`SweepReport`] is appended to one ledger — a single
//!    [`LedgerRecord`] stream in call order, whatever mix of grid and
//!    topology sweeps the selection runs — emitted as JSON.
//! 2. **Merge pass** (`experiments --merge-shards a.json b.json …`): the
//!    emitted ledgers are merged position-wise with
//!    [`SweepReport::merge`] and the experiments replay against the merged
//!    ledger instead of executing — producing output byte-identical to an
//!    unsharded run.
//!
//! Each record is **self-describing**: it carries the workload kind and
//! size fingerprint next to the partial report, so a merge or replay
//! against ledgers from a *different* experiment selection fails with a
//! diagnostic naming the sweep position, the expected versus found record
//! kind, and where the ledger came from — instead of folding garbage.
//!
//! The shard index and the ledgers live in the run's
//! [`ExecPlan`](crate::session::ExecPlan) (`Shard` owns the ledger it
//! records, `Replay` owns the merged ledger it consumes); library users
//! who never build such a plan get the ordinary single-process path.

use rendezvous_runner::{SweepReport, WorkloadKind, WorkloadMeta};
use serde::{Deserialize, Serialize};

/// One sweep's entry in a shard ledger: the workload's fingerprint
/// (used to detect mismatched shard runs at merge and replay time) plus
/// the shard's partial report — or, after merging, the full one. The
/// same `(meta, report)` pair the fabric's checkpoint records and
/// sweep outcomes carry.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[must_use = "a ledger record exists to be serialized or merged; dropping it loses the shard"]
pub struct LedgerRecord {
    /// Kind, content digest and sizes of the swept workload.
    pub meta: WorkloadMeta,
    /// The (partial or merged) fold.
    pub report: SweepReport,
}

/// Fingerprint description of a workload (or recorded sweep), for
/// diagnostics — the single phrasing both sides of every
/// expected-versus-found message use.
fn describe_meta(meta: &WorkloadMeta) -> String {
    match meta.kind {
        WorkloadKind::Grid => format!(
            "grid sweep of {} scenarios ({} pre-cap)",
            meta.size, meta.full_size
        ),
        WorkloadKind::Topo => format!(
            "topo sweep of {} (spec × scenario) units ({} pre-cap)",
            meta.size, meta.full_size
        ),
    }
}

/// The JSON document one `--emit-shard` run prints: which shard it was
/// plus its ledger — one record per sweep, in call order, grid and
/// topology sweeps interleaved exactly as the selection ran them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEmission {
    /// Shard index of this run.
    pub shard: usize,
    /// Total shard count of the sharded sweep.
    pub of: usize,
    /// One record per `sweep_recorded` call, in call order.
    pub records: Vec<LedgerRecord>,
}

/// The merged ledger of all shards of one run: one full-sweep record per
/// sweep, in call order, plus the provenance string replay diagnostics
/// name.
#[derive(Debug, Clone, Default)]
pub struct MergedLedger {
    /// One full-sweep record per `sweep_recorded` call.
    pub records: Vec<LedgerRecord>,
    /// Where the records came from (shard file names or the fabric
    /// coordinator).
    pub source: String,
}

impl MergedLedger {
    /// The record replaying sweep `sweep` of the run, which must have
    /// fingerprint `meta`.
    ///
    /// # Errors
    ///
    /// When the ledger is exhausted or its record came from a different
    /// kind (or size) of sweep: the message names the sweep's position
    /// in the sequence, the expected versus found record, and the
    /// ledger's source.
    pub fn record(&self, sweep: usize, meta: &WorkloadMeta) -> Result<&LedgerRecord, String> {
        match self.records.get(sweep) {
            None => Err(format!(
                "sweep #{sweep} ({}) requested but the merged ledger from {} \
                 holds only {} records — the shard runs covered a different \
                 experiment selection",
                describe_meta(meta),
                self.source,
                self.records.len()
            )),
            Some(record) if record.meta != *meta => Err(format!(
                "sweep #{sweep} expected a {} but the merged ledger from {} \
                 recorded a {} — shard and merge runs must use identical \
                 experiment selections and flags",
                describe_meta(meta),
                self.source,
                describe_meta(&record.meta)
            )),
            Some(record) => Ok(record),
        }
    }
}

/// Merges the emissions of all `of` shards into one full-sweep ledger,
/// validating that the inputs are exactly shards `0..of` of the same
/// sweep sequence. `names[i]` labels emission `i` (its file name) so
/// every inconsistency names the offending input.
///
/// # Errors
///
/// A human-readable description of any inconsistency: wrong shard set,
/// disagreeing shard counts, or ledgers from different sweep sequences.
///
/// # Panics
///
/// Panics if `names.len() != emissions.len()` (a caller bug).
pub fn merge_emissions(
    emissions: Vec<ShardEmission>,
    names: &[String],
) -> Result<MergedLedger, String> {
    assert_eq!(
        emissions.len(),
        names.len(),
        "one name per emission, got {} names for {} emissions",
        names.len(),
        emissions.len()
    );
    let Some(first) = emissions.first() else {
        return Err("no shard files given".into());
    };
    let of = first.of;
    if emissions.len() != of {
        return Err(format!(
            "expected {of} shard files (one per shard), got {}",
            emissions.len()
        ));
    }
    let mut emissions: Vec<(ShardEmission, &String)> =
        emissions.into_iter().zip(names.iter()).collect();
    emissions.sort_by_key(|(e, _)| e.shard);
    let (first, _) = &emissions[0];
    let expected_len = first.records.len();
    for (i, (e, name)) in emissions.iter().enumerate() {
        if e.of != of {
            return Err(format!(
                "{name} says {} shards, another emission says {of}",
                e.of
            ));
        }
        if e.shard != i {
            return Err(format!(
                "shard set is not exactly 0..{of}: found shard {} ({name}) where \
                 {i} was expected (missing or duplicate emission)",
                e.shard
            ));
        }
        if e.records.len() != expected_len {
            return Err(format!(
                "{name} (shard {}) recorded {} sweeps but shard 0 recorded {} — \
                 the runs used different experiment selections or flags",
                e.shard,
                e.records.len(),
                expected_len
            ));
        }
    }
    let mut merged = MergedLedger {
        records: Vec::with_capacity(expected_len),
        source: names.join(", "),
    };
    for sweep_idx in 0..expected_len {
        let meta = emissions[0].0.records[sweep_idx].meta;
        let mut report = SweepReport::default();
        for (e, name) in &emissions {
            let record = &e.records[sweep_idx];
            if record.meta != meta {
                return Err(format!(
                    "sweep #{sweep_idx}: {name} (shard {}) recorded a {} but shard 0 \
                     recorded a {} — the runs used different parameters",
                    e.shard,
                    describe_meta(&record.meta),
                    describe_meta(&meta)
                ));
            }
            report = report.merge(&record.report);
        }
        if report.executed() != meta.size {
            return Err(format!(
                "sweep #{sweep_idx} ({}): merged shards executed {} of {} units — \
                 a shard is missing coverage",
                describe_meta(&meta),
                report.executed(),
                meta.size
            ));
        }
        merged.records.push(LedgerRecord { meta, report });
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::{GroupStats, Scenario, ScenarioOutcome};

    fn grid_record(executed: usize, size: usize) -> LedgerRecord {
        let mut report = SweepReport::default();
        if executed > 0 {
            report.groups.push(GroupStats {
                executed,
                meetings: executed,
                ..GroupStats::default()
            });
        }
        record(WorkloadKind::Grid, size, size, report)
    }

    fn record(
        kind: WorkloadKind,
        full_size: usize,
        size: usize,
        report: SweepReport,
    ) -> LedgerRecord {
        LedgerRecord {
            meta: WorkloadMeta {
                kind,
                digest: 7,
                full_size,
                size,
            },
            report,
        }
    }

    fn topo_record(per_family: &[(&str, usize)], size: usize) -> LedgerRecord {
        let mut report = SweepReport::default();
        for &(family, executed) in per_family {
            report.groups.push(GroupStats {
                key: family.into(),
                executed,
                meetings: executed,
                ..GroupStats::default()
            });
        }
        report.groups.sort_by(|a, b| a.key.cmp(&b.key));
        record(WorkloadKind::Topo, size, size, report)
    }

    fn emission(shard: usize, of: usize, records: Vec<LedgerRecord>) -> ShardEmission {
        ShardEmission { shard, of, records }
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("s{i}.json")).collect()
    }

    #[test]
    fn merge_rejects_inconsistent_emissions() {
        // Wrong file count for the declared shard total.
        let e = emission(0, 3, vec![]);
        assert!(merge_emissions(vec![e], &names(1))
            .unwrap_err()
            .contains("expected 3"));
        // Duplicate shard indices — the error names the file.
        let dup = vec![emission(0, 2, vec![]), emission(0, 2, vec![])];
        let err = merge_emissions(dup, &names(2)).unwrap_err();
        assert!(
            err.contains("not exactly") && err.contains("s1.json"),
            "{err}"
        );
        // Mismatched sweep counts.
        let uneven = vec![
            emission(0, 2, vec![grid_record(1, 2)]),
            emission(1, 2, vec![]),
        ];
        assert!(merge_emissions(uneven, &names(2))
            .unwrap_err()
            .contains("different experiment"));
        // A grid sweep in one ledger facing a topo sweep in another.
        let crossed = vec![
            emission(0, 2, vec![grid_record(1, 2)]),
            emission(1, 2, vec![topo_record(&[("ring", 1)], 2)]),
        ];
        let err = merge_emissions(crossed, &names(2)).unwrap_err();
        assert!(
            err.contains("topo sweep") && err.contains("grid sweep"),
            "kind mismatch must name both kinds: {err}"
        );
        // Coverage hole: shards together executed fewer than the grid.
        let hole = vec![
            emission(0, 2, vec![grid_record(1, 4)]),
            emission(1, 2, vec![grid_record(1, 4)]),
        ];
        assert!(merge_emissions(hole, &names(2))
            .unwrap_err()
            .contains("missing coverage"));
        // And a consistent pair merges.
        let good = vec![
            emission(0, 2, vec![grid_record(2, 4)]),
            emission(1, 2, vec![grid_record(2, 4)]),
        ];
        let merged = merge_emissions(good, &names(2)).unwrap();
        assert_eq!(merged.records.len(), 1);
        assert_eq!(merged.records[0].report.executed(), 4);
        assert_eq!(merged.source, "s0.json, s1.json");
    }

    #[test]
    fn merge_handles_mixed_grid_and_topo_ledgers_in_call_order() {
        // One emission stream holding a pair-grid sweep, a topo sweep and
        // a fleet-grid sweep — the x1–x11 shape in miniature.
        let left = emission(
            0,
            2,
            vec![
                grid_record(2, 4),
                topo_record(&[("ring", 2), ("tree", 1)], 6),
                grid_record(1, 2),
            ],
        );
        let right = emission(
            1,
            2,
            vec![
                grid_record(2, 4),
                topo_record(&[("tree", 3)], 6),
                grid_record(1, 2),
            ],
        );
        let merged = merge_emissions(vec![left, right], &names(2)).unwrap();
        assert_eq!(merged.records.len(), 3);
        assert_eq!(merged.records[0].meta.kind, WorkloadKind::Grid);
        assert_eq!(merged.records[1].meta.kind, WorkloadKind::Topo);
        let topo = &merged.records[1].report;
        assert_eq!(topo.executed(), 6);
        assert_eq!(topo.group("ring").unwrap().executed, 2);
        assert_eq!(topo.group("tree").unwrap().executed, 4);
        assert_eq!(merged.records[2].report.executed(), 2);
    }

    // Replay diagnostics through the real sweep path (ledger exhaustion,
    // record-kind mismatch) are covered in `crates/bench/tests/ledger.rs`.

    #[test]
    fn emission_serde_round_trip_is_byte_identical() {
        let mut fleet_report = SweepReport::default();
        fleet_report.absorb(
            "",
            9,
            None,
            &ScenarioOutcome {
                scenario: Scenario::pair(
                    1,
                    2,
                    rendezvous_graph::NodeId::new(0),
                    rendezvous_graph::NodeId::new(1),
                    0,
                    50,
                ),
                time: Some(31),
                cost: 64,
                crossings: 0,
                time_bound: Some(90),
                merges: 3,
            },
            None,
        );
        let e = emission(
            1,
            3,
            vec![
                grid_record(5, 15),
                record(WorkloadKind::Grid, 40, 12, fleet_report),
                topo_record(&[("ring", 4)], 12),
            ],
        );
        let text = serde_json::to_string_pretty(&e).unwrap();
        let back: ShardEmission = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), text);
        assert_eq!(back.shard, 1);
        assert_eq!(back.of, 3);
        assert_eq!(back.records.len(), 3);
        assert_eq!(back.records[1].report.solo().merges, 3);
        assert_eq!(back.records[2].report.group("ring").unwrap().executed, 4);
    }
}
