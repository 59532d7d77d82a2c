//! Experiment X5 — Theorem 3.1, numerically: any algorithm of cost
//! `E + o(E)` needs time `Ω(EL)`.
//!
//! We run the paper's own construction (trim → eager tournament → Rédei
//! path → execution chain) against `CheapSimultaneous` (cost exactly ≤ E,
//! so `φ = 0`) and report, per `L`: the Fact 3.8 witness
//! `(⌊L/2⌋−1)(F−3φ)/2`, the measured final chain time, and the paper's
//! matching upper bound — the time really does grow linearly in `L`.
//!
//! Each `L`'s trim is one recorded sweep ([`trim_recorded`]), so the
//! audit's pair executions ride every execution mode — preview, shards,
//! fabric leases, the store, telemetry — like any other sweep; the
//! tournament then runs on the trimmed data.

use crate::common::{ring_setup, trim_recorded};
use crate::session::Session;
use rendezvous_core::{CheapSimultaneous, LabelSpace, RendezvousAlgorithm};
use rendezvous_lower_bounds::eager_chain_audit_of;
use serde::Serialize;

/// One row of the X5 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// `F = ⌈E/2⌉`.
    pub f: u64,
    /// Measured cost slack `φ` (0 for the cheap variant).
    pub phi: u64,
    /// Number of heavy-side agents in the tournament.
    pub heavy: usize,
    /// Fact 3.8 witness `(⌊L/2⌋−1)(F−3φ)/2`.
    pub witness: u64,
    /// Measured final chain execution time.
    pub chain_time: u64,
    /// Fact 3.7: chain strictly increasing.
    pub increasing: bool,
    /// Algorithm's own worst-case time bound `(L−1)E` for context.
    pub upper_bound: u64,
}

/// Runs the audit for each `L` on an `n`-ring, one trim sweep per `L`.
/// A session whose sweeps return no full reports (a dry run, a shard, a
/// fabric worker) records the sweeps and returns no rows.
///
/// # Panics
///
/// Panics if the audit fails (it cannot, for `CheapSimultaneous`).
#[must_use]
pub fn run(n: usize, ls: &[u64], session: &mut Session) -> Vec<Row> {
    let mut rows = Vec::new();
    for &l in ls {
        let (g, ex) = ring_setup(n);
        let alg = CheapSimultaneous::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
        let horizon = 20 * alg.time_bound();
        let Some(trimmed) = trim_recorded(&alg, horizon, session) else {
            continue;
        };
        let report = eager_chain_audit_of(&alg, horizon, trimmed).expect("audit must succeed");
        rows.push(Row {
            n,
            l,
            f: report.f,
            phi: report.phi,
            heavy: report.heavy.len(),
            witness: report.witness,
            chain_time: report.chain_final_time(),
            increasing: report.strictly_increasing,
            upper_bound: alg.time_bound(),
        });
    }
    rows
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "n",
        "L",
        "F",
        "phi",
        "heavy",
        "witness (L/2-1)(F-3phi)/2",
        "measured chain time",
        "increasing",
        "upper bound (L-1)E",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.f.to_string(),
                r.phi.to_string(),
                r.heavy.to_string(),
                r.witness.to_string(),
                r.chain_time.to_string(),
                r.increasing.to_string(),
                r.upper_bound.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ExecPlan;
    use rendezvous_runner::{Runner, Workload};

    /// `--plan`, `--shard` and fabric workers see partial folds or none,
    /// so they print no rows — but they still walk the audits' trim
    /// sweeps, one per `L`, keeping sweep positions aligned with a
    /// direct run's. A shard records each sweep's checkpoint.
    #[test]
    fn audits_record_their_trims_in_sessions_that_print_no_rows() {
        let mut dry = Session::new(Runner::sequential(), ExecPlan::DryRun);
        assert!(run(12, &[4, 6], &mut dry).is_empty());
        assert!(crate::x6_lb_cost::run(12, &[4], &mut dry).is_empty());

        let mut shard = Session::new(Runner::sequential(), ExecPlan::shard(0, 2));
        assert!(!shard.emits_rows());
        assert!(run(12, &[4, 6], &mut shard).is_empty());
        assert!(crate::x6_lb_cost::run(12, &[4], &mut shard).is_empty());
        let records = shard.finish().expect("a shard plan returns its records");
        let (g, ex) = ring_setup(12);
        let space = |l| LabelSpace::new(l).unwrap();
        let cheap = |l| CheapSimultaneous::new(g.clone(), ex.clone(), space(l));
        let fast = rendezvous_core::Fast::new(g.clone(), ex.clone(), space(4));
        let grids = [
            rendezvous_lower_bounds::trim_grid(&cheap(4), 20 * cheap(4).time_bound()),
            rendezvous_lower_bounds::trim_grid(&cheap(6), 20 * cheap(6).time_bound()),
            rendezvous_lower_bounds::trim_grid(&fast, 4 * fast.time_bound()),
        ];
        assert_eq!(records.len(), grids.len());
        for (i, (record, grid)) in records.iter().zip(grids).enumerate() {
            let grid = grid.unwrap();
            assert_eq!(record.sweep, i);
            assert_eq!(record.meta, grid.meta());
            assert_eq!((record.lo, record.hi), grid.shard(0, 2));
            assert_eq!(record.report.executed(), record.hi - record.lo);
        }
    }

    #[test]
    fn x5_witness_grows_linearly_and_holds() {
        let rows = run(
            12,
            &[4, 8, 12],
            &mut Session::direct(Runner::with_threads(3)),
        );
        for r in &rows {
            assert_eq!(r.phi, 0);
            assert!(r.increasing, "Fact 3.7 violated at L={}", r.l);
            assert!(
                r.chain_time >= r.witness,
                "L={}: chain {} < witness {}",
                r.l,
                r.chain_time,
                r.witness
            );
            assert!(r.chain_time <= r.upper_bound);
        }
        // Linear growth of the witness in L (the Ω(EL) shape).
        assert!(rows[2].witness >= 2 * rows[0].witness);
        assert!(rows[2].chain_time > rows[0].chain_time);
    }
}
