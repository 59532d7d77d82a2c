//! Experiment X3 — Proposition 2.3 and Corollary 2.1:
//! `FastWithRelabeling(w)` has cost `O(wE)` (flat in `L`) and time
//! `≤ (4t+5)E ∈ O(L^{1/w} E)` for constant `w`.
//!
//! Two parts: an analytic sweep of `t` and the bounds over large `L`
//! (verifying the `L^{1/w}` scaling), and an execution sweep on a small
//! ring checking measured ≤ bound.

use crate::common::{all_label_pairs, measure_worst, ring_setup, standard_delays};
use crate::session::Session;
use rendezvous_core::{
    corollary_t_prime, smallest_t, FastWithRelabeling, LabelSpace, RendezvousAlgorithm,
};
use serde::Serialize;

/// Analytic row: the bound structure for one `(L, w)`.
#[derive(Debug, Clone, Serialize)]
pub struct BoundRow {
    /// Label-space size.
    pub l: u64,
    /// Relabeling weight.
    pub w: u64,
    /// `t = min{t : C(t,w) ≥ L}`.
    pub t: u64,
    /// Proposition 2.3 time bound `(4t+5)E` in units of `E`.
    pub time_bound_per_e: u64,
    /// Corollary 2.1 envelope `(4⌈w·L^{1/w}⌉+5)` in units of `E`.
    pub corollary_per_e: u64,
    /// Provable cost bound `(4w+2)` in units of `E`.
    pub cost_bound_per_e: u64,
}

/// Execution row: measured versus bound for one `(L, w)` on a ring.
#[derive(Debug, Clone, Serialize)]
pub struct ExecRow {
    /// Ring size.
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// Relabeling weight.
    pub w: u64,
    /// Measured worst time.
    pub time: u64,
    /// Proposition 2.3 bound.
    pub time_bound: u64,
    /// Measured worst cost.
    pub cost: u64,
    /// Provable cost bound `(4w+2)E`.
    pub cost_bound: u64,
}

/// Analytic sweep (no simulation; arbitrary `L`).
#[must_use]
pub fn run_bounds(ls: &[u64], ws: &[u64]) -> Vec<BoundRow> {
    let mut rows = Vec::new();
    for &l in ls {
        for &w in ws {
            if w > l {
                continue;
            }
            let t = smallest_t(w, l);
            let cor = 4 * corollary_t_prime(w, l) + 5;
            rows.push(BoundRow {
                l,
                w,
                t,
                time_bound_per_e: 4 * t + 5,
                corollary_per_e: cor,
                cost_bound_per_e: 4 * w + 2,
            });
        }
    }
    rows
}

/// Execution sweep on an oriented ring, exhaustive over label pairs.
#[must_use]
pub fn run_exec(n: usize, l: u64, ws: &[u64], session: &mut Session) -> Vec<ExecRow> {
    let (g, ex) = ring_setup(n);
    let e = (n - 1) as u64;
    let delays = standard_delays(e);
    let pairs = all_label_pairs(l);
    ws.iter()
        .filter(|&&w| w <= l)
        .map(|&w| {
            let alg = FastWithRelabeling::new(
                g.clone(),
                ex.clone(),
                LabelSpace::new(l).expect("l >= 2"),
                w,
            )
            .expect("valid weight");
            let m = measure_worst(&alg, &pairs, &delays, 4 * alg.time_bound(), session);
            ExecRow {
                n,
                l,
                w,
                time: m.time,
                time_bound: alg.time_bound(),
                cost: m.cost,
                cost_bound: alg.cost_bound(),
            }
        })
        .collect()
}

/// Renders the analytic table.
#[must_use]
pub fn render_bounds(rows: &[BoundRow]) -> String {
    let header = [
        "L",
        "w",
        "t",
        "time/(E) = 4t+5",
        "corollary 4wL^(1/w)+5",
        "cost/(E) = 4w+2",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.l.to_string(),
                r.w.to_string(),
                r.t.to_string(),
                r.time_bound_per_e.to_string(),
                r.corollary_per_e.to_string(),
                r.cost_bound_per_e.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

/// Renders the execution table.
#[must_use]
pub fn render_exec(rows: &[ExecRow]) -> String {
    let header = [
        "n",
        "L",
        "w",
        "time",
        "bound (4t+5)E",
        "cost",
        "bound (4w+2)E",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.w.to_string(),
                r.time.to_string(),
                r.time_bound.to_string(),
                r.cost.to_string(),
                r.cost_bound.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::Runner;

    #[test]
    fn x3_bounds_scale_as_l_to_one_over_w() {
        let rows = run_bounds(&[64, 4096], &[1, 2, 3]);
        let at = |l: u64, w: u64| {
            rows.iter()
                .find(|r| r.l == l && r.w == w)
                .unwrap()
                .time_bound_per_e
        };
        // w=1: time ~ L (64 -> 4096 is 64x).
        assert!(at(4096, 1) > 40 * at(64, 1) / 2);
        // w=2: time ~ sqrt(L) (64x more labels -> ~8x more time).
        let g2 = at(4096, 2) as f64 / at(64, 2) as f64;
        assert!(g2 < 12.0 && g2 > 4.0, "sqrt scaling, got {g2}");
        // proposition bound always within the corollary envelope
        for r in &rows {
            assert!(r.time_bound_per_e <= r.corollary_per_e);
        }
    }

    #[test]
    fn x3_exec_within_bounds() {
        let rows = run_exec(
            6,
            8,
            &[1, 2, 3],
            &mut Session::direct(Runner::with_threads(4)),
        );
        for r in &rows {
            assert!(r.time <= r.time_bound);
            assert!(r.cost <= r.cost_bound);
        }
        // cost is flat-ish in w... increasing w increases the cost cap:
        assert!(rows[0].cost_bound < rows[2].cost_bound);
    }
}
