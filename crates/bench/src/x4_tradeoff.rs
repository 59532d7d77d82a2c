//! Experiment X4 — the paper's central message as one figure: the
//! time/cost tradeoff frontier.
//!
//! All algorithms on one `(E, L)` instance, each contributing a
//! `(time, cost)` point (both measured and paper-bound). Expected shape:
//! `Cheap` anchors the low-cost/high-time corner, `Fast` the low-time/
//! high-cost corner, and `FastWithRelabeling(w)` sweeps monotonically
//! between them as `w` grows.

use crate::common::{measure_worst, ring_setup, standard_delays, standard_label_pairs};
use crate::session::Session;
use rendezvous_core::{
    Cheap, CheapSimultaneous, Fast, FastWithRelabeling, LabelSpace, RendezvousAlgorithm,
};
use serde::Serialize;

/// One point of the frontier.
#[derive(Debug, Clone, Serialize)]
pub struct Point {
    /// Algorithm name (with parameter, e.g. `fwr(w=2)`).
    pub algorithm: String,
    /// Measured worst time.
    pub time: u64,
    /// Paper time bound.
    pub time_bound: u64,
    /// Measured worst cost.
    pub cost: u64,
    /// Paper cost bound.
    pub cost_bound: u64,
}

/// Runs every algorithm on an `n`-ring with label space `L`.
#[must_use]
pub fn run(n: usize, l: u64, ws: &[u64], session: &mut Session) -> Vec<Point> {
    let (g, ex) = ring_setup(n);
    let e = (n - 1) as u64;
    let space = LabelSpace::new(l).expect("l >= 2");
    let pairs = standard_label_pairs(l);
    let delays = standard_delays(e);
    let mut points = Vec::new();

    let sim = CheapSimultaneous::new(g.clone(), ex.clone(), space);
    let m = measure_worst(&sim, &pairs, &[0], 4 * sim.time_bound() + e, session);
    points.push(Point {
        algorithm: "cheap-simultaneous".into(),
        time: m.time,
        time_bound: sim.time_bound(),
        cost: m.cost,
        cost_bound: sim.cost_bound(),
    });

    let cheap = Cheap::new(g.clone(), ex.clone(), space);
    let m = measure_worst(&cheap, &pairs, &delays, 4 * cheap.time_bound(), session);
    points.push(Point {
        algorithm: "cheap".into(),
        time: m.time,
        time_bound: cheap.time_bound(),
        cost: m.cost,
        cost_bound: cheap.cost_bound(),
    });

    for &w in ws {
        if w > l {
            continue;
        }
        let alg = FastWithRelabeling::new(g.clone(), ex.clone(), space, w).expect("valid w");
        let m = measure_worst(&alg, &pairs, &delays, 4 * alg.time_bound(), session);
        points.push(Point {
            algorithm: format!("fwr(w={w})"),
            time: m.time,
            time_bound: alg.time_bound(),
            cost: m.cost,
            cost_bound: alg.cost_bound(),
        });
    }

    let fast = Fast::new(g, ex, space);
    let m = measure_worst(&fast, &pairs, &delays, 4 * fast.time_bound(), session);
    points.push(Point {
        algorithm: "fast".into(),
        time: m.time,
        time_bound: fast.time_bound(),
        cost: m.cost,
        cost_bound: fast.cost_bound(),
    });

    points
}

/// Renders the frontier as a table ordered from cheap to fast.
#[must_use]
pub fn render(points: &[Point]) -> String {
    let header = ["algorithm", "time", "time bound", "cost", "cost bound"];
    let body = points
        .iter()
        .map(|p| {
            vec![
                p.algorithm.clone(),
                p.time.to_string(),
                p.time_bound.to_string(),
                p.cost.to_string(),
                p.cost_bound.to_string(),
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
    fn x4_frontier_shape() {
        let points = run(
            8,
            32,
            &[2, 3],
            &mut Session::direct(Runner::with_threads(4)),
        );
        let by_name = |n: &str| points.iter().find(|p| p.algorithm == n).unwrap();
        let cheap = by_name("cheap");
        let fast = by_name("fast");
        let fwr2 = by_name("fwr(w=2)");
        // Frontier ends: Fast strictly faster (bound-wise), Cheap strictly
        // cheaper.
        assert!(fast.time_bound < cheap.time_bound);
        assert!(cheap.cost_bound < fast.cost_bound);
        // The interior point sits between the ends on both axes.
        assert!(fwr2.time_bound < cheap.time_bound);
        assert!(fwr2.cost_bound < fast.cost_bound);
        // Measured values respect the bounds everywhere.
        for p in &points {
            assert!(
                p.time <= p.time_bound,
                "{}: {} > {}",
                p.algorithm,
                p.time,
                p.time_bound
            );
            assert!(p.cost <= p.cost_bound);
        }
    }
}
