//! In-memory span recorder for the traced run.
//!
//! Every thread that does traced work (a *lane*) installs its own
//! recorder; [`span`] records one interval — name, start, end, parent —
//! around a closure, and nests naturally because the recorder keeps a
//! stack of open spans. Nothing is written while the run is measured:
//! [`finish`] hands the lane's spans back once, at the end.
//!
//! A span's *self time* is its duration minus its children's. Spans
//! named in [`LAYERS`] attribute their self time to that layer; every
//! other span (the run's root, one span per experiment or query) is
//! structure, and its self time is `unattributed`. Times are integer
//! nanoseconds, so layer self times plus `unattributed` equal the total
//! root duration exactly.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// The layer spans, each named after the crate whose public function it
/// times; the per-layer metric is the name plus `_s`.
pub const LAYERS: &[&str] = &[
    "graph.build",
    "explore.build",
    "core.plan_compile",
    "runner.sweep",
    "lower-bounds.audit",
    "store.key",
    "store.load",
    "store.save",
    "fabric.lease_wait",
    "fabric.submit",
    "fabric.finish",
    "fabric.wire",
    "bench.grid_build",
    "bench.serialize",
];

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer or structure name.
    pub name: &'static str,
    /// The thread that recorded it.
    pub lane: usize,
    /// Nanoseconds since the run's origin.
    pub start: u64,
    /// Nanoseconds since the run's origin.
    pub end: u64,
    /// Index of the enclosing span in the same lane's list.
    pub parent: Option<usize>,
}

struct Recorder {
    origin: Instant,
    lane: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn now_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording on this thread as lane `lane`, timing from `origin`.
pub fn install(lane: usize, origin: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Stops recording on this thread and returns its spans (empty when
/// none was installed).
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` inside a span named `name`. Without an installed recorder
/// this is just `f()`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.spans.len();
            let start = now_ns(rec.origin);
            rec.spans.push(Span {
                name,
                lane: rec.lane,
                start,
                end: start,
                parent: rec.open.last().copied(),
            });
            rec.open.push(id);
            id
        })
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end = now_ns(rec.origin);
                rec.open.pop();
            }
        });
    }
    out
}

/// Self times summed per layer, plus the rest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Layer name → summed self nanoseconds (every [`LAYERS`] entry).
    pub layers: BTreeMap<&'static str, u64>,
    /// Self nanoseconds of every non-layer span.
    pub unattributed: u64,
    /// Summed duration of the lanes' root spans.
    pub roots: u64,
}

/// Splits `lanes` (each one thread's spans, parents indexing into the
/// same list) into per-layer self times.
#[must_use]
pub fn breakdown(lanes: &[Vec<Span>]) -> Breakdown {
    let mut out = Breakdown {
        layers: LAYERS.iter().map(|&l| (l, 0)).collect(),
        ..Breakdown::default()
    };
    for spans in lanes {
        let mut children = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        for (s, kids) in spans.iter().zip(children) {
            let own = (s.end - s.start) - kids;
            match out.layers.get_mut(s.name) {
                Some(total) => *total += own,
                None => out.unattributed += own,
            }
            if s.parent.is_none() {
                out.roots += s.end - s.start;
            }
        }
    }
    out
}

/// The spans as JSON lines, for the trace file written after the run.
#[must_use]
pub fn to_json_lines(lanes: &[Vec<Span>]) -> String {
    let mut out = String::new();
    for s in lanes.iter().flatten() {
        let line = serde_json::json!({
            "name": (s.name),
            "lane": (s.lane),
            "start_ns": (s.start),
            "end_ns": (s.end),
            "parent": (s.parent),
        });
        out.push_str(&serde_json::to_string(&line).expect("serializable span"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            lane: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_times_plus_unattributed_equal_the_root() {
        let lane = vec![
            at("run", 0, 100, None),
            at("x1", 5, 60, Some(0)),
            at("graph.build", 6, 10, Some(1)),
            at("runner.sweep", 12, 50, Some(1)),
            at("core.plan_compile", 13, 20, Some(3)),
            at("bench.serialize", 70, 90, Some(0)),
        ];
        let b = breakdown(&[lane]);
        assert_eq!(b.layers["graph.build"], 4);
        assert_eq!(b.layers["core.plan_compile"], 7);
        assert_eq!(b.layers["runner.sweep"], 38 - 7);
        assert_eq!(b.layers["bench.serialize"], 20);
        // run: 100 - 55 - 20 = 25; x1: 55 - 4 - 38 = 13.
        assert_eq!(b.unattributed, 25 + 13);
        assert_eq!(b.layers.values().sum::<u64>() + b.unattributed, b.roots);
        assert_eq!(b.roots, 100);
    }

    #[test]
    fn recorded_spans_nest_and_add_up_across_lanes() {
        let origin = Instant::now();
        let worker = std::thread::spawn(move || {
            install(1, origin);
            span("worker", || {
                span("fabric.submit", || std::hint::black_box(3))
            });
            finish()
        });
        install(0, origin);
        span("run", || {
            span("graph.build", || span("explore.build", || ()));
            span("x", || span("runner.sweep", || ()));
        });
        let main = finish();
        let lanes = vec![main, worker.join().expect("worker lane")];
        assert_eq!(lanes[0].len(), 5);
        assert_eq!(lanes[0][2].parent, Some(1));
        assert_eq!(lanes[0][4].parent, Some(3));
        assert_eq!(lanes[1][1].parent, Some(0));
        let b = breakdown(&lanes);
        assert_eq!(b.layers.values().sum::<u64>() + b.unattributed, b.roots);
        // Without a recorder nothing is kept.
        assert_eq!(span("run", || 7), 7);
        assert!(finish().is_empty());
    }
}
