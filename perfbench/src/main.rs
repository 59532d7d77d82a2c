//! The repository's benchmark: end-to-end metrics of the release
//! `experiments` binary on four workloads, and a traced run that splits
//! each workload into the layers named after the workspace's crates.
//!
//! ```text
//! perfbench --bin PATH --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --bin PATH --make-reference
//! ```
//!
//! Run it through `perfbench/run.sh` from the repository root, which
//! builds both binaries first. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it
//! print every metric by name and unit. See `perfbench/README.md`.

mod loadgen;
mod oracle;
mod procstat;
mod spans;
mod traced;

use oracle::{Reference, PAPER_DOCS, PAPER_SELECTION, TOPO_DOCS};
use rendezvous_bench::serve::{ask, Query, Reply};
use rendezvous_runner::{Runner, Workload as _};
use rendezvous_store::{Store, StoreKey};
use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where the committed reference digests live, relative to the root.
const REFERENCE: &str = "perfbench/reference.json";
/// Working space for stores and address files, removed after the run.
const WORK: &str = ".bench_work";
/// Where the traced run writes its spans.
const TRACE_DIR: &str = ".bench_trace";
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest measured rounds (invocations or query batches) per run.
const MIN_ROUNDS: usize = 5;
/// Most query batches per `serve_topo` run, started evenly over the
/// run. Every query opens a connection, whose port then stays in
/// TIME_WAIT for a minute; the cap holds a run to 10,800 connections,
/// well inside the 28,000 ports of Linux's default ephemeral range,
/// however fast the host.
const SERVE_ROUNDS: usize = 24;
/// The percentile `query_tail_ms` reports: the highest of p50, p90 and
/// p99 with at least ten samples beyond it in a run's queries.
const QUERY_TAIL: f64 = 99.0;
/// Client threads and fabric workers: the box's two cores.
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperFull,
    StoreWarm,
    ServeTopo,
    FabricTopo,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "paper_full" => Workload::PaperFull,
            "store_warm" => Workload::StoreWarm,
            "serve_topo" => Workload::ServeTopo,
            "fabric_topo" => Workload::FabricTopo,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::PaperFull => "paper_full",
            Workload::StoreWarm => "store_warm",
            Workload::ServeTopo => "serve_topo",
            Workload::FabricTopo => "fabric_topo",
        }
    }

    /// The binary's arguments for one batch invocation.
    fn args(self, store: &Path) -> Vec<String> {
        let mut args: Vec<String> = match self {
            Workload::FabricTopo => vec!["x10".into(), "x11".into()],
            _ => PAPER_SELECTION.iter().map(|s| s.to_string()).collect(),
        };
        args.push("--json".into());
        match self {
            Workload::StoreWarm => {
                args.push("--store".into());
                args.push(store.display().to_string());
            }
            Workload::FabricTopo => {
                args.push("--fabric".into());
                args.push(format!("workers={CLIENTS}"));
            }
            _ => {}
        }
        args
    }

    fn docs(self) -> &'static [&'static str] {
        match self {
            Workload::FabricTopo => TOPO_DOCS,
            _ => PAPER_DOCS,
        }
    }
}

struct Args {
    bin: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    make_reference: bool,
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut bin = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut make_reference = false;
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .cloned()
                .unwrap_or_else(|| fail(&format!("{} needs a value", argv[i])))
        };
        match argv[i].as_str() {
            "--bin" => bin = Some(PathBuf::from(value())),
            "--workload" => {
                workload =
                    Some(Workload::parse(&value()).unwrap_or_else(|| fail("unknown workload")));
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--seed takes an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| fail("--seconds takes a number")),
                );
            }
            "--trace" => trace = value() == "1",
            "--make-reference" => {
                make_reference = true;
                i += 1;
                continue;
            }
            other => fail(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    Args {
        bin: bin.unwrap_or_else(|| fail("--bin is required")),
        workload: workload.unwrap_or(Workload::PaperFull),
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
        make_reference,
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of the middle half of `values` (the interquartile mean):
/// as robust as the median to a few odd rounds, but it does not snap to
/// one sample, so a metric read in 10 ms clock ticks keeps its digits.
fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let middle = &v[v.len() / 4..v.len() - v.len() / 4];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// The `p`th percentile (nearest rank) and how many samples lie beyond it.
fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((p / 100.0 * v.len() as f64).ceil() as usize).saturating_sub(1);
    (
        v.get(idx).copied().unwrap_or(0.0),
        v.len().saturating_sub(idx + 1),
    )
}

/// What one run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// An internal check (not an operation) failed.
    broken: Option<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn print(&self, args: &Args) {
        println!(
            "workload {} seed {} trace {}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        if let Some(why) = &self.broken {
            println!("check failed: {why}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    serde_json::json!({ "value": (*value), "unit": (*unit) }),
                )
            })
            .collect();
        let doc = serde_json::json!({
            "correct": (self.failed == 0 && self.broken.is_none()),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": (serde::Value::Object(metrics)),
        });
        println!(
            "{}",
            serde_json::to_string(&doc).expect("serializable result")
        );
    }
}

/// One finished invocation of the binary.
struct Invocation {
    wall_s: f64,
    cpu_s: f64,
    peak_mb: f64,
    stdout: String,
    stderr: String,
    success: bool,
}

fn spawn(bin: &Path, args: &[String], output: fn() -> Stdio) -> Child {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(output())
        .stderr(output())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot run {}: {e}", bin.display())))
}

/// Runs the binary to completion, timing it and accounting its tree.
fn invoke(bin: &Path, args: &[String]) -> Invocation {
    let cpu_before = procstat::reaped_children_ticks();
    let start = Instant::now();
    let mut child = spawn(bin, args, Stdio::piped);
    let sampler = procstat::RssSampler::start(child.id());
    let mut err_pipe = child.stderr.take().expect("piped stderr");
    let err = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = err_pipe.read_to_string(&mut s);
        s
    });
    let mut stdout = String::new();
    let _ = child
        .stdout
        .take()
        .expect("piped stdout")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = procstat::cpu_s(cpu_before, procstat::reaped_children_ticks());
    Invocation {
        wall_s,
        cpu_s,
        peak_mb: sampler.stop(),
        stdout,
        stderr: err.join().unwrap_or_default(),
        success: status.is_ok_and(|s| s.success()),
    }
}

fn load_reference() -> Reference {
    Reference::load(Path::new(REFERENCE)).unwrap_or_else(|e| fail(&e))
}

/// The batch workloads: one invocation per operation group.
fn run_batch(args: &Args, work: &Path) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut reference = Reference::default();
    let mut store = PathBuf::new();
    for k in 0..SETUPS {
        let start = Instant::now();
        reference = load_reference();
        store = work.join(format!("store-{k}"));
        // store_warm: fill a fresh store with one cold run. The others:
        // one warm-up invocation, so page cache and binary are hot.
        let warm = invoke(&args.bin, &w.args(&store));
        if !warm.success {
            fail(&format!("set-up run failed:\n{}", warm.stderr));
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let (mut walls, mut cpus, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut rates = Vec::new();
    let steal = procstat::steal_ticks();
    let start = Instant::now();
    while walls.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        let inv = invoke(&args.bin, &w.args(&store));
        let expected = w.docs();
        out.attempted += expected.len() as u64;
        let failed = if inv.success {
            reference.check(&inv.stdout, expected)
        } else {
            expected.iter().map(|s| s.to_string()).collect()
        };
        if !failed.is_empty() && !out.notes.iter().any(|n| n.starts_with("failed documents")) {
            out.notes
                .push(format!("failed documents: {}", failed.join(" ")));
        }
        out.failed += failed.len() as u64;
        walls.push(inv.wall_s);
        cpus.push(inv.cpu_s);
        peaks.push(inv.peak_mb);
        rates.push(expected.len() as f64 / inv.wall_s);
    }
    out.metric("wall_s", median(&walls), "s");
    out.metric("cpu_s", interquartile_mean(&cpus), "s");
    out.metric("peak_rss_mb", median(&peaks), "MiB");
    ok_share(&mut out);
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.notes.push(format!("set-ups: {setups:.3?}"));
    out.notes
        .push(format!("invocations {} (medians over them)", walls.len()));
    out.notes.push(procstat::steal_note(steal));
    out
}

/// `ok_share` = 1 − `failed_share`; the complement keeps the metric
/// nonzero on a clean run.
fn ok_share(out: &mut Outcome) {
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.notes
        .push(format!("failed_share = {failed_share} ratio"));
    out.metric("ok_share", 1.0 - failed_share, "ratio");
}

/// Expected answers of one serve batch, computed in-process without a
/// store: each distinct grid query's report (serialized) and token.
struct ServeReference {
    reports: Vec<String>,
    tokens: Vec<String>,
}

fn serve_reference(batch: &loadgen::Batch) -> ServeReference {
    let runner = Runner::sequential();
    let mut reports = Vec::new();
    let mut tokens = Vec::new();
    for g in &batch.grids {
        let report = rendezvous_bench::x10_topologies::sweep_single_spec(
            g.algorithm,
            g.spec.clone(),
            loadgen::L,
            loadgen::CAP,
            &runner,
        )
        .expect("cheap or fast");
        reports.push(serde_json::to_string(&report).expect("serializable report"));
        let context = rendezvous_bench::x10_topologies::serve_context(g.algorithm).expect("known");
        let (topo, _) = rendezvous_bench::x10_topologies::build_topo_grid(
            vec![g.spec.clone()],
            loadgen::L,
            loadgen::CAP,
        );
        tokens.push(
            StoreKey::new(context, &topo.meta(), "stepped")
                .token()
                .to_string(),
        );
    }
    ServeReference { reports, tokens }
}

fn query_of(batch: &loadgen::Batch, reference: &ServeReference, item: loadgen::Item) -> Query {
    match item {
        loadgen::Item::Grid(g) => Query::Grid {
            algorithm: batch.grids[g].algorithm.to_string(),
            spec: batch.grids[g].spec.clone(),
            l: loadgen::L,
            cap: loadgen::CAP,
        },
        loadgen::Item::Token(g) => Query::Token {
            token: reference.tokens[g].clone(),
        },
    }
}

/// True when `reply` is the correct, clean answer to `item`.
fn reply_ok(reference: &ServeReference, item: loadgen::Item, reply: &Reply) -> bool {
    let (loadgen::Item::Grid(g) | loadgen::Item::Token(g)) = item;
    match reply {
        Reply::Report { token, report, .. } => {
            report.clean()
                && *token == reference.tokens[g]
                && serde_json::to_string(report).is_ok_and(|r| r == reference.reports[g])
        }
        _ => false,
    }
}

fn cached(reply: &Reply) -> bool {
    matches!(reply, Reply::Report { cached: true, .. })
}

/// A `serve` child over a fresh store, with its published address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(bin: &Path, store: &Path, addr_file: &Path) -> Server {
        let args = vec![
            "serve".to_string(),
            "--store".into(),
            store.display().to_string(),
            "--addr-file".into(),
            addr_file.display().to_string(),
            // Each query is a sweep of about a millisecond. The parallel
            // runner spawns and joins threads for every one of them, and
            // on two shared cores its wall time followed the host's
            // steal; one thread per query keeps rounds comparable.
            "--sequential".into(),
        ];
        let mut server = Server {
            child: spawn(bin, &args, Stdio::null),
            addr: String::new(),
        };
        let start = Instant::now();
        while server.addr.is_empty() {
            match std::fs::read_to_string(addr_file) {
                Ok(addr) => server.addr = addr,
                Err(_) if start.elapsed() < Duration::from_secs(60) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {
                    drop(server);
                    fail("serve never published its address");
                }
            }
        }
        server
    }

    /// Asks the server to shut down and waits up to ten seconds for it;
    /// dropping it then reaps (or kills) the process.
    fn stop(mut self) {
        let _ = ask(&self.addr, &Query::Shutdown);
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Sends `items` from `CLIENTS` closed-loop threads, each query on its
/// own connection; returns `(latency ms, reply)` per item.
fn closed_loop(addr: &str, queries: &[Query]) -> Vec<(f64, Option<Reply>)> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, f64, Option<Reply>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(q) = queries.get(i) else { break };
                        let start = Instant::now();
                        let reply = ask(addr, q).ok();
                        mine.push((i, start.elapsed().as_secs_f64() * 1e3, reply));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    results.sort_by_key(|r| r.0);
    results.into_iter().map(|(_, ms, r)| (ms, r)).collect()
}

/// `serve_topo`: one `serve --sequential` child over a fresh store
/// answers one batch per round, rounds started evenly over the run;
/// round `b` sends batch `b` of the seed, so every round's grid queries
/// are new to the store. The reference answers of the next batch are
/// computed between rounds, untimed. `cpu_s` is the server's CPU over
/// the run's rounds divided by their number, since one round is only a
/// few dozen clock ticks.
fn run_serve(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server: Option<Server> = None;
    let mut next = None;
    for k in 0..SETUPS {
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let start = Instant::now();
        let batch = loadgen::batch(args.seed, 0);
        next = Some((serve_reference(&batch), batch));
        server = Some(Server::start(
            &args.bin,
            &work.join(format!("serve-store-{k}")),
            &work.join(format!("serve-{k}.addr")),
        ));
        setups.push(start.elapsed().as_secs_f64());
    }
    let server = server.expect("at least one set-up");
    let pid = server.child.id();
    let (mut walls, mut rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses, mut cpu) = (0u64, 0u64, 0.0f64);
    let steal = procstat::steal_ticks();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS
        || (round < SERVE_ROUNDS && start.elapsed().as_secs_f64() < args.seconds)
    {
        let (refs, batch) = next.take().unwrap_or_else(|| {
            let batch = loadgen::batch(args.seed, round as u64);
            (serve_reference(&batch), batch)
        });
        let grid_queries: Vec<Query> = batch
            .grid_items
            .iter()
            .map(|&it| query_of(&batch, &refs, it))
            .collect();
        let token_queries: Vec<Query> = batch
            .token_items
            .iter()
            .map(|&it| query_of(&batch, &refs, it))
            .collect();
        let due = args.seconds * round as f64 / SERVE_ROUNDS as f64;
        std::thread::sleep(Duration::from_secs_f64(
            (due - start.elapsed().as_secs_f64()).max(0.0),
        ));
        let cpu_before = procstat::process_ticks(pid);
        let t = Instant::now();
        let mut replies = closed_loop(&server.addr, &grid_queries);
        replies.extend(closed_loop(&server.addr, &token_queries));
        let wall = t.elapsed().as_secs_f64();
        cpu += procstat::cpu_s(cpu_before, procstat::process_ticks(pid));
        walls.push(wall);
        round += 1;
        rates.push(replies.len() as f64 / wall);
        let items = batch.grid_items.iter().chain(&batch.token_items);
        for (&item, (ms, reply)) in items.zip(&replies) {
            out.attempted += 1;
            latencies.push(*ms);
            match reply {
                Some(r) if reply_ok(&refs, item, r) => {
                    if matches!(item, loadgen::Item::Grid(_)) {
                        if cached(r) {
                            hits += 1;
                        } else {
                            misses += 1;
                        }
                    }
                }
                _ => out.failed += 1,
            }
        }
    }
    let peak = procstat::vm_hwm_kib(pid).unwrap_or(0) as f64 / 1024.0;
    server.stop();
    out.metric("wall_s", median(&walls), "s");
    out.metric("cpu_s", cpu / walls.len() as f64, "s");
    out.metric("peak_rss_mb", peak, "MiB");
    ok_share(&mut out);
    out.metric("ops_per_s", median(&rates), "1/s");
    out.metric("setup_s", median(&setups), "s");
    out.notes.push(format!("set-ups: {setups:.3?}"));
    // The query latencies are printed, not gated: every gated metric
    // must exist on every workload.
    let (tail, beyond) = percentile(&latencies, QUERY_TAIL);
    out.notes
        .push(format!("queries_per_s = {} 1/s", median(&rates)));
    out.notes
        .push(format!("query_p50_ms = {} ms", median(&latencies)));
    out.notes.push(format!(
        "query_tail_ms = {tail} ms (p{QUERY_TAIL} of {} queries, {beyond} beyond it)",
        latencies.len()
    ));
    out.notes.push(format!(
        "query batches {}; grid hits {hits}, misses {misses}",
        walls.len()
    ));
    out.notes.push(format!("round walls: {walls:.3?}"));
    out.notes.push(procstat::steal_note(steal));
    out
}

/// One traced pass's per-layer numbers.
type Layers = BTreeMap<String, f64>;

fn layer_metrics(
    lanes: &[Vec<spans::Span>],
    counters: &traced::Counters,
    wall_s: f64,
) -> Result<Layers, String> {
    let b = spans::breakdown(lanes);
    let attributed: u64 = b.layers.values().sum();
    if attributed + b.unattributed != b.roots {
        return Err(format!(
            "self times {attributed} ns + unattributed {} ns != lanes {} ns",
            b.unattributed, b.roots
        ));
    }
    let s = |layer: &str| b.layers[layer] as f64 / 1e9;
    let c = |name: &str| counters.get(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut m = Layers::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("graph.build_s", s("graph.build"));
    put("graph.builds", c("graph.builds"));
    put("explore.build_s", s("explore.build"));
    put("explore.builds", c("explore.builds"));
    put("core.plan_compile_s", s("core.plan_compile"));
    put("core.plans_compiled", c("core.plans_compiled"));
    put(
        "core.plan_cache_hit_ratio",
        ratio(
            c("core.plan_lookups") - c("core.plans_compiled"),
            c("core.plan_lookups"),
        ),
    );
    put("runner.sweep_s", s("runner.sweep"));
    put("runner.sweeps", c("runner.sweeps"));
    put("runner.scenarios", c("runner.scenarios"));
    put(
        "runner.scenarios_per_s",
        ratio(c("runner.scenarios"), s("runner.sweep")),
    );
    put(
        "runner.batched_share",
        ratio(c("runner.batched_scenarios"), c("runner.scenarios")),
    );
    put("lower-bounds.audit_s", s("lower-bounds.audit"));
    put("lower-bounds.audits", c("lower-bounds.audits"));
    put("lower-bounds.simulations", c("lower-bounds.simulations"));
    put("store.key_s", s("store.key"));
    put("store.load_s", s("store.load"));
    put("store.loads", c("store.loads"));
    put("store.save_s", s("store.save"));
    put("store.saves", c("store.saves"));
    put("store.hit_ratio", ratio(c("store.hits"), c("store.loads")));
    put("store.bytes_read", c("store.bytes_read"));
    put("store.bytes_written", c("store.bytes_written"));
    put("fabric.lease_wait_s", s("fabric.lease_wait"));
    put("fabric.submit_s", s("fabric.submit"));
    put("fabric.finish_s", s("fabric.finish"));
    put("fabric.wire_s", s("fabric.wire"));
    put("fabric.leases", c("fabric.leases"));
    put("fabric.reassigned", c("fabric.reassigned"));
    put(
        "fabric.useful_lease_ratio",
        ratio(
            c("fabric.leases") - c("fabric.duplicates"),
            c("fabric.leases"),
        ),
    );
    put("fabric.wire_bytes", c("fabric.wire_bytes"));
    put("bench.grid_build_s", s("bench.grid_build"));
    put("bench.serialize_s", s("bench.serialize"));
    put("serve.hits", c("serve.hits"));
    put("serve.misses", c("serve.misses"));
    put("unattributed_s", b.unattributed as f64 / 1e9);
    put("traced.wall_s", wall_s);
    put("traced.lanes_s", b.roots as f64 / 1e9);
    Ok(m)
}

/// Units of the per-layer metrics, by suffix.
fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms_p50") {
        "ms"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("ratio") || name.ends_with("share") {
        "ratio"
    } else if name.ends_with("bytes_read")
        || name.ends_with("bytes_written")
        || name.ends_with("wire_bytes")
    {
        "bytes"
    } else {
        "count"
    }
}

fn run_traced(args: &Args, work: &Path) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let reference = load_reference();
    let store_dir = work.join("traced-store");
    if w == Workload::StoreWarm {
        let fill = invoke(&args.bin, &w.args(&store_dir));
        if !fill.success {
            fail(&format!("set-up run failed:\n{}", fill.stderr));
        }
    }
    let store = matches!(w, Workload::StoreWarm | Workload::ServeTopo).then(|| {
        Store::open(&store_dir).unwrap_or_else(|e| fail(&format!("cannot open store: {e}")))
    });
    let mut passes: Vec<Layers> = Vec::new();
    let mut serve_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut last_lanes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let counters = traced::Counters::default();
        let ctx = traced::Ctx {
            runner: if w == Workload::ServeTopo {
                Runner::sequential()
            } else {
                Runner::parallel()
            },
            store: store.as_ref(),
            counters: &counters,
        };
        let serve_batch = (w == Workload::ServeTopo).then(|| {
            let batch = loadgen::batch(args.seed, passes.len() as u64);
            let refs = serve_reference(&batch);
            (batch, refs)
        });
        let origin = Instant::now();
        spans::install(0, origin);
        let mut lanes = Vec::new();
        let stdout = match w {
            Workload::PaperFull | Workload::StoreWarm => {
                Some(spans::span("run", || ctx.paper_full()))
            }
            Workload::FabricTopo => {
                let (stdout, workers) = ctx.fabric_topo(CLIENTS, origin);
                lanes = workers;
                Some(stdout)
            }
            Workload::ServeTopo => spans::span("run", || {
                let (batch, refs) = serve_batch.as_ref().expect("serve batch");
                let items = batch.grid_items.iter().chain(&batch.token_items);
                for &item in items {
                    let query = query_of(batch, refs, item);
                    let mut frame = Vec::new();
                    rendezvous_fabric::wire::write_json_frame(&mut frame, &query, "a query")
                        .expect("serializable query");
                    let t = Instant::now();
                    let (reply, _) = spans::span("serve.query", || ctx.serve_answer(&frame));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let kind = match item {
                        loadgen::Item::Token(_) => "token",
                        _ if cached(&reply) => "hit",
                        _ => "miss",
                    };
                    serve_ms.entry(kind).or_default().push(ms);
                    out.attempted += 1;
                    match kind {
                        "hit" => counters.add("serve.hits", 1.0),
                        "miss" => counters.add("serve.misses", 1.0),
                        _ => {}
                    }
                    if !reply_ok(refs, item, &reply) {
                        out.failed += 1;
                    }
                }
                None
            }),
        };
        let wall_s = origin.elapsed().as_secs_f64();
        lanes.insert(0, spans::finish());
        if let Some(stdout) = stdout {
            let failed = reference.check(&stdout, w.docs());
            out.attempted += w.docs().len() as u64;
            out.failed += failed.len() as u64;
            if !failed.is_empty() && !out.notes.iter().any(|n| n.starts_with("failed documents")) {
                out.notes
                    .push(format!("failed documents: {}", failed.join(" ")));
            }
        }
        match layer_metrics(&lanes, &counters, wall_s) {
            Ok(m) => passes.push(m),
            Err(e) => {
                out.broken = Some(e);
                break;
            }
        }
        last_lanes = lanes;
    }
    let _ = std::fs::create_dir_all(TRACE_DIR);
    let trace_file = Path::new(TRACE_DIR).join(format!("{}.jsonl", w.name()));
    let _ = std::fs::write(&trace_file, spans::to_json_lines(&last_lanes));
    // Every layer metric comes from one pass, the one with the median
    // traced time, so its self times still add up to its lane time.
    passes.sort_by(|a, b| a["traced.lanes_s"].total_cmp(&b["traced.lanes_s"]));
    if let Some(pass) = passes.get(passes.len() / 2) {
        for (name, value) in pass {
            out.metric(name, *value, unit_of(name));
        }
    }
    let p50 = |kind: &str| serve_ms.get(kind).map_or(0.0, |v| median(v));
    out.metric("serve.hit_ms_p50", p50("hit"), "ms");
    out.metric("serve.miss_ms_p50", p50("miss"), "ms");
    out.metric("serve.token_ms_p50", p50("token"), "ms");
    out.notes.push(format!(
        "traced passes {} (layer metrics from the median pass; serve latencies over all); spans of the last pass in {}; lower-bounds.simulations is computed (label pairs x ordered start pairs)",
        passes.len(),
        trace_file.display()
    ));
    out
}

fn make_reference(args: &Args) {
    let inv = invoke(&args.bin, &Workload::PaperFull.args(Path::new("")));
    if !inv.success {
        fail(&format!("reference run failed:\n{}", inv.stderr));
    }
    let reference = Reference::from_output(&inv.stdout);
    let source = format!(
        "experiments {} --json (direct run)",
        PAPER_SELECTION.join(" ")
    );
    std::fs::write(REFERENCE, reference.to_json(&source)).unwrap_or_else(|e| fail(&e.to_string()));
    eprintln!("wrote {REFERENCE}");
}

fn main() {
    let args = parse_args();
    if !args.bin.is_file() {
        fail(&format!("no binary at {}", args.bin.display()));
    }
    if args.make_reference {
        make_reference(&args);
        return;
    }
    let work = Path::new(WORK).join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", work.display())));
    let outcome = if args.trace {
        run_traced(&args, &work)
    } else if args.workload == Workload::ServeTopo {
        run_serve(&args, &work)
    } else {
        run_batch(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK);
    outcome.print(&args);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentiles_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), (990.0, 10));
        assert_eq!(percentile(&v, 50.0), (500.0, 500));
        // The fewest queries a run holds keep ten beyond the tail, and
        // the next rung (p99.9) would not.
        let n = MIN_ROUNDS * (loadgen::DISTINCT + loadgen::REPEATS + loadgen::TOKENS);
        let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert!(percentile(&v, QUERY_TAIL).1 >= 10);
        assert!(percentile(&v, 99.9).1 < 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0, 0.0, 2.0, 3.0, 1.0]), 2.0);
    }
}
