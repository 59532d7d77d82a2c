//! Regenerates the paper's claims as markdown tables (see `DESIGN.md` §4).
//!
//! Usage:
//!
//! ```text
//! experiments [all|x1|x2|...|x11]... [--topo] [--quick] [--json]
//!             [--sequential|--parallel] [--engine stepped|batched]
//!             [--progress] [--telemetry FILE] [--store DIR]
//!             [--plan | --shard i/m | --merge-shards FILE...
//!              | --fabric workers=N [--fabric-checkpoint FILE] [--fabric-kill-one]]
//! experiments serve --store DIR [--addr-file FILE]
//!             [--engine stepped|batched] [--sequential]
//! experiments query (--addr ADDR | --addr-file FILE)
//!             (--token TOKEN | --grid ALGO --spec JSON --l N --cap N | --shutdown)
//! experiments query --direct --store DIR
//!             (--token TOKEN | --grid ALGO --spec JSON --l N --cap N)
//! ```
//!
//! `--quick` shrinks the sweeps (used by CI); the default parameters are
//! the ones recorded in `EXPERIMENTS.md`. `--json` emits the raw rows as
//! JSON (one document per experiment) instead of markdown tables, for
//! plotting pipelines — section headings go to stderr in that mode, so
//! stdout stays a clean JSON stream (`experiments all --json | jq` works).
//!
//! Every experiment executes through the shared `rendezvous-runner`
//! engine. `--parallel` (the default) uses all hardware threads;
//! `--sequential` forces one thread. The two modes produce **identical**
//! tables — the runner folds outcomes in scenario order either way — so
//! diffing the outputs is a quick end-to-end determinism check:
//!
//! ```text
//! diff <(experiments all --quick --sequential) <(experiments all --quick --parallel)
//! ```
//!
//! `--engine batched` swaps the stepped simulator for the delay-batched
//! trajectory solver (`BatchExecutor`) in every pair sweep — same knob
//! shape: the outputs are **byte-identical** to `--engine stepped` (the
//! default), only faster, and CI diffs the two on every push.
//!
//! The command line is parsed once into one execution mode — direct,
//! `--plan`, `--shard`, `--merge-shards`, `--fabric` or the internal
//! `--fabric-worker` — and at most one may be given. The mode becomes
//! the run's [`ExecPlan`], which travels with the runner, engine, store
//! and telemetry sink in one explicit [`Session`] through every sweep.
//!
//! # Sharded sweeps (multi-process, multi-host)
//!
//! `--shard i/m` executes only shard `i` of every sweep and prints,
//! instead of tables, one fabric checkpoint line per sweep whose shard
//! range is non-empty — the `--fabric-checkpoint` format below.
//! `--merge-shards` folds the `m` files through the fabric's resume
//! checks (matching fingerprints, no overlap, full coverage) and renders
//! the ordinary output from the merged stats — byte-identical to a
//! single-process run with the same selection and flags:
//!
//! ```text
//! for i in 0 1 2; do experiments x1 --json --shard $i/3 > s$i.jsonl; done
//! experiments x1 --json --merge-shards s0.jsonl s1.jsonl s2.jsonl   # == experiments x1 --json
//! ```
//!
//! The shard runs may execute on different hosts; for several processes
//! on one host, `--fabric workers=N` below does the whole loop in one
//! invocation. Because the formats are one, shard files concatenated
//! into a `--fabric-checkpoint` file seed a fabric run that executes
//! only the ranges they miss.
//!
//! # Observability
//!
//! `--progress` renders a live pieces/scenarios/rate/ETA line to stderr
//! while sweeps execute (stdout untouched); `--telemetry FILE` writes a
//! deterministic `TELEMETRY.json` sidecar after the run — exact
//! counters in sorted sections, wall-clock data quarantined under
//! `timing`. Both compose with `--fabric workers=N`: the driver draws its
//! display from the coordinator it runs (registered sweep sizes,
//! completed ranges), and each worker hands its telemetry snapshot to
//! the coordinator in its final frame, so the driver writes one merged
//! sidecar. Neither flag may change the experiment output:
//! CI byte-diffs telemetry-on against telemetry-off on every push.
//! `--telemetry` with `--merge-shards` is rejected — a merge replays
//! recorded sweeps and executes nothing, so its sidecar would be
//! vacuously empty.
//!
//! # Distributed fabric
//!
//! `--fabric workers=N` runs the selection on the coordinator/worker
//! fabric (`rendezvous-fabric`): the driver starts a loopback
//! coordinator, re-execs itself `N` times with the internal
//! `--fabric-worker ADDR` flag, and workers *pull* small lease-sized
//! ranges of every sweep instead of owning fixed stride shards — so
//! uneven pieces balance themselves, and a worker that dies mid-piece
//! (heartbeat silence or a dropped connection) has its in-flight ranges
//! requeued to the survivors. The merged output is byte-identical to
//! the direct run; CI diffs it — with and without a SIGKILL'd worker —
//! on every push. `--fabric-checkpoint FILE` appends one JSONL record
//! per completed range, and a rerun against the same file re-executes
//! zero completed ranges (`--fabric-kill-one` is the chaos switch CI
//! uses: worker 0 SIGKILLs itself after its first completed lease).
//!
//! `--plan` is the zero-cost preview: one line per sweep — context,
//! canonical workload fingerprint, piece count (the fabric's chunking
//! input) — with no scenario executed.
//!
//! # Result store
//!
//! `--store DIR` puts a content-addressed read-through cache in front
//! of every recorded sweep: a hit returns the stored [`SweepReport`]
//! byte-identically and executes **zero** scenarios; a miss computes
//! as usual (through whatever mode the run uses — `--store` composes
//! with `--fabric`, and the flag is forwarded to every worker so all of
//! them skip the same cached sweeps) and writes the full report back.
//! A warm rerun is byte-identical to the cold one, CI-checked. With
//! `--plan` each line gains a `store=cached|miss` column. Shard/merge
//! runs must all use the same `--store` setting (and store state): the
//! cache changes *which* sweeps produce shard records, so mixing
//! cached and uncached artifacts in one merge is a diagnosed error.
//!
//! `experiments serve --store DIR` turns the store into a query
//! service: length-framed JSON queries over a loopback socket (the
//! fabric's wire discipline), answered cached-or-computed, with typed
//! refusals for schema drift and address mismatches. `experiments
//! query` is the client; `query --direct` computes the same answer
//! locally through the same session path, and CI byte-diffs the two.
//!
//! # Topology sweeps
//!
//! `x10` (alias `--topo`) sweeps 100+ **seeded graph instances per
//! family** ([`x10_topologies`]): the graph becomes an adversary axis.
//! `x11` composes that grid with the gathering generalization
//! ([`x11_gathering_topo`]): k-agent fleets gathered on every seeded
//! topology, each run checked against its own merge-and-restart bound.
//! `all` deliberately excludes both (they are the heaviest tables);
//! select them explicitly. Sharding works for them exactly as above —
//! a `TopoGrid` is just another `Workload`, so its per-family reports
//! ride the same checkpoint records as every grid sweep.
//!
//! [`ExecPlan`]: rendezvous_bench::session::ExecPlan
//! [`Session`]: rendezvous_bench::session::Session
//! [`SweepReport`]: rendezvous_runner::SweepReport

use rendezvous_bench::engine::Engine;
use rendezvous_bench::fabric::WorkerSession;
use rendezvous_bench::session::{ExecPlan, MergedLedger, Session};
use rendezvous_bench::*;
use rendezvous_runner::Runner;
use rendezvous_store::Store;
use rendezvous_telemetry::{Metrics, ProgressReporter, TelemetrySnapshot};
use std::io::Read;
use std::sync::Arc;

struct Config {
    quick: bool,
    json: bool,
    session: Session,
}

/// Emits either the rendered markdown or the serialized rows. Runs
/// whose sweeps return partial folds (shards, fabric workers) or none
/// (`--plan`) emit nothing: stdout carries the mode's own stream.
fn emit<R: serde::Serialize>(cfg: &Config, id: &str, rows: &[R], rendered: String) {
    if !cfg.session.emits_rows() {
        return;
    }
    if cfg.json {
        let doc = serde_json::json!({ "experiment": id, "rows": rows });
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("serializable rows")
        );
    } else {
        print!("{rendered}");
    }
}

/// Prints a section heading: to stdout for markdown output, to stderr
/// in `--json` mode and whenever rows are not emitted, so stdout stays a
/// clean JSON (or shard record, or plan) stream.
fn section(cfg: &Config, heading: &str) {
    if cfg.json || !cfg.session.emits_rows() {
        eprintln!("{heading}");
    } else {
        println!("{heading}");
    }
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Prints a runtime failure and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Parses `i/m` (as in `--shard 1/3`) into `(shard, of)`.
fn parse_shard_spec(spec: &str) -> (usize, usize) {
    let parsed = spec.split_once('/').and_then(|(i, m)| {
        let shard: usize = i.parse().ok()?;
        let of: usize = m.parse().ok()?;
        (of > 0 && shard < of).then_some((shard, of))
    });
    match parsed {
        Some(pair) => pair,
        None => usage_error(&format!(
            "--shard expects i/m with i < m (e.g. --shard 1/3), got `{spec}`"
        )),
    }
}

/// The value after `flag`, or a usage error saying what it should be.
fn value_of(rest: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    rest.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} requires {what}")))
}

/// Parses an `--engine` value.
fn parse_engine(name: &str) -> Engine {
    Engine::parse(name).unwrap_or_else(|| {
        usage_error(&format!(
            "--engine expects stepped or batched, got `{name}`"
        ))
    })
}

/// Opens the result store at `dir` (creating it if needed).
fn open_store(dir: &str) -> Store {
    Store::open(std::path::Path::new(dir))
        .unwrap_or_else(|e| fail(&format!("cannot open the result store: {e}")))
}

/// How this invocation executes its sweeps.
enum Mode {
    Direct,
    /// `--plan`.
    DryRun,
    /// `--shard i/m`.
    Shard {
        shard: usize,
        of: usize,
    },
    /// `--merge-shards FILE...`.
    Merge(Vec<String>),
    /// `--fabric workers=N`: the driver.
    Fabric {
        workers: usize,
    },
    /// `--fabric-worker ADDR` (internal).
    FabricWorker {
        addr: String,
    },
}

impl Mode {
    fn flag(&self) -> &'static str {
        match self {
            Mode::Direct => "",
            Mode::DryRun => "--plan",
            Mode::Shard { .. } => "--shard",
            Mode::Merge(_) => "--merge-shards",
            Mode::Fabric { .. } => "--fabric",
            Mode::FabricWorker { .. } => "--fabric-worker",
        }
    }
}

/// The experiment command line, parsed once.
struct Cli {
    /// Experiment ids, `all` and `--topo` expanded.
    wanted: Vec<String>,
    quick: bool,
    json: bool,
    sequential: bool,
    parallel: bool,
    engine: Engine,
    store: Option<String>,
    progress: bool,
    telemetry: Option<String>,
    mode: Mode,
    checkpoint: Option<String>,
    kill_one: bool,
    /// Internal chaos hook, set by the driver on worker 0 under
    /// `--fabric-kill-one`.
    self_kill: bool,
}

impl Cli {
    /// Parses the arguments (usage errors exit 2), then checks every
    /// cross-flag rule in one match on the mode.
    fn parse(args: Vec<String>) -> Cli {
        let mut cli = Cli {
            wanted: Vec::new(),
            quick: false,
            json: false,
            sequential: false,
            parallel: false,
            engine: Engine::default(),
            store: None,
            progress: false,
            telemetry: None,
            mode: Mode::Direct,
            checkpoint: None,
            kill_one: false,
            self_kill: false,
        };
        let mut topo = false;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = |what: &str| value_of(&mut iter, &arg, what);
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--json" => cli.json = true,
                "--sequential" => cli.sequential = true,
                "--parallel" => cli.parallel = true,
                "--topo" => topo = true,
                "--progress" => cli.progress = true,
                "--fabric-kill-one" => cli.kill_one = true,
                "--fabric-self-kill" => cli.self_kill = true,
                "--telemetry" => cli.telemetry = Some(value("a file path")),
                "--store" => cli.store = Some(value("a directory")),
                "--fabric-checkpoint" => cli.checkpoint = Some(value("a file path")),
                "--engine" => cli.engine = parse_engine(&value("stepped or batched")),
                "--plan" => cli.set_mode(Mode::DryRun),
                "--shard" => {
                    let (shard, of) = parse_shard_spec(&value("an i/m argument"));
                    cli.set_mode(Mode::Shard { shard, of });
                }
                // Everything after --merge-shards is a shard file;
                // experiment ids go before the flag.
                "--merge-shards" => cli.set_mode(Mode::Merge(iter.by_ref().collect())),
                "--fabric" => {
                    let spec = value("workers=N");
                    let workers = spec
                        .strip_prefix("workers=")
                        .and_then(|n| n.parse::<usize>().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| {
                            usage_error(&format!(
                                "--fabric expects workers=N with N > 0, got `{spec}`"
                            ))
                        });
                    cli.set_mode(Mode::Fabric { workers });
                }
                "--fabric-worker" => cli.set_mode(Mode::FabricWorker {
                    addr: value("an address"),
                }),
                other if other.starts_with("--") => usage_error(&format!("unknown flag: {other}")),
                id => cli.wanted.push(id.to_string()),
            }
        }
        let refusal = match &cli.mode {
            _ if cli.sequential && cli.parallel => {
                Some("--sequential and --parallel are mutually exclusive")
            }
            mode if (cli.checkpoint.is_some() || cli.kill_one)
                && !matches!(mode, Mode::Fabric { .. }) =>
            {
                Some("--fabric-checkpoint/--fabric-kill-one require --fabric workers=N")
            }
            Mode::Fabric { workers } if cli.kill_one && *workers < 2 => {
                Some("--fabric-kill-one needs workers=2 or more to have survivors")
            }
            mode if cli.self_kill && !matches!(mode, Mode::FabricWorker { .. }) => {
                Some("--fabric-self-kill is internal to fabric workers")
            }
            Mode::Merge(files) if files.is_empty() => Some("--merge-shards requires shard files"),
            Mode::Merge(_) if cli.telemetry.is_some() => Some(
                "--telemetry cannot be combined with --merge-shards: a merge replays recorded \
                 sweeps and executes nothing, so the sidecar would be vacuously empty",
            ),
            Mode::DryRun if cli.telemetry.is_some() => {
                Some("--telemetry with --plan would write a vacuously empty sidecar")
            }
            _ => None,
        };
        if let Some(msg) = refusal {
            usage_error(msg);
        }
        cli.wanted = expand_selection(std::mem::take(&mut cli.wanted), topo);
        cli
    }

    /// One execution mode per invocation: a second mode flag is refused.
    fn set_mode(&mut self, mode: Mode) {
        if !matches!(self.mode, Mode::Direct) {
            usage_error(&format!(
                "{} cannot be combined with {}",
                mode.flag(),
                self.mode.flag()
            ));
        }
        self.mode = mode;
    }

    /// The arguments of one fabric worker: this run's selection and
    /// sweep-shaping flags, joined to the coordinator at `addr`.
    fn worker_args(&self, addr: &str) -> Vec<String> {
        let mut args = self.wanted.clone();
        for (on, flag) in [
            (self.quick, "--quick"),
            (self.json, "--json"),
            (self.sequential, "--sequential"),
            (self.parallel, "--parallel"),
        ] {
            if on {
                args.push(flag.into());
            }
        }
        args.extend(["--engine".into(), self.engine.name().into()]);
        // Every process of a run opens the same store, so all of them
        // skip the same cached sweeps and their sweep positions align.
        if let Some(dir) = &self.store {
            args.extend(["--store".into(), dir.clone()]);
        }
        args.extend(["--fabric-worker".into(), addr.into()]);
        args
    }
}

/// `all` stays x1..x9: the topology sweeps (x10/x11) are the heaviest
/// tables and are selected explicitly. `--topo` is a selector — alone it
/// runs just x10; next to ids (or `all`) it adds x10 to them. An
/// explicit `x10`/`x11` id survives an `all` expansion for the same
/// reason. The expansion is idempotent, so fabric workers handed the
/// expanded list walk the same sequence.
fn expand_selection(mut wanted: Vec<String>, topo: bool) -> Vec<String> {
    let topo = topo || wanted.iter().any(|w| w == "x10");
    if wanted.iter().any(|w| w == "all") || (wanted.is_empty() && !topo) {
        let explicit_x11 = wanted.iter().any(|w| w == "x11");
        wanted = ["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9"]
            .map(String::from)
            .to_vec();
        if explicit_x11 {
            wanted.push("x11".into());
        }
    }
    if topo && !wanted.iter().any(|w| w == "x10") {
        wanted.push("x10".into());
    }
    wanted
}

/// Loads the `--merge-shards` files (checkpoint lines) and folds them
/// through the fabric's resume checks.
fn merge_files(files: &[String]) -> MergedLedger {
    let mut records = Vec::new();
    for path in files.iter().map(std::path::Path::new) {
        // `load` reads a missing file as an empty checkpoint; a shard
        // file named on the command line must exist.
        if !path.is_file() {
            usage_error(&format!("cannot read shard file {}", path.display()));
        }
        records.extend(
            rendezvous_fabric::checkpoint::load(path)
                .unwrap_or_else(|e| usage_error(&format!("{}: {e}", path.display()))),
        );
    }
    let records = rendezvous_fabric::merge_records(records)
        .unwrap_or_else(|e| usage_error(&format!("cannot merge shards: {e}")));
    MergedLedger {
        records,
        source: files.join(", "),
    }
}

/// Runs the selection on the distributed fabric: starts the loopback
/// coordinator, re-execs this binary `workers` times in
/// `--fabric-worker` mode, waits for every worker process, and returns
/// the coordinator's merged per-sweep ledger plus the workers' merged
/// telemetry (delivered over the socket in their `Finished` frames).
///
/// A worker that exits abnormally while the run still completes is a
/// *survived* fault — its leases were reassigned — and is only noted on
/// stderr; the run fails only if ranges remain unfinished or the
/// coordinator recorded a protocol/checkpoint error.
fn run_fabric(cli: &Cli, workers: usize) -> (MergedLedger, TelemetrySnapshot) {
    use rendezvous_fabric as fab;
    let checkpoint = cli.checkpoint.as_deref().map(std::path::Path::new);
    let resume = match checkpoint {
        Some(path) => fab::checkpoint::load(path)
            .unwrap_or_else(|e| fail(&format!("cannot resume fabric run: {e}"))),
        None => Vec::new(),
    };
    let server = fab::FabricServer::start(fab::ServerConfig {
        coordinator: fab::CoordinatorConfig {
            workers,
            chunk: 0,
            lease_timeout_ms: 5_000,
        },
        checkpoint: checkpoint.map(std::path::Path::to_path_buf),
        resume,
    })
    .unwrap_or_else(|e| fail(&format!("cannot start fabric coordinator: {e}")));
    let args = cli.worker_args(server.addr());
    let exe =
        std::env::current_exe().unwrap_or_else(|e| fail(&format!("cannot locate own binary: {e}")));
    let reporter = cli.progress.then(|| {
        let progress = server.progress();
        ProgressReporter::new(move || progress.counts())
    });
    // Launch every worker before waiting on any, so they overlap; each
    // worker's stderr is drained on its own thread, so a full pipe never
    // stalls a worker and a failed worker's diagnostics surface verbatim.
    let mut drains = Vec::with_capacity(workers);
    let children: Vec<std::process::Child> = (0..workers)
        .map(|i| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(&args)
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::piped());
            if cli.kill_one && i == 0 {
                cmd.arg("--fabric-self-kill");
            }
            let mut child = cmd
                .spawn()
                .unwrap_or_else(|e| fail(&format!("cannot spawn fabric worker {i}: {e}")));
            let mut stderr = child.stderr.take().expect("worker stderr is piped");
            // analyze: allow(d5) — pipe drain, not a fold: one reader per
            // worker keeps it from blocking on a full stderr; the buffered
            // diagnostics are joined back in worker-index order below
            drains.push(std::thread::spawn(move || {
                let mut bytes = Vec::new();
                let _ = stderr.read_to_end(&mut bytes);
                String::from_utf8_lossy(&bytes).into_owned()
            }));
            child
        })
        .collect();
    let statuses: Vec<std::io::Result<std::process::ExitStatus>> =
        children.into_iter().map(|mut c| c.wait()).collect();
    let diagnostics: Vec<String> = drains
        .into_iter()
        .map(|d| d.join().unwrap_or_default())
        .collect();
    // The final reading comes after the join, once every frame the
    // workers sent has reached the coordinator.
    let joined = server.join();
    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let outcome = joined.unwrap_or_else(|e| {
        eprintln!("fabric run failed: {e}");
        for (i, status) in statuses.iter().enumerate() {
            if !matches!(status, Ok(s) if s.success()) {
                eprintln!("fabric worker {i} diagnostics:\n{}", diagnostics[i]);
            }
        }
        std::process::exit(1);
    });
    for (i, status) in statuses.iter().enumerate() {
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("fabric worker {i} exited abnormally ({s}); its leases were reassigned")
            }
            Err(e) => eprintln!("cannot join fabric worker {i}: {e}"),
        }
    }
    let stats = outcome.stats;
    if stats.reassigned > 0 || stats.duplicates > 0 || stats.resumed > 0 {
        eprintln!(
            "fabric: {} range(s) reassigned, {} duplicate result(s) discarded, \
             {} range(s) resumed from checkpoint",
            stats.reassigned, stats.duplicates, stats.resumed
        );
    }
    let ledger = MergedLedger {
        records: outcome.sweeps,
        source: format!("fabric coordinator ({workers} workers)"),
    };
    (ledger, outcome.telemetry)
}

/// Writes the sidecar document (exact sections sorted, wall-clock data
/// quarantined) to `path`.
fn write_sidecar(path: &str, snapshot: &TelemetrySnapshot) {
    std::fs::write(path, snapshot.render())
        .unwrap_or_else(|e| fail(&format!("cannot write telemetry sidecar {path}: {e}")));
}

/// `experiments serve`: run the sweep query service until a client
/// sends `Shutdown`.
fn run_serve(args: &[String]) {
    let mut store_dir: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut engine = Engine::default();
    let mut sequential = false;
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| value_of(&mut iter, &arg, what);
        match arg.as_str() {
            "--store" => store_dir = Some(value("a directory")),
            "--addr-file" => addr_file = Some(value("a file path")),
            "--engine" => engine = parse_engine(&value("stepped or batched")),
            "--sequential" => sequential = true,
            other => usage_error(&format!("unknown serve flag: {other}")),
        }
    }
    let dir = store_dir.unwrap_or_else(|| usage_error("serve requires --store DIR"));
    let runner = if sequential {
        Runner::sequential()
    } else {
        Runner::parallel()
    };
    let mut session = Session::direct(runner)
        .with_engine(engine)
        .with_store(open_store(&dir));
    let result = serve::serve(&mut session, addr_file.as_deref().map(std::path::Path::new));
    if let Err(e) = result {
        fail(&format!("serve failed: {e}"));
    }
}

/// Prints a refusal and exits 3 — distinct from runtime failure (1)
/// and usage errors (2) so CI can assert on the *kind* of refusal.
fn query_refused(msg: &str) -> ! {
    eprintln!("query refused: {msg}");
    std::process::exit(3);
}

/// Renders a server reply: report JSON to stdout (byte-identical to a
/// direct run), everything else as a refusal or stderr note.
fn render_reply(reply: serve::Reply) {
    match reply {
        serve::Reply::Report {
            cached,
            token,
            report,
        } => {
            eprintln!(
                "query: {} {token}",
                if cached { "cached" } else { "computed" }
            );
            println!(
                "{}",
                serde_json::to_string_pretty(&report).expect("serializable report")
            );
        }
        serve::Reply::NotCached { reason } => query_refused(&format!("not cached: {reason}")),
        serve::Reply::SchemaMismatch { found, expected } => query_refused(&format!(
            "schema mismatch: entry is v{found}, this build speaks v{expected}"
        )),
        serve::Reply::FingerprintMismatch { found, expected } => query_refused(&format!(
            "address mismatch: the entry's header derives {found}, it was requested as {expected}"
        )),
        serve::Reply::BadQuery { reason } => query_refused(&format!("bad query: {reason}")),
        serve::Reply::Bye => eprintln!("query: server shut down"),
    }
}

/// `experiments query`: the service client (and, with `--direct`, the
/// reference local computation CI diffs a served answer against).
fn run_query(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut addr_file: Option<String> = None;
    let mut token: Option<String> = None;
    let mut grid_algo: Option<String> = None;
    let mut spec_json: Option<String> = None;
    let mut l: Option<u64> = None;
    let mut cap: Option<usize> = None;
    let mut shutdown = false;
    let mut direct = false;
    let mut store_dir: Option<String> = None;
    let mut engine = Engine::default();
    let mut sequential = false;
    let mut iter = args.iter().cloned();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| value_of(&mut iter, &arg, what);
        match arg.as_str() {
            "--addr" => addr = Some(value("host:port")),
            "--addr-file" => addr_file = Some(value("a file path")),
            "--token" => token = Some(value("a store token")),
            "--grid" => grid_algo = Some(value("cheap or fast")),
            "--spec" => spec_json = Some(value("a GraphSpec JSON value")),
            "--l" => {
                let what = "a label-space size";
                l = Some(
                    value(what)
                        .parse()
                        .unwrap_or_else(|_| usage_error(&format!("--l requires {what}"))),
                );
            }
            "--cap" => {
                let what = "a scenario cap";
                cap = Some(
                    value(what)
                        .parse()
                        .unwrap_or_else(|_| usage_error(&format!("--cap requires {what}"))),
                );
            }
            "--shutdown" => shutdown = true,
            "--direct" => direct = true,
            "--store" => store_dir = Some(value("a directory")),
            "--engine" => engine = parse_engine(&value("stepped or batched")),
            "--sequential" => sequential = true,
            other => usage_error(&format!("unknown query flag: {other}")),
        }
    }
    let grid = grid_algo.map(|algorithm| {
        let spec_json = spec_json.unwrap_or_else(|| usage_error("--grid requires --spec JSON"));
        let spec: rendezvous_graph::GraphSpec = serde_json::from_str(&spec_json)
            .unwrap_or_else(|e| usage_error(&format!("--spec is not a GraphSpec: {e}")));
        serve::Query::Grid {
            algorithm,
            spec,
            l: l.unwrap_or_else(|| usage_error("--grid requires --l N")),
            cap: cap.unwrap_or_else(|| usage_error("--grid requires --cap N")),
        }
    });
    let query = match (token, grid, shutdown) {
        (Some(token), None, false) => serve::Query::Token { token },
        (None, Some(grid), false) => grid,
        (None, None, true) => serve::Query::Shutdown,
        _ => usage_error("query needs exactly one of --token, --grid, or --shutdown"),
    };
    if direct {
        if shutdown {
            usage_error("--shutdown needs a server; it cannot combine with --direct");
        }
        let runner = if sequential {
            Runner::sequential()
        } else {
            Runner::parallel()
        };
        match query {
            serve::Query::Token { token } => {
                let dir = store_dir
                    .unwrap_or_else(|| usage_error("query --direct --token requires --store DIR"));
                match open_store(&dir).load_token(&token) {
                    Ok(entry) => {
                        eprintln!("query: cached {token}");
                        println!(
                            "{}",
                            serde_json::to_string_pretty(&entry.report)
                                .expect("serializable report")
                        );
                    }
                    Err(miss) => query_refused(&miss.to_string()),
                }
            }
            serve::Query::Grid {
                algorithm,
                spec,
                l,
                cap,
            } => {
                let mut session = Session::direct(runner).with_engine(engine);
                if let Some(dir) = &store_dir {
                    session = session.with_store(open_store(dir));
                }
                let swept = x10_topologies::sweep_spec(&mut session, &algorithm, spec, l, cap)
                    .unwrap_or_else(|| {
                        usage_error(&format!(
                            "unknown algorithm `{algorithm}` (expected cheap or fast)"
                        ))
                    });
                println!(
                    "{}",
                    serde_json::to_string_pretty(&swept.report).expect("serializable report")
                );
            }
            serve::Query::Shutdown => unreachable!("rejected above"),
        }
        return;
    }
    let addr = match (addr, addr_file) {
        (Some(addr), None) => addr,
        (None, Some(path)) => std::fs::read_to_string(&path)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|e| usage_error(&format!("cannot read --addr-file {path}: {e}"))),
        _ => usage_error("query needs exactly one of --addr or --addr-file (or --direct)"),
    };
    match serve::ask(&addr, &query) {
        Ok(reply) => render_reply(reply),
        Err(e) => fail(&format!("query failed: {e}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return run_serve(&args[1..]),
        Some("query") => return run_query(&args[1..]),
        _ => {}
    }
    let cli = Cli::parse(args);
    let runner = if cli.sequential {
        Runner::sequential()
    } else {
        Runner::parallel()
    };
    // The fabric driver's merged worker snapshot (written after the
    // replayed render below, so a failed replay never leaves a sidecar).
    let mut fabric_snapshot: Option<TelemetrySnapshot> = None;
    let plan = match &cli.mode {
        Mode::Direct => ExecPlan::Direct,
        Mode::DryRun => ExecPlan::DryRun,
        Mode::Shard { shard, of } => ExecPlan::shard(*shard, *of),
        Mode::Merge(files) => ExecPlan::Replay(merge_files(files)),
        Mode::Fabric { workers } => {
            let (ledger, snapshot) = run_fabric(&cli, *workers);
            fabric_snapshot = Some(snapshot);
            ExecPlan::Replay(ledger)
        }
        Mode::FabricWorker { addr } => ExecPlan::FabricWorker(
            WorkerSession::connect(addr, cli.self_kill)
                .unwrap_or_else(|e| fail(&format!("cannot join the fabric at {addr}: {e}"))),
        ),
    };
    let mut session = Session::new(runner, plan).with_engine(cli.engine);
    if let Some(dir) = &cli.store {
        session = session.with_store(open_store(dir));
    }
    // A local telemetry sink only where sweeps execute: the fabric
    // driver replays its workers' ledger (each worker always keeps a
    // sink — its snapshot rides the socket in its `Finished` frame), and
    // a dry run executes nothing.
    let local_metrics = match cli.mode {
        Mode::FabricWorker { .. } => true,
        Mode::Fabric { .. } | Mode::DryRun => false,
        _ => cli.progress || cli.telemetry.is_some(),
    };
    if local_metrics {
        session = session.with_metrics(Arc::new(Metrics::new()));
    }
    let reporter = match session.metrics() {
        Some(metrics) if cli.progress => {
            let metrics = Arc::clone(metrics);
            Some(ProgressReporter::new(move || metrics.progress().counts()))
        }
        _ => None,
    };

    let mut cfg = Config {
        quick: cli.quick,
        json: cli.json,
        session,
    };
    for w in &cli.wanted {
        match w.as_str() {
            "x1" => x1(&mut cfg),
            "x2" => x2(&mut cfg),
            "x3" => x3(&mut cfg),
            "x4" => x4(&mut cfg),
            "x5" => x5(&mut cfg),
            "x6" => x6(&mut cfg),
            "x7" => x7(&mut cfg),
            "x8" => x8(&mut cfg),
            "x9" => x9(&mut cfg),
            "x10" => x10(&mut cfg),
            "x11" => x11(&mut cfg),
            other => eprintln!("unknown experiment: {other}"),
        }
    }

    if let Some(reporter) = reporter {
        reporter.finish();
    }
    let metrics = cfg.session.metrics().cloned();
    for record in cfg.session.finish().unwrap_or_default() {
        print!("{}", record.to_line());
    }
    // The sidecar, after every exact byte of output is out.
    if let Some(path) = &cli.telemetry {
        if let Some(snapshot) = fabric_snapshot.or_else(|| metrics.map(|m| m.snapshot())) {
            write_sidecar(path, &snapshot);
        }
    }
}

fn x1(cfg: &mut Config) {
    section(
        cfg,
        "\n## X1 — Proposition 2.1: Cheap (cost <= 3E, time <= (2L+1)E)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (8, vec![2, 4, 8])
    } else {
        (12, vec![2, 4, 8, 16, 32])
    };
    let rows = x1_cheap::run(
        n,
        &ls,
        ls.iter().max().copied().unwrap_or(8) <= 8,
        &mut cfg.session,
    );
    emit(cfg, "x1", &rows, x1_cheap::render(&rows));
}

fn x2(cfg: &mut Config) {
    section(
        cfg,
        "\n## X2 — Proposition 2.2: Fast (time and cost O(E log L))\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (8, vec![2, 8, 32])
    } else {
        (12, vec![2, 4, 8, 16, 64, 256])
    };
    let rows = x2_fast::run(n, &ls, false, &mut cfg.session);
    emit(cfg, "x2", &rows, x2_fast::render(&rows));
}

fn x3(cfg: &mut Config) {
    section(
        cfg,
        "\n## X3 — Proposition 2.3 / Corollary 2.1: FastWithRelabeling(w)\n",
    );
    section(cfg, "### Analytic bounds (per E)\n");
    let ls: Vec<u64> = if cfg.quick {
        vec![16, 256]
    } else {
        vec![16, 64, 256, 1024, 4096]
    };
    let rows = x3_relabel::run_bounds(&ls, &[1, 2, 3, 4]);
    emit(cfg, "x3-bounds", &rows, x3_relabel::render_bounds(&rows));
    section(cfg, "\n### Measured on an oriented ring\n");
    let (n, l) = if cfg.quick { (6, 8) } else { (10, 16) };
    let rows = x3_relabel::run_exec(n, l, &[1, 2, 3, 4], &mut cfg.session);
    emit(cfg, "x3-exec", &rows, x3_relabel::render_exec(&rows));
}

fn x4(cfg: &mut Config) {
    section(cfg, "\n## X4 — The time/cost tradeoff frontier\n");
    let (n, l, ws): (usize, u64, Vec<u64>) = if cfg.quick {
        (8, 32, vec![2, 3])
    } else {
        (12, 64, vec![1, 2, 3, 4, 5])
    };
    let points = x4_tradeoff::run(n, l, &ws, &mut cfg.session);
    emit(cfg, "x4", &points, x4_tradeoff::render(&points));
}

fn x5(cfg: &mut Config) {
    section(
        cfg,
        "\n## X5 — Theorem 3.1: cost E + o(E) forces time Omega(EL)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (12, vec![4, 8])
    } else {
        (12, vec![4, 6, 8, 10, 12, 16])
    };
    let rows = x5_lb_time::run(n, &ls, &mut cfg.session);
    emit(cfg, "x5", &rows, x5_lb_time::render(&rows));
}

fn x6(cfg: &mut Config) {
    section(
        cfg,
        "\n## X6 — Theorem 3.2: time O(E log L) forces cost Omega(E log L)\n",
    );
    let (n, ls): (usize, Vec<u64>) = if cfg.quick {
        (12, vec![4, 8])
    } else {
        (12, vec![4, 8, 16, 32])
    };
    let rows = x6_lb_cost::run(n, &ls, &mut cfg.session);
    emit(cfg, "x6", &rows, x6_lb_cost::render(&rows));
}

fn x7(cfg: &mut Config) {
    section(cfg, "\n## X7 — Graph families and exploration scenarios\n");
    let l = if cfg.quick { 4 } else { 8 };
    let rows = x7_families::run(l, 0xBEEF, &mut cfg.session);
    emit(cfg, "x7", &rows, x7_families::render(&rows));
}

fn x8(cfg: &mut Config) {
    section(
        cfg,
        "\n## X8 — Unknown E: iterated algorithms (Conclusion)\n",
    );
    let ns: Vec<usize> = if cfg.quick { vec![6] } else { vec![6, 12, 24] };
    let rows = x8_iterated::run(&ns, 4, &mut cfg.session);
    emit(cfg, "x8", &rows, x8_iterated::render(&rows));
}

fn x10(cfg: &mut Config) {
    section(
        cfg,
        "\n## X10 — Topology sweep: 100+ seeded graphs per family\n",
    );
    let (l, cap) = if cfg.quick { (4, 6) } else { (6, 24) };
    let specs = x10_topologies::standard_topo_specs(cfg.quick);
    let report = x10_topologies::run(specs, l, cap, &mut cfg.session);
    emit(
        cfg,
        "x10",
        &report.rows,
        x10_topologies::render(&report.rows),
    );
}

fn x11(cfg: &mut Config) {
    section(
        cfg,
        "\n## X11 — Gathering fleets across the topology grid\n",
    );
    let (l, cap) = if cfg.quick { (4, 4) } else { (6, 8) };
    let specs = x10_topologies::standard_topo_specs(cfg.quick);
    let report = x11_gathering_topo::run(
        specs,
        l,
        &x11_gathering_topo::standard_fleet_sizes(cfg.quick),
        &x11_gathering_topo::standard_phases(cfg.quick),
        cap,
        &mut cfg.session,
    );
    emit(
        cfg,
        "x11",
        &report.rows,
        x11_gathering_topo::render(&report.rows),
    );
}

fn x9(cfg: &mut Config) {
    section(
        cfg,
        "\n## X9 — Extension: k-agent gathering by merge-and-restart\n",
    );
    let ks: Vec<usize> = if cfg.quick {
        vec![2, 3]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let rows = x9_gathering::run(12, 32, &ks, &mut cfg.session);
    emit(cfg, "x9", &rows, x9_gathering::render(&rows));
}
