//! The distributed fabric, end to end through the real binary: the
//! driver re-execs `experiments` as coordinator + workers over loopback
//! TCP, and the merged output must be **byte-identical** to the direct
//! single-process run — including with a worker SIGKILL'd mid-piece and
//! across a checkpoint resume that re-executes zero ranges.
//!
//! These spawn real processes (via `CARGO_BIN_EXE_experiments`), so they
//! stick to `x1 --quick`; CI's fabric matrix covers x10/x11.

use rendezvous_telemetry::TelemetrySnapshot;
use std::path::PathBuf;
use std::process::Command;

fn experiments(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stdout_of(args: &[&str]) -> Vec<u8> {
    let out = experiments(args);
    assert!(
        out.status.success(),
        "experiments {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rendezvous-fabric-e2e-{name}-{}",
        std::process::id()
    ))
}

#[test]
fn fabric_run_is_byte_identical_to_the_direct_run() {
    let direct = stdout_of(&["x1", "--quick"]);
    let fabric = stdout_of(&["x1", "--quick", "--fabric", "workers=3"]);
    assert!(!direct.is_empty());
    assert_eq!(
        direct, fabric,
        "markdown output must not depend on the fabric"
    );

    let direct_json = stdout_of(&["x1", "--quick", "--json"]);
    let fabric_json = stdout_of(&["x1", "--quick", "--json", "--fabric", "workers=2"]);
    assert_eq!(
        direct_json, fabric_json,
        "JSON output must not depend on the fabric"
    );
}

#[test]
fn a_sigkilled_worker_changes_nothing_but_the_stderr_diagnostics() {
    let direct = stdout_of(&["x1", "--quick"]);
    let out = experiments(&[
        "x1",
        "--quick",
        "--fabric",
        "workers=3",
        "--fabric-kill-one",
    ]);
    assert!(
        out.status.success(),
        "kill-one run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        out.stdout, direct,
        "reassigned ranges must fold to the same bytes"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("leases were reassigned"),
        "the kill must actually have been seen: {stderr}"
    );
}

#[test]
fn checkpoint_resume_re_executes_zero_ranges() {
    let ckpt = scratch("ckpt");
    let t_first = scratch("telemetry-first");
    let t_resume = scratch("telemetry-resume");
    let _ = std::fs::remove_file(&ckpt);
    let ckpt_s = ckpt.to_str().unwrap();

    let args = |telemetry: &str| {
        vec![
            "x1".to_string(),
            "--quick".to_string(),
            "--fabric".to_string(),
            "workers=2".to_string(),
            "--fabric-checkpoint".to_string(),
            ckpt_s.to_string(),
            "--telemetry".to_string(),
            telemetry.to_string(),
        ]
    };
    let run = |telemetry: &PathBuf| {
        let argv = args(telemetry.to_str().unwrap());
        let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
        stdout_of(&refs)
    };

    let first = run(&t_first);
    let resumed = run(&t_resume);
    assert_eq!(first, resumed, "resume must render the same bytes");

    let executed = |path: &PathBuf| {
        let snap = TelemetrySnapshot::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        snap.counters
            .get("scenarios_executed")
            .copied()
            .unwrap_or(0)
    };
    assert!(executed(&t_first) > 0, "the first run does the work");
    assert_eq!(
        executed(&t_resume),
        0,
        "the resume must re-execute zero completed ranges"
    );

    for p in [&ckpt, &t_first, &t_resume] {
        let _ = std::fs::remove_file(p);
    }
}

/// `(done, total)` of the last `[sweep] … scenarios done/total …`
/// reading in a run's stderr (readings are `\r`-refreshed).
fn final_scenarios(stderr: &[u8]) -> (u64, u64) {
    let text = String::from_utf8_lossy(stderr);
    let reading = text
        .rsplit(['\r', '\n'])
        .find(|s| s.starts_with("[sweep]"))
        .unwrap_or_else(|| panic!("no progress reading on stderr:\n{text}"));
    let counts = reading
        .split(" · ")
        .find_map(|field| field.strip_prefix("scenarios "))
        .and_then(|c| c.split_once('/'))
        .unwrap_or_else(|| panic!("no scenario count in {reading:?}"));
    (counts.0.parse().unwrap(), counts.1.parse().unwrap())
}

#[test]
fn fabric_progress_reads_the_coordinator_to_completion() {
    let direct = experiments(&["x1", "--quick", "--json", "--progress"]);
    assert!(direct.status.success());
    let (done, total) = final_scenarios(&direct.stderr);
    assert!(total > 0);
    assert_eq!(done, total, "the direct run's final reading is complete");
    for extra in [&[][..], &["--fabric-kill-one"][..]] {
        let mut args = vec![
            "x1",
            "--quick",
            "--json",
            "--fabric",
            "workers=2",
            "--progress",
        ];
        args.extend_from_slice(extra);
        let out = experiments(&args);
        assert!(
            out.status.success(),
            "experiments {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, direct.stdout, "{args:?} changed the output");
        assert_eq!(
            final_scenarios(&out.stderr),
            (total, total),
            "{args:?}: the driver's final reading must be complete and \
             total what the direct run executes"
        );
    }
}

#[test]
fn plan_previews_every_sweep_without_executing_any() {
    let out = stdout_of(&["x1", "--quick", "--plan"]);
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "x1 must plan at least one sweep");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("plan: sweep #{i}: ")),
            "plan lines are dense and ordered: {line:?}"
        );
        for field in ["fingerprint=", "pieces="] {
            assert!(line.contains(field), "missing {field}: {line:?}");
        }
        assert!(
            !line.contains("store="),
            "no store column without --store: {line:?}"
        );
    }
    // The preview is the fabric's dispatch view: same sweep count as a
    // worker's walk, no tables, no scenario execution (it returns before
    // any runner is touched, which is why it is instant even un-quick).
    assert!(!text.contains('|'), "no tables in plan mode");
}

/// The lower-bound audits' trims are sweeps like every other: the
/// preview lists one per audited `L` — x5 and x6 audit two each under
/// `--quick` — each with its own fingerprint and one piece per label
/// pair.
#[test]
fn plan_lists_one_trim_sweep_per_audited_l() {
    let text = String::from_utf8(stdout_of(&["x5", "x6", "--quick", "--plan"])).unwrap();
    let contexts: Vec<&str> = text
        .lines()
        .map(|line| {
            let (_, rest) = line.split_once(": trim ").expect("only trim sweeps");
            rest.split(" fingerprint=").next().unwrap()
        })
        .collect();
    assert_eq!(
        contexts,
        [
            "cheap-simultaneous L=4",
            "cheap-simultaneous L=8",
            "fast L=4",
            "fast L=8"
        ]
    );
    // C(4, 2) and C(8, 2) label pairs.
    for (line, pieces) in text.lines().zip([6, 28, 6, 28]) {
        assert!(line.ends_with(&format!(" pieces={pieces}")), "{line}");
    }
}

#[test]
fn fabric_flag_misuse_is_refused_up_front() {
    for bad in [
        vec!["x1", "--quick", "--fabric", "workers=0"],
        vec!["x1", "--quick", "--fabric", "three"],
        vec!["x1", "--quick", "--fabric-checkpoint", "/tmp/nope"],
        vec![
            "x1",
            "--quick",
            "--fabric",
            "workers=1",
            "--fabric-kill-one",
        ],
        vec!["x1", "--quick", "--fabric", "workers=2", "--shard", "0/2"],
        vec!["x1", "--quick", "--plan", "--fabric", "workers=2"],
    ] {
        let out = experiments(&bad);
        assert!(
            !out.status.success(),
            "experiments {bad:?} must be refused, but succeeded"
        );
    }
}
