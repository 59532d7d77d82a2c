//! Every flag combination the `experiments` binary refuses must exit
//! with the usage code 2 before any sweep runs: the command line is
//! parsed into one execution mode, and this table pins each rule of the
//! single match that validates it.

use std::process::Command;

#[test]
fn refused_flag_combinations_exit_with_usage_code_2() {
    let refused: &[&[&str]] = &[
        &["--sequential", "--parallel"],
        // Retired: a `--shard` run always prints its checkpoint lines.
        &["--emit-shard"],
        &["--emit-shard", "--merge-shards", "s0.jsonl"],
        &["--merge-shards"],
        &["--shard", "0/2", "--merge-shards", "s0.jsonl"],
        &["--shard", "0/2", "--shard", "1/2"],
        &["--shard", "2/2"],
        &["--shard", "two"],
        &["--fabric", "workers=2", "--shard", "0/2"],
        &["--fabric", "workers=2", "--merge-shards", "s0.jsonl"],
        &["--fabric", "workers=2", "--fabric-worker", "127.0.0.1:9"],
        &["--fabric-worker", "127.0.0.1:9", "--shard", "0/2"],
        &["--plan", "--fabric", "workers=2"],
        &["--plan", "--shard", "0/2"],
        &["--plan", "--merge-shards", "s0.jsonl"],
        &["--plan", "--telemetry", "t.json"],
        &["--telemetry", "t.json", "--merge-shards", "s0.jsonl"],
        &["--fabric", "workers=0"],
        &["--fabric", "three"],
        &["--fabric-checkpoint", "c.ckpt"],
        &["--fabric-kill-one"],
        &["--fabric", "workers=1", "--fabric-kill-one"],
        &["--shard", "0/2", "--fabric-kill-one"],
        &["--fabric-self-kill"],
        &["--engine", "turbo"],
        &["--telemetry"],
        &["--spawn-shards", "3"],
        // Retired: fabric workers no longer report progress over stderr.
        &["--progress-stream"],
        &["--no-such-flag"],
    ];
    for flags in refused {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .arg("x1")
            .arg("--quick")
            .args(*flags)
            .output()
            .expect("experiments binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "experiments x1 --quick {flags:?} must be refused as a usage error:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{flags:?} printed output");
    }
}
