//! The store CLI: `store verify DIR` — an fsck for a sweep-report store.
//!
//! Walks every entry under `DIR` through the store's one address check
//! — an entry is clean when it decodes as a v2 entry and the key token
//! re-derived from its own header is its file name, exactly when a
//! lookup would serve it — and reports every entry that is not. Exit
//! status 0 only when the store is clean.

use rendezvous_store::Store;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: store verify DIR");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [cmd, dir] = args.as_slice() else {
        return usage();
    };
    if cmd != "verify" {
        return usage();
    }
    let store = match Store::open(Path::new(dir)) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("store: {e}");
            return ExitCode::FAILURE;
        }
    };
    match store.verify() {
        Ok(report) => {
            for p in &report.problems {
                println!("BAD  {}: {}", p.file, p.problem);
            }
            println!(
                "store: {} ok, {} problem(s) under {}",
                report.ok,
                report.problems.len(),
                dir
            );
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("store: {e}");
            ExitCode::FAILURE
        }
    }
}
