//! Process-tree accounting from `/proc`, with std alone.
//!
//! - CPU time is **exact** to the kernel's tick (`USER_HZ`, 100 on
//!   Linux): the `cutime + cstime` of this process grows, when a child
//!   is reaped, by the child's CPU plus that of every descendant it
//!   reaped itself (fabric workers included). For a long-lived child
//!   (`serve`) its own `utime + stime` is read before and after.
//! - Peak resident set is **sampled**: a thread polls `VmHWM` of the
//!   child and its descendants. `VmHWM` is a high-water mark, so a
//!   sample taken any time after the peak sees it; only a peak in the
//!   last poll interval before a process exits can be missed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Kernel clock ticks per second as `/proc` reports them (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// How often the resident-set sampler polls.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

/// Fields of `/proc/<pid>/stat` after the command name, so index 0 is
/// field 3 (`state`) of proc(5).
fn stat_fields(pid: &str) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let after = &text[text.rfind(')')? + 1..];
    Some(after.split_whitespace().map(String::from).collect())
}

fn field(fields: &[String], number: usize) -> u64 {
    fields
        .get(number - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// CPU ticks of every reaped descendant of this process so far.
#[must_use]
pub fn reaped_children_ticks() -> u64 {
    let fields = stat_fields("self").unwrap_or_default();
    field(&fields, 16) + field(&fields, 17)
}

/// CPU ticks process `pid` has used itself (0 if it is gone).
#[must_use]
pub fn process_ticks(pid: u32) -> u64 {
    let fields = stat_fields(&pid.to_string()).unwrap_or_default();
    field(&fields, 14) + field(&fields, 15)
}

/// CPU seconds between two tick readings.
#[must_use]
pub fn cpu_s(before: u64, after: u64) -> f64 {
    after.saturating_sub(before) as f64 / TICKS_PER_S
}

/// The host's `(steal, total)` CPU ticks so far, from `/proc/stat`: time
/// this virtual machine's CPUs were runnable but held by the host.
#[must_use]
pub fn steal_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// A note on how much CPU the host took while `before` (from
/// [`steal_ticks`]) was current: runs with a large share read slow for
/// reasons outside the program.
#[must_use]
pub fn steal_note(before: (u64, u64)) -> String {
    let (steal, total) = steal_ticks();
    let share = (steal - before.0) as f64 / (total - before.1).max(1) as f64;
    format!(
        "host steal during the measured rounds = {:.1}% of CPU time",
        100.0 * share
    )
}

/// `VmHWM` of `pid` in KiB, `None` once it has exited.
#[must_use]
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `pid` and every live descendant of it.
fn tree(pid: u32) -> Vec<u32> {
    let mut parent_of = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Ok(child) = name.parse::<u32>() else {
                continue;
            };
            if let Some(fields) = stat_fields(name) {
                parent_of.insert(child, field(&fields, 4) as u32);
            }
        }
    }
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let p = out[i];
        out.extend(
            parent_of
                .iter()
                .filter(|&(_, &pp)| pp == p)
                .map(|(&c, _)| c),
        );
        i += 1;
    }
    out
}

/// Samples the highest `VmHWM` of a process tree until stopped.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<u64>,
}

impl RssSampler {
    /// Starts sampling the tree rooted at `pid`.
    #[must_use]
    pub fn start(pid: u32) -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            loop {
                for p in tree(pid) {
                    peak = peak.max(vm_hwm_kib(p).unwrap_or(0));
                }
                if flag.load(Ordering::Relaxed) {
                    return peak;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        RssSampler { stop, handle }
    }

    /// Takes a last sample (call it before reaping the root) and returns
    /// the peak in MiB.
    #[must_use]
    pub fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or(0) as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let me = std::process::id();
        assert!(vm_hwm_kib(me).is_some_and(|kib| kib > 0));
        let _ = process_ticks(me);
        assert!(tree(me).contains(&me));
        let mut child = std::process::Command::new("sleep")
            .arg("0.2")
            .spawn()
            .expect("sleep runs");
        assert!(tree(me).contains(&child.id()));
        let sampler = RssSampler::start(child.id());
        let before = reaped_children_ticks();
        std::thread::sleep(Duration::from_millis(50));
        let peak = sampler.stop();
        child.wait().expect("sleep exits");
        assert!(peak > 0.0);
        assert!(reaped_children_ticks() >= before);
    }
}
