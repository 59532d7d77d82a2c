//! The experiments binary's side of the sweep fabric: the worker
//! session behind [`ExecPlan::FabricWorker`](crate::session::ExecPlan).
//!
//! A fabric worker process (`experiments … --fabric-worker ADDR`) runs
//! the *same* experiment sequence as a direct run — same selection,
//! same workload construction, same engine — but every sweep that
//! reaches its plan detours through [`WorkerSession`]'s lease loop: instead
//! of executing `[0, size())`, the worker pulls lease ranges from the
//! coordinator and executes exactly those through
//! [`Runner::sweep_range`]. Because every worker walks the sweep
//! sequence in the same order, the position of a sweep in that walk is
//! its identity on the wire; the workload fingerprint sent with every
//! request catches any process that disagrees.
//!
//! The session also hosts the chaos hook behind `--fabric-kill-one`:
//! a worker launched with the internal `--fabric-self-kill` flag
//! SIGKILLs itself upon being *granted* a lease after completing at
//! least one — mid-piece from the coordinator's point of view, which is
//! precisely the window lease reassignment exists for.

use rendezvous_fabric::{FabricError, WorkerClient};
use rendezvous_runner::{PieceExecutor, Runner, SweepReport, Workload};
use rendezvous_telemetry::{Metrics, TelemetrySnapshot};
use std::sync::Arc;

/// One worker process's connection to the coordinator.
pub struct WorkerSession {
    client: WorkerClient,
    /// Leases completed by this process, across all sweeps.
    completed: usize,
    /// The `--fabric-self-kill` chaos hook.
    self_kill: bool,
}

impl WorkerSession {
    /// Connects this process to the coordinator at `addr`. The worker's
    /// wire identity is its process id.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(addr: &str, self_kill: bool) -> Result<WorkerSession, FabricError> {
        Ok(WorkerSession {
            client: WorkerClient::connect(addr, u64::from(std::process::id()))?,
            completed: 0,
            self_kill,
        })
    }

    /// The worker's sweep loop for sweep `sweep` of the walk.
    ///
    /// Pulls leases until the coordinator reports the sweep complete,
    /// executing each granted range through [`Runner::sweep_range`] and
    /// submitting its fold. Returns the local merge of this worker's own
    /// ranges — partial, and possibly empty on a resume of a finished
    /// checkpoint; a worker never emits rows, so partial rows never
    /// reach stdout.
    ///
    /// # Panics
    ///
    /// Panics on execution errors, wire failures, or coordinator faults —
    /// the worker exits nonzero, the coordinator sees the connection drop
    /// and requeues its leases, and the driver surfaces the diagnostics.
    pub(crate) fn sweep<W, E>(
        &mut self,
        sweep: usize,
        context: &str,
        workload: &W,
        executor: &E,
        runner: &Runner,
    ) -> SweepReport
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let meta = workload.meta();
        let mut merged = SweepReport::default();
        loop {
            match self.client.next_lease(sweep, meta) {
                Ok(Some((lo, hi))) => {
                    self.maybe_self_kill();
                    let partial = runner
                        .sweep_range(workload, lo, hi, executor)
                        .unwrap_or_else(|e| {
                            panic!("fabric sweep failed for {context} on [{lo}, {hi}): {e}")
                        });
                    self.client
                        .submit(sweep, lo, hi, partial.clone())
                        .unwrap_or_else(|e| {
                            panic!("fabric worker cannot submit [{lo}, {hi}): {e}")
                        });
                    self.completed += 1;
                    merged = merged.merge(&partial);
                }
                Ok(None) => return merged,
                Err(e) => panic!("fabric worker lost its coordinator during {context}: {e}"),
            }
        }
    }

    /// Ends the worker's conversation: sends the process's telemetry
    /// snapshot (empty without a sink) and half-closes the socket.
    ///
    /// # Panics
    ///
    /// Panics if the final frame cannot be written.
    pub(crate) fn finish(self, metrics: Option<&Arc<Metrics>>) {
        let snapshot = metrics.map_or_else(TelemetrySnapshot::empty, |m| m.snapshot());
        self.client
            .finish(snapshot)
            .unwrap_or_else(|e| panic!("fabric worker cannot deliver its snapshot: {e}"));
    }

    /// The `--fabric-self-kill` hook: once at least one lease has
    /// completed, dying on the *next* grant leaves that lease in flight
    /// — the reassignment path under test. SIGKILL (not a clean exit)
    /// so the coordinator learns only from the socket closing.
    fn maybe_self_kill(&self) {
        if self.self_kill && self.completed >= 1 {
            let pid = std::process::id().to_string();
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid])
                .status();
            // `kill` missing (non-POSIX environment): abort is the
            // closest thing to an unannounced death available in std.
            std::process::abort();
        }
    }
}
