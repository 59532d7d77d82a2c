//! Distributed sweep fabric: a coordinator/worker engine that spreads
//! one deterministic sweep sequence across worker processes — with
//! work-stealing dispatch, heartbeat liveness, and checkpoint/resume —
//! while keeping the merged output **byte-identical** to the direct run.
//!
//! # Shape
//!
//! ```text
//! driver (experiments --fabric workers=N)
//!   ├─ FabricServer ── Coordinator (pure lease state machine)
//!   │      ▲ loopback TCP, length-framed JSON (wire/protocol)
//!   └─ N × worker process (experiments --fabric-worker ADDR)
//!          └─ WorkerClient: Request → Lease → Runner::sweep_range → Result
//! ```
//!
//! Every worker walks the same experiment sequence the direct run
//! would, so coordinator and workers agree on sweep numbering and
//! workload fingerprints without any central plan file. The coordinator
//! cuts each sweep's global index space into small lease chunks
//! ([`Workload::lease_ranges`](rendezvous_runner::Workload::lease_ranges))
//! served from a deque — workers that land cheap ranges simply come
//! back sooner, so uneven topology pieces balance themselves.
//!
//! Liveness is heartbeats plus deadline expiry: a worker silent past
//! the lease timeout (or whose connection drops — the fast path for a
//! SIGKILL) has its in-flight ranges requeued, each at exactly its
//! original `[lo, hi)`. Results are idempotent by range identity, and
//! [`SweepReport::merge`](rendezvous_runner::SweepReport::merge) is
//! associative with lowest-global-index tie-breaks, so reassignment and
//! even duplicated execution cannot perturb a byte of the output.
//!
//! Checkpoint/resume appends one JSONL [`CheckpointRecord`] per
//! completed range; a relaunched coordinator carves those ranges out of
//! its dispatch plan and re-runs zero completed units. The same record
//! is the output of a manual `--shard i/m` run, and [`merge_records`]
//! folds such files through the resume path's checks.
//!
//! The dispatch logic is deliberately split from the sockets:
//! [`Coordinator`] sees only calls and millisecond timestamps, which is
//! what lets the determinism proptest drive real sweeps through
//! simulated worker schedules (interleavings, kills, zombie returns)
//! without a network in sight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod coordinator;
pub mod error;
pub mod protocol;
pub mod server;
pub mod wire;
pub mod worker;

pub use checkpoint::{CheckpointRecord, CheckpointWriter};
pub use coordinator::{
    merge_records, Coordinator, CoordinatorConfig, FabricStats, LeaseReply, WorkerId,
};
pub use error::{FabricError, WireError};
pub use protocol::{Message, PROTOCOL_VERSION};
pub use server::{FabricOutcome, FabricProgress, FabricServer, ServerConfig};
pub use worker::{WorkerClient, HEARTBEAT_EVERY};
