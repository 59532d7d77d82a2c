//! The lease state machine — pure logic, no sockets, no clocks.
//!
//! The [`Coordinator`] owns every sweep's chunk partition and hands out
//! leases from a deque. Time reaches it only as `now_ms` arguments
//! (milliseconds from any fixed origin), and bytes never reach it at
//! all, so the whole work-stealing/liveness/resume surface is directly
//! drivable from deterministic tests: the fabric proptest runs real
//! sweeps through simulated workers against this exact type.
//!
//! # Why byte-identity survives all of this
//!
//! Chunks partition each sweep's global index space into contiguous
//! ranges. [`SweepReport::merge`] is associative and commutative with
//! lowest-global-index witness tie-breaks, so *any* assignment of
//! chunks to workers — including a chunk executed twice because its
//! first worker was declared dead while merely slow — folds to the same
//! bytes as the direct sweep. Duplicate results are discarded by range
//! identity; a reassigned range is re-leased at exactly its original
//! `[lo, hi)`, never split or shifted.

use crate::checkpoint::CheckpointRecord;
use crate::error::FabricError;
use rendezvous_runner::{SweepReport, WorkloadMeta};
use rendezvous_telemetry::ProgressCounts;
use std::collections::{BTreeMap, VecDeque};

/// A worker's identity on the fabric (its process id).
pub type WorkerId = u64;

/// Dispatch tuning for a [`Coordinator`].
#[derive(Debug, Clone, Copy)]
pub struct CoordinatorConfig {
    /// How many workers the driver launched — the auto-chunker's input.
    pub workers: usize,
    /// Lease chunk size in workload units; `0` picks one automatically
    /// (about eight chunks per worker, so uneven pieces still balance
    /// while tiny sweeps are not shredded into per-unit frames).
    pub chunk: usize,
    /// Silence budget: a worker unheard-from for longer than this has
    /// its in-flight leases requeued.
    pub lease_timeout_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> CoordinatorConfig {
        CoordinatorConfig {
            workers: 1,
            chunk: 0,
            lease_timeout_ms: 5_000,
        }
    }
}

/// The coordinator's answer to a lease request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseReply {
    /// Execute global range `[lo, hi)` of the requested sweep.
    Range {
        /// Inclusive global start index.
        lo: usize,
        /// Exclusive global end index.
        hi: usize,
    },
    /// Nothing leasable, sweep not complete — poll again shortly.
    Wait,
    /// Every range of the requested sweep is done.
    Complete,
}

/// Run counters surfaced to the driver after the merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Sweeps registered.
    pub sweeps: usize,
    /// Lease chunks across all sweeps (resumed ranges included).
    pub chunks: usize,
    /// Ranges requeued after their worker went silent or vanished.
    pub reassigned: usize,
    /// Duplicate results discarded (a "dead" worker turned out slow).
    pub duplicates: usize,
    /// Ranges satisfied from the checkpoint instead of executed.
    pub resumed: usize,
    /// Workers whose connection or deadline declared them lost.
    pub workers_lost: usize,
}

#[derive(Debug)]
enum Slot {
    Pending,
    Leased(WorkerId),
    Done(Box<SweepReport>),
}

#[derive(Debug)]
struct Chunk {
    lo: usize,
    hi: usize,
    slot: Slot,
}

#[derive(Debug)]
struct SweepState {
    meta: WorkloadMeta,
    /// Contiguous partition of `[0, meta.size)`, sorted by `lo`.
    chunks: Vec<Chunk>,
    /// Indices into `chunks` still leasable.
    queue: VecDeque<usize>,
    done: usize,
}

#[derive(Debug)]
struct WorkerState {
    last_seen_ms: u64,
    alive: bool,
    finished: bool,
    /// `(sweep, chunk index)` pairs this worker currently holds.
    leases: Vec<(usize, usize)>,
}

/// The fabric's dispatch state: sweeps, chunk partitions, lease
/// ownership, worker liveness. See the [module docs](self) for the
/// determinism argument.
#[derive(Debug)]
pub struct Coordinator {
    cfg: CoordinatorConfig,
    sweeps: Vec<SweepState>,
    workers: BTreeMap<WorkerId, WorkerState>,
    /// Checkpointed completed ranges, consumed as their sweeps register.
    resume: BTreeMap<usize, Vec<CheckpointRecord>>,
    stats: FabricStats,
}

impl Coordinator {
    /// Creates a coordinator, seeding it with the completed ranges of a
    /// prior run's checkpoint (empty slice for a fresh run).
    #[must_use]
    pub fn new(cfg: CoordinatorConfig, checkpoint: Vec<CheckpointRecord>) -> Coordinator {
        let resumed = checkpoint.len();
        Coordinator {
            cfg,
            sweeps: Vec::new(),
            workers: BTreeMap::new(),
            resume: by_sweep(checkpoint),
            stats: FabricStats {
                resumed,
                ..FabricStats::default()
            },
        }
    }

    /// Records proof of life from `worker` at `now_ms`, registering it
    /// on first contact. A worker previously declared lost that speaks
    /// again is revived — its requeued ranges stay requeued, but its
    /// future results are welcome (and idempotent).
    pub fn touch(&mut self, worker: WorkerId, now_ms: u64) {
        let state = self.workers.entry(worker).or_insert(WorkerState {
            last_seen_ms: now_ms,
            alive: true,
            finished: false,
            leases: Vec::new(),
        });
        state.last_seen_ms = now_ms;
        state.alive = true;
    }

    /// Handles a lease request: `worker` is at position `sweep` of the
    /// sweep sequence and fingerprints it as `meta`.
    ///
    /// The first request naming a sweep registers it, carving its chunk
    /// partition around any checkpointed ranges; later requests must
    /// agree on the fingerprint.
    ///
    /// # Errors
    ///
    /// [`FabricError::MetaMismatch`] on fingerprint disagreement,
    /// [`FabricError::Protocol`] for out-of-order sweep registration,
    /// [`FabricError::Checkpoint`] if the checkpointed ranges for this
    /// sweep are unusable.
    pub fn request(
        &mut self,
        worker: WorkerId,
        sweep: usize,
        meta: WorkloadMeta,
        now_ms: u64,
    ) -> Result<LeaseReply, FabricError> {
        self.touch(worker, now_ms);
        self.ensure_sweep(sweep, meta)?;
        let state = &mut self.sweeps[sweep];
        while let Some(idx) = state.queue.pop_front() {
            let chunk = &mut state.chunks[idx];
            if matches!(chunk.slot, Slot::Done(_)) {
                // Stale queue entry: the chunk was requeued after its
                // holder went silent, and the holder's late (zombie)
                // result then landed anyway. The fold is already in;
                // re-leasing it would double-count completion.
                continue;
            }
            chunk.slot = Slot::Leased(worker);
            let (lo, hi) = (chunk.lo, chunk.hi);
            self.workers
                .get_mut(&worker)
                .expect("touched above")
                .leases
                .push((sweep, idx));
            return Ok(LeaseReply::Range { lo, hi });
        }
        if state.done == state.chunks.len() {
            Ok(LeaseReply::Complete)
        } else {
            Ok(LeaseReply::Wait)
        }
    }

    /// Accepts the fold of leased range `[lo, hi)` of `sweep`.
    ///
    /// Returns the record to append to the checkpoint, or `None` when
    /// the result is a duplicate of an already-completed range (a
    /// requeue raced a slow worker) — duplicates are byte-identical by
    /// determinism, so either copy is *the* fold and the second is
    /// simply dropped.
    ///
    /// # Errors
    ///
    /// [`FabricError::Protocol`] if the range is not a chunk of the
    /// sweep's partition.
    pub fn result(
        &mut self,
        sweep: usize,
        lo: usize,
        hi: usize,
        report: SweepReport,
    ) -> Result<Option<CheckpointRecord>, FabricError> {
        let state = self
            .sweeps
            .get_mut(sweep)
            .ok_or_else(|| FabricError::Protocol(format!("result for unknown sweep #{sweep}")))?;
        let idx = state
            .chunks
            .binary_search_by(|c| c.lo.cmp(&lo))
            .map_err(|_| {
                FabricError::Protocol(format!(
                    "result range [{lo}, {hi}) is not on sweep #{sweep}'s chunk partition"
                ))
            })?;
        let chunk = &mut state.chunks[idx];
        if chunk.hi != hi {
            return Err(FabricError::Protocol(format!(
                "result range [{lo}, {hi}) disagrees with leased chunk [{lo}, {})",
                chunk.hi
            )));
        }
        if matches!(chunk.slot, Slot::Done(_)) {
            self.stats.duplicates += 1;
            return Ok(None);
        }
        chunk.slot = Slot::Done(Box::new(report.clone()));
        state.done += 1;
        let meta = state.meta;
        for w in self.workers.values_mut() {
            w.leases.retain(|&(s, i)| !(s == sweep && i == idx));
        }
        Ok(Some(CheckpointRecord {
            sweep,
            lo,
            hi,
            meta,
            report,
        }))
    }

    /// Requeues the in-flight ranges of every live worker silent for
    /// longer than the lease timeout as of `now_ms`. Returns how many
    /// ranges were requeued.
    pub fn expire(&mut self, now_ms: u64) -> usize {
        let deadline = self.cfg.lease_timeout_ms;
        let lost: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, w)| {
                w.alive && !w.finished && now_ms.saturating_sub(w.last_seen_ms) > deadline
            })
            .map(|(&id, _)| id)
            .collect();
        lost.into_iter().map(|id| self.worker_lost(id)).sum()
    }

    /// Declares `worker` lost right now (its connection closed),
    /// requeueing its in-flight ranges. Returns how many were requeued.
    /// A no-op for workers that already finished cleanly.
    pub fn worker_lost(&mut self, worker: WorkerId) -> usize {
        let Some(state) = self.workers.get_mut(&worker) else {
            return 0;
        };
        if state.finished {
            return 0;
        }
        if state.alive {
            state.alive = false;
            self.stats.workers_lost += 1;
        }
        let leases = std::mem::take(&mut state.leases);
        let requeued = leases.len();
        for &(sweep, idx) in leases.iter().rev() {
            let chunk = &mut self.sweeps[sweep].chunks[idx];
            debug_assert!(matches!(chunk.slot, Slot::Leased(w) if w == worker));
            chunk.slot = Slot::Pending;
            // Requeue at the front: the range has been waiting longest,
            // and a worker stuck in Wait on this sweep unblocks on its
            // very next poll.
            self.sweeps[sweep].queue.push_front(idx);
        }
        self.stats.reassigned += requeued;
        requeued
    }

    /// Marks `worker` cleanly finished: it walked the whole sweep
    /// sequence. Any lease it somehow still holds (a protocol oddity,
    /// not the normal path) is requeued first — without counting the
    /// worker as lost.
    pub fn worker_finished(&mut self, worker: WorkerId) {
        let Some(state) = self.workers.get_mut(&worker) else {
            return;
        };
        let leases = std::mem::take(&mut state.leases);
        state.finished = true;
        state.alive = true;
        self.stats.reassigned += leases.len();
        for &(sweep, idx) in leases.iter().rev() {
            self.sweeps[sweep].chunks[idx].slot = Slot::Pending;
            self.sweeps[sweep].queue.push_front(idx);
        }
    }

    /// The run's progress so far: totals are the registered sweeps'
    /// sizes and chunk counts, done counts the widths and number of
    /// `Done` chunks. Resumed ranges are done from registration; a
    /// requeued range counts once its result lands, and a duplicate
    /// result never counts again — so the reading is complete exactly
    /// when every registered chunk is.
    #[must_use]
    pub fn progress(&self) -> ProgressCounts {
        let mut counts = ProgressCounts::default();
        for sweep in &self.sweeps {
            counts.scenarios_total += to_u64(sweep.meta.size);
            counts.pieces_total += to_u64(sweep.chunks.len());
            counts.pieces_done += to_u64(sweep.done);
            for chunk in &sweep.chunks {
                if matches!(chunk.slot, Slot::Done(_)) {
                    counts.scenarios_done += to_u64(chunk.hi - chunk.lo);
                }
            }
        }
        counts
    }

    /// Chunks leased or pending, across all sweeps.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.sweeps.iter().map(|s| s.chunks.len() - s.done).sum()
    }

    /// Run counters for the driver's diagnostics.
    #[must_use]
    pub fn stats(&self) -> FabricStats {
        FabricStats {
            sweeps: self.sweeps.len(),
            chunks: self.sweeps.iter().map(|s| s.chunks.len()).sum(),
            ..self.stats
        }
    }

    /// Folds every sweep's chunk reports, in ascending range order, into
    /// the per-sweep merged reports — the exact payload the experiments
    /// binary's replay path renders.
    ///
    /// # Errors
    ///
    /// [`FabricError::Incomplete`] if any chunk never completed.
    pub fn merged(&self) -> Result<Vec<(WorkloadMeta, SweepReport)>, FabricError> {
        let outstanding = self.outstanding();
        if outstanding > 0 {
            return Err(FabricError::Incomplete { outstanding });
        }
        Ok(self.sweeps.iter().map(|s| (s.meta, s.fold())).collect())
    }

    /// Registers sweep `sweep` (fingerprint `meta`) if it is the next
    /// unregistered one, or checks the fingerprint if already known.
    fn ensure_sweep(&mut self, sweep: usize, meta: WorkloadMeta) -> Result<(), FabricError> {
        if let Some(state) = self.sweeps.get(sweep) {
            if state.meta != meta {
                return Err(FabricError::MetaMismatch {
                    sweep,
                    expected: state.meta.fingerprint(),
                    found: meta.fingerprint(),
                });
            }
            return Ok(());
        }
        if sweep != self.sweeps.len() {
            // Workers walk the sweep sequence densely in order, so the
            // first request for sweep k always follows sweep k-1.
            return Err(FabricError::Protocol(format!(
                "sweep #{sweep} requested before sweep #{}",
                self.sweeps.len()
            )));
        }
        let done_ranges = self.resume.remove(&sweep).unwrap_or_default();
        let state = build_sweep(sweep, meta, self.chunk_for(meta.size), done_ranges)?;
        self.sweeps.push(state);
        Ok(())
    }

    fn chunk_for(&self, size: usize) -> usize {
        if self.cfg.chunk > 0 {
            self.cfg.chunk
        } else {
            size.div_ceil(self.cfg.workers.max(1) * 8).max(1)
        }
    }
}

impl SweepState {
    /// The merge of every chunk's report, in ascending range order.
    fn fold(&self) -> SweepReport {
        self.chunks
            .iter()
            .fold(SweepReport::default(), |merged, chunk| match &chunk.slot {
                Slot::Done(report) => merged.merge(report),
                _ => unreachable!("a sweep is folded only once every chunk is done"),
            })
    }
}

/// Folds completed-range records — a checkpoint file, or the lines every
/// `--shard i/m` run prints — into one full `(meta, report)` pair per
/// sweep, through the checks a resuming coordinator applies to its
/// checkpoint: every record of a sweep carries the sweep's fingerprint
/// and no two ranges overlap. A merge must also be complete: the sweep
/// indices run densely from 0 and each sweep's ranges cover it whole.
///
/// # Errors
///
/// [`FabricError::Checkpoint`] naming the sweep: a fingerprint that
/// disagrees, an overlap (a duplicated shard), an uncovered range (a
/// missing shard), or a sweep index with no records at all.
pub fn merge_records(
    records: Vec<CheckpointRecord>,
) -> Result<Vec<(WorkloadMeta, SweepReport)>, FabricError> {
    let mut by_sweep = by_sweep(records);
    let count = by_sweep.last_key_value().map_or(0, |(&last, _)| last + 1);
    (0..count)
        .map(|sweep| {
            let done = by_sweep.remove(&sweep).ok_or_else(|| {
                FabricError::Checkpoint(format!("sweep #{sweep} has no records at all"))
            })?;
            let meta = done[0].meta;
            // Chunks as large as the sweep: each gap becomes exactly one
            // pending chunk, so a refusal names the whole uncovered range.
            let state = build_sweep(sweep, meta, meta.size.max(1), done)?;
            match state
                .chunks
                .iter()
                .find(|c| matches!(c.slot, Slot::Pending))
            {
                Some(gap) => Err(FabricError::Checkpoint(format!(
                    "sweep #{sweep}: range [{}, {}) of {} is not covered",
                    gap.lo,
                    gap.hi,
                    meta.fingerprint()
                ))),
                None => Ok((meta, state.fold())),
            }
        })
        .collect()
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Groups records by sweep index.
fn by_sweep(records: Vec<CheckpointRecord>) -> BTreeMap<usize, Vec<CheckpointRecord>> {
    let mut grouped: BTreeMap<usize, Vec<CheckpointRecord>> = BTreeMap::new();
    for rec in records {
        grouped.entry(rec.sweep).or_default().push(rec);
    }
    grouped
}

/// Carves sweep `sweep`'s partition: checkpointed ranges become `Done`
/// chunks as-is; the gaps between them are cut into `chunk`-sized
/// `Pending` chunks.
fn build_sweep(
    sweep: usize,
    meta: WorkloadMeta,
    chunk: usize,
    mut done: Vec<CheckpointRecord>,
) -> Result<SweepState, FabricError> {
    done.sort_by_key(|r| r.lo);
    let mut chunks = Vec::new();
    let mut queue = VecDeque::new();
    let mut cursor = 0usize;
    for rec in done {
        if rec.meta != meta {
            return Err(FabricError::Checkpoint(format!(
                "sweep #{sweep}: record fingerprint {} disagrees with the run's {}",
                rec.meta.fingerprint(),
                meta.fingerprint()
            )));
        }
        if rec.lo < cursor || rec.hi > meta.size || rec.lo >= rec.hi {
            return Err(FabricError::Checkpoint(format!(
                "sweep #{sweep}: range [{}, {}) overlaps a neighbor or exceeds size {}",
                rec.lo, rec.hi, meta.size
            )));
        }
        carve_gap(cursor, rec.lo, chunk, &mut chunks, &mut queue);
        chunks.push(Chunk {
            lo: rec.lo,
            hi: rec.hi,
            slot: Slot::Done(Box::new(rec.report)),
        });
        cursor = rec.hi;
    }
    carve_gap(cursor, meta.size, chunk, &mut chunks, &mut queue);
    let done_count = chunks
        .iter()
        .filter(|c| matches!(c.slot, Slot::Done(_)))
        .count();
    Ok(SweepState {
        meta,
        chunks,
        queue,
        done: done_count,
    })
}

fn carve_gap(
    lo: usize,
    hi: usize,
    chunk: usize,
    chunks: &mut Vec<Chunk>,
    queue: &mut VecDeque<usize>,
) {
    let mut at = lo;
    while at < hi {
        let end = (at + chunk).min(hi);
        queue.push_back(chunks.len());
        chunks.push(Chunk {
            lo: at,
            hi: end,
            slot: Slot::Pending,
        });
        at = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::{GroupStats, WorkloadKind};

    fn meta(digest: u64, size: usize) -> WorkloadMeta {
        WorkloadMeta {
            kind: WorkloadKind::Grid,
            digest,
            full_size: size,
            size,
        }
    }

    /// A record of `[lo, hi)` whose fold executed every unit of it.
    fn record(sweep: usize, lo: usize, hi: usize, meta: WorkloadMeta) -> CheckpointRecord {
        let mut report = SweepReport::default();
        report.groups.push(GroupStats {
            executed: hi - lo,
            meetings: hi - lo,
            ..GroupStats::default()
        });
        CheckpointRecord {
            sweep,
            lo,
            hi,
            meta,
            report,
        }
    }

    fn refusal(records: Vec<CheckpointRecord>) -> String {
        match merge_records(records) {
            Err(FabricError::Checkpoint(msg)) => msg,
            other => panic!("expected a checkpoint refusal, got {other:?}"),
        }
    }

    fn counts(done: u64, total: u64, pieces_done: u64, pieces: u64) -> ProgressCounts {
        ProgressCounts {
            scenarios_done: done,
            scenarios_total: total,
            pieces_done,
            pieces_total: pieces,
        }
    }

    /// Reads the coordinator's progress, checking that it is complete
    /// exactly when no chunk is outstanding.
    fn progress(c: &Coordinator) -> ProgressCounts {
        let p = c.progress();
        let complete = p.scenarios_done == p.scenarios_total && p.pieces_done == p.pieces_total;
        assert_eq!(complete, c.outstanding() == 0, "{p:?}");
        p
    }

    fn lease(
        c: &mut Coordinator,
        worker: WorkerId,
        sweep: usize,
        m: WorkloadMeta,
    ) -> (usize, usize) {
        match c.request(worker, sweep, m, 0).unwrap() {
            LeaseReply::Range { lo, hi } => (lo, hi),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    fn land(c: &mut Coordinator, sweep: usize, lo: usize, hi: usize, m: WorkloadMeta) -> bool {
        let report = record(sweep, lo, hi, m).report;
        c.result(sweep, lo, hi, report).unwrap().is_some()
    }

    #[test]
    fn progress_counts_each_range_once_when_its_result_lands() {
        let cfg = CoordinatorConfig {
            workers: 2,
            chunk: 4,
            lease_timeout_ms: 5_000,
        };
        let a = meta(1, 10);
        let mut c = Coordinator::new(cfg, Vec::new());
        assert_eq!(progress(&c), ProgressCounts::default());
        // A fresh sweep reads 0/size over its chunks [0,4) [4,8) [8,10).
        assert_eq!(lease(&mut c, 1, 0, a), (0, 4));
        assert_eq!(progress(&c), counts(0, 10, 0, 3));
        assert_eq!(lease(&mut c, 2, 0, a), (4, 8));
        assert!(land(&mut c, 0, 0, 4, a));
        assert_eq!(progress(&c), counts(4, 10, 1, 3));
        // A duplicate result leaves the counts unchanged.
        assert!(!land(&mut c, 0, 0, 4, a));
        assert_eq!(progress(&c), counts(4, 10, 1, 3));
        // Worker 2 dies holding [4, 8): requeued, not counted ...
        assert_eq!(c.worker_lost(2), 1);
        assert_eq!(progress(&c), counts(4, 10, 1, 3));
        // ... until its re-leased result lands; the zombie copy is a
        // duplicate.
        assert_eq!(lease(&mut c, 1, 0, a), (4, 8));
        assert_eq!(progress(&c), counts(4, 10, 1, 3));
        assert!(land(&mut c, 0, 4, 8, a));
        assert!(!land(&mut c, 0, 4, 8, a));
        assert_eq!(progress(&c), counts(8, 10, 2, 3));
        assert_eq!(lease(&mut c, 1, 0, a), (8, 10));
        assert!(land(&mut c, 0, 8, 10, a));
        assert_eq!(progress(&c), counts(10, 10, 3, 3));
        assert_eq!(c.request(1, 0, a, 0).unwrap(), LeaseReply::Complete);
        // Registering the next sweep raises the totals again.
        let b = meta(2, 3);
        assert_eq!(lease(&mut c, 1, 1, b), (0, 3));
        assert_eq!(progress(&c), counts(10, 13, 3, 4));
    }

    #[test]
    fn progress_reads_resumed_ranges_as_done_at_registration() {
        let cfg = CoordinatorConfig {
            workers: 1,
            chunk: 4,
            lease_timeout_ms: 5_000,
        };
        let (a, b) = (meta(1, 10), meta(2, 6));
        let checkpoint = vec![record(0, 0, 5, a), record(1, 0, 6, b)];
        let mut c = Coordinator::new(cfg, checkpoint);
        // Sweep 0: [0,5) resumed, then [5,9) [9,10) pending.
        assert_eq!(lease(&mut c, 1, 0, a), (5, 9));
        assert_eq!(progress(&c), counts(5, 10, 1, 3));
        assert!(land(&mut c, 0, 5, 9, a));
        assert_eq!(lease(&mut c, 1, 0, a), (9, 10));
        assert!(land(&mut c, 0, 9, 10, a));
        assert_eq!(progress(&c), counts(10, 10, 3, 3));
        // Sweep 1 is wholly resumed: complete the moment it registers.
        assert_eq!(c.request(1, 1, b, 0).unwrap(), LeaseReply::Complete);
        assert_eq!(progress(&c), counts(16, 16, 4, 4));
    }

    #[test]
    fn merge_folds_ranges_in_any_order_into_one_report_per_sweep() {
        let (a, b) = (meta(1, 10), meta(2, 4));
        let merged = merge_records(vec![
            record(1, 0, 4, b),
            record(0, 6, 10, a),
            record(0, 0, 6, a),
        ])
        .unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].0, merged[0].1.executed()), (a, 10));
        assert_eq!((merged[1].0, merged[1].1.executed()), (b, 4));
        assert!(merge_records(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn merge_refuses_a_gap_naming_the_sweep_and_the_range() {
        let a = meta(1, 10);
        let msg = refusal(vec![record(0, 0, 3, a), record(0, 7, 10, a)]);
        assert!(
            msg.contains("sweep #0") && msg.contains("[3, 7)") && msg.contains("not covered"),
            "{msg}"
        );
        let msg = refusal(vec![record(0, 0, 10, a), record(1, 2, 4, meta(2, 4))]);
        assert!(msg.contains("sweep #1") && msg.contains("[0, 2)"), "{msg}");
    }

    #[test]
    fn merge_refuses_an_overlap_naming_the_sweep() {
        let a = meta(1, 10);
        // A duplicated shard file: the same range twice.
        let msg = refusal(vec![
            record(0, 0, 5, a),
            record(0, 5, 10, a),
            record(0, 5, 10, a),
        ]);
        assert!(
            msg.contains("sweep #0") && msg.contains("overlaps"),
            "{msg}"
        );
    }

    #[test]
    fn merge_refuses_a_disagreeing_fingerprint_naming_both() {
        let (a, other) = (meta(1, 10), meta(9, 10));
        let msg = refusal(vec![record(0, 0, 5, a), record(0, 5, 10, other)]);
        assert!(
            msg.contains("sweep #0")
                && msg.contains(&a.fingerprint())
                && msg.contains(&other.fingerprint()),
            "{msg}"
        );
    }

    #[test]
    fn merge_refuses_a_sweep_index_with_no_records() {
        let msg = refusal(vec![
            record(0, 0, 4, meta(1, 4)),
            record(2, 0, 4, meta(3, 4)),
        ]);
        assert!(
            msg.contains("sweep #1") && msg.contains("no records"),
            "{msg}"
        );
    }
}
