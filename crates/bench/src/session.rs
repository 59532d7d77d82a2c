//! The execution plan of one experiments run, passed explicitly.
//!
//! Every sweep of the experiments — pair grids, the lower-bound audits'
//! trims, gathering fleets, topology sweeps — runs through
//! [`Session::sweep`], the single workload→report path: the runner
//! (with its optional telemetry sink), the engine, the optional result
//! store, and the [`ExecPlan`] that decides what the sweep does —
//! execute in full, preview, execute one shard, replay a merged ledger,
//! or pull fabric leases. The experiments binary parses its command line into exactly
//! one plan; library callers, benches and tests use
//! [`Session::direct`]. Nothing here is process-global, so sessions
//! with different engines, stores or plans can run side by side in one
//! process.
//!
//! The result store sits in front of every plan but `DryRun`: a hit
//! returns the cached [`SweepReport`] byte-identically and executes
//! **zero** scenarios; a miss falls through to the plan — including the
//! fabric, so novel sweeps schedule onto the worker fleet — and only a
//! *full* report (direct execution or merged replay) is written back.
//! Every process of a run (driver, shards, fabric workers) opens the
//! same store and derives the same [`StoreKey`] per sweep, so all of
//! them skip the same sweeps and their sweep positions stay aligned
//! without any message about the cache crossing a process boundary.

use crate::engine::Engine;
use crate::fabric::WorkerSession;
use rendezvous_fabric::CheckpointRecord;
use rendezvous_runner::{PieceExecutor, Runner, SweepReport, Workload, WorkloadMeta};
use rendezvous_store::{Miss, Store, StoreKey};
use rendezvous_telemetry::{Metrics, Scope};
use std::sync::Arc;

/// What every recorded sweep of a run does.
pub enum ExecPlan {
    /// Execute every sweep in full — the ordinary single-process path.
    Direct,
    /// `--plan`: print one line per sweep — its position, context,
    /// canonical fingerprint ([`WorkloadMeta::fingerprint`], the
    /// identity the fabric leases against and the store addresses by)
    /// and piece count, plus `store=cached|miss` when a store is open —
    /// and execute nothing.
    DryRun,
    /// `--shard i/m`: execute only shard `shard` of `of` of every sweep
    /// and record each partial fold in `ledger` as a fabric
    /// [`CheckpointRecord`] of the shard's range — one per sweep whose
    /// range is non-empty, in call order.
    Shard {
        /// Shard index.
        shard: usize,
        /// Shard count.
        of: usize,
        /// The records of the sweeps executed so far.
        ledger: Vec<CheckpointRecord>,
    },
    /// `--merge-shards` and the `--fabric` driver: every sweep consumes
    /// the merged ledger's next record instead of executing.
    Replay(MergedLedger),
    /// `--fabric-worker ADDR`: every sweep pulls lease ranges from the
    /// coordinator.
    FabricWorker(WorkerSession),
}

impl ExecPlan {
    /// The plan of shard `shard` of `of`, with an empty ledger.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= of`.
    #[must_use]
    pub fn shard(shard: usize, of: usize) -> ExecPlan {
        assert!(shard < of, "invalid shard {shard}/{of}");
        ExecPlan::Shard {
            shard,
            of,
            ledger: Vec::new(),
        }
    }
}

/// The merged ledger of a run — from `--merge-shards` or the fabric
/// coordinator: one full `(meta, report)` pair per sweep, in sweep
/// order, plus the provenance string replay diagnostics name.
#[derive(Debug, Clone, Default)]
pub struct MergedLedger {
    /// One `(fingerprint, full fold)` pair per recorded sweep.
    pub records: Vec<(WorkloadMeta, SweepReport)>,
    /// Where the records came from (shard file names or the fabric
    /// coordinator).
    pub source: String,
}

impl MergedLedger {
    /// The report replaying sweep `sweep` of the run, which must have
    /// fingerprint `meta`.
    ///
    /// # Errors
    ///
    /// When the ledger is exhausted or its record has another
    /// fingerprint: the message names the sweep's position in the
    /// sequence, both fingerprints (or the ledger's length), and the
    /// ledger's source.
    pub fn record(&self, sweep: usize, meta: &WorkloadMeta) -> Result<&SweepReport, String> {
        match self.records.get(sweep) {
            None => Err(format!(
                "sweep #{sweep} ({}) requested but the merged ledger from {} \
                 holds only {} records — the shard runs covered a different \
                 experiment selection",
                meta.fingerprint(),
                self.source,
                self.records.len()
            )),
            Some((found, _)) if found != meta => Err(format!(
                "sweep #{sweep} expected {} but the merged ledger from {} \
                 recorded {} — shard and merge runs must use identical \
                 experiment selections and flags",
                meta.fingerprint(),
                self.source,
                found.fingerprint()
            )),
            Some((_, report)) => Ok(report),
        }
    }
}

/// One [`Session::sweep`] answer.
#[derive(Debug)]
pub struct Swept {
    /// The sweep's report: full under a direct or replay plan, a
    /// partial fold under a shard or worker plan, empty in a dry run.
    pub report: SweepReport,
    /// True when the session's store served the report.
    pub cached: bool,
    /// The store key addressing the sweep under the session's engine —
    /// derived once per sweep, for the `--plan` store column, the
    /// lookup, the write-back and the sweep service's token.
    pub key: StoreKey,
}

/// Everything a sweep needs to run: see the [module docs](self).
pub struct Session {
    /// Executes every sweep; its telemetry sink, if any, is the
    /// session's.
    pub runner: Runner,
    /// Which executors the pair and topology sweeps run through.
    pub engine: Engine,
    /// The read-through result cache (`--store`).
    pub store: Option<Store>,
    plan: ExecPlan,
    /// Position of the next sweep that reaches the plan: the `--plan`
    /// line number, the replay cursor, and the fabric's sweep identity.
    cursor: usize,
}

impl Session {
    /// A session executing every sweep in full on `runner` — the
    /// default for benches, examples and tests.
    #[must_use]
    pub fn direct(runner: Runner) -> Session {
        Session::new(runner, ExecPlan::Direct)
    }

    /// A session running `plan` on `runner` with the stepped engine and
    /// no store.
    #[must_use]
    pub fn new(runner: Runner, plan: ExecPlan) -> Session {
        Session {
            runner,
            engine: Engine::default(),
            store: None,
            plan,
            cursor: 0,
        }
    }

    /// Selects the sweep engine.
    #[must_use]
    pub fn with_engine(mut self, engine: Engine) -> Session {
        self.engine = engine;
        self
    }

    /// Puts `store` in front of every sweep.
    #[must_use]
    pub fn with_store(mut self, store: Store) -> Session {
        self.store = Some(store);
        self
    }

    /// Attaches a telemetry sink: the runner counts execution, and
    /// every executor the session builds reports into it. The sink only
    /// observes — it never enters a fold.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Session {
        self.runner = self.runner.with_metrics(metrics);
        self
    }

    /// The attached telemetry sink, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.runner.metrics()
    }

    /// True when sweeps return full reports, so a run's rows are worth
    /// printing: direct execution and replay. Shard and worker folds
    /// are partial, and a dry run has none.
    #[must_use]
    pub fn emits_rows(&self) -> bool {
        matches!(self.plan, ExecPlan::Direct | ExecPlan::Replay(_))
    }

    /// Runs one sweep under the plan and returns its report, whether
    /// the store served it, and its store key.
    ///
    /// # Panics
    ///
    /// Panics on any execution error, on an empty workload (`context`
    /// names the sweep in the message), when a store write fails, and —
    /// in replay mode — when the merged ledger's next record disagrees
    /// with this run's workload.
    pub fn sweep<W, E>(&mut self, context: &str, workload: &W, executor: &E) -> Swept
    where
        W: Workload + ?Sized,
        E: PieceExecutor + ?Sized,
    {
        let meta = workload.meta();
        let key = StoreKey::new(context, &meta, self.engine.name());
        let answer = |report, cached, key| Swept {
            report,
            cached,
            key,
        };
        // The empty report is safe downstream for the same reason empty
        // shard folds are: every experiment tolerates partial stats, and
        // a dry run emits no rows.
        if let ExecPlan::DryRun = self.plan {
            self.note(
                context,
                &meta,
                &key,
                workload.pieces(0, workload.size()).len(),
            );
            return answer(SweepReport::default(), false, key);
        }
        if let Some(report) = self.lookup(context, &key) {
            return answer(report, true, key);
        }
        let sweep = self.cursor;
        self.cursor += 1;
        // Sweeps *executed* here count; a replayed record stands in for
        // execution and a cached one skips it, so neither counts.
        if !matches!(self.plan, ExecPlan::Replay(_)) {
            if let Some(metrics) = self.metrics() {
                metrics.counter(Scope::Process, "sweeps").inc();
            }
        }
        let report = match &mut self.plan {
            ExecPlan::DryRun => unreachable!("dry runs return above"),
            ExecPlan::Direct => self
                .runner
                .sweep(workload, executor)
                .unwrap_or_else(|e| panic!("adversarial sweep failed for {context}: {e}")),
            // Partial folds from here on: a shard of a small workload may
            // legitimately be empty, and none of them reaches the store.
            ExecPlan::Shard { shard, of, ledger } => {
                assert!(workload.size() > 0, "empty adversarial sweep for {context}");
                let (lo, hi) = workload.shard(*shard, *of);
                let report = self
                    .runner
                    .sweep_range(workload, lo, hi, executor)
                    .unwrap_or_else(|e| {
                        panic!("adversarial shard sweep failed for {context}: {e}")
                    });
                if lo < hi {
                    ledger.push(CheckpointRecord {
                        sweep,
                        lo,
                        hi,
                        meta,
                        report: report.clone(),
                    });
                }
                return answer(report, false, key);
            }
            ExecPlan::FabricWorker(worker) => {
                let report = worker.sweep(sweep, context, workload, executor, &self.runner);
                return answer(report, false, key);
            }
            ExecPlan::Replay(ledger) => ledger
                .record(sweep, &meta)
                .unwrap_or_else(|msg| panic!("{msg}"))
                .clone(),
        };
        assert!(
            report.executed() > 0,
            "empty adversarial sweep for {context} — misconfigured workload \
             (no label pairs, no delays, or a graph without distinct start pairs)"
        );
        self.record(context, &key, &meta, &report);
        answer(report, false, key)
    }

    /// Ends the run: a shard plan returns its records for emission, a
    /// replay checks every merged record was consumed, and a fabric
    /// worker hands the coordinator its telemetry snapshot.
    ///
    /// # Panics
    ///
    /// Panics if merged records remain unconsumed (the merge inputs came
    /// from a different experiment selection than the replay run) or a
    /// fabric worker cannot deliver its snapshot.
    pub fn finish(self) -> Option<Vec<CheckpointRecord>> {
        match self.plan {
            ExecPlan::Shard { ledger, .. } => Some(ledger),
            ExecPlan::Replay(ledger) => {
                assert_eq!(
                    self.cursor,
                    ledger.records.len(),
                    "replay consumed {} of {} merged sweeps from {} — the shard runs \
                     covered a different experiment selection than this merge run",
                    self.cursor,
                    ledger.records.len(),
                    ledger.source
                );
                None
            }
            ExecPlan::FabricWorker(worker) => {
                worker.finish(self.runner.metrics());
                None
            }
            ExecPlan::Direct | ExecPlan::DryRun => None,
        }
    }

    /// Prints one `--plan` line (stdout: the plan *is* the output in
    /// this mode). With a store the line gains a `store=` column from
    /// the same lookup a real run makes, so its prediction is exact.
    fn note(&mut self, context: &str, meta: &WorkloadMeta, key: &StoreKey, pieces: usize) {
        let store = match &self.store {
            Some(store) if store.load(key).is_ok() => " store=cached",
            Some(_) => " store=miss",
            None => "",
        };
        println!(
            "plan: sweep #{}: {context} fingerprint={} pieces={pieces}{store}",
            self.cursor,
            meta.fingerprint()
        );
        self.cursor += 1;
    }

    /// Consults the store for a cached report. `None` without a store
    /// or on any typed miss (absent, corrupt, schema drift, an entry at
    /// the wrong address) — the caller executes, exactly as without a
    /// store. A hit counts `store_hits`, a miss `store_misses`, under
    /// the process scope (cache behavior is a property of this run's
    /// store, not of the swept space).
    fn lookup(&self, context: &str, key: &StoreKey) -> Option<SweepReport> {
        let store = self.store.as_ref()?;
        let loaded = store.load(key);
        if let Some(metrics) = self.metrics() {
            let name = if loaded.is_ok() {
                "store_hits"
            } else {
                "store_misses"
            };
            metrics.counter(Scope::Process, name).inc();
        }
        match loaded {
            Ok(report) => Some(report),
            // A demoted entry (anything but plain absence) is worth a
            // visible note on stderr — the run recomputes either way, but
            // silent corruption would make `store verify` the only way to
            // ever learn about it.
            Err(miss) => {
                if miss != Miss::Absent {
                    eprintln!("store: recomputing {context}: {miss}");
                }
                None
            }
        }
    }

    /// Writes a **full** sweep report back to the store, if one is open.
    ///
    /// # Panics
    ///
    /// Panics if the write fails — a cache that silently stops recording
    /// would make cold and warm runs diverge in what they execute.
    fn record(&self, context: &str, key: &StoreKey, meta: &WorkloadMeta, report: &SweepReport) {
        if let Some(store) = &self.store {
            store
                .save(key, context, self.engine.name(), meta, report)
                .unwrap_or_else(|e| panic!("cannot record {context} in the result store: {e}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{all_label_pairs, ring_setup, standard_delays, sweep_worst};
    use rendezvous_core::{Cheap, LabelSpace, RendezvousAlgorithm};
    use rendezvous_runner::GroupStats;

    fn cheap_ring() -> Cheap {
        let (g, ex) = ring_setup(6);
        Cheap::new(g, ex, LabelSpace::new(4).unwrap())
    }

    fn worst(alg: &Cheap, session: &mut Session) -> GroupStats {
        sweep_worst(
            alg,
            &all_label_pairs(4),
            &standard_delays(5),
            4 * alg.time_bound(),
            session,
        )
    }

    /// An attached sink makes `sweep_worst` observable — sweeps counted,
    /// plan-cache hit rate visible, batch classification recorded —
    /// while the measured statistics stay exactly what an unobserved
    /// sweep produces.
    #[test]
    fn attached_metrics_observe_sweep_worst() {
        let metrics = Arc::new(Metrics::new());
        let mut session =
            Session::direct(Runner::with_threads(2)).with_metrics(Arc::clone(&metrics));
        assert!(Arc::ptr_eq(session.metrics().unwrap(), &metrics));
        let alg = cheap_ring();

        // One stepped sweep, then the same grid batched: both engines
        // feed the same sink, and the stats they return must agree.
        let stepped = worst(&alg, &mut session);
        session.engine = Engine::Batched;
        let batched = worst(&alg, &mut session);
        assert_eq!(stepped.max_time, batched.max_time);
        assert_eq!(stepped.max_cost, batched.max_cost);

        let snap = metrics.snapshot();
        // Both sweeps executed here (a direct plan): counted.
        assert_eq!(snap.process.get("sweeps"), Some(&2));
        let executed = snap.counters["scenarios_executed"];
        assert_eq!(executed, u64::try_from(2 * stepped.executed).unwrap());
        // A nonzero plan-cache hit rate (labels repeat across start
        // pairs and delays) and a nonzero batched classification from
        // the second sweep.
        assert!(snap.process["plan_cache_hits"] > 0, "{snap:?}");
        assert!(snap.process["plan_cache_misses"] > 0, "{snap:?}");
        assert!(snap.counters["scenarios_batched"] > 0, "{snap:?}");
        assert!(snap.process["batch_groups"] > 0, "{snap:?}");
        // Live progress advanced in lockstep with execution.
        let counts = metrics.progress().counts();
        assert_eq!(counts.scenarios_done, executed);
        assert_eq!(counts.scenarios_done, counts.scenarios_total);
    }

    /// Two sessions with different engines, stores and sinks in one
    /// process: each computes once and then serves from its own store,
    /// and all four answers agree.
    #[test]
    fn side_by_side_sessions_keep_their_own_engine_and_store() {
        let root = std::env::temp_dir().join(format!(
            "rendezvous-session-side-by-side-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let open = |engine: Engine| {
            let store = Store::open(&root.join(engine.name())).unwrap();
            let metrics = Arc::new(Metrics::new());
            let session = Session::direct(Runner::with_threads(2))
                .with_engine(engine)
                .with_store(store)
                .with_metrics(Arc::clone(&metrics));
            (session, metrics)
        };
        let (mut stepped, stepped_metrics) = open(Engine::Stepped);
        let (mut batched, batched_metrics) = open(Engine::Batched);
        let alg = cheap_ring();
        let answers: Vec<String> = [
            worst(&alg, &mut stepped),
            worst(&alg, &mut batched),
            worst(&alg, &mut stepped),
            worst(&alg, &mut batched),
        ]
        .iter()
        .map(|stats| serde_json::to_string(stats).unwrap())
        .collect();
        assert!(answers.iter().all(|a| *a == answers[0]), "{answers:?}");
        for metrics in [stepped_metrics, batched_metrics] {
            let snap = metrics.snapshot();
            assert_eq!(snap.process.get("sweeps"), Some(&1), "{snap:?}");
            assert_eq!(snap.process.get("store_misses"), Some(&1), "{snap:?}");
            assert_eq!(snap.process.get("store_hits"), Some(&1), "{snap:?}");
        }
        // The engine is part of the store key, so the two stores hold
        // differently addressed entries for the same sweep.
        let entries = |engine: Engine| -> Vec<_> {
            std::fs::read_dir(root.join(engine.name()))
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect()
        };
        let (stepped_entries, batched_entries) =
            (entries(Engine::Stepped), entries(Engine::Batched));
        assert_eq!((stepped_entries.len(), batched_entries.len()), (1, 1));
        assert_ne!(stepped_entries, batched_entries);
        let _ = std::fs::remove_dir_all(&root);
    }
}
