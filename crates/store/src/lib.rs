//! Content-addressed on-disk store for sweep reports — the caching half
//! of the workspace's "serve millions of users" posture.
//!
//! A sweep is a pure function of its workload
//! ([`WorkloadMeta`](rendezvous_runner::WorkloadMeta) carries a content
//! digest of the enumerated space and of the algorithm that runs it)
//! plus the sweep's context and engine, so its [`SweepReport`] can be
//! cached and replayed byte-identically. The store keeps **one file per
//! entry** under a root directory, named by a canonical [`StoreKey`]
//! token that composes the schema version, the engine, the sweep's
//! human context and the workload fingerprint — so `ls` on the root
//! reads as a cache manifest and two different sweeps can never collide
//! on a path.
//!
//! The discipline, in three rules:
//!
//! * **Writes are atomic.** [`Store::save`] writes a hidden temp file
//!   and renames it into place; a crashed writer leaves either the old
//!   entry or the new one, never a torn file.
//! * **Reads never trust the disk.** A read treats *anything*
//!   unexpected — a missing file, truncated JSON, garbage bytes, a
//!   schema from a different store generation, an entry filed under
//!   the wrong address — as a typed [`Miss`], so a cache consumer's
//!   only two outcomes are "the exact bytes we wrote" or "recompute".
//!   Corruption can demote a hit to a miss; it can never serve a wrong
//!   report or panic.
//! * **One address check.** Each entry (layout v2: `schema`, `context`,
//!   `engine`, `meta`, `report`) carries exactly the provenance its key
//!   is derived from, and it is served only when `StoreKey::new(context,
//!   meta, engine)`, re-derived from that header, equals the token it was
//!   read under. [`Store::load`], [`Store::load_token`] and
//!   [`Store::verify`] — the `store verify DIR` fsck — all go through
//!   that one check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rendezvous_runner::{Fnv1a, SweepReport, WorkloadMeta};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Version of the on-disk entry layout. Bump it when the entry format
/// (or anything that feeds report bytes or sweep identities, like the
/// fold semantics or the workload digest) changes incompatibly: every
/// entry written under another version becomes a typed
/// [`Miss::SchemaMismatch`] instead of a wrong answer, and every key
/// addresses a fresh file. Version 2 folds the executing algorithm into
/// pair and fleet grid digests, so version-1 stores — which may hold
/// one entry for two algorithms — all miss.
pub const SCHEMA_VERSION: u32 = 2;

/// The canonical content address of one cached sweep: schema version +
/// engine + sanitized context + a digest of the raw `(context, engine)`
/// pair + the workload's canonical
/// [`fingerprint`](rendezvous_runner::WorkloadMeta::fingerprint).
///
/// The sanitized context keeps the file name readable; the digest keeps
/// it collision-proof when sanitization folds two contexts together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreKey {
    token: String,
}

impl StoreKey {
    /// Derives the key for a sweep named `context` (the experiment's
    /// human label, e.g. `"x1 cheap n=8 l=4"`), over the workload
    /// described by `meta`, executed by `engine`.
    #[must_use]
    pub fn new(context: &str, meta: &WorkloadMeta, engine: &str) -> StoreKey {
        let mut h = Fnv1a::new();
        h.write_bytes(context.as_bytes());
        h.write_bytes(&[0]);
        h.write_bytes(engine.as_bytes());
        let token = format!(
            "v{SCHEMA_VERSION}-{engine}-{}-{:08x}-{}",
            sanitize(context),
            // The low half is plenty for disambiguating same-sanitization
            // contexts; the workload digest in the fingerprint carries
            // the heavy identity.
            h.finish() & 0xffff_ffff,
            meta.fingerprint()
        );
        StoreKey { token }
    }

    /// The file-name token (without the `.json` extension).
    #[must_use]
    pub fn token(&self) -> &str {
        &self.token
    }
}
/// Lowercases and folds `context` into a file-name-safe slug: runs of
/// anything but ASCII alphanumerics become single dashes.
fn sanitize(context: &str) -> String {
    let mut out = String::with_capacity(context.len());
    for c in context.chars() {
        if c.is_ascii_alphanumeric() {
            out.extend(c.to_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    let trimmed = out.trim_matches('-');
    if trimmed.is_empty() {
        "sweep".to_string()
    } else {
        trimmed.to_string()
    }
}

/// One on-disk entry: the provenance header plus the cached report. The
/// header is exactly what the entry's [`StoreKey`] is derived from,
/// which is what lets every read re-derive the address from the content
/// alone and refuse an entry filed under any other token.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entry {
    /// Entry layout version ([`SCHEMA_VERSION`] at write time).
    pub schema: u32,
    /// The sweep's human context label.
    pub context: String,
    /// The engine that executed the sweep (`"stepped"` / `"batched"` —
    /// engines are byte-equivalent by construction, but the cache keys
    /// them apart so an engine regression can never hide behind a cache
    /// hit from the other engine).
    pub engine: String,
    /// The workload's full self-description.
    pub meta: WorkloadMeta,
    /// The cached fold.
    pub report: SweepReport,
}

/// Why a lookup did not produce a cached report. Every variant is a
/// *miss*, not an error: the consumer recomputes (and usually
/// re-populates), it never fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Miss {
    /// No entry under this key.
    Absent,
    /// The entry exists but cannot be decoded — truncation, garbage
    /// bytes, an unreadable file.
    Corrupt(String),
    /// The entry was written by a different store generation.
    SchemaMismatch {
        /// The `schema` recorded in the entry.
        found: u32,
    },
    /// The address re-derived from the entry's own header is not the
    /// token it was read under: the entry describes another sweep (it
    /// was copied, renamed or planted).
    FingerprintMismatch {
        /// The address the entry's header derives.
        found: String,
        /// The address the entry was requested under.
        expected: String,
    },
}

impl fmt::Display for Miss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Miss::Absent => write!(f, "absent"),
            Miss::Corrupt(why) => write!(f, "corrupt entry: {why}"),
            Miss::SchemaMismatch { found } => {
                write!(f, "schema v{found} entry in a v{SCHEMA_VERSION} store")
            }
            Miss::FingerprintMismatch { found, expected } => write!(
                f,
                "entry address {found} (derived from its header) does not match \
                 the requested address {expected}"
            ),
        }
    }
}

/// A failure writing to the store — unlike reads, writes surface their
/// io errors (a cache that silently stops recording is a determinism
/// hazard: cold and warm runs would diverge in what they execute).
#[derive(Debug)]
pub struct StoreError(String);

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

/// What `store verify` found wrong with one entry file.
#[derive(Debug, Clone)]
pub struct VerifyProblem {
    /// The entry's file name within the store root.
    pub file: String,
    /// What disagrees.
    pub problem: String,
}

/// The result of an fsck walk: how many entries would be served, and
/// every file that would not.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Entries that decode and sit at the address their header derives.
    pub ok: usize,
    /// Everything else, in file-name order.
    pub problems: Vec<VerifyProblem>,
}

impl VerifyReport {
    /// `true` when the walk found nothing wrong.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A content-addressed report store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the directory cannot be created.
    pub fn open(root: &Path) -> Result<Store, StoreError> {
        std::fs::create_dir_all(root)
            .map_err(|e| StoreError(format!("cannot create {}: {e}", root.display())))?;
        Ok(Store {
            root: root.to_path_buf(),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path an entry for `key` lives at.
    #[must_use]
    pub fn path_of(&self, key: &StoreKey) -> PathBuf {
        self.root.join(format!("{}.json", key.token()))
    }

    /// Looks up the cached report for `key` — [`Store::load_token`] of
    /// its token.
    ///
    /// # Errors
    ///
    /// A typed [`Miss`], as for [`Store::load_token`].
    pub fn load(&self, key: &StoreKey) -> Result<SweepReport, Miss> {
        self.load_token(key.token()).map(|entry| entry.report)
    }

    /// Looks up an entry by its raw file token (also the sweep service's
    /// query-by-token path). The entry is served only when the address
    /// re-derived from its own header is `token`.
    ///
    /// # Errors
    ///
    /// A typed [`Miss`] for everything short of a clean hit — absence,
    /// undecodable content, schema drift, an address disagreement. The
    /// caller recomputes; this method never panics on disk content.
    pub fn load_token(&self, token: &str) -> Result<Entry, Miss> {
        // Refuse path-shaped tokens outright: a token is a file name.
        if token.contains('/') || token.contains('\\') || token.starts_with('.') {
            return Err(Miss::Absent);
        }
        let text = match std::fs::read_to_string(self.root.join(format!("{token}.json"))) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(Miss::Absent),
            Err(e) => return Err(Miss::Corrupt(format!("unreadable: {e}"))),
        };
        let entry: Entry = match serde_json::from_str(&text) {
            Ok(entry) => entry,
            Err(e) => return Err(Miss::Corrupt(format!("undecodable: {e}"))),
        };
        if entry.schema != SCHEMA_VERSION {
            return Err(Miss::SchemaMismatch {
                found: entry.schema,
            });
        }
        let derived = StoreKey::new(&entry.context, &entry.meta, &entry.engine);
        if derived.token != token {
            return Err(Miss::FingerprintMismatch {
                found: derived.token,
                expected: token.to_string(),
            });
        }
        Ok(entry)
    }

    /// Writes (or atomically replaces) the entry for `key`.
    ///
    /// The entry is written to a hidden temp file in the store root and
    /// renamed into place, so concurrent readers see either the old
    /// bytes or the new bytes, never a torn file.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the write or rename fails.
    pub fn save(
        &self,
        key: &StoreKey,
        context: &str,
        engine: &str,
        meta: &WorkloadMeta,
        report: &SweepReport,
    ) -> Result<(), StoreError> {
        let entry = Entry {
            schema: SCHEMA_VERSION,
            context: context.to_string(),
            engine: engine.to_string(),
            meta: *meta,
            report: report.clone(),
        };
        let text = serde_json::to_string_pretty(&entry).map_err(|e| StoreError(e.to_string()))?;
        let tmp = self
            .root
            .join(format!(".tmp-{}-{}", std::process::id(), key.token()));
        let dest = self.path_of(key);
        std::fs::write(&tmp, text.as_bytes())
            .map_err(|e| StoreError(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &dest).map_err(|e| {
            // Leave no droppings behind a failed publish.
            let _ = std::fs::remove_file(&tmp);
            StoreError(format!("cannot publish {}: {e}", dest.display()))
        })
    }

    /// The fsck walk: every `*.json` entry under the root is read
    /// through [`Store::load_token`], so an entry is clean exactly when
    /// a lookup would serve it. Hidden files (in-flight temp writes) are
    /// skipped.
    ///
    /// # Errors
    ///
    /// [`StoreError`] only if the root itself cannot be listed; per-entry
    /// damage lands in the report, not in an error.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map_err(|e| StoreError(format!("cannot list {}: {e}", self.root.display())))?
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|name| name.ends_with(".json") && !name.starts_with('.'))
            .collect();
        // Directory iteration order is OS-dependent; the report is not.
        names.sort();
        let mut report = VerifyReport::default();
        for name in names {
            match self.load_token(name.trim_end_matches(".json")) {
                Ok(_) => report.ok += 1,
                Err(miss) => report.problems.push(VerifyProblem {
                    file: name,
                    problem: miss.to_string(),
                }),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_runner::{GroupStats, WorkloadKind};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rendezvous-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn meta(digest: u64) -> WorkloadMeta {
        WorkloadMeta {
            kind: WorkloadKind::Grid,
            digest,
            full_size: 48,
            size: 17,
        }
    }

    fn report(executed: usize) -> SweepReport {
        let mut r = SweepReport::default();
        r.groups.push(GroupStats {
            executed,
            meetings: executed,
            max_time: 9,
            ..GroupStats::default()
        });
        r
    }

    #[test]
    fn key_tokens_are_readable_and_collision_resistant() {
        let key = StoreKey::new("x1 cheap n=8 l=4", &meta(0xabc), "stepped");
        assert!(key.token().starts_with("v2-stepped-x1-cheap-n-8-l-4-"));
        assert!(key.token().ends_with("-grid-0000000000000abc-f48-s17"));
        // Same sanitized slug, different raw context → different token.
        let other = StoreKey::new("x1 cheap n:8 l.4", &meta(0xabc), "stepped");
        assert_ne!(key.token(), other.token());
        // Different engine → different token.
        let batched = StoreKey::new("x1 cheap n=8 l=4", &meta(0xabc), "batched");
        assert_ne!(key.token(), batched.token());
        // Degenerate context still yields a valid file name.
        assert!(StoreKey::new("///", &meta(1), "stepped")
            .token()
            .contains("-sweep-"));
    }

    #[test]
    fn save_then_load_round_trips_the_exact_bytes() {
        let dir = scratch("roundtrip");
        let store = Store::open(&dir).unwrap();
        let m = meta(42);
        let key = StoreKey::new("x1 cheap", &m, "stepped");
        let original = report(17);
        store
            .save(&key, "x1 cheap", "stepped", &m, &original)
            .unwrap();
        let loaded = store.load(&key).unwrap();
        assert_eq!(
            serde_json::to_string(&loaded).unwrap(),
            serde_json::to_string(&original).unwrap(),
            "cached report must reproduce the original byte for byte"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_atomically_replaces_an_existing_entry() {
        let dir = scratch("replace");
        let store = Store::open(&dir).unwrap();
        let m = meta(7);
        let key = StoreKey::new("x2 fast", &m, "batched");
        store
            .save(&key, "x2 fast", "batched", &m, &report(1))
            .unwrap();
        store
            .save(&key, "x2 fast", "batched", &m, &report(5))
            .unwrap();
        assert_eq!(store.load(&key).unwrap().executed(), 5);
        // No temp droppings survive a completed save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_corruption_matrix_is_typed_misses_never_panics() {
        let dir = scratch("corruption");
        let store = Store::open(&dir).unwrap();
        let m = meta(3);
        let key = StoreKey::new("x3", &m, "stepped");

        // Absent.
        assert_eq!(store.load(&key), Err(Miss::Absent));

        // Truncated entry.
        store.save(&key, "x3", "stepped", &m, &report(4)).unwrap();
        let path = store.path_of(&key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(matches!(store.load(&key), Err(Miss::Corrupt(_))));

        // Garbage bytes.
        std::fs::write(&path, b"\x00\xffnot json at all").unwrap();
        assert!(matches!(store.load(&key), Err(Miss::Corrupt(_))));

        // Wrong schema version.
        let bumped = full.replacen("\"schema\": 2", "\"schema\": 99", 1);
        assert_ne!(bumped, full, "fixture must actually rewrite the schema");
        std::fs::write(&path, bumped).unwrap();
        assert_eq!(store.load(&key), Err(Miss::SchemaMismatch { found: 99 }));

        // Fingerprint drift: an entry for a different workload planted
        // under this key's path.
        let alien = meta(999);
        let alien_key = StoreKey::new("x3", &alien, "stepped");
        store
            .save(&alien_key, "x3", "stepped", &alien, &report(4))
            .unwrap();
        std::fs::rename(store.path_of(&alien_key), &path).unwrap();
        assert!(matches!(
            store.load(&key),
            Err(Miss::FingerprintMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_cross_checks_name_header_and_content() {
        let dir = scratch("verify");
        let store = Store::open(&dir).unwrap();
        let m = meta(11);
        let key = StoreKey::new("x1 cheap", &m, "stepped");
        store
            .save(&key, "x1 cheap", "stepped", &m, &report(2))
            .unwrap();
        let m2 = meta(12);
        let key2 = StoreKey::new("x1 fast", &m2, "stepped");
        store
            .save(&key2, "x1 fast", "stepped", &m2, &report(3))
            .unwrap();
        assert!(store.verify().unwrap().clean());
        assert_eq!(store.verify().unwrap().ok, 2);

        // Damage one entry: now exactly one problem, named by file.
        std::fs::write(store.path_of(&key), "{torn").unwrap();
        let fsck = store.verify().unwrap();
        assert_eq!((fsck.ok, fsck.problems.len()), (1, 1));
        assert_eq!(fsck.problems[0].file, format!("{}.json", key.token()));

        // A renamed (content-vs-name mismatch) entry is flagged too.
        std::fs::rename(store.path_of(&key2), dir.join("v1-imposter.json")).unwrap();
        let fsck = store.verify().unwrap();
        assert_eq!(fsck.ok, 0);
        assert!(fsck
            .problems
            .iter()
            .any(|p| p.file == "v1-imposter.json" && p.problem.contains("does not match")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An entry copied under another well-formed token — here the same
    /// workload under another context, so the fingerprint component
    /// agrees — is refused by every read and flagged by the fsck: only
    /// the address its own header derives serves it.
    #[test]
    fn an_entry_is_served_only_under_the_address_its_header_derives() {
        let dir = scratch("address");
        let store = Store::open(&dir).unwrap();
        let m = meta(31);
        let cheap = StoreKey::new("x1 cheap", &m, "stepped");
        let fast = StoreKey::new("x1 fast", &m, "stepped");
        store
            .save(&cheap, "x1 cheap", "stepped", &m, &report(8))
            .unwrap();
        std::fs::copy(store.path_of(&cheap), store.path_of(&fast)).unwrap();
        let refused = Miss::FingerprintMismatch {
            found: cheap.token().to_string(),
            expected: fast.token().to_string(),
        };
        assert_eq!(store.load(&fast), Err(refused.clone()));
        assert_eq!(store.load_token(fast.token()).unwrap_err(), refused);
        assert_eq!(store.load(&cheap).unwrap().executed(), 8);
        let fsck = store.verify().unwrap();
        assert_eq!(fsck.ok, 1);
        assert_eq!(fsck.problems.len(), 1);
        assert_eq!(fsck.problems[0].file, format!("{}.json", fast.token()));
        assert!(fsck.problems[0].problem.contains("does not match"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_token_refuses_path_escapes_and_validates_self_consistency() {
        let dir = scratch("token");
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.load_token("../outside").unwrap_err(), Miss::Absent);
        assert_eq!(store.load_token(".hidden").unwrap_err(), Miss::Absent);
        let m = meta(21);
        let key = StoreKey::new("x7", &m, "stepped");
        store.save(&key, "x7", "stepped", &m, &report(6)).unwrap();
        let entry = store.load_token(key.token()).unwrap();
        assert_eq!(entry.context, "x7");
        assert_eq!(entry.report.executed(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
