//! `experiments serve` — the sweep query service over a result store.
//!
//! The server binds a loopback TCP socket and answers length-framed
//! JSON queries (the same wire discipline as the fabric:
//! [`rendezvous_fabric::wire`]) against a content-addressed store
//! directory. A query names a sweep either by its exact store token or
//! by its defining parameters (algorithm + [`GraphSpec`] + grid
//! shape); the answer is the full [`SweepReport`] — served from the
//! store when the entry exists, computed (and recorded) through the
//! ordinary sweep path on a miss. Schema drift, or an entry filed under
//! an address its header does not derive, produces a *typed refusal*,
//! never a wrong answer: the store's read path treats every
//! inconsistency as a miss, and the token path surfaces the miss kind
//! verbatim.
//!
//! Byte-identity discipline: the compute path is
//! [`sweep_spec`](crate::x10_topologies::sweep_spec) — the exact path
//! `experiments query --direct` runs locally — so a served report and a
//! direct run print identical bytes (CI diffs them on every push).

use crate::session::Session;
use rendezvous_fabric::wire::{read_json_frame, write_json_frame};
use rendezvous_graph::GraphSpec;
use rendezvous_runner::SweepReport;
use rendezvous_store::{Miss, SCHEMA_VERSION};
use serde::{Deserialize, Serialize};
use std::net::{TcpListener, TcpStream};
use std::path::Path;

/// One question to the sweep service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Query {
    /// Fetch a stored entry by its exact store token. Never computes:
    /// a token alone does not describe the workload, so anything but a
    /// clean hit is a refusal.
    Token {
        /// The entry's file name under the store root.
        token: String,
    },
    /// One algorithm's sweep of one seeded topology —
    /// cached-or-computed.
    Grid {
        /// `cheap` or `fast`.
        algorithm: String,
        /// The topology to sweep.
        spec: GraphSpec,
        /// Label-space size (`>= 2`).
        l: u64,
        /// Per-spec scenario sample cap (`>= 1`).
        cap: usize,
    },
    /// Stop the server after a `Bye` reply.
    Shutdown,
}

/// The service's answer to one [`Query`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Reply {
    /// The sweep's full report.
    Report {
        /// `true` when the store already held the entry; `false` when
        /// this query computed (and recorded) it.
        cached: bool,
        /// The store token addressing the entry.
        token: String,
        /// The report — byte-identical to a direct run's.
        report: SweepReport,
    },
    /// Token query for an entry the store does not cleanly hold
    /// (absent or unreadable).
    NotCached {
        /// The miss, verbatim.
        reason: String,
    },
    /// Typed refusal: the entry was written under a different store
    /// schema version.
    SchemaMismatch {
        /// The entry's schema version.
        found: u32,
        /// The version this server speaks.
        expected: u32,
    },
    /// Typed refusal: the address re-derived from the entry's header is
    /// not the token it was requested under (the variant keeps its
    /// wire name).
    FingerprintMismatch {
        /// The address the entry's header derives.
        found: String,
        /// The address the entry was requested under.
        expected: String,
    },
    /// The query itself is malformed (unknown algorithm, degenerate
    /// grid, a spec that does not build).
    BadQuery {
        /// What was wrong with it.
        reason: String,
    },
    /// Acknowledges [`Query::Shutdown`].
    Bye,
}

/// Runs the sweep service until a [`Query::Shutdown`] arrives: binds a
/// loopback socket, publishes its address to `addr_file` (atomically,
/// for pollers), and answers queries one connection at a time. Grid
/// queries run through `session`, whose store the compute path reads
/// through and writes back; token queries read that store directly.
///
/// # Errors
///
/// Returns a message when the session has no store, when the socket or
/// the address file cannot be set up, or when `accept` itself fails; a
/// *per-connection* failure (malformed frame, peer gone) is logged to
/// stderr and the server keeps serving.
pub fn serve(session: &mut Session, addr_file: Option<&Path>) -> Result<(), String> {
    if session.store.is_none() {
        return Err("the sweep service needs a result store".into());
    }
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind loopback: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("socket has no local address: {e}"))?
        .to_string();
    if let Some(path) = addr_file {
        publish_addr(path, &addr)?;
    }
    eprintln!("serve: answering sweep queries on {addr}");
    loop {
        let (stream, peer) = listener
            .accept()
            .map_err(|e| format!("accept failed: {e}"))?;
        match converse(session, stream) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("serve: connection from {peer} failed: {e}"),
        }
    }
}

/// Writes the address file atomically (temp + rename), so a poller
/// never reads a half-written address.
fn publish_addr(path: &Path, addr: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, addr).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot publish {}: {e}", path.display()))?;
    Ok(())
}

/// Answers every query on one connection. `Ok(true)` means a
/// `Shutdown` was served and the whole server should exit; `Ok(false)`
/// is the client closing cleanly.
fn converse(session: &mut Session, mut stream: TcpStream) -> Result<bool, String> {
    loop {
        let query: Option<Query> =
            read_json_frame(&mut stream, "a query").map_err(|e| e.to_string())?;
        let Some(query) = query else {
            return Ok(false);
        };
        let shutdown = matches!(query, Query::Shutdown);
        let reply = answer(session, query);
        write_json_frame(&mut stream, &reply, "a reply").map_err(|e| e.to_string())?;
        if shutdown {
            return Ok(true);
        }
    }
}

fn answer(session: &mut Session, query: Query) -> Reply {
    let store = session.store.as_ref().expect("serve checked for a store");
    match query {
        Query::Shutdown => Reply::Bye,
        Query::Token { token } => match store.load_token(&token) {
            Ok(entry) => Reply::Report {
                cached: true,
                token,
                report: entry.report,
            },
            Err(miss) => refuse(miss),
        },
        Query::Grid {
            algorithm,
            spec,
            l,
            cap,
        } => grid_reply(session, &algorithm, spec, l, cap),
    }
}

/// Maps a typed store miss onto the wire refusal of the same shape.
fn refuse(miss: Miss) -> Reply {
    match miss {
        Miss::SchemaMismatch { found } => Reply::SchemaMismatch {
            found,
            expected: SCHEMA_VERSION,
        },
        Miss::FingerprintMismatch { found, expected } => {
            Reply::FingerprintMismatch { found, expected }
        }
        other => Reply::NotCached {
            reason: other.to_string(),
        },
    }
}

/// The cached-or-computed path: validates the query (the compute
/// helpers panic on degenerate grids, so refusal happens here) and runs
/// the same [`sweep_spec`](crate::x10_topologies::sweep_spec) path a
/// direct run uses — which serves from / records into the session's
/// store, and reports which of the two it did (the `cached` flag).
fn grid_reply(
    session: &mut Session,
    algorithm: &str,
    spec: GraphSpec,
    l: u64,
    cap: usize,
) -> Reply {
    if crate::x10_topologies::serve_context(algorithm).is_none() {
        return Reply::BadQuery {
            reason: format!("unknown algorithm `{algorithm}` (expected cheap or fast)"),
        };
    };
    if l < 2 {
        return Reply::BadQuery {
            reason: format!("l must be >= 2, got {l}"),
        };
    }
    if cap == 0 {
        return Reply::BadQuery {
            reason: "cap must be >= 1".into(),
        };
    }
    if let Err(e) = spec.build() {
        return Reply::BadQuery {
            reason: format!("spec does not build: {e}"),
        };
    }
    let swept = crate::x10_topologies::sweep_spec(session, algorithm, spec, l, cap)
        .expect("algorithm validated above");
    Reply::Report {
        cached: swept.cached,
        token: swept.key.token().to_string(),
        report: swept.report,
    }
}

/// Client side: one query round-trip against a running server.
///
/// # Errors
///
/// Returns a message when the connection, the send, or the receive
/// fails, or when the server closes without replying.
pub fn ask(addr: &str, query: &Query) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    write_json_frame(&mut stream, query, "a query").map_err(|e| e.to_string())?;
    match read_json_frame(&mut stream, "a reply").map_err(|e| e.to_string())? {
        Some(reply) => Ok(reply),
        None => Err(format!("{addr} closed the connection without replying")),
    }
}
