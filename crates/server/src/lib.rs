//! # tbaa-server — `tbaad`, a persistent concurrent alias-query service
//!
//! Every other entry point in this workspace pays a full compile per
//! alias question: `tbaac` recompiles the program on each invocation,
//! and the evaluation `Engine`'s caches die with the `paper-tables`
//! process. This crate turns the paper's analyses (TypeDecl /
//! FieldTypeDecl / SMFieldTypeRefs — Diwan, McKinley & Moss, PLDI 1998)
//! into a long-lived service: programs are compiled **once** into
//! cached sessions, analyses are memoized per `(level, world)`, and any
//! number of clients query `may_alias` interactively over a trivial
//! wire protocol.
//!
//! ## The protocol
//!
//! Newline-delimited JSON over TCP (and, on unix, an optional
//! Unix-domain socket). One request object per line, one reply object
//! per line; see [`proto`] for the verb table. A session survives
//! across connections, so an IDE-style client can `load` once and issue
//! thousands of point or batched queries without ever re-compiling:
//!
//! ```text
//! → {"op":"load","bench":"ktree","scale":2}
//! ← {"ok":true,"session":"s1","key":"bench:ktree@2","cached":false,...}
//! → {"op":"alias","session":"s1","pairs":[["n.left","n.right"],["n.left","m.key"]]}
//! ← {"ok":true,"session":"s1","level":"SMFieldTypeRefs","world":"Closed","results":[true,false]}
//! ```
//!
//! ## Architecture
//!
//! * [`json`] — hand-rolled minimal JSON (the workspace is path-only);
//! * [`proto`] — request/reply schema over [`json::Value`];
//! * [`metrics`] — atomic counters / gauges / histograms, snapshot to
//!   JSON via the `stats` verb (reusable by any other subsystem);
//! * [`session`] — content-keyed LRU session cache built on the shared
//!   [`tbaa::memo::Memo`] (the same exactly-once discipline as the
//!   evaluation engine in `crates/bench`);
//! * [`net`] — the shared transport layer (duplex connections, line
//!   readers, dual TCP/Unix listeners, and the connection model: accept
//!   threads, a thread per connection, compute permits per batch, drain)
//!   used by both `tbaad` and `tbaa-router`;
//! * [`journal`] — the durable session journal (`--journal-dir`):
//!   checksummed write-ahead log of admitted loads, compaction, and
//!   crash recovery that replays the surviving prefix through the
//!   store's incremental compiler;
//! * [`fault`] — seeded fault-schedule harness that injects torn
//!   records, truncations, bit-flips, and duplicate sequence numbers
//!   into journal files, so recovery edge cases are deterministic
//!   unit tests;
//! * [`reply`] — typed reply decoding ([`Reply`], [`ErrCode`]);
//! * [`server`] — request dispatch, `catch_unwind` request isolation,
//!   graceful drain on `shutdown`, on top of [`net::serve`];
//! * [`client`] — a blocking [`Client`] used by `tbaac query`, the
//!   router, and the integration tests.
//!
//! Run it: `tbaad --addr 127.0.0.1:4980` (or `tbaac serve`), then
//! `tbaac query --bench ktree alias n.left n.right`.

pub mod client;
pub mod fault;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod net;
pub mod proto;
pub mod reply;
pub mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use metrics::Registry;
pub use reply::{
    AliasReply, ErrCode, ErrorReply, LoadReply, PairsReply, Reply, RleReply, StatsReply,
    WireDiagnostic,
};
pub use server::{Server, ServerConfig, ServerConfigBuilder, ServerHandle, ServerState};
pub use session::{Session, SessionKey, SessionStore};
