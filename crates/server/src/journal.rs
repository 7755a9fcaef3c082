//! Durable session journal: a write-ahead log of admitted `load`s.
//!
//! A daemon configured with `--journal-dir` appends one record per
//! successful `load` (the canonical load line plus the minted session
//! id) and one tombstone per `unload`. On restart the surviving prefix
//! is replayed through [`crate::session::SessionStore::restore_line`],
//! so a recovered daemon reports the *same* session ids and
//! byte-identical replies — and, because replay routes through the
//! store-level `IncrCompiler`, recovery cost shows up in the `incr.*`
//! counters (mostly hits for superseding loads).
//!
//! ## File format
//!
//! ```text
//! "TBAAJRN1"                                  8-byte magic header
//! [u32 le payload_len][u64 le fnv1a(payload)][payload]   per record
//! ```
//!
//! Payloads are JSON via the in-tree codec ([`crate::json`]):
//!
//! * `{"seq":N,"op":"load","sid":"s3","line":"{…}"}` — an admitted load
//!   (every successful load is journaled, hits included, so replay
//!   reproduces LRU recency by last-load order);
//! * `{"seq":N,"op":"unload","sid":"s3"}` — an explicit unload;
//! * `{"seq":N,"op":"mark","next_sid":M}` — a session-id watermark,
//!   written by compaction so ids of records it dropped are never
//!   re-minted after recovery.
//!
//! ## Durability policy
//!
//! Every append is written and flushed to the OS immediately (so a
//! `kill -9` of the daemon loses nothing — page cache survives the
//! process), and `fsync`ed every [`SYNC_EVERY`] appends (bounding the
//! window a *machine* crash can lose). Compaction rewrites the file as
//! temp-file + rename with the temp file fsynced before the rename and
//! the directory fsynced after it, so the rewrite is atomic against
//! power loss too — never worse than the [`SYNC_EVERY`] window.
//!
//! Appends are made from inside the session store's admission critical
//! section ([`crate::session::SessionStore`] holds its index lock
//! across the append), so journal order is exactly admission order
//! even under concurrent loads racing unloads.
//!
//! ## Recovery ordering guarantees
//!
//! [`scan`] accepts the longest well-formed prefix: it stops — cleanly,
//! never with an error — at the first record whose frame is truncated,
//! whose checksum mismatches, whose payload fails to parse, or whose
//! sequence number is not strictly greater than its predecessor's. The
//! one exception is an *exact* duplicate (same seq, byte-identical
//! payload — a double-append), which is skipped and counted. The
//! surviving records are folded newest-wins per content key, tombstones
//! removed, and the remainder replayed in sequence order — so a
//! capacity-K store re-evicts in journal order and ends in the same
//! LRU state the crashed daemon had.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::json::{parse, Value};
use crate::metrics::{Counter, Histogram, Registry};
use crate::proto::{decode_request, Request};
use crate::session::{content_hash, SessionKey};

/// File header: magic + format version.
pub const MAGIC: &[u8; 8] = b"TBAAJRN1";

/// Frame overhead per record: u32 length prefix + u64 FNV-1a checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Records larger than this are treated as torn (a corrupted length
/// prefix would otherwise ask the scanner to skip gigabytes).
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Appends between `fsync`s — the bounded power-loss window.
pub const SYNC_EVERY: u64 = 8;

/// Compaction trigger: at least this many records on disk *and* fewer
/// than half of them live.
const COMPACT_MIN_RECORDS: u64 = 64;

/// The journal file inside `--journal-dir`.
pub const FILE_NAME: &str = "sessions.jrn";

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number (strictly increasing within a file).
    pub seq: u64,
    /// What happened.
    pub op: RecordOp,
}

/// The operation a [`Record`] describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordOp {
    /// A successful `load`: the minted session id and the canonical
    /// load line to replay.
    Load {
        /// Session id (`s3`).
        sid: String,
        /// Canonical `{"op":"load",…}` request line.
        line: String,
    },
    /// An explicit `unload` of a live session.
    Unload {
        /// Session id that was unloaded.
        sid: String,
    },
    /// Session-id watermark: recovery must mint ids ≥ `next_sid`.
    Mark {
        /// First id safe to mint.
        next_sid: u64,
    },
}

/// Why [`decode_record`] rejected the bytes at an offset. Every variant
/// means the same thing to recovery — *stop here* — but the property
/// tests pin each cause separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than the frame header or the declared payload length.
    Truncated,
    /// Zero-length payload (never written; a torn frame).
    ZeroLength,
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    TooLong,
    /// FNV-1a checksum mismatch.
    BadChecksum,
    /// Checksum matched but the payload is not a well-formed record.
    BadPayload,
}

/// Encodes one record as a framed journal entry, appending to `out`.
pub fn encode_record(rec: &Record, out: &mut Vec<u8>) {
    let payload = encode_payload(rec);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&content_hash(payload.as_bytes()).to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
}

fn encode_payload(rec: &Record) -> String {
    let seq = Value::Int(rec.seq as i64);
    match &rec.op {
        RecordOp::Load { sid, line } => Value::object(vec![
            ("seq", seq),
            ("op", Value::Str("load".into())),
            ("sid", Value::Str(sid.as_str().into())),
            ("line", Value::Str(line.as_str().into())),
        ]),
        RecordOp::Unload { sid } => Value::object(vec![
            ("seq", seq),
            ("op", Value::Str("unload".into())),
            ("sid", Value::Str(sid.as_str().into())),
        ]),
        RecordOp::Mark { next_sid } => Value::object(vec![
            ("seq", seq),
            ("op", Value::Str("mark".into())),
            ("next_sid", Value::Int(*next_sid as i64)),
        ]),
    }
    .encode()
}

/// Decodes the record starting at `buf[0]`. Returns the record and the
/// total bytes consumed (frame header + payload).
pub fn decode_record(buf: &[u8]) -> Result<(Record, usize), DecodeError> {
    if buf.len() < FRAME_HEADER {
        return Err(DecodeError::Truncated);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len == 0 {
        return Err(DecodeError::ZeroLength);
    }
    if len > MAX_PAYLOAD {
        return Err(DecodeError::TooLong);
    }
    if buf.len() < FRAME_HEADER + len {
        return Err(DecodeError::Truncated);
    }
    let sum = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    if content_hash(payload) != sum {
        return Err(DecodeError::BadChecksum);
    }
    let text = std::str::from_utf8(payload).map_err(|_| DecodeError::BadPayload)?;
    let rec = decode_payload(text).ok_or(DecodeError::BadPayload)?;
    Ok((rec, FRAME_HEADER + len))
}

fn decode_payload(text: &str) -> Option<Record> {
    let v = parse(text).ok()?;
    let seq = u64::try_from(v.get("seq")?.as_i64()?).ok()?;
    let op = match v.get("op")?.as_str()? {
        "load" => RecordOp::Load {
            sid: v.get("sid")?.as_str()?.to_string(),
            line: v.get("line")?.as_str()?.to_string(),
        },
        "unload" => RecordOp::Unload {
            sid: v.get("sid")?.as_str()?.to_string(),
        },
        "mark" => RecordOp::Mark {
            next_sid: u64::try_from(v.get("next_sid")?.as_i64()?).ok()?,
        },
        _ => return None,
    };
    Some(Record { seq, op })
}

/// Result of scanning a journal file's bytes.
#[derive(Debug, Default)]
pub struct Scan {
    /// Records in the surviving prefix, in file order.
    pub records: Vec<Record>,
    /// Bytes of the file covered by the surviving prefix (including the
    /// magic header).
    pub valid_bytes: usize,
    /// Whether anything after the surviving prefix was discarded.
    pub torn: bool,
    /// Exact double-appends skipped (same seq, identical payload).
    pub dup_skipped: u64,
}

/// Scans journal bytes into the longest well-formed prefix. Never
/// errors: corruption of any kind simply ends the prefix (see the
/// module docs for the exact rules).
pub fn scan(bytes: &[u8]) -> Scan {
    let mut out = Scan::default();
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        out.torn = !bytes.is_empty();
        return out;
    }
    let mut pos = MAGIC.len();
    out.valid_bytes = pos;
    let mut last: Option<Record> = None;
    while pos < bytes.len() {
        let Ok((rec, consumed)) = decode_record(&bytes[pos..]) else {
            out.torn = true;
            break;
        };
        match &last {
            Some(prev) if rec == *prev => {
                // Exact double-append: harmless, skip.
                out.dup_skipped += 1;
                pos += consumed;
                out.valid_bytes = pos;
                continue;
            }
            Some(prev) if rec.seq <= prev.seq => {
                // Conflicting or reordered sequence number: the prefix
                // ends *before* this record.
                out.torn = true;
                break;
            }
            _ => {}
        }
        pos += consumed;
        out.valid_bytes = pos;
        last = Some(rec.clone());
        out.records.push(rec);
    }
    out
}

/// A live (not superseded, not unloaded) journaled load, in recency
/// order — the unit of replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveLoad {
    /// Content key display (`bench:ktree@1`, `src:…`) — the compaction
    /// identity: a later load of the same content supersedes this one.
    pub key: String,
    /// The session id the daemon had minted for it.
    pub sid: String,
    /// Canonical load line to replay.
    pub line: String,
}

/// What [`Journal::open`] recovered from a previous daemon's file.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Surviving loads in journal order — the replay list.
    pub loads: Vec<LiveLoad>,
    /// First session-id number safe to mint: one past the highest id
    /// named by *any* scanned record (superseded and unloaded loads
    /// and marks included). The caller must advance the store's id
    /// counter here before serving — replaying `loads` alone is not
    /// enough, because the highest-minted sid may have been unloaded
    /// pre-crash, and re-minting it would silently point a stale
    /// client at a different session.
    pub next_sid: u64,
}

/// Derives the content-key display of a canonical journaled load line.
pub fn key_of_load_line(line: &str) -> Option<String> {
    match decode_request(line).ok()? {
        Request::Load {
            source: Some(src),
            bench: None,
            ..
        } => Some(
            SessionKey::Source {
                hash: content_hash(src.as_bytes()),
            }
            .display(),
        ),
        Request::Load {
            source: None,
            bench: Some(name),
            scale,
            ..
        } => Some(
            SessionKey::Bench {
                name: name.to_string(),
                scale,
            }
            .display(),
        ),
        _ => None,
    }
}

/// Folds a scanned record prefix into the replay list plus the
/// session-id watermark (`max_sid` over every record seen, including
/// superseded ones and marks — ids must never be re-minted).
pub fn fold(records: &[Record]) -> (Vec<LiveLoad>, u64) {
    let mut live: Vec<LiveLoad> = Vec::new();
    let mut max_sid = 0u64;
    for rec in records {
        match &rec.op {
            RecordOp::Load { sid, line } => {
                if let Some(n) = sid_number(sid) {
                    max_sid = max_sid.max(n);
                }
                let Some(key) = key_of_load_line(line) else {
                    continue;
                };
                live.retain(|l| l.key != key);
                live.push(LiveLoad {
                    key,
                    sid: sid.clone(),
                    line: line.clone(),
                });
            }
            RecordOp::Unload { sid } => live.retain(|l| &l.sid != sid),
            RecordOp::Mark { next_sid } => max_sid = max_sid.max(next_sid.saturating_sub(1)),
        }
    }
    (live, max_sid)
}

fn sid_number(sid: &str) -> Option<u64> {
    sid.strip_prefix('s').and_then(|t| t.parse().ok())
}

struct JournalState {
    file: File,
    next_seq: u64,
    /// Highest session-id number ever journaled (watermark source).
    max_sid: u64,
    /// Records in the file, superseded ones included.
    records: u64,
    /// Recency-ordered mirror of the live set, so compaction never has
    /// to re-read the file.
    live: Vec<LiveLoad>,
    /// Appends since the last fsync.
    unsynced: u64,
}

/// An open journal: the append/compact half of the crash-recovery
/// story. [`Journal::open`] is the recovery half.
pub struct Journal {
    path: PathBuf,
    state: Mutex<JournalState>,
    appends: Arc<Counter>,
    bytes: Arc<Counter>,
    compactions: Arc<Counter>,
    fsyncs: Arc<Counter>,
    errors: Arc<Counter>,
    /// Wall time of each append (lock + encode + write + any fsync or
    /// compaction). Kept separate from `compile_us`, which by design
    /// stops before admission journals the load — this histogram is
    /// where the WAL cost shows up instead.
    append_us: Arc<Histogram>,
    replayed: Arc<Counter>,
    replay_failures: Arc<Counter>,
}

impl Journal {
    /// Opens (creating if needed) the journal under `dir`, recovering
    /// whatever a previous daemon left behind. Returns the journal plus
    /// a [`Recovery`]: the surviving loads for the caller to replay
    /// through the store — in journal order, so LRU eviction during
    /// replay matches the pre-crash daemon — and the session-id
    /// watermark the store must advance to before serving. The
    /// recovered file is rewritten compacted.
    ///
    /// Registers every `journal.*` instrument, so `stats` carries them
    /// from the first request whenever journaling is on.
    pub fn open(dir: &Path, metrics: &Registry) -> std::io::Result<(Journal, Recovery)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(FILE_NAME);
        let existing = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scanned = scan(&existing);
        let (live, max_sid) = fold(&scanned.records);

        let replayed = metrics.counter("journal.replayed");
        let replay_failures = metrics.counter("journal.replay_failures");
        metrics.counter("journal.recovered_records").add(scanned.records.len() as u64);
        metrics.counter("journal.torn").add(u64::from(scanned.torn));
        metrics.counter("journal.dup_skipped").add(scanned.dup_skipped);
        let appends = metrics.counter("journal.appends");
        let bytes = metrics.counter("journal.bytes");
        let compactions = metrics.counter("journal.compactions");
        let fsyncs = metrics.counter("journal.fsyncs");
        let errors = metrics.counter("journal.errors");
        let append_us = metrics.histogram("journal.append_us");

        // Rewrite compacted. Dropping superseded or torn bytes on open
        // counts as a compaction.
        let compacted = scanned.torn
            || scanned.dup_skipped > 0
            || scanned.records.len() > live.len() + 1;
        let (buf, next_seq) = compacted_image(&live, max_sid);
        let file = replace_file_durably(dir, &path, &buf)?;
        bytes.add(buf.len() as u64);
        if compacted {
            compactions.inc();
        }

        let journal = Journal {
            path,
            state: Mutex::new(JournalState {
                file,
                next_seq,
                max_sid,
                records: next_seq - 1,
                live: live.clone(),
                unsynced: 0,
            }),
            appends,
            bytes,
            compactions,
            fsyncs,
            errors,
            append_us,
            replayed,
            replay_failures,
        };
        Ok((
            journal,
            Recovery {
                loads: live,
                next_sid: max_sid + 1,
            },
        ))
    }

    /// Journals one admitted load. `key` is the content-key display,
    /// `line` the canonical load request line. Best-effort: an I/O
    /// failure is counted (`journal.errors`), never surfaced to the
    /// client whose load already succeeded.
    pub fn append_load(&self, key: &str, sid: &str, line: &str) {
        let t0 = std::time::Instant::now();
        let mut st = self.state.lock().expect("journal poisoned");
        let rec = Record {
            seq: st.next_seq,
            op: RecordOp::Load {
                sid: sid.to_string(),
                line: line.to_string(),
            },
        };
        if let Some(n) = sid_number(sid) {
            st.max_sid = st.max_sid.max(n);
        }
        st.live.retain(|l| l.key != key);
        st.live.push(LiveLoad {
            key: key.to_string(),
            sid: sid.to_string(),
            line: line.to_string(),
        });
        self.write_record(&mut st, &rec);
        self.maybe_compact(&mut st);
        self.append_us.record(t0.elapsed());
    }

    /// Journals an `unload` tombstone.
    pub fn append_unload(&self, sid: &str) {
        let t0 = std::time::Instant::now();
        let mut st = self.state.lock().expect("journal poisoned");
        let rec = Record {
            seq: st.next_seq,
            op: RecordOp::Unload {
                sid: sid.to_string(),
            },
        };
        st.live.retain(|l| l.sid != sid);
        self.write_record(&mut st, &rec);
        self.maybe_compact(&mut st);
        self.append_us.record(t0.elapsed());
    }

    /// Counts one recovered load the caller replayed: `restored` is
    /// whether it was admitted again (`journal.replayed`) or dropped
    /// because it no longer compiles (`journal.replay_failures`).
    pub(crate) fn count_replay(&self, restored: bool) {
        if restored {
            self.replayed.inc();
        } else {
            self.replay_failures.inc();
        }
    }

    /// Forces an fsync (used on graceful shutdown).
    pub fn sync(&self) {
        let mut st = self.state.lock().expect("journal poisoned");
        if st.unsynced > 0 && st.file.sync_data().is_ok() {
            self.fsyncs.inc();
            st.unsynced = 0;
        }
    }

    /// The journal file path (for tests and the fault harness).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn write_record(&self, st: &mut JournalState, rec: &Record) {
        let mut buf = Vec::new();
        encode_record(rec, &mut buf);
        match st.file.write_all(&buf).and_then(|()| st.file.flush()) {
            Ok(()) => {
                st.next_seq += 1;
                st.records += 1;
                st.unsynced += 1;
                self.appends.inc();
                self.bytes.add(buf.len() as u64);
                if st.unsynced >= SYNC_EVERY {
                    if st.file.sync_data().is_ok() {
                        self.fsyncs.inc();
                    }
                    st.unsynced = 0;
                }
            }
            Err(_) => self.errors.inc(),
        }
    }

    /// Rewrites the file to just a mark + the live set once superseded
    /// records dominate (≥ [`COMPACT_MIN_RECORDS`] on disk, under half
    /// live). Power-loss atomic via [`replace_file_durably`]; original
    /// ids survive in the mark, sequence numbers restart at 1.
    fn maybe_compact(&self, st: &mut JournalState) {
        if st.records < COMPACT_MIN_RECORDS || st.live.len() as u64 * 2 >= st.records {
            return;
        }
        let (buf, next_seq) = compacted_image(&st.live, st.max_sid);
        let dir = self.path.parent().expect("journal path has a parent");
        match replace_file_durably(dir, &self.path, &buf) {
            Ok(file) => {
                st.file = file;
                st.next_seq = next_seq;
                st.records = next_seq - 1;
                st.unsynced = 0;
                self.compactions.inc();
                self.bytes.add(buf.len() as u64);
                self.fsyncs.inc();
            }
            Err(_) => self.errors.inc(),
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.sync();
    }
}

/// The compacted journal image: the magic, then a mark preserving the
/// session-id watermark (when any id was minted), then the `live` loads,
/// numbered from seq 1. Returns the image and the next free seq.
fn compacted_image(live: &[LiveLoad], max_sid: u64) -> (Vec<u8>, u64) {
    let mark = (max_sid > 0).then_some(RecordOp::Mark {
        next_sid: max_sid + 1,
    });
    let loads = live.iter().map(|load| RecordOp::Load {
        sid: load.sid.clone(),
        line: load.line.clone(),
    });
    let mut buf = MAGIC.to_vec();
    let mut next_seq = 1u64;
    for op in mark.into_iter().chain(loads) {
        encode_record(&Record { seq: next_seq, op }, &mut buf);
        next_seq += 1;
    }
    (buf, next_seq)
}

/// Durably replaces the journal file with `buf` and returns a fresh
/// append handle. Rename alone only orders the replacement against
/// other *operations*, not against power loss: the tmp file's bytes
/// must reach disk before the rename makes them the journal, and the
/// rename itself lives in the directory, so both are fsynced — tmp
/// file before the rename, parent directory after. A crash at any
/// point leaves either the complete old file or the complete new one,
/// never an empty or partial journal.
fn replace_file_durably(dir: &Path, path: &Path, buf: &[u8]) -> std::io::Result<File> {
    let tmp = dir.join(format!("{FILE_NAME}.tmp"));
    {
        let mut f = File::create(&tmp)?;
        f.write_all(buf)?;
        f.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_rec(seq: u64, sid: &str, bench: &str) -> Record {
        Record {
            seq,
            op: RecordOp::Load {
                sid: sid.into(),
                line: format!(r#"{{"op":"load","bench":"{bench}","scale":1}}"#),
            },
        }
    }

    fn encode_all(recs: &[Record]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for r in recs {
            encode_record(r, &mut buf);
        }
        buf
    }

    #[test]
    fn round_trips_each_record_kind() {
        for rec in [
            load_rec(1, "s1", "ktree"),
            Record {
                seq: 2,
                op: RecordOp::Unload { sid: "s1".into() },
            },
            Record {
                seq: 3,
                op: RecordOp::Mark { next_sid: 17 },
            },
        ] {
            let mut buf = Vec::new();
            encode_record(&rec, &mut buf);
            let (back, used) = decode_record(&buf).expect("decodes");
            assert_eq!(back, rec);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn scan_stops_cleanly_at_torn_tail() {
        let recs = [load_rec(1, "s1", "ktree"), load_rec(2, "s2", "slisp")];
        let mut bytes = encode_all(&recs);
        bytes.truncate(bytes.len() - 3);
        let scanned = scan(&bytes);
        assert_eq!(scanned.records, vec![recs[0].clone()]);
        assert!(scanned.torn);
    }

    #[test]
    fn scan_skips_exact_duplicates_but_stops_on_conflicts() {
        let a = load_rec(1, "s1", "ktree");
        let b = load_rec(2, "s2", "slisp");
        let dup = encode_all(&[a.clone(), a.clone(), b.clone()]);
        let scanned = scan(&dup);
        assert_eq!(scanned.records, vec![a.clone(), b.clone()]);
        assert_eq!(scanned.dup_skipped, 1);
        assert!(!scanned.torn);

        // Same seq, different payload: prefix ends before the conflict.
        let conflict = encode_all(&[a.clone(), load_rec(1, "s9", "format"), b]);
        let scanned = scan(&conflict);
        assert_eq!(scanned.records, vec![a]);
        assert!(scanned.torn);
    }

    #[test]
    fn fold_compacts_superseded_and_unloaded() {
        let src = r#"{"op":"load","source":"MODULE X; END X."}"#;
        let records = vec![
            load_rec(1, "s1", "ktree"),
            Record {
                seq: 2,
                op: RecordOp::Load {
                    sid: "s2".into(),
                    line: src.into(),
                },
            },
            // ktree re-loaded after eviction: supersedes s1, moves to back.
            load_rec(3, "s3", "ktree"),
            Record {
                seq: 4,
                op: RecordOp::Unload { sid: "s2".into() },
            },
        ];
        let (live, max_sid) = fold(&records);
        assert_eq!(max_sid, 3);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].sid, "s3");
        assert_eq!(live[0].key, "bench:ktree@1");
    }

    #[test]
    fn mark_floors_the_id_watermark() {
        let (live, max_sid) = fold(&[
            Record {
                seq: 1,
                op: RecordOp::Mark { next_sid: 42 },
            },
            load_rec(2, "s5", "ktree"),
        ]);
        assert_eq!(max_sid, 41, "mark outranks the highest live sid");
        assert_eq!(live.len(), 1);
    }

    #[test]
    fn open_recovers_appends_across_reopen() {
        let dir = std::env::temp_dir().join(format!("tbaa-jrn-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let metrics = Registry::new();
        {
            let (journal, recovered) = Journal::open(&dir, &metrics).expect("open");
            assert!(recovered.loads.is_empty());
            journal.append_load(
                "bench:ktree@1",
                "s1",
                r#"{"op":"load","bench":"ktree","scale":1}"#,
            );
            journal.append_load(
                "bench:slisp@1",
                "s2",
                r#"{"op":"load","bench":"slisp","scale":1}"#,
            );
            journal.append_unload("s1");
        }
        let metrics2 = Registry::new();
        let (_journal, recovered) = Journal::open(&dir, &metrics2).expect("reopen");
        assert_eq!(recovered.loads.len(), 1);
        assert_eq!(recovered.loads[0].sid, "s2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_watermark_covers_an_unloaded_top_sid() {
        // load s1, load s2, unload s2, crash: the replay list is just
        // s1, but the watermark must still cover s2 — otherwise the
        // next fresh load would re-mint it and a stale client's s2
        // would silently resolve to a different session.
        let dir = std::env::temp_dir().join(format!(
            "tbaa-jrn-watermark-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let (journal, _) = Journal::open(&dir, &Registry::new()).expect("open");
            journal.append_load(
                "bench:ktree@1",
                "s1",
                r#"{"op":"load","bench":"ktree","scale":1}"#,
            );
            journal.append_load(
                "bench:slisp@1",
                "s2",
                r#"{"op":"load","bench":"slisp","scale":1}"#,
            );
            journal.append_unload("s2");
        }
        let (_journal, recovered) = Journal::open(&dir, &Registry::new()).expect("reopen");
        assert_eq!(recovered.loads.len(), 1);
        assert_eq!(recovered.loads[0].sid, "s1");
        assert_eq!(
            recovered.next_sid, 3,
            "the watermark covers the unloaded s2, not just the replayed s1"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
