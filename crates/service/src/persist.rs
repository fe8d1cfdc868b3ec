//! The on-disk tier of the solution cache, plus the warm-start hint store.
//!
//! Two kinds of record share one append-only segment log (`cache.log`
//! inside the `--cache-dir`):
//!
//! * **solution** records — the byte-exact canonical JSON of an Optimal
//!   solve, keyed by [`InstanceKey`]. Newly solved and LRU-evicted
//!   entries both land here, so a daemon restart answers repeat traffic
//!   from disk instead of re-solving (the memory tier re-promotes on
//!   first hit);
//! * **hint** records — an incumbent objective plus the global-phase
//!   assignment, keyed by the coarser [`crate::hash::family_key`]. A
//!   *near-miss* instance (same design/config, different board
//!   constants) seeds branch-and-bound with a sibling's assignment
//!   instead of solving cold.
//!
//! ## Record format
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [len: u32 LE] [len ^ 0x5f5fc0de: u32 LE] [body: len bytes] [fnv64(body): u64 LE]
//! body = [kind: u8] [key: u128 LE] [payload]
//! kind 1 (solution): payload = [objective: f64 LE] [solution JSON bytes]
//! kind 2 (hint):     payload = [objective: f64 LE] [n: u32 LE] [n × type_of: u32 LE]
//! ```
//!
//! The duplicated-and-xored length lets a reader distinguish "the length
//! field itself is damaged" (the rest of the file cannot be re-framed —
//! stop, counting one corruption) from "this record's body is damaged"
//! (skip exactly this record, counting one corruption, and keep reading).
//! A record cut short by a crash — fewer bytes remaining than the frame
//! promises, including a half-written header — is *torn*, not corrupt:
//! the tail is discarded silently, because a `kill -9` mid-append is an
//! expected shutdown, not data damage.
//!
//! ## Recovery rules
//!
//! On open the whole log is scanned. Intact records win last-writer-wins
//! per key (a re-solve or improved hint supersedes its predecessor), and
//! if the scan dropped anything — torn tail, corrupt record, superseded
//! duplicate — the survivors are compacted into a fresh log which is
//! atomically renamed over the old one. The scan never panics on any
//! byte stream; property tests (`tests/persist_props.rs`) drive arbitrary
//! truncations and bit flips through it.
//!
//! Writes are best-effort: an I/O error on `put` drops that record (the
//! memory tier still has it) rather than failing the solve.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::hash::InstanceKey;

/// Name of the segment log inside the cache directory.
const LOG_NAME: &str = "cache.log";
/// XOR mask distinguishing the duplicated length field from the length.
const LEN_CHECK_XOR: u32 = 0x5f5f_c0de;
/// Record kinds (the `kind` byte of a record body).
const KIND_SOLUTION: u8 = 1;
const KIND_HINT: u8 = 2;
/// Fixed per-record overhead: len + len-check header, checksum trailer.
const FRAME_OVERHEAD: u64 = 4 + 4 + 8;

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a sequence of byte slices.
fn fnv64(parts: &[&[u8]]) -> u64 {
    let mut h = FNV64_OFFSET;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(FNV64_PRIME);
        }
    }
    h
}

/// A persisted warm-start hint: the incumbent objective and global-phase
/// assignment (`type_of[d]` = bank type index of segment `d`) of the most
/// recently solved member of an instance family.
///
/// The objective is advisory — a different family member's optimum
/// differs — so consumers must re-evaluate the assignment against their
/// own model before trusting it (the ILP layer does exactly that).
#[derive(Debug, Clone, PartialEq)]
pub struct WarmHint {
    pub objective: f64,
    pub type_of: Vec<u32>,
}

/// Counters for both persistent tiers. `disk_*` is the solution log,
/// `hint_*` the warm-start store; `*_entries` are live counts, the rest
/// monotonic since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    pub disk_entries: u64,
    pub disk_hits: u64,
    pub disk_misses: u64,
    /// Records dropped because their checksum or framing failed — bit
    /// rot, not crash truncation (torn tails are expected and uncounted).
    pub disk_corrupt: u64,
    pub hint_entries: u64,
    pub hint_hits: u64,
    pub hint_misses: u64,
}

/// Where a live solution record's payload sits in the log.
#[derive(Debug, Clone, Copy)]
struct SolutionSlot {
    /// Offset of the payload (past kind + key) within the log file.
    payload_at: u64,
    payload_len: u32,
}

struct StoreInner {
    file: File,
    /// Append position (== file length; maintained manually because the
    /// same handle also seeks for reads).
    end: u64,
    /// Live solution records: key → payload location.
    index: HashMap<u128, SolutionSlot>,
    /// Warm-start hints live fully in memory (they are tiny).
    hints: HashMap<u128, WarmHint>,
}

/// The persistent two-tier store. One per `--cache-dir`; all access is
/// serialized on an internal lock (disk latency dominates, and workers
/// only touch it on memory-tier misses and solve completions).
pub struct PersistStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    disk_corrupt: AtomicU64,
    hint_hits: AtomicU64,
    hint_misses: AtomicU64,
}

impl std::fmt::Debug for PersistStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PersistStore")
            .field("path", &self.path)
            .field("disk_entries", &s.disk_entries)
            .field("hint_entries", &s.hint_entries)
            .field("disk_corrupt", &s.disk_corrupt)
            .finish()
    }
}

/// One decoded record from a log scan.
enum ScanRecord {
    Solution {
        key: u128,
        payload_at: u64,
        payload_len: u32,
    },
    Hint {
        key: u128,
        hint: WarmHint,
    },
}

/// Outcome of scanning a log byte stream.
struct ScanOutcome {
    records: Vec<ScanRecord>,
    /// Checksum/framing failures (counted into `disk_corrupt`).
    corrupt: u64,
    /// True when compaction would change the file: something was torn,
    /// corrupt, or superseded.
    dirty: bool,
}

/// Scan a log image, tolerating any damage. Never panics.
fn scan_log(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut corrupt = 0u64;
    let mut dirty = false;
    let mut at = 0usize;
    loop {
        let rest = &bytes[at..];
        if rest.is_empty() {
            break; // clean EOF
        }
        if rest.len() < 8 {
            dirty = true; // torn header
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        let check = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if check != len ^ LEN_CHECK_XOR {
            // The length itself is untrustworthy: the rest of the file
            // cannot be re-framed. One corruption, stop.
            corrupt += 1;
            dirty = true;
            break;
        }
        let body_end = 8usize.saturating_add(len as usize);
        let frame_end = body_end.saturating_add(8);
        if frame_end > rest.len() {
            dirty = true; // torn body/checksum: crash tail, not corruption
            break;
        }
        let body = &rest[8..body_end];
        let stored = u64::from_le_bytes(rest[body_end..frame_end].try_into().unwrap());
        if fnv64(&[body]) != stored {
            // Damaged body, intact framing: skip exactly this record.
            corrupt += 1;
            dirty = true;
            at += frame_end;
            continue;
        }
        match decode_body(body, at as u64 + 8) {
            Some(rec) => records.push(rec),
            None => {
                // Checksummed but undecodable (unknown kind / short
                // payload): written by a future or damaged writer.
                corrupt += 1;
                dirty = true;
            }
        }
        at += frame_end;
    }
    ScanOutcome {
        records,
        corrupt,
        dirty,
    }
}

/// Decode one checksum-verified record body. `body_at` is the body's
/// offset within the log (to locate the payload for lazy reads).
fn decode_body(body: &[u8], body_at: u64) -> Option<ScanRecord> {
    if body.len() < 1 + 16 {
        return None;
    }
    let kind = body[0];
    let key = u128::from_le_bytes(body[1..17].try_into().unwrap());
    let payload = &body[17..];
    match kind {
        KIND_SOLUTION => {
            if payload.len() < 8 {
                return None;
            }
            Some(ScanRecord::Solution {
                key,
                payload_at: body_at + 17,
                payload_len: payload.len() as u32,
            })
        }
        KIND_HINT => {
            if payload.len() < 12 {
                return None;
            }
            let objective = f64::from_le_bytes(payload[0..8].try_into().unwrap());
            let n = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
            if payload.len() != 12 + 4 * n {
                return None;
            }
            let type_of = (0..n)
                .map(|i| u32::from_le_bytes(payload[12 + 4 * i..16 + 4 * i].try_into().unwrap()))
                .collect();
            Some(ScanRecord::Hint {
                key,
                hint: WarmHint { objective, type_of },
            })
        }
        _ => None,
    }
}

/// Frame one record: header, body, checksum.
fn encode_record(kind: u8, key: u128, payload: &[u8]) -> Vec<u8> {
    let len = (1 + 16 + payload.len()) as u32;
    let mut out = Vec::with_capacity(FRAME_OVERHEAD as usize + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&(len ^ LEN_CHECK_XOR).to_le_bytes());
    let body_start = out.len();
    out.push(kind);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(payload);
    let sum = fnv64(&[&out[body_start..]]);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn solution_payload(objective: f64, solution_json: &str) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + solution_json.len());
    payload.extend_from_slice(&objective.to_le_bytes());
    payload.extend_from_slice(solution_json.as_bytes());
    payload
}

fn hint_payload(hint: &WarmHint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(12 + 4 * hint.type_of.len());
    payload.extend_from_slice(&hint.objective.to_le_bytes());
    payload.extend_from_slice(&(hint.type_of.len() as u32).to_le_bytes());
    for &t in &hint.type_of {
        payload.extend_from_slice(&t.to_le_bytes());
    }
    payload
}

impl PersistStore {
    /// Open (or create) the store under `dir`, replaying the segment log.
    /// Superseded, torn, and corrupt records found during replay are
    /// compacted away before the store starts appending.
    pub fn open(dir: &Path) -> std::io::Result<PersistStore> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(LOG_NAME);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let scan = scan_log(&bytes);

        // Last writer wins per key, for both kinds.
        let mut index: HashMap<u128, SolutionSlot> = HashMap::new();
        let mut hints: HashMap<u128, WarmHint> = HashMap::new();
        let mut superseded = false;
        for rec in scan.records {
            match rec {
                ScanRecord::Solution {
                    key,
                    payload_at,
                    payload_len,
                } => {
                    superseded |= index
                        .insert(
                            key,
                            SolutionSlot {
                                payload_at,
                                payload_len,
                            },
                        )
                        .is_some();
                }
                ScanRecord::Hint { key, hint } => {
                    superseded |= hints.insert(key, hint).is_some();
                }
            }
        }

        if scan.dirty || superseded {
            // Compact: rewrite only the survivors, atomically.
            let tmp = dir.join(format!("{LOG_NAME}.tmp"));
            let mut out = Vec::new();
            let mut compacted: HashMap<u128, SolutionSlot> = HashMap::new();
            let mut keys: Vec<u128> = index.keys().copied().collect();
            keys.sort_unstable();
            for key in keys {
                let slot = index[&key];
                let payload = &bytes[slot.payload_at as usize
                    ..(slot.payload_at + slot.payload_len as u64) as usize];
                let rec = encode_record(KIND_SOLUTION, key, payload);
                compacted.insert(
                    key,
                    SolutionSlot {
                        payload_at: (out.len() + 8 + 17) as u64,
                        payload_len: slot.payload_len,
                    },
                );
                out.extend_from_slice(&rec);
            }
            let mut hkeys: Vec<u128> = hints.keys().copied().collect();
            hkeys.sort_unstable();
            for key in hkeys {
                out.extend_from_slice(&encode_record(KIND_HINT, key, &hint_payload(&hints[&key])));
            }
            let mut f = File::create(&tmp)?;
            f.write_all(&out)?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            index = compacted;
        }

        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)?;
        let end = file.metadata()?.len();
        Ok(PersistStore {
            path,
            inner: Mutex::with_rank(
                StoreInner {
                    file,
                    end,
                    index,
                    hints,
                },
                crate::ranks::PERSIST,
                "persist-store",
            ),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            disk_corrupt: AtomicU64::new(scan.corrupt),
            hint_hits: AtomicU64::new(0),
            hint_misses: AtomicU64::new(0),
        })
    }

    /// Path of the segment log (for diagnostics and log lines).
    pub fn log_path(&self) -> &Path {
        &self.path
    }

    /// Look up a solution on disk. Returns `(objective, solution_json)`
    /// and counts a disk hit; the payload's checksum was verified at
    /// load/compaction time, and the JSON must still decode as UTF-8 —
    /// if the file was damaged underneath us the record is dropped and
    /// counted corrupt instead of served.
    pub fn get(&self, key: InstanceKey) -> Option<(f64, String)> {
        let mut inner = self.inner.lock();
        let slot = match inner.index.get(&key.0).copied() {
            Some(slot) => slot,
            None => {
                drop(inner);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let mut buf = vec![0u8; slot.payload_len as usize];
        let read = inner
            .file
            .seek(SeekFrom::Start(slot.payload_at))
            .and_then(|_| inner.file.read_exact(&mut buf));
        let decoded = read.ok().and_then(|()| {
            let objective = f64::from_le_bytes(buf[0..8].try_into().unwrap());
            String::from_utf8(buf[8..].to_vec())
                .ok()
                .map(|json| (objective, json))
        });
        match decoded {
            Some(hit) => {
                drop(inner);
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                inner.index.remove(&key.0);
                drop(inner);
                self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
                self.disk_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Peek the index without touching hit/miss counters.
    pub fn contains(&self, key: InstanceKey) -> bool {
        self.inner.lock().index.contains_key(&key.0)
    }

    /// Append a solution record. Deduplicates on key (solutions are
    /// deterministic, so a duplicate insert carries identical bytes and
    /// only wastes log space). I/O errors are swallowed: persistence is
    /// best-effort and the memory tier still holds the entry.
    pub fn put(&self, key: InstanceKey, objective: f64, solution_json: &str) {
        let mut inner = self.inner.lock();
        if inner.index.contains_key(&key.0) {
            return;
        }
        let rec = encode_record(
            KIND_SOLUTION,
            key.0,
            &solution_payload(objective, solution_json),
        );
        if self.append(&mut inner, &rec) {
            let payload_at = inner.end - rec.len() as u64 + 8 + 17;
            inner.index.insert(
                key.0,
                SolutionSlot {
                    payload_at,
                    payload_len: (8 + solution_json.len()) as u32,
                },
            );
        }
    }

    /// Look up a warm-start hint for an instance family.
    pub fn hint(&self, family: InstanceKey) -> Option<WarmHint> {
        let hit = self.inner.lock().hints.get(&family.0).cloned();
        match hit {
            Some(h) => {
                self.hint_hits.fetch_add(1, Ordering::Relaxed);
                Some(h)
            }
            None => {
                self.hint_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record (or refresh) the hint for a family. Last writer wins — the
    /// most recent family member's assignment is the freshest seed; on
    /// reload, the later record supersedes the earlier one the same way.
    pub fn put_hint(&self, family: InstanceKey, hint: &WarmHint) {
        let mut inner = self.inner.lock();
        if inner.hints.get(&family.0) == Some(hint) {
            return; // identical hint: don't grow the log
        }
        let rec = encode_record(KIND_HINT, family.0, &hint_payload(hint));
        if self.append(&mut inner, &rec) {
            inner.hints.insert(family.0, hint.clone());
        }
    }

    /// Append one framed record, maintaining `end`. Returns success.
    fn append(&self, inner: &mut StoreInner, rec: &[u8]) -> bool {
        match inner.file.write_all(rec).and_then(|()| inner.file.flush()) {
            Ok(()) => {
                inner.end += rec.len() as u64;
                true
            }
            Err(_) => {
                // The handle may now be mid-record; resync `end` with the
                // file so a later append at least frames correctly, and
                // accept that a torn record may be compacted at next open.
                if let Ok(meta) = inner.file.metadata() {
                    inner.end = meta.len();
                }
                false
            }
        }
    }

    /// Live solution-record count.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> PersistStats {
        let (disk_entries, hint_entries) = {
            let inner = self.inner.lock();
            (inner.index.len() as u64, inner.hints.len() as u64)
        };
        PersistStats {
            disk_entries,
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.disk_misses.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
            hint_entries,
            hint_hits: self.hint_hits.load(Ordering::Relaxed),
            hint_misses: self.hint_misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gmm-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn key(n: u128) -> InstanceKey {
        InstanceKey(n)
    }

    #[test]
    fn put_get_round_trips_in_process() {
        let dir = temp_dir("roundtrip");
        let store = PersistStore::open(&dir).unwrap();
        assert!(store.get(key(1)).is_none());
        store.put(key(1), 42.5, "{\"sol\":1}");
        assert_eq!(store.get(key(1)), Some((42.5, "{\"sol\":1}".to_string())));
        let s = store.stats();
        assert_eq!((s.disk_entries, s.disk_hits, s.disk_misses), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reload_after_drop_serves_identical_bytes() {
        let dir = temp_dir("reload");
        {
            let store = PersistStore::open(&dir).unwrap();
            store.put(key(7), 1.0, "{\"a\":1}");
            store.put(key(9), 2.0, "{\"b\":[2,3]}");
            store.put_hint(
                key(100),
                &WarmHint {
                    objective: 3.5,
                    type_of: vec![0, 2, 1],
                },
            );
        }
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(store.get(key(7)), Some((1.0, "{\"a\":1}".to_string())));
        assert_eq!(store.get(key(9)), Some((2.0, "{\"b\":[2,3]}".to_string())));
        assert_eq!(
            store.hint(key(100)),
            Some(WarmHint {
                objective: 3.5,
                type_of: vec![0, 2, 1],
            })
        );
        assert_eq!(store.stats().disk_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_solutions_do_not_grow_the_log() {
        let dir = temp_dir("dedup");
        let store = PersistStore::open(&dir).unwrap();
        store.put(key(1), 1.0, "{}");
        let len1 = std::fs::metadata(store.log_path()).unwrap().len();
        store.put(key(1), 1.0, "{}");
        let len2 = std::fs::metadata(store.log_path()).unwrap().len();
        assert_eq!(len1, len2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hint_updates_are_last_writer_wins_across_reload() {
        let dir = temp_dir("hintlast");
        {
            let store = PersistStore::open(&dir).unwrap();
            store.put_hint(
                key(5),
                &WarmHint {
                    objective: 9.0,
                    type_of: vec![1],
                },
            );
            store.put_hint(
                key(5),
                &WarmHint {
                    objective: 4.0,
                    type_of: vec![0],
                },
            );
        }
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(
            store.hint(key(5)),
            Some(WarmHint {
                objective: 4.0,
                type_of: vec![0]
            })
        );
        // The superseded record was compacted away: reopening again finds
        // a clean log (no further compaction, same answer).
        let len = std::fs::metadata(store.log_path()).unwrap().len();
        drop(store);
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(std::fs::metadata(store.log_path()).unwrap().len(), len);
        assert_eq!(
            store.hint(key(5)),
            Some(WarmHint {
                objective: 4.0,
                type_of: vec![0]
            })
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_recovered_and_not_counted_corrupt() {
        let dir = temp_dir("torn");
        {
            let store = PersistStore::open(&dir).unwrap();
            store.put(key(1), 1.0, "{\"keep\":true}");
            store.put(key(2), 2.0, "{\"gone\":true}");
        }
        let path = dir.join(LOG_NAME);
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the middle of the second record.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(
            store.get(key(1)),
            Some((1.0, "{\"keep\":true}".to_string()))
        );
        assert!(store.get(key(2)).is_none());
        assert_eq!(
            store.stats().disk_corrupt,
            0,
            "a torn tail is not corruption"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_body_byte_is_skipped_and_counted() {
        let dir = temp_dir("flip");
        {
            let store = PersistStore::open(&dir).unwrap();
            store.put(key(1), 1.0, "{\"first\":1}");
            store.put(key(2), 2.0, "{\"second\":2}");
            store.put(key(3), 3.0, "{\"third\":3}");
        }
        let path = dir.join(LOG_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the *second* record's JSON payload.
        let rec1_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize + 16;
        bytes[rec1_len + 8 + 17 + 10] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(store.get(key(1)), Some((1.0, "{\"first\":1}".to_string())));
        assert!(
            store.get(key(2)).is_none(),
            "damaged record must not be served"
        );
        assert_eq!(store.get(key(3)), Some((3.0, "{\"third\":3}".to_string())));
        assert_eq!(store.stats().disk_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_and_missing_logs_open_clean() {
        let dir = temp_dir("empty");
        let store = PersistStore::open(&dir).unwrap();
        assert!(store.is_empty());
        drop(store);
        std::fs::write(dir.join(LOG_NAME), b"").unwrap();
        let store = PersistStore::open(&dir).unwrap();
        assert_eq!(store.stats(), PersistStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
