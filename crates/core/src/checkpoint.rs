//! Phase-level checkpointing for the production executor.
//!
//! §4.1's production stage runs for hours over full tables; a process
//! death at hour three should not restart blocking from scratch. The
//! executor therefore writes a durable [`Checkpoint`] after each phase —
//! the candidate set after blocking, the match set when done.
//!
//! The wire format is **`emckpt v3`** ([`Checkpoint::to_bytes`] /
//! [`Checkpoint::from_bytes`]): a [`magellan_table::container`] holding a
//! phase segment and a pairs segment, each with its own FNV-1a checksum,
//! with candidate pair lists stored as zigzag-varint deltas. A 10M-pair
//! candidate set is a few dozen MB instead of a multi-hundred-MB text
//! serialization, and a torn write is caught by the damaged segment's
//! checksum instead of being half-parsed into a plausible but wrong resume
//! state. Files of earlier versions are rejected as unsupported.
//!
//! A corrupt or truncated checkpoint is a **fatal**
//! [`MagellanError::Checkpoint`] (retrying cannot fix bad bytes), while an
//! I/O blip during save/load is **transient** and the executor retries it
//! under its [`magellan_faults::RetryPolicy`]. The service layer's `emsvc`
//! and the stream tier's `emstream` checkpoints share the container and
//! the stores.
//!
//! Stores are pluggable via the byte-oriented [`CheckpointStore`].
//! [`MemStore`] backs the chaos suite, [`FileStore`] backs real runs, and
//! [`FlakyStore`] wraps either with seeded transient I/O faults from a
//! [`magellan_faults::FaultPlan`] so the retry loop is exercised
//! deterministically.

use std::fmt;
use std::io::Write as _;
use std::path::PathBuf;

use magellan_faults::FaultPlan;
use magellan_table::container::{put_varint, Reader, Writer};
use magellan_table::TableError;

use crate::error::MagellanError;

/// The checkpointable phases of a production run, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Candidate generation over the two tables.
    Blocking,
    /// Feature extraction + prediction + rule layer.
    Matching,
}

impl Phase {
    /// Stable lowercase name used in checkpoints and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Blocking => "blocking",
            Phase::Matching => "matching",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A durable snapshot of a production run after some phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Checkpoint {
    /// Blocking finished: the candidate set survives a restart.
    Blocked {
        /// Candidate pairs `(a_row, b_row)` in blocker output order.
        candidates: Vec<(u32, u32)>,
    },
    /// The whole run finished: the match set and candidate count survive.
    Done {
        /// Predicted match pairs in decision order.
        matches: Vec<(u32, u32)>,
        /// Candidate pairs that were examined.
        n_candidates: usize,
    },
}

impl Checkpoint {
    /// The phase whose completion this checkpoint records.
    pub fn phase(&self) -> Phase {
        match self {
            Checkpoint::Blocked { .. } => Phase::Blocking,
            Checkpoint::Done { .. } => Phase::Matching,
        }
    }

    /// Serialize to the binary `emckpt v3` format, a container of:
    ///
    /// ```text
    /// magic "emckptv3"
    /// 0x01 phase  — code:u64 (0 blocked | 1 done), then n_candidates:u64 (done)
    /// 0x02 pairs  — count:u64, then per pair zigzag-varint deltas
    ///               (l - prev_l, r - prev_r; prev starts at (0, 0))
    /// ```
    ///
    /// Blocker output is near-sorted, so the deltas are tiny and most
    /// pairs cost 2–4 bytes instead of ~12 bytes of text. Each segment
    /// carries its own checksum, so a torn write is pinned to the damaged
    /// segment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = magellan_obs::span("ckpt_write", 0);
        let (phase, pairs) = match self {
            Checkpoint::Blocked { candidates } => (vec![PHASE_BLOCKED], candidates),
            Checkpoint::Done {
                matches,
                n_candidates,
            } => (vec![PHASE_DONE, *n_candidates as u64], matches),
        };
        let phase: Vec<u8> = phase.iter().flat_map(|v| v.to_le_bytes()).collect();
        let write = || -> std::io::Result<Vec<u8>> {
            let mut w = Writer::new(Vec::new(), MAGIC)?;
            for (tag, payload) in [(SEG_PHASE, phase), (SEG_PAIRS, encode_pairs(pairs))] {
                let _span = magellan_obs::span("ckpt_segment_write", tag);
                w.segment(tag, &payload)?;
            }
            let _span = magellan_obs::span("ckpt_segment_write", SEG_END);
            w.finish()
        };
        let out = write().expect("writing to a Vec cannot fail");
        magellan_obs::span_res_add("ckpt_bytes", out.len() as u64);
        magellan_obs::counter_add("magellan_core_checkpoint_bytes_total", out.len() as u64);
        out
    }

    /// Parse an `emckpt v3` checkpoint. Anything else — another magic or
    /// version, a truncated or checksum-failed segment, trailing bytes, an
    /// unknown phase, an out-of-range pair — is a fatal
    /// [`MagellanError::Checkpoint`] carrying the offending byte offset.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, MagellanError> {
        let _span = magellan_obs::span("ckpt_read", 0);
        magellan_obs::span_res_add("ckpt_bytes", data.len() as u64);
        Checkpoint::decode(data).map_err(|e| corrupt("checkpoint", e))
    }

    fn decode(data: &[u8]) -> magellan_table::Result<Checkpoint> {
        let mut file = Reader::open(data, MAGIC)?;
        let mut phase = {
            let _span = magellan_obs::span("ckpt_segment_read", SEG_PHASE);
            file.segment(SEG_PHASE)?
        };
        let pairs = {
            let _span = magellan_obs::span("ckpt_segment_read", SEG_PAIRS);
            file.segment(SEG_PAIRS)?
        };
        {
            let _span = magellan_obs::span("ckpt_segment_read", SEG_END);
            file.finish()?;
        }
        let pairs = decode_pairs(pairs)?;
        let ck = match phase.u64()? {
            PHASE_BLOCKED => Checkpoint::Blocked { candidates: pairs },
            PHASE_DONE => Checkpoint::Done {
                matches: pairs,
                n_candidates: phase.u64()? as usize,
            },
            code => return Err(phase.error(format!("unknown phase code {code}"))),
        };
        phase.finish()?;
        Ok(ck)
    }
}

/// Container magic of the current checkpoint version.
const MAGIC: &[u8; 8] = b"emckptv3";

const SEG_PHASE: u64 = 0x01;
const SEG_PAIRS: u64 = 0x02;
/// Span key of the container's end segment (`ckpt_segment_*` spans are
/// keyed by segment tag).
const SEG_END: u64 = 0xee;

const PHASE_BLOCKED: u64 = 0;
const PHASE_DONE: u64 = 1;

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Pair-list payload: `count:u64` then zigzag-varint deltas per pair.
fn encode_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + pairs.len() * 3);
    out.extend_from_slice(&(pairs.len() as u64).to_le_bytes());
    let (mut pl, mut pr) = (0i64, 0i64);
    for &(l, r) in pairs {
        put_varint(&mut out, zigzag(i64::from(l) - pl));
        put_varint(&mut out, zigzag(i64::from(r) - pr));
        pl = i64::from(l);
        pr = i64::from(r);
    }
    out
}

fn decode_pairs(mut c: Reader<'_>) -> magellan_table::Result<Vec<(u32, u32)>> {
    let n = c.u64()?;
    let mut pairs = Vec::with_capacity(n.min(1 << 20) as usize);
    let mut next = |prev: u32| {
        let v = i64::from(prev).checked_add(unzigzag(c.varint()?));
        v.and_then(|v| u32::try_from(v).ok())
            .ok_or_else(|| c.error("pair out of u32 range"))
    };
    let mut prev = (0, 0);
    for _ in 0..n {
        prev = (next(prev.0)?, next(prev.1)?);
        pairs.push(prev);
    }
    c.finish()?;
    Ok(pairs)
}

/// A container decode failure as the fatal checkpoint error it is.
pub(crate) fn corrupt(what: &str, e: TableError) -> MagellanError {
    MagellanError::Checkpoint {
        message: format!("corrupt {what}: {e}"),
        transient: false,
    }
}

/// Where checkpoints live: `save_bytes`/`load_bytes` may fail
/// transiently (I/O); callers retry under a
/// [`magellan_faults::RetryPolicy`]. `load_bytes` returning `Ok(None)`
/// means "no checkpoint yet" — a fresh run.
pub trait CheckpointStore {
    /// Durably replace the stored checkpoint bytes.
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError>;
    /// Read back the stored checkpoint bytes, if any.
    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError>;
    /// Discard any stored checkpoint.
    fn clear(&mut self) -> Result<(), MagellanError>;
}

/// In-memory store for tests and the chaos suite.
#[derive(Debug, Clone, Default)]
pub struct MemStore {
    data: Option<Vec<u8>>,
}

impl MemStore {
    /// Empty store.
    pub fn new() -> Self {
        MemStore::default()
    }
}

impl CheckpointStore for MemStore {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        self.data = Some(data.to_vec());
        Ok(())
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        Ok(self.data.clone())
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        self.data = None;
        Ok(())
    }
}

/// File-backed store: writes to a sibling temp file then renames, so a
/// death mid-save leaves the previous checkpoint intact.
#[derive(Debug, Clone)]
pub struct FileStore {
    path: PathBuf,
}

impl FileStore {
    /// Store at `path`. The parent directory must exist.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStore { path: path.into() }
    }
}

impl CheckpointStore for FileStore {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        let tmp = self.path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(data)?;
        f.sync_all()?;
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        match std::fs::read(&self.path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }
}

/// Wraps any store with seeded transient I/O failures drawn from a
/// [`FaultPlan`], so checkpoint retry loops can be exercised
/// deterministically. Each operation site (save/load/clear) fails for a
/// bounded run of consecutive attempts, then succeeds — mirroring the
/// plan's `max_failures_per_site` convergence guarantee.
#[derive(Debug, Clone)]
pub struct FlakyStore<S> {
    /// The real store.
    pub inner: S,
    /// Where the injected faults come from.
    plan: FaultPlan,
    ops: [FlakyOp; 3],
}

#[derive(Debug, Clone, Copy, Default)]
struct FlakyOp {
    /// Distinct logical operation count (bumps on success).
    op: u64,
    /// Consecutive failed attempts of the current logical operation.
    attempt: u32,
}

/// Operation sites for [`FlakyStore`]'s fault keying.
const OP_SAVE: u64 = 0x5a;
const OP_LOAD: u64 = 0x10;
const OP_CLEAR: u64 = 0xc1;

impl<S> FlakyStore<S> {
    /// Wrap `inner`, drawing faults from `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FlakyStore {
            inner,
            plan,
            ops: [FlakyOp::default(); 3],
        }
    }

    /// Returns an injected transient error, or advances to success.
    fn gate(&mut self, site: usize, tag: u64, what: &str) -> Result<(), MagellanError> {
        let st = &mut self.ops[site];
        if self.plan.io_fails(tag.wrapping_add(st.op << 8), st.attempt) {
            st.attempt += 1;
            return Err(MagellanError::Checkpoint {
                message: format!("injected transient I/O failure during checkpoint {what}"),
                transient: true,
            });
        }
        st.attempt = 0;
        st.op += 1;
        Ok(())
    }
}

impl<S: CheckpointStore> CheckpointStore for FlakyStore<S> {
    fn save_bytes(&mut self, data: &[u8]) -> Result<(), MagellanError> {
        self.gate(0, OP_SAVE, "save")?;
        self.inner.save_bytes(data)
    }

    fn load_bytes(&mut self) -> Result<Option<Vec<u8>>, MagellanError> {
        self.gate(1, OP_LOAD, "load")?;
        self.inner.load_bytes()
    }

    fn clear(&mut self) -> Result<(), MagellanError> {
        self.gate(2, OP_CLEAR, "clear")?;
        self.inner.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_round_trips() {
        let ck = Checkpoint::Blocked {
            candidates: vec![(0, 1), (2, 3), (7, 7), (7, 9)],
        };
        assert_eq!(ck.phase(), Phase::Blocking);
        let bytes = ck.to_bytes();
        assert!(bytes.starts_with(MAGIC));
        assert_eq!(Checkpoint::from_bytes(&bytes).unwrap(), ck);
    }

    #[test]
    fn done_round_trips() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        };
        assert_eq!(ck.phase(), Phase::Matching);
        assert_eq!(Checkpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
        // Empty match set round-trips too.
        let ck = Checkpoint::Done {
            matches: vec![],
            n_candidates: 0,
        };
        assert_eq!(Checkpoint::from_bytes(&ck.to_bytes()).unwrap(), ck);
    }

    #[test]
    fn v2_round_trips_and_handshakes_with_v1() {
        let blocked = Checkpoint::Blocked {
            candidates: vec![(0, 1), (2, 3), (7, 7), (7, 9)],
        };
        let done = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        };
        let empty = Checkpoint::Done {
            matches: vec![],
            n_candidates: 0,
        };
        // Deltas go negative when pairs are not sorted; zigzag handles it.
        let unsorted = Checkpoint::Blocked {
            candidates: vec![(9, 100), (0, 3), (u32::MAX, 0)],
        };
        for ck in [&blocked, &done, &empty, &unsorted] {
            let bytes = ck.to_bytes();
            assert!(bytes.starts_with(MAGIC));
            assert_eq!(&Checkpoint::from_bytes(&bytes).unwrap(), ck);
        }
        // Handshake with older files: an `emckpt v1` text checkpoint and an
        // `emckpt v2` binary header are recognised as this file kind at an
        // unsupported version — a fatal error naming the version, never a
        // misparse into a resume state.
        let v1_text = b"emckpt v1\nphase matching\ncandidates 42\nmatches 1\n1 2\n";
        let v2_head: Vec<u8> = b"emckpt v2\0"
            .iter()
            .chain(&done.to_bytes()[8..])
            .copied()
            .collect();
        for old in [&v1_text[..], &v2_head[..]] {
            let err = Checkpoint::from_bytes(old).unwrap_err();
            assert!(err.fatal(), "{err} should be fatal");
            assert!(err.to_string().contains("unsupported version"), "{err}");
            assert!(
                err.to_string().contains("emckptv3"),
                "{err} should name the readable version"
            );
        }
    }

    /// Framing errors are the container's (its matrix covers every flip
    /// and prefix); here one of each goes through this reader, plus the
    /// checks `emckpt` makes on payloads that framed correctly.
    #[test]
    fn checksum_detects_truncation_and_tampering() {
        let ck = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9), (11, 13)],
            n_candidates: 42,
        };
        let bytes = ck.to_bytes();
        let fails = |b: &[u8], needle: &str| {
            let err = Checkpoint::from_bytes(b).unwrap_err();
            assert!(err.fatal(), "{err} should be fatal");
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle:?}"
            );
        };
        let mut flipped = bytes.clone();
        flipped[bytes.len() - 40] ^= 0x01; // inside the pairs payload
        fails(&flipped, "checksum mismatch");
        fails(&bytes[..bytes.len() - 1], "at byte");
        let v2: Vec<u8> = b"emckpt v2\0".iter().chain(&bytes[8..]).copied().collect();
        fails(&v2, "unsupported version");
        fails(b"emtbl v2", "bad magic");
        // Structurally valid files with payloads emckpt refuses.
        let forge = |phase: &[u64], pairs: &[u8]| {
            let phase: Vec<u8> = phase.iter().flat_map(|v| v.to_le_bytes()).collect();
            let mut w = Writer::new(Vec::new(), MAGIC).unwrap();
            w.segment(SEG_PHASE, &phase).unwrap();
            w.segment(SEG_PAIRS, pairs).unwrap();
            w.finish().unwrap()
        };
        let no_pairs = encode_pairs(&[]);
        fails(&forge(&[0x7f], &no_pairs), "unknown phase code 127");
        fails(&forge(&[PHASE_BLOCKED, 9], &no_pairs), "trailing bytes");
        let mut big = 1u64.to_le_bytes().to_vec();
        put_varint(&mut big, zigzag(1 << 40));
        put_varint(&mut big, 0);
        fails(&forge(&[PHASE_BLOCKED], &big), "out of u32 range");
    }

    #[test]
    fn torn_write_through_flaky_store_is_detected_not_half_parsed() {
        // A small `Done` checkpoint overwrites a large `Blocked` one and
        // the save tears at an arbitrary byte: the store holds the new
        // head over the old tail. Whatever the cut, loading through the
        // flaky store under retry yields bytes that are a fatal error —
        // never a checkpoint assembled from half of each file.
        let old = Checkpoint::Blocked {
            candidates: (0..64u32).map(|i| (i, i * 3 + 1)).collect(),
        }
        .to_bytes();
        let new = Checkpoint::Done {
            matches: vec![(3, 4), (6, 8)],
            n_candidates: 64,
        }
        .to_bytes();
        assert!(new.len() < old.len());
        let plan = FaultPlan {
            io_error_per_mille: 1000,
            ..FaultPlan::seeded(23)
        };
        // The last cut leaves the new file followed by the old file's
        // leftover tail.
        for cut in 0..=new.len() {
            let torn: Vec<u8> = new[..cut].iter().chain(&old[cut..]).copied().collect();
            if torn == old {
                continue; // only bytes both files share landed: the old file is intact
            }
            let mut store = FlakyStore::new(MemStore::new(), plan);
            store.inner.save_bytes(&torn).unwrap();
            let mut clock = magellan_faults::SimClock::new();
            let loaded = magellan_faults::run_with_retry(
                &magellan_faults::RetryPolicy::default(),
                &mut clock,
                |_| store.load_bytes(),
            )
            .expect("transient injected I/O converges under retry")
            .expect("a checkpoint is present");
            let err = Checkpoint::from_bytes(&loaded)
                .expect_err(&format!("torn at byte {cut} must not parse"));
            assert!(
                err.fatal(),
                "torn at byte {cut}: {err} must be fatal, not retried"
            );
        }
    }

    #[test]
    fn v2_torn_write_through_flaky_store_is_detected() {
        // An old checkpoint sits in the store; a crash mid-save splices
        // the new file's head onto the old file's tail. The pairs
        // segment's checksum covers the old payload, so the hybrid is a
        // precise fatal error instead of a plausible but wrong resume.
        let old = Checkpoint::Done {
            matches: vec![(1, 2), (5, 9)],
            n_candidates: 42,
        }
        .to_bytes();
        let new = Checkpoint::Done {
            matches: vec![(3, 4), (6, 8)],
            n_candidates: 43,
        }
        .to_bytes();
        assert_eq!(
            old.len(),
            new.len(),
            "same shape so the splice stays frame-valid"
        );
        // Pairs payload: count u64 + four one-byte deltas, padded to 16,
        // then its checksum and the 24-byte end segment. Tear after the
        // first pair.
        let pairs_at = new.len() - 24 - 8 - 16;
        let cut = pairs_at + 8 + 2;
        let torn: Vec<u8> = new[..cut].iter().chain(&old[cut..]).copied().collect();
        assert_ne!(torn, old);
        assert_ne!(torn, new);
        let plan = FaultPlan {
            io_error_per_mille: 1000,
            ..FaultPlan::seeded(17)
        };
        let mut store = FlakyStore::new(MemStore::new(), plan);
        // The save that tore: model it by placing the hybrid bytes in the
        // inner store directly (FlakyStore injects errors, not bytes).
        store.inner.save_bytes(&torn).unwrap();
        let mut clock = magellan_faults::SimClock::new();
        let loaded = magellan_faults::run_with_retry(
            &magellan_faults::RetryPolicy::default(),
            &mut clock,
            |_| store.load_bytes(),
        )
        .expect("transient injected I/O converges under retry")
        .expect("a checkpoint is present");
        let err = Checkpoint::from_bytes(&loaded).unwrap_err();
        assert!(err.fatal(), "torn write must be fatal, not retried");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // Control: reblessing the torn pairs segment with a freshly
        // computed checksum *would* parse (into the wrong pairs) — the
        // per-segment checksum is what catches the tear.
        let sum = magellan_obs::fnv1a(&torn[pairs_at..pairs_at + 12]);
        let mut reblessed = torn.clone();
        reblessed[pairs_at + 16..pairs_at + 24].copy_from_slice(&sum.to_le_bytes());
        let wrong = Checkpoint::from_bytes(&reblessed).unwrap();
        assert_ne!(wrong.to_bytes(), old);
        assert_ne!(wrong.to_bytes(), new);
    }

    #[test]
    fn mem_store_round_trips_and_clears() {
        let mut s = MemStore::new();
        assert!(s.load_bytes().unwrap().is_none());
        s.save_bytes(b"hello").unwrap();
        assert_eq!(s.load_bytes().unwrap().as_deref(), Some(&b"hello"[..]));
        s.clear().unwrap();
        assert!(s.load_bytes().unwrap().is_none());
    }

    #[test]
    fn file_store_round_trips_and_survives_missing_file() {
        let dir = std::env::temp_dir().join(format!("magellan-ckpt-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::new(dir.join("run.emckpt"));
        assert!(s.load_bytes().unwrap().is_none());
        let ck = Checkpoint::Blocked {
            candidates: vec![(3, 4)],
        };
        s.save_bytes(&ck.to_bytes()).unwrap();
        let back = Checkpoint::from_bytes(&s.load_bytes().unwrap().unwrap()).unwrap();
        assert_eq!(back, ck);
        s.clear().unwrap();
        assert!(s.load_bytes().unwrap().is_none());
        s.clear().unwrap(); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flaky_store_fails_transiently_then_converges() {
        let plan = FaultPlan {
            io_error_per_mille: 1000, // every site draws at least one failure
            ..FaultPlan::seeded(3)
        };
        let mut s = FlakyStore::new(MemStore::new(), plan);
        let mut failures = 0u32;
        let bytes = Checkpoint::Blocked { candidates: vec![] }.to_bytes();
        loop {
            match s.save_bytes(&bytes) {
                Ok(()) => break,
                Err(e) => {
                    assert!(e.transient(), "injected I/O faults must be transient");
                    failures += 1;
                    assert!(failures <= plan.max_failures_per_site, "must converge");
                }
            }
        }
        assert!(failures >= 1, "per_mille=1000 should inject at least once");
        // The same logical op retried is deterministic: a fresh store with
        // the same plan fails the same number of times.
        let mut s2 = FlakyStore::new(MemStore::new(), plan);
        let mut failures2 = 0u32;
        while s2.save_bytes(&bytes).is_err() {
            failures2 += 1;
        }
        assert_eq!(failures, failures2);
        // Load eventually works and returns what save stored.
        let loaded = loop {
            match s.load_bytes() {
                Ok(v) => break v,
                Err(e) => assert!(e.transient()),
            }
        };
        assert_eq!(loaded, Some(bytes));
    }
}
