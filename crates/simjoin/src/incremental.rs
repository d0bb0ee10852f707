//! The incremental tier: delta-maintained sim-join with O(delta) updates.
//!
//! The batch engine ([`crate::join`]) re-tokenizes, re-indexes, and
//! re-probes the whole corpus on every run — O(corpus) per update, the
//! exact cost the paper's "EM in the cloud, continuously, over evolving
//! data" agenda calls out. This module maintains the join **under
//! mutation**: records are inserted, deleted, and updated in batches, and
//! each batch emits *signed pair deltas* ([`PairDelta::Added`] /
//! [`PairDelta::Removed`]) against a standing index, in time proportional
//! to the batch, not the corpus.
//!
//! ## Index structure
//!
//! Each side keeps a two-level index:
//!
//! * a **standing CSR prefix index** ([`PrefixIndex`]) packed at the last
//!   compaction, with a per-record staleness bitmap — a delete or update
//!   *tombstones* the record's CSR postings in place (they are skipped at
//!   probe time, never eagerly unlinked);
//! * a **tail overlay** (token → postings map) holding records inserted or
//!   re-written since the compaction. Tail postings carry the record's
//!   *mutation generation*; a posting whose generation lags the record's
//!   current one is a tombstone too.
//!
//! When the tombstoned fraction of all postings crosses the compaction
//! threshold (or the tail outgrows the CSR), the index is **re-packed**:
//! one CSR build over the live records, tail cleared, staleness reset,
//! and the side's *index generation* bumped. Compaction never changes any
//! emitted pair — it is a pure layout event (asserted in tests) — so the
//! threshold is a performance knob, not a correctness knob.
//!
//! ## Token order and determinism
//!
//! The batch engine orders tokens rarest-first, but the prefix-filter
//! lemma needs only *some* total order shared by both sides — prefix
//! lengths depend on set size and threshold alone. The incremental tier
//! therefore orders tokens by **append-only interner id**, which is
//! stable under vocabulary growth: new tokens get fresh ids and no
//! existing record's sorted id set ever changes under it. Every measure's
//! similarity is a pure symmetric function of `(|x|, |y|, |x ∩ y|)`, and
//! verification computes the exact overlap, so the live view is
//! **bit-identical** — same pair set, same `f64` bits — to a from-scratch
//! [`crate::join::set_sim_join`] over the surviving records, after any
//! batch, at any worker count, regardless of compaction timing.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::{Duration, Instant};

use magellan_par::{chunk_map, JoinStats, ParConfig};
use magellan_textsim::intern::TokenInterner;
use magellan_textsim::tokenize::Tokenizer;

use crate::index::PrefixIndex;
use crate::join::{set_sim_join, verify_and_emit, JoinPair, SetSimMeasure};

/// Which collection a mutation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left collection.
    Left,
    /// The right collection.
    Right,
}

/// One record-level mutation. Record ids are assigned densely per side in
/// insertion order and are **never reused**: a delete tombstones the id, an
/// update re-writes it in place.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordMutation {
    /// Append a record (gets the next rid on its side). `None` behaves
    /// like a null attribute: it never matches anything.
    Insert {
        /// Target collection.
        side: Side,
        /// Record text (`None` = null).
        text: Option<String>,
    },
    /// Tombstone an existing record.
    Delete {
        /// Target collection.
        side: Side,
        /// Record id on that side.
        rid: usize,
    },
    /// Re-write an existing record in place (same rid, new content).
    Update {
        /// Target collection.
        side: Side,
        /// Record id on that side.
        rid: usize,
        /// Replacement text (`None` = null).
        text: Option<String>,
    },
}

/// A signed pair delta: the live matched view after a batch is exactly
/// the previous view minus `Removed` plus `Added`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairDelta {
    /// The pair now qualifies (with its exact similarity).
    Added(JoinPair),
    /// The pair no longer exists (one endpoint was deleted or re-written;
    /// a re-write that still qualifies re-appears as a fresh `Added`).
    Removed {
        /// Left record id.
        l: usize,
        /// Right record id.
        r: usize,
    },
}

/// One tail-overlay posting: like [`crate::index::Posting`] plus the
/// record generation it was packed under (stale ⇔ generation lags).
#[derive(Debug, Clone, Copy)]
struct TailPosting {
    rid: u32,
    size: u32,
    gen: u32,
}

/// Mutable record store for one side.
#[derive(Debug, Default)]
struct SideState {
    /// Live text per rid (`None` = null or tombstoned).
    texts: Vec<Option<String>>,
    /// Sorted deduplicated interner-id set per rid (empty ⇔ never
    /// matches; deletes clear it).
    tokens: Vec<Vec<u32>>,
    /// Mutation generation per rid: bumped on every delete/update, pinned
    /// into tail postings so stale ones are skipped without unlinking.
    gens: Vec<u32>,
    /// Alive flag per rid (`false` = tombstoned by a delete).
    alive: Vec<bool>,
}

impl SideState {
    fn n_alive(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }
}

/// The two-level standing index for one side.
#[derive(Debug, Default)]
struct SideIndex {
    /// CSR prefix index packed at the last compaction.
    csr: PrefixIndex,
    /// Number of rids the CSR covers (rids ≥ this live only in the tail).
    csr_len: usize,
    /// Per-CSR-rid staleness: `true` ⇔ deleted or re-written since the
    /// pack, so every CSR posting of that rid is a tombstone.
    csr_stale: Vec<bool>,
    /// Tombstoned postings still packed in the CSR.
    dead_csr_postings: usize,
    /// Tombstoned postings still held in the tail overlay.
    dead_tail_postings: usize,
    /// Tail overlay: token id → postings added since the compaction.
    tail: HashMap<u32, Vec<TailPosting>>,
    /// Total tail postings (live + tombstoned).
    n_tail_postings: usize,
    /// Index generation: bumped once per compaction.
    generation: u64,
}

impl SideIndex {
    /// Tombstoned fraction of all postings (CSR + tail).
    fn dead_fraction(&self) -> f64 {
        let total = self.csr.n_postings() + self.n_tail_postings;
        if total == 0 {
            0.0
        } else {
            (self.dead_csr_postings + self.dead_tail_postings) as f64 / total as f64
        }
    }

    /// Re-pack: one CSR build over the live records, tail cleared,
    /// staleness reset, generation bumped. Pure layout — no probe output
    /// changes across a compaction.
    fn compact(&mut self, state: &SideState, measure: SetSimMeasure) {
        self.csr = PrefixIndex::build(&state.tokens, |s| measure.prefix_len(s));
        self.csr_len = state.tokens.len();
        self.csr_stale = vec![false; self.csr_len];
        self.dead_csr_postings = 0;
        self.dead_tail_postings = 0;
        self.tail.clear();
        self.n_tail_postings = 0;
        self.generation += 1;
    }

    /// Add the current version of `rid` to the tail overlay.
    fn push_tail(&mut self, rid: usize, state: &SideState, measure: SetSimMeasure) {
        let set = &state.tokens[rid];
        let plen = measure.prefix_len(set.len()).min(set.len());
        for &tok in &set[..plen] {
            self.tail.entry(tok).or_default().push(TailPosting {
                rid: rid as u32,
                size: set.len() as u32,
                gen: state.gens[rid],
            });
        }
        self.n_tail_postings += plen;
    }
}

/// Per-probe candidate-dedup scratch (stamp-validated, reused per chunk).
struct DeltaScratch {
    /// `seen[rid] == stamp` ⇔ rid already collected for this probe.
    seen: Vec<u32>,
    /// Candidates in first-touch order.
    cand: Vec<u32>,
}

impl DeltaScratch {
    fn new(n: usize) -> Self {
        DeltaScratch {
            seen: vec![u32::MAX; n],
            cand: Vec::new(),
        }
    }
}

/// Default tombstoned-postings fraction that triggers a compaction.
pub const DEFAULT_COMPACTION_THRESHOLD: f64 = 0.25;

/// Tail postings below this never trigger the tail-outgrew-CSR repack.
const TAIL_COMPACT_FLOOR: usize = 64;

/// A delta-maintained set-similarity join over two evolving collections.
///
/// Apply [`RecordMutation`] batches with [`IncrementalJoin::apply_batch`];
/// each returns the signed [`PairDelta`]s and delta-phase [`JoinStats`].
/// The maintained view ([`IncrementalJoin::live_pairs`]) is bit-identical
/// to a from-scratch batch join over the surviving records
/// ([`IncrementalJoin::rebuild_from_scratch`]) after every batch.
///
/// ```
/// use magellan_simjoin::incremental::{IncrementalJoin, RecordMutation, Side};
/// use magellan_simjoin::SetSimMeasure;
/// use magellan_par::ParConfig;
/// use magellan_textsim::tokenize::WhitespaceTokenizer;
///
/// let tok = WhitespaceTokenizer::new();
/// let mut join = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5));
/// let (deltas, _) = join.apply_batch(
///     &[
///         RecordMutation::Insert { side: Side::Left, text: Some("dave smith".into()) },
///         RecordMutation::Insert { side: Side::Right, text: Some("dave smith".into()) },
///     ],
///     &tok,
///     &ParConfig::serial(),
/// );
/// assert_eq!(deltas.len(), 1);
/// assert_eq!(join.live_pairs(), join.rebuild_from_scratch(&tok));
/// ```
pub struct IncrementalJoin {
    measure: SetSimMeasure,
    interner: TokenInterner,
    left: SideState,
    right: SideState,
    /// Standing index over the **left** records (probed by new/changed
    /// right records).
    left_index: SideIndex,
    /// Standing index over the **right** records (probed by new/changed
    /// left records).
    right_index: SideIndex,
    /// The live qualifying-pair view: `(l, r) → exact similarity`.
    live: BTreeMap<(usize, usize), f64>,
    /// Adjacency: left rid → right partners (for O(pairs-of-record)
    /// removal, the "restrict work to affected neighborhoods" shape).
    by_left: HashMap<usize, BTreeSet<usize>>,
    /// Adjacency: right rid → left partners.
    by_right: HashMap<usize, BTreeSet<usize>>,
    compaction_threshold: f64,
    /// Wall-clock pause of every compaction so far (bench: pause p99).
    compaction_pauses: Vec<Duration>,
}

impl IncrementalJoin {
    /// Empty engine for a measure, with the default compaction threshold.
    pub fn new(measure: SetSimMeasure) -> Self {
        measure.validate();
        IncrementalJoin {
            measure,
            interner: TokenInterner::new(),
            left: SideState::default(),
            right: SideState::default(),
            left_index: SideIndex::default(),
            right_index: SideIndex::default(),
            live: BTreeMap::new(),
            by_left: HashMap::new(),
            by_right: HashMap::new(),
            compaction_threshold: DEFAULT_COMPACTION_THRESHOLD,
            compaction_pauses: Vec::new(),
        }
    }

    /// Override the tombstoned-postings fraction that triggers compaction
    /// (a pure performance knob — the view is compaction-invariant).
    pub fn with_compaction_threshold(mut self, threshold: f64) -> Self {
        assert!(threshold > 0.0, "compaction threshold must be positive");
        self.compaction_threshold = threshold;
        self
    }

    /// The engine's measure.
    pub fn measure(&self) -> SetSimMeasure {
        self.measure
    }

    /// Record texts of a side, tombstones as `None`, rid-addressed.
    pub fn texts(&self, side: Side) -> &[Option<String>] {
        match side {
            Side::Left => &self.left.texts,
            Side::Right => &self.right.texts,
        }
    }

    /// Records ever inserted on a side (tombstones included — rids are
    /// never reused).
    pub fn n_records(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.texts.len(),
            Side::Right => self.right.texts.len(),
        }
    }

    /// Live (non-tombstoned) records on a side.
    pub fn n_alive(&self, side: Side) -> usize {
        match side {
            Side::Left => self.left.n_alive(),
            Side::Right => self.right.n_alive(),
        }
    }

    /// Index generation of a side: bumped once per compaction.
    pub fn index_generation(&self, side: Side) -> u64 {
        match side {
            Side::Left => self.left_index.generation,
            Side::Right => self.right_index.generation,
        }
    }

    /// The live view as `(l, r)`-sorted pairs — the same shape (and, by
    /// the determinism contract, the same bits) as the batch join.
    pub fn live_pairs(&self) -> Vec<JoinPair> {
        self.live
            .iter()
            .map(|(&(l, r), &sim)| JoinPair { l, r, sim })
            .collect()
    }

    /// Number of live qualifying pairs.
    pub fn n_live_pairs(&self) -> usize {
        self.live.len()
    }

    /// Wall-clock pauses of all compactions so far, in event order.
    pub fn compaction_pauses(&self) -> &[Duration] {
        &self.compaction_pauses
    }

    /// From-scratch oracle: a full batch join over the current record
    /// texts. O(corpus) — exists to *prove* the delta path right (and to
    /// measure what it saves), not to serve queries.
    pub fn rebuild_from_scratch(&self, tokenizer: &dyn Tokenizer) -> Vec<JoinPair> {
        set_sim_join(&self.left.texts, &self.right.texts, tokenizer, self.measure)
    }

    /// Restore an engine from checkpointed state: record texts, the live
    /// view (exact `f64` bits), and the per-side index generations. The
    /// indexes are re-packed from the records (layout is not part of the
    /// contract); the generations are pinned to the stored values.
    pub fn restore(
        measure: SetSimMeasure,
        tokenizer: &dyn Tokenizer,
        left_texts: Vec<Option<String>>,
        right_texts: Vec<Option<String>>,
        live: Vec<JoinPair>,
        left_generation: u64,
        right_generation: u64,
    ) -> Self {
        let mut eng = IncrementalJoin::new(measure);
        eng.left = Self::restore_side(&mut eng.interner, tokenizer, left_texts);
        eng.right = Self::restore_side(&mut eng.interner, tokenizer, right_texts);
        eng.left_index.compact(&eng.left, measure);
        eng.right_index.compact(&eng.right, measure);
        eng.left_index.generation = left_generation;
        eng.right_index.generation = right_generation;
        for p in live {
            eng.live.insert((p.l, p.r), p.sim);
            eng.by_left.entry(p.l).or_default().insert(p.r);
            eng.by_right.entry(p.r).or_default().insert(p.l);
        }
        eng
    }

    fn restore_side(
        interner: &mut TokenInterner,
        tokenizer: &dyn Tokenizer,
        texts: Vec<Option<String>>,
    ) -> SideState {
        let mut state = SideState::default();
        for text in texts {
            let (tokens, alive) = match &text {
                Some(t) => (interner.intern_set(&tokenizer.tokenize(t)), true),
                None => (Vec::new(), false),
            };
            state.tokens.push(tokens);
            state.gens.push(0);
            state.alive.push(alive);
            state.texts.push(text);
        }
        state
    }

    /// Apply one mutation batch and return the signed pair deltas
    /// (`Removed` first, then `Added`, each `(l, r)`-sorted) plus the
    /// delta-phase counters. Work is O(batch × affected neighborhoods):
    /// only new/changed records are probed — in **both directions**, since
    /// the standing side's index answers "which standing records pair
    /// with this new one" and the probe covers "which new records pair
    /// with each other" by construction.
    pub fn apply_batch(
        &mut self,
        batch: &[RecordMutation],
        tokenizer: &dyn Tokenizer,
        cfg: &ParConfig,
    ) -> (Vec<PairDelta>, JoinStats) {
        let mut stats = JoinStats::default();

        // Phase 1: apply the record mutations, tombstoning superseded
        // postings and pushing the new versions into the tail overlays.
        let mut touched_left: BTreeSet<usize> = BTreeSet::new();
        let mut touched_right: BTreeSet<usize> = BTreeSet::new();
        for op in batch {
            let (side, rid, text, is_insert) = match op {
                RecordMutation::Insert { side, text } => (*side, usize::MAX, text.clone(), true),
                RecordMutation::Delete { side, rid } => (*side, *rid, None, false),
                RecordMutation::Update { side, rid, text } => (*side, *rid, text.clone(), false),
            };
            let alive = !matches!(op, RecordMutation::Delete { .. }) && text.is_some();
            let tokens = match &text {
                Some(t) => self.interner.intern_set(&tokenizer.tokenize(t)),
                None => Vec::new(),
            };
            let (state, index, touched) = match side {
                Side::Left => (&mut self.left, &mut self.left_index, &mut touched_left),
                Side::Right => (&mut self.right, &mut self.right_index, &mut touched_right),
            };
            let rid = if is_insert {
                state.texts.push(None);
                state.tokens.push(Vec::new());
                state.gens.push(0);
                state.alive.push(false);
                state.texts.len() - 1
            } else {
                assert!(rid < state.texts.len(), "mutation of unknown rid {rid}");
                rid
            };
            // Tombstone the superseded version's postings in place.
            if rid < index.csr_len && !index.csr_stale[rid] {
                index.csr_stale[rid] = true;
                index.dead_csr_postings += index.csr.prefix_len(rid);
            } else if !is_insert {
                // The superseded version (possibly an earlier op of this
                // very batch) lives in the tail; its postings go stale via
                // the generation bump below.
                let old = &state.tokens[rid];
                let old_plen = self.measure.prefix_len(old.len()).min(old.len());
                index.dead_tail_postings += old_plen;
            }
            state.texts[rid] = text;
            state.tokens[rid] = tokens;
            state.gens[rid] = state.gens[rid].wrapping_add(1);
            state.alive[rid] = alive;
            if !state.tokens[rid].is_empty() {
                index.push_tail(rid, state, self.measure);
            }
            touched.insert(rid);
        }

        // Phase 2: `Removed` deltas — every pre-batch live pair touching
        // a mutated record, straight off the adjacency (no index scan).
        let mut removed: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &l in &touched_left {
            if let Some(rs) = self.by_left.get(&l) {
                removed.extend(rs.iter().map(|&r| (l, r)));
            }
        }
        for &r in &touched_right {
            if let Some(ls) = self.by_right.get(&r) {
                removed.extend(ls.iter().map(|&l| (l, r)));
            }
        }
        for &(l, r) in &removed {
            self.live.remove(&(l, r));
            if let Some(s) = self.by_left.get_mut(&l) {
                s.remove(&r);
            }
            if let Some(s) = self.by_right.get_mut(&r) {
                s.remove(&l);
            }
        }

        // Phase 3: `Added` deltas — probe the surviving touched records
        // against the opposing standing index (CSR + tail). Touched-right
        // probes skip touched-left partners: the touched-left probes
        // already see them through the tail, so each new×new pair is
        // emitted exactly once.
        let probe_left: Vec<usize> = touched_left
            .iter()
            .copied()
            .filter(|&rid| !self.left.tokens[rid].is_empty())
            .collect();
        let probe_right: Vec<usize> = touched_right
            .iter()
            .copied()
            .filter(|&rid| !self.right.tokens[rid].is_empty())
            .collect();
        let mut touched_left_flag = vec![false; self.left.tokens.len()];
        for &rid in &touched_left {
            touched_left_flag[rid] = true;
        }

        let measure = self.measure;
        let mut added = probe_batch(
            &probe_left,
            true,
            &self.left,
            &self.right,
            &self.right_index,
            measure,
            None,
            cfg,
            &mut stats,
        );
        added.extend(probe_batch(
            &probe_right,
            false,
            &self.right,
            &self.left,
            &self.left_index,
            measure,
            Some(&touched_left_flag),
            cfg,
            &mut stats,
        ));
        added.sort_unstable_by_key(|p| (p.l, p.r));

        for p in &added {
            self.live.insert((p.l, p.r), p.sim);
            self.by_left.entry(p.l).or_default().insert(p.r);
            self.by_right.entry(p.r).or_default().insert(p.l);
        }

        // Phase 4: compaction check. Compaction is a pure layout event —
        // it happens after the deltas are computed and changes nothing
        // observable except generation counters and probe cost.
        for (side, (state, index)) in [
            (&self.left, &mut self.left_index),
            (&self.right, &mut self.right_index),
        ]
        .into_iter()
        .enumerate()
        {
            let tail_outgrew =
                index.n_tail_postings > TAIL_COMPACT_FLOOR && index.n_tail_postings > index.csr.n_postings();
            if index.dead_fraction() > self.compaction_threshold || tail_outgrew {
                let span = magellan_obs::span("compaction", side as u64);
                let t0 = Instant::now();
                index.compact(state, measure);
                let pause = t0.elapsed();
                magellan_obs::span_res_add("csr_index_bytes", index.csr.index_bytes() as u64);
                drop(span);
                if !magellan_obs::current().is_some_and(|o| o.is_pinned()) {
                    magellan_obs::hist_record(
                        "magellan_simjoin_compaction_pause_us",
                        pause.as_micros() as u64,
                    );
                }
                self.compaction_pauses.push(pause);
                stats.compactions += 1;
            }
        }

        stats.delta_pairs_added = added.len();
        stats.delta_pairs_removed = removed.len();
        stats.pairs = added.len();
        stats.publish();

        let mut deltas: Vec<PairDelta> = removed
            .into_iter()
            .map(|(l, r)| PairDelta::Removed { l, r })
            .collect();
        deltas.extend(added.into_iter().map(PairDelta::Added));
        (deltas, stats)
    }
}

/// Probe a list of new/changed records against the opposing standing
/// index on the work-stealing pool. Each probe is a pure function of
/// (record, standing state), so chunk order is irrelevant; per-chunk
/// outputs are merged in chunk order and the caller sorts by `(l, r)` —
/// bit-identical at any worker count.
#[allow(clippy::too_many_arguments)]
fn probe_batch(
    probes: &[usize],
    probe_is_left: bool,
    probe_state: &SideState,
    opp_state: &SideState,
    opp_index: &SideIndex,
    measure: SetSimMeasure,
    skip_partner: Option<&[bool]>,
    cfg: &ParConfig,
    stats: &mut JoinStats,
) -> Vec<JoinPair> {
    if probes.is_empty() {
        return Vec::new();
    }
    let (chunks, _) = chunk_map(probes.len(), cfg, |range| {
        let mut scratch = DeltaScratch::new(opp_state.tokens.len());
        let mut out = Vec::new();
        let mut js = JoinStats::default();
        for p in range {
            probe_delta_one(
                probes[p],
                p as u32,
                probe_is_left,
                &probe_state.tokens[probes[p]],
                opp_state,
                opp_index,
                measure,
                skip_partner,
                &mut scratch,
                &mut out,
                &mut js,
            );
        }
        (out, js)
    });
    let mut out = Vec::new();
    for (pairs, js) in chunks {
        out.extend(pairs);
        stats.merge(&js);
    }
    out
}

/// Probe one record through the two-level standing index:
/// size-windowed CSR postings (tombstones skipped via the staleness
/// bitmap) plus the tail overlay (tombstones skipped via generation
/// mismatch), then exact bounded verification of the deduplicated
/// candidates. Pure in (record, standing state) — counters included.
#[allow(clippy::too_many_arguments)]
fn probe_delta_one(
    probe_rid: usize,
    stamp: u32,
    probe_is_left: bool,
    x: &[u32],
    opp_state: &SideState,
    opp_index: &SideIndex,
    measure: SetSimMeasure,
    skip_partner: Option<&[bool]>,
    scratch: &mut DeltaScratch,
    out: &mut Vec<JoinPair>,
    stats: &mut JoinStats,
) {
    let sx = x.len();
    if sx == 0 {
        return;
    }
    stats.delta_probes += 1;
    stats.probes += 1;
    let (lo, hi) = measure.size_bounds(sx);
    let probe_len = measure.prefix_len(sx).min(sx);
    scratch.cand.clear();

    for &tok in &x[..probe_len] {
        // Standing CSR: the size filter is the usual binary-searched
        // contiguous window; staleness is one bitmap read per survivor.
        let win = opp_index.csr.size_window(tok, lo, hi);
        stats.killed_by_size += opp_index.csr.postings(tok).len() - win.len();
        for p in win {
            let rid = p.rid as usize;
            if opp_index.csr_stale[rid] {
                stats.tombstones_skipped += 1;
                continue;
            }
            if skip_partner.is_some_and(|s| s[rid]) {
                continue;
            }
            if scratch.seen[rid] != stamp {
                scratch.seen[rid] = stamp;
                scratch.cand.push(rid as u32);
                stats.candidates += 1;
            }
        }
        // Tail overlay: small, unsorted, scanned with per-posting size
        // and generation checks.
        if let Some(list) = opp_index.tail.get(&tok) {
            stats.tail_postings_scanned += list.len();
            for p in list {
                let rid = p.rid as usize;
                if p.gen != opp_state.gens[rid] {
                    stats.tombstones_skipped += 1;
                    continue;
                }
                let size = p.size as usize;
                if size < lo || size > hi {
                    stats.killed_by_size += 1;
                    continue;
                }
                if skip_partner.is_some_and(|s| s[rid]) {
                    continue;
                }
                if scratch.seen[rid] != stamp {
                    scratch.seen[rid] = stamp;
                    scratch.cand.push(rid as u32);
                    stats.candidates += 1;
                }
            }
        }
    }

    // Exact bounded verification over full sets. The delta path skips
    // the positional filter (batches are small and candidates few); the
    // suffix counter still reports merges the bound abandoned early.
    for &rid in &scratch.cand {
        let rid = rid as usize;
        let y = &opp_state.tokens[rid];
        let need = measure.min_overlap(sx, y.len());
        let (l, r) = if probe_is_left { (probe_rid, rid) } else { (rid, probe_rid) };
        verify_and_emit(measure, (l, r), (sx, y.len()), (x, y), 0, need, out, stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_textsim::tokenize::WhitespaceTokenizer;

    fn ins(side: Side, text: &str) -> RecordMutation {
        RecordMutation::Insert {
            side,
            text: Some(text.to_owned()),
        }
    }

    fn seed_batch(n: usize, seed: u64) -> Vec<RecordMutation> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        (0..n * 2)
            .map(|i| {
                let side = if i % 2 == 0 { Side::Left } else { Side::Right };
                let len = 2 + next() % 5;
                let text = (0..len)
                    .map(|_| format!("t{}", next() % 30))
                    .collect::<Vec<_>>()
                    .join(" ");
                ins(side, &text)
            })
            .collect()
    }

    /// After every batch the live view equals the from-scratch oracle
    /// bit-for-bit (pairs, order, f64 sims).
    #[test]
    fn live_view_equals_rebuild_under_mixed_mutations() {
        let tok = WhitespaceTokenizer::new();
        for measure in [
            SetSimMeasure::Jaccard(0.5),
            SetSimMeasure::Cosine(0.6),
            SetSimMeasure::Dice(0.6),
            SetSimMeasure::OverlapSize(2),
        ] {
            let mut eng = IncrementalJoin::new(measure);
            let cfg = ParConfig::serial();
            eng.apply_batch(&seed_batch(40, 11), &tok, &cfg);
            assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok), "{measure:?} seed");
            // Deletes, updates, more inserts, a null update.
            let batch = vec![
                RecordMutation::Delete { side: Side::Left, rid: 3 },
                RecordMutation::Delete { side: Side::Right, rid: 7 },
                RecordMutation::Update { side: Side::Left, rid: 0, text: Some("t1 t2 t3".into()) },
                RecordMutation::Update { side: Side::Right, rid: 1, text: Some("t1 t2 t3".into()) },
                RecordMutation::Update { side: Side::Right, rid: 2, text: None },
                ins(Side::Left, "t1 t2 t3 t4"),
                ins(Side::Right, "t1 t2 t3 t4"),
            ];
            eng.apply_batch(&batch, &tok, &cfg);
            assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok), "{measure:?} mixed");
        }
    }

    /// Deltas really are signed: replaying them over the previous view
    /// reproduces the new view.
    #[test]
    fn deltas_replay_to_the_new_view() {
        let tok = WhitespaceTokenizer::new();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.4));
        let cfg = ParConfig::serial();
        eng.apply_batch(&seed_batch(30, 5), &tok, &cfg);
        let mut view: BTreeMap<(usize, usize), f64> =
            eng.live_pairs().iter().map(|p| ((p.l, p.r), p.sim)).collect();
        let batch = vec![
            RecordMutation::Delete { side: Side::Left, rid: 1 },
            RecordMutation::Update { side: Side::Right, rid: 4, text: Some("t3 t4".into()) },
            ins(Side::Left, "t3 t4 t5"),
        ];
        let (deltas, stats) = eng.apply_batch(&batch, &tok, &cfg);
        for d in &deltas {
            match d {
                PairDelta::Removed { l, r } => {
                    assert!(view.remove(&(*l, *r)).is_some(), "removed a non-live pair");
                }
                PairDelta::Added(p) => {
                    assert!(view.insert((p.l, p.r), p.sim).is_none(), "double-add");
                }
            }
        }
        let replayed: Vec<JoinPair> = view
            .iter()
            .map(|(&(l, r), &sim)| JoinPair { l, r, sim })
            .collect();
        assert_eq!(replayed, eng.live_pairs());
        assert_eq!(stats.delta_pairs_added + stats.delta_pairs_removed, deltas.len());
    }

    /// The compaction threshold is a pure performance knob: eager and
    /// lazy engines agree on every view and every delta.
    #[test]
    fn compaction_never_changes_the_view() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eager = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5))
            .with_compaction_threshold(1e-9);
        let mut lazy = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5))
            .with_compaction_threshold(1e9);
        let mut batches = vec![seed_batch(25, 3)];
        batches.push(vec![
            RecordMutation::Delete { side: Side::Left, rid: 2 },
            RecordMutation::Update { side: Side::Right, rid: 3, text: Some("t5 t6 t7".into()) },
            ins(Side::Right, "t5 t6"),
        ]);
        batches.push(vec![
            RecordMutation::Delete { side: Side::Right, rid: 3 },
            ins(Side::Left, "t5 t6 t7"),
        ]);
        for batch in &batches {
            let (de, se) = eager.apply_batch(batch, &tok, &cfg);
            let (dl, sl) = lazy.apply_batch(batch, &tok, &cfg);
            assert_eq!(de, dl);
            assert_eq!(eager.live_pairs(), lazy.live_pairs());
            assert_eq!(
                (se.delta_pairs_added, se.delta_pairs_removed),
                (sl.delta_pairs_added, sl.delta_pairs_removed)
            );
        }
        assert!(eager.index_generation(Side::Left) > lazy.index_generation(Side::Left));
        assert!(!eager.compaction_pauses().is_empty());
        assert!(eager.compaction_pauses().len() >= eager.index_generation(Side::Left) as usize);
    }

    /// Worker count never changes deltas, stats, or the view.
    #[test]
    fn apply_batch_is_worker_count_invariant() {
        let tok = WhitespaceTokenizer::new();
        let mut engines: Vec<IncrementalJoin> = (0..3)
            .map(|_| IncrementalJoin::new(SetSimMeasure::Dice(0.55)))
            .collect();
        let cfgs = [ParConfig::serial(), ParConfig::workers(4), ParConfig::workers(8)];
        for (batch_seed, n) in [(21u64, 30), (22, 10), (23, 20)] {
            let batch = seed_batch(n, batch_seed);
            let mut results = Vec::new();
            for (eng, cfg) in engines.iter_mut().zip(&cfgs) {
                results.push(eng.apply_batch(&batch, &tok, cfg));
            }
            for (deltas, stats) in &results[1..] {
                assert_eq!(deltas, &results[0].0);
                assert_eq!(stats, &results[0].1);
            }
            for eng in &engines[1..] {
                assert_eq!(eng.live_pairs(), engines[0].live_pairs());
            }
        }
    }

    /// Tombstoned postings are skipped (and counted) until compaction
    /// reclaims them.
    #[test]
    fn tombstones_are_skipped_then_compacted_away() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut eng = IncrementalJoin::new(SetSimMeasure::Jaccard(0.5))
            .with_compaction_threshold(1e9); // never compact on its own
        eng.apply_batch(
            &[
                ins(Side::Left, "a b c"),
                ins(Side::Right, "a b c"),
                ins(Side::Right, "a b d"),
            ],
            &tok,
            &cfg,
        );
        // Force both sides into a packed CSR so the delete tombstones a
        // CSR posting rather than a tail posting.
        let (_, s0) = eng.apply_batch(
            &[RecordMutation::Delete { side: Side::Right, rid: 0 }],
            &tok,
            &cfg,
        );
        assert_eq!(s0.delta_pairs_removed, 1);
        // A new left record probes past the dead right-0 postings.
        let (_, s1) = eng.apply_batch(&[ins(Side::Left, "a b c d")], &tok, &cfg);
        assert!(s1.tombstones_skipped > 0, "stale postings must be counted");
        assert_eq!(eng.live_pairs(), eng.rebuild_from_scratch(&tok));
        assert_eq!(eng.n_alive(Side::Right), 1);
        assert_eq!(eng.n_records(Side::Right), 2);
    }

    /// Restore rebuilds a bit-identical engine that keeps streaming.
    #[test]
    fn restore_roundtrip_continues_identically() {
        let tok = WhitespaceTokenizer::new();
        let cfg = ParConfig::serial();
        let mut a = IncrementalJoin::new(SetSimMeasure::Cosine(0.6));
        a.apply_batch(&seed_batch(20, 9), &tok, &cfg);
        a.apply_batch(
            &[RecordMutation::Delete { side: Side::Left, rid: 5 }],
            &tok,
            &cfg,
        );
        let mut b = IncrementalJoin::restore(
            a.measure(),
            &tok,
            a.texts(Side::Left).to_vec(),
            a.texts(Side::Right).to_vec(),
            a.live_pairs(),
            a.index_generation(Side::Left),
            a.index_generation(Side::Right),
        );
        assert_eq!(a.live_pairs(), b.live_pairs());
        assert_eq!(a.index_generation(Side::Left), b.index_generation(Side::Left));
        let batch = seed_batch(10, 13);
        let (da, _) = a.apply_batch(&batch, &tok, &cfg);
        let (db, _) = b.apply_batch(&batch, &tok, &cfg);
        assert_eq!(da, db);
        assert_eq!(a.live_pairs(), b.live_pairs());
        assert_eq!(b.live_pairs(), b.rebuild_from_scratch(&tok));
    }
}
