//! The streaming daemon tier: `magellan serve` for entity matching.
//!
//! The paper's production stage is batch: block, extract, score, done.
//! But matching workloads rarely stand still — catalogs take inserts,
//! corrections rewrite records, retractions delete them. Rebuilding the
//! whole pipeline per change is O(corpus); this module keeps a **live
//! matched view** maintained in O(delta) per batch by composing the
//! incremental tiers grown underneath it:
//!
//! * [`magellan_simjoin::IncrementalJoin`] — delta-maintained candidate
//!   generation (tombstoned CSR + tail overlay, signed pair deltas);
//! * [`magellan_block::CandidateSet::apply_deltas`] — the candidate set
//!   patched in one merge pass;
//! * [`magellan_features::StreamingPreparedPair`] — per-record cache
//!   invalidation, so only dirty records re-tokenize;
//! * [`magellan_ml::FlatForest::rescore_dirty`] — model scores recomputed
//!   for dirty pairs only.
//!
//! ## Determinism contract
//!
//! After **any** stream prefix, [`StreamSession::matched_pairs`] is
//! bit-identical — exact `f64` score bits, identical pair sets — to a
//! from-scratch rebuild over the current records
//! ([`StreamSession::rebuild_oracle`]), at any worker count. The argument
//! composes: the join engine's live view equals a batch join (its own
//! contract), and features/scores are pure per-pair functions of record
//! text, so restricting recomputation to dirty pairs cannot change what
//! any pair scores.
//!
//! ## Durability
//!
//! [`StreamSession::checkpoint_bytes`] serializes the session as
//! `emstream v2` — record texts, the live candidate view (similarity
//! bits), all model scores (probability bits), per-side index generations,
//! and the stream cursor — in the same checksummed
//! [`magellan_table::container`] as `emckpt`. A daemon killed mid-stream
//! resumes via [`StreamSession::restore_from_bytes`] and replays the
//! remaining [`magellan_faults::StreamPlan`] suffix to the identical view.

use std::collections::BTreeMap;

use magellan_block::CandidateSet;
use magellan_faults::{SimClock, StreamOp, StreamPlan};
use magellan_features::{Feature, StreamingPreparedPair};
use magellan_ml::FlatForest;
use magellan_par::ParConfig;
use magellan_simjoin::{
    IncrementalJoin, JoinPair, PairDelta, RecordMutation, SetSimMeasure, Side,
};
use magellan_table::{Dtype, Schema, Table, Value};
use magellan_textsim::tokenize::AlphanumericTokenizer;

use magellan_table::container::{put_bytes, put_varint, Reader, Writer};

use crate::checkpoint::corrupt;
use crate::error::MagellanError;

/// Deterministic synthetic record text for seeded streams: `n_tokens`
/// words drawn from a `vocab`-sized universe, all decided by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct TextGen {
    /// Distinct token universe size.
    pub vocab: u32,
    /// Minimum tokens per record.
    pub min_tokens: u32,
    /// Maximum tokens per record (inclusive).
    pub max_tokens: u32,
}

impl Default for TextGen {
    fn default() -> Self {
        TextGen {
            vocab: 400,
            min_tokens: 4,
            max_tokens: 9,
        }
    }
}

fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl TextGen {
    /// The record text for one stream-plan text seed.
    pub fn text(&self, seed: u64) -> String {
        let span = (self.max_tokens - self.min_tokens + 1) as u64;
        let n = self.min_tokens as u64 + mix64(seed) % span;
        let mut out = String::new();
        for i in 0..n {
            if i > 0 {
                out.push(' ');
            }
            let tok = mix64(seed ^ (i + 1)) % self.vocab as u64;
            out.push_str(&format!("tok{tok}"));
        }
        out
    }
}

/// What one ingested batch did — the daemon's per-tick report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamBatchReport {
    /// 1-based index of this batch in the session's lifetime.
    pub batch: u64,
    /// Mutations applied.
    pub mutations: usize,
    /// Candidate pairs that newly qualified.
    pub pairs_added: usize,
    /// Candidate pairs that stopped qualifying.
    pub pairs_removed: usize,
    /// Pairs re-featurized and re-scored (== `pairs_added`).
    pub dirty_pairs: usize,
    /// Index compactions triggered by this batch.
    pub compactions: u64,
    /// Live candidate pairs after the batch.
    pub live_candidates: usize,
    /// Live matched pairs (score ≥ threshold) after the batch.
    pub live_matches: usize,
}

/// A live, incrementally-maintained EM pipeline over two record streams.
///
/// Owns the delta join engine, the streaming feature store (two
/// single-attribute `(id, text)` tables), a flattened random forest, and
/// the score map. See the module docs for the determinism contract.
pub struct StreamSession {
    engine: IncrementalJoin,
    tokenizer: AlphanumericTokenizer,
    store: StreamingPreparedPair,
    features: Vec<Feature>,
    forest: FlatForest,
    candidates: CandidateSet,
    scores: BTreeMap<(usize, usize), f64>,
    threshold: f64,
    par: ParConfig,
    batches: u64,
    ops: u64,
}

fn stream_schema() -> Schema {
    Schema::from_pairs(&[("id", Dtype::Str), ("text", Dtype::Str)])
        .expect("static stream schema is valid")
}

/// One side's records as a stream table: ids `<prefix><rid>`, texts (null
/// for deleted records).
fn side_table(
    name: &str,
    prefix: char,
    texts: &[Option<String>],
) -> Result<Table, MagellanError> {
    let mut t = Table::with_capacity(name, stream_schema(), texts.len());
    for (rid, text) in texts.iter().enumerate() {
        let text = text.clone().map(Value::Str).unwrap_or(Value::Null);
        t.push_row(vec![Value::Str(format!("{prefix}{rid}")), text])
            .map_err(MagellanError::Table)?;
    }
    Ok(t)
}

impl StreamSession {
    /// A fresh session: empty collections, nothing matched.
    ///
    /// `features` must reference only the `text` attribute on both sides
    /// (validated on first extraction); `threshold` is the match operating
    /// point over the forest's probability.
    pub fn new(
        measure: SetSimMeasure,
        features: Vec<Feature>,
        forest: FlatForest,
        threshold: f64,
        par: ParConfig,
    ) -> Self {
        let a = Table::with_capacity("stream_left", stream_schema(), 0);
        let b = Table::with_capacity("stream_right", stream_schema(), 0);
        StreamSession {
            engine: IncrementalJoin::new(measure),
            tokenizer: AlphanumericTokenizer::as_set(),
            store: StreamingPreparedPair::new(a, b),
            features,
            forest,
            candidates: CandidateSet::default(),
            scores: BTreeMap::new(),
            threshold,
            par,
            batches: 0,
            ops: 0,
        }
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Stream-plan steps consumed so far (the resume cursor).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Live candidate pairs (the join's delta-maintained view).
    pub fn n_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// The live matched view: `(left rid, right rid) → probability` for
    /// every candidate whose score clears the threshold, sorted by pair.
    pub fn matched_pairs(&self) -> Vec<((usize, usize), f64)> {
        self.scores
            .iter()
            .filter(|(_, &p)| p >= self.threshold)
            .map(|(&k, &p)| (k, p))
            .collect()
    }

    /// Number of live matched pairs.
    pub fn n_matches(&self) -> usize {
        self.scores.values().filter(|&&p| p >= self.threshold).count()
    }

    /// The underlying delta join engine (generations, pause telemetry).
    pub fn engine(&self) -> &IncrementalJoin {
        &self.engine
    }

    /// Apply one mutation batch through the whole incremental pipeline:
    /// delta join → candidate patch → dirty-pair featurization → dirty-pair
    /// rescore. Cost is O(batch × affected neighborhoods), never O(corpus).
    pub fn ingest(&mut self, batch: &[RecordMutation]) -> Result<StreamBatchReport, MagellanError> {
        self.batches += 1;
        let _span = magellan_obs::span("stream_batch", self.batches);

        // 1. Delta join: signed candidate-pair deltas.
        let delta_span = magellan_obs::span("delta_join", 0);
        let (deltas, stats) = self.engine.apply_batch(batch, &self.tokenizer, &self.par);
        drop(delta_span);

        // 2. Mirror the mutations into the feature store's tables —
        //    insertion order matches the engine's rid assignment, so row
        //    ids line up by construction.
        let mirror_span = magellan_obs::span("mirror_mutations", 0);
        for op in batch {
            match op {
                RecordMutation::Insert { side, text } => {
                    let left = matches!(side, Side::Left);
                    let rid = self.store.tables().0.nrows() * usize::from(left)
                        + self.store.tables().1.nrows() * usize::from(!left);
                    let prefix = if left { 'l' } else { 'r' };
                    let row = vec![
                        Value::Str(format!("{prefix}{rid}")),
                        text.clone().map(Value::Str).unwrap_or(Value::Null),
                    ];
                    self.store.push_row(left, row).map_err(MagellanError::Table)?;
                }
                RecordMutation::Delete { side, rid } => {
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", Value::Null)
                        .map_err(MagellanError::Table)?;
                }
                RecordMutation::Update { side, rid, text } => {
                    let v = text.clone().map(Value::Str).unwrap_or(Value::Null);
                    self.store
                        .set_value(matches!(side, Side::Left), *rid, "text", v)
                        .map_err(MagellanError::Table)?;
                }
            }
        }
        debug_assert_eq!(self.store.tables().0.nrows(), self.engine.n_records(Side::Left));
        debug_assert_eq!(self.store.tables().1.nrows(), self.engine.n_records(Side::Right));
        drop(mirror_span);

        // 3. Patch the candidate set and retire dead scores.
        let patch_span = magellan_obs::span("patch_candidates", 0);
        let applied = self.candidates.apply_deltas(&deltas);
        let mut dirty: Vec<(usize, usize)> = Vec::new();
        for d in &deltas {
            match d {
                PairDelta::Removed { l, r } => {
                    self.scores.remove(&(*l, *r));
                }
                PairDelta::Added(p) => dirty.push((p.l, p.r)),
            }
        }
        drop(patch_span);

        // 4. Featurize + rescore exactly the dirty pairs.
        let rescore_span = magellan_obs::span("rescore_dirty", 0);
        if !dirty.is_empty() {
            let pairs_u32: Vec<(u32, u32)> =
                dirty.iter().map(|&(l, r)| (l as u32, r as u32)).collect();
            let (matrix, _fstats) = self
                .store
                .extract(&pairs_u32, &self.features, &self.par)
                .map_err(MagellanError::Table)?;
            let keyed: Vec<((usize, usize), Vec<f64>)> = dirty
                .iter()
                .copied()
                .zip(matrix.rows)
                .collect();
            for ((l, r), p) in self.forest.rescore_dirty(&keyed, &self.par) {
                self.scores.insert((l, r), p);
            }
        }
        drop(rescore_span);

        let report = StreamBatchReport {
            batch: self.batches,
            mutations: batch.len(),
            pairs_added: applied.added,
            pairs_removed: applied.removed,
            dirty_pairs: dirty.len(),
            compactions: stats.compactions as u64,
            live_candidates: self.candidates.len(),
            live_matches: self.n_matches(),
        };
        magellan_obs::counter_add("magellan_stream_batches_total", 1);
        magellan_obs::counter_add("magellan_stream_mutations_total", batch.len() as u64);
        magellan_obs::counter_add("magellan_stream_dirty_pairs_total", dirty.len() as u64);
        magellan_obs::gauge_set("magellan_stream_live_matches", report.live_matches as f64);
        magellan_obs::gauge_set(
            "magellan_stream_live_candidates",
            report.live_candidates as f64,
        );
        Ok(report)
    }

    /// Materialize the next `n` stream-plan steps into concrete mutations
    /// against the current alive populations. Victim selectors reduce
    /// modulo the pre-batch alive set (deterministic across kill/resume —
    /// the checkpoint restores the same population); an op against an
    /// empty side degrades to an insert.
    pub fn synth_batch(&self, plan: &StreamPlan, gen: &TextGen, n: usize) -> Vec<RecordMutation> {
        let alive = |side: Side| -> Vec<usize> {
            self.engine
                .texts(side)
                .iter()
                .enumerate()
                .filter_map(|(rid, t)| t.as_ref().map(|_| rid))
                .collect()
        };
        let (alive_l, alive_r) = (alive(Side::Left), alive(Side::Right));
        let mut out = Vec::with_capacity(n);
        for step in self.ops..self.ops + n as u64 {
            let op = plan.op(step);
            let side_of = |left: bool| if left { Side::Left } else { Side::Right };
            let pick = |left: bool, victim: u64| -> Option<usize> {
                let pool = if left { &alive_l } else { &alive_r };
                (!pool.is_empty()).then(|| pool[(victim % pool.len() as u64) as usize])
            };
            let text = || Some(gen.text(plan.text_seed(step)));
            out.push(match op {
                StreamOp::Insert { left } => RecordMutation::Insert {
                    side: side_of(left),
                    text: text(),
                },
                StreamOp::Delete { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Delete {
                        side: side_of(left),
                        rid,
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: text(),
                    },
                },
                StreamOp::Update { left, victim } => match pick(left, victim) {
                    Some(rid) => RecordMutation::Update {
                        side: side_of(left),
                        rid,
                        text: text(),
                    },
                    None => RecordMutation::Insert {
                        side: side_of(left),
                        text: text(),
                    },
                },
            });
        }
        out
    }

    /// One daemon tick: synthesize the next `batch_size` plan steps,
    /// ingest them, and advance the simulated clock by `dt_s`. The stream
    /// cursor ([`StreamSession::ops`]) moves so the next tick continues
    /// where this one left off.
    pub fn run_plan_batch(
        &mut self,
        plan: &StreamPlan,
        gen: &TextGen,
        batch_size: usize,
        clock: &mut SimClock,
        dt_s: f64,
    ) -> Result<StreamBatchReport, MagellanError> {
        let batch = self.synth_batch(plan, gen, batch_size);
        self.ops += batch_size as u64;
        let report = self.ingest(&batch)?;
        clock.advance_s(dt_s);
        Ok(report)
    }

    /// The from-scratch oracle: rebuild the entire pipeline — batch join,
    /// cold feature extraction, full-matrix scoring — over the current
    /// records and return the matched view. O(corpus); exists to *prove*
    /// the live view right, not to serve queries.
    pub fn rebuild_oracle(&self) -> Result<Vec<((usize, usize), f64)>, MagellanError> {
        let pairs = self.engine.rebuild_from_scratch(&self.tokenizer);
        let a = side_table("oracle_left", 'l', self.engine.texts(Side::Left))?;
        let b = side_table("oracle_right", 'r', self.engine.texts(Side::Right))?;
        let pairs_u32: Vec<(u32, u32)> =
            pairs.iter().map(|p| (p.l as u32, p.r as u32)).collect();
        let mut cold = StreamingPreparedPair::new(a, b);
        let (matrix, _) = cold
            .extract(&pairs_u32, &self.features, &self.par)
            .map_err(MagellanError::Table)?;
        let probs = self.forest.predict_proba_batch(&matrix.rows, &self.par);
        let mut out: Vec<((usize, usize), f64)> = pairs
            .iter()
            .zip(probs)
            .filter(|(_, p)| *p >= self.threshold)
            .map(|(jp, p)| ((jp.l, jp.r), p))
            .collect();
        out.sort_by_key(|&(k, _)| k);
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Checkpointing (`emstream v2`)
    // -----------------------------------------------------------------

    /// Serialize the session as `emstream v2`, a
    /// [`magellan_table::container`] of three segments:
    ///
    /// ```text
    /// magic "emstr v2"
    /// 0x01 cursor — batches, ops, left and right index generations (u64 each)
    /// 0x02 texts  — per side: count:u64, per record present:varint (0|1)
    ///               then the UTF-8 text as varint-prefixed bytes
    /// 0x03 pairs  — live view then scores: count:u64, per pair l:u64 r:u64
    ///               and the similarity / probability as f64 bits
    /// ```
    ///
    /// Model, features, measure, and threshold are *not* stored; the
    /// resuming caller supplies the identical configuration, exactly like
    /// the service layer reattaches label engines on resume.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let cursor: Vec<u8> = [
            self.batches,
            self.ops,
            self.engine.index_generation(Side::Left),
            self.engine.index_generation(Side::Right),
        ]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
        let mut texts = Vec::new();
        for side in [Side::Left, Side::Right] {
            let side_texts = self.engine.texts(side);
            texts.extend_from_slice(&(side_texts.len() as u64).to_le_bytes());
            for t in side_texts {
                put_varint(&mut texts, u64::from(t.is_some()));
                if let Some(t) = t {
                    put_bytes(&mut texts, t.as_bytes());
                }
            }
        }
        let live: Vec<_> = self.engine.live_pairs().iter().map(|p| ((p.l, p.r), p.sim)).collect();
        let scores: Vec<_> = self.scores.iter().map(|(&k, &p)| (k, p)).collect();
        let mut pairs = Vec::new();
        for list in [live, scores] {
            pairs.extend_from_slice(&(list.len() as u64).to_le_bytes());
            for ((l, r), x) in list {
                for word in [l as u64, r as u64, x.to_bits()] {
                    pairs.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
        let write = || -> std::io::Result<Vec<u8>> {
            let mut w = Writer::new(Vec::new(), STREAM_MAGIC)?;
            w.segment(SEG_CURSOR, &cursor)?;
            w.segment(SEG_TEXTS, &texts)?;
            w.segment(SEG_PAIRS, &pairs)?;
            w.finish()
        };
        write().expect("writing to a Vec cannot fail")
    }

    /// Restore a session from `emstream v2` bytes plus the (identical)
    /// configuration it was created with. Index generations are pinned to
    /// the stored values, so generation monotonicity survives the crash;
    /// the live view and all score bits restore exactly. Any framing
    /// error, and any pair naming a record outside the restored texts, is
    /// a fatal [`MagellanError::Checkpoint`].
    pub fn restore_from_bytes(
        data: &[u8],
        measure: SetSimMeasure,
        features: Vec<Feature>,
        forest: FlatForest,
        threshold: f64,
        par: ParConfig,
    ) -> Result<StreamSession, MagellanError> {
        let snap = Snapshot::decode(data).map_err(|e| corrupt("stream checkpoint", e))?;
        let [left_texts, right_texts] = snap.texts;
        let a = side_table("stream_left", 'l', &left_texts)?;
        let b = side_table("stream_right", 'r', &right_texts)?;
        let tokenizer = AlphanumericTokenizer::as_set();
        let live_pairs: Vec<JoinPair> = snap
            .live
            .iter()
            .map(|&((l, r), sim)| JoinPair { l, r, sim })
            .collect();
        let engine = IncrementalJoin::restore(
            measure,
            &tokenizer,
            left_texts,
            right_texts,
            live_pairs,
            snap.gens[0],
            snap.gens[1],
        );
        let candidates: CandidateSet = snap
            .live
            .iter()
            .map(|&((l, r), _)| (l as u32, r as u32))
            .collect();
        Ok(StreamSession {
            engine,
            tokenizer,
            store: StreamingPreparedPair::new(a, b),
            features,
            forest,
            candidates,
            scores: snap.scores.into_iter().collect(),
            threshold,
            par,
            batches: snap.batches,
            ops: snap.ops,
        })
    }
}

/// Container magic of the current `emstream` version.
const STREAM_MAGIC: &[u8; 8] = b"emstr v2";
const SEG_CURSOR: u64 = 0x01;
const SEG_TEXTS: u64 = 0x02;
const SEG_PAIRS: u64 = 0x03;

/// The stored state of an `emstream v2` checkpoint.
struct Snapshot {
    batches: u64,
    ops: u64,
    gens: [u64; 2],
    texts: [Vec<Option<String>>; 2],
    live: Vec<((usize, usize), f64)>,
    scores: Vec<((usize, usize), f64)>,
}

impl Snapshot {
    fn decode(data: &[u8]) -> magellan_table::Result<Snapshot> {
        let mut file = Reader::open(data, STREAM_MAGIC)?;
        let mut cursor = file.segment(SEG_CURSOR)?;
        let mut texts = file.segment(SEG_TEXTS)?;
        let mut pairs = file.segment(SEG_PAIRS)?;
        file.finish()?;
        let (batches, ops) = (cursor.u64()?, cursor.u64()?);
        let gens = [cursor.u64()?, cursor.u64()?];
        cursor.finish()?;
        let mut side_texts = || -> magellan_table::Result<Vec<Option<String>>> {
            let n = texts.u64()?;
            let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                out.push(match texts.varint()? {
                    0 => None,
                    1 => Some(
                        std::str::from_utf8(texts.bytes()?)
                            .map_err(|_| texts.error("checkpointed text is not UTF-8"))?
                            .to_owned(),
                    ),
                    flag => return Err(texts.error(format!("bad text presence flag {flag}"))),
                });
            }
            Ok(out)
        };
        let sides = [side_texts()?, side_texts()?];
        texts.finish()?;
        let mut pair_list = || -> magellan_table::Result<Vec<((usize, usize), f64)>> {
            let n = pairs.u64()?;
            let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
            for _ in 0..n {
                let (l, r, x) = (pairs.u64()?, pairs.u64()?, f64::from_bits(pairs.u64()?));
                if l >= sides[0].len() as u64 || r >= sides[1].len() as u64 {
                    return Err(pairs.error(format!(
                        "pair ({l}, {r}) names a record outside the {} x {} restored texts",
                        sides[0].len(),
                        sides[1].len()
                    )));
                }
                out.push(((l as usize, r as usize), x));
            }
            Ok(out)
        };
        let live = pair_list()?;
        let scores = pair_list()?;
        pairs.finish()?;
        Ok(Snapshot {
            batches,
            ops,
            gens,
            texts: sides,
            live,
            scores,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magellan_features::{FeatureKind, TokSpecF};
    use magellan_ml::{Dataset, RandomForestLearner};

    fn fixture_forest(n_features: usize) -> FlatForest {
        // A tiny forest over synthetic feature rows: positive when the
        // set-similarity features are high. Deterministic via fixed data.
        let mut d = Dataset::with_dims(n_features);
        for i in 0..60 {
            let hi = i % 2 == 0;
            let base = if hi { 0.8 } else { 0.15 };
            let row: Vec<f64> = (0..n_features)
                .map(|j| base + 0.01 * ((i + j) % 7) as f64)
                .collect();
            d.push(&row, hi);
        }
        let forest = RandomForestLearner {
            n_trees: 5,
            ..Default::default()
        }
        .fit_forest(&d);
        FlatForest::from_forest(&forest)
    }

    fn stream_features() -> Vec<Feature> {
        vec![
            Feature::new("text", "text", FeatureKind::Jaccard(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::Dice(TokSpecF::Word)),
            Feature::new("text", "text", FeatureKind::JaroWinkler),
        ]
    }

    fn session(workers: usize) -> StreamSession {
        StreamSession::new(
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            if workers <= 1 {
                ParConfig::serial()
            } else {
                ParConfig::workers(workers)
            },
        )
    }

    fn drive(s: &mut StreamSession, seed: u64, batches: usize, batch_size: usize) {
        let plan = StreamPlan::churn(seed);
        let gen = TextGen::default();
        let mut clock = SimClock::new();
        for _ in 0..batches {
            s.run_plan_batch(&plan, &gen, batch_size, &mut clock, 1.0).unwrap();
        }
    }

    /// The live matched view is bit-identical to the from-scratch oracle
    /// after every batch of a seeded churn stream.
    #[test]
    fn live_view_matches_oracle_after_every_batch() {
        let mut s = session(1);
        let plan = StreamPlan::churn(7);
        let gen = TextGen {
            vocab: 12,
            min_tokens: 4,
            max_tokens: 7,
        };
        let mut clock = SimClock::new();
        let mut saw_match = false;
        for _ in 0..12 {
            s.run_plan_batch(&plan, &gen, 8, &mut clock, 1.0).unwrap();
            let live = s.matched_pairs();
            let oracle = s.rebuild_oracle().unwrap();
            assert_eq!(live.len(), oracle.len());
            for ((lk, lp), (ok, op)) in live.iter().zip(&oracle) {
                assert_eq!(lk, ok);
                assert_eq!(lp.to_bits(), op.to_bits(), "score bits diverged at {lk:?}");
            }
            saw_match |= !live.is_empty();
        }
        assert!(saw_match, "stream never produced a match — fixture too sparse");
        assert_eq!(clock.now_s(), 12.0);
    }

    /// Worker count never changes the view (serial vs 4 workers).
    #[test]
    fn stream_is_worker_count_invariant() {
        let mut a = session(1);
        let mut b = session(4);
        drive(&mut a, 11, 10, 6);
        drive(&mut b, 11, 10, 6);
        let (va, vb) = (a.matched_pairs(), b.matched_pairs());
        assert_eq!(va.len(), vb.len());
        for ((ka, pa), (kb, pb)) in va.iter().zip(&vb) {
            assert_eq!(ka, kb);
            assert_eq!(pa.to_bits(), pb.to_bits());
        }
        assert_eq!(a.n_candidates(), b.n_candidates());
    }

    /// Kill the daemon mid-stream, restore from the checkpoint, replay the
    /// remaining plan suffix: the final view is identical to the unkilled
    /// run, and index generations stay pinned across the crash.
    #[test]
    fn checkpoint_resume_replays_identically() {
        // Unkilled reference: 14 batches straight through.
        let mut whole = session(1);
        drive(&mut whole, 23, 14, 7);

        // Killed run: 6 batches, checkpoint, "crash", restore, 8 more.
        let mut first = session(1);
        drive(&mut first, 23, 6, 7);
        let ckpt = first.checkpoint_bytes();
        let gen_l = first.engine().index_generation(Side::Left);
        let gen_r = first.engine().index_generation(Side::Right);
        drop(first);
        let mut resumed = StreamSession::restore_from_bytes(
            &ckpt,
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
        .unwrap();
        assert_eq!(resumed.batches(), 6);
        assert_eq!(resumed.ops(), 42);
        assert_eq!(resumed.engine().index_generation(Side::Left), gen_l);
        assert_eq!(resumed.engine().index_generation(Side::Right), gen_r);
        drive(&mut resumed, 23, 8, 7);

        let (vw, vr) = (whole.matched_pairs(), resumed.matched_pairs());
        assert_eq!(vw.len(), vr.len(), "resumed run diverged in match count");
        for ((kw, pw), (kr, pr)) in vw.iter().zip(&vr) {
            assert_eq!(kw, kr);
            assert_eq!(pw.to_bits(), pr.to_bits());
        }
        // And the resumed view still equals its own oracle.
        let oracle = resumed.rebuild_oracle().unwrap();
        assert_eq!(vr.len(), oracle.len());
    }

    fn restore(bytes: &[u8]) -> Result<StreamSession, MagellanError> {
        StreamSession::restore_from_bytes(
            bytes,
            SetSimMeasure::Jaccard(0.4),
            stream_features(),
            fixture_forest(3),
            0.5,
            ParConfig::serial(),
        )
    }

    /// Framing errors are the container's (its matrix covers every flip
    /// and prefix); here one of each goes through this reader, plus a v1
    /// file.
    #[test]
    fn corrupt_checkpoints_are_fatal() {
        let mut s = session(1);
        drive(&mut s, 5, 3, 5);
        let good = s.checkpoint_bytes();
        assert!(restore(&good).is_ok());
        let fails = |b: &[u8], needle: &str| {
            let err = restore(b).err().expect("corrupt checkpoint restored");
            assert!(err.fatal() && err.to_string().contains(needle), "{err}");
        };
        fails(&good[..good.len() / 2], "stream checkpoint");
        let mut tampered = good.clone();
        tampered[24] ^= 0x01; // the cursor's batch count
        fails(&tampered, "checksum mismatch");
        fails(b"emstream v1\ncursor batches 0 ops 0\n", "unsupported version");
        fails(b"", "bad magic");
    }

    /// A checksummed checkpoint whose pairs name records that do not
    /// exist is corrupt, not a session with phantom candidates.
    #[test]
    fn out_of_range_pairs_are_rejected() {
        let one_text = |n: u64| {
            let mut t = n.to_le_bytes().to_vec();
            for _ in 0..n {
                put_varint(&mut t, 1);
                put_bytes(&mut t, b"alpha beta");
            }
            t
        };
        let mut texts = one_text(1);
        texts.extend(one_text(1));
        for (l, r) in [(999u64, 999u64), (0, 1), (1, 0)] {
            for live in [true, false] {
                let mut list = 1u64.to_le_bytes().to_vec();
                for w in [l, r, 0.5f64.to_bits()] {
                    list.extend_from_slice(&w.to_le_bytes());
                }
                let empty = 0u64.to_le_bytes().to_vec();
                let pairs: Vec<u8> = if live {
                    [list, empty].concat()
                } else {
                    [empty, list].concat()
                };
                let mut w = Writer::new(Vec::new(), STREAM_MAGIC).unwrap();
                w.segment(SEG_CURSOR, &[0u8; 32]).unwrap();
                w.segment(SEG_TEXTS, &texts).unwrap();
                w.segment(SEG_PAIRS, &pairs).unwrap();
                let err = restore(&w.finish().unwrap()).err().expect("phantom pair restored");
                assert!(err.fatal(), "{err}");
                assert!(err.to_string().contains("outside the 1 x 1 restored texts"), "{err}");
            }
        }
    }
}
