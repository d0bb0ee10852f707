//! The `stream_churn` workload: a `StreamSession` preloaded with product
//! titles on both sides, then driven by an open loop of the
//! `StreamPlan::churn` mix at a ladder of fixed offered rates.
//!
//! Mutation `i` of a ladder slice is due at `i / rate` seconds after the
//! slice starts. Whenever the driver is free it gathers every mutation due
//! since the last ingest into the next batch and ingests it inline (there
//! is no separate generator thread), so a slow batch delays the ones
//! behind it and their freshness, measured from the due time, shows it.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use magellan_block::{Blocker, SimJoinBlocker};
use magellan_core::StreamSession;
use magellan_datagen::domains::products;
use magellan_datagen::{DirtModel, EmScenario, ScenarioConfig};
use magellan_faults::{StreamOp, StreamPlan};
use magellan_features::{extract_feature_matrix, generate_features, Feature};
use magellan_ml::{Dataset, FlatForest, Metrics};
use magellan_par::ParConfig;
use magellan_simjoin::{RecordMutation, SetSimMeasure, Side};
use magellan_table::{Dtype, Table, Value};

use crate::recorded::{check_f1, STREAM_SECONDS};
use crate::spans::Spans;
use crate::stats::{
    due_count, freshness_ms, median, peak_rss_mb, release_free_heap, reset_peak_rss,
    supported_percentile,
};
use crate::{forest_learner, mix64, text_column, Args, Report, Res, SETUP_REPS, WORKERS};

/// Records preloaded per side.
const PRELOAD: usize = 5_000;
/// Titles per side that inserts and updates draw from, in order.
const POOL: usize = 20_000;
/// Rows per side of the labelled draw the stream's forest is trained on.
const DEV_ROWS: usize = 3_000;
const JACCARD: f64 = 0.5;
const THRESHOLD: f64 = 0.5;
/// Offered rates, mutations per second, run in this order.
const RATES: [f64; 4] = [500.0, 1_000.0, 2_000.0, 4_000.0];
/// The rate the freshness and throughput figures are read at.
const REF_RATE: f64 = 500.0;
/// A rate is sustained when p99 freshness stays within this limit and
/// the backlog does not grow (see [`Step::sustained`]).
const FRESH_LIMIT_MS: f64 = 200.0;
/// Untimed warm-up at the reference rate before the ladder.
const WARMUP_S: f64 = 0.25;
/// Length of one slice of the ladder; the slices cycle through the rates.
const SLICE_S: f64 = 0.5;

/// Record text of every row of a stream-shaped `(id, text)` table.
fn stream_table(name: &str, texts: &[Option<String>]) -> Res<Table> {
    let rows = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            vec![
                Value::Str(format!("{name}{i}")),
                t.clone().map_or(Value::Null, Value::Str),
            ]
        })
        .collect();
    Ok(Table::from_rows(
        name,
        &[("id", Dtype::Str), ("text", Dtype::Str)],
        rows,
    )?)
}

/// Gold matches of a scenario as `(row in A, row in B)`.
fn gold_rows(s: &EmScenario) -> HashSet<(usize, usize)> {
    let index = |t: &Table| -> HashMap<String, usize> {
        (0..t.nrows())
            .map(|r| (t.value(r, 0).display_string(), r))
            .collect()
    };
    let (ia, ib) = (index(&s.table_a), index(&s.table_b));
    s.gold
        .iter()
        .filter_map(|(a, b)| Some((*ia.get(a)?, *ib.get(b)?)))
        .collect()
}

/// Develop the stream's matcher: auto-generated features over the text
/// attribute and a forest trained on the labelled candidates of a small
/// draw from the same generator.
fn develop(seed: u64) -> Res<(Vec<Feature>, FlatForest)> {
    let s = products(&ScenarioConfig {
        size_a: DEV_ROWS,
        size_b: DEV_ROWS,
        n_matches: DEV_ROWS / 2,
        dirt: DirtModel::light(),
        seed: mix64(seed ^ 0x57_DE5),
    });
    let a = stream_table("a", &text_column(&s.table_a, "title")?)?;
    let b = stream_table("b", &text_column(&s.table_b, "title")?)?;
    let features = generate_features(&a, &b, &["id"])?;
    let blocker = SimJoinBlocker {
        l_attr: "text".into(),
        r_attr: "text".into(),
        measure: SetSimMeasure::Jaccard(JACCARD),
        qgram: None,
        shards: 1,
    };
    let candidates = blocker.block(&a, &b)?;
    let matrix = extract_feature_matrix(candidates.pairs(), &a, &b, &features)?;
    let gold = gold_rows(&s);
    let labels: Vec<bool> = matrix
        .pairs
        .iter()
        .map(|&(l, r)| gold.contains(&(l as usize, r as usize)))
        .collect();
    let forest = forest_learner().fit_forest(&Dataset::from_rows(&matrix.rows, &labels));
    Ok((features, FlatForest::from_forest(&forest)))
}

/// One side of the live corpus as the generator sees it.
struct SideState {
    /// Title pool: preloaded rows first, then the texts mutations use.
    texts: Vec<Option<String>>,
    next_text: usize,
    /// Pool row each rid currently holds (`None` once deleted).
    src: Vec<Option<usize>>,
    alive: Vec<usize>,
    /// rid → position in `alive`.
    slot: Vec<usize>,
}

impl SideState {
    fn new(texts: Vec<Option<String>>) -> Self {
        SideState {
            texts,
            next_text: PRELOAD,
            src: Vec::new(),
            alive: Vec::new(),
            slot: Vec::new(),
        }
    }

    /// The next pool text (the pool restarts after the preload when a
    /// long run uses it up).
    fn take_text(&mut self) -> (usize, Option<String>) {
        if self.next_text >= self.texts.len() {
            self.next_text = PRELOAD;
        }
        let i = self.next_text;
        self.next_text += 1;
        (i, self.texts[i].clone())
    }

    fn push(&mut self, src: usize) {
        let rid = self.src.len();
        self.src.push(Some(src));
        self.slot.push(self.alive.len());
        self.alive.push(rid);
    }

    fn remove(&mut self, rid: usize) {
        let pos = self.slot[rid];
        self.alive.swap_remove(pos);
        if let Some(&moved) = self.alive.get(pos) {
            self.slot[moved] = pos;
        }
        self.src[rid] = None;
    }
}

/// The session plus the generator's view of it.
struct Live {
    session: StreamSession,
    plan: StreamPlan,
    /// Stream cursor: plan steps generated so far.
    step: u64,
    left: SideState,
    right: SideState,
    gold: HashSet<(usize, usize)>,
}

impl Live {
    fn side(&mut self, left: bool) -> &mut SideState {
        if left {
            &mut self.left
        } else {
            &mut self.right
        }
    }

    /// Materialize the next `n` plan steps. Each step sees the effect of
    /// the ones before it, in or out of the same batch, so the mutation
    /// sequence, and with it the final corpus, does not depend on where
    /// the timing happened to cut batches.
    fn next_batch(&mut self, n: u64) -> Vec<RecordMutation> {
        let mut out = Vec::with_capacity(n as usize);
        for step in self.step..self.step + n {
            let op = self.plan.op(step);
            let left = match op {
                StreamOp::Insert { left }
                | StreamOp::Delete { left, .. }
                | StreamOp::Update { left, .. } => left,
            };
            let side = if left { Side::Left } else { Side::Right };
            let state = self.side(left);
            let victim = match op {
                StreamOp::Delete { victim, .. } | StreamOp::Update { victim, .. } => {
                    let pool = &state.alive;
                    (!pool.is_empty()).then(|| pool[(victim % pool.len() as u64) as usize])
                }
                StreamOp::Insert { .. } => None,
            };
            out.push(match (op, victim) {
                (StreamOp::Delete { .. }, Some(rid)) => {
                    state.remove(rid);
                    RecordMutation::Delete { side, rid }
                }
                (StreamOp::Update { .. }, Some(rid)) => {
                    let (src, text) = state.take_text();
                    state.src[rid] = Some(src);
                    RecordMutation::Update { side, rid, text }
                }
                _ => {
                    let (src, text) = state.take_text();
                    state.push(src);
                    RecordMutation::Insert { side, text }
                }
            });
        }
        self.step += n;
        out
    }

    /// F1 of the live matched view against the gold matches among the
    /// records alive now.
    fn f1(&self) -> f64 {
        let predicted: HashSet<(usize, usize)> = self
            .session
            .matched_pairs()
            .iter()
            .filter_map(|&((l, r), _)| Some((self.left.src[l]?, self.right.src[r]?)))
            .collect();
        let live = |s: &SideState| -> HashSet<usize> { s.src.iter().flatten().copied().collect() };
        let (ll, lr) = (live(&self.left), live(&self.right));
        let gold: HashSet<(usize, usize)> = self
            .gold
            .iter()
            .filter(|(a, b)| ll.contains(a) && lr.contains(b))
            .copied()
            .collect();
        Metrics::from_pair_sets(&predicted, &gold).f1()
    }
}

fn setup(seed: u64) -> Res<(Live, [f64; 3])> {
    let t = Instant::now();
    let s = products(&ScenarioConfig {
        size_a: PRELOAD + POOL,
        size_b: PRELOAD + POOL,
        n_matches: (PRELOAD + POOL) / 2,
        dirt: DirtModel::light(),
        seed,
    });
    let (ta, tb, gold) = (
        text_column(&s.table_a, "title")?,
        text_column(&s.table_b, "title")?,
        gold_rows(&s),
    );
    drop(s);
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (features, forest) = develop(seed)?;
    let dev_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut live = Live {
        session: StreamSession::new(
            SetSimMeasure::Jaccard(JACCARD),
            features,
            forest,
            THRESHOLD,
            ParConfig::workers(WORKERS),
        ),
        plan: StreamPlan::churn(mix64(seed ^ 0xC4_0157)),
        step: 0,
        left: SideState::new(ta),
        right: SideState::new(tb),
        gold,
    };
    let mut preload = Vec::with_capacity(2 * PRELOAD);
    for i in 0..PRELOAD {
        for left in [true, false] {
            let text = live.side(left).texts[i].clone();
            live.side(left).push(i);
            let side = if left { Side::Left } else { Side::Right };
            preload.push(RecordMutation::Insert { side, text });
        }
    }
    live.session.ingest(&preload)?;
    let preload_s = t.elapsed().as_secs_f64();
    Ok((live, [datagen_s, dev_s, preload_s]))
}

/// Everything measured at one offered rate, over all its slices.
#[derive(Default)]
struct Step {
    rate: f64,
    fresh_ms: Vec<f64>,
    ingest_s: Vec<f64>,
    batch_len: Vec<usize>,
    /// Mutations due but not yet ingested, sampled as each batch starts.
    backlog: Vec<u64>,
    /// Per slice: mean backlog over its first and its last quarter of
    /// batches.
    backlog_ends: Vec<(f64, f64)>,
    /// Per batch: how late the generator handed the batch over, beyond
    /// both the schedule and the previous ingest.
    gen_lag_s: Vec<f64>,
    dirty_pairs: usize,
    mutations: usize,
    failed: usize,
    wall_s: f64,
}

impl Step {
    fn new(rate: f64) -> Self {
        Step {
            rate,
            ..Step::default()
        }
    }

    /// The backlog grows when, in the typical slice, the last quarter of
    /// batches waited behind markedly more due mutations than the first
    /// quarter did.
    fn backlog_grows(&self) -> bool {
        let first: Vec<f64> = self.backlog_ends.iter().map(|e| e.0).collect();
        let last: Vec<f64> = self.backlog_ends.iter().map(|e| e.1).collect();
        !first.is_empty() && median(&last) > 2.0 * median(&first) + self.rate * 0.01
    }

    fn p99_ms(&self) -> f64 {
        supported_percentile(&self.fresh_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    fn sustained(&self) -> bool {
        self.failed == 0 && self.p99_ms() <= FRESH_LIMIT_MS && !self.backlog_grows()
    }

    /// Ingest seconds per 1 000 mutations.
    fn ingest_per_1k_s(&self) -> f64 {
        self.ingest_s.iter().sum::<f64>() * 1e3 / self.mutations as f64
    }
}

/// Spin until `t_s` after `start`. Sleeping would hand the wake-up to the
/// scheduler, whose latency on a busy host reaches milliseconds and would
/// show up as freshness of the program under test.
fn wait_until(start: Instant, t_s: f64) {
    while start.elapsed().as_secs_f64() < t_s {
        std::hint::spin_loop();
    }
}

/// Offer `st.rate` mutations per second for `seconds`, open loop, and
/// add what was measured to `st`.
fn run_slice(live: &mut Live, st: &mut Step, seconds: f64, mut spans: Option<&mut Spans>) {
    let rate = st.rate;
    let total = (rate * seconds).round().max(1.0) as u64;
    let backlog_from = st.backlog.len();
    let start = Instant::now();
    let mut next = 0u64;
    let mut free_at = 0.0f64;
    while next < total {
        let now = start.elapsed().as_secs_f64();
        let due = due_count(now, rate, total);
        if due <= next {
            wait_until(start, next as f64 / rate);
            continue;
        }
        st.backlog.push(due - next);
        let batch = live.next_batch(due - next);
        let t0 = start.elapsed().as_secs_f64();
        let last_due = (due - 1) as f64 / rate;
        st.gen_lag_s.push(t0 - last_due.max(free_at));
        let res = match spans.as_deref_mut() {
            Some(sp) => sp.time("ingest", || live.session.ingest(&batch)),
            None => live.session.ingest(&batch),
        };
        let done = start.elapsed().as_secs_f64();
        free_at = done;
        st.ingest_s.push(done - t0);
        st.batch_len.push(batch.len());
        st.mutations += batch.len();
        match res {
            Ok(r) => st.dirty_pairs += r.dirty_pairs,
            Err(e) => {
                eprintln!("ingest failed: {e}");
                st.failed += batch.len();
            }
        }
        let dues: Vec<f64> = (next..due).map(|i| i as f64 / rate).collect();
        st.fresh_ms.extend(freshness_ms(&dues, done));
        next = due;
    }
    st.wall_s += start.elapsed().as_secs_f64();
    let b = &st.backlog[backlog_from..];
    let q = (b.len() / 4).max(1);
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len().max(1) as f64;
    st.backlog_ends.push((
        mean(&b[..q.min(b.len())]),
        mean(&b[b.len().saturating_sub(q)..]),
    ));
}

/// The rate ladder, offered in short slices that cycle through the rates,
/// so every rate is measured across the whole window and a slow spell of
/// the host does not land on one rate alone. With `trace`, every other
/// cycle runs under the driver's spans and an installed recorder; the
/// offered load is the same either way. Returns the measured steps per
/// rate, and in trace mode the untraced cycles' steps as well.
fn ladder(
    live: &mut Live,
    seconds: f64,
    trace: Option<(&mut Spans, &magellan_obs::Obs)>,
) -> (Vec<Step>, Vec<Step>) {
    let new_steps = || RATES.iter().map(|&r| Step::new(r)).collect::<Vec<_>>();
    let (mut steps, mut untraced) = (new_steps(), new_steps());
    // Four cycles at least: enough reference-rate samples for a supported
    // p99, and both traced and untraced cycles in trace mode.
    let cycles = ((seconds / (SLICE_S * RATES.len() as f64)).round() as usize).max(4);
    let (mut spans, obs) = match trace {
        Some((sp, obs)) => (Some(sp), Some(obs)),
        None => (None, None),
    };
    for cycle in 0..cycles {
        let traced = obs.is_some() && cycle % 2 == 1;
        let target = if obs.is_some() && !traced {
            &mut untraced
        } else {
            &mut steps
        };
        for st in target.iter_mut() {
            let _installed = obs.filter(|_| traced).map(|o| o.install());
            run_slice(live, st, SLICE_S, spans.as_deref_mut().filter(|_| traced));
        }
    }
    for st in &steps {
        eprintln!(
            "rate {:>6}: {} mutations in {} batches, p50 {:.3} ms, p99 {:.3} ms, backlog max {}, sustained {}",
            st.rate,
            st.mutations,
            st.batch_len.len(),
            median(&st.fresh_ms),
            st.p99_ms(),
            st.backlog.iter().max().unwrap_or(&0),
            st.sustained()
        );
    }
    (steps, untraced)
}

pub fn run(args: &Args, rep: &mut Report) -> Res<()> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut parts: [Vec<f64>; 3] = Default::default();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        release_free_heap();
        let t = Instant::now();
        let (l, p) = setup(args.seed)?;
        setups.push(t.elapsed().as_secs_f64());
        for (v, x) in parts.iter_mut().zip(p) {
            v.push(x);
        }
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    release_free_heap();

    // Untimed warm-up at the reference rate.
    let mut warm = Step::new(REF_RATE);
    run_slice(&mut live, &mut warm, WARMUP_S, None);

    let pauses_before = live.session.engine().compaction_pauses().len();
    let (steps, untraced) = if args.trace {
        let obs = magellan_obs::Obs::wall().with_span_capacity(1 << 20);
        let mut spans = Spans::new();
        let (steps, untraced) = ladder(&mut live, args.seconds, Some((&mut spans, &obs)));
        per_layer(
            rep,
            &live,
            &steps,
            reference(&untraced),
            &spans,
            &obs,
            pauses_before,
        );
        rep.set("datagen.s", median(&parts[0]));
        rep.set("core.dev_stage_s", median(&parts[1]));
        rep.set("stream.preload_s", median(&parts[2]));
        (steps, untraced)
    } else {
        let rss_reset = reset_peak_rss();
        let (steps, untraced) = ladder(&mut live, args.seconds, None);
        let peak = peak_rss_mb().unwrap_or(f64::NAN);
        if !rss_reset {
            eprintln!("note: clear_refs unavailable; peak_rss_mb covers the whole process");
        }
        end_to_end(rep, &live, &steps, median(&setups), peak);
        (steps, untraced)
    };
    for st in steps.iter().chain(&untraced).chain([&warm]) {
        rep.attempted += st.mutations as u64;
        rep.failed += st.failed as u64;
    }

    // The live view must equal a from-scratch rebuild, bit for bit.
    let view = live.session.matched_pairs();
    let oracle = live.session.rebuild_oracle()?;
    let equal = view.len() == oracle.len()
        && view
            .iter()
            .zip(&oracle)
            .all(|((k1, p1), (k2, p2))| k1 == k2 && p1.to_bits() == p2.to_bits());
    rep.check(equal, "live matched view differs from the rebuild oracle");
    rep.check(!view.is_empty(), "the live matched view is empty");
    let f1 = live.f1();
    if args.seconds == STREAM_SECONDS {
        check_f1(rep, "stream_churn", args.seed, f1);
    } else {
        eprintln!("stream_churn: F1 is recorded for {STREAM_SECONDS}-second runs; got {f1}");
    }
    Ok(())
}

fn reference(steps: &[Step]) -> &Step {
    steps
        .iter()
        .find(|s| s.rate == REF_RATE)
        .expect("the ladder includes the reference rate")
}

fn end_to_end(rep: &mut Report, live: &Live, steps: &[Step], setup_s: f64, peak: f64) {
    let r = reference(steps);
    let busy: f64 = r.ingest_s.iter().sum();
    rep.set("setup_s", setup_s);
    rep.set("e2e_s", r.ingest_per_1k_s());
    rep.set("pairs_per_s", r.dirty_pairs as f64 / busy);
    rep.set("f1", live.f1());
    rep.set("peak_rss_mb", peak);
    rep.set("fresh_p50_ms", median(&r.fresh_ms));
    rep.set(
        "fresh_p90_ms",
        supported_percentile(&r.fresh_ms, 0.90).unwrap_or(f64::NAN),
    );
    let max_rate = steps
        .iter()
        .filter(|s| s.sustained())
        .map(|s| s.rate)
        .fold(0.0, f64::max);
    rep.set("max_rate_mut_per_s", max_rate);
}

fn per_layer(
    rep: &mut Report,
    live: &Live,
    steps: &[Step],
    untraced_ref: &Step,
    spans: &Spans,
    obs: &magellan_obs::Obs,
    pauses_before: usize,
) {
    let profile = obs.snapshot().profile();
    if profile.dropped_spans > 0 {
        eprintln!(
            "warning: the recorder dropped {} spans",
            profile.dropped_spans
        );
    }
    // (self ns, total ns) of every node called `name`, anywhere in the tree.
    fn fold(nodes: &[magellan_obs::ProfileNode], name: &str, acc: &mut (u64, u64)) {
        for n in nodes {
            if n.name == name {
                acc.0 += n.self_ns;
                acc.1 += n.total_ns;
            }
            fold(&n.children, name, acc);
        }
    }
    let phase = |name: &str| {
        let mut acc = (0, 0);
        fold(&profile.roots, name, &mut acc);
        (acc.0 as f64 * 1e-9, acc.1 as f64 * 1e-9)
    };
    let phases = [
        "delta_join",
        "mirror_mutations",
        "patch_candidates",
        "rescore_dirty",
    ]
    .map(phase);
    for (key, (self_s, _)) in [
        "stream.delta_join_s",
        "stream.mirror_s",
        "stream.patch_s",
        "stream.rescore_s",
    ]
    .iter()
    .zip(phases)
    {
        rep.set(key, self_s);
    }
    let ingest = spans.total("ingest");
    let inside: f64 = phases.iter().map(|(_, total)| total).sum();
    rep.set("bench.layer_sum_frac", inside / ingest);
    let traced_ref = reference(steps);
    let ref_fresh: Vec<f64> = traced_ref
        .fresh_ms
        .iter()
        .chain(&untraced_ref.fresh_ms)
        .copied()
        .collect();
    rep.set(
        "stream.fresh_p99_ms",
        supported_percentile(&ref_fresh, 0.99).unwrap_or(f64::NAN),
    );
    rep.set(
        "bench.trace_overhead_frac",
        traced_ref.ingest_per_1k_s() / untraced_ref.ingest_per_1k_s() - 1.0,
    );

    let pauses = &live.session.engine().compaction_pauses()[pauses_before..];
    rep.set("simjoin.compactions", pauses.len() as f64);
    rep.set(
        "simjoin.compaction_pause_max_ms",
        pauses
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
    );
    let sum = |f: &dyn Fn(&Step) -> f64| steps.iter().map(f).sum::<f64>();
    let mutations = sum(&|s| s.mutations as f64);
    let batches = sum(&|s| s.batch_len.len() as f64);
    rep.set(
        "stream.dirty_pairs_per_mut",
        sum(&|s| s.dirty_pairs as f64) / mutations,
    );
    rep.set("stream.batch_mean", mutations / batches);
    rep.set(
        "stream.ingest_busy_frac",
        sum(&|s| s.ingest_s.iter().sum()) / sum(&|s| s.wall_s),
    );
    rep.set(
        "stream.backlog_max",
        steps
            .iter()
            .flat_map(|s| s.backlog.iter().copied())
            .max()
            .unwrap_or(0) as f64,
    );
    rep.set(
        "bench.generator_lag_ms",
        sum(&|s| s.gen_lag_s.iter().sum()) / batches * 1e3,
    );
}
