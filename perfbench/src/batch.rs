//! The two batch workloads: `persons_ram` (tables in RAM, extraction
//! bound) and `products_ooc` (table A read back mapped from `emtbl`,
//! sharded blocking bound).
//!
//! The untraced run is the library's own production path,
//! `ProductionExecutor::run` followed by `evaluate_matches`. The traced
//! run makes the same layer calls in the same order as
//! `ProductionExecutor::run`, each inside a driver span, and must reach
//! the same matches.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use magellan_block::{Blocker, CandidateSet, OverlapBlocker, SimJoinBlocker};
use magellan_core::evaluate::evaluate_matches;
use magellan_core::exec::ProductionExecutor;
use magellan_core::labeling::OracleLabeler;
use magellan_core::pipeline::{run_development_stage, DevConfig};
use magellan_core::EmWorkflow;
use magellan_datagen::domains::{persons, products};
use magellan_datagen::{DirtModel, ScenarioConfig};
use magellan_features::{extract_feature_matrix_par, generate_features, Feature};
use magellan_ml::Learner;
use magellan_par::{ParConfig, ParStats};
use magellan_simjoin::{
    join_tokenized_sharded, shards_for_budget, ProbeSide, SetSimMeasure, TokenizedCollection,
};
use magellan_table::{MappedTable, Table};
use magellan_textsim::tokenize::AlphanumericTokenizer;

use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, release_free_heap, reset_peak_rss};
use crate::{forest_learner, mix64, text_column, Args, Report, Res, WorkDir, SETUP_REPS, WORKERS};

/// persons: rows per side and true matches. Scaled down from 8 000² so a
/// production run takes about half a second; the phase mix (extraction
/// ≈ all of it, blocking almost none) does not depend on the size.
const PERSONS_ROWS: usize = 2_000;
const PERSONS_MATCHES: usize = 625;
/// products: the big table A (written to `emtbl`, read back mapped),
/// table B, and the small draw the workflow is developed on.
const PRODUCTS_ROWS_A: usize = 200_000;
const PRODUCTS_ROWS_B: usize = 10_000;
const PRODUCTS_DEV_A: usize = 4_000;
const PRODUCTS_DEV_B: usize = 2_000;
const PRODUCTS_JACCARD: f64 = 0.7;
/// Timed production runs per invocation, at least.
const MIN_RUNS: usize = 3;
/// Candidate pairs in the per-feature attribution sample.
const FEATURE_SAMPLE: usize = 20_000;
/// Repeats of each per-feature timing (the median is kept).
const FEATURE_REPS: usize = 3;
/// The layer spans must account for the traced run's time within this
/// share; the rest is the driver's own glue between calls.
const LAYER_SUM_TOLERANCE: f64 = 0.05;
/// Alternated timings of the products join at K=1 and at the planned K.
const K1_REPS: usize = 3;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Persons,
    Products,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Persons => "persons_ram",
            Kind::Products => "products_ooc",
        }
    }
}

/// Where table A lives during the timed run.
enum TableA {
    InRam(Table),
    /// An `emtbl` file, opened mapped by every run.
    Mapped(PathBuf),
}

struct Setup {
    a: TableA,
    b: Table,
    rows: usize,
    gold: HashSet<(String, String)>,
    workflow: EmWorkflow,
    /// products: the planned shard count of the blocking join.
    shards: usize,
    datagen_s: f64,
    dev_s: f64,
    emtbl_write_s: f64,
}

fn title_blocker(shards: usize) -> SimJoinBlocker {
    SimJoinBlocker {
        l_attr: "title".into(),
        r_attr: "title".into(),
        measure: SetSimMeasure::Jaccard(PRODUCTS_JACCARD),
        qgram: None,
        shards,
    }
}

fn setup_persons(seed: u64) -> Res<Setup> {
    let t = Instant::now();
    let s = persons(&ScenarioConfig {
        size_a: PERSONS_ROWS,
        size_b: PERSONS_ROWS,
        n_matches: PERSONS_MATCHES,
        dirt: DirtModel::light(),
        seed,
    });
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let features = generate_features(&s.table_a, &s.table_b, &["id"])?;
    let mut labeler = OracleLabeler::new(s.gold.clone(), "id", "id");
    let forest = forest_learner();
    let learners: Vec<&dyn Learner> = vec![&forest];
    let (workflow, _) = run_development_stage(
        &s.table_a,
        &s.table_b,
        vec![Box::new(OverlapBlocker::words("name", 1))],
        features,
        &learners,
        &mut labeler,
        &DevConfig {
            down_sample_to: Some(2_000),
            sample_size: 700,
            seed,
            ..Default::default()
        },
    )?;
    let dev_s = t.elapsed().as_secs_f64();
    Ok(Setup {
        rows: s.table_a.nrows() + s.table_b.nrows(),
        a: TableA::InRam(s.table_a),
        b: s.table_b,
        gold: s.gold,
        workflow,
        shards: 1,
        datagen_s,
        dev_s,
        emtbl_write_s: 0.0,
    })
}

fn setup_products(seed: u64, path: &Path) -> Res<Setup> {
    let t = Instant::now();
    let big = products(&ScenarioConfig {
        size_a: PRODUCTS_ROWS_A,
        size_b: PRODUCTS_ROWS_B,
        n_matches: PRODUCTS_ROWS_B / 2,
        dirt: DirtModel::light(),
        seed,
    });
    // Developing the workflow on the full table A would dominate set-up;
    // a small draw from the same generator stands in for the down-sample.
    let small = products(&ScenarioConfig {
        size_a: PRODUCTS_DEV_A,
        size_b: PRODUCTS_DEV_B,
        n_matches: PRODUCTS_DEV_B / 2,
        dirt: DirtModel::light(),
        seed: mix64(seed ^ 0xD0_5A11),
    });
    let datagen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    magellan_table::emtbl::write_path(&big.table_a, path)?;
    let emtbl_write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let features = generate_features(&small.table_a, &small.table_b, &["id"])?;
    let mut labeler = OracleLabeler::new(small.gold.clone(), "id", "id");
    let forest = forest_learner();
    let learners: Vec<&dyn Learner> = vec![&forest];
    let (mut workflow, _) = run_development_stage(
        &small.table_a,
        &small.table_b,
        vec![Box::new(title_blocker(1))],
        features,
        &learners,
        &mut labeler,
        &DevConfig {
            sample_size: 700,
            seed,
            ..Default::default()
        },
    )?;
    // Plan the shard count for a quarter of the monolithic index, on the
    // tokens the blocker itself will index.
    let coll = TokenizedCollection::build(
        &text_column(&big.table_a, "title")?,
        &text_column(&big.table_b, "title")?,
        &AlphanumericTokenizer::as_set(),
    );
    let measure = SetSimMeasure::Jaccard(PRODUCTS_JACCARD);
    let cfg = ParConfig::workers(WORKERS);
    let (_, _, mono) = join_tokenized_sharded(&coll, measure, ProbeSide::Auto, 1, &cfg);
    let shards = shards_for_budget(
        &coll,
        measure,
        ProbeSide::Auto,
        mono.monolithic_index_bytes / 4,
    );
    workflow.blocker = Box::new(title_blocker(shards));
    let dev_s = t.elapsed().as_secs_f64();

    let rows = big.table_a.nrows() + big.table_b.nrows();
    Ok(Setup {
        a: TableA::Mapped(path.to_path_buf()),
        b: big.table_b,
        rows,
        gold: big.gold,
        workflow,
        shards,
        datagen_s,
        dev_s,
        emtbl_write_s,
    })
}

fn open_mapped(path: &Path) -> Res<(Table, usize)> {
    let map = MappedTable::open(path)?;
    let bytes = map.file_bytes();
    Ok((Table::from_mapped("products_a", Arc::new(map)), bytes))
}

/// One production run exactly as a user makes it: open table A if it is
/// mapped, `ProductionExecutor::run`, then `evaluate_matches`.
fn production_run(s: &Setup, workers: usize) -> Res<(CandidateSet, f64, usize)> {
    let opened;
    let a = match &s.a {
        TableA::InRam(t) => t,
        TableA::Mapped(p) => {
            opened = open_mapped(p)?.0;
            &opened
        }
    };
    let rep = ProductionExecutor::new(workers).run(&s.workflow, a, &s.b)?;
    let m = evaluate_matches(&rep.matches, a, &s.b, "id", "id", &s.gold)?;
    Ok((rep.matches, m.f1(), rep.n_candidates))
}

/// What one traced run measured.
struct Traced {
    matches: CandidateSet,
    f1: f64,
    total_s: f64,
    open_s: f64,
    block_s: f64,
    extract_s: f64,
    predict_s: f64,
    rules_s: f64,
    evaluate_s: f64,
    emtbl_bytes: usize,
    candidates: usize,
    block: ParStats,
    extract: ParStats,
    predict: ParStats,
    shard_gauges: (f64, f64),
}

/// The production run composed from its public layer calls, in the order
/// `ProductionExecutor::run` makes them, each inside a driver span. A
/// fresh recorder is installed for the library's own metrics (the
/// sharded join publishes its shard gauges there).
fn traced_run(s: &Setup) -> Res<Traced> {
    let obs = magellan_obs::Obs::wall();
    let _installed = obs.install();
    let cfg = ParConfig::workers(WORKERS);
    let wf = &s.workflow;
    let mut sp = Spans::new();
    let run = sp.enter("run");
    let mut emtbl_bytes = 0;
    let opened;
    let a = match &s.a {
        TableA::InRam(t) => t,
        TableA::Mapped(p) => {
            let (t, bytes) = sp.time("table.open", || open_mapped(p))?;
            emtbl_bytes = bytes;
            opened = t;
            &opened
        }
    };
    let b = &s.b;
    let (candidates, block) = sp.time("block", || wf.blocker.block_par(a, b, &cfg))?;
    let pairs = candidates.pairs();
    let (matrix, extract) = sp.time("extract", || {
        extract_feature_matrix_par(pairs, a, b, &wf.features, &cfg)
    })?;
    let (predicted, predict) = sp.time("predict", || {
        magellan_par::map_indexed(matrix.len(), &cfg, |i| {
            wf.matcher.predict_proba(&matrix.rows[i]) >= wf.threshold
        })
    });
    let decisions = sp.time("rules", || wf.rule_layer.apply(&matrix, &predicted));
    let matches = CandidateSet::new(
        decisions
            .into_iter()
            .zip(pairs.iter().copied())
            .filter_map(|(d, p)| d.then_some(p))
            .collect(),
    );
    let metrics = sp.time("evaluate", || {
        evaluate_matches(&matches, a, b, "id", "id", &s.gold)
    })?;
    // `ProductionExecutor::run` frees its feature matrix before it
    // returns, so the traced run does too, inside the run span.
    let n_candidates = candidates.len();
    drop((matrix, predicted, candidates));
    sp.exit(run);
    let snap = obs.snapshot();
    Ok(Traced {
        f1: metrics.f1(),
        total_s: sp.total("run"),
        open_s: sp.self_time("table.open"),
        block_s: sp.self_time("block"),
        extract_s: sp.self_time("extract"),
        predict_s: sp.self_time("predict"),
        rules_s: sp.self_time("rules"),
        evaluate_s: sp.self_time("evaluate"),
        emtbl_bytes,
        candidates: n_candidates,
        shard_gauges: (
            snap.gauge("magellan_simjoin_shards"),
            snap.gauge("magellan_simjoin_shard_peak_index_bytes"),
        ),
        matches,
        block,
        extract,
        predict,
    })
}

/// `textsim.ns_per_pair.<key>` key of a feature: its attribute and
/// measure, with anything outside `[A-Za-z0-9_]` folded to `_`.
fn feature_key(f: &Feature) -> String {
    let label: String = f
        .kind
        .label()
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("{}.{}", f.l_attr, label.trim_end_matches('_'))
}

/// Per-feature attribution from outside: time `extract_feature_matrix_par`
/// on a fixed, seeded sample of the candidates with the full plan and
/// with each single feature. Returns `(key, ns per pair)` per feature and
/// the full plan's ns per pair.
fn per_feature(s: &Setup, seed: u64) -> Res<(Vec<(String, f64)>, f64)> {
    let TableA::InRam(a) = &s.a else {
        return Ok((Vec::new(), 0.0));
    };
    let cfg = ParConfig::workers(WORKERS);
    let (candidates, _) = s.workflow.blocker.block_par(a, &s.b, &cfg)?;
    let all = candidates.pairs();
    let keep = FEATURE_SAMPLE.min(all.len()) as u64;
    let n = all.len().max(1) as u64;
    let sample: Vec<(u32, u32)> = all
        .iter()
        .enumerate()
        .filter(|(i, _)| mix64(seed ^ 0xFEA7 ^ *i as u64) % n < keep)
        .map(|(_, &p)| p)
        .collect();
    let time = |features: &[Feature]| -> Res<f64> {
        let mut t = Vec::with_capacity(FEATURE_REPS);
        for _ in 0..FEATURE_REPS {
            let t0 = Instant::now();
            let out = extract_feature_matrix_par(&sample, a, &s.b, features, &cfg)?;
            t.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(out);
        }
        Ok(median(&t) * 1e9 / sample.len().max(1) as f64)
    };
    let full = time(&s.workflow.features)?;
    let mut each = Vec::with_capacity(s.workflow.features.len());
    for f in &s.workflow.features {
        each.push((feature_key(f), time(std::slice::from_ref(f))?));
    }
    Ok((each, full))
}

fn same(a: &CandidateSet, b: &CandidateSet) -> bool {
    a.pairs() == b.pairs()
}

pub fn run(kind: Kind, args: &Args, rep: &mut Report, work: &WorkDir) -> Res<()> {
    // Set-up, several times; the last one is kept for the run.
    let path = work.path("products_a.emtbl");
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut parts = (Vec::new(), Vec::new(), Vec::new());
    let mut s = None;
    for _ in 0..SETUP_REPS {
        drop(s.take());
        release_free_heap();
        let t = Instant::now();
        let next = match kind {
            Kind::Persons => setup_persons(args.seed)?,
            Kind::Products => setup_products(args.seed, &path)?,
        };
        setups.push(t.elapsed().as_secs_f64());
        parts.0.push(next.datagen_s);
        parts.1.push(next.dev_s);
        parts.2.push(next.emtbl_write_s);
        s = Some(next);
    }
    let s = s.expect("at least one set-up");
    // The in-RAM copy of products table A went with the set-up's scenario;
    // return its pages so the timed run's RSS is the mapped path's.
    release_free_heap();
    eprintln!(
        "{}: {} rows, {} features, {} shard(s)",
        kind.name(),
        s.rows,
        s.workflow.features.len(),
        s.shards
    );

    // Untimed warm-up: takes the first-run-in-process penalty out, and
    // its matches are the reference every later run is checked against.
    let (reference, f1, candidates) = production_run(&s, WORKERS)?;
    rep.attempt(true, "warm-up run");
    crate::recorded::check_f1(rep, kind.name(), args.seed, f1);

    if args.trace {
        traced(kind, args, rep, &s, &reference, f1)?;
    } else {
        untraced(args, rep, &s, &reference, f1, candidates)?;
        rep.set("setup_s", median(&setups));
    }

    // Worker-count invariance, outside any timed region.
    let (m1, f1_1, _) = production_run(&s, 1)?;
    rep.attempt(
        same(&m1, &reference) && f1_1 == f1,
        "matches at workers 1 differ from workers 2",
    );
    if args.trace {
        rep.set("datagen.s", median(&parts.0));
        rep.set("core.dev_stage_s", median(&parts.1));
        rep.set("table.emtbl_write_s", median(&parts.2));
    }
    Ok(())
}

fn untraced(
    args: &Args,
    rep: &mut Report,
    s: &Setup,
    reference: &CandidateSet,
    f1: f64,
    candidates: usize,
) -> Res<()> {
    let rss_reset = reset_peak_rss();
    let mut e2e = Vec::new();
    let start = Instant::now();
    while e2e.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let (m, run_f1, _) = production_run(s, WORKERS)?;
        e2e.push(t.elapsed().as_secs_f64());
        rep.attempt(
            same(&m, reference) && run_f1 == f1,
            "a timed run's matches differ",
        );
    }
    let peak = peak_rss_mb().unwrap_or(f64::NAN);
    if !rss_reset {
        eprintln!("note: clear_refs unavailable; peak_rss_mb covers the whole process");
    }
    let e2e_med = median(&e2e);
    eprintln!("e2e runs: {e2e:?}");
    rep.set("e2e_s", e2e_med);
    rep.set("pairs_per_s", candidates as f64 / e2e_med);
    rep.set("f1", f1);
    rep.set("peak_rss_mb", peak);
    // Batch freshness: every record is due when a run starts and its
    // matches are visible when it ends, so within one run every
    // percentile of freshness is the run's wall time.
    rep.set("fresh_p50_ms", e2e_med * 1e3);
    rep.set("fresh_p90_ms", e2e_med * 1e3);
    // A batch run takes longer than the 200 ms freshness limit, so no
    // ladder rate qualifies; the rate that back-to-back runs absorb with
    // no growing backlog is every record once per run.
    rep.set("max_rate_mut_per_s", s.rows as f64 / e2e_med);
    Ok(())
}

fn traced(
    kind: Kind,
    args: &Args,
    rep: &mut Report,
    s: &Setup,
    reference: &CandidateSet,
    f1: f64,
) -> Res<()> {
    // Interleave untraced and traced runs so drift hits both alike.
    let mut untraced_s = Vec::new();
    let mut runs: Vec<Traced> = Vec::new();
    let start = Instant::now();
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let (m, _, _) = production_run(s, WORKERS)?;
        untraced_s.push(t.elapsed().as_secs_f64());
        rep.attempt(same(&m, reference), "an untraced run's matches differ");
        let tr = traced_run(s)?;
        rep.attempt(
            same(&tr.matches, reference) && tr.f1 == f1,
            "traced matches differ from the untraced run's",
        );
        runs.push(tr);
    }
    let med = |f: &dyn Fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let total = med(&|r| r.total_s);
    let (open, block, extract) = (
        med(&|r| r.open_s),
        med(&|r| r.block_s),
        med(&|r| r.extract_s),
    );
    let (predict, rules, evaluate) = (
        med(&|r| r.predict_s),
        med(&|r| r.rules_s),
        med(&|r| r.evaluate_s),
    );
    let last = runs.last().expect("at least one traced run");
    let pairs = last.candidates as f64;

    rep.set("table.open_s", open);
    rep.set("table.emtbl_bytes", last.emtbl_bytes as f64);
    rep.set("block.busy_s", block);
    rep.set("block.candidates", pairs);
    let join = &last.block.join;
    rep.set("simjoin.verified", join.verified as f64);
    rep.set(
        "simjoin.emitted_over_verified",
        ratio(join.pairs as f64, join.verified as f64),
    );
    rep.set("simjoin.position_kill_rate", join.position_kill_rate());
    rep.set("simjoin.shards", last.shard_gauges.0);
    rep.set("simjoin.peak_index_bytes", last.shard_gauges.1);
    rep.set("features.busy_s", extract);
    rep.set("features.pairs_per_s", ratio(pairs, extract));
    rep.set("features.cache_hit_rate", last.extract.cache.hit_rate());
    rep.set(
        "features.tokenize_calls",
        last.extract.cache.tokenize_calls as f64,
    );
    rep.set("ml.predict_s", predict);
    rep.set("ml.rows_per_s", ratio(pairs, predict));
    rep.set("core.rules_s", rules);
    rep.set("core.evaluate_s", evaluate);
    rep.set("par.busy_frac.block", med(&|r| r.block.utilization()));
    rep.set("par.busy_frac.extract", med(&|r| r.extract.utilization()));
    rep.set("par.busy_frac.predict", med(&|r| r.predict.utilization()));
    rep.set(
        "par.chunks_stolen",
        med(&|r| {
            (r.block.chunks_stolen + r.extract.chunks_stolen + r.predict.chunks_stolen) as f64
        }),
    );
    let layer_sum = med(&|r| {
        (r.open_s + r.block_s + r.extract_s + r.predict_s + r.rules_s + r.evaluate_s) / r.total_s
    });
    rep.set("bench.layer_sum_frac", layer_sum);
    rep.check(
        (1.0 - LAYER_SUM_TOLERANCE..=1.0 + LAYER_SUM_TOLERANCE).contains(&layer_sum),
        &format!("layer times cover {layer_sum:.4} of the traced run"),
    );
    rep.set(
        "bench.trace_overhead_frac",
        total / median(&untraced_s) - 1.0,
    );
    eprintln!(
        "layers (s): open {open:.4} block {block:.4} extract {extract:.4} predict {predict:.4} rules {rules:.4} evaluate {evaluate:.4} / run {total:.4}"
    );

    match kind {
        Kind::Persons => {
            let (each, full) = per_feature(s, args.seed)?;
            let sum: f64 = each.iter().map(|(_, ns)| ns).sum();
            for (key, ns) in &each {
                if !crate::FEATURE_KEYS.contains(&key.as_str()) {
                    eprintln!("warning: feature {key} is not in the metric catalog");
                }
                rep.set(&format!("textsim.ns_per_pair.{key}"), *ns);
            }
            rep.set("textsim.per_feature_sum_over_full", ratio(sum, full));
            eprintln!("per-feature ns/pair: full plan {full:.1}, sum of singles {sum:.1}");
        }
        Kind::Products => {
            // The same join at K=1 and at the planned K, alternated.
            let TableA::Mapped(p) = &s.a else {
                unreachable!("products A is mapped")
            };
            let (a, _) = open_mapped(p)?;
            let cfg = ParConfig::workers(WORKERS);
            let (mut k1, mut kp) = (Vec::new(), Vec::new());
            let mut first: Option<CandidateSet> = None;
            for _ in 0..K1_REPS {
                for (k, times) in [(1, &mut k1), (s.shards, &mut kp)] {
                    let t = Instant::now();
                    let (c, _) = title_blocker(k).block_par(&a, &s.b, &cfg)?;
                    times.push(t.elapsed().as_secs_f64());
                    match &first {
                        Some(f) => rep.attempt(same(f, &c), "K=1 and planned-K joins differ"),
                        None => first = Some(c),
                    }
                }
            }
            let (k1_s, kp_s) = (median(&k1), median(&kp));
            rep.set("simjoin.k1_over_planned", k1_s / kp_s);
        }
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
