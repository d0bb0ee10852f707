//! Whole-pipeline benchmark driver for magellan-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <persons_ram|products_ooc|stream_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the library's public API, checks its
//! outputs, and prints one JSON object as the last line of standard
//! output: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! with `--trace 1`. Exits non-zero when an output check fails. See
//! `perfbench/README.md` for what each workload and metric means.

mod batch;
mod recorded;
mod spans;
mod stats;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Worker threads for every parallel region: the host's core count at the
/// time the benchmark was defined (`nproc` = 2).
pub const WORKERS: usize = 2;
/// Set-ups per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`), with units. Every workload reports
/// every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("pairs_per_s", "1/s"),
    ("f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("max_rate_mut_per_s", "mut/s"),
];

/// Per-layer metrics (`--trace 1`), with units. A metric of a layer call
/// the workload does not make reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("table.open_s", "s"),
    ("table.emtbl_bytes", "bytes"),
    ("table.emtbl_write_s", "s"),
    ("block.busy_s", "s"),
    ("block.candidates", "count"),
    ("simjoin.verified", "count"),
    ("simjoin.emitted_over_verified", "ratio"),
    ("simjoin.position_kill_rate", "ratio"),
    ("simjoin.shards", "count"),
    ("simjoin.peak_index_bytes", "bytes"),
    ("simjoin.k1_over_planned", "ratio"),
    ("features.busy_s", "s"),
    ("features.pairs_per_s", "1/s"),
    ("features.cache_hit_rate", "ratio"),
    ("features.tokenize_calls", "count"),
    ("textsim.per_feature_sum_over_full", "ratio"),
    ("ml.predict_s", "s"),
    ("ml.rows_per_s", "1/s"),
    ("core.rules_s", "s"),
    ("core.evaluate_s", "s"),
    ("par.busy_frac.block", "ratio"),
    ("par.busy_frac.extract", "ratio"),
    ("par.busy_frac.predict", "ratio"),
    ("par.chunks_stolen", "count"),
    ("core.dev_stage_s", "s"),
    ("datagen.s", "s"),
    ("stream.preload_s", "s"),
    ("stream.fresh_p99_ms", "ms"),
    ("stream.delta_join_s", "s"),
    ("stream.mirror_s", "s"),
    ("stream.patch_s", "s"),
    ("stream.rescore_s", "s"),
    ("simjoin.compactions", "count"),
    ("simjoin.compaction_pause_max_ms", "ms"),
    ("stream.dirty_pairs_per_mut", "ratio"),
    ("stream.batch_mean", "count"),
    ("stream.ingest_busy_frac", "ratio"),
    ("stream.backlog_max", "count"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.layer_sum_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The `persons_ram` features timed one by one, as
/// `textsim.ns_per_pair.<attribute>.<measure>` (unit `ns`).
pub const FEATURE_KEYS: &[&str] = &[
    "name.jaccard_word",
    "name.cosine_word",
    "name.jaccard_3gram",
    "name.monge_elkan",
    "name.lev_sim",
    "city.exact_match",
    "city.lev_sim",
    "city.jaro_winkler",
    "city.jaccard_3gram",
    "state.exact_match",
    "state.lev_sim",
    "state.jaro_winkler",
    "state.jaccard_3gram",
    "age.exact_num",
    "age.abs_diff",
    "age.rel_diff",
];

fn per_layer_catalog() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(
            FEATURE_KEYS
                .iter()
                .map(|k| (format!("textsim.ns_per_pair.{k}"), "ns")),
        )
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PersonsRam,
    ProductsOoc,
    StreamChurn,
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "persons_ram" => Workload::PersonsRam,
                    "products_ooc" => Workload::ProductsOoc,
                    "stream_churn" => Workload::StreamChurn,
                    _ => return Err(format!("unknown workload {value}")),
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Operations attempted and failed, and the metric values of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_owned(), value);
    }

    /// Count one operation; it failed unless its output check passed.
    pub fn attempt(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        self.check(ok, what);
    }

    /// An output check outside any single operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.failed += 1;
            eprintln!("output check failed: {what}");
        }
    }

    /// The result line. A value that is missing or not finite is a defect
    /// of the run and counts as a failure.
    fn result_line(&mut self, catalog: &[(String, &str)], missing_is_zero: bool) -> String {
        let mut metrics = Vec::with_capacity(catalog.len());
        for (name, unit) in catalog {
            let v = match self.values.get(name) {
                Some(&v) => v,
                None if missing_is_zero => 0.0,
                None => f64::NAN,
            };
            let v = if v.is_finite() {
                v
            } else {
                self.check(false, &format!("metric {name} was not measured"));
                0.0
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Scratch directory for files a workload writes, inside the current
/// directory; removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The matcher every workload trains: a 12-tree random forest.
pub fn forest_learner() -> magellan_ml::RandomForestLearner {
    magellan_ml::RandomForestLearner {
        n_trees: 12,
        ..Default::default()
    }
}

/// Display strings of one attribute, `None` for nulls — what the blockers
/// tokenize.
pub fn text_column(t: &magellan_table::Table, attr: &str) -> Res<Vec<Option<String>>> {
    let c = t.schema().try_index_of(attr)?;
    Ok((0..t.nrows())
        .map(|r| {
            let v = t.value(r, c);
            (!v.is_null()).then(|| v.display_string())
        })
        .collect())
}

/// splitmix64 finalizer, for deriving sub-seeds and seeded samples.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: perfbench --workload <persons_ram|products_ooc|stream_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "{:?} seed {} for {}s, trace {}: {WORKERS} workers on {cores} available core(s)",
        args.workload, args.seed, args.seconds, args.trace
    );
    magellan_obs::set_log_level(None);
    let mut rep = Report::default();
    let outcome = WorkDir::create()
        .map_err(Into::into)
        .and_then(|work| match args.workload {
            Workload::PersonsRam => batch::run(batch::Kind::Persons, &args, &mut rep, &work),
            Workload::ProductsOoc => batch::run(batch::Kind::Products, &args, &mut rep, &work),
            Workload::StreamChurn => stream::run(&args, &mut rep),
        });
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let line = if args.trace {
        rep.result_line(&per_layer_catalog(), true)
    } else {
        let catalog: Vec<(String, &str)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
        rep.result_line(&catalog, false)
    };
    println!("{line}");
    std::process::exit(if rep.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload stream_churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::StreamChurn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload persons_ram --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload persons_ram --seed 7 --seconds 1 --trace 2").is_err());
        assert!(args("--workload persons_ram --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn result_line_reports_unmeasured_metrics_as_failures() {
        let mut r = Report::default();
        r.set("a", 1.5);
        let cat = vec![("a".to_owned(), "s"), ("b".to_owned(), "ms")];
        let line = r.result_line(&cat, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
        assert!(line.contains("\"a\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let mut r = Report::default();
        assert!(r.result_line(&cat, true).starts_with("{\"correct\": true"));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this driver prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let json = magellan_obs::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|v| v.as_str())
                            .expect("name and unit")
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        let layer: Vec<(String, String)> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
    }
}
