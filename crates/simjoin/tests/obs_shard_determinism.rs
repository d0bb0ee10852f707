//! Pinned-clock observability contract for the sharded join: exports
//! (Prometheus, Chrome trace, collapsed profile) are byte-identical at
//! any worker count, the shard lifecycle spans (`shard_build` →
//! `shard_probe` → `shard_drop`) are present, and per-shard index bytes
//! are attributed to the `shard_build` spans. The monolithic join is
//! the one-shard case of the same driver and carries the same contract.

use magellan_obs::{Obs, ObsSnapshot};
use magellan_par::ParConfig;
use magellan_simjoin::{join_tokenized_sharded, ProbeSide, SetSimMeasure, TokenizedCollection};
use magellan_textsim::tokenize::WhitespaceTokenizer;

const N_SHARDS: usize = 4;

/// Seeded synthetic records over a small vocabulary — dense enough that
/// every shard gets both build and probe work.
fn records(n: usize, salt: u64) -> Vec<Option<String>> {
    const VOCAB: [&str; 14] = [
        "sony", "wireless", "mouse", "apple", "pencil", "case", "usb", "cable", "hub",
        "charger", "stand", "dock", "mini", "pro",
    ];
    (0..n)
        .map(|i| {
            let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            let len = 3 + (x % 4) as usize;
            let words: Vec<&str> = (0..len)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    VOCAB[(x >> 33) as usize % VOCAB.len()]
                })
                .collect();
            Some(words.join(" "))
        })
        .collect()
}

fn run_pinned(workers: usize, n_shards: usize) -> (Vec<magellan_simjoin::JoinPair>, ObsSnapshot) {
    let tok = WhitespaceTokenizer::new();
    let obs = Obs::pinned();
    let _g = obs.install();
    let coll = TokenizedCollection::build(&records(240, 3), &records(200, 17), &tok);
    let mut cfg = ParConfig::workers(workers);
    cfg.chunk_size = Some(16); // pinned: chunk spans must not track workers
    let (pairs, _pstats, _sstats) = join_tokenized_sharded(
        &coll,
        SetSimMeasure::Jaccard(0.5),
        ProbeSide::Left,
        n_shards,
        &cfg,
    );
    (pairs, obs.snapshot())
}

#[test]
fn sharded_join_pinned_exports_are_byte_identical_across_worker_counts() {
    let (monolithic, _) = run_pinned(1, 1);
    assert!(!monolithic.is_empty(), "fixture produced no join pairs");
    // K = 1 is the monolithic join: same driver, same contract.
    for n_shards in [1, N_SHARDS] {
        let (pairs1, snap1) = run_pinned(1, n_shards);
        assert_eq!(pairs1, monolithic, "K={n_shards} changed the join result");
        let prom1 = snap1.to_prometheus();
        let trace1 = snap1.to_chrome_trace();
        let prof1 = snap1.profile().to_collapsed();

        // One full shard lifecycle per shard, keyed by shard number.
        for name in ["shard_build", "shard_probe", "shard_drop"] {
            assert_eq!(
                snap1.spans_named(name).len(),
                n_shards,
                "expected one {name:?} span per shard at K={n_shards}"
            );
        }
        assert_eq!(snap1.gauge("magellan_simjoin_shards"), n_shards as f64);
        // The kernel-verify level shows up under the probe's chunk spans.
        assert!(!snap1.spans_named("verify").is_empty(), "verify spans missing");

        for workers in [2, 4, 8] {
            let (pairs, snap) = run_pinned(workers, n_shards);
            let at = format!("K={n_shards} workers={workers}");
            assert_eq!(pairs, pairs1, "{at} changed the join result");
            assert_eq!(snap.to_prometheus(), prom1, "Prometheus diverged at {at}");
            assert_eq!(snap.to_chrome_trace(), trace1, "Chrome trace diverged at {at}");
            assert_eq!(snap.profile().to_collapsed(), prof1, "profile diverged at {at}");
        }
    }
}

#[test]
fn shard_build_spans_carry_index_byte_attribution() {
    let (_, snap) = run_pinned(2, N_SHARDS);
    let profile = snap.profile();
    let node = profile
        .node(&["shard_build"])
        .expect("shard_build aggregates into a profile node");
    assert_eq!(node.calls, N_SHARDS as u64);
    let bytes = node
        .res
        .get("shard_index_bytes")
        .copied()
        .expect("shard_build spans attribute index bytes");
    assert!(bytes > 0, "index byte attribution is zero");
    // The peak-bytes gauge is the max over shards, so it can never exceed
    // the per-shard sum attributed to the build spans.
    let peak = snap.gauge("magellan_simjoin_shard_peak_index_bytes");
    assert!(peak > 0.0);
    assert!(peak as u64 <= bytes, "peak {peak} exceeds summed shard bytes {bytes}");
}

