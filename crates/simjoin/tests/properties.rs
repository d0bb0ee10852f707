//! Property tests: every sim-join must return *exactly* the pairs the naive
//! cross-product verification returns — the filters may never drop a
//! qualifying pair (no false negatives) nor admit an unqualified one after
//! verification (no false positives).

use magellan_par::ParConfig;
use magellan_simjoin::editjoin::edit_distance_join;
use magellan_simjoin::{
    join_tokenized_hashmap, join_tokenized_sharded, set_sim_join,
    JoinPair, ProbeSide, SetSimMeasure, TokenizedCollection,
};
use magellan_textsim::seqsim::levenshtein;
use magellan_textsim::setsim;
use magellan_textsim::tokenize::{Tokenizer, WhitespaceTokenizer};
use proptest::prelude::*;

fn strings() -> impl Strategy<Value = Vec<Option<String>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.9, "[ab]{0,3}( [ab]{1,3}){0,3}"),
        1..25,
    )
}

fn naive_set(
    left: &[Option<String>],
    right: &[Option<String>],
    measure: SetSimMeasure,
) -> Vec<(usize, usize)> {
    let tok = WhitespaceTokenizer::new();
    let mut out = Vec::new();
    for (l, a) in left.iter().enumerate() {
        for (r, b) in right.iter().enumerate() {
            let (Some(a), Some(b)) = (a, b) else { continue };
            let ta = tok.tokenize(a);
            let tb = tok.tokenize(b);
            if ta.is_empty() || tb.is_empty() {
                continue;
            }
            let ok = match measure {
                SetSimMeasure::Jaccard(t) => setsim::jaccard(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::Cosine(t) => setsim::cosine(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::Dice(t) => setsim::dice(&ta, &tb) >= t - 1e-9,
                SetSimMeasure::OverlapSize(c) => setsim::overlap_size(&ta, &tb) >= c,
            };
            if ok {
                out.push((l, r));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jaccard_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Jaccard(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Jaccard(t)));
    }

    #[test]
    fn cosine_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Cosine(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Cosine(t)));
    }

    #[test]
    fn dice_join_equals_naive(left in strings(), right in strings(), t in 0.05f64..1.0) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::Dice(t))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::Dice(t)));
    }

    #[test]
    fn overlap_join_equals_naive(left in strings(), right in strings(), c in 1usize..4) {
        let tok = WhitespaceTokenizer::new();
        let fast: Vec<(usize, usize)> = set_sim_join(&left, &right, &tok, SetSimMeasure::OverlapSize(c))
            .into_iter().map(|p| (p.l, p.r)).collect();
        prop_assert_eq!(fast, naive_set(&left, &right, SetSimMeasure::OverlapSize(c)));
    }

    /// The full oracle grid for the CSR engine: random token soups ×
    /// all four measures × thresholds {0.3, 0.6, 0.8, 1.0} (mapped to
    /// small absolute counts for `OverlapSize`) × probe sides
    /// {Auto, Left, Right} × shard counts {1, 3} × worker counts {1, 4}
    /// (K = 1 is the monolithic join). Every cell must be
    /// **bit-identical** — same `(l, r)` pair set in the same order and
    /// the exact same f64 similarity — to the naive cross-product oracle
    /// and to the preserved pre-CSR HashMap engine.
    #[test]
    fn csr_engine_grid_equals_naive_oracle(left in strings(), right in strings()) {
        let tok = WhitespaceTokenizer::new();
        let coll = TokenizedCollection::build(&left, &right, &tok);
        let measures = [
            SetSimMeasure::Jaccard(0.3), SetSimMeasure::Jaccard(0.6),
            SetSimMeasure::Jaccard(0.8), SetSimMeasure::Jaccard(1.0),
            SetSimMeasure::Cosine(0.3), SetSimMeasure::Cosine(0.6),
            SetSimMeasure::Cosine(0.8), SetSimMeasure::Cosine(1.0),
            SetSimMeasure::Dice(0.3), SetSimMeasure::Dice(0.6),
            SetSimMeasure::Dice(0.8), SetSimMeasure::Dice(1.0),
            SetSimMeasure::OverlapSize(1), SetSimMeasure::OverlapSize(2),
            SetSimMeasure::OverlapSize(3),
        ];
        for measure in measures {
            // Naive cross-product oracle, with exact similarities from
            // the same `setsim` arithmetic the engine must reproduce.
            let mut oracle: Vec<JoinPair> = Vec::new();
            for (l, a) in left.iter().enumerate() {
                for (r, b) in right.iter().enumerate() {
                    let (Some(a), Some(b)) = (a, b) else { continue };
                    let ta = tok.tokenize(a);
                    let tb = tok.tokenize(b);
                    if ta.is_empty() || tb.is_empty() {
                        continue;
                    }
                    let (ok, sim) = match measure {
                        SetSimMeasure::Jaccard(t) => {
                            let s = setsim::jaccard(&ta, &tb);
                            (s >= t - 1e-9, s)
                        }
                        SetSimMeasure::Cosine(t) => {
                            let s = setsim::cosine(&ta, &tb);
                            (s >= t - 1e-9, s)
                        }
                        SetSimMeasure::Dice(t) => {
                            let s = setsim::dice(&ta, &tb);
                            (s >= t - 1e-9, s)
                        }
                        SetSimMeasure::OverlapSize(c) => {
                            let s = setsim::overlap_size(&ta, &tb);
                            (s >= c, s as f64)
                        }
                    };
                    if ok {
                        oracle.push(JoinPair { l, r, sim });
                    }
                }
            }
            let reference = join_tokenized_hashmap(&coll, measure);
            prop_assert_eq!(&reference, &oracle, "reference vs oracle {:?}", measure);
            for side in [ProbeSide::Auto, ProbeSide::Left, ProbeSide::Right] {
                for k in [1usize, 3] {
                    let (serial, stats, _) =
                        join_tokenized_sharded(&coll, measure, side, k, &ParConfig::serial());
                    prop_assert_eq!(&serial, &oracle, "serial {:?} {:?} K={}", measure, side, k);
                    prop_assert_eq!(stats.join.pairs, oracle.len());
                    for workers in [1usize, 4] {
                        let (par, pstats, _) = join_tokenized_sharded(
                            &coll, measure, side, k, &ParConfig::workers(workers));
                        prop_assert_eq!(&par, &oracle,
                            "par {:?} {:?} K={} workers={}", measure, side, k, workers);
                        prop_assert_eq!(pstats.join.pairs, oracle.len());
                    }
                }
            }
        }
    }

    #[test]
    fn edit_join_equals_naive(
        left in proptest::collection::vec(proptest::option::weighted(0.9, "[ab]{0,6}"), 1..20),
        right in proptest::collection::vec(proptest::option::weighted(0.9, "[ab]{0,6}"), 1..20),
        d in 0usize..3,
    ) {
        let fast: Vec<(usize, usize)> = edit_distance_join(&left, &right, d)
            .into_iter().map(|p| (p.l, p.r)).collect();
        let mut slow = Vec::new();
        for (l, a) in left.iter().enumerate() {
            for (r, b) in right.iter().enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    if levenshtein(a, b) <= d {
                        slow.push((l, r));
                    }
                }
            }
        }
        prop_assert_eq!(fast, slow);
    }
}
