//! Property oracle for the out-of-core tier: over *any* random pair of
//! string collections — nulls, empties, and heavy token skew included —
//! the hash-sharded join must be **bit-identical** (same `(l, r)` pair
//! sequence, exact same f64 similarity bits) to the preserved reference
//! engine, for every tested shard count K (K = 1 is the monolithic join),
//! worker count, measure, and probe side.
//!
//! This is the determinism contract that lets the executor swap the
//! sharded engine in under a memory budget without re-blessing any golden
//! output: the shard count is a pure memory-profile knob.

use magellan_par::ParConfig;
use magellan_simjoin::collection::TokenizedCollection;
use magellan_simjoin::{
    join_tokenized_hashmap, join_tokenized_sharded, ProbeSide, SetSimMeasure,
};
use magellan_textsim::tokenize::WhitespaceTokenizer;
use proptest::prelude::*;

/// Small alphabet ⇒ dense overlap; optional ⇒ null records; empty string
/// ⇒ empty token sets. All three stress shard routing edge cases.
fn soup(max_len: usize) -> impl Strategy<Value = Vec<Option<String>>> {
    proptest::collection::vec(
        proptest::option::weighted(0.85, "[abc]{0,2}( [abc]{1,2}){0,4}"),
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Grid: K ∈ {1, 4, 16} × workers ∈ {1, 8}, three measures, both
    /// forced probe sides plus Auto.
    #[test]
    fn sharded_join_is_bit_identical_to_monolithic(
        left in soup(24),
        right in soup(24),
        seed in any::<u8>(),
    ) {
        let tok = WhitespaceTokenizer::new();
        let coll = TokenizedCollection::build(&left, &right, &tok);
        // Rotate measure/side by the random seed so the full cross product
        // is covered across cases without a 3×3 inner loop per case.
        let measure = match seed % 3 {
            0 => SetSimMeasure::Jaccard(0.3),
            1 => SetSimMeasure::Cosine(0.4),
            _ => SetSimMeasure::OverlapSize(1),
        };
        let side = match (seed / 3) % 3 {
            0 => ProbeSide::Auto,
            1 => ProbeSide::Left,
            _ => ProbeSide::Right,
        };
        let expect = join_tokenized_hashmap(&coll, measure);
        for k in [1usize, 4, 16] {
            for workers in [1usize, 8] {
                let cfg = if workers == 1 {
                    ParConfig::serial()
                } else {
                    ParConfig::workers(workers)
                };
                let (got, _, stats) =
                    join_tokenized_sharded(&coll, measure, side, k, &cfg);
                // Bit-identity: JoinPair derives PartialEq over (l, r, sim)
                // where sim is the raw f64 — equality here is bit-level for
                // the non-NaN sims a join can produce.
                prop_assert_eq!(
                    &got, &expect,
                    "K={} workers={} measure={:?} side={:?}", k, workers, measure, side
                );
                prop_assert_eq!(stats.n_shards, k);
                let total: usize = stats.shard_records.iter().sum();
                prop_assert!(
                    total == coll.left.len() || total == coll.right.len(),
                    "every indexed record lands in exactly one shard"
                );
            }
        }
    }
}
