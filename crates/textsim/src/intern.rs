//! Token interning and integer-set similarity.
//!
//! Every batch consumer of the set-based measures — feature extraction,
//! rule evaluation, blocking — ultimately compares *deduplicated token
//! sets*. Comparing them as strings re-hashes (or re-sorts) the same
//! tokens for every pair a record participates in. This module provides
//! the shared alternative: a [`TokenInterner`] mapping each distinct token
//! string to a dense `u32` id, plus similarity kernels over **sorted,
//! deduplicated id slices** that run as branchy-but-allocation-free merge
//! intersections.
//!
//! ## Invariants (shared with `magellan-simjoin`'s `TokenizedCollection`)
//!
//! * equal strings ⇔ equal ids (the interner is injective both ways);
//! * an interned record set is sorted ascending and deduplicated, so
//!   `|A|`, `|B|`, and `|A ∩ B|` computed over id slices are **exactly**
//!   the values the string-based [`crate::setsim`] measures compute —
//!   and since every measure is a pure arithmetic function of those three
//!   integers, the resulting `f64`s are bit-identical;
//! * id *order* carries no meaning (insertion order), which is fine:
//!   no measure below depends on which ids are smaller, only on equality.
//!
//! The `*_ids` kernels intentionally mirror the arithmetic of their
//! [`crate::setsim`] counterparts expression-for-expression so the
//! bit-identity holds even where floating-point evaluation order could
//! matter (e.g. cosine's `(|A| as f64) * (|B| as f64)` product).

use std::collections::HashMap;

/// A token → dense `u32` id table, append-only.
///
/// Ids are assigned in first-intern order. The interner is the single
/// shared vocabulary for one prepared workload (both tables of an EM
/// task), so ids are comparable across sides.
#[derive(Debug, Clone, Default)]
pub struct TokenInterner {
    ids: HashMap<String, u32>,
    tokens: Vec<String>,
}

impl TokenInterner {
    /// Empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Id of `token`, interning it if new.
    pub fn intern(&mut self, token: &str) -> u32 {
        if let Some(&id) = self.ids.get(token) {
            return id;
        }
        let id = self.tokens.len() as u32;
        self.ids.insert(token.to_owned(), id);
        self.tokens.push(token.to_owned());
        id
    }

    /// Id of `token` if already interned.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.ids.get(token).copied()
    }

    /// The token string behind an id.
    pub fn resolve(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Number of distinct tokens interned.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Approximate resident bytes of the vocabulary: every token string
    /// is stored twice (map key + id table) plus fixed per-entry
    /// overheads. Deterministic — a pure function of the interned
    /// strings, never of capacity growth — so it is safe to publish as a
    /// pinned-export resource attribution.
    pub fn vocab_bytes(&self) -> usize {
        let text: usize = self.tokens.iter().map(String::len).sum();
        let per_entry =
            2 * std::mem::size_of::<String>() + std::mem::size_of::<u32>();
        2 * text + self.tokens.len() * per_entry
    }

    /// Intern a token bag into its **sorted, deduplicated** id set — the
    /// representation every `*_ids` kernel below consumes.
    pub fn intern_set<S: AsRef<str>>(&mut self, tokens: &[S]) -> Vec<u32> {
        let mut ids: Vec<u32> = tokens.iter().map(|t| self.intern(t.as_ref())).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// `|a ∩ b|` of two sorted deduplicated id slices (merge walk, no
/// hashing, no allocation).
///
/// This is the **scalar reference kernel**: the [`crate::kernels`] tier
/// answers the same question with branchless/galloping/bitset kernels
/// and is held bit-identical to this walk by the kernel-oracle harness.
/// The similarity measures below go through the adaptive tier
/// ([`crate::kernels::intersect_auto`]); this function stays the
/// preserved oracle.
pub fn intersect_size_sorted(a: &[u32], b: &[u32]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard `|A ∩ B| / |A ∪ B|` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::jaccard`] on the same token sets.
pub fn jaccard_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = crate::kernels::intersect_auto(a, b);
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Dice `2|A ∩ B| / (|A| + |B|)` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::dice`].
pub fn dice_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let inter = crate::kernels::intersect_auto(a, b);
    2.0 * inter as f64 / (a.len() + b.len()) as f64
}

/// Set cosine `|A ∩ B| / sqrt(|A|·|B|)` over sorted deduplicated id sets.
/// Bit-identical to [`crate::setsim::cosine`] (the denominator multiplies
/// the two lengths as `f64`s exactly like the string version).
pub fn cosine_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = crate::kernels::intersect_auto(a, b);
    inter as f64 / ((a.len() as f64) * (b.len() as f64)).sqrt()
}

/// Overlap coefficient `|A ∩ B| / min(|A|, |B|)` over sorted deduplicated
/// id sets. Bit-identical to [`crate::setsim::overlap_coefficient`].
pub fn overlap_coefficient_ids(a: &[u32], b: &[u32]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let inter = crate::kernels::intersect_auto(a, b);
    inter as f64 / a.len().min(b.len()) as f64
}

/// Raw overlap size `|A ∩ B|` over sorted deduplicated id sets.
pub fn overlap_size_ids(a: &[u32], b: &[u32]) -> usize {
    crate::kernels::intersect_auto(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setsim;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn interner_is_injective_and_stable() {
        let mut it = TokenInterner::new();
        let a = it.intern("alpha");
        let b = it.intern("beta");
        assert_ne!(a, b);
        assert_eq!(it.intern("alpha"), a);
        assert_eq!(it.resolve(a), "alpha");
        assert_eq!(it.get("beta"), Some(b));
        assert_eq!(it.get("gamma"), None);
        assert_eq!(it.len(), 2);
        assert!(!it.is_empty());
    }

    #[test]
    fn intern_set_sorts_and_dedupes() {
        let mut it = TokenInterner::new();
        let ids = it.intern_set(&toks("b a b c a"));
        assert_eq!(ids.len(), 3);
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn merge_intersection_matches_naive() {
        assert_eq!(intersect_size_sorted(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(intersect_size_sorted(&[], &[1]), 0);
        assert_eq!(intersect_size_sorted(&[4], &[4]), 1);
        assert_eq!(intersect_size_sorted(&[0, 1, 2], &[0, 1, 2]), 3);
    }

    /// The id kernels are bit-identical to the string measures on the
    /// same token sets, including duplicate-token and empty-set inputs.
    #[test]
    fn id_kernels_bit_identical_to_string_measures() {
        let cases = [
            ("a b c", "b c d"),
            ("a a a", "a b"),
            ("", "x y"),
            ("", ""),
            ("q w e r t y", "q"),
            ("z z", "z z"),
        ];
        for (x, y) in cases {
            let (tx, ty) = (toks(x), toks(y));
            let mut it = TokenInterner::new();
            let (ix, iy) = (it.intern_set(&tx), it.intern_set(&ty));
            assert!(crate::kernels::is_sorted_dedup(&ix));
            assert!(crate::kernels::is_sorted_dedup(&iy));
            assert_eq!(
                jaccard_ids(&ix, &iy).to_bits(),
                setsim::jaccard(&tx, &ty).to_bits(),
                "jaccard {x:?}/{y:?}"
            );
            assert_eq!(
                dice_ids(&ix, &iy).to_bits(),
                setsim::dice(&tx, &ty).to_bits(),
                "dice {x:?}/{y:?}"
            );
            assert_eq!(
                cosine_ids(&ix, &iy).to_bits(),
                setsim::cosine(&tx, &ty).to_bits(),
                "cosine {x:?}/{y:?}"
            );
            assert_eq!(
                overlap_coefficient_ids(&ix, &iy).to_bits(),
                setsim::overlap_coefficient(&tx, &ty).to_bits(),
                "overlap {x:?}/{y:?}"
            );
            assert_eq!(overlap_size_ids(&ix, &iy), setsim::overlap_size(&tx, &ty));
        }
    }

    /// Regression: an empty probe slice (every token OOV-clamped away
    /// upstream, e.g. a record whose tokens are all unseen during a
    /// prepared-cache probe) must hit the documented guards, not the
    /// kernels — jaccard/dice on `([], [])` is defined as 1.0, cosine and
    /// overlap-coefficient on a single empty side as 0.0, and the raw
    /// overlap size as 0, regardless of which kernel the adaptive tier
    /// would otherwise pick for the non-empty side's shape.
    #[test]
    fn empty_probe_slice_after_oov_clamp() {
        let dense: Vec<u32> = (0..256).collect(); // shape that selects the bitset kernel
        let empty: [u32; 0] = [];
        for other in [&dense[..], &empty[..]] {
            assert_eq!(overlap_size_ids(&empty, other), 0);
            assert_eq!(overlap_size_ids(other, &empty), 0);
        }
        assert_eq!(jaccard_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(dice_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(cosine_ids(&empty, &empty).to_bits(), 1.0f64.to_bits());
        assert_eq!(
            overlap_coefficient_ids(&empty, &empty).to_bits(),
            1.0f64.to_bits()
        );
        assert_eq!(jaccard_ids(&empty, &dense).to_bits(), 0.0f64.to_bits());
        assert_eq!(dice_ids(&dense, &empty).to_bits(), 0.0f64.to_bits());
        assert_eq!(cosine_ids(&empty, &dense).to_bits(), 0.0f64.to_bits());
        assert_eq!(
            overlap_coefficient_ids(&dense, &empty).to_bits(),
            0.0f64.to_bits()
        );
    }

    /// Regression: `intern_set` upholds the sorted-dedup invariant the
    /// kernel tier assumes, even for pathological bags (all-duplicate,
    /// reverse-insertion-order, single token), and the measures agree
    /// with the scalar reference on those sets.
    #[test]
    fn duplicate_free_invariant_feeds_kernels() {
        let mut it = TokenInterner::new();
        // Insertion order deliberately scrambles id order.
        for t in ["zeta", "alpha", "mu", "beta"] {
            it.intern(t);
        }
        let bags = [
            toks("zeta zeta zeta"),
            toks("beta alpha beta alpha"),
            toks("mu"),
            toks("alpha beta mu zeta alpha beta mu zeta"),
        ];
        let sets: Vec<Vec<u32>> = bags.iter().map(|b| it.intern_set(b)).collect();
        for s in &sets {
            assert!(crate::kernels::is_sorted_dedup(s), "invariant broken: {s:?}");
        }
        for x in &sets {
            for y in &sets {
                assert_eq!(
                    overlap_size_ids(x, y),
                    intersect_size_sorted(x, y),
                    "adaptive tier diverged from scalar oracle on {x:?} vs {y:?}"
                );
            }
        }
    }
}
