//! The SIMD-class intersection kernel tier.
//!
//! The feature-side set-overlap consumers — the `*_ids` similarity
//! measures in [`crate::intern`] and the prepared feature cache in
//! `magellan-features` — ultimately compute `|A ∩ B|` of two **sorted,
//! deduplicated** `u32` slices. (The sim-join verification stage in
//! `magellan-simjoin` runs its own bounded walk and shares only
//! [`GALLOP_RATIO`].) This module is the shared kernel layer below all of them:
//! several algorithmically different intersection kernels plus an
//! adaptive selector, all under one hard contract:
//!
//! > **Bit-identity.** Every kernel returns *exactly*
//! > [`intersect_scalar`]'s count on every pair of sorted deduplicated
//! > slices. Since each similarity measure is a pure arithmetic function
//! > of `(|A|, |B|, |A ∩ B|)`, identical counts make the resulting
//! > `f64`s bit-identical — the kernels are invisible to everything
//! > above them except the clock.
//!
//! The contract is enforced by the kernel-oracle harness
//! (`crates/textsim/tests/kernel_oracle.rs`): a grid of kernel ×
//! input-shape class × seed in which every kernel below registers, and
//! into which any future kernel must register too (see DESIGN.md §7.2).
//!
//! ## The kernels
//!
//! * [`intersect_scalar`] — the branchy merge walk preserved verbatim
//!   from the PR 3 interning layer: the oracle every other kernel is
//!   compared against.
//! * [`intersect_merge`] — branchless merge: the three-way `match` is
//!   replaced by unconditional `usize::from` advances, removing the
//!   unpredictable branch per element (the compare outcome on random
//!   id soup is a coin flip, so the branchy loop pays a misprediction
//!   every other element).
//! * [`intersect_gallop`] — exponential + binary search of each short-
//!   side element in the long side; O(|short|·log|long|) for heavily
//!   skewed size ratios where a merge would walk the long side.
//! * [`intersect_bitset`] — 64-bit bitmap intersection: both sets are
//!   rasterized into word-parallel bitmaps over their overlapping id
//!   span and combined with `AND` + `count_ones` (popcount) — 64
//!   set-membership tests per word op, the SWAR workhorse for short
//!   *dense* id ranges (q-gram vocabularies, rarest-first join ids).
//!
//! ## Adaptive selection
//!
//! [`intersect_auto`] picks by **size**, then **size ratio**, then
//! **density**: tiny operands (≤ [`SCALAR_MAX_LEN`] combined) stay on
//! the scalar reference where dispatch overhead isn't amortized, skew
//! ≥ [`GALLOP_RATIO`] gallops, dense overlapping spans (few words per
//! element) rasterize, everything else takes the branchless merge.
//! The choice only moves work between kernels that agree bit-for-bit,
//! so callers never observe it — but it is reported via
//! [`KernelCounters`] so joins can publish selection telemetry.
//!
//! A process-wide [`set_mode`] switch can pin everything back to the
//! scalar reference — benches use it to time the PR 5 path against the
//! kernel tier inside one process, and tests use it to prove the
//! dispatch layer itself is output-invisible.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// Size ratio at or beyond which [`intersect_auto`] gallops instead of
/// merging. Mirrors the verification-stage constant in
/// `magellan-simjoin` (the two tiers must agree so telemetry composes).
pub const GALLOP_RATIO: usize = 16;

/// Minimum smaller-set length before [`intersect_auto`] considers the
/// bitset kernel: rasterization has a fixed per-call cost (span zeroing)
/// that tiny sets never amortize.
pub const BITSET_MIN_LEN: usize = 24;

/// Densify only when the overlapping span needs at most this many 64-bit
/// words per element of the two sets combined (1 ⇒ average id gap ≤ 64).
pub const BITSET_MAX_WORDS_PER_ELEM: usize = 1;

/// Combined length at or below which [`select`] stays on the scalar
/// reference: dispatch and branchless bookkeeping are not amortized on
/// operands this small (typical word sets of a single attribute), and
/// the branchy merge predicts perfectly there.
///
/// Retuned 16 → 48 (PR 9): profile grids with 3–8-token attribute sets
/// produced combined lengths of 17–48 that were dispatched to the
/// merge/bitset kernels, whose fixed per-call cost loses to the plain
/// scalar walk at those sizes — the adaptive selector must never lose
/// to the pinned scalar reference.
pub const SCALAR_MAX_LEN: usize = 48;

/// Which kernel [`select`] chose for a given input shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Branchy scalar merge (reference; also the forced mode).
    Scalar,
    /// Branchless merge.
    Merge,
    /// Exponential + binary search of the short side in the long side.
    Gallop,
    /// 64-bit bitmap AND + popcount over the overlapping span.
    Bitset,
}

/// How often the adaptive selector picked each kernel. Deterministic:
/// the selection is a pure function of the input slice shapes, so the
/// counts are identical for any worker count or chunking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Calls answered by the branchless merge kernel.
    pub merge: usize,
    /// Calls answered by the galloping kernel.
    pub gallop: usize,
    /// Calls answered by the bitset/popcount kernel.
    pub bitset: usize,
}

impl KernelCounters {
    /// Record one selection.
    pub fn record(&mut self, k: Kernel) {
        match k {
            Kernel::Scalar | Kernel::Merge => self.merge += 1,
            Kernel::Gallop => self.gallop += 1,
            Kernel::Bitset => self.bitset += 1,
        }
    }

    /// Fold another counter set into this one.
    pub fn merge_from(&mut self, other: &KernelCounters) {
        self.merge += other.merge;
        self.gallop += other.gallop;
        self.bitset += other.bitset;
    }
}

/// Process-wide kernel mode: `0` = adaptive (default), `1` = scalar
/// reference pinned. Relaxed ordering is fine — the mode only moves
/// work between bit-identical kernels.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Kernel dispatch mode for [`intersect_auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Pick bitset/gallop/merge adaptively (the default).
    #[default]
    Adaptive,
    /// Answer everything with the scalar reference merge. For benches
    /// (timing the pre-kernel path in-process) and dispatch tests.
    ScalarReference,
}

/// Set the process-wide kernel mode. Output never changes — only which
/// bit-identical kernel does the work.
pub fn set_mode(mode: KernelMode) {
    MODE.store(
        match mode {
            KernelMode::Adaptive => 0,
            KernelMode::ScalarReference => 1,
        },
        Ordering::Relaxed,
    );
}

/// The current process-wide kernel mode.
pub fn mode() -> KernelMode {
    if MODE.load(Ordering::Relaxed) == 1 {
        KernelMode::ScalarReference
    } else {
        KernelMode::Adaptive
    }
}

/// True when `s` is sorted ascending with no duplicates — the input
/// invariant of every kernel here.
pub fn is_sorted_dedup(s: &[u32]) -> bool {
    s.windows(2).all(|w| w[0] < w[1])
}

/// `|a ∩ b|` by the branchy scalar merge — the preserved reference
/// kernel every other kernel must match bit-for-bit. Byte-identical
/// logic to the PR 3 `intern::intersect_size_sorted` walk.
pub fn intersect_scalar(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(is_sorted_dedup(a) && is_sorted_dedup(b));
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

/// `|a ∩ b|` by branchless merge: both cursors advance by the boolean
/// compare outcomes, so the loop body has no data-dependent branch to
/// mispredict.
pub fn intersect_merge(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(is_sorted_dedup(a) && is_sorted_dedup(b));
    let (la, lb) = (a.len(), b.len());
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < la && j < lb {
        let x = a[i];
        let y = b[j];
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// `|a ∩ b|` by galloping: each element of the shorter slice is located
/// in the longer by exponential search + `partition_point`. Wins when
/// one side is ≥ [`GALLOP_RATIO`]× the other.
pub fn intersect_gallop(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(is_sorted_dedup(a) && is_sorted_dedup(b));
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut n = 0;
    let mut base = 0usize;
    for &t in short {
        if base >= long.len() {
            break;
        }
        let tail = &long[base..];
        let mut hi = 1usize;
        while hi < tail.len() && tail[hi - 1] < t {
            hi <<= 1;
        }
        let lo = (hi >> 1).min(tail.len());
        let hi = hi.min(tail.len());
        base += lo + tail[lo..hi].partition_point(|&v| v < t);
        if base < long.len() && long[base] == t {
            n += 1;
            base += 1;
        }
    }
    n
}

thread_local! {
    /// Reusable rasterization scratch for [`intersect_bitset`]: two
    /// word buffers, grown monotonically, zeroed per call only over the
    /// span actually used.
    static BITSET_SCRATCH: RefCell<(Vec<u64>, Vec<u64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// `|a ∩ b|` by 64-bit bitmap intersection: both sets are rasterized
/// over their overlapping id span and combined word-by-word with
/// `AND` + `count_ones` — 64 membership tests per word operation.
///
/// Only ids inside `[max(a₀, b₀), min(a_last, b_last)]` can intersect,
/// so out-of-span elements are clipped by binary search before any bit
/// is set. Exact for every input; [`intersect_auto`] merely restricts
/// *when* it is chosen to shapes where it is also fast.
pub fn intersect_bitset(a: &[u32], b: &[u32]) -> usize {
    debug_assert!(is_sorted_dedup(a) && is_sorted_dedup(b));
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let lo = a[0].max(b[0]);
    let hi = a[a.len() - 1].min(b[b.len() - 1]);
    if lo > hi {
        return 0;
    }
    let words = ((hi - lo) / 64 + 1) as usize;
    BITSET_SCRATCH.with(|scratch| {
        let (wa, wb) = &mut *scratch.borrow_mut();
        wa.clear();
        wa.resize(words, 0);
        wb.clear();
        wb.resize(words, 0);
        let rasterize = |s: &[u32], w: &mut [u64]| {
            let from = s.partition_point(|&v| v < lo);
            let to = s.partition_point(|&v| v <= hi);
            for &v in &s[from..to] {
                let off = v - lo;
                w[(off / 64) as usize] |= 1u64 << (off % 64);
            }
        };
        rasterize(a, wa);
        rasterize(b, wb);
        wa.iter()
            .zip(wb.iter())
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    })
}

/// Pick a kernel for the given input shape: tiny operands first (the
/// scalar reference — the common case for word sets of one attribute,
/// checked before anything else so the hot path is one add + compare),
/// then size ratio (gallop), then density (bitset), otherwise the
/// branchless merge. Pure in the slice *shapes* (lengths and end
/// values), so selections — and the [`KernelCounters`] built from them
/// — are deterministic.
pub fn select(a: &[u32], b: &[u32]) -> Kernel {
    if mode() == KernelMode::ScalarReference {
        return Kernel::Scalar;
    }
    let (la, lb) = (a.len(), b.len());
    if la == 0 || lb == 0 {
        return Kernel::Merge; // trivial; counted as a merge answer
    }
    if la + lb <= SCALAR_MAX_LEN {
        return Kernel::Scalar;
    }
    if la >= GALLOP_RATIO.saturating_mul(lb) || lb >= GALLOP_RATIO.saturating_mul(la) {
        return Kernel::Gallop;
    }
    let min_len = la.min(lb);
    if min_len >= BITSET_MIN_LEN {
        let lo = a[0].max(b[0]);
        let hi = a[la - 1].min(b[lb - 1]);
        if lo <= hi {
            let words = ((hi - lo) / 64 + 1) as usize;
            if words <= BITSET_MAX_WORDS_PER_ELEM * (la + lb) {
                return Kernel::Bitset;
            }
        }
    }
    Kernel::Merge
}

/// `|a ∩ b|` through the adaptive selector. Bit-identical to
/// [`intersect_scalar`] on every input, per the kernel contract.
pub fn intersect_auto(a: &[u32], b: &[u32]) -> usize {
    dispatch(select(a, b), a, b)
}

/// [`intersect_auto`] that also records which kernel answered.
pub fn intersect_auto_counted(a: &[u32], b: &[u32], counters: &mut KernelCounters) -> usize {
    let k = select(a, b);
    counters.record(k);
    dispatch(k, a, b)
}

/// Run a specific kernel (the oracle harness drives every kernel
/// through this same entry the production dispatch uses).
pub fn dispatch(kernel: Kernel, a: &[u32], b: &[u32]) -> usize {
    match kernel {
        Kernel::Scalar => intersect_scalar(a, b),
        Kernel::Merge => intersect_merge(a, b),
        Kernel::Gallop => intersect_gallop(a, b),
        Kernel::Bitset => intersect_bitset(a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests that set or observe the process-wide mode serialize here so
    /// the harness's test threads can't interleave mode flips.
    static MODE_LOCK: Mutex<()> = Mutex::new(());

    const ALL: [Kernel; 4] = [Kernel::Scalar, Kernel::Merge, Kernel::Gallop, Kernel::Bitset];

    fn check_all(a: &[u32], b: &[u32]) {
        let want = intersect_scalar(a, b);
        for k in ALL {
            assert_eq!(dispatch(k, a, b), want, "{k:?} on {a:?} / {b:?}");
            assert_eq!(dispatch(k, b, a), want, "{k:?} swapped on {a:?} / {b:?}");
        }
        assert_eq!(intersect_auto(a, b), want);
    }

    /// Regression: every kernel on every zero-length shape — the join's
    /// OOV clamp hands kernels genuinely empty probe slices.
    #[test]
    fn empty_inputs_are_zero_for_every_kernel() {
        check_all(&[], &[]);
        check_all(&[], &[1, 2, 3]);
        check_all(&[7], &[]);
    }

    #[test]
    fn singletons_and_full_overlap() {
        check_all(&[5], &[5]);
        check_all(&[5], &[6]);
        check_all(&[1, 2, 3, 4], &[1, 2, 3, 4]);
    }

    #[test]
    fn disjoint_and_interleaved() {
        check_all(&[0, 2, 4, 6], &[1, 3, 5, 7]);
        check_all(&[0, 1, 2], &[100, 200, 300]);
        check_all(&[1, 3, 5, 7, 9], &[3, 4, 5, 6, 7]);
    }

    #[test]
    fn skewed_shapes_hit_the_gallop_kernel() {
        let _g = MODE_LOCK.lock().unwrap();
        let long: Vec<u32> = (0..2000).map(|i| i * 3).collect();
        let short = [3, 9, 100, 3000, 5997];
        assert_eq!(select(&short, &long), Kernel::Gallop);
        check_all(&short, &long);
    }

    #[test]
    fn dense_shapes_hit_the_bitset_kernel() {
        let _g = MODE_LOCK.lock().unwrap();
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (50..250).collect();
        assert_eq!(select(&a, &b), Kernel::Bitset);
        check_all(&a, &b);
        // Span ends far apart but overlap-dense interiors still clip.
        let c: Vec<u32> = (0..64).chain(std::iter::once(4_000_000)).collect();
        check_all(&a, &c);
    }

    #[test]
    fn sparse_shapes_fall_back_to_merge() {
        let _g = MODE_LOCK.lock().unwrap();
        let a: Vec<u32> = (0..40).map(|i| i * 10_000).collect();
        let b: Vec<u32> = (0..40).map(|i| i * 10_000 + 5_000).collect();
        assert_eq!(select(&a, &b), Kernel::Merge);
        check_all(&a, &b);
    }

    #[test]
    fn scalar_mode_pins_the_reference() {
        let _g = MODE_LOCK.lock().unwrap();
        let a: Vec<u32> = (0..200).collect();
        let b: Vec<u32> = (100..300).collect();
        set_mode(KernelMode::ScalarReference);
        assert_eq!(select(&a, &b), Kernel::Scalar);
        assert_eq!(intersect_auto(&a, &b), 100);
        set_mode(KernelMode::Adaptive);
        assert_eq!(select(&a, &b), Kernel::Bitset);
        assert_eq!(intersect_auto(&a, &b), 100);
    }

    #[test]
    fn counters_attribute_selections() {
        let _g = MODE_LOCK.lock().unwrap();
        let mut c = KernelCounters::default();
        let dense: Vec<u32> = (0..100).collect();
        let long: Vec<u32> = (0..2000).collect();
        intersect_auto_counted(&[1, 2], &[2, 3], &mut c);
        intersect_auto_counted(&[1], &long, &mut c);
        intersect_auto_counted(&dense, &dense, &mut c);
        assert_eq!((c.merge, c.gallop, c.bitset), (1, 1, 1));
        let mut total = KernelCounters::default();
        total.merge_from(&c);
        total.merge_from(&c);
        assert_eq!((total.merge, total.gallop, total.bitset), (2, 2, 2));
    }

    #[test]
    fn u32_range_extremes_do_not_overflow() {
        // Dense ids hugging u32::MAX: span arithmetic must not wrap.
        let a: Vec<u32> = (u32::MAX - 200..=u32::MAX).collect();
        let b: Vec<u32> = (u32::MAX - 100..=u32::MAX).collect();
        check_all(&a, &b);
        check_all(&[0, u32::MAX], &[u32::MAX]);
    }
}
