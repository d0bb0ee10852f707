//! Sequence-based string similarity measures.
//!
//! All `*_sim` functions return values in `[0, 1]` with 1 meaning identical;
//! raw scores (edit distances, alignment scores) are exposed separately
//! where the raw value is meaningful to feature generators.
//!
//! Levenshtein and Jaro run on allocation-free bit-parallel kernels
//! (DESIGN.md §7.2): Myers's bit-vector edit distance with Hyyrö's block
//! carry, and a Jaro match window over a bitmask of used positions. Both
//! return exactly what the textbook dynamic programs return — the same
//! integer distance, the same match count and transpositions, the same
//! `f64` expression — and those programs live on as the test oracle in
//! `tests/kernel_oracle.rs`. ASCII input is read as bytes; anything else
//! is decoded to `char`s in per-thread scratch.

use std::cell::RefCell;

thread_local! {
    /// Decoded `char`s of non-ASCII input (`a`, `b`, and the sorted
    /// distinct `char`s of the string a `Peq` table is built over).
    static CHARS: RefCell<[Vec<char>; 3]> =
        const { RefCell::new([Vec::new(), Vec::new(), Vec::new()]) };
    /// The `Peq` table (see [`with_peq`]); all zero between calls, so a
    /// call pays for the bits it sets, not for clearing 128 rows.
    static PEQ: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Kernel words past the stack buffers: Levenshtein state for
    /// patterns over 64 characters, Jaro masks past 128 characters a side.
    static WORDS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` over `n` zeroed words: on the stack when `n ≤ N`, else in the
/// per-thread scratch.
fn with_words<const N: usize, R>(n: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    if n <= N {
        f(&mut [0u64; N][..n])
    } else {
        WORDS.with(|w| {
            let mut w = w.borrow_mut();
            w.clear();
            w.resize(n, 0);
            f(&mut w)
        })
    }
}

/// Run `f` over `a` and `b` decoded to `char`s, plus the buffer for
/// [`char_rows`]'s keys.
fn with_chars<R>(a: &str, b: &str, f: impl FnOnce(&[char], &[char], &mut Vec<char>) -> R) -> R {
    CHARS.with(|c| {
        let mut c = c.borrow_mut();
        let [ca, cb, keys] = &mut *c;
        ca.clear();
        ca.extend(a.chars());
        cb.clear();
        cb.extend(b.chars());
        f(ca, cb, keys)
    })
}

/// Largest `Peq` table a thread keeps between calls (256 KiB); a larger
/// one, built for a long non-ASCII pattern, is freed after its call.
const PEQ_KEEP_WORDS: usize = 1 << 15;

/// Run `f` over the `Peq` table of `p` (Myers's "pattern match
/// vectors"): row `row(c)`, `⌈|p|/64⌉` words wide, has bit `i` set for
/// every `p[i] == c`. `rows` bounds `row`; rows `p` never names stay
/// zero. The table is the per-thread one, and only the words `p` set are
/// cleared after `f`.
fn with_peq<T: Copy, R>(
    p: &[T],
    rows: usize,
    row: impl Fn(T) -> usize,
    f: impl FnOnce(&[u64]) -> R,
) -> R {
    let words = p.len().div_ceil(64);
    PEQ.with(|t| {
        let mut t = t.borrow_mut();
        if t.len() < rows * words {
            t.resize(rows * words, 0);
        }
        for (i, &c) in p.iter().enumerate() {
            t[row(c) * words + i / 64] |= 1 << (i % 64);
        }
        let r = f(&t);
        if t.len() > PEQ_KEEP_WORDS {
            *t = Vec::new();
        } else {
            for (i, &c) in p.iter().enumerate() {
                t[row(c) * words + i / 64] = 0;
            }
        }
        r
    })
}

/// `Peq` rows for decoded `char`s: one per distinct `char` of `p`
/// (sorted into `keys`, found by binary search), and row 0 for every
/// `char` `p` lacks.
fn char_rows<'k>(p: &[char], keys: &'k mut Vec<char>) -> (usize, impl Fn(char) -> usize + 'k) {
    keys.clear();
    keys.extend_from_slice(p);
    keys.sort_unstable();
    keys.dedup();
    let keys = &*keys;
    (keys.len() + 1, move |c| {
        keys.binary_search(&c).map_or(0, |k| k + 1)
    })
}

/// Shorter side first: it becomes the bit-vector pattern.
fn pattern_text<'s, T>(a: &'s [T], b: &'s [T]) -> (&'s [T], &'s [T]) {
    if a.len() <= b.len() {
        (a, b)
    } else {
        (b, a)
    }
}

/// Edit distance and both lengths in `char`s, from one decode.
fn levenshtein_counts(a: &str, b: &str) -> (usize, usize, usize) {
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        let (p, t) = pattern_text(a, b);
        (levenshtein_kernel(p, t, 128, usize::from), a.len(), b.len())
    } else {
        with_chars(a, b, |a, b, keys| {
            let (p, t) = pattern_text(a, b);
            let (rows, row) = char_rows(p, keys);
            (levenshtein_kernel(p, t, rows, row), a.len(), b.len())
        })
    }
}

/// Myers's bit-vector edit distance (JACM 1999) with Hyyrö's block carry
/// (2003), pattern `p` no longer than text `t`. Each text symbol is one
/// column: `⌈m/64⌉` words of vertical deltas advanced through the
/// pattern's `Peq` row for that symbol, the horizontal delta leaving
/// each word carried into the next. One column costs `O(⌈m/64⌉)` word
/// operations and the result is the exact `D[m][n]` of the unit-cost DP.
fn levenshtein_kernel<T: Copy>(p: &[T], t: &[T], rows: usize, row: impl Fn(T) -> usize) -> usize {
    let m = p.len();
    if m == 0 {
        return t.len();
    }
    let blocks = m.div_ceil(64);
    // Row m sits at this bit of the last block; the padding bits above it
    // never reach it (carries and shifts only move upward).
    let last = 1u64 << ((m - 1) % 64);
    with_peq(p, rows, &row, |peq| {
        // One block's state fits on the stack.
        with_words::<2, _>(2 * blocks, |state| {
            let (vp, vn) = state.split_at_mut(blocks);
            // D[i][0] = i: every vertical delta starts at +1.
            vp.fill(!0);
            let mut dist = m;
            for &c in t {
                let eq_row = &peq[row(c) * blocks..][..blocks];
                // D[0][j] = j: the horizontal delta entering block 0 is +1.
                let (mut hp, mut hn) = (1u64, 0u64);
                let (mut ph, mut mh) = (0u64, 0u64);
                for ((pv, mv), &eq) in vp.iter_mut().zip(vn.iter_mut()).zip(eq_row) {
                    let xv = eq | *mv;
                    let eq = eq | hn;
                    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
                    ph = *mv | !(xh | *pv);
                    mh = *pv & xh;
                    let ph_in = (ph << 1) | hp;
                    let mh_in = (mh << 1) | hn;
                    hp = ph >> 63;
                    hn = mh >> 63;
                    *pv = mh_in | !(xv | ph_in);
                    *mv = ph_in & xv;
                }
                // The last block's horizontal delta at row m moves D[m][j].
                dist += usize::from(ph & last != 0);
                dist -= usize::from(mh & last != 0);
            }
            dist
        })
    })
}

/// Levenshtein (edit) distance with unit costs, in `O(⌈m/64⌉·n)` word
/// operations for `m ≤ n` the two lengths in `char`s.
pub fn levenshtein(a: &str, b: &str) -> usize {
    levenshtein_counts(a, b).0
}

/// Normalized Levenshtein similarity: `1 - dist / max_len`; 1.0 for two
/// empty strings.
pub fn levenshtein_sim(a: &str, b: &str) -> f64 {
    let (dist, la, lb) = levenshtein_counts(a, b);
    let max_len = la.max(lb);
    if max_len == 0 {
        return 1.0;
    }
    1.0 - dist as f64 / max_len as f64
}

/// Iterate the set bit positions of a multi-word mask, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &x)| {
        std::iter::successors(Some(x).filter(|&x| x != 0), |&x| {
            Some(x & (x - 1)).filter(|&y| y != 0)
        })
        .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// Jaro over symbol slices. Each `a[i]` takes the first unused equal
/// `b[j]` inside the window — the textbook greedy order — found by
/// walking the free bits of the window in the `b_used` mask. Matched `a`
/// positions go into `a_hit`, and the transpositions pair the k-th set
/// bit of one mask with the k-th of the other.
fn jaro_kernel<T: Copy + Eq>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let wa = a.len().div_ceil(64);
    // Both masks fit on the stack up to 128 characters a side.
    with_words::<4, _>(wa + b.len().div_ceil(64), |w| {
        let (a_hit, b_used) = w.split_at_mut(wa);
        let mut m = 0usize;
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            if lo >= hi {
                // `lo` only grows with `i`: no later window reaches `b`.
                break;
            }
            let first = lo / 64;
            'window: for (word, used) in (first..).zip(&mut b_used[first..=(hi - 1) / 64]) {
                let base = word * 64;
                let (from, to) = (lo.max(base) - base, hi.min(base + 64) - base);
                let mut free = !*used & ((u64::MAX >> (64 - (to - from))) << from);
                while free != 0 {
                    let bit = free.trailing_zeros() as usize;
                    if b[base + bit] == ca {
                        *used |= 1 << bit;
                        a_hit[i / 64] |= 1 << (i % 64);
                        m += 1;
                        break 'window;
                    }
                    free &= free - 1;
                }
            }
        }
        if m == 0 {
            return 0.0;
        }
        let transpositions = set_bits(a_hit)
            .zip(set_bits(b_used))
            .filter(|&(i, j)| a[i] != b[j])
            .count()
            / 2;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
    })
}

/// Jaro similarity and Winkler's common prefix (capped at 4), from one
/// decode.
fn jaro_prefix(a: &str, b: &str) -> (f64, usize) {
    fn prefix<T: Eq>(a: &[T], b: &[T]) -> usize {
        a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count()
    }
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = (a.as_bytes(), b.as_bytes());
        (jaro_kernel(a, b), prefix(a, b))
    } else {
        with_chars(a, b, |a, b, _| (jaro_kernel(a, b), prefix(a, b)))
    }
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    jaro_prefix(a, b).0
}

/// Jaro–Winkler similarity with the standard prefix scale `p = 0.1` and a
/// maximum common-prefix credit of 4 characters.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1)
}

/// Jaro–Winkler with an explicit prefix scale (must be ≤ 0.25 to keep the
/// result in `[0, 1]`).
pub fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64) -> f64 {
    debug_assert!((0.0..=0.25).contains(&prefix_scale));
    let (j, prefix) = jaro_prefix(a, b);
    j + prefix as f64 * prefix_scale * (1.0 - j)
}

/// Hamming distance; `None` when the strings differ in length.
pub fn hamming(a: &str, b: &str) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    (a.len() == b.len()).then(|| a.iter().zip(&b).filter(|(x, y)| x != y).count())
}

/// Normalized Hamming similarity; `None` when lengths differ, 1.0 for two
/// empty strings.
pub fn hamming_sim(a: &str, b: &str) -> Option<f64> {
    let n = a.chars().count();
    let d = hamming(a, b)?;
    Some(if n == 0 { 1.0 } else { 1.0 - d as f64 / n as f64 })
}

/// Needleman–Wunsch global alignment score with match = +1,
/// mismatch = 0, gap = −1 (the `py_stringmatching` defaults;
/// [`needleman_wunsch_with`] exposes the knobs).
pub fn needleman_wunsch(a: &str, b: &str) -> f64 {
    needleman_wunsch_with(a, b, 1.0, 0.0, -1.0)
}

/// Needleman–Wunsch with explicit scores.
pub fn needleman_wunsch_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_cost: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<f64> = (0..=b.len()).map(|j| j as f64 * gap_cost).collect();
    let mut cur = vec![0.0f64; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = (i + 1) as f64 * gap_cost;
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { match_score } else { mismatch_score };
            cur[j + 1] = diag.max(prev[j + 1] + gap_cost).max(cur[j] + gap_cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Smith–Waterman local alignment score (match +1, mismatch −1, gap −1 by
/// default; never negative).
pub fn smith_waterman(a: &str, b: &str) -> f64 {
    smith_waterman_with(a, b, 1.0, -1.0, -1.0)
}

/// Smith–Waterman with explicit scores.
pub fn smith_waterman_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_cost: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev = vec![0.0f64; b.len() + 1];
    let mut cur = vec![0.0f64; b.len() + 1];
    let mut best = 0.0f64;
    for ca in &a {
        for (j, cb) in b.iter().enumerate() {
            let diag = prev[j] + if ca == cb { match_score } else { mismatch_score };
            let v = diag.max(prev[j + 1] + gap_cost).max(cur[j] + gap_cost).max(0.0);
            cur[j + 1] = v;
            best = best.max(v);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    best
}

/// Affine-gap global alignment score (Gotoh): gap open / gap extend are
/// charged separately so one long gap is cheaper than many short gaps.
/// Defaults: match +1, mismatch −1, open −1, extend −0.5.
pub fn affine_gap(a: &str, b: &str) -> f64 {
    affine_gap_with(a, b, 1.0, -1.0, -1.0, -0.5)
}

/// Affine-gap alignment with explicit scores.
pub fn affine_gap_with(
    a: &str,
    b: &str,
    match_score: f64,
    mismatch_score: f64,
    gap_open: f64,
    gap_extend: f64,
) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let neg = f64::NEG_INFINITY;
    let n = b.len();
    // M = align, X = gap in b (consume a), Y = gap in a (consume b).
    let mut m_prev = vec![neg; n + 1];
    let mut x_prev = vec![neg; n + 1];
    let mut y_prev = vec![neg; n + 1];
    m_prev[0] = 0.0;
    for (j, y) in y_prev.iter_mut().enumerate().skip(1) {
        *y = gap_open + (j - 1) as f64 * gap_extend;
    }
    let mut m_cur = vec![neg; n + 1];
    let mut x_cur = vec![neg; n + 1];
    let mut y_cur = vec![neg; n + 1];
    for (i, ca) in a.iter().enumerate() {
        m_cur[0] = neg;
        y_cur[0] = neg;
        x_cur[0] = gap_open + i as f64 * gap_extend;
        for (j, cb) in b.iter().enumerate() {
            let s = if ca == cb { match_score } else { mismatch_score };
            m_cur[j + 1] = s + m_prev[j].max(x_prev[j]).max(y_prev[j]);
            x_cur[j + 1] = (m_prev[j + 1] + gap_open).max(x_prev[j + 1] + gap_extend);
            y_cur[j + 1] = (m_cur[j] + gap_open).max(y_cur[j] + gap_extend);
        }
        std::mem::swap(&mut m_prev, &mut m_cur);
        std::mem::swap(&mut x_prev, &mut x_cur);
        std::mem::swap(&mut y_prev, &mut y_cur);
    }
    let best = m_prev[n].max(x_prev[n]).max(y_prev[n]);
    if best == neg {
        0.0 // both strings empty
    } else {
        best
    }
}

/// Length of the longest common prefix.
pub fn common_prefix_len(a: &str, b: &str) -> usize {
    a.chars().zip(b.chars()).take_while(|(x, y)| x == y).count()
}

/// Exact-match similarity: 1.0 iff equal.
pub fn exact_match(a: &str, b: &str) -> f64 {
    f64::from(a == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_known_values() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn levenshtein_sim_bounds() {
        assert_eq!(levenshtein_sim("", ""), 1.0);
        assert_eq!(levenshtein_sim("abc", "abc"), 1.0);
        assert_eq!(levenshtein_sim("abc", "xyz"), 0.0);
        let s = levenshtein_sim("kitten", "sitting");
        assert!((s - (1.0 - 3.0 / 7.0)).abs() < 1e-12);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook pairs.
        assert!((jaro("MARTHA", "MARHTA") - 0.944_444_444).abs() < 1e-6);
        assert!((jaro("DIXON", "DICKSONX") - 0.766_666_666).abs() < 1e-6);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro_winkler("MARTHA", "MARHTA") - 0.961_111_111).abs() < 1e-6);
        assert!((jaro_winkler("DWAYNE", "DUANE") - 0.84).abs() < 1e-6);
        // Prefix credit never pushes above 1.
        assert_eq!(jaro_winkler("same", "same"), 1.0);
    }

    #[test]
    fn hamming_requires_equal_length() {
        assert_eq!(hamming("karolin", "kathrin"), Some(3));
        assert_eq!(hamming("abc", "ab"), None);
        assert_eq!(hamming_sim("", ""), Some(1.0));
        assert_eq!(hamming_sim("ab", "ab"), Some(1.0));
    }

    #[test]
    fn needleman_wunsch_known_values() {
        // Identical strings score match * len with default scores.
        assert_eq!(needleman_wunsch("dva", "dva"), 3.0);
        // One deletion costs one gap.
        assert_eq!(needleman_wunsch_with("abc", "ac", 1.0, 0.0, -1.0), 1.0);
        assert_eq!(needleman_wunsch("", ""), 0.0);
        assert_eq!(needleman_wunsch("ab", ""), -2.0);
    }

    #[test]
    fn smith_waterman_is_local_and_nonnegative() {
        // Shared substring "ello" scores 4 despite different contexts.
        assert_eq!(smith_waterman("hello", "yellow"), 4.0); // "ello"
        assert_eq!(smith_waterman("abc", "xyz"), 0.0);
        assert_eq!(smith_waterman("", "abc"), 0.0);
    }

    #[test]
    fn affine_gap_prefers_one_long_gap() {
        // "abcdefg" vs "abcg": one 3-gap = open + 2*extend = -2.0; 4 matches = +4.
        let s = affine_gap("abcdefg", "abcg");
        assert!((s - 2.0).abs() < 1e-12);
        // Same edits as separate gaps would be cheaper under linear cost only.
        assert_eq!(affine_gap("", ""), 0.0);
        let only_gaps = affine_gap("abc", "");
        assert!((only_gaps - (-1.0 - 2.0 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn prefix_and_exact() {
        assert_eq!(common_prefix_len("data", "database"), 4);
        assert_eq!(common_prefix_len("x", "y"), 0);
        assert_eq!(exact_match("a", "a"), 1.0);
        assert_eq!(exact_match("a", "b"), 0.0);
    }
}
