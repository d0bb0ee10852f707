//! The kernel-oracle harness: the enforcement arm of the kernel tier's
//! bit-identity contract (DESIGN.md §7.2).
//!
//! Two grids. The **intersection grid** — kernel × input-shape class ×
//! seed × worker count — checks every intersection kernel against the
//! preserved scalar reference ([`kernels::intersect_scalar`],
//! byte-identical to the original `intern::intersect_size_sorted` walk) and
//! checks **exact-`f64` equality** of all four similarity measures built
//! on the counts. The **character grid** — string-shape class × seed ×
//! worker count — checks the bit-parallel Levenshtein and Jaro kernels
//! behind `seqsim` (and Monge–Elkan and soft TF-IDF on top of them)
//! against the textbook dynamic programs kept verbatim below.
//!
//! ## Registering a kernel
//!
//! Add the variant to [`kernels::Kernel`], route it in
//! [`kernels::dispatch`], and it is in the grid: `REGISTRY` enumerates
//! `Kernel` exhaustively, so a new variant that skips `dispatch` fails
//! to compile and one that diverges from the scalar count fails here on
//! the first adversarial shape.
//!
//! ## Seeds and workers
//!
//! The CI `kernel-oracle` job sets `KERNEL_ORACLE_SEEDS=4` (default 2);
//! each seed redraws every randomized shape class. The worker axis runs
//! the identical pair set on 1/2/4/8 threads — this is what proves the
//! bitset kernel's thread-local rasterization scratch, and the character
//! kernels' thread-local decode and `Peq` scratch, never leak state
//! across calls or threads.

use magellan_textsim::intern;
use magellan_textsim::kernels::{self, Kernel, KernelMode};
use magellan_textsim::{seqsim, setsim, TfIdfModel};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Every kernel under contract. Exhaustive over [`Kernel`] — extend this
/// array when registering a new kernel (the match below won't let you
/// forget the dispatch route).
const REGISTRY: [Kernel; 4] = [Kernel::Scalar, Kernel::Merge, Kernel::Gallop, Kernel::Bitset];

/// The adversarial input-shape classes from the issue grid. Each class
/// draws a *pair* of sorted deduplicated id sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// One or both sides empty (OOV-clamped probe slices).
    Empty,
    /// Single-element sides, hit and miss.
    Singleton,
    /// `a == b` (every element intersects).
    FullOverlap,
    /// Value ranges that never touch.
    Disjoint,
    /// ≥16× length skew (the gallop trigger) with sparse overlap.
    Skew16x,
    /// Dense runs hugging the top of the `u32` range (span arithmetic
    /// overflow bait for the bitset kernel).
    DenseU32Range,
    /// Unconstrained sparse soup (the merge default).
    SparseRandom,
}

const SHAPES: [Shape; 7] = [
    Shape::Empty,
    Shape::Singleton,
    Shape::FullOverlap,
    Shape::Disjoint,
    Shape::Skew16x,
    Shape::DenseU32Range,
    Shape::SparseRandom,
];

/// Cases drawn per (shape, seed) cell.
const CASES_PER_CELL: usize = 48;

/// Oracle seeds: `KERNEL_ORACLE_SEEDS` (count, CI sets 4) or 2.
fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("KERNEL_ORACLE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    (0..n.max(1)).map(|i| 0x6b65726e + 101 * i).collect()
}

fn sorted_dedup(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v.dedup();
    v
}

/// Draw one id-set pair of the given shape class.
fn draw_pair(shape: Shape, rng: &mut TestRng) -> (Vec<u32>, Vec<u32>) {
    match shape {
        Shape::Empty => {
            let other = sorted_dedup((0..rng.below(20)).map(|_| rng.below(1000) as u32).collect());
            if rng.below(2) == 0 {
                (Vec::new(), other)
            } else {
                (other, Vec::new())
            }
        }
        Shape::Singleton => {
            let x = rng.below(1 << 20) as u32;
            let y = if rng.below(2) == 0 { x } else { x.wrapping_add(1 + rng.below(100) as u32) };
            (vec![x], vec![y])
        }
        Shape::FullOverlap => {
            let a = sorted_dedup(
                (0..1 + rng.below(300)).map(|_| rng.below(1 << 16) as u32).collect(),
            );
            (a.clone(), a)
        }
        Shape::Disjoint => {
            let split = 1_000_000 + rng.below(1 << 20) as u32;
            let a = sorted_dedup((0..1 + rng.below(200)).map(|_| rng.below(split as u64) as u32).collect());
            let b = sorted_dedup(
                (0..1 + rng.below(200)).map(|_| split + rng.below(1 << 20) as u32).collect(),
            );
            (a, b)
        }
        Shape::Skew16x => {
            let long = sorted_dedup((0..800 + rng.below(800)).map(|_| rng.below(1 << 18) as u32).collect());
            let short_len = 1 + rng.below((long.len() / 16).max(1) as u64) as usize;
            // Half the probes sampled from the long side (hits), half random.
            let short = sorted_dedup(
                (0..short_len)
                    .map(|i| {
                        if i % 2 == 0 {
                            long[rng.below(long.len() as u64) as usize]
                        } else {
                            rng.below(1 << 18) as u32
                        }
                    })
                    .collect(),
            );
            (short, long)
        }
        Shape::DenseU32Range => {
            let len_a = 32 + rng.below(256) as u32;
            let len_b = 32 + rng.below(256) as u32;
            let start_a = u32::MAX - len_a - rng.below(64) as u32;
            let start_b = u32::MAX - len_b - rng.below(64) as u32;
            let a: Vec<u32> = (start_a..start_a + len_a).collect();
            let b: Vec<u32> = (start_b..start_b + len_b).collect();
            (a, b)
        }
        Shape::SparseRandom => {
            let a = sorted_dedup(
                (0..rng.below(400)).map(|_| (rng.below(1 << 24)) as u32).collect(),
            );
            let b = sorted_dedup(
                (0..rng.below(400)).map(|_| (rng.below(1 << 24)) as u32).collect(),
            );
            (a, b)
        }
    }
}

/// The four similarity measures as pure functions of
/// `(|A|, |B|, |A ∩ B|)`, arithmetic mirrored expression-for-expression
/// from `intern::*_ids` — the expected values the measures must hit
/// bit-for-bit when fed each kernel's count.
fn measures(la: usize, lb: usize, inter: usize) -> [f64; 4] {
    let jaccard = if la == 0 && lb == 0 {
        1.0
    } else {
        inter as f64 / (la + lb - inter) as f64
    };
    let dice = if la == 0 && lb == 0 {
        1.0
    } else {
        2.0 * inter as f64 / (la + lb) as f64
    };
    let cosine = if la == 0 && lb == 0 {
        1.0
    } else if la == 0 || lb == 0 {
        0.0
    } else {
        inter as f64 / ((la as f64) * (lb as f64)).sqrt()
    };
    let overlap = if la == 0 && lb == 0 {
        1.0
    } else if la == 0 || lb == 0 {
        0.0
    } else {
        inter as f64 / la.min(lb) as f64
    };
    [jaccard, dice, cosine, overlap]
}

/// One grid cell check: every registered kernel (both argument orders)
/// against the scalar count, then all four measures at exact-`f64`
/// equality through the production `intern::*_ids` entry points.
fn check_pair(a: &[u32], b: &[u32]) {
    assert!(kernels::is_sorted_dedup(a) && kernels::is_sorted_dedup(b));
    let want = kernels::intersect_scalar(a, b);
    for k in REGISTRY {
        assert_eq!(
            kernels::dispatch(k, a, b),
            want,
            "{k:?} diverged on |a|={} |b|={}",
            a.len(),
            b.len()
        );
        assert_eq!(kernels::dispatch(k, b, a), want, "{k:?} not symmetric");
    }
    assert_eq!(kernels::intersect_auto(a, b), want, "adaptive dispatch diverged");
    let [jac, dice, cos, ovl] = measures(a.len(), b.len(), want);
    assert_eq!(intern::jaccard_ids(a, b).to_bits(), jac.to_bits());
    assert_eq!(intern::dice_ids(a, b).to_bits(), dice.to_bits());
    assert_eq!(intern::cosine_ids(a, b).to_bits(), cos.to_bits());
    assert_eq!(intern::overlap_coefficient_ids(a, b).to_bits(), ovl.to_bits());
    assert_eq!(intern::overlap_size_ids(a, b), want);
}

/// Materialize the full pair set for one seed (every shape × case).
fn grid_pairs(seed: u64) -> Vec<(Vec<u32>, Vec<u32>)> {
    let mut rng = TestRng::new(seed);
    let mut pairs = Vec::with_capacity(SHAPES.len() * CASES_PER_CELL);
    for shape in SHAPES {
        for _ in 0..CASES_PER_CELL {
            pairs.push(draw_pair(shape, &mut rng));
        }
    }
    pairs
}

/// The core grid: kernel × shape class × seed, single-threaded.
#[test]
fn oracle_grid_single_worker() {
    for seed in seeds() {
        for (a, b) in grid_pairs(seed) {
            check_pair(&a, &b);
        }
    }
}

/// The worker axis: the identical pair set checked concurrently on
/// 1/2/4/8 threads. Every thread runs every kernel on its chunk; this
/// is the test that would catch cross-call or cross-thread state leaks
/// in the bitset kernel's thread-local scratch.
#[test]
fn oracle_grid_worker_counts() {
    let pairs: Vec<_> = seeds().into_iter().flat_map(grid_pairs).collect();
    for workers in [1usize, 2, 4, 8] {
        std::thread::scope(|s| {
            let chunk = pairs.len().div_ceil(workers);
            for slice in pairs.chunks(chunk) {
                s.spawn(move || {
                    for (a, b) in slice {
                        check_pair(a, b);
                    }
                });
            }
        });
    }
}

/// The mode switch is output-invisible: the whole grid answers
/// identically with the adaptive tier pinned to the scalar reference.
#[test]
fn oracle_grid_scalar_mode_invisible() {
    let pairs = grid_pairs(seeds()[0]);
    let adaptive: Vec<u64> = pairs
        .iter()
        .map(|(a, b)| intern::jaccard_ids(a, b).to_bits())
        .collect();
    kernels::set_mode(KernelMode::ScalarReference);
    let pinned: Vec<u64> = pairs
        .iter()
        .map(|(a, b)| intern::jaccard_ids(a, b).to_bits())
        .collect();
    kernels::set_mode(KernelMode::Adaptive);
    assert_eq!(adaptive, pinned);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Free-form proptest arm of the grid: unconstrained sorted-dedup
    /// pairs with occasional shared draws so overlap is nontrivial.
    #[test]
    fn oracle_random_pairs(
        raw_a in proptest::collection::vec(0u32..1 << 22, 0..300),
        raw_b in proptest::collection::vec(0u32..1 << 22, 0..300),
        share in 0usize..4,
    ) {
        let mut a = raw_a;
        let b = sorted_dedup(raw_b);
        // Splice some of b into a so random pairs aren't near-disjoint.
        a.extend(b.iter().step_by(share + 1).copied());
        let a = sorted_dedup(a);
        check_pair(&a, &b);
        prop_assert_eq!(
            kernels::intersect_auto(&a, &b),
            kernels::intersect_scalar(&a, &b)
        );
    }

    /// Dense low-range pairs (the bitset selector's home turf).
    #[test]
    fn oracle_random_dense_pairs(
        start_a in 0u32..512,
        start_b in 0u32..512,
        len_a in 24usize..300,
        len_b in 24usize..300,
        stride in 1u32..3,
    ) {
        let a: Vec<u32> = (0..len_a as u32).map(|i| start_a + i * stride).collect();
        let b: Vec<u32> = (0..len_b as u32).map(|i| start_b + i).collect();
        check_pair(&a, &b);
    }
}

// ---------------------------------------------------------------------
// Character kernels: Levenshtein and Jaro against the textbook DP.
// ---------------------------------------------------------------------

/// The textbook Levenshtein DP: O(|a|·|b|) time, two rows of the table.
fn oracle_levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let (short, long) = if a.len() <= b.len() {
        (&a, &b)
    } else {
        (&b, &a)
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, sc) in short.iter().enumerate() {
            let sub = prev[j] + usize::from(lc != sc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// The normalized similarity over [`oracle_levenshtein`].
fn oracle_levenshtein_sim(a: &str, b: &str) -> f64 {
    let max_len = a.chars().count().max(b.chars().count());
    if max_len == 0 {
        return 1.0;
    }
    1.0 - oracle_levenshtein(a, b) as f64 / max_len as f64
}

/// The allocating Jaro: a `Vec<bool>` of used `b` positions and a
/// `Vec<char>` of matched `a` characters.
fn oracle_jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == *ca {
                b_used[j] = true;
                matches_a.push(*ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(&b_used)
        .filter_map(|(c, used)| used.then_some(*c))
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(&matches_b)
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler over [`oracle_jaro`].
fn oracle_jaro_winkler_with(a: &str, b: &str, prefix_scale: f64) -> f64 {
    let j = oracle_jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * prefix_scale * (1.0 - j)
}

fn oracle_jaro_winkler(a: &str, b: &str) -> f64 {
    oracle_jaro_winkler_with(a, b, 0.1)
}

/// The string-shape classes of the character grid. Each class draws a
/// pair of strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CharShape {
    /// One side empty, or both.
    Empty,
    /// 1–3 characters a side: the Jaro window is 0.
    Tiny,
    /// One or both sides 63, 64, 65, 128 or 129 characters long: the
    /// Myers block and Jaro mask word boundaries.
    WordBoundary,
    /// Alphabets of 2–4 letters: heavy on repeats and transpositions.
    SmallAlphabet,
    /// 2-, 3- or 4-byte UTF-8 (`é`, CJK, emoji), alphabets of 2–4.
    Utf8,
    /// An ASCII side against a side with non-ASCII characters.
    MixedAscii,
    /// `a == b`.
    Identical,
}

const CHAR_SHAPES: [CharShape; 7] = [
    CharShape::Empty,
    CharShape::Tiny,
    CharShape::WordBoundary,
    CharShape::SmallAlphabet,
    CharShape::Utf8,
    CharShape::MixedAscii,
    CharShape::Identical,
];

const BOUNDARY_LENS: [usize; 5] = [63, 64, 65, 128, 129];
const ASCII_LETTERS: &[char] = &['a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'x', 'y', 'z', ' '];
const UTF8_2: &[char] = &['é', 'ü', 'ñ', 'ø'];
const UTF8_3: &[char] = &['中', '文', '字', '日'];
const UTF8_4: &[char] = &['😀', '🎉', '🚀', '🦀'];

fn pick<'c>(rng: &mut TestRng, xs: &'c [char]) -> &'c [char] {
    // A prefix of 2..=len letters: small alphabets repeat often.
    &xs[..2 + rng.below(xs.len() as u64 - 1) as usize]
}

fn draw_string(rng: &mut TestRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
        .collect()
}

/// `s` after a few random substitutions, insertions, deletions and
/// adjacent swaps: near pairs are where transpositions live.
fn perturb(rng: &mut TestRng, s: &str, alphabet: &[char]) -> String {
    let mut v: Vec<char> = s.chars().collect();
    for _ in 0..rng.below(4) {
        let at = rng.below(v.len() as u64 + 1) as usize;
        let c = alphabet[rng.below(alphabet.len() as u64) as usize];
        match rng.below(4) {
            0 if at < v.len() => v[at] = c,
            1 => v.insert(at, c),
            2 if at < v.len() => {
                v.remove(at);
            }
            _ if at + 1 < v.len() => v.swap(at, at + 1),
            _ => {}
        }
    }
    v.into_iter().collect()
}

/// Either a fresh draw or a perturbed copy of `a`.
fn partner(rng: &mut TestRng, a: &str, alphabet: &[char], len: usize) -> String {
    if rng.below(2) == 0 {
        draw_string(rng, alphabet, len)
    } else {
        perturb(rng, a, alphabet)
    }
}

fn draw_char_pair(shape: CharShape, rng: &mut TestRng) -> (String, String) {
    let (a, b) = match shape {
        CharShape::Empty => {
            let len = rng.below(3) as usize * rng.below(70) as usize;
            let other = draw_string(rng, ASCII_LETTERS, len);
            (
                String::new(),
                if rng.below(3) == 0 {
                    String::new()
                } else {
                    other
                },
            )
        }
        CharShape::Tiny => {
            let alphabet = pick(rng, &ASCII_LETTERS[..4]);
            let (la, lb) = (1 + rng.below(3) as usize, 1 + rng.below(3) as usize);
            (
                draw_string(rng, alphabet, la),
                draw_string(rng, alphabet, lb),
            )
        }
        CharShape::WordBoundary => {
            let alphabet = match rng.below(4) {
                0 => pick(rng, ASCII_LETTERS),
                1 => &ASCII_LETTERS[..2],
                2 => pick(rng, UTF8_2),
                _ => pick(rng, UTF8_4),
            };
            let la = BOUNDARY_LENS[rng.below(5) as usize];
            let lb = if rng.below(2) == 0 {
                BOUNDARY_LENS[rng.below(5) as usize]
            } else {
                rng.below(140) as usize
            };
            let a = draw_string(rng, alphabet, la);
            let b = if rng.below(3) == 0 {
                perturb(rng, &a, alphabet)
            } else {
                draw_string(rng, alphabet, lb)
            };
            (a, b)
        }
        CharShape::SmallAlphabet => {
            let alphabet = pick(rng, &ASCII_LETTERS[..4]);
            let (la, len) = (rng.below(70) as usize, rng.below(70) as usize);
            let a = draw_string(rng, alphabet, la);
            let b = partner(rng, &a, alphabet, len);
            (a, b)
        }
        CharShape::Utf8 => {
            let family = [UTF8_2, UTF8_3, UTF8_4][rng.below(3) as usize];
            let alphabet = pick(rng, family);
            let (la, len) = (rng.below(70) as usize, rng.below(70) as usize);
            let a = draw_string(rng, alphabet, la);
            let b = partner(rng, &a, alphabet, len);
            (a, b)
        }
        CharShape::MixedAscii => {
            let ascii = pick(rng, &ASCII_LETTERS[..4]);
            let wide: Vec<char> = ascii.iter().chain(pick(rng, UTF8_3)).copied().collect();
            let (la, len) = (rng.below(70) as usize, rng.below(70) as usize);
            let a = draw_string(rng, ascii, la);
            let b = partner(rng, &a, &wide, len);
            (a, b)
        }
        CharShape::Identical => {
            let alphabet = [ASCII_LETTERS, UTF8_2, UTF8_3, UTF8_4][rng.below(4) as usize];
            let alphabet = pick(rng, alphabet);
            let len = rng.below(140) as usize;
            let a = draw_string(rng, alphabet, len);
            (a.clone(), a)
        }
    };
    if rng.below(2) == 0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// Cases drawn per (string shape, seed) cell.
const CHAR_CASES_PER_CELL: usize = 64;

fn char_grid_pairs(seed: u64) -> Vec<(String, String)> {
    let mut rng = TestRng::new(seed ^ 0x6368_6172);
    CHAR_SHAPES
        .iter()
        .flat_map(|&shape| {
            (0..CHAR_CASES_PER_CELL)
                .map(|_| draw_char_pair(shape, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One character-grid check, both argument orders: the distance equal,
/// every similarity the same `f64` bits as the oracle's.
fn check_char_pair(a: &str, b: &str) {
    for (x, y) in [(a, b), (b, a)] {
        let ctx = || format!("{x:?} vs {y:?}");
        assert_eq!(
            seqsim::levenshtein(x, y),
            oracle_levenshtein(x, y),
            "levenshtein {}",
            ctx()
        );
        assert_eq!(
            seqsim::levenshtein_sim(x, y).to_bits(),
            oracle_levenshtein_sim(x, y).to_bits(),
            "levenshtein_sim {}",
            ctx()
        );
        assert_eq!(
            seqsim::jaro(x, y).to_bits(),
            oracle_jaro(x, y).to_bits(),
            "jaro {}",
            ctx()
        );
        assert_eq!(
            seqsim::jaro_winkler(x, y).to_bits(),
            oracle_jaro_winkler(x, y).to_bits(),
            "jaro_winkler {}",
            ctx()
        );
        assert_eq!(
            seqsim::jaro_winkler_with(x, y, 0.25).to_bits(),
            oracle_jaro_winkler_with(x, y, 0.25).to_bits(),
            "jaro_winkler_with 0.25 {}",
            ctx()
        );
    }
}

/// Split a drawn string into a token bag (up to 4 tokens; empty pieces
/// dropped so the bag can be empty).
fn bag(s: &str) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    let step = chars.len().div_ceil(4).max(1);
    chars
        .chunks(step)
        .map(|c| c.iter().collect::<String>())
        .flat_map(|t| t.split(' ').map(str::to_owned).collect::<Vec<_>>())
        .filter(|t| !t.is_empty())
        .collect()
}

/// Monge–Elkan and soft TF-IDF with the production Jaro–Winkler against
/// the same measures over the oracle's.
fn check_token_measures(pairs: &[(String, String)]) {
    let bags: Vec<(Vec<String>, Vec<String>)> =
        pairs.iter().map(|(a, b)| (bag(a), bag(b))).collect();
    let corpus: Vec<&Vec<String>> = bags.iter().flat_map(|(a, b)| [a, b]).collect();
    let model = TfIdfModel::fit(&corpus);
    for (ta, tb) in &bags {
        assert_eq!(
            setsim::monge_elkan_jw(ta, tb).to_bits(),
            setsim::monge_elkan(ta, tb, oracle_jaro_winkler).to_bits(),
            "monge_elkan_jw {ta:?} vs {tb:?}"
        );
        assert_eq!(
            model.soft_tfidf_jw(ta, tb).to_bits(),
            model.soft_tfidf(ta, tb, 0.9, oracle_jaro_winkler).to_bits(),
            "soft_tfidf_jw {ta:?} vs {tb:?}"
        );
    }
}

/// Every string shape drew what it promises (a shape that silently
/// degenerated would leave its kernel path unchecked).
#[test]
fn char_grid_covers_its_shapes() {
    let mut rng = TestRng::new(seeds()[0]);
    let draws = |shape, rng: &mut TestRng| -> Vec<(String, String)> {
        (0..CHAR_CASES_PER_CELL)
            .map(|_| draw_char_pair(shape, rng))
            .collect()
    };
    let lens = |(a, b): &(String, String)| [a.chars().count(), b.chars().count()];
    let wide = |s: &String, bytes: usize| s.chars().any(|c| c.len_utf8() == bytes);
    assert!(draws(CharShape::Empty, &mut rng)
        .iter()
        .any(|p| lens(p) == [0, 0]));
    assert!(draws(CharShape::Empty, &mut rng)
        .iter()
        .any(|p| lens(p).contains(&0) && lens(p) != [0, 0]));
    assert!(draws(CharShape::Tiny, &mut rng)
        .iter()
        .all(|p| lens(p).iter().all(|l| (1..=3).contains(l))));
    let boundary = draws(CharShape::WordBoundary, &mut rng);
    for l in BOUNDARY_LENS {
        assert!(
            boundary.iter().any(|p| lens(p).contains(&l)),
            "no side of length {l}"
        );
    }
    assert!(boundary
        .iter()
        .any(|(a, b)| !a.is_ascii() && a.chars().count() > 64 && b.chars().count() > 64));
    let utf8 = draws(CharShape::Utf8, &mut rng);
    for bytes in [2, 3, 4] {
        assert!(
            utf8.iter().any(|(a, b)| wide(a, bytes) || wide(b, bytes)),
            "no {bytes}-byte chars"
        );
    }
    assert!(draws(CharShape::MixedAscii, &mut rng)
        .iter()
        .any(|(a, b)| a.is_ascii() != b.is_ascii()));
    assert!(draws(CharShape::Identical, &mut rng)
        .iter()
        .all(|(a, b)| a == b));
}

/// The character grid: string shape × seed, single-threaded.
#[test]
fn char_grid_single_worker() {
    for seed in seeds() {
        let pairs = char_grid_pairs(seed);
        for (a, b) in &pairs {
            check_char_pair(a, b);
        }
        check_token_measures(&pairs);
    }
}

/// The character grid's worker axis: the identical pair set on 1/2/4/8
/// threads, so the per-thread decode and `Peq` scratch is exercised by
/// interleaved short, long, ASCII and non-ASCII calls on every thread.
#[test]
fn char_grid_worker_counts() {
    let pairs: Vec<_> = seeds().into_iter().flat_map(char_grid_pairs).collect();
    for workers in [1usize, 2, 4, 8] {
        std::thread::scope(|s| {
            let chunk = pairs.len().div_ceil(workers);
            for slice in pairs.chunks(chunk) {
                s.spawn(move || {
                    for (a, b) in slice {
                        check_char_pair(a, b);
                    }
                });
            }
        });
    }
}

/// Known values stay known: textbook pairs through both implementations.
#[test]
fn char_kernels_known_pairs() {
    for (a, b) in [
        ("kitten", "sitting"),
        ("MARTHA", "MARHTA"),
        ("DIXON", "DICKSONX"),
        ("DWAYNE", "DUANE"),
        ("flaw", "lawn"),
        ("", ""),
        ("a", ""),
        ("café", "cafe"),
        ("東京都", "京都"),
        ("🦀rust🦀", "rust"),
    ] {
        check_char_pair(a, b);
    }
}

/// Long inputs: many Myers blocks, and a non-ASCII pattern whose `Peq`
/// table is too large for a thread to keep; the calls after it must
/// still start from an all-zero table.
#[test]
fn char_kernels_long_inputs() {
    let mut rng = TestRng::new(seeds()[0]);
    let cjk: Vec<char> = (0x4e00u32..0x4e00 + 1500)
        .filter_map(char::from_u32)
        .collect();
    let long_a = draw_string(&mut rng, &cjk, 2500);
    let long_b = perturb(&mut rng, &long_a, &cjk);
    let ascii_a = draw_string(&mut rng, ASCII_LETTERS, 700);
    let ascii_b = perturb(&mut rng, &ascii_a, ASCII_LETTERS);
    for (a, b) in [
        (&long_a, &long_b),
        (&ascii_a, &ascii_b),
        (&long_a, &ascii_a),
    ] {
        check_char_pair(a, b);
    }
    for (a, b) in char_grid_pairs(seeds()[0]).iter().step_by(5) {
        check_char_pair(a, b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Free-form arm of the character grid: short strings over a tiny
    /// mixed alphabet (ASCII, 2-byte and 4-byte characters).
    #[test]
    fn char_oracle_random_pairs(a in "[ab é🦀]{0,80}", b in "[ab é🦀]{0,80}") {
        check_char_pair(&a, &b);
    }
}
