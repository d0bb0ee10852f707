//! Corpus-based similarity: TF-IDF and soft TF-IDF.
//!
//! These measures need document-frequency statistics fitted over a corpus
//! of token bags (typically the concatenation of the attribute values of
//! both input tables), so they live behind a fitted [`TfIdfModel`].

use std::collections::HashMap;

/// Document-frequency model for TF-IDF-family measures.
#[derive(Debug, Clone, Default)]
pub struct TfIdfModel {
    doc_freq: HashMap<String, usize>,
    n_docs: usize,
}

impl TfIdfModel {
    /// Fit a model over a corpus of token bags.
    pub fn fit<S: AsRef<str>, D: AsRef<[S]>>(corpus: &[D]) -> Self {
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for doc in corpus {
            let mut seen: Vec<&str> = doc.as_ref().iter().map(|t| t.as_ref()).collect();
            seen.sort_unstable();
            seen.dedup();
            for t in seen {
                *doc_freq.entry(t.to_owned()).or_insert(0) += 1;
            }
        }
        TfIdfModel {
            doc_freq,
            n_docs: corpus.len(),
        }
    }

    /// Number of documents the model was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.doc_freq.len()
    }

    /// Smoothed inverse document frequency of a token. Unknown tokens get
    /// the maximum IDF (they appeared in zero documents).
    pub fn idf(&self, token: &str) -> f64 {
        let df = self.doc_freq.get(token).copied().unwrap_or(0);
        // add-one smoothing keeps idf finite for unseen tokens and > 0 for
        // tokens present in every document.
        ((1.0 + self.n_docs as f64) / (1.0 + df as f64)).ln() + 1.0
    }

    fn tfidf_vector<'a, S: AsRef<str>>(&self, tokens: &'a [S]) -> HashMap<&'a str, f64> {
        let mut tf: HashMap<&str, f64> = HashMap::with_capacity(tokens.len());
        for t in tokens {
            *tf.entry(t.as_ref()).or_insert(0.0) += 1.0;
        }
        for (t, w) in tf.iter_mut() {
            *w *= self.idf(t);
        }
        tf
    }

    /// TF-IDF cosine similarity between two token bags, in `[0, 1]`.
    pub fn tfidf<S: AsRef<str>>(&self, a: &[S], b: &[S]) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let va = self.tfidf_vector(a);
        let vb = self.tfidf_vector(b);
        let (small, large) = if va.len() <= vb.len() { (&va, &vb) } else { (&vb, &va) };
        let dot: f64 = small
            .iter()
            .filter_map(|(t, w)| large.get(t).map(|w2| w * w2))
            .sum();
        let na: f64 = va.values().map(|w| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.values().map(|w| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(0.0, 1.0)
        }
    }

    /// Soft TF-IDF (Cohen et al.): tokens need not match exactly — pairs
    /// with secondary similarity ≥ `threshold` contribute, weighted by that
    /// similarity. The secondary measure defaults to Jaro–Winkler in the
    /// literature; pass it explicitly here.
    pub fn soft_tfidf<S: AsRef<str>>(
        &self,
        a: &[S],
        b: &[S],
        threshold: f64,
        secondary: impl Fn(&str, &str) -> f64,
    ) -> f64 {
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        // Token order, not hash order: the sums and the tie-breaks below
        // then give the same bits on every call.
        let sorted = |tokens| {
            let mut v: Vec<(&str, f64)> = self.tfidf_vector(tokens).into_iter().collect();
            v.sort_unstable_by(|x, y| x.0.cmp(y.0));
            v
        };
        let (va, vb) = (sorted(a), sorted(b));
        let na: f64 = va.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        let nb: f64 = vb.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        let mut total = 0.0;
        for (ta, wa) in &va {
            let mut best_sim = 0.0;
            let mut best_w = 0.0;
            for (tb, wb) in &vb {
                let s = secondary(ta, tb);
                if s >= threshold && s > best_sim {
                    best_sim = s;
                    best_w = *wb;
                }
            }
            if best_sim > 0.0 {
                total += (wa / na) * (best_w / nb) * best_sim;
            }
        }
        total.clamp(0.0, 1.0)
    }

    /// Soft TF-IDF with the customary Jaro–Winkler secondary at 0.9.
    pub fn soft_tfidf_jw<S: AsRef<str>>(&self, a: &[S], b: &[S]) -> f64 {
        self.soft_tfidf(a, b, 0.9, crate::seqsim::jaro_winkler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn model() -> TfIdfModel {
        TfIdfModel::fit(&[
            toks("dave smith madison"),
            toks("dan smith middleton"),
            toks("joe wilson san jose"),
            toks("david smith madison"),
        ])
    }

    #[test]
    fn fit_counts_documents_not_occurrences() {
        let m = TfIdfModel::fit(&[toks("a a b"), toks("a c")]);
        assert_eq!(m.n_docs(), 2);
        assert_eq!(m.vocab_size(), 3);
        // "a" appears in both docs, so lower idf than "b".
        assert!(m.idf("a") < m.idf("b"));
        // Unseen token gets the highest idf of all.
        assert!(m.idf("zzz") > m.idf("b"));
    }

    #[test]
    fn tfidf_identical_bags_score_one() {
        let m = model();
        let a = toks("dave smith");
        assert!((m.tfidf(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tfidf_weights_rare_tokens_higher() {
        let m = model();
        // Sharing the rare token "madison" must beat sharing the common
        // token "smith", with the same number of shared/unshared tokens.
        let share_rare = m.tfidf(&toks("madison a"), &toks("madison b"));
        let share_common = m.tfidf(&toks("smith a"), &toks("smith b"));
        assert!(share_rare > share_common, "{share_rare} <= {share_common}");
    }

    #[test]
    fn tfidf_degenerate_inputs() {
        let m = model();
        assert_eq!(m.tfidf::<String>(&[], &[]), 1.0);
        assert_eq!(m.tfidf(&toks("x"), &[]), 0.0);
        assert_eq!(m.tfidf(&toks("dave"), &toks("wilson")), 0.0);
    }

    #[test]
    fn soft_tfidf_tolerates_typos() {
        let m = model();
        let clean = toks("dave smith");
        let typo = toks("dave smithh"); // jw(smith, smithh) ≈ 0.97 ≥ 0.9
        let hard = m.tfidf(&clean, &typo);
        let soft = m.soft_tfidf_jw(&clean, &typo);
        assert!(soft > hard, "soft {soft} should exceed hard {hard}");
        assert!(soft > 0.9);
    }

    #[test]
    fn soft_tfidf_threshold_excludes_dissimilar_tokens() {
        let m = model();
        let a = toks("alpha");
        let b = toks("omega");
        assert_eq!(m.soft_tfidf_jw(&a, &b), 0.0);
    }
}
