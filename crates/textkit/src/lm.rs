//! Unigram language models with smoothing.
//!
//! These back the *domain-centric generative model of text* that the paper's
//! matching work (§4.2 "Matching", reference \[23\]) uses to decide which
//! record a piece of text (e.g. a review) is about: each candidate record
//! induces a record-specific language model, interpolated with a domain
//! background model, and the record maximizing the text likelihood wins.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// A unigram language model with Jelinek–Mercer interpolation against a
/// uniform distribution over an open vocabulary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UnigramLm {
    counts: HashMap<String, u64>,
    total: u64,
    /// Interpolation weight on the empirical distribution (vs uniform floor).
    lambda: f64,
    /// Assumed vocabulary size for the uniform floor.
    vocab_floor: f64,
}

impl UnigramLm {
    /// Create an empty model. `lambda` in `(0,1)` weights the empirical
    /// distribution; `vocab_floor` is the assumed open-vocabulary size used
    /// for the uniform component (so unseen words get positive probability).
    pub fn new(lambda: f64, vocab_floor: usize) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda must be in [0,1]");
        assert!(vocab_floor > 0, "vocab floor must be positive");
        Self {
            counts: HashMap::new(),
            total: 0,
            lambda,
            vocab_floor: vocab_floor as f64,
        }
    }

    /// Default configuration used throughout the system.
    pub fn standard() -> Self {
        Self::new(0.8, 50_000)
    }

    /// Observe tokens.
    pub fn observe<S: AsRef<str>>(&mut self, tokens: &[S]) {
        for t in tokens {
            *self.counts.entry(t.as_ref().to_string()).or_insert(0) += 1;
        }
        self.total += tokens.len() as u64;
    }

    /// Probability of a single token (never zero).
    pub fn prob(&self, token: &str) -> f64 {
        self.prob_of_count(self.counts.get(token).copied().unwrap_or(0))
    }

    /// Probability this model gives a token it observed `count` times — all
    /// [`Self::prob`] reads of the token. For a non-empty model
    /// `prob_of_count(0)` is exactly `(1 − λ)/V`, the same for every token
    /// the model never saw.
    pub fn prob_of_count(&self, count: u64) -> f64 {
        let uniform = 1.0 / self.vocab_floor;
        if self.total == 0 {
            return uniform;
        }
        let emp = count as f64 / self.total as f64;
        self.lambda * emp + (1.0 - self.lambda) * uniform
    }

    /// Log-likelihood of a token sequence under this model.
    pub fn log_likelihood<S: AsRef<str>>(&self, tokens: &[S]) -> f64 {
        tokens.iter().map(|t| self.prob(t.as_ref()).ln()).sum()
    }

    /// Log-likelihood under a mixture `alpha·self + (1-alpha)·background`,
    /// the record-vs-domain interpolation of the generative matcher.
    pub fn mixture_log_likelihood<S: AsRef<str>>(
        &self,
        background: &UnigramLm,
        alpha: f64,
        tokens: &[S],
    ) -> f64 {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        tokens
            .iter()
            .map(|t| {
                let p = alpha * self.prob(t.as_ref()) + (1.0 - alpha) * background.prob(t.as_ref());
                p.ln()
            })
            .sum()
    }

    /// Total observed token count.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct observed tokens.
    pub fn vocab(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unigram_unseen_positive() {
        let lm = UnigramLm::standard();
        assert!(lm.prob("anything") > 0.0);
    }

    #[test]
    fn unigram_seen_beats_unseen() {
        let mut lm = UnigramLm::standard();
        lm.observe(&["salsa", "salsa", "tacos"]);
        assert!(lm.prob("salsa") > lm.prob("tacos"));
        assert!(lm.prob("tacos") > lm.prob("pho"));
    }

    #[test]
    fn unigram_probs_reflect_counts() {
        let mut lm = UnigramLm::new(1.0, 10);
        lm.observe(&["a", "a", "b", "c"]);
        assert!((lm.prob("a") - 0.5).abs() < 1e-12);
        assert!((lm.prob("b") - 0.25).abs() < 1e-12);
    }

    /// The identity the generative matcher's inverted index rests on: a
    /// non-empty model gives every token it never saw exactly `(1 − λ)/V`.
    #[test]
    fn unseen_tokens_get_exactly_the_floor_share() {
        let mut lm = UnigramLm::standard();
        lm.observe(&["salsa", "salsa", "tacos"]);
        let floor: f64 = (1.0 - 0.8) * (1.0 / 50_000.0);
        assert_eq!(lm.prob_of_count(0).to_bits(), floor.to_bits());
        assert_eq!(lm.prob("pho").to_bits(), floor.to_bits());
        assert_eq!(lm.prob("salsa").to_bits(), lm.prob_of_count(2).to_bits());
        // An empty model is the uniform distribution, whatever the count.
        let empty = UnigramLm::standard();
        assert_eq!(empty.prob_of_count(0), 1.0 / 50_000.0);
        assert_eq!(empty.prob("pho"), empty.prob_of_count(3));
    }

    #[test]
    fn mixture_prefers_matching_record() {
        let mut bg = UnigramLm::standard();
        bg.observe(&["the", "food", "was", "good", "service", "great"]);
        let mut r1 = UnigramLm::standard();
        r1.observe(&["gochi", "tapas", "cupertino", "japanese"]);
        let mut r2 = UnigramLm::standard();
        r2.observe(&["farolito", "taqueria", "mission", "burrito"]);
        let review = ["great", "tapas", "at", "gochi"];
        let l1 = r1.mixture_log_likelihood(&bg, 0.5, &review);
        let l2 = r2.mixture_log_likelihood(&bg, 0.5, &review);
        assert!(
            l1 > l2,
            "review should be attributed to gochi: {l1} vs {l2}"
        );
    }
}
