//! Record↔text matching: "establishing that a piece of text is *about* a
//! record" (paper §4.2 "Matching", reference \[23\]).
//!
//! The main method is the paper's: a **domain-centric generative model** —
//! each candidate record induces a unigram language model from its attribute
//! values, interpolated with a domain background model; the record
//! maximizing the text's likelihood wins. A TF-IDF cosine baseline is
//! provided for experiment S5's comparison.

use std::collections::HashMap;

use woc_lrec::{Lrec, LrecId};
use woc_textkit::lm::UnigramLm;
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::{CorpusStats, TfIdf};

/// The generative text-to-record matcher.
///
/// [`Self::match_text`] scores through an inverted index instead of asking
/// every model about every token. Two identities make that the *same*
/// arithmetic, not an approximation (DESIGN.md §6):
///
/// * a non-empty model gives a token it never observed `λ·(0/N) + (1−λ)/V`,
///   and `λ·0 + x == x` exactly — so that term is one number per token,
///   whatever the model, and only the models a posting list names need a
///   term of their own;
/// * float addition is not associative, so every model that has a term of
///   its own re-folds all its terms left to right with the same
///   `Iterator::sum` the per-model evaluation uses — never "common sum plus
///   corrections".
///
/// [`Self::match_text_reference`] is the per-model evaluation, kept as the
/// oracle: debug builds compare every result against it bit for bit.
#[derive(Debug)]
pub struct GenerativeMatcher {
    ids: Vec<LrecId>,
    models: Vec<UnigramLm>,
    background: UnigramLm,
    /// token → the models that observed it (ascending), each with the
    /// probability it gives the token.
    postings: HashMap<String, Vec<(usize, f64)>>,
    /// What every non-empty model gives a token it never observed.
    unseen: f64,
    /// Weight on the record model vs the background (the α of DESIGN.md §6).
    pub alpha: f64,
}

impl GenerativeMatcher {
    /// Build from candidate records. The background model pools all records'
    /// text plus any extra domain text supplied.
    pub fn build<'a>(
        records: impl IntoIterator<Item = &'a Lrec>,
        domain_text: &[&str],
        alpha: f64,
    ) -> Self {
        let mut ids = Vec::new();
        let mut models: Vec<UnigramLm> = Vec::new();
        let mut background = UnigramLm::standard();
        let mut postings: HashMap<String, Vec<(usize, f64)>> = HashMap::new();
        for rec in records {
            let toks = record_tokens(rec);
            let mut lm = UnigramLm::standard();
            lm.observe(&toks);
            background.observe(&toks);
            // Posting lists are filled from the record's token list, in
            // model order: a list's models ascend and a repeated token is
            // the list's last entry already.
            let model = models.len();
            for tok in toks {
                let p = lm.prob(&tok);
                let list = postings.entry(tok).or_default();
                if list.last().is_none_or(|&(m, _)| m != model) {
                    list.push((model, p));
                }
            }
            ids.push(rec.id());
            models.push(lm);
        }
        for t in domain_text {
            background.observe(&tokenize_words(t));
        }
        // Every model is `UnigramLm::standard()`, so one value serves all.
        let unseen = models
            .iter()
            .find(|lm| lm.total() > 0)
            .map_or(0.0, |lm| lm.prob_of_count(0));
        Self {
            ids,
            models,
            background,
            postings,
            unseen,
            alpha,
        }
    }

    /// The most likely record for a text, with its log-likelihood margin
    /// over the runner-up (a confidence signal).
    pub fn match_text(&self, text: &str) -> Option<(LrecId, f64)> {
        let toks = tokenize_words(text);
        if toks.is_empty() || self.ids.is_empty() {
            return None;
        }
        let alpha = self.alpha;
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        // Per token, once: the background's share of the mixture, and the
        // whole term of a model that never observed the token.
        let shares: Vec<f64> = toks
            .iter()
            .map(|t| (1.0 - alpha) * self.background.prob(t))
            .collect();
        let common: Vec<f64> = shares
            .iter()
            .map(|share| (alpha * self.unseen + share).ln())
            .collect();
        // `(model, position, term)` wherever a model observed the token.
        let mut observed: Vec<(usize, usize, f64)> = Vec::new();
        for (pos, (tok, share)) in toks.iter().zip(&shares).enumerate() {
            for &(model, p) in self.postings.get(tok).into_iter().flatten() {
                observed.push((model, pos, (alpha * p + share).ln()));
            }
        }
        observed.sort_unstable_by_key(|&(model, pos, _)| (model, pos));

        let common_ll: f64 = common.iter().copied().sum();
        let mut scores: Vec<f64> = self
            .models
            .iter()
            .map(|lm| {
                if lm.total() == 0 {
                    // An empty model falls back to the uniform floor, not
                    // to `unseen`.
                    lm.mixture_log_likelihood(&self.background, alpha, &toks)
                } else {
                    common_ll
                }
            })
            .collect();
        for own in observed.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(model, _, _)) = own.first() else {
                continue;
            };
            let mut own = own.iter().peekable();
            let ll: f64 = common
                .iter()
                .enumerate()
                .map(|(pos, &unobserved)| {
                    own.next_if(|&&(_, at, _)| at == pos)
                        .map_or(unobserved, |&(_, _, term)| term)
                })
                .sum();
            if let Some(score) = scores.get_mut(model) {
                *score = ll;
            }
        }

        // Top two in one scan, with a stable descending sort's semantics:
        // the first maximum wins, the runner-up is the largest of the rest
        // (ties with the best included).
        let mut scored = scores.iter().copied().enumerate();
        let (mut best, mut best_ll) = scored.next()?;
        let mut runner_up: Option<f64> = None;
        for (i, ll) in scored {
            if ll > best_ll {
                runner_up = Some(best_ll);
                (best, best_ll) = (i, ll);
            } else if runner_up.is_none_or(|r| ll > r) {
                runner_up = Some(ll);
            }
        }
        let margin = runner_up.map_or(f64::INFINITY, |r| best_ll - r);
        let found = self.ids.get(best).map(|&id| (id, margin));
        debug_assert_eq!(
            found.map(|(id, m)| (id, m.to_bits())),
            self.match_text_reference(text)
                .map(|(id, m)| (id, m.to_bits())),
            "the inverted-index evaluation must equal the per-model one bit for bit"
        );
        found
    }

    /// [`Self::match_text`] evaluated model by model: every model scores
    /// every token, then a stable sort picks the top two. The oracle the
    /// property tests and the debug-build shadow compare against; nothing
    /// else calls it.
    pub fn match_text_reference(&self, text: &str) -> Option<(LrecId, f64)> {
        let toks = tokenize_words(text);
        if toks.is_empty() || self.ids.is_empty() {
            return None;
        }
        let mut scored: Vec<(usize, f64)> = self
            .models
            .iter()
            .enumerate()
            .map(|(i, lm)| {
                (
                    i,
                    lm.mixture_log_likelihood(&self.background, self.alpha, &toks),
                )
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let (best, best_ll) = scored[0];
        let margin = if scored.len() > 1 {
            best_ll - scored[1].1
        } else {
            f64::INFINITY
        };
        Some((self.ids[best], margin))
    }

    /// Number of candidate records.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// TF-IDF cosine baseline matcher.
#[derive(Debug)]
pub struct TfIdfMatcher {
    ids: Vec<LrecId>,
    stats: CorpusStats,
    vectors: Vec<woc_textkit::SparseVector>,
}

impl TfIdfMatcher {
    /// Build from candidate records.
    pub fn build<'a>(records: impl IntoIterator<Item = &'a Lrec>) -> Self {
        let mut ids = Vec::new();
        let mut token_lists = Vec::new();
        let mut stats = CorpusStats::new();
        for rec in records {
            let toks = record_tokens(rec);
            stats.add_document(&toks);
            ids.push(rec.id());
            token_lists.push(toks);
        }
        let vectors = {
            let v = TfIdf::new(&stats);
            token_lists.iter().map(|t| v.vectorize(t)).collect()
        };
        Self {
            ids,
            stats,
            vectors,
        }
    }

    /// Best cosine match for a text.
    pub fn match_text(&self, text: &str) -> Option<(LrecId, f64)> {
        let toks = tokenize_words(text);
        if toks.is_empty() || self.ids.is_empty() {
            return None;
        }
        let q = TfIdf::new(&self.stats).vectorize(&toks);
        self.vectors
            .iter()
            .enumerate()
            .map(|(i, v)| (i, q.cosine(v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, s)| (self.ids[i], s))
    }
}

/// Tokenize a record's non-reference attribute values.
fn record_tokens(rec: &Lrec) -> Vec<String> {
    let mut toks = Vec::new();
    for (_, entries) in rec.iter() {
        for e in entries {
            if matches!(e.value, woc_lrec::AttrValue::Ref(_)) {
                continue;
            }
            toks.extend(tokenize_words(&e.value.display_string()));
        }
    }
    toks
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{AttrValue, ConceptId, Provenance, Tick};

    fn restaurant(id: u64, name: &str, city: &str, cuisine: &str, dishes: &[&str]) -> Lrec {
        let mut r = Lrec::new(LrecId(id), ConceptId(0));
        let p = Provenance::ground_truth(Tick(0));
        r.add("name", AttrValue::Text(name.into()), p.clone());
        r.add("city", AttrValue::Text(city.into()), p.clone());
        r.add("cuisine", AttrValue::Text(cuisine.into()), p.clone());
        for d in dishes {
            r.add("dish", AttrValue::Text((*d).into()), p.clone());
        }
        r
    }

    fn candidates() -> Vec<Lrec> {
        vec![
            restaurant(
                1,
                "Gochi Fusion Tapas",
                "Cupertino",
                "Japanese",
                &["Tonkotsu Ramen"],
            ),
            restaurant(
                2,
                "El Farolito",
                "San Francisco",
                "Mexican",
                &["Carnitas Burrito"],
            ),
            restaurant(
                3,
                "Blue Lotus",
                "Austin",
                "Thai",
                &["Pad Thai", "Green Curry"],
            ),
        ]
    }

    #[test]
    fn generative_matches_review_to_restaurant() {
        let recs = candidates();
        let m = GenerativeMatcher::build(recs.iter(), &[], 0.6);
        let (id, margin) = m
            .match_text("The Pad Thai was amazing, best Thai in Austin")
            .unwrap();
        assert_eq!(id, LrecId(3));
        assert!(margin > 0.0);
        let (id, _) = m.match_text("great tapas at gochi in cupertino").unwrap();
        assert_eq!(id, LrecId(1));
    }

    #[test]
    fn background_absorbs_generic_words() {
        let recs = candidates();
        let m = GenerativeMatcher::build(
            recs.iter(),
            &["the food was great service friendly would eat again"],
            0.6,
        );
        // A review that is all generic words has low margin.
        let (_, margin) = m.match_text("the food was great").unwrap();
        let (_, strong_margin) = m.match_text("Carnitas Burrito at El Farolito").unwrap();
        assert!(strong_margin > margin);
    }

    #[test]
    fn tfidf_baseline_works_on_distinctive_text() {
        let recs = candidates();
        let m = TfIdfMatcher::build(recs.iter());
        let (id, score) = m.match_text("Carnitas Burrito in San Francisco").unwrap();
        assert_eq!(id, LrecId(2));
        assert!(score > 0.0);
    }

    #[test]
    fn empty_inputs() {
        let m = GenerativeMatcher::build(std::iter::empty(), &[], 0.5);
        assert!(m.is_empty());
        assert!(m.match_text("anything").is_none());
        let recs = candidates();
        let m = GenerativeMatcher::build(recs.iter(), &[], 0.5);
        assert!(m.match_text("").is_none());
    }
}
