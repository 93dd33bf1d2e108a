//! Concept recommendation (paper §5.4): Alternatives vs Augmentations.
//!
//! "Concept recommendation should not be viewed as a single problem with a
//! single optimization criterion":
//!
//! * [`alternatives`] — records that might *displace* the current one (other
//!   restaurants, "perhaps offering a similar level of quality or a similar
//!   cuisine type"); less-preferable options are suppressed;
//! * [`augmentations`] — records that *complement* it (the NB-7L battery for
//!   the Canon G10), "ranked by the degree of interest conditioned on
//!   engagement with the primary record";
//! * [`CoEngagement`] — item-item collaborative filtering counts harvested
//!   from user sessions, usable by both.

use std::collections::HashMap;

use woc_core::WebOfConcepts;
use woc_lrec::{Lrec, LrecId};

/// A scored recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended record.
    pub id: LrecId,
    /// Score (higher = better).
    pub score: f64,
    /// Human-readable reason.
    pub reason: String,
}

fn attr(rec: &Lrec, key: &str) -> String {
    rec.best_string(key).unwrap_or_default()
}

fn rating(rec: &Lrec) -> f64 {
    rec.best("rating")
        .and_then(|e| e.value.as_number())
        .unwrap_or(0.0)
}

/// Alternatives: same-concept records similar in location/category, ranked
/// by similarity then quality, with options strictly worse than the anchor
/// suppressed ("the goal of the system is to suppress recommendations that
/// the user finds less preferable overall").
pub fn alternatives(woc: &WebOfConcepts, anchor: LrecId, k: usize) -> Vec<Recommendation> {
    let Some(a) = woc.store.latest(anchor) else {
        return Vec::new();
    };
    let a_city = attr(a, "city");
    let a_cuisine = attr(a, "cuisine");
    let a_cat = attr(a, "category");
    let a_rating = rating(a);
    let mut out: Vec<Recommendation> = woc
        .records_of(a.concept())
        .into_iter()
        .filter(|r| r.id() != anchor)
        .filter_map(|r| {
            let mut score = 0.0;
            let mut reasons = Vec::new();
            if !a_city.is_empty() && attr(r, "city") == a_city {
                score += 2.0;
                reasons.push(format!("also in {a_city}"));
            }
            if !a_cuisine.is_empty() && attr(r, "cuisine") == a_cuisine {
                score += 1.5;
                reasons.push(format!("also {a_cuisine}"));
            }
            if !a_cat.is_empty() && attr(r, "category") == a_cat {
                score += 1.5;
                reasons.push(format!("also {a_cat}"));
            }
            if score == 0.0 {
                return None;
            }
            // Quality-aware: suppress clearly worse options.
            let r_rating = rating(r);
            if a_rating > 0.0 && r_rating > 0.0 {
                if r_rating + 0.75 < a_rating {
                    return None;
                }
                score += (r_rating - a_rating).max(0.0);
                if r_rating > a_rating {
                    reasons.push(format!("rated {r_rating:.1}"));
                }
            }
            Some(Recommendation {
                id: r.id(),
                score,
                reason: reasons.join(", "),
            })
        })
        .collect();
    out.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.id.cmp(&y.id))
    });
    out.truncate(k);
    out
}

/// Augmentations: complementary records via explicit `augments` links, plus
/// co-engagement evidence when available. No suppression of the anchor-alike
/// kind — a battery does not displace a camera.
pub fn augmentations(
    woc: &WebOfConcepts,
    anchor: LrecId,
    co: Option<&CoEngagement>,
    k: usize,
) -> Vec<Recommendation> {
    let Some(a) = woc.store.latest(anchor) else {
        return Vec::new();
    };
    let mut scored: HashMap<LrecId, (f64, String)> = HashMap::new();
    for e in a.get("augments") {
        if let Some(target) = e.value.as_ref_id() {
            if let Some(resolved) = woc.store.resolve(target) {
                scored
                    .entry(resolved)
                    .or_insert((0.0, "goes with this item".to_string()))
                    .0 += 2.0;
            }
        }
    }
    if let Some(co) = co {
        for (other, count) in co.co_engaged_with(anchor) {
            let entry = scored
                .entry(other)
                .or_insert((0.0, "users engage with both".to_string()));
            entry.0 += (count as f64).ln_1p();
        }
    }
    let mut out: Vec<Recommendation> = scored
        .into_iter()
        .filter(|(id, _)| *id != anchor)
        .map(|(id, (score, reason))| Recommendation { id, score, reason })
        .collect();
    out.sort_by(|x, y| {
        y.score
            .partial_cmp(&x.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(x.id.cmp(&y.id))
    });
    out.truncate(k);
    out
}

/// Item-item co-engagement counts ("collaborative filtering over a rich
/// domain"). Built from user sessions: each session's engaged records
/// pairwise increment the counts.
#[derive(Debug, Clone, Default)]
pub struct CoEngagement {
    counts: HashMap<(LrecId, LrecId), u32>,
}

impl CoEngagement {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one session's engaged records (order-insensitive).
    pub fn observe_session(&mut self, engaged: &[LrecId]) {
        for (i, &a) in engaged.iter().enumerate() {
            for &b in &engaged[i + 1..] {
                if a == b {
                    continue;
                }
                let key = (a.min(b), a.max(b));
                *self.counts.entry(key).or_insert(0) += 1;
            }
        }
    }

    /// Records co-engaged with `id`, with counts, descending.
    pub fn co_engaged_with(&self, id: LrecId) -> Vec<(LrecId, u32)> {
        let mut out: Vec<(LrecId, u32)> = self
            .counts
            .iter()
            .filter_map(|(&(a, b), &c)| {
                if a == id {
                    Some((b, c))
                } else if b == id {
                    Some((a, c))
                } else {
                    None
                }
            })
            .collect();
        out.sort_by_key(|&(other, c)| (std::cmp::Reverse(c), other));
        out
    }

    /// Total distinct co-engaged pairs.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_core::{build, PipelineConfig};
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    fn woc_and_world() -> (World, WebOfConcepts) {
        let world = World::generate(WorldConfig {
            restaurants: 25,
            cities: 3,
            cuisines: 3,
            ..WorldConfig::tiny(303)
        });
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(23));
        let woc = build(&corpus, &PipelineConfig::default());
        (world, woc)
    }

    #[test]
    fn alternatives_share_city_or_cuisine() {
        let (_, woc) = woc_and_world();
        let restaurants = woc.records_of(woc.concepts.restaurant);
        let anchor = restaurants[0].id();
        let recs = alternatives(&woc, anchor, 5);
        let a = woc.store.latest(anchor).unwrap();
        for rec in &recs {
            assert_ne!(rec.id, anchor);
            let r = woc.store.latest(rec.id).unwrap();
            let shares =
                attr(r, "city") == attr(a, "city") || attr(r, "cuisine") == attr(a, "cuisine");
            assert!(shares, "alternative must share city or cuisine");
        }
    }

    #[test]
    fn alternatives_suppress_much_worse() {
        let (_, woc) = woc_and_world();
        let restaurants = woc.records_of(woc.concepts.restaurant);
        // Pick an anchor with a high extracted rating, if any.
        let Some(anchor) = restaurants.iter().find(|r| rating(r) >= 4.0) else {
            return;
        };
        let a_rating = rating(anchor);
        for rec in alternatives(&woc, anchor.id(), 10) {
            let r = woc.store.latest(rec.id).unwrap();
            let rr = rating(r);
            if rr > 0.0 {
                assert!(
                    rr + 0.75 >= a_rating,
                    "suppressed option leaked: {rr} vs anchor {a_rating}"
                );
            }
        }
    }

    #[test]
    fn co_engagement_counts() {
        let mut co = CoEngagement::new();
        co.observe_session(&[LrecId(1), LrecId(2), LrecId(3)]);
        co.observe_session(&[LrecId(1), LrecId(2)]);
        co.observe_session(&[LrecId(1), LrecId(1)]); // self-pairs ignored
        let with1 = co.co_engaged_with(LrecId(1));
        assert_eq!(with1[0], (LrecId(2), 2));
        assert_eq!(with1[1], (LrecId(3), 1));
        assert_eq!(co.len(), 3);
    }

    #[test]
    fn augmentations_from_co_engagement() {
        let (_, woc) = woc_and_world();
        let restaurants = woc.records_of(woc.concepts.restaurant);
        let (a, b) = (restaurants[0].id(), restaurants[1].id());
        let mut co = CoEngagement::new();
        for _ in 0..5 {
            co.observe_session(&[a, b]);
        }
        let recs = augmentations(&woc, a, Some(&co), 5);
        assert!(
            recs.iter().any(|r| r.id == b),
            "co-engaged record recommended"
        );
    }

    #[test]
    fn unknown_anchor_empty() {
        let (_, woc) = woc_and_world();
        assert!(alternatives(&woc, LrecId(999_999), 5).is_empty());
        assert!(augmentations(&woc, LrecId(999_999), None, 5).is_empty());
    }
}
