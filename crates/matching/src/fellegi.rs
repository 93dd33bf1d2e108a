//! Fellegi–Sunter probabilistic record linkage (paper §6, reference \[31\]).
//!
//! Each attribute comparison is discretized into agree / disagree / missing.
//! Under the match hypothesis M an attribute agrees with probability `m`;
//! under non-match U with probability `u`. A pair's score is the
//! log-likelihood ratio `Σ log(P(γ|M)/P(γ|U))`; two thresholds split pairs
//! into Match / Possible / NonMatch, exactly as in the 1969 formulation.

use woc_lrec::Lrec;

use crate::simvec::{attr_similarity, prepared_similarity, PreparedValue};

/// A record prepared for scoring by one [`FellegiSunter`] model
/// ([`FellegiSunter::prepare`]).
#[derive(Debug)]
pub struct PreparedRecord<'a> {
    /// The record's values of every model attribute, attribute after
    /// attribute in model order.
    values: Vec<PreparedValue<'a>>,
    /// Per model attribute, where its values end in `values`.
    ends: Vec<usize>,
}

impl PreparedRecord<'_> {
    /// The values of each model attribute, in model order.
    fn attrs(&self) -> impl Iterator<Item = &[PreparedValue<'_>]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| self.values.get(start..end).unwrap_or_default())
    }
}

/// Per-attribute m/u parameters.
#[derive(Debug, Clone)]
pub struct AttrParams {
    /// Attribute key.
    pub key: String,
    /// P(agree | match).
    pub m: f64,
    /// P(agree | non-match).
    pub u: f64,
    /// Similarity at or above which the comparison counts as agreement.
    pub agree_threshold: f64,
}

/// The Fellegi–Sunter model: attribute parameters plus decision thresholds.
#[derive(Debug, Clone)]
pub struct FellegiSunter {
    /// Attribute parameters.
    pub attrs: Vec<AttrParams>,
    /// Score at or above which a pair is declared a match.
    pub upper: f64,
    /// Score below which a pair is declared a non-match.
    pub lower: f64,
}

/// The three-way decision of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Confidently the same entity.
    Match,
    /// Undecided (would go to clerical review).
    Possible,
    /// Confidently different entities.
    NonMatch,
}

impl FellegiSunter {
    /// Reasonable hand-set parameters for the restaurant domain.
    pub fn restaurant_default() -> Self {
        Self {
            attrs: vec![
                AttrParams {
                    key: "name".into(),
                    m: 0.9,
                    u: 0.05,
                    agree_threshold: 0.75,
                },
                AttrParams {
                    key: "phone".into(),
                    m: 0.85,
                    u: 0.001,
                    agree_threshold: 0.99,
                },
                AttrParams {
                    key: "zip".into(),
                    m: 0.95,
                    u: 0.05,
                    agree_threshold: 0.99,
                },
                AttrParams {
                    key: "street".into(),
                    m: 0.85,
                    u: 0.02,
                    agree_threshold: 0.85,
                },
                AttrParams {
                    key: "city".into(),
                    m: 0.98,
                    u: 0.2,
                    agree_threshold: 0.95,
                },
            ],
            // Calibrated against experiment S5c: 4.0 admits name-similar
            // same-city pairs ("Olive House" / "Old House"); 5.0 sits on the
            // precision shoulder with negligible recall cost.
            upper: 5.0,
            lower: 0.0,
        }
    }

    /// Estimate `m`/`u` from labeled pairs (supervised variant): fraction of
    /// agreements among matching and non-matching pairs, Laplace-smoothed.
    /// Thresholds are left at the caller's values.
    pub fn estimate(
        attrs: &[&str],
        agree_threshold: f64,
        pairs: &[(&Lrec, &Lrec, bool)],
        upper: f64,
        lower: f64,
    ) -> Self {
        let mut params = Vec::new();
        for &key in attrs {
            let mut m_agree = 1.0f64;
            let mut m_total = 2.0f64;
            let mut u_agree = 1.0f64;
            let mut u_total = 2.0f64;
            for (a, b, is_match) in pairs {
                let Some(sim) = attr_similarity(a, b, key) else {
                    continue;
                };
                let agree = sim >= agree_threshold;
                if *is_match {
                    m_total += 1.0;
                    if agree {
                        m_agree += 1.0;
                    }
                } else {
                    u_total += 1.0;
                    if agree {
                        u_agree += 1.0;
                    }
                }
            }
            params.push(AttrParams {
                key: key.to_string(),
                m: m_agree / m_total,
                u: u_agree / u_total,
                agree_threshold,
            });
        }
        Self {
            attrs: params,
            upper,
            lower,
        }
    }

    /// Log-likelihood-ratio score of a pair. Missing comparisons contribute
    /// nothing (conditional independence given observability).
    pub fn score(&self, a: &Lrec, b: &Lrec) -> f64 {
        let s = self.score_prepared(&self.prepare(a), &self.prepare(b));
        debug_assert_eq!(
            s.to_bits(),
            self.score_reference(a, b).to_bits(),
            "the prepared score must equal the reference bit for bit"
        );
        s
    }

    /// What [`Self::score_prepared`] reads of a record: the values of each
    /// compared attribute, in attribute order. A caller scoring one record
    /// against many prepares it once, so each of its names is normalized
    /// once per pass instead of once per pair.
    pub fn prepare<'a>(&self, rec: &'a Lrec) -> PreparedRecord<'a> {
        let mut values = Vec::new();
        let mut ends = Vec::with_capacity(self.attrs.len());
        for p in &self.attrs {
            values.extend(rec.get(&p.key).iter().map(|v| PreparedValue::new(&v.value)));
            ends.push(values.len());
        }
        PreparedRecord { values, ends }
    }

    /// [`Self::score`] of two records prepared by this model: per attribute
    /// the same `max` fold over the same value pairs in the same order, and
    /// the same agreement or disagreement term, summed in attribute order.
    pub fn score_prepared(&self, a: &PreparedRecord<'_>, b: &PreparedRecord<'_>) -> f64 {
        let mut s = 0.0;
        for (p, (va, vb)) in self.attrs.iter().zip(a.attrs().zip(b.attrs())) {
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let mut sim: f64 = 0.0;
            for x in va {
                for y in vb {
                    sim = sim.max(prepared_similarity(x, y));
                }
            }
            let (m, u) = (p.m.clamp(1e-6, 1.0 - 1e-6), p.u.clamp(1e-6, 1.0 - 1e-6));
            if sim >= p.agree_threshold {
                s += (m / u).ln();
            } else {
                s += ((1.0 - m) / (1.0 - u)).ln();
            }
        }
        s
    }

    /// [`Self::score`] as first written, through [`attr_similarity`] on the
    /// records themselves. The oracle of the property tests and the
    /// debug-build shadow; nothing else calls it.
    pub fn score_reference(&self, a: &Lrec, b: &Lrec) -> f64 {
        let mut s = 0.0;
        for p in &self.attrs {
            let Some(sim) = attr_similarity(a, b, &p.key) else {
                continue;
            };
            let (m, u) = (p.m.clamp(1e-6, 1.0 - 1e-6), p.u.clamp(1e-6, 1.0 - 1e-6));
            if sim >= p.agree_threshold {
                s += (m / u).ln();
            } else {
                s += ((1.0 - m) / (1.0 - u)).ln();
            }
        }
        s
    }

    /// Three-way decision for a pair.
    pub fn decide(&self, a: &Lrec, b: &Lrec) -> Decision {
        let s = self.score(a, b);
        if s >= self.upper {
            Decision::Match
        } else if s < self.lower {
            Decision::NonMatch
        } else {
            Decision::Possible
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{AttrValue, ConceptId, LrecId, Provenance, Tick};

    fn rec(id: u64, name: &str, phone: &str, zip: &str, city: &str) -> Lrec {
        let mut r = Lrec::new(LrecId(id), ConceptId(0));
        let p = Provenance::ground_truth(Tick(0));
        r.add("name", AttrValue::Text(name.into()), p.clone());
        if !phone.is_empty() {
            r.add("phone", AttrValue::Phone(phone.into()), p.clone());
        }
        if !zip.is_empty() {
            r.add("zip", AttrValue::Zip(zip.into()), p.clone());
        }
        r.add("city", AttrValue::Text(city.into()), p);
        r
    }

    #[test]
    fn same_entity_scores_high() {
        let fs = FellegiSunter::restaurant_default();
        let a = rec(1, "Gochi Fusion Tapas", "4085550134", "95014", "Cupertino");
        let b = rec(
            2,
            "GOCHI FUSION TAPAS - Cupertino",
            "4085550134",
            "95014",
            "Cupertino",
        );
        assert_eq!(
            fs.decide(&a, &b),
            Decision::Match,
            "score {}",
            fs.score(&a, &b)
        );
    }

    #[test]
    fn different_entities_score_low() {
        let fs = FellegiSunter::restaurant_default();
        let a = rec(1, "Gochi Fusion Tapas", "4085550134", "95014", "Cupertino");
        let b = rec(
            2,
            "Taqueria El Farolito",
            "4155559999",
            "94110",
            "San Francisco",
        );
        assert_eq!(fs.decide(&a, &b), Decision::NonMatch);
    }

    #[test]
    fn shared_city_alone_is_possible_at_best() {
        let fs = FellegiSunter::restaurant_default();
        let a = rec(1, "Blue Garden", "1112223333", "95014", "Cupertino");
        let b = rec(2, "Red Palace", "4445556666", "95014", "Cupertino");
        assert_ne!(fs.decide(&a, &b), Decision::Match);
    }

    #[test]
    fn estimation_learns_discriminative_attrs() {
        let a1 = rec(1, "Gochi", "4085550134", "95014", "Cupertino");
        let a2 = rec(2, "Gochi Tapas", "4085550134", "95014", "Cupertino");
        let b1 = rec(3, "Farolito", "4155550000", "94110", "San Francisco");
        let b2 = rec(4, "El Farolito", "4155550000", "94110", "San Francisco");
        let pairs: Vec<(&Lrec, &Lrec, bool)> = vec![
            (&a1, &a2, true),
            (&b1, &b2, true),
            (&a1, &b1, false),
            (&a1, &b2, false),
            (&a2, &b1, false),
            (&a2, &b2, false),
        ];
        let fs = FellegiSunter::estimate(&["name", "phone", "zip", "city"], 0.75, &pairs, 2.0, 0.0);
        let phone = fs.attrs.iter().find(|p| p.key == "phone").unwrap();
        assert!(phone.m > phone.u, "phone agreement is match evidence");
        assert!(fs.score(&a1, &a2) > fs.score(&a1, &b1));
    }

    #[test]
    fn missing_attrs_neutral() {
        let fs = FellegiSunter::restaurant_default();
        let a = rec(1, "Gochi", "", "", "Cupertino");
        let b = rec(2, "Gochi", "", "", "Cupertino");
        let c = rec(3, "Gochi", "4085550134", "95014", "Cupertino");
        let d = rec(4, "Gochi", "4085550134", "95014", "Cupertino");
        // Fewer observed agreements, lower score — but both positive.
        assert!(fs.score(&a, &b) > 0.0);
        assert!(fs.score(&c, &d) > fs.score(&a, &b));
    }
}
