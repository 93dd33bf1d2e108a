//! Extraction-quality evaluation against page ground truth.

use std::collections::HashSet;

use woc_textkit::tokenize::normalize;
use woc_webgen::TruthRecord;

use crate::ExtractedRecord;

/// Precision / recall / F1 over counted true positives.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prf {
    /// True positives.
    pub tp: usize,
    /// False positives (extracted but wrong).
    pub fp: usize,
    /// False negatives (missed).
    pub fn_: usize,
}

impl Prf {
    /// Precision (1.0 when nothing was extracted).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (1.0 when there was nothing to find).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 (harmonic mean; 0 if both are 0).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Accumulate another count.
    pub fn merge(&mut self, other: Prf) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
    }
}

impl std::fmt::Display for Prf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3} (tp={} fp={} fn={})",
            self.precision(),
            self.recall(),
            self.f1(),
            self.tp,
            self.fp,
            self.fn_
        )
    }
}

/// Score extracted `(field, value)` pairs against one page's truth records,
/// matching values up to [`normalize`]. Each truth pair may be claimed once.
pub fn score_fields(extracted: &[ExtractedRecord], truth: &[TruthRecord]) -> Prf {
    let mut truth_pairs: Vec<(String, String)> = truth
        .iter()
        .flat_map(|t| t.fields.iter().map(|(k, v)| (k.clone(), normalize(v))))
        .collect();
    let mut prf = Prf::default();
    for rec in extracted {
        for (k, v) in &rec.fields {
            let nv = normalize(v);
            if let Some(pos) = truth_pairs.iter().position(|(tk, tv)| tk == k && *tv == nv) {
                truth_pairs.swap_remove(pos);
                prf.tp += 1;
            } else {
                prf.fp += 1;
            }
        }
    }
    prf.fn_ = truth_pairs.len();
    prf
}

/// Score one specific field only.
pub fn score_field(extracted: &[ExtractedRecord], truth: &[TruthRecord], field: &str) -> Prf {
    let filtered_ex: Vec<ExtractedRecord> = extracted
        .iter()
        .map(|r| ExtractedRecord {
            fields: r
                .fields
                .iter()
                .filter(|(k, _)| k == field)
                .cloned()
                .collect(),
            ..r.clone()
        })
        .collect();
    let filtered_truth: Vec<TruthRecord> = truth
        .iter()
        .map(|t| TruthRecord {
            concept: t.concept,
            entity: t.entity,
            fields: t
                .fields
                .iter()
                .filter(|(k, _)| k == field)
                .cloned()
                .collect(),
        })
        .collect();
    score_fields(&filtered_ex, &filtered_truth)
}

/// Score whole records: an extracted record counts as correct if its
/// normalized field multiset is a (non-empty) subset of some truth record's
/// fields covering at least `min_fields` of them.
pub fn score_records(
    extracted: &[ExtractedRecord],
    truth: &[TruthRecord],
    min_fields: usize,
) -> Prf {
    let mut used: HashSet<usize> = HashSet::new();
    let mut prf = Prf::default();
    for rec in extracted {
        let mut matched = None;
        for (ti, t) in truth.iter().enumerate() {
            if used.contains(&ti) {
                continue;
            }
            let hits = rec
                .fields
                .iter()
                .filter(|(k, v)| {
                    t.fields
                        .iter()
                        .any(|(tk, tv)| tk == k && normalize(tv) == normalize(v))
                })
                .count();
            if hits >= min_fields.min(t.fields.len()).max(1) {
                matched = Some(ti);
                break;
            }
        }
        match matched {
            Some(ti) => {
                used.insert(ti);
                prf.tp += 1;
            }
            None => prf.fp += 1,
        }
    }
    prf.fn_ = truth.len() - used.len();
    prf
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{ConceptId, LrecId};

    fn ex(fields: &[(&str, &str)]) -> ExtractedRecord {
        ExtractedRecord {
            concept: None,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            confidence: 1.0,
            source_url: String::new(),
        }
    }

    fn tr(fields: &[(&str, &str)]) -> TruthRecord {
        TruthRecord {
            concept: ConceptId(0),
            entity: LrecId(0),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn prf_edge_cases() {
        let p = Prf::default();
        assert_eq!(p.precision(), 1.0);
        assert_eq!(p.recall(), 1.0);
        assert_eq!(p.f1(), 1.0, "vacuous truth: perfect P and R");
        let p = Prf {
            tp: 2,
            fp: 2,
            fn_: 2,
        };
        assert_eq!(p.precision(), 0.5);
        assert_eq!(p.recall(), 0.5);
        assert!((p.f1() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn field_scoring_normalizes() {
        let prf = score_fields(
            &[ex(&[("phone", "(408) 555-0134"), ("zip", "99999")])],
            &[tr(&[("phone", "(408) 555-0134"), ("zip", "95014")])],
        );
        assert_eq!(prf.tp, 1);
        assert_eq!(prf.fp, 1);
        assert_eq!(prf.fn_, 1);
    }

    #[test]
    fn truth_pairs_claimed_once() {
        let prf = score_fields(
            &[ex(&[("zip", "95014"), ("zip", "95014")])],
            &[tr(&[("zip", "95014")])],
        );
        assert_eq!(prf.tp, 1);
        assert_eq!(prf.fp, 1);
    }

    #[test]
    fn record_scoring() {
        let prf = score_records(
            &[
                ex(&[("name", "Gochi"), ("zip", "95014")]),
                ex(&[("name", "Nonexistent"), ("zip", "00000")]),
            ],
            &[
                tr(&[("name", "Gochi"), ("zip", "95014"), ("phone", "x")]),
                tr(&[("name", "Other"), ("zip", "12345")]),
            ],
            2,
        );
        assert_eq!(prf.tp, 1);
        assert_eq!(prf.fp, 1);
        assert_eq!(prf.fn_, 1);
    }

    #[test]
    fn prf_merge() {
        let mut a = Prf {
            tp: 1,
            fp: 2,
            fn_: 3,
        };
        a.merge(Prf {
            tp: 4,
            fp: 5,
            fn_: 6,
        });
        assert_eq!(
            a,
            Prf {
                tp: 5,
                fp: 7,
                fn_: 9
            }
        );
    }
}
