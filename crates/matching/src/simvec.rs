//! Attribute-similarity vectors between records.
//!
//! Following the classical entity-matching pipeline (paper §6: "the bulk of
//! follow up work on EM focused on constructing good attribute-similarity
//! measures"), a candidate pair is summarized by one similarity per
//! comparable attribute, each in `\[0, 1\]`, chosen by the attribute's kind:
//! hybrid Jaro–Winkler/Jaccard for names, normalized-equality for
//! phones/zips, numeric closeness for numbers.

use std::sync::OnceLock;

use woc_lrec::{AttrValue, Lrec};
use woc_textkit::metrics::{name_similarity, name_similarity_keys, NameKey};
use woc_textkit::tokenize::normalize;

/// Similarity of two typed values under the semantics of their kinds.
pub fn value_similarity(a: &AttrValue, b: &AttrValue) -> f64 {
    kind_similarity(a, b)
        .unwrap_or_else(|| name_similarity(&a.display_string(), &b.display_string()))
}

/// [`value_similarity`] for a pair whose kinds compare by their own
/// semantics; `None` for a pair that compares display strings.
fn kind_similarity(a: &AttrValue, b: &AttrValue) -> Option<f64> {
    Some(match (a, b) {
        (AttrValue::Phone(x), AttrValue::Phone(y)) => f64::from(x == y),
        (AttrValue::Zip(x), AttrValue::Zip(y)) => {
            if x == y {
                1.0
            } else if x.get(..3) == y.get(..3) {
                0.3 // same locality
            } else {
                0.0
            }
        }
        (AttrValue::Int(x), AttrValue::Int(y)) => f64::from(x == y),
        (AttrValue::Float(x), AttrValue::Float(y)) => {
            let d = (x - y).abs();
            (1.0 - d).clamp(0.0, 1.0)
        }
        (AttrValue::PriceCents(x), AttrValue::PriceCents(y)) => {
            let m = (*x).max(*y).max(1) as f64;
            1.0 - ((x - y).abs() as f64 / m).min(1.0)
        }
        (AttrValue::Date(x), AttrValue::Date(y)) => f64::from(x == y),
        (AttrValue::Url(x), AttrValue::Url(y)) => f64::from(normalize(x) == normalize(y)),
        (AttrValue::Ref(x), AttrValue::Ref(y)) => f64::from(x == y),
        // Text vs anything: compare display strings with the hybrid name
        // metric (robust to reordering and small edits).
        _ => return None,
    })
}

/// A value prepared for repeated comparison: the [`NameKey`] of its display
/// string is computed the first time a pair compares it by name, and kept.
#[derive(Debug)]
pub(crate) struct PreparedValue<'a> {
    value: &'a AttrValue,
    name: OnceLock<NameKey>,
}

impl<'a> PreparedValue<'a> {
    /// Prepare `value`; nothing is computed yet.
    pub(crate) fn new(value: &'a AttrValue) -> Self {
        Self {
            value,
            name: OnceLock::new(),
        }
    }

    fn name(&self) -> &NameKey {
        self.name.get_or_init(|| match self.value.as_text() {
            // A text value is its own display string.
            Some(text) => NameKey::new(text),
            None => NameKey::new(&self.value.display_string()),
        })
    }
}

/// [`value_similarity`] of two prepared values: the same kind semantics,
/// and the name metric over keys computed at most once per value.
pub(crate) fn prepared_similarity(a: &PreparedValue<'_>, b: &PreparedValue<'_>) -> f64 {
    kind_similarity(a.value, b.value).unwrap_or_else(|| name_similarity_keys(a.name(), b.name()))
}

/// Best similarity between any value of `key` in `a` and any in `b`;
/// `None` when either side lacks the attribute (missing data must not count
/// as disagreement — paper §2.2's loose records).
pub fn attr_similarity(a: &Lrec, b: &Lrec, key: &str) -> Option<f64> {
    let va = a.get(key);
    let vb = b.get(key);
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let mut best: f64 = 0.0;
    for x in va {
        for y in vb {
            best = best.max(value_similarity(&x.value, &y.value));
        }
    }
    Some(best)
}

/// The similarity vector over a fixed attribute list. Missing comparisons
/// are `None`.
pub fn similarity_vector(a: &Lrec, b: &Lrec, attrs: &[&str]) -> Vec<(String, Option<f64>)> {
    attrs
        .iter()
        .map(|&k| (k.to_string(), attr_similarity(a, b, k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{ConceptId, LrecId, Provenance, Tick};

    fn rec(id: u64, pairs: &[(&str, AttrValue)]) -> Lrec {
        let mut r = Lrec::new(LrecId(id), ConceptId(0));
        for (k, v) in pairs {
            r.add(k, v.clone(), Provenance::ground_truth(Tick(0)));
        }
        r
    }

    #[test]
    fn typed_similarities() {
        assert_eq!(
            value_similarity(&AttrValue::Phone("1".into()), &AttrValue::Phone("1".into())),
            1.0
        );
        assert_eq!(
            value_similarity(
                &AttrValue::Zip("95014".into()),
                &AttrValue::Zip("95099".into())
            ),
            0.3
        );
        assert_eq!(
            value_similarity(
                &AttrValue::Zip("95014".into()),
                &AttrValue::Zip("60601".into())
            ),
            0.0
        );
        let close = value_similarity(&AttrValue::PriceCents(1000), &AttrValue::PriceCents(1100));
        assert!(close > 0.85 && close < 1.0);
    }

    #[test]
    fn text_similarity_robust_to_variants() {
        let s = value_similarity(
            &AttrValue::Text("Gochi Fusion Tapas".into()),
            &AttrValue::Text("GOCHI FUSION TAPAS".into()),
        );
        assert!(s > 0.99);
        let s = value_similarity(
            &AttrValue::Text("Gochi Fusion Tapas".into()),
            &AttrValue::Text("Gochi Fusion Tapas - Cupertino".into()),
        );
        assert!(s > 0.7, "suffixed variant still similar: {s}");
    }

    #[test]
    fn missing_attr_is_none() {
        let a = rec(1, &[("name", AttrValue::Text("Gochi".into()))]);
        let b = rec(2, &[("zip", AttrValue::Zip("95014".into()))]);
        assert_eq!(attr_similarity(&a, &b, "name"), None);
        assert_eq!(attr_similarity(&a, &b, "zip"), None);
        assert_eq!(attr_similarity(&a, &b, "other"), None);
    }

    #[test]
    fn multi_value_takes_best() {
        let a = rec(
            1,
            &[
                ("phone", AttrValue::Phone("1111111111".into())),
                ("phone", AttrValue::Phone("2222222222".into())),
            ],
        );
        let b = rec(2, &[("phone", AttrValue::Phone("2222222222".into()))]);
        assert_eq!(attr_similarity(&a, &b, "phone"), Some(1.0));
    }

    #[test]
    fn vector_shape() {
        let a = rec(1, &[("name", AttrValue::Text("X".into()))]);
        let b = rec(2, &[("name", AttrValue::Text("X".into()))]);
        let v = similarity_vector(&a, &b, &["name", "zip"]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], ("name".to_string(), Some(1.0)));
        assert_eq!(v[1], ("zip".to_string(), None));
    }
}
