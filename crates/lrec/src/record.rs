//! The lrec record type.
//!
//! ## Sharing between copies
//!
//! A record's attribute lists sit behind `Arc`s, so [`Clone`] copies
//! pointers: a clone shares every key and every value list with its
//! original until one of them changes. The copy-on-write rule is that a
//! mutation may only reach a list through [`Arc::make_mut`], which copies
//! the one list being changed when — and only when — someone else still
//! holds it. [`Lrec::add`], [`Lrec::set`], [`Lrec::remove`] and
//! [`Lrec::absorb`] look the key up first and touch only the attribute
//! they change; `absorb` takes a list mutably only when it actually
//! replaces or appends an entry. Value semantics are those of a deep copy:
//! `==`, `Debug`, key order and the serialized form cannot tell a shared
//! list from a private one. This is what lets consecutive epochs of a
//! maintained web hold the same untouched records (see `woc-core`'s `memo`
//! module) instead of one heap object per attribute value per epoch.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{ConceptId, LrecId};
use crate::provenance::Provenance;
use crate::value::AttrValue;

/// One attribute value together with its provenance stamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueEntry {
    /// The value.
    pub value: AttrValue,
    /// Where it came from and how confident we are in it.
    pub provenance: Provenance,
}

/// A loosely-structured record (paper §2.2).
///
/// Attributes form a multimap: a key may carry several values (a restaurant
/// with two phone numbers; a value asserted by several sources). The set of
/// populated attributes is *not* required to cover the concept schema, and
/// keys absent from the schema are admitted (schema evolution, §2.2: "the
/// set of attributes associated with a concept may also evolve").
///
/// Attributes are kept in a `BTreeMap` so iteration order — and therefore
/// rendering, indexing and hashing — is deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lrec {
    id: LrecId,
    concept: ConceptId,
    attrs: BTreeMap<Arc<str>, Arc<Vec<ValueEntry>>>,
}

impl Lrec {
    /// Create an empty record. Normally done through
    /// [`crate::Store::create`], which allocates the id.
    pub fn new(id: LrecId, concept: ConceptId) -> Self {
        Self {
            id,
            concept,
            attrs: BTreeMap::new(),
        }
    }

    /// The distinguished unique id (stipulation 1).
    pub fn id(&self) -> LrecId {
        self.id
    }

    /// The concept this record instantiates (stipulation 2: "given a record,
    /// we can determine the corresponding concept").
    pub fn concept(&self) -> ConceptId {
        self.concept
    }

    /// Add a value for `key` (appends; does not replace).
    pub fn add(&mut self, key: &str, value: AttrValue, provenance: Provenance) {
        let entry = ValueEntry { value, provenance };
        match self.attrs.get_mut(key) {
            Some(list) => Arc::make_mut(list).push(entry),
            None => {
                self.attrs.insert(Arc::from(key), Arc::new(vec![entry]));
            }
        }
    }

    /// Replace all values of `key` with a single value.
    pub fn set(&mut self, key: &str, value: AttrValue, provenance: Provenance) {
        let list = Arc::new(vec![ValueEntry { value, provenance }]);
        match self.attrs.get_mut(key) {
            Some(slot) => *slot = list,
            None => {
                self.attrs.insert(Arc::from(key), list);
            }
        }
    }

    /// Remove all values of `key`, returning them.
    pub fn remove(&mut self, key: &str) -> Vec<ValueEntry> {
        self.attrs
            .remove(key)
            .map(Arc::unwrap_or_clone)
            .unwrap_or_default()
    }

    /// All entries for `key`.
    pub fn get(&self, key: &str) -> &[ValueEntry] {
        self.attrs.get(key).map(|l| l.as_slice()).unwrap_or(&[])
    }

    /// The highest-confidence value for `key`, if any.
    pub fn best(&self, key: &str) -> Option<&ValueEntry> {
        self.get(key).iter().max_by(|a, b| {
            a.provenance
                .confidence
                .partial_cmp(&b.provenance.confidence)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Convenience: the best value's display string.
    pub fn best_string(&self, key: &str) -> Option<String> {
        self.best(key).map(|e| e.value.display_string())
    }

    /// Convenience: the best value's text, if it is `Text`.
    pub fn best_text(&self, key: &str) -> Option<&str> {
        self.best(key).and_then(|e| e.value.as_text())
    }

    /// Iterate over `(key, entries)` pairs in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[ValueEntry])> {
        self.attrs.iter().map(|(k, v)| (&**k, v.as_slice()))
    }

    /// The set of populated attribute keys.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.attrs.keys().map(|k| &**k)
    }

    /// Number of populated attribute keys.
    pub fn num_attrs(&self) -> usize {
        self.attrs.len()
    }

    /// Total number of values across all keys.
    pub fn num_values(&self) -> usize {
        self.attrs.values().map(|l| l.len()).sum()
    }

    /// All outgoing record references (`Ref` values) with their keys.
    pub fn refs(&self) -> Vec<(&str, LrecId)> {
        self.iter()
            .flat_map(|(k, es)| {
                es.iter()
                    .filter_map(move |e| e.value.as_ref_id().map(|id| (k, id)))
            })
            .collect()
    }

    /// Flatten the record to text for inverted-index ingestion: every value's
    /// display string prefixed with nothing, keys excluded (keys are indexed
    /// as fields separately by `woc-index`).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (_, entries) in self.iter() {
            for e in entries {
                if !matches!(e.value, AttrValue::Ref(_)) {
                    out.push_str(&e.value.display_string());
                    out.push(' ');
                }
            }
        }
        out.trim_end().to_string()
    }

    /// Merge `other` into `self` (entity-matching merge): every value of
    /// `other` is appended under its key unless an entry with the same
    /// denotation already exists, in which case only the higher confidence
    /// survives. `other`'s id and concept are discarded — the caller records
    /// the merge in lineage.
    pub fn absorb(&mut self, other: &Lrec) {
        for (key, theirs) in &other.attrs {
            // An empty list (only a hand-written snapshot can hold one)
            // contributes nothing, not even its key.
            if theirs.is_empty() {
                continue;
            }
            let ours = match self.attrs.get_mut(key) {
                Some(ours) => ours,
                None => {
                    // A key `self` lacks takes `other`'s list itself, shared,
                    // when every entry would be appended: that is, when no
                    // two of them denote the same value.
                    let distinct = theirs.iter().enumerate().all(|(n, e)| {
                        !theirs
                            .iter()
                            .take(n)
                            .any(|x| x.value.same_denotation(&e.value))
                    });
                    if distinct {
                        self.attrs.insert(Arc::clone(key), Arc::clone(theirs));
                        continue;
                    }
                    self.attrs.entry(Arc::clone(key)).or_default()
                }
            };
            for e in theirs.iter() {
                match ours.iter().position(|x| x.value.same_denotation(&e.value)) {
                    Some(i) if e.provenance.confidence > ours[i].provenance.confidence => {
                        Arc::make_mut(ours)[i] = e.clone();
                    }
                    Some(_) => {}
                    None => Arc::make_mut(ours).push(e.clone()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Tick;

    fn prov(c: f64) -> Provenance {
        Provenance::derived("test", c, Tick(0))
    }

    fn rec() -> Lrec {
        let mut r = Lrec::new(LrecId(1), ConceptId(0));
        r.add("name", "Gochi Fusion Tapas".into(), prov(0.9));
        r.add("phone", AttrValue::Phone("4085550134".into()), prov(0.8));
        r.add("phone", AttrValue::Phone("4085550199".into()), prov(0.6));
        r
    }

    #[test]
    fn add_and_get() {
        let r = rec();
        assert_eq!(r.get("phone").len(), 2);
        assert_eq!(r.get("missing").len(), 0);
        assert_eq!(r.num_attrs(), 2);
        assert_eq!(r.num_values(), 3);
    }

    #[test]
    fn best_picks_highest_confidence() {
        let r = rec();
        assert_eq!(
            r.best("phone").unwrap().value,
            AttrValue::Phone("4085550134".into())
        );
        assert_eq!(r.best_text("name"), Some("Gochi Fusion Tapas"));
        assert!(r.best("missing").is_none());
    }

    #[test]
    fn set_replaces() {
        let mut r = rec();
        r.set("phone", AttrValue::Phone("1112223333".into()), prov(1.0));
        assert_eq!(r.get("phone").len(), 1);
    }

    #[test]
    fn refs_collected() {
        let mut r = rec();
        r.add("review", AttrValue::Ref(LrecId(7)), prov(0.9));
        r.add("review", AttrValue::Ref(LrecId(8)), prov(0.9));
        let refs = r.refs();
        assert_eq!(refs, vec![("review", LrecId(7)), ("review", LrecId(8))]);
    }

    #[test]
    fn to_text_excludes_refs() {
        let mut r = rec();
        r.add("review", AttrValue::Ref(LrecId(7)), prov(0.9));
        let t = r.to_text();
        assert!(t.contains("Gochi Fusion Tapas"));
        assert!(!t.contains("lrec:"));
    }

    #[test]
    fn absorb_dedups_by_denotation() {
        let mut a = rec();
        let mut b = Lrec::new(LrecId(2), ConceptId(0));
        // Same phone in a different format, higher confidence.
        b.add(
            "phone",
            AttrValue::Text("(408) 555-0134".into()),
            prov(0.95),
        );
        b.add("cuisine", "Japanese".into(), prov(0.7));
        a.absorb(&b);
        // Still 2 phone entries (dedup), but the dup got the higher-confidence stamp.
        assert_eq!(a.get("phone").len(), 2);
        let best = a.best("phone").unwrap();
        assert!((best.provenance.confidence - 0.95).abs() < 1e-12);
        assert_eq!(a.get("cuisine").len(), 1);
    }

    /// The entry-by-entry merge `absorb` implemented before attribute lists
    /// were shared: its reference.
    fn absorb_entry_by_entry(this: &mut Lrec, other: &Lrec) {
        for (key, entries) in other.iter() {
            for e in entries {
                let existing = Arc::make_mut(this.attrs.entry(Arc::from(key)).or_default());
                if let Some(dup) = existing
                    .iter_mut()
                    .find(|x| x.value.same_denotation(&e.value))
                {
                    if e.provenance.confidence > dup.provenance.confidence {
                        *dup = e.clone();
                    }
                } else {
                    existing.push(e.clone());
                }
            }
        }
    }

    fn shares(a: &Lrec, b: &Lrec, key: &str) -> bool {
        Arc::ptr_eq(&a.attrs[key], &b.attrs[key])
    }

    #[test]
    fn clone_shares_every_list_until_one_side_writes() {
        let original = rec();
        let before = original.to_value();
        let mut copy = original.clone();
        assert!(shares(&original, &copy, "name") && shares(&original, &copy, "phone"));

        copy.add("phone", AttrValue::Phone("4085550100".into()), prov(0.5));
        assert!(
            shares(&original, &copy, "name"),
            "untouched lists stay shared"
        );
        assert!(!shares(&original, &copy, "phone"));
        copy.set("name", "Gochi".into(), prov(1.0));
        assert_eq!(copy.remove("phone").len(), 3);
        copy.add("cuisine", "Japanese".into(), prov(0.7));

        assert_eq!(original, rec(), "the original never moved");
        assert_eq!(original.to_value(), before);
        assert_eq!(original.get("phone").len(), 2);
        // Removing a list someone else still holds hands out a copy of it.
        assert_eq!(original.clone().remove("phone"), original.get("phone"));
    }

    #[test]
    fn absorb_matches_the_entry_by_entry_loop() {
        let mut loser = Lrec::new(LrecId(2), ConceptId(0));
        // Two same-denotation entries under a key the winner lacks: the
        // second, more confident one replaces the first.
        loser.add("cuisine", "japanese".into(), prov(0.4));
        loser.add("cuisine", "Japanese".into(), prov(0.7));
        // A more confident duplicate of a value the winner has, in another
        // format, and a less confident one.
        loser.add("phone", "(408) 555-0134".into(), prov(0.95));
        loser.add("phone", AttrValue::Phone("4085550199".into()), prov(0.1));
        loser.add("hours", "9am - 9pm".into(), prov(0.6));
        loser.add("hours", "5pm - 1am".into(), prov(0.6));
        let pristine = loser.clone();

        let mut expected = rec();
        absorb_entry_by_entry(&mut expected, &loser);
        let mut winner = rec();
        let holder = winner.clone();
        winner.absorb(&loser);
        assert_eq!(winner, expected);
        assert_eq!(winner.to_value(), expected.to_value());
        assert_eq!(winner.get("cuisine").len(), 1);
        assert_eq!(winner.best_text("cuisine"), Some("Japanese"));
        assert_eq!(winner.get("phone").len(), 2);
        assert_eq!(loser, pristine, "absorbing reads the loser only");
        assert_eq!(holder, rec(), "…and never writes through a shared list");

        // Only lists that changed were copied; a key the winner lacked
        // whose entries are distinct is the loser's own list.
        assert!(shares(&winner, &holder, "name"));
        assert!(!shares(&winner, &holder, "phone"));
        assert!(shares(&winner, &loser, "hours"));
        assert!(!shares(&winner, &loser, "cuisine"));
        // Absorbing it again changes nothing and copies nothing.
        let settled = winner.clone();
        winner.absorb(&loser);
        assert_eq!(winner, settled);
        assert!(winner.keys().all(|k| shares(&winner, &settled, k)));
    }

    #[test]
    fn iteration_deterministic() {
        let r = rec();
        let keys: Vec<_> = r.keys().collect();
        assert_eq!(keys, vec!["name", "phone"]);
    }
}
