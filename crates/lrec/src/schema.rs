//! Concept schemas, the concept registry, and domains.
//!
//! Paper §2.2 stipulation 2: "For each concept that is represented in our
//! corpus, we have metadata, including such things as a listing of attributes
//! for which we might have values." Schemas also carry the *statistical
//! properties* §4.2 uses as domain knowledge for unsupervised list extraction
//! ("each restaurant is associated with a single zip code and has one or two
//! phone numbers") as per-attribute [`Cardinality`] hints.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::ids::ConceptId;
use crate::record::Lrec;
use crate::value::AttrValue;

/// The expected kind of values under an attribute key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttrKind {
    /// Free text.
    Text,
    /// Integer.
    Int,
    /// Real number.
    Float,
    /// Money.
    Price,
    /// Phone number.
    Phone,
    /// Zip code.
    Zip,
    /// URL.
    Url,
    /// Calendar date.
    Date,
    /// Boolean.
    Bool,
    /// Reference to a record of the named concept.
    RefTo(ConceptId),
}

impl AttrKind {
    /// Does `value` conform to this kind? `Text` accepts anything (it is the
    /// loose fallback); other kinds accept their typed variant only.
    pub fn admits(&self, value: &AttrValue) -> bool {
        matches!(
            (self, value),
            (AttrKind::Text, _)
                | (AttrKind::Int, AttrValue::Int(_))
                | (AttrKind::Float, AttrValue::Float(_) | AttrValue::Int(_))
                | (AttrKind::Price, AttrValue::PriceCents(_))
                | (AttrKind::Phone, AttrValue::Phone(_))
                | (AttrKind::Zip, AttrValue::Zip(_))
                | (AttrKind::Url, AttrValue::Url(_))
                | (AttrKind::Date, AttrValue::Date(_))
                | (AttrKind::Bool, AttrValue::Bool(_))
                | (AttrKind::RefTo(_), AttrValue::Ref(_))
        )
    }
}

/// How many values an instance is expected to carry for an attribute —
/// the statistical domain knowledge of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cardinality {
    /// Exactly one value expected (e.g. a restaurant's zip).
    One,
    /// Between 1 and N values (e.g. "one or two phone numbers").
    AtMost(u8),
    /// Any number of values (e.g. reviews).
    Many,
}

impl Cardinality {
    /// Is a count of values consistent with this cardinality? Zero is always
    /// allowed — lrecs need not populate every attribute (paper §2.2).
    pub fn admits_count(&self, n: usize) -> bool {
        match self {
            Cardinality::One => n <= 1,
            Cardinality::AtMost(k) => n <= *k as usize,
            Cardinality::Many => true,
        }
    }
}

/// Declared metadata for one attribute of a concept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrSpec {
    /// Attribute key.
    pub key: String,
    /// Expected value kind.
    pub kind: AttrKind,
    /// Expected per-instance value count.
    pub cardinality: Cardinality,
    /// True if this attribute identifies instances strongly (used by
    /// blocking and matching; e.g. `name`, `phone`).
    pub identifying: bool,
}

impl AttrSpec {
    /// Shorthand constructor.
    pub fn new(key: &str, kind: AttrKind, cardinality: Cardinality) -> Self {
        Self {
            key: key.to_string(),
            kind,
            cardinality,
            identifying: false,
        }
    }

    /// Mark the attribute as identifying.
    #[must_use]
    pub fn identifying(mut self) -> Self {
        self.identifying = true;
        self
    }
}

/// Schema (metadata) of one concept.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConceptSchema {
    id: ConceptId,
    name: String,
    attrs: BTreeMap<String, AttrSpec>,
}

/// A single schema-conformance violation found by [`ConceptSchema::check`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// A value did not conform to the declared kind.
    KindMismatch {
        /// Offending key.
        key: String,
        /// Display of the offending value.
        value: String,
    },
    /// More values than the declared cardinality admits.
    CardinalityExceeded {
        /// Offending key.
        key: String,
        /// Observed count.
        count: usize,
    },
    /// An attribute key not declared in the schema (admitted, but reported so
    /// that schema evolution can be driven by data; paper §2.2).
    UndeclaredKey {
        /// The novel key.
        key: String,
    },
}

impl ConceptSchema {
    /// Create a schema with the given attributes.
    pub fn new(id: ConceptId, name: &str, attrs: Vec<AttrSpec>) -> Self {
        Self {
            id,
            name: name.to_string(),
            attrs: attrs.into_iter().map(|a| (a.key.clone(), a)).collect(),
        }
    }

    /// The concept id.
    pub fn id(&self) -> ConceptId {
        self.id
    }

    /// The concept name (e.g. `restaurant`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared attribute specs in key order.
    pub fn attrs(&self) -> impl Iterator<Item = &AttrSpec> {
        self.attrs.values()
    }

    /// Spec for one key.
    pub fn attr(&self, key: &str) -> Option<&AttrSpec> {
        self.attrs.get(key)
    }

    /// Identifying attributes (for blocking/matching).
    pub fn identifying_attrs(&self) -> impl Iterator<Item = &AttrSpec> {
        self.attrs.values().filter(|a| a.identifying)
    }

    /// Admit a newly observed attribute into the schema (schema evolution).
    pub fn evolve(&mut self, spec: AttrSpec) {
        self.attrs.entry(spec.key.clone()).or_insert(spec);
    }

    /// Check a record against the schema, returning all violations. Never
    /// rejects a record outright: the model is *loose* by design, and the
    /// caller decides how to treat violations (quality scoring, repair,
    /// schema evolution).
    pub fn check(&self, rec: &Lrec) -> Vec<Violation> {
        let mut out = Vec::new();
        for (key, entries) in rec.iter() {
            match self.attrs.get(key) {
                None => out.push(Violation::UndeclaredKey {
                    key: key.to_string(),
                }),
                Some(spec) => {
                    if !spec.cardinality.admits_count(entries.len()) {
                        out.push(Violation::CardinalityExceeded {
                            key: key.to_string(),
                            count: entries.len(),
                        });
                    }
                    for e in entries {
                        if !spec.kind.admits(&e.value) {
                            out.push(Violation::KindMismatch {
                                key: key.to_string(),
                                value: e.value.display_string(),
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

/// A domain is a set of related concepts (paper §2.2: "people, publications
/// and conferences are examples of concepts in the academic community
/// domain"). Domain-centric extraction is scoped by these.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Domain {
    /// Domain name (e.g. `local`, `academic`, `shopping`).
    pub name: String,
    /// Member concepts.
    pub concepts: Vec<ConceptId>,
}

/// Registry allocating concept ids and holding schemas and domains.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ConceptRegistry {
    schemas: Vec<ConceptSchema>,
    by_name: BTreeMap<String, ConceptId>,
    domains: BTreeMap<String, Domain>,
}

impl ConceptRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a concept, allocating its id. Attribute specs may use
    /// `AttrKind::RefTo` with ids of previously registered concepts.
    /// Returns the existing id if the name is already registered.
    pub fn register(&mut self, name: &str, attrs: Vec<AttrSpec>) -> ConceptId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = ConceptId(self.schemas.len() as u32);
        self.schemas.push(ConceptSchema::new(id, name, attrs));
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Look up a concept id by name.
    pub fn id_of(&self, name: &str) -> Option<ConceptId> {
        self.by_name.get(name).copied()
    }

    /// The schema for a concept id.
    pub fn schema(&self, id: ConceptId) -> Option<&ConceptSchema> {
        self.schemas.get(id.0 as usize)
    }

    /// Mutable schema access (for evolution).
    pub fn schema_mut(&mut self, id: ConceptId) -> Option<&mut ConceptSchema> {
        self.schemas.get_mut(id.0 as usize)
    }

    /// All registered schemas.
    pub fn schemas(&self) -> impl Iterator<Item = &ConceptSchema> {
        self.schemas.iter()
    }

    /// Define a domain over already-registered concepts.
    pub fn define_domain(&mut self, name: &str, concept_names: &[&str]) -> &Domain {
        let concepts = concept_names.iter().filter_map(|n| self.id_of(n)).collect();
        self.domains.insert(
            name.to_string(),
            Domain {
                name: name.to_string(),
                concepts,
            },
        );
        &self.domains[name]
    }

    /// Look up a domain by name.
    pub fn domain(&self, name: &str) -> Option<&Domain> {
        self.domains.get(name)
    }

    /// All domains.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LrecId, Tick};
    use crate::provenance::Provenance;

    fn restaurant_schema() -> ConceptSchema {
        ConceptSchema::new(
            ConceptId(0),
            "restaurant",
            vec![
                AttrSpec::new("name", AttrKind::Text, Cardinality::One).identifying(),
                AttrSpec::new("zip", AttrKind::Zip, Cardinality::One),
                AttrSpec::new("phone", AttrKind::Phone, Cardinality::AtMost(2)).identifying(),
                AttrSpec::new("review", AttrKind::RefTo(ConceptId(1)), Cardinality::Many),
            ],
        )
    }

    fn prov() -> Provenance {
        Provenance::ground_truth(Tick(0))
    }

    #[test]
    fn kind_admission() {
        assert!(AttrKind::Text.admits(&AttrValue::Int(1)));
        assert!(AttrKind::Float.admits(&AttrValue::Int(1)));
        assert!(!AttrKind::Int.admits(&AttrValue::Float(1.0)));
        assert!(!AttrKind::Phone.admits(&AttrValue::Text("408".into())));
    }

    #[test]
    fn cardinality_admission() {
        assert!(Cardinality::One.admits_count(0));
        assert!(Cardinality::One.admits_count(1));
        assert!(!Cardinality::One.admits_count(2));
        assert!(Cardinality::AtMost(2).admits_count(2));
        assert!(!Cardinality::AtMost(2).admits_count(3));
        assert!(Cardinality::Many.admits_count(99));
    }

    #[test]
    fn schema_check_clean_record() {
        let s = restaurant_schema();
        let mut r = Lrec::new(LrecId(1), s.id());
        r.add("name", "Gochi".into(), prov());
        r.add("zip", AttrValue::Zip("95014".into()), prov());
        assert!(s.check(&r).is_empty());
    }

    #[test]
    fn schema_check_reports_violations() {
        let s = restaurant_schema();
        let mut r = Lrec::new(LrecId(1), s.id());
        r.add("zip", AttrValue::Text("not-a-zip".into()), prov());
        r.add("phone", AttrValue::Phone("1".into()), prov());
        r.add("phone", AttrValue::Phone("2".into()), prov());
        r.add("phone", AttrValue::Phone("3".into()), prov());
        r.add("parking", "street".into(), prov());
        let v = s.check(&r);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::KindMismatch { key, .. } if key == "zip")));
        assert!(v.iter().any(
            |x| matches!(x, Violation::CardinalityExceeded { key, count: 3 } if key == "phone")
        ));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::UndeclaredKey { key } if key == "parking")));
    }

    #[test]
    fn schema_evolution_absorbs_new_key() {
        let mut s = restaurant_schema();
        s.evolve(AttrSpec::new("parking", AttrKind::Text, Cardinality::One));
        let mut r = Lrec::new(LrecId(1), s.id());
        r.add("parking", "street".into(), prov());
        assert!(s.check(&r).is_empty());
        // Evolving an existing key does not overwrite its spec.
        s.evolve(AttrSpec::new("name", AttrKind::Int, Cardinality::Many));
        assert_eq!(s.attr("name").unwrap().kind, AttrKind::Text);
    }

    #[test]
    fn registry_roundtrip() {
        let mut reg = ConceptRegistry::new();
        let r = reg.register("restaurant", vec![]);
        let v = reg.register("review", vec![]);
        assert_ne!(r, v);
        assert_eq!(reg.register("restaurant", vec![]), r, "idempotent");
        assert_eq!(reg.id_of("review"), Some(v));
        assert_eq!(reg.schema(r).unwrap().name(), "restaurant");
        let d = reg.define_domain("local", &["restaurant", "review"]);
        assert_eq!(d.concepts.len(), 2);
        assert!(reg.domain("local").is_some());
        assert!(reg.domain("nope").is_none());
    }

    #[test]
    fn identifying_attrs() {
        let s = restaurant_schema();
        let keys: Vec<_> = s.identifying_attrs().map(|a| a.key.as_str()).collect();
        assert_eq!(keys, vec!["name", "phone"]);
    }
}
