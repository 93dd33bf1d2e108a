//! # woc-lrec — loosely-structured records, the paper's representational core
//!
//! Paper §2.2 proposes describing an instance of a concept as a
//! *loosely-structured record* (`lrec`): a collection of `(attribute-key,
//! value)` pairs with two stipulations:
//!
//! 1. a distinguished `id` key uniquely identifying the record in the stored
//!    corpus ([`LrecId`], enforced by [`Store`]), and
//! 2. per-concept metadata listing the attributes for which instances may
//!    have values ([`ConceptSchema`]), such that the concept of any record
//!    can be determined ([`Lrec::concept`]).
//!
//! We add the practical extensions §2.3 and §7.3 call for: provenance and
//! confidence on every value ([`Provenance`]), versioned records in the store
//! (maintenance under change), evolvable schemas (unknown attributes are
//! admitted and recorded), and domains as named sets of concepts
//! ([`Domain`]).
//!
//! The model is deliberately **flat** — no nested structure — so that records
//! map directly onto inverted-index infrastructure (see `woc-index`); records
//! reference each other through typed [`value::AttrValue::Ref`] values, which
//! is how taxonomic (`is_a`, `part_of`) and associative links are expressed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domains;
pub mod ids;
pub mod provenance;
pub mod record;
pub mod schema;
pub mod snapshot;
pub mod store;
pub mod value;

pub use ids::{ConceptId, LrecId, Tick};
pub use provenance::{Provenance, SiteSupport, SourceRef};
pub use record::{Lrec, ValueEntry};
pub use schema::{
    AttrKind, AttrSpec, Cardinality, ConceptRegistry, ConceptSchema, Domain, Violation,
};
pub use store::{Store, StoreError};
pub use value::AttrValue;
