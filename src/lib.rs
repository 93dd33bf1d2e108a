//! # web-of-concepts
//!
//! A full-system reproduction of **"A Web of Concepts"** (Dalvi, Kumar,
//! Pang, Ramakrishnan, Tomkins, Bohannon, Keerthi, Merugu — PODS 2009):
//! concept-centric web information management, built from scratch in Rust.
//!
//! The paper proposes extracting concept-centric metadata from the web of
//! documents and stitching it into a *web of concepts* — loosely-structured
//! records with provenance and confidence, linked to each other and back to
//! documents — powering richer search, recommendation and advertising. This
//! crate re-exports the whole stack:
//!
//! | layer | crate | paper section |
//! |---|---|---|
//! | text substrate | [`textkit`] | §4.2 domain knowledge |
//! | record model + store | [`lrec`] | §2.2 lrecs |
//! | synthetic web | [`webgen`] | substitution for the 2009 web |
//! | inverted index | [`index`] | §2.2 "existing inverted indexes" |
//! | extraction stack | [`extract`] | §4 |
//! | entity matching | [`matching`] | §6, §7.2 |
//! | the web of concepts | [`core`] | §4, §7.3 |
//! | incremental maintenance | [`incr`] | §7.3 |
//! | applications | [`apps`] | §5 |
//! | serving layer | [`serve`] | §2.2 scalable serving |
//! | usage studies | [`usage`] | §3 |
//!
//! ## Quickstart
//!
//! ```
//! use web_of_concepts::prelude::*;
//!
//! // 1. A ground-truth world and its synthetic web.
//! let world = World::generate(WorldConfig::tiny(7));
//! let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
//!
//! // 2. Build the web of concepts: extract, resolve, link, index.
//! let woc = build(&corpus, &PipelineConfig::default());
//!
//! // 3. Ask it something (the paper's Figure 1 query).
//! let results = augmented_search(&woc, "gochi cupertino", 5);
//! assert!(results.concept_box.is_some());
//! ```
//!
//! See `examples/` for runnable programs and `crates/bench/src/bin/` for the
//! experiment harness regenerating every figure/table (DESIGN.md §4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use woc_apps as apps;
pub use woc_core as core;
pub use woc_extract as extract;
pub use woc_incr as incr;
pub use woc_index as index;
pub use woc_lrec as lrec;
pub use woc_matching as matching;
pub use woc_serve as serve;
pub use woc_textkit as textkit;
pub use woc_usage as usage;
pub use woc_webgen as webgen;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use woc_apps::{
        augmented_search, concept_search, personalized_search, ConceptBox, TransitionEngine,
        UserModel,
    };
    pub use woc_core::{build, PipelineConfig, WebOfConcepts};
    pub use woc_incr::IncrEngine;
    pub use woc_index::{FieldQuery, LrecIndex};
    pub use woc_lrec::{AttrValue, ConceptRegistry, Lrec, LrecId, Provenance, Store, Tick};
    pub use woc_serve::{ConceptServer, ServeConfig};
    pub use woc_usage::{simulate, UsageConfig};
    pub use woc_webgen::{generate_corpus, CorpusConfig, WebCorpus, World, WorldConfig};
}
