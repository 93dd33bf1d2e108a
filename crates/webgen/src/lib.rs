//! # woc-webgen — the synthetic web substrate
//!
//! The paper's system consumes the real 2009 web (yelp.com, city sites,
//! researcher homepages, shopping catalogs, upcoming.yahoo.com, blogs) and
//! proprietary Yahoo! logs. Neither is available, so this crate builds the
//! closest synthetic equivalent (DESIGN.md §2):
//!
//! 1. [`world`] samples a **ground-truth world** of entities (restaurants
//!    with menus and reviews, researchers and publications, products and
//!    offers, events) as lrecs;
//! 2. [`sites`] renders that world through per-site HTML **templates** into
//!    a [`corpus::WebCorpus`] of [`page::Page`]s with hyperlinks — regular
//!    markup *within* a site, different markup *across* sites, plus
//!    realistic value noise (name variants, phone formats);
//! 3. [`evolve`] models **change**: site-wide template drift and world churn
//!    (closures, phone changes), the workloads of robustness and
//!    maintenance experiments;
//! 4. every page carries a [`page::PageTruth`] annotation, invisible to
//!    extractors, against which extraction/matching/classification quality
//!    is measured.
//!
//! Everything is deterministic in the configured seeds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod dom;
pub mod evolve;
pub mod page;
pub mod prose;
pub mod sites;
pub mod world;

pub use corpus::WebCorpus;
pub use dom::{parse_html, Node, NodePath, PathStep};
pub use evolve::{churn_restaurants, drift_site, ChurnEvent, DriftConfig, DriftPlan};
pub use page::{Page, PageKind, PageTruth, TruthRecord};
pub use sites::{
    generate_corpus, AdversarialConfig, AdversarialProfile, AdversarialSite, CorpusConfig,
    SiteStyle,
};
/// The workspace's FNV-1a, re-exported for crates that reach `woc-textkit`
/// only through this one.
pub use woc_textkit::Fnv1a;
pub use world::{World, WorldConfig};
