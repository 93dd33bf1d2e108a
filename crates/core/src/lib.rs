//! # woc-core — the web of concepts
//!
//! The paper's central artifact: a "semantically rich aggregate view of all
//! the information available on the web for each concept instance". This
//! crate assembles the substrates into that artifact:
//!
//! * [`pipeline`] — the construction pipeline (§4): page extraction (lists +
//!   detail pages) → typed records with provenance → entity resolution →
//!   reconciliation → review linking → semantic linking → indexes;
//! * [`lineage`] — the operator provenance DAG (§7.3), with explanation and
//!   error-attribution queries;
//! * [`uncertainty`] — confidence propagation (noisy-or corroboration) and
//!   value reconciliation under schema cardinalities (§7.3);
//! * [`graph`] — the record↔document bipartite graph (§5.1, §5.4);
//! * [`feed`] — structured-feed ingestion ("contractual feeds", §2.2) with
//!   match-before-create resolution against the existing corpus;
//! * [`quality`] — corpus-level quality assessment (§7.3): per-concept
//!   confidence, conformance, conflicts and corroboration roll-ups;
//! * [`maintain`] — incremental maintenance under recrawls and world change
//!   (§7.3), with cost accounting vs full rebuild;
//! * [`memo`] — content-keyed memo caches every build passes through
//!   ([`pipeline::build_with_caches`]): a cold build runs over empty ones,
//!   a warm pass recomputes only content that changed (the `woc-incr`
//!   engine's substrate);
//! * [`taxonomy`] — §2.3 hierarchies: curated `is_a` chains, `part_of`
//!   containment, and data-driven taxonomy construction by agglomerative
//!   clustering (the curated-vs-data-driven comparison the paper poses).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod feed;
pub mod graph;
pub mod lineage;
pub mod maintain;
pub mod memo;
pub mod parallel;
pub mod pipeline;
pub mod quality;
pub mod report;
pub mod taxonomy;
pub mod trust;
pub mod uncertainty;

pub use feed::{ingest_feed, parse_feed, Feed, FeedError, FeedRecord, FeedReport};
pub use graph::{record_links, reverse_links, AssocKind, ConceptWeb};
pub use lineage::{Lineage, LineageNode, NodeId, NodeKind, QuarantineScope};
pub use maintain::{recrawl, MaintenanceReport};
pub use memo::{doc_tokens, BuildCaches, CacheStats};
pub use parallel::{resolve_threads, shard_map};
pub use pipeline::{
    build, build_with_caches, detail_extract, extract_page, extract_page_with, record_entries,
    PipelineConfig, WebOfConcepts,
};
pub use quality::{assess, ConceptQuality, QualityReport};
pub use report::{PipelineReport, SiteCoverage, StageStat};
pub use taxonomy::{
    bundles_containing, cluster_purity, data_driven_taxonomy, part_of_components, Taxonomy,
};
pub use trust::{pool_key, Claim, Exclusion, Selection, TrustConfig, TrustModel};
pub use uncertainty::{
    apply_reconciliation, group_by_denotation, quality_score, reconcile, reconcile_with_trust,
    Conflict, ReconciledValue, Reconciliation, TrustedExclusion, TrustedReconciliation,
    TrustedWinner,
};
