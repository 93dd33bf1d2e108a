//! Shard nodes: shard-local indexes scored through corpus-global
//! statistics, held in replicated epoch-swapped slots.
//!
//! Each shard owns a disjoint subset of the web's records and documents
//! (see [`crate::partition`]). A shard indexes *only* what it owns, but
//! scores through a [`ScoringStats`] snapshot taken from the full-web
//! indexes — BM25 idf and average length are corpus-global, so a shard hit
//! carries the bitwise-identical score the single-node index would give
//! the same record. The record side *is* a segment: a frozen
//! [`LrecSegment`] over the owned records, scored through the epoch's
//! pinned statistics with its own block-max metadata and nothing dead —
//! exactly what a delta segment of the single node's
//! [`woc_index::SegmentedLrecIndex`] is — so the router scatters over
//! shards the way that index scatters over slots and both finish in the
//! one [`woc_index::gather`].
//!
//! A [`ShardNode`] holds `R` replica slots. Each slot epoch-swaps an
//! `Arc<ReplicaState>` exactly the way `woc-serve` swaps snapshots: a
//! publish installs a new `Arc`, in-flight readers drain on the old one.
//! Replica state is two independently-reusable halves — the record side
//! and the doc side — so an incremental publish that only touched one
//! side re-ships only that side (see `ClusterServer::publish`).

use std::sync::Arc;

use parking_lot::RwLock;

use woc_core::{doc_tokens, WebOfConcepts};
use woc_index::{InvertedIndex, LrecSegment, ScoringStats};
use woc_lrec::{ConceptId, LrecId};
use woc_serve::Snapshot;
use woc_textkit::Fnv1a;
use woc_webgen::WebCorpus;

use crate::partition::PartitionMap;

/// Chain digest `v` onto digest `h`.
fn mix64(h: u64, v: u64) -> u64 {
    let mut h = Fnv1a::resume(h);
    h.u64(v);
    h.finish()
}

/// The record side of one shard: a frozen [`LrecSegment`] over the owned
/// records plus the global stats it scores through.
#[derive(Debug)]
pub struct ShardRecords {
    /// The shard this side belongs to.
    pub shard: usize,
    /// The owned records, frozen in ascending id order.
    pub segment: LrecSegment,
    /// Corpus-global scoring statistics — the *pinned* statistics of the
    /// epoch's segmented index, so shard scores are bitwise-identical to
    /// the single-node segmented search path even between merge points
    /// (at a merge point the pinned statistics equal the flat index's own).
    pub stats: ScoringStats,
    /// The segment's own statistics (document frequencies of owned
    /// records) — the router's deterministic cost model reads these.
    pub local_stats: ScoringStats,
    /// Digest of the inputs this side was built from (owned entries +
    /// global stats); equal digests ⇒ a rebuild would be byte-identical,
    /// so the old `Arc` can be reshipped.
    pub entries_digest: u64,
    /// Digest of the built content, for W013 replica-divergence checks.
    pub content_digest: u64,
}

impl ShardRecords {
    /// Deterministic virtual service cost of a query on this shard, in
    /// postings walked: the sum of shard-local document frequencies over
    /// the query's rendered index terms. Scoring walks each term's posting
    /// list once, so this is the honest work proxy the latency model
    /// charges.
    pub fn postings_cost(&self, terms: &[String]) -> u64 {
        terms.iter().map(|t| self.local_stats.df(t) as u64).sum()
    }
}

/// The document side of one shard: an [`InvertedIndex`] over owned pages
/// plus the local→global doc-id mapping.
#[derive(Debug)]
pub struct ShardDocs {
    /// The shard this side belongs to.
    pub shard: usize,
    /// Global doc-index positions owned by this shard, ascending; entry
    /// `i` is the global position of shard-local `DocId(i)`.
    pub global: Vec<u32>,
    /// Shard-local inverted index over the owned pages' text.
    pub index: InvertedIndex,
    /// Corpus-global scoring statistics of the *full* doc index.
    pub stats: ScoringStats,
    /// Shard-local statistics, for the router's cost model.
    pub local_stats: ScoringStats,
    /// Input digest (owned pages + global stats) for reuse decisions.
    pub entries_digest: u64,
    /// Built-content digest for W013.
    pub content_digest: u64,
}

impl ShardDocs {
    /// Raw doc search over owned pages through global stats; hits carry
    /// *global* doc positions so the router's merge reproduces the full
    /// index's `(score desc, doc asc)` order.
    pub fn raw_search(&self, terms: &[String], fetch: usize) -> Vec<(u32, f64)> {
        self.index
            .search_terms_with_stats(terms, fetch, &self.stats)
            .into_iter()
            .filter_map(|h| self.global.get(h.doc.0 as usize).map(|&g| (g, h.score)))
            .collect()
    }

    /// Deterministic virtual service cost (postings walked) of a doc query.
    pub fn postings_cost(&self, terms: &[String]) -> u64 {
        terms.iter().map(|t| self.local_stats.df(t) as u64).sum()
    }
}

/// Digest of everything the record side of a shard would be built from:
/// the owned `(id, concept, tokens)` entries in ascending id order, plus
/// the pinned global scoring stats. Two equal digests guarantee
/// byte-identical rebuilds, so the publisher can re-ship the old `Arc`
/// instead. Because the pinned statistics are stable across delta epochs,
/// a delta publish rebuilds only the shards that own changed records.
pub fn record_entries_digest(
    entries: &[(LrecId, ConceptId, Vec<String>)],
    stats: &ScoringStats,
) -> u64 {
    let mut h = Fnv1a::new();
    for (id, concept, tokens) in entries {
        h.u64(id.0);
        h.u64(concept.0 as u64);
        for t in tokens {
            h.u64(Fnv1a::of(t));
        }
    }
    h.u64(stats.digest());
    h.finish()
}

/// Digest of the doc side's inputs: owned `(global position, url, token
/// digest)` entries plus the global doc stats.
pub fn doc_entries_digest(
    woc: &WebOfConcepts,
    corpus: &WebCorpus,
    pm: &PartitionMap,
    shard: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    for pos in pm.doc_positions_of_shard(woc, shard) {
        let url = &woc.doc_urls[pos as usize];
        h.u64(pos as u64);
        h.u64(Fnv1a::of(url));
        if let Some(page) = corpus.get(url) {
            for t in doc_tokens(page) {
                h.u64(Fnv1a::of(&t));
            }
        }
    }
    h.u64(woc.doc_index.scoring_stats().digest());
    h.finish()
}

/// Freeze the record side of `shard` from its owned entries (ascending id
/// order — the order the pipeline feeds the full index, so merge ties
/// resolve identically).
pub fn build_shard_records(
    shard: usize,
    entries: Vec<(LrecId, ConceptId, Vec<String>)>,
    entries_digest: u64,
    stats: ScoringStats,
) -> ShardRecords {
    let segment = LrecSegment::build(entries);
    let local_stats = segment.scoring_stats();
    let content_digest = mix64(segment.digest(), stats.digest());
    ShardRecords {
        shard,
        segment,
        stats,
        local_stats,
        entries_digest,
        content_digest,
    }
}

/// Build the doc side of `shard`: index each owned page's token stream
/// (exactly what the full pipeline indexes for it) in ascending global
/// position order.
pub fn build_shard_docs(
    woc: &WebOfConcepts,
    corpus: &WebCorpus,
    pm: &PartitionMap,
    shard: usize,
    entries_digest: u64,
) -> ShardDocs {
    let global = pm.doc_positions_of_shard(woc, shard);
    let mut index = InvertedIndex::new();
    for &pos in &global {
        let url = &woc.doc_urls[pos as usize];
        match corpus.get(url) {
            Some(page) => {
                index.add_tokens(&doc_tokens(page));
            }
            // A URL the corpus no longer carries indexes as empty — it can
            // never match, which is the only sound degraded behavior.
            None => {
                index.add_tokens::<String>(&[]);
            }
        }
    }
    let stats = woc.doc_index.scoring_stats();
    let local_stats = index.scoring_stats();
    let content_digest = mix64(index.digest(), stats.digest());
    ShardDocs {
        shard,
        global,
        index,
        stats,
        local_stats,
        entries_digest,
        content_digest,
    }
}

/// One replica's installed state: an epoch-consistent view of the full
/// snapshot (for hydration) plus the two shard-local index sides.
#[derive(Debug, Clone)]
pub struct ReplicaState {
    /// The epoch this replica serves.
    pub epoch: u64,
    /// The full-web snapshot of that epoch (shared `Arc` — hydration and
    /// metadata only, never scanned for search).
    pub snap: Arc<Snapshot>,
    /// Record side.
    pub records: Arc<ShardRecords>,
    /// Doc side.
    pub docs: Arc<ShardDocs>,
}

impl ReplicaState {
    /// Content digest of everything this replica serves — the value the
    /// W013 shard-coverage audit compares across replicas.
    pub fn digest(&self) -> u64 {
        mix64(self.records.content_digest, self.docs.content_digest)
    }
}

/// One shard node: `R` replica slots, each epoch-swapping an
/// `Arc<ReplicaState>` under a `RwLock` exactly like `woc-serve`'s
/// snapshot swap. Readers clone the `Arc` and evaluate lock-free.
#[derive(Debug)]
pub struct ShardNode {
    slots: Vec<RwLock<Arc<ReplicaState>>>,
}

impl ShardNode {
    /// A node with `replicas` slots, all serving `initial`.
    pub fn new(replicas: usize, initial: Arc<ReplicaState>) -> Self {
        assert!(replicas >= 1, "a shard needs at least one replica");
        Self {
            slots: (0..replicas)
                .map(|_| RwLock::new(Arc::clone(&initial)))
                .collect(),
        }
    }

    /// Number of replica slots.
    pub fn replicas(&self) -> usize {
        self.slots.len()
    }

    /// Pin replica `r`'s current state.
    pub fn replica(&self, r: usize) -> Arc<ReplicaState> {
        let slot = self
            .slots
            .get(r)
            .expect("invariant: replica index < replicas()");
        Arc::clone(&slot.read())
    }

    /// Install `state` into replica `r` (the epoch swap).
    pub fn install(&self, r: usize, state: Arc<ReplicaState>) {
        *self.slots[r].write() = state;
    }
}
