//! # woc-incr — incremental maintenance of the web of concepts
//!
//! Paper §7.3, "managing change": "There is an obvious efficiency challenge
//! in processing the same web pages repeatedly without re-incurring the
//! full cost of extraction when the page is not modified in a material
//! way." This crate is that engine, layered over the construction pipeline:
//!
//! 1. **Change detection** — every page gets a stable content fingerprint
//!    ([`woc_webgen::Page::fingerprint`]); [`IncrEngine::changes`] diffs the
//!    fingerprints of a fresh crawl against the previous epoch's into a
//!    [`ChangeSet`] of dirty, added and removed pages. A page is
//!    fingerprinted once per corpus that holds it — a `WebCorpus` keeps the
//!    fingerprints of its pages, so a crawl edited in place costs only its
//!    replaced pages — and the vector a pass diffs is the one the replay
//!    keys its per-page memos on.
//! 2. **Dirty-set propagation** — the lineage DAG maps dirty pages to the
//!    records derived from them ([`woc_core::Lineage::records_from_document`]);
//!    the pass reports the affected partition and which records are
//!    tombstoned because every source page vanished.
//! 3. **Scoped recomputation with index patching** — [`IncrEngine::maintain`]
//!    replays the deterministic pipeline through
//!    [`woc_core::build_with_caches`] — the one build pass, which a cold
//!    build runs over empty caches: extraction, pair scoring, mention
//!    scanning and index construction are content-keyed memos, so only work
//!    downstream of the dirty set is recomputed, and index postings are
//!    patched in place ([`woc_index::InvertedIndex::replace_doc`]) rather
//!    than rebuilt. Entity resolution is memoized per concept: a concept no
//!    dirty page reaches — its record sequence is unchanged — skips
//!    blocking and scoring, and one a dirty page does reach blocks afresh
//!    and carries every pair score its previous partition already holds
//!    (the concept-partition memo, `woc_core::memo`;
//!    [`MaintainReport::pairs_carried`]). Because every memo is a pure-function memo, the
//!    maintained web is **byte-identical** to a from-scratch rebuild at the
//!    same epoch — [`canonical_bytes`] is the oracle the equivalence tests
//!    and the `incr-equivalence` CI gate compare with. Consecutive epochs
//!    share what the pass did not change: records, versions and posting
//!    lists are copy-on-write behind `Arc`s, a clean page's typed records
//!    are re-inserted as the allocations the previous epoch holds
//!    ([`MaintainReport::records_retyped`] counts the rest), and only
//!    records whose stored value moved are tokenized again
//!    ([`MaintainReport::record_tokens_recomputed`]) — so a pass allocates,
//!    and retiring an epoch frees, about its delta.
//! 4. **Delta publishing** — a pass says once what it changed:
//!    [`IncrEngine::maintain`] builds the [`woc_serve::SegmentDelta`] it
//!    will publish ([`MaintainReport::delta`]) from the record-index diff
//!    the build emits (one [`woc_index::RecordChange`] per record whose
//!    indexed tokens moved), and hands that same diff to the segmented
//!    index as its next delta segment.
//!    [`IncrEngine::maintain_and_publish`] ships the maintained web, its
//!    segmented index and that delta through the serving tier's one
//!    publish door ([`woc_serve::ConceptServer::publish_delta_segmented`]),
//!    and the streaming ingest journals the same delta. An epoch is
//!    one object: the engine holds its web behind an `Arc` and the publish
//!    ships a clone of the pointer, so the engine, the served snapshot and
//!    every pinned reader share one allocation — built once, never
//!    deep-cloned, freed once when its last holder lets go. A no-op pass
//!    keeps the served epoch and its warm result cache; a real change
//!    publishes a new epoch and invalidates only the cached answers its
//!    changed terms and records touch. A failed pass publishes nothing and
//!    marks the server degraded.
//!
//! An empty [`ChangeSet`] short-circuits the whole pass —
//! [`MaintainReport::short_circuited`] — without rebuilding or publishing
//! anything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use serde::{Serialize, Value};
use woc_core::{build_with_caches, AssocKind, BuildCaches, PipelineConfig, WebOfConcepts};
use woc_index::{MergePolicy, SegmentedLrecIndex};
use woc_lrec::{ConceptId, Lrec, LrecId};
use woc_serve::{ConceptServer, SegmentDelta};

pub use woc_serve::MaintainError;
use woc_webgen::WebCorpus;

/// The page-level diff between the engine's current epoch and a fresh
/// crawl. URLs are sorted, so the set is deterministic regardless of
/// corpus iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChangeSet {
    /// Pages present in both crawls whose content fingerprint changed.
    pub dirty: Vec<String>,
    /// Pages present only in the new crawl.
    pub added: Vec<String>,
    /// Pages present only in the old crawl.
    pub removed: Vec<String>,
}

impl ChangeSet {
    /// Total number of changed pages.
    pub fn len(&self) -> usize {
        self.dirty.len() + self.added.len() + self.removed.len()
    }

    /// True when nothing changed — maintenance can short-circuit.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What one [`IncrEngine::maintain`] pass scanned, found and recomputed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MaintainReport {
    /// Pages in the new crawl.
    pub pages_scanned: usize,
    /// Pages whose fingerprint changed, plus added and removed pages.
    pub pages_dirty: usize,
    /// `Page::fingerprint` calls since the previous replay began, charged
    /// to this one. A corpus keeps the fingerprint of each page it holds,
    /// so a crawl handed over as a new `WebCorpus` costs `pages_scanned`
    /// calls and one edited in place (`WebCorpus::add` / `remove`) only its
    /// replaced and added pages. A short-circuited or rejected pass replays
    /// nothing; what it hashed is charged to the next replay.
    pub pages_fingerprinted: usize,
    /// True when the change set was empty and the pass did nothing.
    pub short_circuited: bool,
    /// Live records derived (per lineage) from dirty or removed pages —
    /// the partition the pass had to reconsider.
    pub records_affected: usize,
    /// Affected records whose every source page vanished (tombstoned in
    /// the maintained web).
    pub records_tombstoned: usize,
    /// Concepts with at least one affected record (sorted) — reported for
    /// observability; retention is scoped by terms and records.
    pub touched_concepts: Vec<ConceptId>,
    /// Pages whose extraction was actually recomputed.
    pub pages_reextracted: usize,
    /// Records typed afresh: the records of every page whose content or
    /// first record id changed. Every other record of the new web is the
    /// allocation the previous epoch already held.
    pub records_retyped: usize,
    /// Candidate pairs whose match score was actually recomputed.
    pub pairs_rescored: usize,
    /// Candidate pairs whose score was carried over from the concept's
    /// previous partition. After a pass that only removed pages
    /// `pairs_rescored` is 0 and this is every surviving candidate.
    pub pairs_carried: usize,
    /// Pages re-scanned for record mentions.
    pub mention_pages_rescanned: usize,
    /// `(term, doc)` postings removed or inserted by in-place index
    /// patching.
    pub postings_patched: usize,
    /// Live records whose index tokens were recomputed; the rest kept the
    /// token lists of the previous pass.
    pub record_tokens_recomputed: usize,
    /// True when the record index could not be patched and was rebuilt.
    pub record_index_rebuilt: bool,
    /// True when the document index could not be patched and was rebuilt.
    pub doc_index_rebuilt: bool,
    /// True when the maintained web actually differs from the previous
    /// epoch's ([`canonical_bytes`]-level). A pass can be *dirty but
    /// ineffective*: a cosmetic DOM edit changes a page fingerprint, every
    /// downstream memo recomputes to identical output, and the rebuilt web
    /// is byte-identical — publishing it would drop a warm cache for
    /// nothing. Short-circuited passes report `false`.
    pub effective_change: bool,
    /// What the pass published, already folded: the plane flags, the
    /// exact changed-term set, the changed-record set and whether the
    /// segmented index re-pinned its statistics. A short-circuited or
    /// ineffective pass leaves it the no-op delta with empty lists
    /// ([`SegmentDelta::is_noop`]): same epoch, warm cache.
    ///
    /// `changed_terms` is the union of the old and new token sequences of
    /// every record whose indexed tokens moved (sorted, deduplicated) —
    /// exact, from the memo layer's record-index diff. `changed_records`
    /// is the lineage-affected partition on both sides of the pass plus
    /// every record the index diff touched, filtered to those whose stored
    /// content or liveness moved (sorted). A record outside it *renders*
    /// identically when served — its hydrated search hit is unchanged —
    /// but its stored provenance may have moved: a pass that removes pages
    /// can shift the trust or confidence recorded on records no changed
    /// page derives. Those records stay off the list on purpose — listing
    /// them would drop cached answers that are still correct.
    /// (`tests/delta_completeness.rs` checks both sets against cold builds
    /// of the crawls on either side of the pass.)
    pub delta: SegmentDelta,
    /// The unfiltered candidate partition `delta.changed_records` was
    /// filtered from: every canonical record lineage-derived from a dirty,
    /// added or removed page (on either side of the pass) plus every record
    /// the index diff touched (sorted). `changed_records ⊆
    /// affected_records` by construction — the audit's W015 micro-epoch
    /// check verifies exactly this containment for every published
    /// micro-epoch of a streaming ingest.
    pub affected_records: Vec<LrecId>,
    /// Delta-segment merges the segmented index's size-tiered policy ran
    /// while absorbing this pass.
    pub segment_merges: usize,
}

/// A pre-rebuild gate: sees the change set, returns `Err(reason)` to abort
/// the pass before any state is touched.
pub type FaultHook = Box<dyn Fn(&ChangeSet) -> Result<(), String> + Send>;

/// The incremental maintenance engine: holds the current web, the page
/// fingerprints it was built from, and the memo caches that make the next
/// pass cheap. The web sits behind an `Arc` the engine shares with the
/// serving tier ([`IncrEngine::maintain_and_publish`]): one allocation per
/// epoch, whoever reads it.
pub struct IncrEngine {
    config: PipelineConfig,
    caches: BuildCaches,
    fingerprints: HashMap<String, u64>,
    web: Arc<WebOfConcepts>,
    segments: SegmentedLrecIndex,
    fault_hook: Option<FaultHook>,
}

impl fmt::Debug for IncrEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrEngine")
            .field("config", &self.config)
            .field("pages", &self.fingerprints.len())
            .field("fault_hook", &self.fault_hook.is_some())
            .finish_non_exhaustive()
    }
}

impl IncrEngine {
    /// Build the initial web from `corpus` (a full build that warms every
    /// cache) and remember its fingerprints.
    pub fn new(corpus: &WebCorpus, config: PipelineConfig) -> Self {
        let mut caches = BuildCaches::new();
        let fps = caches.fingerprint_pages(corpus, config.threads);
        let web = build_with_caches(corpus, &config, &mut caches, &fps);
        let segments = web.segmented_record_index(MergePolicy::default());
        Self {
            config,
            caches,
            fingerprints: fingerprint_map(corpus, &fps),
            web: Arc::new(web),
            segments,
            fault_hook: None,
        }
    }

    /// The pipeline configuration every pass of this engine builds with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Install a pre-rebuild gate consulted by every maintain pass (after
    /// change detection, before any state is touched). `Err(reason)` from
    /// the hook aborts the pass as [`MaintainError::FaultInjected`].
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.fault_hook = Some(hook);
    }

    /// Remove the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.fault_hook = None;
    }

    /// The current maintained web.
    pub fn web(&self) -> &WebOfConcepts {
        &self.web
    }

    /// The current maintained web as the engine holds it: the allocation
    /// [`Self::maintain_and_publish`] ships, for a caller that publishes an
    /// epoch itself.
    pub fn shared_web(&self) -> Arc<WebOfConcepts> {
        Arc::clone(&self.web)
    }

    /// The engine's incrementally-maintained segmented record index: a
    /// frozen base pinned at the initial build's statistics plus one small
    /// delta segment per effective pass, compacted by the size-tiered merge
    /// policy. Its flattened contents always equal [`Self::web`]'s record
    /// index (the `W014` audit checks exactly this).
    pub fn segments(&self) -> &SegmentedLrecIndex {
        &self.segments
    }

    /// Pre-seed the engine's extraction memo with an externally computed
    /// result for the page whose content fingerprint is `fp` — the seam the
    /// streaming ingest dataflow (`woc-stream`) feeds its ingest stage's
    /// extractions through, so the next [`Self::maintain`] replay hits the memo
    /// instead of re-extracting the page. The caller certifies `records` is
    /// exactly what the pipeline's extraction stage would produce for a
    /// page with this fingerprint; a wrong seed would break the
    /// byte-identity contract (and the equivalence suite would catch it).
    pub fn seed_extraction(
        &mut self,
        fp: u64,
        records: std::sync::Arc<Vec<woc_extract::ExtractedRecord>>,
    ) {
        self.caches.seed_extract(fp, records);
    }

    /// Layer 1 — change detection: diff `corpus` against the fingerprints
    /// of the engine's current epoch.
    pub fn changes(&self, corpus: &WebCorpus) -> ChangeSet {
        self.changes_from(corpus, &corpus.page_fingerprints())
    }

    /// Change detection against the already-computed page-order
    /// fingerprints of `corpus` (so a maintain pass fingerprints each page
    /// exactly once).
    fn changes_from(&self, corpus: &WebCorpus, new_fps: &[u64]) -> ChangeSet {
        let mut set = ChangeSet::default();
        for (page, &fp) in corpus.pages().iter().zip(new_fps) {
            match self.fingerprints.get(&page.url) {
                Some(&old) if old == fp => {}
                Some(_) => set.dirty.push(page.url.clone()),
                None => set.added.push(page.url.clone()),
            }
        }
        set.removed = self
            .fingerprints
            .keys()
            .filter(|url| corpus.get(url).is_none())
            .cloned()
            .collect();
        set.dirty.sort_unstable();
        set.added.sort_unstable();
        set.removed.sort_unstable();
        set
    }

    /// Layers 2+3 — maintain the web against a fresh crawl: detect
    /// changes, short-circuit if there are none, otherwise propagate the
    /// dirty set through lineage and replay the pipeline over the warm
    /// memo caches. Afterwards [`Self::web`] is byte-identical
    /// ([`canonical_bytes`]) to a from-scratch build of `corpus`.
    ///
    /// The pass is **transactional**: if the fault hook rejects it or the
    /// pipeline replay panics, `Err` is returned and the engine's web and
    /// fingerprints are exactly what they were before the call — the last
    /// good epoch stays servable.
    pub fn maintain(&mut self, corpus: &WebCorpus) -> Result<MaintainReport, MaintainError> {
        let new_fps = self.caches.fingerprint_pages(corpus, self.config.threads);
        let changes = self.changes_from(corpus, &new_fps);
        let mut report = MaintainReport {
            pages_scanned: corpus.len(),
            pages_dirty: changes.len(),
            ..MaintainReport::default()
        };
        if changes.is_empty() {
            report.short_circuited = true;
            return Ok(report);
        }
        if let Some(hook) = &self.fault_hook {
            // The hook runs under the same unwind protection as the
            // rebuild: a panicking gate aborts the pass, it doesn't tear
            // down the engine.
            catch_unwind(AssertUnwindSafe(|| hook(&changes)))
                .map_err(MaintainError::from_panic)?
                .map_err(MaintainError::FaultInjected)?;
        }

        // Dirty-set propagation: which live records derive from the pages
        // that changed or vanished? (Lineage speaks pre-merge ids; resolve
        // to canonical survivors.)
        let mut affected: BTreeSet<LrecId> = BTreeSet::new();
        for url in changes.dirty.iter().chain(&changes.removed) {
            for id in self.web.lineage.records_from_document(url) {
                if let Some(canon) = self.web.store.resolve(id) {
                    affected.insert(canon);
                }
            }
        }
        let removed_urls: HashSet<&str> = changes.removed.iter().map(String::as_str).collect();
        report.records_tombstoned = affected
            .iter()
            .filter(|&&id| {
                let docs = self.web.web.docs_of_kind(id, AssocKind::ExtractedFrom);
                !docs.is_empty() && docs.iter().all(|d| removed_urls.contains(d))
            })
            .count();
        report.records_affected = affected.len();
        let mut touched: BTreeSet<ConceptId> = affected
            .iter()
            .filter_map(|&id| self.web.store.latest(id).map(|r| r.concept()))
            .collect();

        // Scoped recomputation: replay the pipeline over the warm caches.
        // Only content downstream of the dirty set misses its memos. The
        // replay runs under `catch_unwind` so a panicking pass aborts
        // cleanly instead of poisoning the epoch. `AssertUnwindSafe` is
        // justified: the only state the closure mutates is the memo
        // caches, whose entries are content-keyed pure-function results —
        // a panic can strand freshly inserted (valid) entries but cannot
        // leave a wrong one, and `self.web` / `self.fingerprints` are not
        // touched until the replay has returned.
        let new_web = catch_unwind(AssertUnwindSafe(|| {
            build_with_caches(corpus, &self.config, &mut self.caches, &new_fps)
        }))
        .map_err(MaintainError::from_panic)?;

        // Records born from added or rewritten pages scope the delta too.
        let mut affected_new: BTreeSet<LrecId> = BTreeSet::new();
        for url in changes.dirty.iter().chain(&changes.added) {
            for id in new_web.lineage.records_from_document(url) {
                if let Some(canon) = new_web.store.resolve(id) {
                    if let Some(rec) = new_web.store.latest(canon) {
                        touched.insert(rec.concept());
                        affected_new.insert(canon);
                    }
                }
            }
        }
        report.touched_concepts = touched.into_iter().collect();

        let stats = self.caches.stats();
        report.pages_fingerprinted = stats.pages_fingerprinted;
        report.pages_reextracted = stats.pages_reextracted;
        report.records_retyped = stats.records_retyped;
        report.record_tokens_recomputed = stats.record_tokens_recomputed;
        report.pairs_rescored = stats.pairs_rescored;
        report.pairs_carried = stats.score_hits;
        report.mention_pages_rescanned = stats.mention_pages_rescanned;
        report.postings_patched = stats.postings_patched;
        report.record_index_rebuilt = stats.record_index_rebuilt;
        report.doc_index_rebuilt = stats.doc_index_rebuilt;

        // Did the pass actually change anything the web serves from? Any
        // index patch or rebuild is proof of change, as is a tombstone.
        // When every cheap signal is quiet — the cosmetic-change case —
        // fall back to the byte-level oracle. The oracle only runs on
        // quiet passes, so real-churn maintenance never pays for it.
        let cheap_change = stats.postings_patched > 0
            || stats.records_repatched > 0
            || stats.record_index_rebuilt
            || stats.doc_index_rebuilt
            || report.records_tombstoned > 0;
        report.effective_change =
            cheap_change || canonical_bytes(&new_web) != canonical_bytes(&self.web);

        // The retention scope of the pass, in the cache's vocabulary: the
        // exact terms whose posting lists moved (the memo layer's
        // record-index diff) and the records whose stored content or
        // liveness moved. The candidates are the lineage-affected partition
        // on both sides plus everything the diff touched; lineage is
        // deliberately coarse — a dirty *list* page affects every record it
        // mentions — so the published set is filtered down. It stays a
        // sound invalidation scope: any content change originates from a
        // changed page, and lineage captures every such record.
        let record_changes = self.caches.take_record_changes();
        let mut candidates = affected;
        candidates.extend(affected_new);
        candidates.extend(record_changes.iter().map(|c| c.id));
        report.affected_records = candidates.iter().copied().collect();
        if report.effective_change {
            let changed_terms: BTreeSet<&String> = record_changes
                .iter()
                .flat_map(|c| c.old_tokens.iter().chain(&c.new_tokens).flatten())
                .collect();
            report.delta = SegmentDelta {
                records_changed: report.records_affected > 0 || report.records_tombstoned > 0,
                // Any dirty/added/removed page perturbs the doc index.
                docs_changed: report.pages_dirty > 0,
                changed_terms: changed_terms.into_iter().cloned().collect(),
                changed_records: candidates
                    .into_iter()
                    .filter(|&id| served_record(&self.web, id) != served_record(&new_web, id))
                    .collect(),
                stats_repinned: false,
            };
        }

        // The swap frees nothing while the serving tier still holds the
        // outgoing epoch; the one deep drop per epoch happens wherever its
        // last holder lets go.
        self.web = Arc::new(new_web);
        self.fingerprints = fingerprint_map(corpus, &new_fps);

        // Absorb the pass into the segmented index as one delta segment
        // (newest-wins shadowing; tombstones for removals), letting the
        // size-tiered policy merge as it goes. An empty diff appends
        // nothing, so the segment structure only grows on real change —
        // and a non-empty one always patched or rebuilt the record index,
        // so the pass is effective and its delta carries the re-pin.
        if !record_changes.is_empty() {
            debug_assert!(report.effective_change, "an index diff is a change");
            let outcome = self.segments.apply_delta(record_changes);
            report.segment_merges = outcome.merges;
            report.delta.stats_repinned = outcome.repinned;
        }
        Ok(report)
    }

    /// Layer 4 — maintain, then publish the result through the serving
    /// tier's one door ([`woc_serve::ConceptServer::publish_delta_segmented`]):
    /// the server ships the engine's own web — the same `Arc`, not a copy —
    /// with its maintained segments (sharing the frozen base across epochs)
    /// and retains every cached entry whose scope the pass provably did not
    /// touch, instead of dropping the cache wholesale.
    /// A short-circuited or ineffective pass publishes nothing: the server
    /// keeps its epoch and its warm result cache. A failed pass publishes
    /// nothing either — the error is recorded on the server, which stays
    /// degraded on the previous epoch until the next pass succeeds, and
    /// propagates. Returns the pass report and the epoch now being served.
    pub fn maintain_and_publish(
        &mut self,
        corpus: &WebCorpus,
        server: &ConceptServer,
    ) -> Result<(MaintainReport, u64), MaintainError> {
        let report = self
            .maintain(corpus)
            .inspect_err(|err| server.record_maintain_failure(err))?;
        let epoch = server.publish_delta_segmented(
            Arc::clone(&self.web),
            &report.delta,
            Arc::new(self.segments.clone()),
        );
        Ok((report, epoch))
    }
}

/// The [`SegmentDelta`] a pass published: [`MaintainReport::delta`].
/// Kept only for the benchmark adapter, which calls it; the next change to
/// the benchmark reads `report.delta` and deletes this.
pub fn segment_delta(report: &MaintainReport) -> SegmentDelta {
    report.delta.clone()
}

/// What a reader can be served of record `id`: its latest version while it
/// is live. A record merged away or retracted serves nothing, though the
/// store still holds its versions — so a merge, an un-merge or a
/// retraction that leaves the stored content equal still counts as a
/// change.
fn served_record(woc: &WebOfConcepts, id: LrecId) -> Option<&Lrec> {
    woc.store
        .latest(id)
        .filter(|_| woc.store.resolve(id) == Some(id))
}

/// URL → fingerprint, from the page-order fingerprints of `corpus`.
fn fingerprint_map(corpus: &WebCorpus, fps: &[u64]) -> HashMap<String, u64> {
    corpus
        .pages()
        .iter()
        .zip(fps)
        .map(|(p, &fp)| (p.url.clone(), fp))
        .collect()
}

/// Serialization wrapper whose value tree has already been canonicalized.
struct Canon(Value);

impl Serialize for Canon {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Sort every object's entries by key, recursively. The vendored serde
/// serializes maps in iteration order — per-instance nondeterministic for
/// `HashMap` — so canonical comparison must impose an order itself. Map
/// keys are always rendered as strings (scalar keys are stringified), so a
/// lexicographic sort is total.
fn canonicalize(value: Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.into_iter().map(canonicalize).collect()),
        Value::Object(entries) => {
            let mut entries: Vec<(String, Value)> = entries
                .into_iter()
                .map(|(k, v)| (k, canonicalize(v)))
                .collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(entries)
        }
        scalar => scalar,
    }
}

/// A canonical byte rendering of everything the web serves from: the
/// record store (versions, merges, tombstones), lineage, record↔document
/// associations, the doc tables, and both index digests. Two webs with
/// equal `canonical_bytes` answer every query identically — this is the
/// equivalence oracle for "incremental maintenance ≡ from-scratch
/// rebuild".
pub fn canonical_bytes(woc: &WebOfConcepts) -> Vec<u8> {
    let top = Value::Object(vec![
        ("store".to_string(), canonicalize(woc.store.to_value())),
        ("lineage".to_string(), canonicalize(woc.lineage.to_value())),
        ("web".to_string(), canonicalize(woc.web.to_value())),
        (
            "doc_urls".to_string(),
            canonicalize(woc.doc_urls.to_value()),
        ),
        (
            "doc_titles".to_string(),
            canonicalize(woc.doc_titles.to_value()),
        ),
        (
            "record_index_digest".to_string(),
            Value::UInt(woc.record_index.digest()),
        ),
        (
            "doc_index_digest".to_string(),
            Value::UInt(woc.doc_index.digest()),
        ),
        ("trust_digest".to_string(), Value::UInt(woc.trust.digest())),
    ]);
    serde_json::to_string(&Canon(top))
        .expect("invariant: a canonicalized value tree always serializes")
        .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_core::build;
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    #[test]
    fn canonical_bytes_stable_across_identical_builds() {
        let world = World::generate(WorldConfig::tiny(41));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(5));
        let a = build(&corpus, &PipelineConfig::default());
        let b = build(&corpus, &PipelineConfig::default());
        assert_eq!(
            canonical_bytes(&a),
            canonical_bytes(&b),
            "two from-scratch builds of the same corpus must render identically"
        );
    }

    #[test]
    fn canonical_bytes_detects_differences() {
        let world = World::generate(WorldConfig::tiny(41));
        let a = build(
            &generate_corpus(&world, &CorpusConfig::tiny(5)),
            &PipelineConfig::default(),
        );
        let b = build(
            &generate_corpus(&world, &CorpusConfig::tiny(6)),
            &PipelineConfig::default(),
        );
        assert_ne!(canonical_bytes(&a), canonical_bytes(&b));
    }

    #[test]
    fn cosmetic_dom_change_is_dirty_but_ineffective() {
        use woc_serve::ServeConfig;

        let world = World::generate(WorldConfig::tiny(44));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(9));
        let mut engine = IncrEngine::new(&corpus, PipelineConfig::default());
        let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
        server.search("gochi", 5);
        let warm = server.cache_len();
        assert!(warm > 0);

        // A DOM-attribute-only edit: fingerprint changes, visible text and
        // extraction output do not.
        let mut v2 = WebCorpus::new();
        for (i, p) in corpus.pages().iter().enumerate() {
            let mut p = p.clone();
            if i == 0 {
                if let woc_webgen::Node::Element { attrs, .. } = &mut p.dom {
                    attrs.insert("data-deploy".to_string(), "canary".to_string());
                }
                assert_ne!(
                    p.fingerprint(),
                    corpus.pages()[0].fingerprint(),
                    "the cosmetic edit must still dirty the fingerprint"
                );
            }
            v2.add(p);
        }

        let (report, epoch) = engine
            .maintain_and_publish(&v2, &server)
            .expect("cosmetic pass succeeds");
        assert_eq!(report.pages_dirty, 1, "one page re-fingerprinted");
        assert!(!report.short_circuited, "the pass did run");
        assert!(
            !report.effective_change,
            "…but recomputation produced a byte-identical web"
        );
        assert_eq!(epoch, 1, "no epoch bump for an ineffective pass");
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.cache_len(), warm, "result cache stays warm");
        assert!(server.search("gochi", 5).cached);
        // The maintained web is still the from-scratch truth for v2.
        assert_eq!(
            canonical_bytes(engine.web()),
            canonical_bytes(&build(&v2, &PipelineConfig::default())),
        );

        // A real content change on the same engine still publishes.
        let mut v3 = WebCorpus::new();
        for (i, p) in v2.pages().iter().enumerate() {
            let mut p = p.clone();
            if i == 1 {
                p.title.push_str(" (renovated)");
            }
            v3.add(p);
        }
        let (report, epoch) = engine
            .maintain_and_publish(&v3, &server)
            .expect("real change publishes");
        assert!(report.effective_change);
        assert_eq!(epoch, 2);
        // The segmented publish retains entries the pass provably did not
        // touch instead of dropping the cache wholesale; whatever the
        // server answers now must equal a cold evaluation at epoch 2.
        let a = server.search("gochi", 5);
        assert_eq!(a.epoch, 2);
        server.set_cache_enabled(false);
        let fresh = server.search("gochi", 5);
        server.set_cache_enabled(true);
        assert_eq!(
            format!("{:?}", a.value),
            format!("{:?}", fresh.value),
            "post-publish answer must match a cold epoch-2 evaluation"
        );
        // The maintained segments always flatten to the flat truth.
        assert_eq!(
            engine.segments().flatten().digest(),
            engine.web().record_index.digest()
        );
    }

    #[test]
    fn shared_web_is_the_published_allocation() {
        use woc_serve::ServeConfig;

        let world = World::generate(WorldConfig::tiny(45));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(10));
        let mut engine = IncrEngine::new(&corpus, PipelineConfig::default());
        let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
        assert!(std::ptr::eq(&*engine.shared_web(), engine.web()));

        let mut v2 = WebCorpus::new();
        for (i, p) in corpus.pages().iter().enumerate() {
            let mut p = p.clone();
            if i == 1 {
                p.title.push_str(" (renovated)");
            }
            v2.add(p);
        }
        let held = engine.shared_web();
        engine
            .maintain_and_publish(&v2, &server)
            .expect("real change publishes");
        assert!(Arc::ptr_eq(&engine.shared_web(), &server.snapshot().woc));
        assert!(!Arc::ptr_eq(&engine.shared_web(), &held));
    }

    #[test]
    fn changes_classifies_dirty_added_removed() {
        let world = World::generate(WorldConfig::tiny(42));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
        let engine = IncrEngine::new(&corpus, PipelineConfig::default());

        assert!(engine.changes(&corpus).is_empty());

        let mut v2 = WebCorpus::new();
        let pages = corpus.pages();
        // Drop the first page, mutate the second, keep the rest, add one.
        for (i, p) in pages.iter().enumerate() {
            if i == 0 {
                continue;
            }
            let mut p = p.clone();
            if i == 1 {
                p.title.push_str(" (updated)");
            }
            v2.add(p);
        }
        let mut extra = pages[2].clone();
        extra.url = "http://example.test/brand-new".to_string();
        v2.add(extra);

        let set = engine.changes(&v2);
        assert_eq!(set.removed, vec![pages[0].url.clone()]);
        assert_eq!(set.dirty, vec![pages[1].url.clone()]);
        assert_eq!(set.added, vec!["http://example.test/brand-new".to_string()]);
        assert_eq!(set.len(), 3);
    }
}
