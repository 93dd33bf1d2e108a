//! Content-keyed memo caches for incremental rebuilds (paper §7.3,
//! "managing change").
//!
//! [`BuildCaches`] lets [`crate::pipeline::build_with_caches`] replay the
//! full deterministic pipeline while skipping its expensive pure stages:
//! page extraction, pair scoring, the mention scan, and index
//! construction. Every cache is a *pure-function memo* — keyed only on the
//! content the cached computation reads — so a cached build is
//! byte-identical to a from-scratch build by construction: each stage
//! either recomputes a value or returns exactly what recomputation would
//! have produced.
//!
//! Lookup and insertion are serial; only cache *misses* fan out through
//! [`crate::parallel::shard_map`], so no cache is ever mutated
//! concurrently and results are independent of thread count.
//!
//! Entries untouched by a pass are evicted at its end (generation
//! tagging), so memory tracks the live corpus rather than its history.
//!
//! ## The concept-partition memo
//!
//! Entity resolution (pipeline stage C) runs per concept, and on a long-tail
//! web almost every concept is untouched by any one crawl batch. On top of
//! the per-pair score memo sits a per-concept one
//! ([`BuildCaches::memo_partition`]):
//!
//! * **key** — the concept plus [`digest_seq`] of its records' pre-merge
//!   [`content_digest`]s in `by_concept` order (length-framed, so a changed
//!   record, a changed order and a changed length all change it);
//! * **value** — the concept's scored candidate pairs, in *position* space:
//!   `(i, j, score)` index the record sequence, not record ids, so the
//!   entry survives the id renumbering a removed page causes;
//! * **a hit skips** blocking and every pair-memo probe for that concept —
//!   both are pure functions of the record sequence the key digests — and
//!   counts the stored pairs as score hits. Clustering, winner choice and
//!   merges still run live: they read the association graph and mutate the
//!   store and lineage;
//! * **eviction exemption** — a hit never touches the concept's pair-memo
//!   entries, so generation tagging alone would evict them at the end of
//!   the pass and the first change in a long-quiet concept would rescore
//!   its whole partition. A concept whose partition hit keeps its pair
//!   entries through that pass's eviction; they are exactly the pairs of
//!   the stored partition, so nothing accumulates;
//! * **collisions** — the key is a 64-bit digest of 64-bit digests. A
//!   collision would silently reuse another sequence's pairs; with a
//!   handful of concepts and one live entry each the odds per pass are
//!   ~10⁻¹⁹ on top of [`content_digest`]'s own ~10⁻¹³ — accepted.

// woc-lint: allow-file(slice-index) — every index here comes from
// enumerate() over the very slice being indexed (hit/miss bookkeeping), so
// bounds hold locally by construction.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::sync::Arc;

use woc_extract::ExtractedRecord;
use woc_index::{DocId, InvertedIndex, LrecIndex};
use woc_lrec::{ConceptId, Lrec, LrecId};
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;
use woc_webgen::{Page, WebCorpus};

use crate::parallel::{resolve_threads, shard_map};

/// Id-free content digest of a record: its concept plus every attribute's
/// entries (values and provenance), excluding the record id itself. Keyed
/// this way, pair-score memos survive id renumbering across epochs — a
/// closed restaurant shifts every later id, but surviving records keep
/// their content digest. Valid only pre-merge (pipeline stage C), where
/// records carry no `Ref` values that would embed ids. A 64-bit digest
/// collision would silently reuse a score; with ~10³ records per pass the
/// collision probability is ~10⁻¹³ — accepted.
pub(crate) fn content_digest(rec: &Lrec) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(u64::from(rec.concept().0));
    for (key, entries) in rec.iter() {
        // Lrec::iter() yields attributes in BTreeMap (sorted) order.
        h.str(key);
        h.bytes(&[0xff]);
        // The `Debug` rendering streams straight into the hasher: the bytes
        // a `format!` would have collected, without the `String`.
        write!(h, "{entries:?}").expect("invariant: hashing formatted output never fails");
        h.bytes(&[0xfe]);
    }
    h.finish()
}

/// Digest of a digest sequence behind its length — the concept-partition
/// memo's key over a concept's record [`content_digest`]s. It keys a memo
/// and nothing else: it never reaches a canonical rendering.
pub(crate) fn digest_seq(digests: &[u64]) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(digests.len() as u64);
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Digest of a sorted, deduplicated name list — the mention-scan memo's
/// target-set key.
pub(crate) fn digest_strs(items: &[&str]) -> u64 {
    let mut h = Fnv1a::new();
    for s in items {
        h.framed_str(s);
    }
    h.finish()
}

/// The tokens [`crate::pipeline::build`] indexes for a page: title plus
/// visible text. The fresh build, the patch-in-place cache and the
/// shard-local document indexes (`woc-cluster`) all tokenize through here.
pub fn doc_tokens(page: &Page) -> Vec<String> {
    tokenize_words(&format!("{} {}", page.title, page.text()))
}

/// One record-index mutation observed by a maintenance pass: the token
/// list a record was indexed under before and after. `None` on one side
/// marks an insertion (`old_tokens`) or a removal (`new_tokens`). These
/// are exactly the changes a segmented index (`woc-index::segment`) must
/// absorb as a delta segment to stay equal to a flat rebuild.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordIndexChange {
    /// The record that changed.
    pub id: LrecId,
    /// The concept owning the record (the new owner for upserts, the old
    /// one for removals).
    pub concept: ConceptId,
    /// Tokens the record was indexed under before the pass, if it existed.
    pub old_tokens: Option<Vec<String>>,
    /// Tokens the record is indexed under after the pass, if it survives.
    pub new_tokens: Option<Vec<String>>,
}

/// Diff two record-index entry sequences by record id, in ascending-id
/// order: removals (`old` only), insertions (`new` only), and records
/// whose concept or token list changed.
fn diff_record_entries(
    old: &[(LrecId, ConceptId, Vec<String>)],
    new: &[(LrecId, ConceptId, Vec<String>)],
) -> Vec<RecordIndexChange> {
    let old_by_id: BTreeMap<LrecId, (&ConceptId, &Vec<String>)> =
        old.iter().map(|(id, c, t)| (*id, (c, t))).collect();
    let new_by_id: BTreeMap<LrecId, (&ConceptId, &Vec<String>)> =
        new.iter().map(|(id, c, t)| (*id, (c, t))).collect();
    let mut changes = Vec::new();
    for (id, (concept, tokens)) in &old_by_id {
        if !new_by_id.contains_key(id) {
            changes.push(RecordIndexChange {
                id: *id,
                concept: **concept,
                old_tokens: Some((*tokens).clone()),
                new_tokens: None,
            });
        }
    }
    for (id, (concept, tokens)) in &new_by_id {
        match old_by_id.get(id) {
            None => changes.push(RecordIndexChange {
                id: *id,
                concept: **concept,
                old_tokens: None,
                new_tokens: Some((*tokens).clone()),
            }),
            Some((old_concept, old_tokens)) => {
                if old_concept != concept || old_tokens != tokens {
                    changes.push(RecordIndexChange {
                        id: *id,
                        concept: **concept,
                        old_tokens: Some((*old_tokens).clone()),
                        new_tokens: Some((*tokens).clone()),
                    });
                }
            }
        }
    }
    changes.sort_by_key(|c| c.id);
    changes
}

/// Counters describing what one maintenance pass recomputed vs reused.
/// Reset at the start of each [`crate::pipeline::build_with_caches`] call.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// `Page::fingerprint` calls charged to this pass: every page
    /// [`BuildCaches::fingerprint_pages`] swept since the previous pass
    /// began — `corpus.len()` when the caller makes one sweep per pass.
    pub pages_fingerprinted: usize,
    /// Pages whose extraction was recomputed (fingerprint cache miss).
    pub pages_reextracted: usize,
    /// Pages whose extraction came from the cache.
    pub extract_hits: usize,
    /// Candidate pairs whose match score was recomputed.
    pub pairs_rescored: usize,
    /// Pairs whose score came from the memo.
    pub score_hits: usize,
    /// Pages re-scanned for record mentions.
    pub mention_pages_rescanned: usize,
    /// Pages whose mention scan came from the cache.
    pub mention_hits: usize,
    /// `(term, doc)` postings removed or inserted by index patching.
    pub postings_patched: usize,
    /// Records whose index tokens changed and were patched in place.
    pub records_repatched: usize,
    /// True when the record index could not be patched (record set or
    /// order changed) and was rebuilt from token lists.
    pub record_index_rebuilt: bool,
    /// True when the document index could not be patched (URL sequence
    /// changed) and was rebuilt.
    pub doc_index_rebuilt: bool,
    /// Per-record index mutations this pass, diffed against the previous
    /// pass regardless of whether the index was patched or rebuilt. Empty
    /// on a cold build (no previous pass to diff against).
    pub record_changes: Vec<RecordIndexChange>,
}

#[derive(Debug)]
struct Entry<T> {
    generation: u64,
    value: T,
}

/// One generation-tagged pure-function memo table.
#[derive(Debug)]
struct Memo<K, V> {
    table: HashMap<K, Entry<V>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            table: HashMap::new(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V: Clone + Send> Memo<K, V> {
    /// The value stored under `key`, re-tagged with `generation`.
    fn get(&mut self, generation: u64, key: &K) -> Option<V> {
        self.table.get_mut(key).map(|e| {
            e.generation = generation;
            e.value.clone()
        })
    }

    /// Store `value` under `key`, tagged with `generation`.
    fn put(&mut self, generation: u64, key: K, value: V) {
        self.table.insert(key, Entry { generation, value });
    }

    /// Resolve `keys` in order. Hits are re-tagged with `generation` and
    /// returned as stored; every miss *position* — repeated keys are not
    /// de-duplicated — is computed by `compute(position)`, sharded, then
    /// inserted. Returns the values and the miss count.
    fn get_or_compute(
        &mut self,
        generation: u64,
        keys: &[K],
        threads: usize,
        compute: impl Fn(usize) -> V + Sync,
    ) -> (Vec<V>, usize) {
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let hit = self.get(generation, key);
            if hit.is_none() {
                miss_idx.push(i);
            }
            out.push(hit);
        }
        let computed = shard_map(&miss_idx, threads, |&i| compute(i));
        for (&i, value) in miss_idx.iter().zip(computed) {
            self.put(generation, keys[i].clone(), value.clone());
            out[i] = Some(value);
        }
        let values = out
            .into_iter()
            .map(|v| v.expect("invariant: every key is either a hit or a filled miss"))
            .collect();
        (values, miss_idx.len())
    }

    /// Drop every entry the pass tagged `generation` did not touch.
    fn evict(&mut self, generation: u64) {
        self.table.retain(|_, e| e.generation == generation);
    }
}

#[derive(Debug)]
struct RecordIndexCache {
    index: LrecIndex,
    /// `(id, concept, tokens)` in internal doc-id order — the exact
    /// sequence the cached index was built from.
    entries: Vec<(LrecId, ConceptId, Vec<String>)>,
}

#[derive(Debug)]
struct DocIndexCache {
    index: InvertedIndex,
    urls: Vec<String>,
    fps: Vec<u64>,
    tokens: Vec<Vec<String>>,
}

/// One concept's scored candidate pairs `(i, j, score)`, `i < j` positions
/// in the concept's record sequence. Shared, not re-cloned, on hits.
pub(crate) type ScoredPairs = Arc<Vec<(usize, usize, f64)>>;

/// Memo caches carried across [`crate::pipeline::build_with_caches`] runs
/// by an incremental-maintenance engine.
#[derive(Debug, Default)]
pub struct BuildCaches {
    generation: u64,
    /// page fingerprint → extraction output (shared, not re-cloned, on hits).
    extract: Memo<u64, Arc<Vec<ExtractedRecord>>>,
    /// (concept, left content digest, right content digest) → match score.
    scores: Memo<(u32, u64, u64), f64>,
    /// (concept, record-sequence digest) → the concept's scored candidate
    /// pairs in position space (see the module docs).
    partitions: Memo<(u32, u64), ScoredPairs>,
    /// Concepts whose partition hit this pass: their pair-score entries
    /// went unprobed and are exempt from this pass's eviction.
    quiet_concepts: Vec<u32>,
    /// (page fingerprint, target-name-set digest) → matched names.
    mentions: Memo<(u64, u64), Arc<Vec<String>>>,
    /// page fingerprint → normalized "also bought" anchor names.
    also: Memo<u64, Arc<Vec<String>>>,
    record_index: Option<RecordIndexCache>,
    doc_index: Option<DocIndexCache>,
    /// Pages fingerprinted since the last pass began.
    fingerprinted: usize,
    stats: CacheStats,
}

impl BuildCaches {
    /// Empty caches: the first build through them is a full (cold) build
    /// that warms every memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters of the most recent pass through these caches.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The content fingerprint of every page of `corpus`, in page order
    /// (sharded over `threads`, 0 = all cores) — the one place a cached pass
    /// calls [`Page::fingerprint`]. The caller diffs the result for change
    /// detection and hands the same vector to
    /// [`crate::pipeline::build_with_caches`], which keys every per-page
    /// memo on it instead of fingerprinting again.
    pub fn fingerprint_pages(&mut self, corpus: &WebCorpus, threads: usize) -> Vec<u64> {
        self.fingerprinted += corpus.len();
        shard_map(corpus.pages(), resolve_threads(threads), Page::fingerprint)
    }

    /// Start a pass: bump the generation (entries reused during the pass
    /// are re-tagged with it) and reset the per-pass counters.
    pub(crate) fn begin_pass(&mut self) {
        self.generation += 1;
        self.quiet_concepts.clear();
        self.stats = CacheStats {
            pages_fingerprinted: std::mem::take(&mut self.fingerprinted),
            ..CacheStats::default()
        };
    }

    /// End a pass: evict every memo entry the pass did not touch, so
    /// content that vanished from the corpus does not accumulate forever.
    /// Pair scores of a concept whose partition hit stay (see the module
    /// docs): the pass never probed them, and the next change in that
    /// concept will.
    pub(crate) fn end_pass(&mut self) {
        self.extract.evict(self.generation);
        let (generation, quiet) = (self.generation, &self.quiet_concepts);
        self.scores
            .table
            .retain(|key, e| e.generation == generation || quiet.contains(&key.0));
        self.partitions.evict(self.generation);
        self.mentions.evict(self.generation);
        self.also.evict(self.generation);
    }

    /// Pre-seed the extraction memo with an externally computed result for
    /// the page whose fingerprint is `fp`. The streaming ingest dataflow
    /// (`woc-stream`) extracts pages in its own pipelined workers as they
    /// arrive; seeding the memo lets the micro-epoch replay hit instead of
    /// re-extracting. The caller certifies the purity contract every memo
    /// relies on: `records` is exactly what [`Self::memo_extract`]'s `f`
    /// would produce for a page with this fingerprint. The entry is tagged
    /// with the *current* generation; if the next pass never reads it, the
    /// end-of-pass eviction drops it like any other stale entry.
    pub fn seed_extract(&mut self, fp: u64, records: Arc<Vec<ExtractedRecord>>) {
        self.extract.put(self.generation, fp, records);
    }

    /// Memoized page extraction: pages whose fingerprint is cached reuse
    /// the cached records; only misses run `f` (sharded).
    pub(crate) fn memo_extract(
        &mut self,
        fps: &[u64],
        pages: &[&Page],
        threads: usize,
        f: impl Fn(&Page) -> Vec<ExtractedRecord> + Sync,
    ) -> Vec<Arc<Vec<ExtractedRecord>>> {
        let (out, misses) = self
            .extract
            .get_or_compute(self.generation, fps, threads, |i| Arc::new(f(pages[i])));
        self.stats.pages_reextracted += misses;
        self.stats.extract_hits += fps.len() - misses;
        out
    }

    /// Memoized "also bought" anchor scan: the normalized anchor names in a
    /// page's also-bought sections, a pure function of page content alone.
    /// Resolution of those names against the current product records
    /// replays outside the memo.
    pub(crate) fn memo_also(
        &mut self,
        fps: &[u64],
        pages: &[&Page],
        threads: usize,
        scan: impl Fn(&Page) -> Vec<String> + Sync,
    ) -> Vec<Arc<Vec<String>>> {
        self.also
            .get_or_compute(self.generation, fps, threads, |i| Arc::new(scan(pages[i])))
            .0
    }

    /// Memoized pair scoring for one concept. `digests[i]` is the id-free
    /// content digest of record `i`; `score(i, j)` computes a miss.
    fn memo_scores(
        &mut self,
        concept: u32,
        digests: &[u64],
        pairs: &[(usize, usize)],
        threads: usize,
        score: impl Fn(usize, usize) -> f64 + Sync,
    ) -> Vec<(usize, usize, f64)> {
        let keys: Vec<(u32, u64, u64)> = pairs
            .iter()
            .map(|&(i, j)| (concept, digests[i], digests[j]))
            .collect();
        let (scores, misses) = self
            .scores
            .get_or_compute(self.generation, &keys, threads, |n| {
                let (i, j) = pairs[n];
                score(i, j)
            });
        self.stats.pairs_rescored += misses;
        self.stats.score_hits += pairs.len() - misses;
        pairs
            .iter()
            .zip(scores)
            .map(|(&(i, j), s)| (i, j, s))
            .collect()
    }

    /// Memoized entity-resolution input for one concept: its scored
    /// candidate pairs. `digests[i]` is the id-free content digest of
    /// record `i` of the concept's record sequence. When the same sequence
    /// was resolved before, the stored pairs come back and neither `block`
    /// nor `score` runs; otherwise `block()` generates the candidate pairs
    /// and [`Self::memo_scores`] scores them pair by pair. See the module
    /// docs for the key, the position-space value and the eviction
    /// exemption a hit grants.
    pub(crate) fn memo_partition(
        &mut self,
        concept: u32,
        digests: &[u64],
        threads: usize,
        block: impl FnOnce() -> Vec<(usize, usize)>,
        score: impl Fn(usize, usize) -> f64 + Sync,
    ) -> ScoredPairs {
        let key = (concept, digest_seq(digests));
        if let Some(scored) = self.partitions.get(self.generation, &key) {
            self.stats.score_hits += scored.len();
            self.quiet_concepts.push(concept);
            return scored;
        }
        let scored = Arc::new(self.memo_scores(concept, digests, &block(), threads, score));
        self.partitions
            .put(self.generation, key, Arc::clone(&scored));
        scored
    }

    /// Memoized mention scan: for each page, the subset of `names` (the
    /// sorted, deduplicated target names whose digest is `names_digest`)
    /// whose normalized form occurs in the page text. The id-dependent
    /// filtering that build applies on top replays outside the memo.
    pub(crate) fn memo_mentions(
        &mut self,
        fps: &[u64],
        pages: &[&Page],
        names_digest: u64,
        threads: usize,
        scan: impl Fn(&Page) -> Vec<String> + Sync,
    ) -> Vec<Arc<Vec<String>>> {
        let keys: Vec<(u64, u64)> = fps.iter().map(|&fp| (fp, names_digest)).collect();
        let (out, misses) = self
            .mentions
            .get_or_compute(self.generation, &keys, threads, |i| {
                Arc::new(scan(pages[i]))
            });
        self.stats.mention_pages_rescanned += misses;
        self.stats.mention_hits += fps.len() - misses;
        out
    }

    /// Build — or patch — the record index for the live-record sequence
    /// `entries` (in the order a fresh build would add them). Patching
    /// requires the `(id, concept)` sequence to be unchanged: a record
    /// insertion or removal renumbers every later internal doc id, in
    /// which case the index is rebuilt from the token lists.
    pub(crate) fn record_index_with(
        &mut self,
        entries: Vec<(LrecId, ConceptId, Vec<String>)>,
    ) -> LrecIndex {
        if let Some(cache) = self.record_index.as_mut() {
            let same_sequence = cache.entries.len() == entries.len()
                && cache
                    .entries
                    .iter()
                    .zip(&entries)
                    .all(|(a, b)| a.0 == b.0 && a.1 == b.1);
            if same_sequence {
                for (old, new) in cache.entries.iter().zip(&entries) {
                    if old.2 != new.2 {
                        self.stats.postings_patched += cache.index.replace(new.0, &old.2, &new.2);
                        self.stats.records_repatched += 1;
                        self.stats.record_changes.push(RecordIndexChange {
                            id: new.0,
                            concept: new.1,
                            old_tokens: Some(old.2.clone()),
                            new_tokens: Some(new.2.clone()),
                        });
                    }
                }
                cache.entries = entries;
                return cache.index.clone();
            }
        }
        if let Some(cache) = self.record_index.as_ref() {
            self.stats.record_changes = diff_record_entries(&cache.entries, &entries);
        }
        self.stats.record_index_rebuilt = true;
        let mut index = LrecIndex::new();
        for (id, concept, tokens) in &entries {
            index.add_record_tokens(*id, *concept, tokens);
        }
        self.record_index = Some(RecordIndexCache {
            index: index.clone(),
            entries,
        });
        index
    }

    /// Build — or patch — the document index for `pages` (whose
    /// fingerprints are `fps`). Patching requires the URL sequence to be
    /// unchanged; only pages with a changed fingerprint are re-tokenized
    /// and patched in place.
    pub(crate) fn doc_index_with(
        &mut self,
        pages: &[&Page],
        fps: &[u64],
        threads: usize,
    ) -> InvertedIndex {
        let same_urls = self.doc_index.as_ref().is_some_and(|c| {
            c.urls.len() == pages.len() && c.urls.iter().zip(pages).all(|(u, p)| *u == p.url)
        });
        if same_urls {
            let cache = self
                .doc_index
                .as_mut()
                .expect("invariant: same_urls implies a cached doc index");
            for (i, page) in pages.iter().enumerate() {
                if cache.fps[i] != fps[i] {
                    let new_tokens = doc_tokens(page);
                    // A changed fingerprint does not imply changed *text*: a
                    // cosmetic DOM edit (attribute churn, invisible markup)
                    // re-fingerprints the page while tokenizing identically.
                    // Skipping the no-op patch keeps `postings_patched` an
                    // honest signal of real index change.
                    if new_tokens != cache.tokens[i] {
                        self.stats.postings_patched +=
                            cache
                                .index
                                .replace_doc(DocId(i as u32), &cache.tokens[i], &new_tokens);
                        cache.tokens[i] = new_tokens;
                    }
                    cache.fps[i] = fps[i];
                }
            }
            return cache.index.clone();
        }
        self.stats.doc_index_rebuilt = true;
        let tokens: Vec<Vec<String>> = shard_map(pages, threads, |p| doc_tokens(p));
        let mut index = InvertedIndex::new();
        for t in &tokens {
            index.add_tokens(t);
        }
        self.doc_index = Some(DocIndexCache {
            index: index.clone(),
            urls: pages.iter().map(|p| p.url.clone()).collect(),
            fps: fps.to_vec(),
            tokens,
        });
        index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_drops_untouched_entries() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        let _ = c.memo_scores(0, &[10, 20], &[(0, 1)], 1, |_, _| 1.5);
        assert_eq!(c.stats().pairs_rescored, 1);
        // Next pass touches a different pair: the old entry must be evicted.
        c.begin_pass();
        let _ = c.memo_scores(0, &[30, 40], &[(0, 1)], 1, |_, _| 2.5);
        c.end_pass();
        assert_eq!(c.scores.table.len(), 1);
        // The surviving key is the touched one.
        assert!(c.scores.table.contains_key(&(0, 30, 40)));
    }

    #[test]
    fn score_memo_hits_are_returned_verbatim() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        let first = c.memo_scores(7, &[1, 2, 3], &[(0, 1), (1, 2)], 1, |i, j| (i + j) as f64);
        c.begin_pass();
        // Same digests: the scorer must not be consulted at all.
        let second = c.memo_scores(7, &[1, 2, 3], &[(0, 1), (1, 2)], 1, |_, _| f64::NAN);
        assert_eq!(first, second);
        assert_eq!(c.stats().score_hits, 2);
        assert_eq!(c.stats().pairs_rescored, 0);
    }

    /// Three hand-built records whose digests were taken at the commit
    /// before `content_digest` stopped rendering through a `String`: the
    /// streamed rendering must hash to the same values, or every warm
    /// pair-score memo would go cold.
    #[test]
    fn content_digest_values_are_pinned() {
        use woc_lrec::{AttrValue, Provenance, Tick};
        let yelp = "http://yelp.example/biz/gochi";
        let mut a = Lrec::new(LrecId(7), ConceptId(1));
        a.add(
            "name",
            AttrValue::Text("Gochi Fusion Tapas".into()),
            Provenance::extracted(yelp, "detail-extractor", 0.75, Tick(1)),
        );
        a.add(
            "phone",
            AttrValue::Phone("4085550134".into()),
            Provenance::extracted(yelp, "detail-extractor", 0.75, Tick(1)),
        );
        a.add(
            "phone",
            AttrValue::Phone("4085550199".into()),
            Provenance::extracted("http://gochi.example/", "detail-extractor", 0.75, Tick(1)),
        );
        a.add(
            "zip",
            AttrValue::Zip("95014".into()),
            Provenance::extracted(yelp, "list-extractor", 0.6, Tick(1)),
        );
        let mut b = Lrec::new(LrecId(8), ConceptId(4));
        b.add(
            "name",
            AttrValue::Text("Spicy \"tuna\" roll \u{1f363}".into()),
            Provenance::extracted("http://gochi.example/menu", "list-extractor", 0.5, Tick(3)),
        );
        b.add(
            "price",
            AttrValue::PriceCents(995),
            Provenance::derived("reconciler", 0.9, Tick(4)),
        );
        b.add(
            "rating",
            AttrValue::Int(-4),
            Provenance::ground_truth(Tick(2)),
        );
        let c = Lrec::new(LrecId(9), ConceptId(2));
        assert_eq!(content_digest(&a), 0x7f7d_9d22_7e13_d925);
        assert_eq!(content_digest(&b), 0xf461_5778_8dca_ed7a);
        assert_eq!(content_digest(&c), 0xe6bd_8644_3df8_ce07);
    }

    /// Resolve one concept partition whose blocking pairs every record with
    /// its successor and whose scorer is `score`; returns the scored pairs
    /// and how often blocking ran.
    fn resolve_partition(
        c: &mut BuildCaches,
        digests: &[u64],
        score: impl Fn(usize, usize) -> f64 + Sync,
    ) -> (ScoredPairs, usize) {
        let mut blocked = 0;
        let block = || {
            blocked += 1;
            (1..digests.len()).map(|j| (j - 1, j)).collect()
        };
        let scored = c.memo_partition(3, digests, 1, block, score);
        (scored, blocked)
    }

    #[test]
    fn partition_hit_returns_the_stored_pairs_and_runs_nothing() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        let (first, blocked) = resolve_partition(&mut c, &[1, 2, 3], |i, j| (i * 10 + j) as f64);
        assert_eq!(*first, vec![(0, 1, 1.0), (1, 2, 12.0)]);
        assert_eq!((blocked, c.stats().pairs_rescored), (1, 2));
        c.end_pass();

        c.begin_pass();
        let (second, blocked) =
            resolve_partition(&mut c, &[1, 2, 3], |_, _| panic!("a hit must not score"));
        assert!(Arc::ptr_eq(&first, &second), "the stored pairs, verbatim");
        assert_eq!(blocked, 0, "a hit must not block");
        assert_eq!(
            (c.stats().score_hits, c.stats().pairs_rescored),
            (2, 0),
            "the stored pairs count as score hits"
        );
    }

    #[test]
    fn partition_misses_on_changed_digest_order_or_length() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3], |_, _| 1.0);
        for changed in [&[1, 2, 4][..], &[1, 3, 2], &[1, 2], &[1, 2, 3, 3]] {
            let (_, blocked) = resolve_partition(&mut c, changed, |_, _| 1.0);
            assert_eq!(blocked, 1, "{changed:?} is a different partition");
        }
        // Another concept with the same sequence is a different partition
        // too.
        let mut blocked = false;
        c.memo_partition(
            4,
            &[1, 2, 3],
            1,
            || {
                blocked = true;
                vec![(0, 1)]
            },
            |_, _| 1.0,
        );
        assert!(blocked);
    }

    #[test]
    fn partition_hit_keeps_its_pair_scores_through_eviction() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3], |_, _| 1.0);
        let _ = c.memo_scores(9, &[7, 8], &[(0, 1)], 1, |_, _| 2.0);
        c.end_pass();
        assert_eq!(c.scores.table.len(), 3);

        // A quiet pass for concept 3: the partition hits, so no pair entry
        // is probed — and none of concept 3's may be evicted for it.
        // Concept 9 is gone from the corpus; its entry goes as before.
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3], |_, _| panic!("quiet"));
        c.end_pass();
        assert_eq!(c.scores.table.len(), 2);
        assert!(c.scores.table.contains_key(&(3, 1, 2)));
        assert!(c.scores.table.contains_key(&(3, 2, 3)));

        // The first change after the quiet pass rescores only what is new
        // — a record 4 arrived; pairs (1, 2) and (2, 3) were kept for this.
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3, 4], |_, _| 1.0);
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (1, 2));
        c.end_pass();
        assert_eq!(c.scores.table.len(), 3);

        // A miss probes every live pair, so the exemption lapses with it
        // and plain generation tagging drops what left the partition.
        c.begin_pass();
        resolve_partition(&mut c, &[2, 3, 4], |_, _| panic!("all pairs known"));
        c.end_pass();
        assert_eq!(c.scores.table.len(), 2, "(1, 2) left with record 1");
        assert_eq!(
            c.partitions.table.len(),
            1,
            "one live partition per concept"
        );
    }

    #[test]
    fn fingerprint_sweeps_are_charged_to_the_next_pass() {
        let mut corpus = WebCorpus::new();
        for i in 0..3 {
            corpus.add(Page {
                url: format!("http://site.test/{i}"),
                site: "site.test".into(),
                title: format!("page {i}"),
                dom: woc_webgen::Node::elem("html").text_child("hello"),
                truth: woc_webgen::PageTruth {
                    kind: woc_webgen::PageKind::Article,
                    about: None,
                    records: vec![],
                    mentions: vec![],
                },
            });
        }
        let mut c = BuildCaches::new();
        let fps = c.fingerprint_pages(&corpus, 1);
        let expected: Vec<u64> = corpus.pages().iter().map(Page::fingerprint).collect();
        assert_eq!(fps, expected, "page order, same values");
        assert_eq!(c.fingerprint_pages(&corpus, 1), expected);
        c.begin_pass();
        assert_eq!(c.stats().pages_fingerprinted, 6);
        c.begin_pass();
        assert_eq!(c.stats().pages_fingerprinted, 0);
    }
}
