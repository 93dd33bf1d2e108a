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

// woc-lint: allow-file(slice-index) — every index here comes from
// enumerate() over the very slice being indexed (hit/miss bookkeeping), so
// bounds hold locally by construction.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use woc_extract::ExtractedRecord;
use woc_index::{DocId, InvertedIndex, LrecIndex};
use woc_lrec::{ConceptId, Lrec, LrecId};
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;
use woc_webgen::Page;

use crate::parallel::shard_map;

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
        h.str(&format!("{entries:?}"));
        h.bytes(&[0xfe]);
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
            match self.table.get_mut(key) {
                Some(e) => {
                    e.generation = generation;
                    out.push(Some(e.value.clone()));
                }
                None => {
                    miss_idx.push(i);
                    out.push(None);
                }
            }
        }
        let computed = shard_map(&miss_idx, threads, |&i| compute(i));
        for (&i, value) in miss_idx.iter().zip(computed) {
            self.table.insert(
                keys[i].clone(),
                Entry {
                    generation,
                    value: value.clone(),
                },
            );
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

/// Memo caches carried across [`crate::pipeline::build_with_caches`] runs
/// by an incremental-maintenance engine.
#[derive(Debug, Default)]
pub struct BuildCaches {
    generation: u64,
    /// page fingerprint → extraction output (shared, not re-cloned, on hits).
    extract: Memo<u64, Arc<Vec<ExtractedRecord>>>,
    /// (concept, left content digest, right content digest) → match score.
    scores: Memo<(u32, u64, u64), f64>,
    /// (page fingerprint, target-name-set digest) → matched names.
    mentions: Memo<(u64, u64), Arc<Vec<String>>>,
    /// page fingerprint → normalized "also bought" anchor names.
    also: Memo<u64, Arc<Vec<String>>>,
    record_index: Option<RecordIndexCache>,
    doc_index: Option<DocIndexCache>,
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

    /// Start a pass: bump the generation (entries reused during the pass
    /// are re-tagged with it) and reset the per-pass counters.
    pub(crate) fn begin_pass(&mut self) {
        self.generation += 1;
        self.stats = CacheStats::default();
    }

    /// End a pass: evict every memo entry the pass did not touch, so
    /// content that vanished from the corpus does not accumulate forever.
    pub(crate) fn end_pass(&mut self) {
        self.extract.evict(self.generation);
        self.scores.evict(self.generation);
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
        self.extract.table.insert(
            fp,
            Entry {
                generation: self.generation,
                value: records,
            },
        );
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
    pub(crate) fn memo_scores(
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
}
