//! Content-keyed memo caches for incremental rebuilds (paper §7.3,
//! "managing change").
//!
//! Every build is one [`crate::pipeline::build_with_caches`] pass over
//! [`BuildCaches`]: a cold build ([`crate::pipeline::build`]) runs over
//! empty ones and fills them, and a maintenance pass replays the full
//! deterministic pipeline over the ones its predecessor left, skipping the
//! expensive pure stages — page extraction, pair scoring, the mention scan
//! and index construction — for content that did not change. Every cache
//! is a *pure-function memo* — keyed only on the content the cached
//! computation reads — so a warm pass is byte-identical to a cold build by
//! construction: each stage either recomputes a value or returns exactly
//! what recomputation would have produced.
//!
//! Lookup and insertion are serial; only cache *misses* fan out through
//! [`crate::parallel::shard_map`], so no cache is ever mutated
//! concurrently and results are independent of thread count.
//!
//! Entries untouched by a pass are evicted at its end (generation
//! tagging), so memory tracks the live corpus rather than its history.
//!
//! ## What consecutive epochs share
//!
//! A replay builds the next web beside the current one, and on a long-tail
//! web almost none of it differs. Records, versions and posting lists are
//! copy-on-write behind `Arc`s (`woc_lrec::record`, `woc_lrec::store`,
//! `woc_index::index` — a mutation may only reach a shared list through
//! `Arc::make_mut`), and two caches here hand the next epoch the previous
//! one's allocations instead of equal copies:
//!
//! * **the typed-record memo** (`BuildCaches::memo_typed`, pipeline
//!   stage B) — key `(page fingerprint, first record id)`, value the page's
//!   `TypedRecord`s: the `Arc<Lrec>` the store holds as the record's
//!   first version (id included), the operator that extracted it, the
//!   trust claims it contributes, and its `content_digest`, taken once.
//!   A fingerprint suffices because [`Page::fingerprint`] covers URL, site,
//!   title and DOM — everything typing reads besides the engine-constant
//!   tick and trust configuration — and the first id pins every id the
//!   records carry. A hit re-inserts the stored allocations
//!   (`Store::insert_shared`); lineage, associations and claims replay
//!   live, in the same order. *A removed page* shifts every later id, so
//!   every page after it misses and is typed again — the cost of a full
//!   stage B, with correct ids — while the digest-keyed memos below still
//!   hit. Stage C reads the carried digests instead of rendering every
//!   record again.
//! * **the index caches** (stage G) — `BuildCaches::record_index_with`
//!   remembers the `Arc<Lrec>` each cached token list came from and
//!   re-tokenizes only records whose latest version is neither that
//!   allocation nor equal to it; both cached indexes are patched in place
//!   and handed out as copy-on-write clones, so an epoch's index shares
//!   every untouched term with its neighbours.
//!
//! Records a pass re-derives — merged, reconciled and linked versions —
//! are new allocations each epoch; they share their untouched attribute
//! lists with the versions they were cloned from. Lineage and the
//! record↔document graph are rebuilt each pass and not shared.
//!
//! ## The concept-partition memo
//!
//! Entity resolution (pipeline stage C) runs per concept, and on a long-tail
//! web almost every concept is untouched by any one crawl batch — and the one
//! a batch does reach keeps almost all of its records. One memo
//! ([`BuildCaches::memo_partition`]) covers both: the previous partition of
//! a concept *is* its pair-score memo.
//!
//! * **key** — the concept. The stored [`Partition`] carries the sequence
//!   itself: its records' pre-merge [`content_digest`]s in `by_concept`
//!   order, compared element for element (no digest of digests);
//! * **value** — the concept's scored candidate pairs, in *position* space:
//!   `(i, j, score)` index the record sequence, not record ids, so the
//!   entry survives the id renumbering a removed page causes;
//! * **an equal sequence** skips blocking and scoring — both are pure
//!   functions of the record sequence — and counts the stored pairs as score
//!   hits. Clustering, winner choice and merges still run live: they read
//!   the association graph and mutate the store and lineage;
//! * **a changed sequence** regenerates the candidate set in full and joins
//!   it against the stored pairs. The candidate set is never patched: a
//!   bucket crossing the block-size limit makes pairs among *unchanged*
//!   records appear or vanish, and only blocking knows. The join runs in
//!   position space — [`align`] maps each new position to the old position
//!   of the same record, both pair lists are sorted, one forward walk pairs
//!   them up. A candidate takes the stored score only when both its ends are
//!   aligned and the old pair was a candidate too; every other candidate is
//!   scored. A score is a pure function of the two records, so which pairs
//!   the join recovers moves a counter, never a value;
//! * **what [`align`] guarantees** — the map is strictly increasing and
//!   only ever pairs equal digests. Strictly increasing is what lets sorted
//!   pairs stay sorted under it; equal digests is what makes a carried score
//!   the score. It takes the earliest old position not yet passed, which
//!   recovers every survivor of removed, replaced and appended records; a
//!   record that moved far forward drags the cursor with it and the records
//!   it jumped are rescored — a cost, not an error;
//! * **eviction** — one live partition per concept, dropped when a pass
//!   does not resolve the concept at all.
//!
//! [`content_digest`] is 64 bits: two different records colliding (~10⁻¹³
//! per pass at ~10³ records) would carry one's scores to the other —
//! accepted, as before.

// woc-lint: allow-file(slice-index) — every index here comes from
// enumerate() over the very slice being indexed (hit/miss bookkeeping), so
// bounds hold locally by construction.

use std::collections::HashMap;
use std::fmt::Write;
use std::sync::Arc;

use woc_extract::ExtractedRecord;
use woc_index::{DocId, InvertedIndex, LrecIndex, RecordChange};
use woc_lrec::{Lrec, LrecId, Store};
use woc_matching::blocking_keys;
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;
use woc_webgen::{Page, WebCorpus};

use crate::parallel::{resolve_threads, shard_map};
use crate::trust::Claim;

/// Id-free content digest of a record: its concept plus every attribute's
/// entries (values and provenance), excluding the record id itself. Keyed
/// this way, carried pair scores survive id renumbering across epochs — a
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
/// visible text. The patch-in-place cache every build runs, its reference
/// (`pipeline::index_texts`) and the shard-local document indexes
/// (`woc-cluster`) all tokenize through here.
pub fn doc_tokens(page: &Page) -> Vec<String> {
    tokenize_words(&format!("{} {}", page.title, page.text()))
}

/// One record as pipeline stage B types it from a page: everything the
/// stage derives from the page alone, so a page whose fingerprint and first
/// record id are unchanged replays it without re-typing a field.
#[derive(Debug)]
pub(crate) struct TypedRecord {
    /// The record as the store holds its first version, id included — the
    /// same allocation in every epoch that types the page to the same ids.
    pub rec: Arc<Lrec>,
    /// The extraction operator that produced it.
    pub op: &'static str,
    /// The trust claims the record contributes, in field order.
    pub claims: Vec<Claim>,
    /// [`content_digest`] of `rec`, taken once when it was typed.
    pub digest: u64,
    /// [`blocking_keys`] of `rec`, taken once when it was typed: stage C
    /// blocks on these as long as the record is the version typed here.
    pub block_keys: Vec<String>,
}

impl TypedRecord {
    /// Wrap a freshly typed record, taking its content digest and its
    /// blocking keys.
    pub(crate) fn new(rec: Lrec, op: &'static str, claims: Vec<Claim>) -> Self {
        let digest = content_digest(&rec);
        let block_keys = blocking_keys(&rec);
        Self {
            rec: Arc::new(rec),
            op,
            claims,
            digest,
            block_keys,
        }
    }
}

/// The typed records of one page, in extraction order. Shared, not
/// re-cloned, on hits.
pub(crate) type TypedPage = Arc<Vec<TypedRecord>>;

/// Counters describing what one build pass recomputed vs reused — on a
/// cold build, everything. Reset at the start of each
/// [`crate::pipeline::build_with_caches`] call.
#[derive(Debug, Clone, Default)]
pub struct CacheStats {
    /// `Page::fingerprint` calls charged to this pass: every page
    /// [`BuildCaches::fingerprint_pages`] had to hash since the previous
    /// pass began. A corpus keeps the fingerprints of the pages it holds,
    /// so this is `corpus.len()` for a crawl handed over as a new corpus
    /// and the number of replaced or added pages for one edited in place.
    pub pages_fingerprinted: usize,
    /// Pages whose extraction was recomputed (fingerprint cache miss).
    pub pages_reextracted: usize,
    /// Records typed afresh in stage B: the records of every page that
    /// missed the typed-record memo (changed content, or a first record id
    /// shifted by an earlier page). A hit re-inserts the stored records.
    pub records_retyped: usize,
    /// Candidate pairs whose match score was recomputed.
    pub pairs_rescored: usize,
    /// Pairs whose score came from the memo.
    pub score_hits: usize,
    /// Pages re-scanned for record mentions.
    pub mention_pages_rescanned: usize,
    /// `(term, doc)` postings removed or inserted by index patching.
    pub postings_patched: usize,
    /// Records whose index tokens changed and were patched in place.
    pub records_repatched: usize,
    /// Live records whose index tokens stage G recomputed: every record
    /// that is neither the allocation nor the value its cached tokens came
    /// from. The rest reuse their token lists.
    pub record_tokens_recomputed: usize,
    /// True when the record index could not be patched (record set or
    /// order changed) and was rebuilt from token lists.
    pub record_index_rebuilt: bool,
    /// True when the document index could not be patched (URL sequence
    /// changed) and was rebuilt.
    pub doc_index_rebuilt: bool,
    /// Per-record index mutations this pass, diffed against the previous
    /// pass regardless of whether the index was patched or rebuilt. Empty
    /// on a cold build (no previous pass to diff against).
    pub record_changes: Vec<RecordChange>,
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
    /// The live records the cached index was built from, each with the
    /// token list it is indexed under, in internal doc-id (ascending id)
    /// order.
    entries: Vec<(Arc<Lrec>, Vec<String>)>,
}

#[derive(Debug)]
struct DocIndexCache {
    index: InvertedIndex,
    urls: Vec<String>,
    fps: Vec<u64>,
    tokens: Vec<Vec<String>>,
}

/// One concept's scored candidate pairs `(i, j, score)`, `i < j` positions
/// in the concept's record sequence, sorted by `(i, j)`. Shared, not
/// re-cloned, on hits.
pub(crate) type ScoredPairs = Arc<Vec<(usize, usize, f64)>>;

/// One concept as stage C last resolved it: the record sequence and its
/// scored candidate pairs (see the module docs).
#[derive(Debug)]
struct Partition {
    /// [`content_digest`] of each record, in `by_concept` order.
    digests: Vec<u64>,
    /// The candidate pairs over those positions, with their scores.
    scored: ScoredPairs,
}

/// For each position of `new`, the position of the same record in `old`:
/// the earliest old position not yet passed that holds the same digest, or
/// `None`. The map is strictly increasing over the positions it maps, and
/// maps equal digests only (see the module docs for what rests on each).
fn align(old: &[u64], new: &[u64]) -> Vec<Option<usize>> {
    let mut by_digest: Vec<(u64, usize)> = old.iter().copied().zip(0..).collect();
    by_digest.sort_unstable();
    let mut cursor = 0usize;
    new.iter()
        .map(|&digest| {
            let at = by_digest.partition_point(|&entry| entry < (digest, cursor));
            let &(found, pos) = by_digest.get(at)?;
            (found == digest).then(|| {
                cursor = pos + 1;
                pos
            })
        })
        .collect()
}

/// The memo caches a [`crate::pipeline::build_with_caches`] pass runs over:
/// empty for a cold build, carried from pass to pass by an
/// incremental-maintenance engine.
#[derive(Debug, Default)]
pub struct BuildCaches {
    generation: u64,
    /// page fingerprint → extraction output (shared, not re-cloned, on hits).
    extract: Memo<u64, Arc<Vec<ExtractedRecord>>>,
    /// (page fingerprint, first record id) → the page's typed records.
    typed: Memo<(u64, LrecId), TypedPage>,
    /// concept → its record sequence and scored candidate pairs as last
    /// resolved — the one entity-resolution memo (see the module docs).
    partitions: Memo<u32, Arc<Partition>>,
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

    /// Move the most recent pass's [`CacheStats::record_changes`] out of
    /// the counters, leaving them empty.
    pub fn take_record_changes(&mut self) -> Vec<RecordChange> {
        std::mem::take(&mut self.stats.record_changes)
    }

    /// The content fingerprint of every page of `corpus`, in page order.
    /// The corpus keeps the fingerprint of each page it holds
    /// (`woc_webgen::corpus`), so only pages it has not hashed yet — new or
    /// replaced since this corpus was last swept — are hashed here (sharded
    /// over `threads`, 0 = all cores), and only those are charged to
    /// [`CacheStats::pages_fingerprinted`]. The caller diffs the result for
    /// change detection and hands the same vector to
    /// [`crate::pipeline::build_with_caches`], which keys every per-page
    /// memo on it instead of fingerprinting again.
    pub fn fingerprint_pages(&mut self, corpus: &WebCorpus, threads: usize) -> Vec<u64> {
        let empty = corpus.unfingerprinted();
        self.fingerprinted += empty.len();
        shard_map(&empty, resolve_threads(threads), |&i| {
            corpus.kept_fingerprint(i)
        });
        corpus.page_fingerprints()
    }

    /// Start a pass: bump the generation (entries reused during the pass
    /// are re-tagged with it) and reset the per-pass counters.
    pub(crate) fn begin_pass(&mut self) {
        self.generation += 1;
        self.stats = CacheStats {
            pages_fingerprinted: std::mem::take(&mut self.fingerprinted),
            ..CacheStats::default()
        };
    }

    /// End a pass: evict every memo entry the pass did not touch, so
    /// content that vanished from the corpus does not accumulate forever.
    pub(crate) fn end_pass(&mut self) {
        self.extract.evict(self.generation);
        self.typed.evict(self.generation);
        self.partitions.evict(self.generation);
        self.mentions.evict(self.generation);
        self.also.evict(self.generation);
    }

    /// Pre-seed the extraction memo with an externally computed result for
    /// the page whose fingerprint is `fp`. The streaming ingest dataflow
    /// (`woc-stream`) extracts pages in its ingest stage as they arrive;
    /// seeding the memo lets the micro-epoch replay hit instead of
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
        out
    }

    /// Memoized stage B typing of one page: the typed records stored for
    /// `(fp, first_id)` — the page's fingerprint and the id its first
    /// record takes — or, on a miss, what `type_page` makes of it. See the
    /// module docs for why that key suffices.
    pub(crate) fn memo_typed(
        &mut self,
        fp: u64,
        first_id: LrecId,
        type_page: impl FnOnce() -> Vec<TypedRecord>,
    ) -> TypedPage {
        let key = (fp, first_id);
        if let Some(typed) = self.typed.get(self.generation, &key) {
            return typed;
        }
        let typed = Arc::new(type_page());
        self.stats.records_retyped += typed.len();
        self.typed.put(self.generation, key, Arc::clone(&typed));
        typed
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

    /// Memoized entity-resolution input for one concept: its scored
    /// candidate pairs. `digests[i]` is the id-free content digest of
    /// record `i` of the concept's record sequence. When the sequence is
    /// the one resolved last, the stored pairs come back and neither
    /// `block` nor `score` runs. Otherwise `block()` generates the candidate
    /// pairs — sorted by `(i, j)`, as blocking emits them — and each takes
    /// its score from the stored partition where [`align`] finds both its
    /// records and the old pair was a candidate; `score(i, j)` computes the
    /// rest, sharded. See the module docs.
    pub(crate) fn memo_partition(
        &mut self,
        concept: u32,
        digests: &[u64],
        threads: usize,
        block: impl FnOnce() -> Vec<(usize, usize)>,
        score: impl Fn(usize, usize) -> f64 + Sync,
    ) -> ScoredPairs {
        let previous = self.partitions.get(self.generation, &concept);
        if let Some(same) = previous.as_ref().filter(|p| p.digests == digests) {
            self.stats.score_hits += same.scored.len();
            return Arc::clone(&same.scored);
        }
        let pairs = block();
        debug_assert!(
            pairs.is_sorted(),
            "blocking emits sorted pairs; the join walks them in order"
        );
        let mut scores: Vec<Option<f64>> = vec![None; pairs.len()];
        if let Some(previous) = &previous {
            // Merge-join in position space: `old_of` is strictly increasing,
            // so the candidates it maps arrive in the stored pairs' order
            // and one cursor over those suffices.
            let old_of = align(&previous.digests, digests);
            let mut stored = previous.scored.iter().peekable();
            for (&(i, j), slot) in pairs.iter().zip(&mut scores) {
                let (Some(Some(old_i)), Some(Some(old_j))) = (old_of.get(i), old_of.get(j)) else {
                    continue;
                };
                let old_pair = (*old_i, *old_j);
                while stored.next_if(|&&(a, b, _)| (a, b) < old_pair).is_some() {}
                *slot = stored
                    .next_if(|&&(a, b, _)| (a, b) == old_pair)
                    .map(|&(_, _, carried)| carried);
            }
        }
        let missing: Vec<(usize, usize)> = pairs
            .iter()
            .zip(&scores)
            .filter(|(_, carried)| carried.is_none())
            .map(|(&pair, _)| pair)
            .collect();
        let mut computed = shard_map(&missing, threads, |&(i, j)| score(i, j)).into_iter();
        self.stats.pairs_rescored += missing.len();
        self.stats.score_hits += pairs.len() - missing.len();
        let scored: ScoredPairs = Arc::new(
            pairs
                .iter()
                .zip(scores)
                .map(|(&(i, j), carried)| {
                    let s = carried
                        .or_else(|| computed.next())
                        .expect("invariant: every candidate is either carried or freshly scored");
                    (i, j, s)
                })
                .collect(),
        );
        self.partitions.put(
            self.generation,
            concept,
            Arc::new(Partition {
                digests: digests.to_vec(),
                scored: Arc::clone(&scored),
            }),
        );
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
        out
    }

    /// Build — or patch — the record index over `store`'s live records, in
    /// the ascending-id order a fresh build adds them. One walk over the
    /// cached and the live sequence decides everything: a record that is
    /// the allocation its cached tokens came from (or equal to it) keeps
    /// them; any other is re-tokenized and, when its tokens or concept
    /// moved, listed as a [`RecordChange`]. Patching requires the
    /// `(id, concept)` sequence to be unchanged: a record insertion or
    /// removal renumbers every later internal doc id, in which case the
    /// index is rebuilt from the token lists.
    pub(crate) fn record_index_with(&mut self, store: &Store) -> LrecIndex {
        let warm = self.record_index.is_some();
        let mut cached = self
            .record_index
            .as_mut()
            .map(|c| std::mem::take(&mut c.entries))
            .unwrap_or_default()
            .into_iter()
            .peekable();
        let mut entries: Vec<(Arc<Lrec>, Vec<String>)> = Vec::new();
        let mut changes: Vec<RecordChange> = Vec::new();
        let mut same_sequence = warm;
        let removal = |(rec, tokens): (Arc<Lrec>, Vec<String>)| RecordChange {
            id: rec.id(),
            concept: rec.concept(),
            old_tokens: Some(tokens),
            new_tokens: None,
        };
        for id in store.live_ids() {
            let rec = store
                .latest_shared(id)
                .expect("invariant: live_ids() yields ids with a latest version");
            // Both sequences ascend by id: cached records below `id` are
            // no longer live.
            while let Some(gone) = cached.next_if(|(old, _)| old.id() < id) {
                same_sequence = false;
                changes.push(removal(gone));
            }
            let tokens = match cached.next_if(|(old, _)| old.id() == id) {
                Some((old, tokens)) if Arc::ptr_eq(&old, rec) || *old == **rec => tokens,
                old => {
                    self.stats.record_tokens_recomputed += 1;
                    let tokens = LrecIndex::record_tokens(rec);
                    let same_concept = old
                        .as_ref()
                        .is_some_and(|(old, _)| old.concept() == rec.concept());
                    same_sequence &= same_concept;
                    let old_tokens = old.map(|(_, tokens)| tokens);
                    let moved = !same_concept || old_tokens.as_ref() != Some(&tokens);
                    // A cold build has no previous pass to diff against.
                    if warm && moved {
                        changes.push(RecordChange {
                            id,
                            concept: rec.concept(),
                            old_tokens,
                            new_tokens: Some(tokens.clone()),
                        });
                    }
                    tokens
                }
            };
            entries.push((Arc::clone(rec), tokens));
        }
        for gone in cached {
            same_sequence = false;
            changes.push(removal(gone));
        }
        let index = match self.record_index.as_mut() {
            Some(cache) if same_sequence => {
                for c in &changes {
                    let (Some(old), Some(new)) = (&c.old_tokens, &c.new_tokens) else {
                        unreachable!("an unchanged record sequence only changes tokens")
                    };
                    self.stats.postings_patched += cache.index.replace(c.id, old, new);
                    self.stats.records_repatched += 1;
                }
                cache.entries = entries;
                cache.index.clone()
            }
            _ => {
                self.stats.record_index_rebuilt = true;
                let mut index = LrecIndex::new();
                for (rec, tokens) in &entries {
                    index.add_record_tokens(rec.id(), rec.concept(), tokens);
                }
                self.record_index = Some(RecordIndexCache {
                    index: index.clone(),
                    entries,
                });
                index
            }
        };
        self.stats.record_changes = changes;
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
    use woc_lrec::ConceptId;

    /// Three hand-built records whose digests were taken at the commit
    /// before `content_digest` stopped rendering through a `String`: the
    /// streamed rendering must hash to the same values, or every warm
    /// partition would go cold.
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

    /// The properties of [`align`] the join rests on, for any input:
    /// strictly increasing, equal digests only.
    fn assert_sound(old: &[u64], new: &[u64], map: &[Option<usize>]) {
        assert_eq!(map.len(), new.len());
        let mapped: Vec<usize> = map.iter().flatten().copied().collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]), "{map:?}");
        for (n, o) in map.iter().enumerate() {
            if let Some(o) = *o {
                assert_eq!(old[o], new[n], "position {n} -> {o}");
            }
        }
    }

    #[test]
    fn align_recovers_survivors_and_is_always_sound() {
        let old = [10, 20, 30, 40, 50, 60];
        let same = align(&old, &old);
        assert_eq!(same, (0..6).map(Some).collect::<Vec<_>>(), "identity");

        // A removed block, a replaced record and an append: every survivor
        // is found.
        let new = [10, 40, 55, 60, 70];
        let map = align(&old, &new);
        assert_sound(&old, &new, &map);
        assert_eq!(map, vec![Some(0), Some(3), None, Some(5), None]);

        // Duplicate digests take successive positions.
        let (old, new) = ([7, 7, 8, 7], [7, 7, 7, 7]);
        let map = align(&old, &new);
        assert_sound(&old, &new, &map);
        assert_eq!(map, vec![Some(0), Some(1), Some(3), None]);

        // A record that moved to the front drags the cursor past everything
        // it jumped: matches are lost, the map stays sound.
        let (old, new) = ([1, 2, 3, 4], [4, 1, 2, 3]);
        let map = align(&old, &new);
        assert_sound(&old, &new, &map);
        assert_eq!(map, vec![Some(3), None, None, None]);

        assert!(align(&[], &[1, 2]).iter().all(Option::is_none));
        assert!(align(&[1, 2], &[]).is_empty());
    }

    /// Every pair over `n` positions, sorted — one bucket holding everyone.
    fn all_pairs(n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .collect()
    }

    /// Resolve a partition whose candidates are all pairs, scored
    /// `100·digest_i + digest_j` so a carried score is recognisably the
    /// score of the same two records; returns the scored pairs and the
    /// digest pairs the scorer was asked about.
    fn resolve_all_pairs(c: &mut BuildCaches, digests: &[u64]) -> (ScoredPairs, Vec<(u64, u64)>) {
        let scored_now = std::sync::Mutex::new(Vec::new());
        let n = digests.len();
        let scored = c.memo_partition(
            3,
            digests,
            1,
            || all_pairs(n),
            |i, j| {
                scored_now.lock().unwrap().push((digests[i], digests[j]));
                (100 * digests[i] + digests[j]) as f64
            },
        );
        for &(i, j, s) in scored.iter() {
            assert_eq!(s, (100 * digests[i] + digests[j]) as f64, "pair ({i}, {j})");
        }
        (scored, scored_now.into_inner().unwrap())
    }

    #[test]
    fn partition_join_scores_only_pairs_touching_a_changed_record() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        let (_, fresh) = resolve_all_pairs(&mut c, &[1, 2, 3, 4]);
        assert_eq!(fresh.len(), 6);
        c.end_pass();

        // Record 3 rewritten to 9: the three pairs touching it are scored,
        // the other three carried.
        c.begin_pass();
        let (scored, fresh) = resolve_all_pairs(&mut c, &[1, 2, 9, 4]);
        assert_eq!(fresh, vec![(1, 9), (2, 9), (9, 4)]);
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (3, 3));
        assert_eq!(scored.len(), 6);
        c.end_pass();

        // Record 1 removed: nothing is scored, and the carried pairs are
        // renumbered to the new positions.
        c.begin_pass();
        let (scored, fresh) = resolve_all_pairs(&mut c, &[2, 9, 4]);
        assert!(fresh.is_empty());
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (0, 3));
        assert_eq!(*scored, vec![(0, 1, 209.0), (0, 2, 204.0), (1, 2, 904.0)]);
        c.end_pass();

        // An appended record pairs with everyone; nothing else is scored.
        c.begin_pass();
        let (_, fresh) = resolve_all_pairs(&mut c, &[2, 9, 4, 5]);
        assert_eq!(fresh, vec![(2, 5), (9, 5), (4, 5)]);
        c.end_pass();
        assert_eq!(
            c.partitions.table.len(),
            1,
            "one live partition per concept"
        );
    }

    #[test]
    fn partition_join_scores_a_pair_that_becomes_a_candidate() {
        // Blocking as a bucket of everyone under a size limit of 3: with
        // four records the bucket is oversized and pairs nothing; when one
        // leaves, the pairs among the *unchanged* three appear. They were
        // never candidates, so they have no stored score to carry.
        let bucket = |n: usize| if n > 3 { Vec::new() } else { all_pairs(n) };
        let mut c = BuildCaches::new();
        c.begin_pass();
        let first = c.memo_partition(3, &[1, 2, 3, 4], 1, || bucket(4), |_, _| panic!("no pairs"));
        assert!(first.is_empty());
        c.end_pass();
        c.begin_pass();
        let second = c.memo_partition(3, &[1, 2, 3], 1, || bucket(3), |i, j| (i + j) as f64);
        assert_eq!(*second, vec![(0, 1, 1.0), (0, 2, 2.0), (1, 2, 3.0)]);
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (3, 0));
        c.end_pass();
        // And the reverse: the bucket grows past the limit, the stored pairs
        // are not candidates any more and are not carried anywhere.
        c.begin_pass();
        let third = c.memo_partition(3, &[1, 2, 3, 4], 1, || bucket(4), |_, _| panic!("no pairs"));
        assert!(third.is_empty());
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (0, 0));
    }

    #[test]
    fn a_concept_absent_for_a_pass_is_evicted() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3], |_, _| 1.0);
        c.memo_partition(9, &[7, 8], 1, || vec![(0, 1)], |_, _| 2.0);
        c.end_pass();
        assert_eq!(c.partitions.table.len(), 2);

        // Concept 9 is not resolved this pass: its partition goes, concept
        // 3's — a hit — stays.
        c.begin_pass();
        resolve_partition(&mut c, &[1, 2, 3], |_, _| panic!("a hit"));
        c.end_pass();
        assert_eq!(c.partitions.table.len(), 1);
        assert!(c.partitions.table.contains_key(&3));

        // When it returns, everything is scored again.
        c.begin_pass();
        c.memo_partition(9, &[7, 8], 1, || vec![(0, 1)], |_, _| 2.0);
        assert_eq!((c.stats().pairs_rescored, c.stats().score_hits), (1, 0));
    }

    fn typed(id: u64, name: &str) -> TypedRecord {
        use woc_lrec::{Provenance, Tick};
        let mut rec = Lrec::new(LrecId(id), ConceptId(1));
        rec.add(
            "name",
            name.into(),
            Provenance::extracted("http://site.test/", "list-extractor", 0.6, Tick(1)),
        );
        TypedRecord::new(rec, "list-extractor", Vec::new())
    }

    #[test]
    fn typed_memo_hits_return_the_stored_records_verbatim() {
        let mut c = BuildCaches::new();
        c.begin_pass();
        let first = c.memo_typed(7, LrecId(4), || vec![typed(4, "a"), typed(5, "b")]);
        assert_eq!(c.stats().records_retyped, 2);
        c.end_pass();

        c.begin_pass();
        let again = c.memo_typed(7, LrecId(4), || panic!("a hit must not type"));
        assert!(Arc::ptr_eq(&first, &again), "the stored page, verbatim");
        assert!(Arc::ptr_eq(&first[0].rec, &again[0].rec));
        assert_eq!(c.stats().records_retyped, 0);
        // The same content one id later — an earlier page lost a record —
        // and changed content under the same first id both miss.
        let shifted = c.memo_typed(7, LrecId(3), || vec![typed(3, "a"), typed(4, "b")]);
        assert_eq!(shifted[0].rec.id(), LrecId(3));
        let edited = c.memo_typed(8, LrecId(4), || vec![typed(4, "c")]);
        assert_eq!(edited[0].rec.best_text("name"), Some("c"));
        assert_eq!(c.stats().records_retyped, 3);
        c.end_pass();
        assert_eq!(c.typed.table.len(), 3);

        // A pass that reads one entry evicts the other two.
        c.begin_pass();
        c.memo_typed(8, LrecId(4), || panic!("still stored"));
        c.end_pass();
        assert_eq!(c.typed.table.len(), 1);
        assert!(c.typed.table.contains_key(&(8, LrecId(4))));
    }

    /// Stage C reads the digest stage B carried instead of rendering the
    /// record again: the two must be the same number for every record a
    /// real build types, so `content_digest_values_are_pinned` pins both.
    #[test]
    #[cfg_attr(miri, ignore = "builds a whole corpus")]
    fn carried_digests_equal_content_digests() {
        use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};
        let world = World::generate(WorldConfig::tiny(206));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(16));
        let cfg = crate::PipelineConfig::default();
        let mut c = BuildCaches::new();
        let fps = c.fingerprint_pages(&corpus, cfg.threads);
        let woc = crate::build_with_caches(&corpus, &cfg, &mut c, &fps);
        let records: Vec<&TypedRecord> = c
            .typed
            .table
            .values()
            .flat_map(|e| e.value.iter())
            .collect();
        assert_eq!(records.len(), woc.store.total_created());
        assert_eq!(c.stats().records_retyped, records.len());
        for t in records {
            assert_eq!(t.digest, content_digest(&t.rec), "record {}", t.rec.id());
        }
    }

    #[test]
    fn record_index_retokenizes_only_records_that_moved() {
        use woc_lrec::{Provenance, Tick};
        let concept = ConceptId(1);
        let prov = || Provenance::ground_truth(Tick(0));
        let mut store = Store::new();
        for name in ["Gochi Fusion Tapas", "El Farolito", "Casa Cantina"] {
            store.insert(concept, Tick(0), |r| r.add("name", name.into(), prov()));
        }
        let fresh = |store: &Store| crate::pipeline::flat_record_index(store).digest();
        let mut c = BuildCaches::new();

        c.begin_pass();
        assert_eq!(c.record_index_with(&store).digest(), fresh(&store));
        let s = c.stats();
        assert!(s.record_index_rebuilt && s.record_changes.is_empty());
        assert_eq!(
            s.record_tokens_recomputed, 3,
            "a cold pass tokenizes everything"
        );

        // The same allocations, and an equal store built apart from them:
        // nothing to tokenize, nothing changed.
        let mut apart = Store::new();
        for name in ["Gochi Fusion Tapas", "El Farolito", "Casa Cantina"] {
            apart.insert(concept, Tick(0), |r| r.add("name", name.into(), prov()));
        }
        for same in [&store, &apart] {
            c.begin_pass();
            assert_eq!(c.record_index_with(same).digest(), fresh(&store));
            let s = c.stats();
            assert_eq!((s.record_tokens_recomputed, s.records_repatched), (0, 0));
            assert!(!s.record_index_rebuilt && s.record_changes.is_empty());
        }

        // One record renamed, one re-stamped: both are tokenized again, only
        // the rename changes the index, and it is patched in place.
        store
            .update(LrecId(1), Tick(1), |r| {
                r.set("name", "El Farolito Nuevo".into(), prov())
            })
            .unwrap();
        store
            .update(LrecId(2), Tick(1), |r| {
                r.set(
                    "name",
                    "Casa Cantina".into(),
                    Provenance::ground_truth(Tick(1)),
                )
            })
            .unwrap();
        c.begin_pass();
        assert_eq!(c.record_index_with(&store).digest(), fresh(&store));
        let s = c.stats();
        assert_eq!((s.record_tokens_recomputed, s.records_repatched), (2, 1));
        assert!(!s.record_index_rebuilt && s.postings_patched > 0);
        assert_eq!(s.record_changes.len(), 1);
        let change = &s.record_changes[0];
        assert_eq!((change.id, change.concept), (LrecId(1), concept));
        assert_eq!(change.old_tokens.as_ref().map(Vec::len), Some(4));
        assert_eq!(change.new_tokens.as_ref().map(Vec::len), Some(6));

        // A retraction and an insertion change the sequence: the index is
        // rebuilt, and the diff lists the removal and the arrival by id.
        store.retract(LrecId(0)).unwrap();
        store.insert(concept, Tick(2), |r| {
            r.add("name", "Udon House".into(), prov())
        });
        c.begin_pass();
        assert_eq!(c.record_index_with(&store).digest(), fresh(&store));
        let s = c.stats();
        assert!(s.record_index_rebuilt);
        assert_eq!(s.record_tokens_recomputed, 1);
        let diff: Vec<(LrecId, bool, bool)> = s
            .record_changes
            .iter()
            .map(|ch| (ch.id, ch.old_tokens.is_some(), ch.new_tokens.is_some()))
            .collect();
        assert_eq!(
            diff,
            vec![(LrecId(0), true, false), (LrecId(3), false, true)]
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
        assert_eq!(
            c.stats().pages_fingerprinted,
            3,
            "the second sweep read the corpus's kept fingerprints"
        );
        c.begin_pass();
        assert_eq!(c.stats().pages_fingerprinted, 0);
    }
}
