//! LSM-style segmented record index: a frozen base segment with *pinned*
//! corpus-global scoring statistics plus small frozen delta segments, merged
//! by a deterministic size-tiered policy.
//!
//! The design exists for one property: **byte-identical scoring with a
//! surviving cache**. BM25 mixes per-record quantities (tf, record length)
//! with corpus-global ones (df, mean length). Rebuilding the flat index on
//! every maintenance epoch shifts the global quantities, which shifts *every*
//! score, which forces the serving layer to drop its entire result cache.
//! Pinning the global statistics at base-freeze time and scoring every
//! segment through the pinned snapshot
//! ([`InvertedIndex::search_terms_pruned_with_stats`]) makes a record's score
//! a pure function of its own frozen content — so a query whose posting
//! lists a delta did not touch returns bitwise-identical results across
//! epochs, and its cached answer stays valid.
//!
//! The pinned statistics drift from the true corpus statistics as deltas
//! accumulate; a *full compaction* re-freezes a single base segment and
//! re-pins the stats (the one event that invalidates all cached scores).
//! Between compactions, equivalence is defined against — and tested
//! against — a flat [`LrecIndex`] over the same live records scored through
//! the same pinned snapshot; at every compaction point the pinned snapshot
//! *is* the flat index's own statistics, so the two-tier index is
//! indistinguishable from a from-scratch rebuild.
//!
//! The fielded-query evaluator lives here once, in two halves.
//! **Scatter** — [`LrecSegment::search`] — is one frozen segment's top
//! hits under caller-supplied statistics and dead set; **gather** —
//! [`gather`] — orders the scattered hits, cuts at
//! [`FieldQuery::fetch_budget`], filters by concept and scoped
//! requirement, and cuts at `k`. [`SegmentedLrecIndex::search`] scatters
//! over its slots; `woc-cluster`'s router scatters over the shards'
//! segments (a shard is a frozen segment over the records it owns, scored
//! through the same pinned statistics with nothing dead) and calls the same
//! gather. The flat [`LrecIndex`] keeps its own independent copy of the
//! plan — it is the reference the equivalence suites compare against.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use woc_lrec::{ConceptId, LrecId};
use woc_textkit::Fnv1a;

use crate::index::{BlockMaxIndex, InvertedIndex, ScoringStats};
use crate::lrec_index::{scoped_term, FieldQuery, LrecIndex, RecordHit};
use crate::postings::DocId;

/// Postings per block-max block in frozen segments.
pub const SEGMENT_BLOCK: usize = 64;

/// One record-index mutation of a maintenance pass: the token sequence
/// (see [`LrecIndex::record_tokens`]) a record was indexed under before and
/// after. `None` on one side marks an insertion (`old_tokens`) or a removal
/// (`new_tokens`). The build's record-index diff emits these, and they are
/// exactly what [`SegmentedLrecIndex::apply_delta`] absorbs as a delta
/// segment to stay equal to a flat rebuild; it reads only `new_tokens`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordChange {
    /// The record.
    pub id: LrecId,
    /// Its concept: the new owner for upserts, the old one for removals.
    pub concept: ConceptId,
    /// Tokens the record was indexed under before the pass, if it existed.
    pub old_tokens: Option<Vec<String>>,
    /// Tokens the record is indexed under after the pass, or `None` to
    /// tombstone it.
    pub new_tokens: Option<Vec<String>>,
}

/// Deterministic merge policy: size-tiered delta merging plus a full
/// compaction trigger. All thresholds are compared the same way on every
/// replica, so two indexes fed the same deltas always take the same merges.
#[derive(Debug, Clone, Copy)]
pub struct MergePolicy {
    /// Merge any run of this many adjacent same-tier deltas (tier =
    /// `floor(log2(records))`).
    pub fanout: usize,
    /// Full compaction when the delta tier holds more than this fraction of
    /// the base segment's records.
    pub compact_fraction: f64,
    /// Full compaction whenever more than this many deltas remain after
    /// tiered merging.
    pub max_deltas: usize,
}

impl Default for MergePolicy {
    fn default() -> Self {
        Self {
            fanout: 4,
            compact_fraction: 0.5,
            max_deltas: 12,
        }
    }
}

/// What one [`SegmentedLrecIndex::apply_delta`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// A new delta segment was frozen.
    pub delta_added: bool,
    /// Tiered merges performed by the policy.
    pub merges: usize,
    /// A full compaction ran: the base was re-frozen and the scoring stats
    /// re-pinned, so *all* previously issued scores are invalidated.
    pub repinned: bool,
}

/// One frozen segment: records indexed in ascending id order, with retained
/// token sequences (merges re-index them verbatim) and frozen block-max
/// pruning metadata.
#[derive(Debug)]
pub struct LrecSegment {
    /// `(id, concept, tokens)` in strictly ascending id order; local doc id
    /// `i` is the record at `entries[i]`.
    entries: Vec<(LrecId, ConceptId, Vec<String>)>,
    index: InvertedIndex,
    by_lrec: HashMap<LrecId, DocId>,
    blockmax: BlockMaxIndex,
}

impl LrecSegment {
    /// Freeze a segment from entries in strictly ascending id order.
    pub fn build(entries: Vec<(LrecId, ConceptId, Vec<String>)>) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "segment entries must be strictly ascending by record id"
        );
        let mut index = InvertedIndex::new();
        let mut by_lrec = HashMap::with_capacity(entries.len());
        for (id, _, tokens) in &entries {
            let doc = index.add_tokens(tokens);
            by_lrec.insert(*id, doc);
        }
        let blockmax = index.block_max(SEGMENT_BLOCK);
        Self {
            entries,
            index,
            by_lrec,
            blockmax,
        }
    }

    /// Records in this segment (live or shadowed).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record ids in this segment, ascending.
    pub fn ids(&self) -> impl Iterator<Item = LrecId> + '_ {
        self.entries.iter().map(|(id, _, _)| *id)
    }

    /// Scoring statistics of this segment's own contents (the values pinned
    /// when the segment is frozen as a base).
    pub fn scoring_stats(&self) -> ScoringStats {
        self.index.scoring_stats()
    }

    /// Content digest over the inner index and the record/concept mapping.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::resume(self.index.digest());
        for (id, concept, _) in &self.entries {
            h.fold(id.0);
            h.fold(concept.0 as u64);
        }
        h.finish()
    }

    fn entry(&self, doc: DocId) -> (LrecId, ConceptId) {
        let (id, concept, _) = self.entries[doc.0 as usize];
        (id, concept)
    }

    /// Scatter half of the fielded-query evaluator: this segment's top
    /// `fetch` records for the rendered `terms` (see
    /// [`FieldQuery::index_terms`]), scored through the corpus-global
    /// `stats` with the segment's own block-max metadata, skipping `dead`
    /// docs without spending result slots on them.
    pub fn search(
        &self,
        terms: &[String],
        fetch: usize,
        stats: &ScoringStats,
        dead: &HashSet<DocId>,
    ) -> Vec<RecordHit> {
        self.index
            .search_terms_pruned_with_stats(terms, fetch, stats, &self.blockmax, dead)
            .into_iter()
            .map(|h| {
                let (id, concept) = self.entry(h.doc);
                RecordHit {
                    id,
                    concept,
                    score: h.score,
                }
            })
            .collect()
    }

    /// True if this segment's version of record `id` contains the rendered
    /// index `term` — the per-record predicate behind scoped requirements.
    pub fn has_term(&self, id: LrecId, term: &str) -> bool {
        self.by_lrec
            .get(&id)
            .is_some_and(|&doc| !self.index.positions(term, doc).is_empty())
    }
}

/// Gather half of the fielded-query evaluator: merge scattered segment hits
/// into the flat index's order, cut at the fetch budget, apply the resolved
/// `concept` filter and the scoped *requirements* (a hit must contain every
/// scoped term; `has_term` asks the segment serving the record), cut at `k`.
/// Segments index in ascending record-id order, so the flat
/// `(score desc, doc asc)` tie-break is `(score desc, id asc)`.
pub fn gather(
    mut hits: Vec<RecordHit>,
    query: &FieldQuery,
    k: usize,
    concept: Option<ConceptId>,
    has_term: impl Fn(LrecId, &str) -> bool,
) -> Vec<RecordHit> {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.id.cmp(&b.id))
    });
    hits.truncate(FieldQuery::fetch_budget(k, concept.is_some()));
    if let Some(c) = concept {
        hits.retain(|h| h.concept == c);
    }
    if !query.scoped.is_empty() {
        let required: Vec<String> = query
            .scoped
            .iter()
            .map(|(f, t)| scoped_term(f, t))
            .collect();
        hits.retain(|h| required.iter().all(|t| has_term(h.id, t)));
    }
    hits.truncate(k);
    hits
}

/// The two-tier segmented record index: `base` + `deltas`, all scored
/// through the pinned [`ScoringStats`] — see the module docs for why.
///
/// Within each segment, a record may be *dead*: shadowed by a newer version
/// in a later segment, or tombstoned. Dead records are skipped during
/// scoring without occupying result slots, so the index always answers as if
/// it held exactly the newest live version of every record.
#[derive(Debug, Clone)]
pub struct SegmentedLrecIndex {
    base: Arc<LrecSegment>,
    deltas: Vec<Arc<LrecSegment>>,
    /// Dead local docs per slot (`0` = base, `1..` = deltas).
    dead: Vec<HashSet<DocId>>,
    /// Record id → slot holding its live version.
    live: HashMap<LrecId, usize>,
    tombstones: BTreeSet<LrecId>,
    pinned: ScoringStats,
    policy: MergePolicy,
    merges: u64,
    compactions: u64,
}

impl SegmentedLrecIndex {
    /// Freeze `entries` (strictly ascending by id) as the base segment and
    /// pin its scoring statistics.
    pub fn new(entries: Vec<(LrecId, ConceptId, Vec<String>)>, policy: MergePolicy) -> Self {
        let base = Arc::new(LrecSegment::build(entries));
        let pinned = base.scoring_stats();
        let mut seg = Self {
            base,
            deltas: Vec::new(),
            dead: Vec::new(),
            live: HashMap::new(),
            tombstones: BTreeSet::new(),
            pinned,
            policy,
            merges: 0,
            compactions: 0,
        };
        seg.reindex();
        seg
    }

    /// The pinned corpus-global statistics every segment scores through.
    pub fn pinned_stats(&self) -> &ScoringStats {
        &self.pinned
    }

    /// The frozen base segment (shared: replicas holding an equal `Arc`
    /// provably serve identical base postings).
    pub fn base_segment(&self) -> &Arc<LrecSegment> {
        &self.base
    }

    /// The frozen delta segments, oldest first.
    pub fn delta_segments(&self) -> &[Arc<LrecSegment>] {
        &self.deltas
    }

    /// Number of delta segments currently stacked on the base.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// Live records across all segments.
    pub fn live_len(&self) -> usize {
        self.live.len()
    }

    /// Live record ids, ascending.
    pub fn live_ids(&self) -> Vec<LrecId> {
        let mut ids: Vec<LrecId> = self.live.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Slot index (`0` = base) of the segment serving `id`, if live.
    pub fn owner_of(&self, id: LrecId) -> Option<usize> {
        self.live.get(&id).copied()
    }

    /// Tombstoned record ids, ascending.
    pub fn tombstoned(&self) -> Vec<LrecId> {
        self.tombstones.iter().copied().collect()
    }

    /// Tiered merges performed over this index's lifetime.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Full compactions (stat re-pins) over this index's lifetime.
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// Total segments (base + deltas).
    pub fn segment_count(&self) -> usize {
        1 + self.deltas.len()
    }

    /// `(id, dead)` for every record in slot `slot`, reading the *actual*
    /// per-slot dead set the search path skips through — the audit's raw
    /// view of segment membership, cross-checked against [`Self::owner_of`]
    /// (which reads the independent live map feeding [`Self::flatten`]).
    pub fn slot_entries(&self, slot: usize) -> Vec<(LrecId, bool)> {
        let seg = self.slot(slot);
        seg.ids()
            .map(|id| (id, self.dead[slot].contains(&seg.by_lrec[&id])))
            .collect()
    }

    fn slot(&self, slot: usize) -> &Arc<LrecSegment> {
        if slot == 0 {
            &self.base
        } else {
            &self.deltas[slot - 1]
        }
    }

    /// Recompute the live map and per-slot dead sets from segment order and
    /// tombstones. Runs after every structural change; by construction the
    /// result depends only on (segment contents in order, tombstones), never
    /// on the mutation path that produced them.
    fn reindex(&mut self) {
        self.live.clear();
        for slot in 0..self.segment_count() {
            for id in self.slot(slot).ids().collect::<Vec<_>>() {
                self.live.insert(id, slot);
            }
        }
        for id in &self.tombstones {
            self.live.remove(id);
        }
        self.dead = (0..self.segment_count())
            .map(|slot| {
                self.slot(slot)
                    .ids()
                    .enumerate()
                    .filter(|(_, id)| self.live.get(id) != Some(&slot))
                    .map(|(i, _)| DocId(i as u32))
                    .collect()
            })
            .collect();
    }

    /// Apply one maintenance epoch's record changes: freeze the upserts as a
    /// new delta segment, tombstone the removals, then run the merge policy.
    pub fn apply_delta(&mut self, changes: &[RecordChange]) -> DeltaOutcome {
        let mut outcome = DeltaOutcome::default();
        if changes.is_empty() {
            return outcome;
        }
        let mut upserts: Vec<(LrecId, ConceptId, Vec<String>)> = changes
            .iter()
            .filter_map(|c| c.new_tokens.as_ref().map(|t| (c.id, c.concept, t.clone())))
            .collect();
        upserts.sort_unstable_by_key(|(id, _, _)| *id);
        assert!(
            upserts.windows(2).all(|w| w[0].0 < w[1].0),
            "a delta must carry at most one change per record"
        );
        for c in changes {
            if c.new_tokens.is_none() {
                self.tombstones.insert(c.id);
            } else {
                self.tombstones.remove(&c.id);
            }
        }
        if !upserts.is_empty() {
            self.deltas.push(Arc::new(LrecSegment::build(upserts)));
            outcome.delta_added = true;
        }
        self.reindex();
        outcome.merges = self.run_tier_merges();
        if self.should_compact() {
            self.compact();
            outcome.repinned = true;
        }
        outcome
    }

    fn tier(len: usize) -> u32 {
        usize::BITS - 1 - len.max(1).leading_zeros()
    }

    /// Merge runs of ≥ `fanout` adjacent same-tier deltas, leftmost first,
    /// until none remain. Returns the number of merges performed.
    fn run_tier_merges(&mut self) -> usize {
        let fanout = self.policy.fanout.max(2);
        let mut merges = 0;
        loop {
            let tiers: Vec<u32> = self.deltas.iter().map(|d| Self::tier(d.len())).collect();
            if tiers.len() < fanout {
                break;
            }
            let run = (0..=tiers.len() - fanout)
                .find(|&i| tiers[i..i + fanout].iter().all(|&t| t == tiers[i]));
            match run {
                Some(start) => {
                    self.merge_deltas(start, start + fanout - 1);
                    merges += 1;
                }
                None => break,
            }
        }
        merges
    }

    fn should_compact(&self) -> bool {
        if self.deltas.len() > self.policy.max_deltas {
            return true;
        }
        let delta_records: usize = self.deltas.iter().map(|d| d.len()).sum();
        delta_records as f64 > self.policy.compact_fraction * self.base.len().max(1) as f64
    }

    /// Merge adjacent delta slots `start..=end` (0-based positions within
    /// the delta stack) into one frozen segment. Newest version of each
    /// record wins; entries re-freeze in ascending id order, so the merged
    /// segment's postings are a pure function of the input segments —
    /// independent of the schedule that produced them.
    pub fn merge_deltas(&mut self, start: usize, end: usize) {
        assert!(
            start <= end && end < self.deltas.len(),
            "merge range {start}..={end} out of bounds ({} deltas)",
            self.deltas.len()
        );
        let mut newest: HashMap<LrecId, (ConceptId, Vec<String>)> = HashMap::new();
        for seg in &self.deltas[start..=end] {
            for (id, concept, tokens) in &seg.entries {
                newest.insert(*id, (*concept, tokens.clone()));
            }
        }
        let mut entries: Vec<(LrecId, ConceptId, Vec<String>)> = newest
            .into_iter()
            .map(|(id, (concept, tokens))| (id, concept, tokens))
            .collect();
        entries.sort_unstable_by_key(|(id, _, _)| *id);
        let merged = Arc::new(LrecSegment::build(entries));
        self.deltas.splice(start..=end, [merged]);
        self.merges += 1;
        self.reindex();
    }

    /// Full compaction: re-freeze every live record into a single base
    /// segment and re-pin the scoring statistics. After this, the segmented
    /// index is byte-identical (see [`SegmentedLrecIndex::flatten`]) to a
    /// flat index rebuilt from scratch, and the pinned stats equal that flat
    /// index's own statistics.
    pub fn compact(&mut self) {
        let mut ids: Vec<LrecId> = self.live.keys().copied().collect();
        ids.sort_unstable();
        let entries: Vec<(LrecId, ConceptId, Vec<String>)> = ids
            .into_iter()
            .map(|id| {
                let slot = self.live[&id];
                let seg = self.slot(slot);
                let doc = seg.by_lrec[&id];
                let (_, concept, tokens) = &seg.entries[doc.0 as usize];
                (id, *concept, tokens.clone())
            })
            .collect();
        self.base = Arc::new(LrecSegment::build(entries));
        self.deltas.clear();
        self.tombstones.clear();
        self.pinned = self.base.scoring_stats();
        self.compactions += 1;
        self.reindex();
    }

    /// Search with a parsed [`FieldQuery`]: scatter over the slots (each
    /// scored through the pinned statistics, skipping its dead docs), then
    /// [`gather`]. Returns exactly what a flat [`LrecIndex`] over the live
    /// records would return from [`LrecIndex::search_with_stats`] with the
    /// same pinned snapshot — same hits, same order, same score bits (the
    /// differential harness in `tests/segment_equiv.rs` holds this across
    /// churn and merge schedules).
    pub fn search(
        &self,
        query: &FieldQuery,
        k: usize,
        concept_resolver: impl Fn(&str) -> Option<ConceptId>,
    ) -> Vec<RecordHit> {
        let concept = query.concept.as_deref().and_then(&concept_resolver);
        let terms = query.index_terms();
        let fetch = FieldQuery::fetch_budget(k, concept.is_some());
        let mut hits: Vec<RecordHit> = Vec::new();
        for slot in 0..self.segment_count() {
            let seg = self.slot(slot);
            hits.extend(seg.search(&terms, fetch, &self.pinned, &self.dead[slot]));
        }
        gather(hits, query, k, concept, |id, term| {
            self.owner_of(id)
                .is_some_and(|slot| self.slot(slot).has_term(id, term))
        })
    }

    /// Build the flat [`LrecIndex`] this segmented index is equivalent to:
    /// every live record, ascending id order. Used by the differential
    /// harness and the W014 audit; at compaction points its digest equals
    /// the base segment's.
    pub fn flatten(&self) -> LrecIndex {
        let mut flat = LrecIndex::new();
        let mut ids: Vec<LrecId> = self.live.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let seg = self.slot(self.live[&id]);
            let doc = seg.by_lrec[&id];
            let (_, concept, tokens) = &seg.entries[doc.0 as usize];
            flat.add_record_tokens(id, *concept, tokens);
        }
        flat
    }

    /// Content digest over all segments, liveness, tombstones and the pinned
    /// stats — equal digests mean two replicas serve identical answers.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for slot in 0..self.segment_count() {
            h.fold(self.slot(slot).digest());
            let mut dead: Vec<u32> = self.dead[slot].iter().map(|d| d.0).collect();
            dead.sort_unstable();
            for d in dead {
                h.fold(d as u64);
            }
            h.fold(u64::MAX);
        }
        for id in &self.tombstones {
            h.fold(id.0);
        }
        h.fold(self.pinned.digest());
        h.finish()
    }

    /// Corrupt the liveness of `id` by reassigning it to `slot` (out of
    /// range = drop it entirely) *without* reindexing — test hook for the
    /// W014 segment-consistency audit. Hidden: never call outside tests.
    #[doc(hidden)]
    pub fn corrupt_set_owner(&mut self, id: LrecId, slot: Option<usize>) {
        match slot {
            Some(s) => {
                self.live.insert(id, s);
            }
            None => {
                self.live.remove(&id);
            }
        }
    }

    /// Corrupt the per-slot dead set for `id` — test hook for W014.
    #[doc(hidden)]
    pub fn corrupt_set_dead(&mut self, slot: usize, id: LrecId, dead: bool) {
        if let Some(&doc) = self.slot(slot).by_lrec.get(&id) {
            if dead {
                self.dead[slot].insert(doc);
            } else {
                self.dead[slot].remove(&doc);
            }
        }
    }

    /// Corrupt the pinned statistics — test hook for W014.
    #[doc(hidden)]
    pub fn corrupt_pinned_stats(&mut self, stats: ScoringStats) {
        self.pinned = stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    fn entry(id: u64, concept: u32, words: &[&str]) -> (LrecId, ConceptId, Vec<String>) {
        (LrecId(id), ConceptId(concept), toks(words))
    }

    fn base() -> SegmentedLrecIndex {
        SegmentedLrecIndex::new(
            vec![
                entry(1, 0, &["gochi", "tapas", "cupertino"]),
                entry(2, 0, &["farolito", "mexican", "francisco"]),
                entry(3, 0, &["cantina", "mexican", "jose"]),
            ],
            MergePolicy {
                fanout: 4,
                compact_fraction: 100.0,
                max_deltas: 100,
            },
        )
    }

    fn q(terms: &[&str]) -> FieldQuery {
        FieldQuery {
            terms: toks(terms),
            scoped: Vec::new(),
            concept: None,
        }
    }

    #[test]
    fn base_matches_flat_rebuild() {
        let seg = base();
        assert_eq!(seg.flatten().digest(), {
            let mut flat = LrecIndex::new();
            flat.add_record_tokens(
                LrecId(1),
                ConceptId(0),
                &toks(&["gochi", "tapas", "cupertino"]),
            );
            flat.add_record_tokens(
                LrecId(2),
                ConceptId(0),
                &toks(&["farolito", "mexican", "francisco"]),
            );
            flat.add_record_tokens(
                LrecId(3),
                ConceptId(0),
                &toks(&["cantina", "mexican", "jose"]),
            );
            flat.digest()
        });
        assert_eq!(seg.base_segment().digest(), seg.flatten().digest());
        assert_eq!(
            seg.pinned_stats().digest(),
            seg.flatten().scoring_stats().digest()
        );
    }

    #[test]
    fn delta_shadows_and_tombstones() {
        let mut seg = base();
        let out = seg.apply_delta(&[
            RecordChange {
                id: LrecId(2),
                concept: ConceptId(0),
                old_tokens: None,
                new_tokens: Some(toks(&["farolito", "nuevo", "oakland"])),
            },
            RecordChange {
                id: LrecId(3),
                concept: ConceptId(0),
                old_tokens: None,
                new_tokens: None,
            },
            RecordChange {
                id: LrecId(4),
                concept: ConceptId(0),
                old_tokens: None,
                new_tokens: Some(toks(&["udon", "house", "berkeley"])),
            },
        ]);
        assert!(out.delta_added);
        assert!(!out.repinned);
        assert_eq!(seg.live_len(), 3);
        assert_eq!(seg.owner_of(LrecId(2)), Some(1));
        assert_eq!(seg.owner_of(LrecId(3)), None);
        assert_eq!(seg.tombstoned(), vec![LrecId(3)]);
        // The shadowed old version never surfaces.
        let hits = seg.search(&q(&["francisco"]), 10, |_| None);
        assert!(hits.is_empty());
        let hits = seg.search(&q(&["oakland"]), 10, |_| None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, LrecId(2));
        // Tombstoned record is gone.
        assert!(seg.search(&q(&["jose"]), 10, |_| None).is_empty());
        // Equivalence against the flat rebuild through pinned stats.
        let flat = seg.flatten();
        for query in [q(&["mexican"]), q(&["udon", "berkeley"]), q(&["gochi"])] {
            let a = seg.search(&query, 10, |_| None);
            let b = flat.search_with_stats(&query, 10, |_| None, seg.pinned_stats());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn compaction_repins_to_flat_identity() {
        let mut seg = base();
        seg.apply_delta(&[RecordChange {
            id: LrecId(4),
            concept: ConceptId(1),
            old_tokens: None,
            new_tokens: Some(toks(&["towards", "entity", "matching"])),
        }]);
        assert_eq!(seg.delta_count(), 1);
        seg.compact();
        assert_eq!(seg.delta_count(), 0);
        assert_eq!(seg.compaction_count(), 1);
        let flat = seg.flatten();
        assert_eq!(seg.base_segment().digest(), flat.digest());
        assert_eq!(seg.pinned_stats().digest(), flat.scoring_stats().digest());
        assert!(seg.tombstoned().is_empty());
    }

    #[test]
    fn tier_merge_runs_are_deterministic() {
        let mut seg = base();
        let policy = MergePolicy {
            fanout: 2,
            compact_fraction: 100.0,
            max_deltas: 100,
        };
        seg.policy = policy;
        for i in 0..4u64 {
            seg.apply_delta(&[RecordChange {
                id: LrecId(10 + i),
                concept: ConceptId(0),
                old_tokens: None,
                new_tokens: Some(toks(&["extra"])),
            }]);
        }
        // fanout=2 over single-record deltas collapses pairs as they appear.
        assert!(seg.merge_count() > 0);
        assert_eq!(seg.live_len(), 7);
        let flat = seg.flatten();
        let a = seg.search(&q(&["extra"]), 10, |_| None);
        let b = flat.search_with_stats(&q(&["extra"]), 10, |_| None, seg.pinned_stats());
        assert_eq!(a, b);
    }

    #[test]
    fn scoped_and_concept_filters_match_flat() {
        let mut seg = SegmentedLrecIndex::new(
            vec![
                (
                    LrecId(1),
                    ConceptId(0),
                    vec![
                        "gochi".into(),
                        scoped_term("name", "gochi"),
                        "cupertino".into(),
                        scoped_term("city", "cupertino"),
                    ],
                ),
                (
                    LrecId(2),
                    ConceptId(1),
                    vec!["cupertino".into(), scoped_term("title", "cupertino")],
                ),
            ],
            MergePolicy::default(),
        );
        seg.apply_delta(&[RecordChange {
            id: LrecId(3),
            concept: ConceptId(0),
            old_tokens: None,
            new_tokens: vec!["cupertino".into(), scoped_term("city", "cupertino")].into(),
        }]);
        let resolver = |n: &str| (n == "restaurant").then_some(ConceptId(0));
        for query in [
            FieldQuery::parse("cupertino is:restaurant"),
            FieldQuery::parse("city:cupertino"),
            FieldQuery::parse("cupertino"),
            FieldQuery::parse("name:cupertino"),
        ] {
            let a = seg.search(&query, 10, resolver);
            let b = seg
                .flatten()
                .search_with_stats(&query, 10, resolver, seg.pinned_stats());
            assert_eq!(a, b, "query {query}");
        }
    }
}
