//! Differential scoring-equivalence harness: the segmented index vs a flat
//! rebuild, across churn levels, merge schedules, and thread counts.
//!
//! The contract under test (the whole point of `woc_index::segment`): at any
//! moment, [`SegmentedLrecIndex::search`] returns **bitwise-identical** hits
//! — ids, concepts, and score bits — to a flat [`LrecIndex`] freshly rebuilt
//! from the same live records and scored through the same pinned statistics;
//! and at every full-compaction point the pinned statistics *are* the flat
//! index's own, so the segmented index is indistinguishable from a
//! from-scratch rebuild (equal digests, equal plain-search answers).
//!
//! Knobs (for the CI matrix):
//! * `WOC_SEG_CHURN`  — comma-separated churn percentages (default `1,50`);
//! * `WOC_SEG_THREADS` — comma-separated searcher thread counts (default `1,8`).

use std::collections::BTreeMap;
use std::sync::Arc;

use woc_index::{
    scoped_term, FieldQuery, LrecIndex, MergePolicy, RecordChange, RecordHit, SegmentedLrecIndex,
};
use woc_lrec::{ConceptId, LrecId};

/// Deterministic split-mix style generator — the harness must replay
/// identically everywhere.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd) >> 17
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const CITIES: &[&str] = &[
    "cupertino",
    "berkeley",
    "oakland",
    "jose",
    "francisco",
    "chicago",
    "austin",
    "portland",
];
const CUISINES: &[&str] = &[
    "mexican", "japanese", "italian", "thai", "indian", "french", "greek", "korean",
];
const WORDS: &[&str] = &[
    "gochi", "tapas", "cantina", "farolito", "udon", "house", "bistro", "grill", "garden",
    "palace", "corner", "express", "golden", "lotus", "river", "stone", "blue", "red",
];

/// Ground truth: id → (concept, indexed token sequence).
type Truth = BTreeMap<u64, (u32, Vec<String>)>;

/// Synthesize a record's token sequence the way `LrecIndex::record_tokens`
/// does: each word emitted unscoped and scoped by its field.
fn gen_tokens(rng: &mut Rng) -> Vec<String> {
    let mut toks = Vec::new();
    for _ in 0..1 + rng.below(3) {
        let w = WORDS[rng.below(WORDS.len())];
        toks.push(w.to_string());
        toks.push(scoped_term("name", w));
    }
    let city = CITIES[rng.below(CITIES.len())];
    toks.push(city.to_string());
    toks.push(scoped_term("city", city));
    let cuisine = CUISINES[rng.below(CUISINES.len())];
    toks.push(cuisine.to_string());
    toks.push(scoped_term("cuisine", cuisine));
    toks
}

fn seed_truth(rng: &mut Rng, n: u64) -> Truth {
    (1..=n)
        .map(|id| (id, (rng.below(3) as u32, gen_tokens(rng))))
        .collect()
}

fn entries_of(truth: &Truth) -> Vec<(LrecId, ConceptId, Vec<String>)> {
    truth
        .iter()
        .map(|(&id, (c, toks))| (LrecId(id), ConceptId(*c), toks.clone()))
        .collect()
}

/// The flat oracle: a from-scratch index over the live records in ascending
/// id order — exactly how the pipeline builds `woc.record_index`.
fn flat_of(truth: &Truth) -> LrecIndex {
    let mut flat = LrecIndex::new();
    for (&id, (c, toks)) in truth.iter() {
        flat.add_record_tokens(LrecId(id), ConceptId(*c), toks);
    }
    flat
}

fn resolver(name: &str) -> Option<ConceptId> {
    name.strip_prefix('c')
        .and_then(|s| s.parse().ok())
        .map(ConceptId)
}

/// A workload mixing free-text, multi-term, scoped, and concept-filtered
/// queries over the harness vocabulary.
fn queries() -> Vec<FieldQuery> {
    let mut qs: Vec<FieldQuery> = WORDS.iter().map(|w| FieldQuery::parse(w)).collect();
    qs.extend(
        CITIES
            .iter()
            .map(|c| FieldQuery::parse(&format!("city:{c}"))),
    );
    for raw in [
        "mexican cupertino",
        "udon house",
        "golden lotus river",
        "grill is:c0",
        "garden is:c1",
        "is:c2 palace",
        "cuisine:thai",
        "cuisine:italian stone",
        "name:gochi",
        "city:berkeley udon",
        "blue red golden",
        "zzzz-no-such-term",
    ] {
        qs.push(FieldQuery::parse(raw));
    }
    qs
}

fn assert_hits_identical(a: &[RecordHit], b: &[RecordHit], ctx: &str) {
    assert_eq!(
        a.len(),
        b.len(),
        "{ctx}: segmented returned {} hits, flat {}",
        a.len(),
        b.len()
    );
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.id, y.id, "{ctx}: hit ids diverge");
        assert_eq!(x.concept, y.concept, "{ctx}: hit concepts diverge");
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{ctx}: score bits diverge for record {:?} ({} vs {})",
            x.id,
            x.score,
            y.score
        );
    }
}

/// The core differential assertion: segmented search == flat rebuild scored
/// through the segmented index's pinned stats, for every query and several k.
fn assert_equivalent(seg: &SegmentedLrecIndex, truth: &Truth, ctx: &str) {
    let flat = flat_of(truth);
    assert_eq!(
        seg.flatten().digest(),
        flat.digest(),
        "{ctx}: flattened live records diverge from truth"
    );
    assert_eq!(seg.live_len(), truth.len(), "{ctx}: live count diverges");
    for q in queries() {
        for k in [1usize, 3, 10, usize::MAX] {
            let a = seg.search(&q, k, resolver);
            let b = flat.search_with_stats(&q, k, resolver, seg.pinned_stats());
            assert_hits_identical(&a, &b, &format!("{ctx}, query `{q}`, k={k}"));
        }
    }
}

/// One epoch of churn: update/remove ~`pct`% of live records and add a
/// proportional batch of new ones. Mutates `truth` and returns the delta.
fn churn_epoch(
    rng: &mut Rng,
    truth: &mut Truth,
    next_id: &mut u64,
    pct: usize,
) -> Vec<RecordChange> {
    let ids: Vec<u64> = truth.keys().copied().collect();
    let mut changes = Vec::new();
    for id in ids {
        if rng.below(100) >= pct {
            continue;
        }
        let concept = truth[&id].0;
        if rng.below(8) == 0 {
            truth.remove(&id);
            changes.push(RecordChange {
                id: LrecId(id),
                concept: ConceptId(concept),
                old_tokens: None,
                new_tokens: None,
            });
        } else {
            let toks = gen_tokens(rng);
            truth.insert(id, (concept, toks.clone()));
            changes.push(RecordChange {
                id: LrecId(id),
                concept: ConceptId(concept),
                old_tokens: None,
                new_tokens: Some(toks),
            });
        }
    }
    let adds = (truth.len() * pct / 400).max(1);
    for _ in 0..adds {
        let id = *next_id;
        *next_id += 1;
        let concept = rng.below(3) as u32;
        let toks = gen_tokens(rng);
        truth.insert(id, (concept, toks.clone()));
        changes.push(RecordChange {
            id: LrecId(id),
            concept: ConceptId(concept),
            old_tokens: None,
            new_tokens: Some(toks),
        });
    }
    changes
}

fn env_list(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => default.to_vec(),
    }
}

/// Churn sweep: apply epochs of record churn through the default merge
/// policy (tiered merges and compactions fire on their own) and hold the
/// differential assertion at every epoch; finish at a forced merge point and
/// require full from-scratch identity.
#[test]
fn segmented_equals_flat_across_churn_epochs() {
    for churn in env_list("WOC_SEG_CHURN", &[1, 50]) {
        let mut rng = Rng(0x5eed + churn as u64);
        let mut truth = seed_truth(&mut rng, 160);
        let mut next_id = 161;
        let mut seg = SegmentedLrecIndex::new(entries_of(&truth), MergePolicy::default());
        assert_equivalent(&seg, &truth, &format!("churn {churn}%, epoch 0"));
        for epoch in 1..=8 {
            let changes = churn_epoch(&mut rng, &mut truth, &mut next_id, churn);
            seg.apply_delta(&changes);
            assert_equivalent(&seg, &truth, &format!("churn {churn}%, epoch {epoch}"));
        }
        // Forced merge point: the segmented index must now be byte-identical
        // to a from-scratch flat rebuild, pinned stats included.
        seg.compact();
        let flat = flat_of(&truth);
        assert_eq!(seg.base_segment().digest(), flat.digest());
        assert_eq!(seg.pinned_stats().digest(), flat.scoring_stats().digest());
        for q in queries() {
            let a = seg.search(&q, 10, resolver);
            let b = flat.search(&q, 10, resolver);
            assert_hits_identical(&a, &b, &format!("churn {churn}%, post-compaction `{q}`"));
        }
        assert!(
            seg.merge_count() + seg.compaction_count() > 0,
            "churn {churn}%: the merge policy never fired — harness too small"
        );
    }
}

/// Merge-schedule sweep: the same delta stack merged by different schedules
/// yields byte-identical postings (equal segment digests once fully merged)
/// and identical answers at every intermediate point.
#[test]
fn merge_schedules_are_order_independent() {
    let mut rng = Rng(0xabcd);
    let mut truth = seed_truth(&mut rng, 120);
    let mut next_id = 121;
    // A policy that never merges on its own: the schedules below are manual.
    let manual = MergePolicy {
        fanout: usize::MAX,
        compact_fraction: f64::INFINITY,
        max_deltas: usize::MAX,
    };
    let mut seg = SegmentedLrecIndex::new(entries_of(&truth), manual);
    for _ in 0..6 {
        let changes = churn_epoch(&mut rng, &mut truth, &mut next_id, 20);
        seg.apply_delta(&changes);
    }
    assert_eq!(seg.delta_count(), 6);

    // Schedule A: fold left. Schedule B: pairwise then fold. Schedule C: one
    // big merge. Each clone shares the same frozen segments at the start.
    let mut a = seg.clone();
    while a.delta_count() > 1 {
        a.merge_deltas(0, 1);
        assert_equivalent(&a, &truth, "schedule A (fold left)");
    }
    let mut b = seg.clone();
    b.merge_deltas(4, 5);
    b.merge_deltas(2, 3);
    b.merge_deltas(0, 1);
    assert_equivalent(&b, &truth, "schedule B (pairwise)");
    while b.delta_count() > 1 {
        b.merge_deltas(0, 1);
    }
    let mut c = seg.clone();
    c.merge_deltas(0, 5);
    assert_equivalent(&c, &truth, "schedule C (single merge)");

    // Byte-identical postings: the fully merged delta segment is the same
    // frozen artifact no matter the schedule.
    let da = a.delta_segments()[0].digest();
    let db = b.delta_segments()[0].digest();
    let dc = c.delta_segments()[0].digest();
    assert_eq!(da, db, "schedules A and B built different merged postings");
    assert_eq!(db, dc, "schedules B and C built different merged postings");
    // And the top-k agrees between schedules everywhere.
    for q in queries() {
        let ha = a.search(&q, 10, resolver);
        let hb = b.search(&q, 10, resolver);
        let hc = c.search(&q, 10, resolver);
        assert_hits_identical(&ha, &hb, &format!("A vs B, `{q}`"));
        assert_hits_identical(&hb, &hc, &format!("B vs C, `{q}`"));
    }
}

/// Thread sweep: concurrent searchers over one shared segmented index all
/// observe the flat-rebuild answers — the frozen segments are immutable, so
/// parallel readers cannot diverge.
#[test]
fn concurrent_searchers_match_flat() {
    for threads in env_list("WOC_SEG_THREADS", &[1, 8]) {
        let mut rng = Rng(0x7712ead5 + threads as u64);
        let mut truth = seed_truth(&mut rng, 140);
        let mut next_id = 141;
        let mut seg = SegmentedLrecIndex::new(entries_of(&truth), MergePolicy::default());
        for _ in 0..4 {
            let changes = churn_epoch(&mut rng, &mut truth, &mut next_id, 10);
            seg.apply_delta(&changes);
        }
        let seg = Arc::new(seg);
        let flat = Arc::new(flat_of(&truth));
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| {
                let seg = Arc::clone(&seg);
                let flat = Arc::clone(&flat);
                std::thread::spawn(move || {
                    for round in 0..8 {
                        for q in queries() {
                            let k = 1 + (t + round) % 10;
                            let a = seg.search(&q, k, resolver);
                            let b = flat.search_with_stats(&q, k, resolver, seg.pinned_stats());
                            assert_hits_identical(
                                &a,
                                &b,
                                &format!("thread {t}, round {round}, `{q}`, k={k}"),
                            );
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("searcher thread panicked");
        }
    }
}
