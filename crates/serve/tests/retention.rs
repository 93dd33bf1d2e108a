//! Differential cache-retention tests: after a delta publish, cached
//! entries for untouched scopes must be served without recomputation and
//! byte-identical to a cold evaluation at the new epoch, while entries the
//! delta touched must be invalidated.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use woc_apps::interpret_query;
use woc_core::{build, PipelineConfig, WebOfConcepts};
use woc_index::{scoped_term, LrecIndex, MergePolicy, RecordChange};
use woc_lrec::{ConceptId, LrecId, Tick};
use woc_serve::{ConceptServer, Endpoint, SegmentDelta, ServeConfig};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

fn build_woc(world_seed: u64, corpus_seed: u64) -> WebOfConcepts {
    let world = World::generate(WorldConfig::tiny(world_seed));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(corpus_seed));
    build(&corpus, &PipelineConfig::default())
}

fn payload(a: &woc_serve::Answer) -> String {
    format!("{:?}", a.value)
}

/// A fresh, cache-bypassing evaluation on the server's *current* snapshot.
fn cold(server: &ConceptServer, query: &str, k: usize) -> String {
    server.set_cache_enabled(false);
    let a = server.search(query, k);
    server.set_cache_enabled(true);
    payload(&a)
}

/// Regression for the conservative whole-cache drop: a delta touching only
/// the document plane (doc tables, no lrec postings) must publish a new
/// epoch but *retain* every cached search entry — the search path reads
/// only the record plane. Scopeless entries (concept box) still drop.
#[test]
fn doc_only_delta_retains_search_entries() {
    let woc = build_woc(901, 91);
    let server = ConceptServer::new(woc.clone(), ServeConfig::default());
    let s1 = server.search("gochi cupertino", 5);
    assert!(!s1.cached);
    let b1 = server.concept_box("gochi cupertino");
    assert!(!b1.cached);
    let snap1 = server.snapshot();

    let delta = SegmentDelta {
        docs_changed: true,
        ..SegmentDelta::default()
    };
    let epoch = server.publish_delta_segmented(woc, &delta, Arc::clone(&snap1.segments));
    assert_eq!(epoch, 2, "a doc-plane delta is a real publish");

    // The record plane is untouched: the segmented index ships forward
    // unrebuilt — same Arc, zero copy.
    let snap2 = server.snapshot();
    assert!(
        Arc::ptr_eq(&snap1.segments, &snap2.segments),
        "doc-only publish must reuse the segmented index"
    );

    // The search entry survives: a hit, at the new epoch, byte-identical
    // both to its original fill and to a cold evaluation now.
    let s2 = server.search("gochi cupertino", 5);
    assert!(s2.cached, "doc-only delta must retain the search entry");
    assert_eq!(s2.epoch, 2);
    assert_eq!(payload(&s2), payload(&s1));
    assert_eq!(payload(&s2), cold(&server, "gochi cupertino", 5));

    // The concept box renders document-side state — its entry must drop.
    let b2 = server.concept_box("gochi cupertino");
    assert!(!b2.cached, "scopeless entries drop on a doc-plane delta");
}

/// `(concept, index tokens)` per live record — the record-plane view a
/// segmented delta is computed over.
fn tokens_map(woc: &WebOfConcepts) -> BTreeMap<LrecId, (ConceptId, Vec<String>)> {
    woc.store
        .live_ids()
        .into_iter()
        .map(|id| {
            let rec = woc.store.latest(id).expect("live id has a latest version");
            (id, (rec.concept(), LrecIndex::record_tokens(rec)))
        })
        .collect()
}

/// Full stored content per live record, rendered for byte comparison — a
/// record can change content (confidence, provenance) without changing its
/// index tokens, and such records must still land in `changed_records`.
fn content_map(woc: &WebOfConcepts) -> BTreeMap<LrecId, String> {
    woc.store
        .live_ids()
        .into_iter()
        .map(|id| (id, format!("{:?}", woc.store.latest(id))))
        .collect()
}

/// The retention scope the server records for `query`: rendered index
/// terms plus the result records of an evaluation on `snap`.
fn query_scope(snap: &woc_serve::Snapshot, query: &str, k: usize) -> (Vec<String>, Vec<LrecId>) {
    let fq = interpret_query(query).normalized();
    let mut terms = fq.terms.clone();
    for (f, t) in &fq.scoped {
        terms.push(scoped_term(f, t));
    }
    let woc = &snap.woc;
    let records = snap
        .segments
        .search(&fq, k, |n| woc.registry.id_of(n))
        .iter()
        .map(|h| h.id)
        .collect();
    (terms, records)
}

/// The differential harness for segmented retention: build v1, churn a few
/// restaurants, build v2, hand-derive the record-plane delta between the
/// two webs, maintain a segmented index across it (checking it against a
/// flat rebuild of v2), and publish with `publish_delta_segmented`. Every
/// warmed query whose scope is disjoint from the delta must then be served
/// from the cache, byte-identical to both its original fill and a cold
/// evaluation at the new epoch; every query the delta touched must be
/// invalidated. The hit-count delta proves survivors were not recomputed.
#[test]
fn segmented_delta_retains_untouched_entries_byte_identically() {
    let mut world = World::generate(WorldConfig::tiny(77));
    let cfg = CorpusConfig::tiny(17);
    let corpus_v1 = generate_corpus(&world, &cfg);
    let v1 = build(&corpus_v1, &PipelineConfig::default());

    let mut seed = 3u64;
    let mut events = churn_restaurants(&mut world, 0.08, Tick(10), seed);
    while events.is_empty() {
        seed += 1;
        events = churn_restaurants(&mut world, 0.08, Tick(10), seed);
        assert!(seed < 1000, "no churn events after many seeds");
    }
    let corpus_v2 = generate_corpus(&world, &cfg);
    let v2 = build(&corpus_v2, &PipelineConfig::default());

    // Hand-derive the record-plane delta between the two builds.
    let (t1, t2) = (tokens_map(&v1), tokens_map(&v2));
    let (c1, c2) = (content_map(&v1), content_map(&v2));
    let mut changes = Vec::new();
    let mut changed_terms: BTreeSet<String> = BTreeSet::new();
    let mut changed_records: BTreeSet<LrecId> = BTreeSet::new();
    let ids: BTreeSet<LrecId> = t1.keys().chain(t2.keys()).copied().collect();
    for id in ids {
        match (t1.get(&id), t2.get(&id)) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => {
                changes.push(RecordChange {
                    id,
                    concept: b.0,
                    old_tokens: None,
                    new_tokens: Some(b.1.clone()),
                });
                changed_terms.extend(a.1.iter().cloned());
                changed_terms.extend(b.1.iter().cloned());
            }
            (Some(a), None) => {
                changes.push(RecordChange {
                    id,
                    concept: a.0,
                    old_tokens: None,
                    new_tokens: None,
                });
                changed_terms.extend(a.1.iter().cloned());
            }
            (None, Some(b)) => {
                changes.push(RecordChange {
                    id,
                    concept: b.0,
                    old_tokens: None,
                    new_tokens: Some(b.1.clone()),
                });
                changed_terms.extend(b.1.iter().cloned());
            }
            (None, None) => unreachable!("id came from one of the maps"),
        }
        // Content changes are a superset of token changes: a record whose
        // stored bytes moved at all invalidates answers hydrated from it.
        if c1.get(&id) != c2.get(&id) {
            changed_records.insert(id);
        }
    }
    assert!(!changes.is_empty(), "churn must change at least one record");

    // Maintain a segmented index across the delta; it must be equivalent
    // to a flat rebuild of v2.
    let mut segments = v1.segmented_record_index(MergePolicy::default());
    let outcome = segments.apply_delta(changes);
    assert_eq!(
        segments.flatten().digest(),
        v2.record_index.digest(),
        "maintained segments must flatten to v2's flat index"
    );

    let server = ConceptServer::new(v1.clone(), ServeConfig::default());
    let snap1 = server.snapshot();

    // Warm the cache with one single-word query per record, and predict
    // from each query's scope whether its entry must survive the delta.
    let pool: Vec<String> = {
        let mut words: BTreeSet<String> = BTreeSet::new();
        for (concept, tokens) in t1.values() {
            let _ = concept;
            if let Some(w) = tokens
                .iter()
                .find(|w| w.chars().all(|c| c.is_ascii_alphanumeric()) && w.len() > 2)
            {
                words.insert(w.clone());
            }
        }
        words.into_iter().take(48).collect()
    };
    let k = 5usize;
    let mut fills: BTreeMap<&str, String> = BTreeMap::new();
    let mut expect_survive: BTreeMap<&str, bool> = BTreeMap::new();
    for q in &pool {
        let a = server.search(q, k);
        assert!(!a.cached, "first evaluation of {q:?} is a miss");
        fills.insert(q, payload(&a));
        let (terms, records) = query_scope(&snap1, q, k);
        let survive = terms.iter().all(|t| !changed_terms.contains(t))
            && records.iter().all(|r| !changed_records.contains(r));
        expect_survive.insert(q, survive);
    }
    assert!(
        expect_survive.values().any(|&s| s),
        "pool must contain queries the delta does not touch"
    );
    assert!(
        expect_survive.values().any(|&s| !s),
        "pool must contain queries the delta touches"
    );

    let hits_before = server
        .metrics()
        .endpoint(Endpoint::Search)
        .summary()
        .cache_hits;
    let delta = SegmentDelta {
        records_changed: true,
        docs_changed: true,
        changed_terms: changed_terms.iter().cloned().collect(),
        changed_records: changed_records.iter().copied().collect(),
        stats_repinned: outcome.repinned,
    };
    let epoch = server.publish_delta_segmented(v2.clone(), &delta, Arc::new(segments));
    assert_eq!(epoch, 2);

    let mut survivors = 0u64;
    for q in &pool {
        let a = server.search(q, k);
        assert_eq!(a.epoch, 2);
        if expect_survive[q.as_str()] {
            assert!(
                a.cached,
                "untouched query {q:?} must be served from the retained cache"
            );
            assert_eq!(
                payload(&a),
                fills[q.as_str()],
                "retained entry for {q:?} must be byte-identical to its fill"
            );
            survivors += 1;
        } else {
            assert!(
                !a.cached,
                "query {q:?} touching the delta must be invalidated"
            );
        }
        // Cached or refilled, the answer must equal a cold evaluation on
        // the new snapshot — the cache is transparent across the delta.
        assert_eq!(
            payload(&a),
            cold(&server, q, k),
            "answer for {q:?} diverges from a cold epoch-2 evaluation"
        );
    }
    let hits_after = server
        .metrics()
        .endpoint(Endpoint::Search)
        .summary()
        .cache_hits;
    assert_eq!(
        hits_after - hits_before,
        survivors,
        "every survivor is a true cache hit — zero recomputation"
    );
}

/// Statistics re-pinning (compaction during the pass) invalidates the
/// whole cache: every score in the corpus may shift.
#[test]
fn repinned_stats_drop_the_whole_cache() {
    let v1 = build_woc(901, 91);
    let server = ConceptServer::new(v1.clone(), ServeConfig::default());
    server.search("gochi cupertino", 5);
    assert!(server.cache_len() > 0);

    let segments = Arc::new(v1.segmented_record_index(MergePolicy::default()));
    let delta = SegmentDelta {
        records_changed: true,
        docs_changed: false,
        changed_terms: vec![],
        changed_records: vec![],
        stats_repinned: true,
    };
    let epoch = server.publish_delta_segmented(v1, &delta, segments);
    assert_eq!(epoch, 2);
    assert_eq!(server.cache_len(), 0, "re-pinned stats drop everything");
    assert!(!server.search("gochi cupertino", 5).cached);
}

/// The one door is the old doors, part 1: a cold publish — the cold delta
/// over a freshly built index — installs a merge-point index that flattens
/// to the new web's flat index and leaves nothing cached. This is what the
/// deleted `publish` guaranteed.
#[test]
fn cold_publish_installs_a_fresh_merge_point_and_an_empty_cache() {
    let server = ConceptServer::new(build_woc(901, 91), ServeConfig::default());
    server.search("gochi cupertino", 5);
    server.concept_box("gochi cupertino");
    assert!(server.cache_len() > 0);

    let v2 = build_woc(902, 92);
    let flat_digest = v2.record_index.digest();
    let segments = Arc::new(v2.segmented_record_index(MergePolicy::default()));
    assert_eq!(
        server.publish_delta_segmented(v2, &SegmentDelta::cold(), segments),
        2
    );
    let snap = server.snapshot();
    assert_eq!(snap.epoch, 2);
    assert_eq!(snap.segments.flatten().digest(), flat_digest);
    assert_eq!(snap.segments.delta_count(), 0, "cold index is one base");
    assert_eq!(server.cache_len(), 0, "a cold publish keeps nothing cached");
}

/// The one door is the old doors, part 2: a no-op delta — however much
/// scope it lists — neither bumps the epoch, fires a publish hook, nor
/// touches the cache. Three copies of this guard used to exist; this is
/// the one check of the one that is left.
#[test]
fn noop_delta_keeps_epoch_hooks_and_cache() {
    let woc = build_woc(901, 91);
    let server = ConceptServer::new(woc.clone(), ServeConfig::default());
    let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let sink = Arc::clone(&fired);
    server.on_publish(Box::new(move |_| {
        sink.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }));
    let s1 = server.search("gochi cupertino", 5);
    server.concept_box("gochi cupertino");
    let warm = server.cache_len();
    let snap1 = server.snapshot();

    let delta = SegmentDelta {
        changed_terms: vec!["gochi".to_string()],
        changed_records: vec![LrecId(0)],
        stats_repinned: true,
        ..SegmentDelta::default()
    };
    assert!(delta.is_noop());
    let segments = Arc::new(woc.segmented_record_index(MergePolicy::default()));
    assert_eq!(server.publish_delta_segmented(woc, &delta, segments), 1);

    assert_eq!(server.epoch(), 1);
    assert!(Arc::ptr_eq(&snap1, &server.snapshot()), "no snapshot swap");
    assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(server.cache_len(), warm);
    let s2 = server.search("gochi cupertino", 5);
    assert!(s2.cached, "scoped entries still hit");
    assert!(Arc::ptr_eq(&s1.value, &s2.value));
    assert!(
        server.concept_box("gochi cupertino").cached,
        "and scopeless"
    );
}
