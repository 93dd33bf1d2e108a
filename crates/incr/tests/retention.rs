//! End-to-end cache retention across a real maintenance cycle: after a low
//! churn pass published through the segmented delta path, cached entries
//! whose scope the pass did not touch must be served from the cache —
//! byte-identical to their original fill and to a cold evaluation at the
//! new epoch — while entries the pass touched must be invalidated.

use std::collections::{BTreeMap, BTreeSet};

use woc_apps::interpret_query;
use woc_core::PipelineConfig;
use woc_incr::IncrEngine;
use woc_index::{scoped_term, LrecIndex};
use woc_lrec::{LrecId, Tick};
use woc_serve::{ConceptServer, ServeConfig, Snapshot};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

fn payload(a: &woc_serve::Answer) -> String {
    format!("{:?}", a.value)
}

/// The retention scope the server records for `query`, recomputed from the
/// pinned snapshot: rendered index terms plus the result records.
fn query_scope(snap: &Snapshot, query: &str, k: usize) -> (Vec<String>, Vec<LrecId>) {
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

#[test]
fn low_churn_maintenance_keeps_untouched_entries_warm() {
    let mut world = World::generate(WorldConfig::tiny(610));
    let cfg = CorpusConfig::tiny(61);
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    let snap1 = server.snapshot();

    // Warm the cache: one single-word query per live record.
    let pool: Vec<String> = {
        let mut words: BTreeSet<String> = BTreeSet::new();
        for id in engine.web().store.live_ids() {
            let rec = engine.web().store.latest(id).expect("live");
            if let Some(w) = LrecIndex::record_tokens(rec)
                .iter()
                .find(|w| w.chars().all(|c| c.is_ascii_alphanumeric()) && w.len() > 2)
            {
                words.insert(w.clone());
            }
        }
        words.into_iter().take(48).collect()
    };
    assert!(pool.len() >= 8, "need a meaningful query pool");
    let k = 5usize;
    let mut fills: BTreeMap<&str, String> = BTreeMap::new();
    for q in &pool {
        let a = server.search(q, k);
        assert!(!a.cached);
        fills.insert(q, payload(&a));
    }

    // Low churn: retry seeds until at least one event fires (a zero-event
    // churn call does not mutate the world).
    let mut seed = 1u64;
    while churn_restaurants(&mut world, 0.01, Tick(10), seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after many seeds");
    }
    let corpus_v2 = generate_corpus(&world, &cfg);
    let (report, epoch) = engine
        .maintain_and_publish(&corpus_v2, &server)
        .expect("maintenance must succeed");
    assert!(!report.short_circuited);
    assert!(report.effective_change, "churn must change served bytes");
    assert_eq!(epoch, 2);
    assert_eq!(server.epoch(), 2);

    // The engine's maintained segments flatten to the flat truth.
    assert_eq!(
        engine.segments().flatten().digest(),
        engine.web().record_index.digest(),
        "maintained segments must equal a flat rebuild"
    );
    // The server serves the engine's exact segments: the frozen base is
    // the same allocation on both sides — a delta publish ships only the
    // small new segments, never a rebuilt base.
    let snap2 = server.snapshot();
    assert!(std::sync::Arc::ptr_eq(
        engine.segments().base_segment(),
        snap2.segments.base_segment(),
    ));
    assert!(snap2.segments.delta_count() > 0, "the pass shipped a delta");
    // The maintained segments audit clean, including W014 segment metadata.
    let cfg = woc_audit::AuditConfig::default();
    let mut audit = woc_audit::audit(engine.web(), &cfg);
    audit.checks.push(woc_audit::check_segments(
        engine.web(),
        engine.segments(),
        &cfg,
    ));
    assert!(audit.passed(), "{}", audit.render());

    let changed_terms: BTreeSet<&str> = report.changed_terms.iter().map(String::as_str).collect();
    let changed_records: BTreeSet<LrecId> = report.changed_records.iter().copied().collect();
    assert!(!changed_records.is_empty(), "churn touched some record");

    let (mut survivors, mut dropped) = (0usize, 0usize);
    for q in &pool {
        let (terms, records) = query_scope(&snap1, q, k);
        let expect_hit = terms.iter().all(|t| !changed_terms.contains(t.as_str()))
            && records.iter().all(|r| !changed_records.contains(r));
        let a = server.search(q, k);
        assert_eq!(a.epoch, 2);
        assert_eq!(
            a.cached, expect_hit,
            "query {q:?}: cached={} but scope-disjointness predicts {}",
            a.cached, expect_hit
        );
        if expect_hit {
            survivors += 1;
            assert_eq!(
                payload(&a),
                fills[q.as_str()],
                "retained entry for {q:?} must be byte-identical to its fill"
            );
        } else {
            dropped += 1;
        }
        // Cached or refilled, the answer equals a cold epoch-2 evaluation.
        server.set_cache_enabled(false);
        let cold = server.search(q, k);
        server.set_cache_enabled(true);
        assert_eq!(
            payload(&a),
            payload(&cold),
            "answer for {q:?} diverges from a cold epoch-2 evaluation"
        );
    }
    assert!(
        survivors * 2 > pool.len(),
        "low churn must keep the majority of entries warm ({survivors}/{} survived, {dropped} dropped)",
        pool.len()
    );
}
