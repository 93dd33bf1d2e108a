//! Lifecycle integration: build → feed ingest → snapshot → reload →
//! maintain → quality — the operational loop a deployed web of concepts
//! runs.

use web_of_concepts::core::feed::{ingest_feed, Feed, FeedRecord};
use web_of_concepts::core::{assess, build, PipelineConfig};
use web_of_concepts::lrec::snapshot;
use web_of_concepts::prelude::*;
use web_of_concepts::webgen::churn_restaurants;

#[test]
fn full_lifecycle_round_trip() {
    let cfg = CorpusConfig::tiny(91);
    let mut world = World::generate(WorldConfig::tiny(1001));
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let q0 = assess(engine.web());
    assert!(q0.total_records() > 0);

    // --- Feed ingest, on a standalone copy --------------------------------
    // Every maintenance pass rebuilds the engine's web from the crawl, so
    // the maintained web cannot hold feed records until feeds become a
    // build input (ROADMAP item 9). The feed and the snapshot round-trip
    // run on a clone of the current epoch.
    let mut woc = engine.web().clone();
    let gochi = world.restaurants[0];
    let feed = Feed {
        provider: "it".into(),
        confidence: 0.9,
        records: vec![FeedRecord {
            concept: "restaurant".into(),
            fields: vec![
                ("name".into(), world.attr(gochi, "name")),
                ("city".into(), world.attr(gochi, "city")),
                ("zip".into(), world.attr(gochi, "zip")),
                ("phone".into(), world.attr(gochi, "phone")),
            ],
        }],
    };
    let report = ingest_feed(&mut woc, &feed, Tick(400));
    assert_eq!(report.merged + report.created, 1);
    // In this crawl Gochi's own pages resolve to another restaurant's
    // record, so the Figure-1 concept box comes from the feed record.
    let res = web_of_concepts::apps::augmented_search(&woc, "gochi cupertino", 5);
    assert!(res.concept_box.is_some(), "the feed supplies gochi");

    // --- Snapshot + reload -----------------------------------------------
    let snap = snapshot::export(&woc.registry, &woc.store);
    let (_reg2, store2) = snapshot::import(&snap).expect("snapshot loads");
    assert_eq!(store2.live_count(), woc.store.live_count());
    assert_eq!(store2.max_tick(), woc.store.max_tick());

    // --- Churn + maintain ---------------------------------------------------
    let events = churn_restaurants(&mut world, 0.5, Tick(500), 3);
    let corpus_v2 = generate_corpus(&world, &cfg);
    let m = engine.maintain(&corpus_v2).expect("maintenance pass");
    if !events.is_empty() {
        assert!(m.pages_reextracted > 0);
    }

    // --- Quality holds ------------------------------------------------------
    let q1 = assess(engine.web());
    assert!(q1.total_records() >= q0.total_records());
    assert!(
        q1.overall_quality() > 0.3,
        "quality {}",
        q1.overall_quality()
    );

    // --- Figure-1 query still finds gochi's homepage after maintenance -------
    let res = web_of_concepts::apps::augmented_search(engine.web(), "gochi cupertino", 5);
    assert!(
        res.results
            .iter()
            .any(|d| d.url == "http://gochi-fusion-tapas.example.com/"),
        "gochi's homepage survives the lifecycle"
    );
}

#[test]
fn snapshot_supports_continued_operation() {
    // A reloaded store accepts updates, merges, and indexing as if it had
    // never been serialized.
    let world = World::generate(WorldConfig::tiny(1002));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(92));
    let woc = build(&corpus, &PipelineConfig::default());
    let snap = snapshot::export(&woc.registry, &woc.store);
    let (reg, mut store) = snapshot::import(&snap).unwrap();

    let tick = store.max_tick().next();
    let restaurant = reg.id_of("restaurant").unwrap();
    let fresh = store.insert(restaurant, tick, |r| {
        r.add(
            "name",
            web_of_concepts::lrec::AttrValue::Text("Post Snapshot Diner".into()),
            web_of_concepts::lrec::Provenance::ground_truth(tick),
        );
    });
    // Rebuild an index over the reloaded store.
    let mut index = web_of_concepts::index::LrecIndex::new();
    for id in store.live_ids() {
        index.add(store.latest(id).unwrap());
    }
    let hits = index.query("post snapshot diner", 1, |n| reg.id_of(n));
    assert_eq!(hits[0].id, fresh);
}
