//! Paper §7.3: re-crawled pages "link … to the existing records … rather
//! than create new ones". A maintenance pass carries a churned value on the
//! record that already held the entity, and the document plane serves the
//! new crawl's pages and nothing else.

use woc_core::{build, PipelineConfig};
use woc_incr::IncrEngine;
use woc_lrec::{AttrValue, Tick};
use woc_webgen::{
    churn_restaurants, generate_corpus, ChurnEvent, CorpusConfig, Node, Page, PageKind, PageTruth,
    World, WorldConfig,
};

#[test]
fn updated_phone_lands_on_existing_record() {
    let cfg = CorpusConfig::tiny(15);
    let mut world = World::generate(WorldConfig::tiny(213));
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let before = engine.shared_web();

    let events = churn_restaurants(&mut world, 0.8, Tick(10), 7);
    let phone_changes: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            ChurnEvent::PhoneChanged(id, p) => Some((world.attr(*id, "name"), p.clone())),
            _ => None,
        })
        .collect();
    assert!(!phone_changes.is_empty(), "no phone churn at rate 0.8");
    let corpus_v2 = generate_corpus(&world, &cfg);
    let report = engine.maintain(&corpus_v2).expect("maintenance pass");

    let now = engine.web();
    for (name, new_phone) in &phone_changes {
        let named = |r: &woc_lrec::Lrec| r.best_string("name").unwrap_or_default().contains(name);
        // A live record named `name` now carries the new phone, and it is
        // the record that held the restaurant before the pass: same id,
        // listed as changed by the published delta.
        let carrier = now
            .records_of(now.concepts.restaurant)
            .into_iter()
            .find(|r| {
                named(r)
                    && r.get("phone").iter().any(|e| match &e.value {
                        AttrValue::Phone(p) => p == new_phone,
                        _ => false,
                    })
            })
            .unwrap_or_else(|| panic!("no record named {name} carries churned phone {new_phone}"));
        let id = carrier.id();
        assert!(
            before
                .records_of(before.concepts.restaurant)
                .into_iter()
                .any(|r| r.id() == id && named(r)),
            "{name}'s new phone landed on a new record {id}, not the existing one"
        );
        assert!(
            report.delta.changed_records.contains(&id),
            "the delta must list {name}'s record {id}"
        );
    }
}

#[test]
fn maintain_refreshes_the_document_plane() {
    let note = |path: &str, title: &str| Page {
        url: format!("http://notes.example.com/{path}"),
        site: "notes.example.com".into(),
        title: title.into(),
        dom: Node::elem("html").child(Node::elem("p").text_child("nothing to extract")),
        truth: PageTruth {
            kind: PageKind::Article,
            about: None,
            records: vec![],
            mentions: vec![],
        },
    };
    let world = World::generate(WorldConfig::tiny(215));
    let crawl = generate_corpus(&world, &CorpusConfig::tiny(17));
    let mut corpus_v1 = crawl.clone();
    corpus_v1.add(note("gone.html", "zyzzyva"));
    corpus_v1.add(note("kept.html", "quokka"));
    let mut corpus_v2 = crawl;
    corpus_v2.add(note("kept.html", "wombat"));

    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    assert_eq!(engine.web().doc_index.search("zyzzyva", 3).len(), 1);
    engine.maintain(&corpus_v2).expect("maintenance pass");
    let woc = engine.web();

    let gone = "http://notes.example.com/gone.html";
    assert!(!woc.doc_urls.iter().any(|u| u == gone));
    assert!(woc.doc_index.search("zyzzyva", 3).is_empty());
    assert!(woc.doc_index.search("quokka", 3).is_empty());
    let hits = woc.doc_index.search("wombat", 3);
    assert_eq!(hits.len(), 1);
    assert_eq!(
        woc.doc_url(hits[0].doc),
        "http://notes.example.com/kept.html"
    );
    assert_eq!(woc.doc_titles[hits[0].doc.0 as usize], "wombat");
    let fresh = build(&corpus_v2, &PipelineConfig::default());
    assert_eq!(woc.doc_index.digest(), fresh.doc_index.digest());
    assert_eq!(woc.doc_urls, fresh.doc_urls);
}
