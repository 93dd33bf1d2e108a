//! Failure injection (DESIGN.md §8): malformed HTML, adversarial templates,
//! contradictory sources, schema-violating extractions, vanished pages. The
//! system must stay up, stay consistent, and degrade gracefully.

use web_of_concepts::core::{build, reconcile, AssocKind, PipelineConfig};
use web_of_concepts::extract::lists::{extract_lists, ConceptProfile};
use web_of_concepts::prelude::*;
use web_of_concepts::webgen::dom::parse_html;
use web_of_concepts::webgen::{Page, PageKind, PageTruth};

fn page_from_html(url: &str, html: &str) -> Page {
    Page {
        url: url.to_string(),
        site: web_of_concepts::webgen::page::url_host(url).to_string(),
        title: "injected".into(),
        dom: parse_html(html),
        truth: PageTruth {
            kind: PageKind::Article,
            about: None,
            records: vec![],
            mentions: vec![],
        },
    }
}

#[test]
fn pipeline_survives_malformed_pages() {
    let world = World::generate(WorldConfig::tiny(501));
    let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(41));
    let garbage = [
        "<div><p>unclosed <b>every <i>where",
        "</stray></tags><div class=>< <<<< >>>",
        "",
        "<table><tr><td>a<tr></table></td>",
        "<ul><li>$<li>$$<li>$$$</ul>",
        &"<div>".repeat(500),
    ];
    for (i, html) in garbage.iter().enumerate() {
        corpus.add(page_from_html(
            &format!("http://broken.example.com/p{i}"),
            html,
        ));
    }
    // Must not panic, and the clean content must still come through.
    let woc = build(&corpus, &PipelineConfig::default());
    assert!(woc.store.live_count() > 0);
    let hits = woc
        .record_index
        .query("gochi", 3, |n| woc.registry.id_of(n));
    assert!(!hits.is_empty(), "clean records still built");
}

#[test]
fn adversarial_list_page_yields_no_false_records() {
    // A page whose repeating structure imitates a listing but whose rows
    // carry no conforming domain fields must not be claimed.
    let html = r#"<html><body><ul>
        <li><span>lorem ipsum dolor</span></li>
        <li><span>sit amet consectetur</span></li>
        <li><span>adipiscing elit sed</span></li>
        <li><span>do eiusmod tempor</span></li>
    </ul></body></html>"#;
    let page = page_from_html("http://spam.example.com/", html);
    let recs = extract_lists(&page, &ConceptProfile::standard());
    assert!(
        recs.is_empty(),
        "no profile should claim a field-free list, got {recs:?}"
    );
}

#[test]
fn contradictory_sources_reconcile_to_corroborated_value() {
    use web_of_concepts::lrec::{AttrValue, Lrec, Provenance};
    let (registry, concepts) = web_of_concepts::lrec::domains::standard_registry();
    let schema = registry.schema(concepts.restaurant).unwrap();
    let mut rec = Lrec::new(LrecId(1), concepts.restaurant);
    // Two sources agree, one (stale site) contradicts (§7.3: "inconsistencies
    // crop up with websites containing outdated information").
    rec.add(
        "zip",
        AttrValue::Zip("95014".into()),
        Provenance::extracted("http://a/", "x", 0.7, Tick(1)),
    );
    rec.add(
        "zip",
        AttrValue::Zip("95014".into()),
        Provenance::extracted("http://b/", "x", 0.7, Tick(1)),
    );
    rec.add(
        "zip",
        AttrValue::Zip("99999".into()),
        Provenance::extracted("http://stale/", "x", 0.8, Tick(1)),
    );
    let recon = reconcile(&rec, schema);
    let kept = &recon.kept.iter().find(|(k, _)| k == "zip").unwrap().1;
    assert_eq!(kept.len(), 1, "cardinality One enforced");
    assert_eq!(
        kept[0].entry.value,
        AttrValue::Zip("95014".into()),
        "two independent 0.7 sources outweigh one 0.8 source (noisy-or)"
    );
    assert_eq!(recon.conflicts.len(), 1);
    assert_eq!(recon.conflicts[0].losing_value, "99999");
}

#[test]
fn vanished_pages_tombstone_the_records_they_alone_sourced() {
    let world = World::generate(WorldConfig::tiny(502));
    let cfg = CorpusConfig::tiny(42);
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    // The new crawl lost half the pages (dead site, crawler budget).
    let mut corpus_v2 = WebCorpus::new();
    for (i, p) in corpus_v1.pages().iter().enumerate() {
        if i % 2 == 0 {
            corpus_v2.add(p.clone());
        }
    }
    let report = engine.maintain(&corpus_v2).expect("maintenance pass");
    // Surviving pages are unchanged, so nothing is re-extracted. A record
    // whose every source page vanished is tombstoned: content that no
    // longer exists anywhere stops being served, exactly as a cold build
    // of the halved crawl never creates it.
    assert_eq!(report.pages_reextracted, 0);
    assert!(report.records_tombstoned > 0);
    let cold = build(&corpus_v2, &PipelineConfig::default());
    assert!(cold.store.live_count() > 0);
    assert_eq!(engine.web().store.live_count(), cold.store.live_count());
}

#[test]
fn duplicate_source_pages_do_not_duplicate_records() {
    // The same biz page served under two URLs (tracking params, mirrors):
    // entity resolution must fold the two extractions together.
    let world = World::generate(WorldConfig::tiny(503));
    let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(43));
    let biz = corpus
        .pages()
        .iter()
        .find(|p| p.truth.kind == PageKind::AggregatorBiz)
        .unwrap()
        .clone();
    let mut mirror = biz.clone();
    mirror.url = format!("{}?ref=mirror", biz.url);
    corpus.add(mirror);
    let woc = build(&corpus, &PipelineConfig::default());
    let about = biz.truth.about.unwrap();
    let truth_name = world.attr(about, "name");
    // Count canonical restaurants whose name matches this entity.
    let matches = woc
        .records_of(woc.registry.id_of("restaurant").unwrap())
        .into_iter()
        .filter(|r| {
            woc_textkit::metrics::name_similarity(
                &r.best_string("name").unwrap_or_default(),
                &truth_name,
            ) > 0.9
        })
        .count();
    assert_eq!(
        matches, 1,
        "mirror page must fold into one canonical record"
    );
}

#[test]
fn empty_corpus_builds_empty_web() {
    let corpus = WebCorpus::new();
    let woc = build(&corpus, &PipelineConfig::default());
    assert_eq!(woc.store.live_count(), 0);
    assert!(woc.record_index.is_empty());
    let res = web_of_concepts::apps::augmented_search(&woc, "anything", 5);
    assert!(res.concept_box.is_none());
    assert!(res.results.is_empty());
}

#[test]
fn serving_path_survives_garbage_and_excludes_violating_records() {
    use web_of_concepts::lrec::{AttrValue, Provenance};
    use web_of_concepts::serve::{ConceptServer, Response, ServeConfig};

    // A corpus salted with garbage pages (same set the pipeline test uses).
    let world = World::generate(WorldConfig::tiny(505));
    let mut corpus = generate_corpus(&world, &CorpusConfig::tiny(45));
    let garbage = [
        "<div><p>unclosed <b>every <i>where",
        "</stray></tags><div class=>< <<<< >>>",
        "<ul><li>$<li>$$<li>$$$</ul>",
        &"<span>".repeat(300),
    ];
    for (i, html) in garbage.iter().enumerate() {
        corpus.add(page_from_html(
            &format!("http://broken.example.com/s{i}"),
            html,
        ));
    }
    let mut woc = build(&corpus, &PipelineConfig::default());

    // Inject a record with *hard* schema violations straight into the built
    // web — a restaurant whose zip is the wrong kind and over cardinality —
    // and index it, as if a rogue extraction had slipped through.
    let restaurant = woc.registry.id_of("restaurant").unwrap();
    let prov = Provenance::extracted("http://broken.example.com/s0", "x", 0.9, Tick(1));
    let bad_id = woc.store.insert(restaurant, Tick(1), |rec| {
        rec.add("name", AttrValue::Text("glitchporium".into()), prov.clone());
        rec.add("zip", AttrValue::Text("not a zip".into()), prov.clone());
        rec.add("zip", AttrValue::Text("also wrong".into()), prov.clone());
    });
    let bad_rec = woc.store.latest(bad_id).unwrap().clone();
    woc.record_index.add(&bad_rec);

    // Strict serving: schema-violating records must not surface.
    let strict = ConceptServer::new(
        woc.clone(),
        ServeConfig {
            exclude_nonconforming: true,
            ..ServeConfig::default()
        },
    );
    let answer = strict.search("glitchporium", 10);
    let Response::Search(hits) = answer.value.as_ref() else {
        panic!("wrong response variant");
    };
    assert!(
        hits.iter().all(|h| h.id != bad_id),
        "hard-violating record leaked through strict serving: {hits:?}"
    );
    // Clean records still serve, across every endpoint, without panicking.
    let Response::Search(clean) = strict.search("gochi cupertino", 5).value.as_ref().clone() else {
        panic!("wrong response variant");
    };
    assert!(!clean.is_empty(), "clean content must still be servable");
    let _ = strict.concept_box("glitchporium");
    let _ = strict.recommend("glitchporium", 3);

    // Default (loose) serving tolerates the record — the exclusion is an
    // explicit serving policy, not data loss.
    let loose = ConceptServer::new(woc, ServeConfig::default());
    let answer = loose.search("glitchporium", 10);
    let Response::Search(hits) = answer.value.as_ref() else {
        panic!("wrong response variant");
    };
    assert!(
        hits.iter().any(|h| h.id == bad_id),
        "loose serving keeps the record findable"
    );
}

#[test]
fn schema_violations_are_reported_not_fatal() {
    let world = World::generate(WorldConfig::tiny(504));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(44));
    let woc = build(&corpus, &PipelineConfig::default());
    let mut violations = 0usize;
    for id in woc.store.live_ids() {
        let rec = woc.store.latest(id).unwrap();
        if let Some(schema) = woc.registry.schema(rec.concept()) {
            violations += schema.check(rec).len();
        }
    }
    // Violations exist (the web is noisy) but every record remains usable
    // and associated with its sources.
    for id in woc.store.live_ids().into_iter().take(50) {
        assert!(woc.store.latest(id).is_some());
        let has_source = !woc
            .web
            .docs_of_kind(id, AssocKind::ExtractedFrom)
            .is_empty();
        assert!(has_source || !woc.lineage.nodes_of_record(id).is_empty());
    }
    // Sanity: the loose model admits them rather than dropping records.
    let _ = violations;
}
