//! The headline invariant of incremental maintenance: the maintained web
//! is **byte-identical** ([`woc_incr::canonical_bytes`]) to a from-scratch
//! rebuild of the same crawl, and passes the full integrity audit — at any
//! churn rate and any thread count. The `incr-equivalence` CI job runs
//! exactly these tests.

use std::sync::Arc;

use woc_audit::{audit, AuditConfig};
use woc_core::{build, extract_page, AssocKind, PipelineConfig};
use woc_extract::lists::ConceptProfile;
use woc_incr::{canonical_bytes, IncrEngine};
use woc_index::LrecIndex;
use woc_lrec::{AttrValue, Provenance, Tick};
use woc_serve::{ConceptServer, ServeConfig};
use woc_webgen::{
    churn_restaurants, drift_site, generate_corpus, CorpusConfig, DriftConfig, Node, PageKind,
    WebCorpus, World, WorldConfig,
};

fn pipeline(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// Churn the world until at least one event actually fires. Tiny worlds at
/// 1% churn usually roll zero events, and a zero-event churn call does not
/// mutate the world at all — so retrying seeds is sound.
fn churn_until_events(world: &mut World, rate: f64, tick: Tick, mut seed: u64) -> u64 {
    while churn_restaurants(world, rate, tick, seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after a thousand seeds");
    }
    seed
}

fn assert_clean_audit(woc: &woc_core::WebOfConcepts) {
    let report = audit(woc, &AuditConfig::default());
    let failing: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.violations > 0)
        .map(|c| (c.code.clone(), c.violations))
        .collect();
    assert!(report.passed(), "audit violations: {failing:?}");
}

/// Build epoch 1, churn at `rate`, maintain, and require byte-identity
/// with a from-scratch build plus a clean audit.
fn equivalence_scenario(rate: f64, threads: usize) {
    let mut world = World::generate(WorldConfig::tiny(500));
    let corpus_cfg = CorpusConfig::tiny(50);
    let config = pipeline(threads);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, config.clone());

    churn_until_events(&mut world, rate, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);

    let report = engine.maintain(&corpus_v2).expect("maintain must succeed");
    assert!(!report.short_circuited, "churn must dirty some pages");
    assert!(report.pages_dirty > 0);

    let fresh = build(&corpus_v2, &config);
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "maintained web must be byte-identical to a from-scratch rebuild \
         (rate {rate}, {threads} threads)"
    );
    assert_clean_audit(engine.web());
}

#[test]
fn equivalent_at_1pct_churn_single_thread() {
    equivalence_scenario(0.01, 1);
}

#[test]
fn equivalent_at_1pct_churn_8_threads() {
    equivalence_scenario(0.01, 8);
}

#[test]
fn equivalent_at_50pct_churn_single_thread() {
    equivalence_scenario(0.50, 1);
}

#[test]
fn equivalent_at_50pct_churn_8_threads() {
    equivalence_scenario(0.50, 8);
}

#[test]
fn noop_maintain_short_circuits() {
    let world = World::generate(WorldConfig::tiny(501));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(51));
    let mut engine = IncrEngine::new(&corpus, pipeline(1));
    let before = canonical_bytes(engine.web());

    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert!(report.short_circuited);
    assert_eq!(report.pages_dirty, 0);
    assert_eq!(report.records_affected, 0);
    assert_eq!(report.pages_reextracted, 0, "no work on a clean crawl");
    assert_eq!(canonical_bytes(engine.web()), before, "web untouched");
}

/// Three consecutive epochs — churn, site redesign (DOM drift), heavier
/// churn — each maintained incrementally on top of the last, never
/// rebuilding from scratch in between. Equivalence must hold at the end of
/// the chain, not just one hop from a fresh build.
#[test]
fn chained_epochs_stay_equivalent() {
    let mut world = World::generate(WorldConfig::tiny(502));
    let corpus_cfg = CorpusConfig::tiny(52);
    let config = pipeline(0);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, config.clone());

    // Epoch 2: value churn.
    churn_until_events(&mut world, 0.3, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let r2 = engine.maintain(&corpus_v2).expect("maintain must succeed");
    assert!(!r2.short_circuited);

    // Epoch 3: one site redesigns (pure DOM drift, same values).
    let site = corpus_v2.pages()[0].site.clone();
    let site_pages: Vec<_> = corpus_v2
        .pages_of_site(&site)
        .into_iter()
        .cloned()
        .collect();
    let (drifted, _) = drift_site(&site_pages, &DriftConfig::mild(), 9);
    let mut corpus_v3 = WebCorpus::new();
    for p in corpus_v2.pages() {
        if p.site != site {
            corpus_v3.add(p.clone());
        }
    }
    for p in drifted {
        corpus_v3.add(p);
    }
    let r3 = engine.maintain(&corpus_v3).expect("maintain must succeed");
    assert!(!r3.short_circuited, "drifted DOMs must fingerprint dirty");

    // Epoch 4: heavier churn (may close restaurants → pages vanish).
    churn_until_events(&mut world, 0.6, Tick(20), 1);
    let corpus_v4 = generate_corpus(&world, &corpus_cfg);
    engine.maintain(&corpus_v4).expect("maintain must succeed");

    let fresh = build(&corpus_v4, &config);
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "equivalence must survive a chain of maintained epochs"
    );
    assert_clean_audit(engine.web());
}

#[test]
fn publish_path_bumps_epoch_only_on_change() {
    let mut world = World::generate(WorldConfig::tiny(503));
    let corpus_cfg = CorpusConfig::tiny(53);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, pipeline(0));
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    server.search("is:restaurant", 5);
    let warm = server.cache_len();
    assert!(warm > 0);

    // Clean crawl: no publish, epoch and cache untouched.
    let (report, epoch) = engine
        .maintain_and_publish(&corpus_v1, &server)
        .expect("publish pass must succeed");
    assert!(report.short_circuited);
    assert_eq!(epoch, 1);
    assert_eq!(server.epoch(), 1);
    assert_eq!(server.cache_len(), warm, "no-op pass keeps the cache warm");

    // Real change: new epoch, cache invalidated, delta scoped to concepts.
    churn_until_events(&mut world, 0.5, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let (report, epoch) = engine
        .maintain_and_publish(&corpus_v2, &server)
        .expect("publish pass must succeed");
    assert!(!report.short_circuited);
    assert!(
        !report.touched_concepts.is_empty(),
        "churned records must scope the delta"
    );
    assert_eq!(epoch, 2);
    assert_eq!(server.epoch(), 2);
    // The segmented publish retains entries whose scope the pass provably
    // did not touch instead of dropping the cache wholesale; whatever is
    // served now must equal a cold epoch-2 evaluation.
    let a = server.search("is:restaurant", 5);
    assert_eq!(a.epoch, 2);
    server.set_cache_enabled(false);
    let fresh = server.search("is:restaurant", 5);
    server.set_cache_enabled(true);
    assert_eq!(
        format!("{:?}", a.value),
        format!("{:?}", fresh.value),
        "post-publish answer must match a cold epoch-2 evaluation"
    );
}

/// Rewrite `from` to `to` in every text node under `node`; returns how
/// many nodes changed.
fn replace_text(node: &mut Node, from: &str, to: &str) -> usize {
    match node {
        Node::Text(t) if t.contains(from) => {
            *t = t.replace(from, to);
            1
        }
        Node::Text(_) => 0,
        Node::Element { children, .. } => {
            children.iter_mut().map(|c| replace_text(c, from, to)).sum()
        }
    }
}

fn assert_equivalent(engine: &IncrEngine, corpus: &WebCorpus, config: &PipelineConfig, what: &str) {
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&build(corpus, config)),
        "maintained web must equal a from-scratch rebuild after {what}"
    );
    assert_clean_audit(engine.web());
}

/// The concept-partition memo end to end. Restaurant-only passes leave the
/// product partition quiet (its pair scores must survive them unprobed);
/// then one product page changes and only the pairs touching its record
/// may be rescored; then a page vanishes, every later record id shifts,
/// and nothing at all may be rescored — the stored pairs are positions and
/// content digests, not ids. Byte identity and a clean audit after every
/// pass.
#[test]
fn quiet_concepts_skip_resolution_and_survive_renumbering() {
    let mut world = World::generate(WorldConfig::tiny(504));
    let corpus_cfg = CorpusConfig::tiny(54);
    let config = pipeline(0);
    let mut corpus = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus, config.clone());

    // Restaurant-only passes: new opening hours, one restaurant at a time.
    for (round, id) in world.restaurants.clone().into_iter().take(3).enumerate() {
        let tick = Tick(10 + round as u64);
        world
            .store
            .update(id, tick, |r| {
                r.set(
                    "hours",
                    AttrValue::Text(format!("{}am - {}pm", 5 + round, 10 + round)),
                    Provenance::ground_truth(tick),
                );
            })
            .expect("a live restaurant accepts a later-tick update");
        corpus = generate_corpus(&world, &corpus_cfg);
        let changes = engine.changes(&corpus);
        assert!(
            !changes.dirty.is_empty() && changes.added.is_empty() && changes.removed.is_empty()
        );
        for url in &changes.dirty {
            let kind = &corpus.get(url).expect("dirty pages exist").truth.kind;
            assert_ne!(
                *kind,
                PageKind::ProductPage,
                "{url} is not a restaurant page"
            );
        }
        let report = engine.maintain(&corpus).expect("maintain must succeed");
        assert!(
            report.pairs_rescored > 0,
            "the restaurant partition changed"
        );
        assert_equivalent(&engine, &corpus, &config, "a restaurant-only pass");
    }

    // A hand edit confined to one product page: its price. A control engine
    // built cold on the crawl before the edit says what the edit costs when
    // every pair score is fresh in the memo — the pairs touching the edited
    // record — and, by then editing every other product page, that the
    // product partition has pairs beyond those.
    let product_pages: Vec<usize> = {
        let woc = engine.web();
        let sells_a_product = |url: &str| {
            woc.web.records_of(url).iter().any(|(id, kind)| {
                *kind == AssocKind::ExtractedFrom
                    && woc
                        .store
                        .resolve(*id)
                        .and_then(|canon| woc.store.latest(canon))
                        .is_some_and(|r| r.concept() == woc.concepts.product)
            })
        };
        (0..corpus.len())
            .filter(|&i| {
                let page = &corpus.pages()[i];
                page.truth.kind == PageKind::ProductPage && sells_a_product(&page.url)
            })
            .collect()
    };
    let reprice = |corpus: &mut WebCorpus, i: usize| {
        let mut page = corpus.pages()[i].clone();
        let price = page
            .truth
            .records
            .iter()
            .flat_map(|r| &r.fields)
            .find(|(key, _)| key == "price")
            .map(|(_, shown)| shown.clone())
            .expect("a product page shows its offer's price");
        assert!(replace_text(&mut page.dom, &price, "$19.99") > 0);
        corpus.add(page);
    };
    let mut control = IncrEngine::new(&corpus, config.clone());
    reprice(&mut corpus, product_pages[0]);
    let touching = control
        .maintain(&corpus)
        .expect("maintain must succeed")
        .pairs_rescored;
    assert!(touching > 0, "the edited product has candidate matches");
    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert_eq!(report.pages_dirty, 1);
    assert_eq!(
        report.pairs_rescored, touching,
        "after quiet passes a changed concept rescores the pairs touching \
         the edited record, not its whole partition"
    );
    assert_equivalent(&engine, &corpus, &config, "a product-only pass");
    let mut all_repriced = corpus.clone();
    for &i in &product_pages[1..] {
        reprice(&mut all_repriced, i);
    }
    let beyond = control
        .maintain(&all_repriced)
        .expect("maintain must succeed")
        .pairs_rescored;
    assert!(
        beyond > 0,
        "the product partition is larger than {touching} pairs"
    );

    // A removed page that renumbers ids: every record extracted after it
    // gets a smaller id than it had.
    let product_id = |engine: &IncrEngine| {
        let woc = engine.web();
        let last = woc.records_of(woc.concepts.product);
        last.last().expect("products resolved").id()
    };
    let id_before = product_id(&engine);
    let gone = corpus
        .pages()
        .iter()
        .find(|p| p.truth.kind == PageKind::AggregatorBiz)
        .expect("the tiny world has aggregator pages")
        .url
        .clone();
    corpus.remove(&gone);
    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert!(
        product_id(&engine) < id_before,
        "removing {gone} must shift later ids"
    );
    assert_eq!(
        report.pairs_rescored, 0,
        "no record changed content: stored pairs are positions and digests, not ids"
    );
    assert_equivalent(&engine, &corpus, &config, "a removal that renumbers ids");
}

/// Records stage B types from `page`: its extracted records that name a
/// concept.
fn typed_records(page: &woc_webgen::Page) -> usize {
    extract_page(page, &ConceptProfile::standard())
        .iter()
        .filter(|r| r.concept.is_some())
        .count()
}

/// Consecutive epochs share what the pass did not change. After a
/// one-restaurant edit every never-merged, never-reconciled, never-linked
/// record of a clean page is the *same allocation* in the old and the new
/// web, only the dirty pages' records are typed again, and only the records
/// that moved are tokenized again. A removed page shifts every later record
/// id: the pages after it are typed again — ids are part of a record — and
/// nothing before it is. Byte identity and a clean audit after each pass.
#[test]
fn untouched_records_are_shared_between_epochs() {
    let mut world = World::generate(WorldConfig::tiny(505));
    let corpus_cfg = CorpusConfig::tiny(55);
    let config = pipeline(0);
    let mut corpus = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus, config.clone());

    let tick = Tick(10);
    world
        .store
        .update(world.restaurants[0], tick, |r| {
            r.set(
                "hours",
                AttrValue::Text("6am - 11pm".to_string()),
                Provenance::ground_truth(tick),
            );
        })
        .expect("a live restaurant accepts a later-tick update");
    corpus = generate_corpus(&world, &corpus_cfg);
    let changes = engine.changes(&corpus);
    assert!(!changes.dirty.is_empty() && changes.added.is_empty() && changes.removed.is_empty());

    let old = engine.shared_web();
    let report = engine.maintain(&corpus).expect("maintain must succeed");
    let new = engine.shared_web();
    assert_equivalent(&engine, &corpus, &config, "a one-restaurant edit");

    let dirty_records: usize = changes
        .dirty
        .iter()
        .map(|url| typed_records(corpus.get(url).expect("dirty pages exist")))
        .sum();
    assert!(dirty_records > 0);
    assert_eq!(
        report.records_retyped, dirty_records,
        "only the dirty pages' records are typed again"
    );

    let live = new.store.live_ids();
    let mut shared = 0usize;
    for &id in &live {
        let from_clean_pages = new
            .web
            .docs_of_kind(id, AssocKind::ExtractedFrom)
            .iter()
            .all(|url| !changes.dirty.iter().any(|d| d == url));
        if new.store.num_versions(id) == 1 && from_clean_pages {
            assert!(
                Arc::ptr_eq(
                    old.store.latest_shared(id).expect("ids did not move"),
                    new.store
                        .latest_shared(id)
                        .expect("live ids have a version"),
                ),
                "record {id} was not touched: both epochs hold one allocation"
            );
            shared += 1;
        }
    }
    assert!(
        shared * 3 > live.len(),
        "most live records are single-version: {shared} of {}",
        live.len()
    );

    let moved = live
        .iter()
        .filter(|&&id| {
            let tokens =
                |woc: &woc_core::WebOfConcepts| woc.store.latest(id).map(LrecIndex::record_tokens);
            tokens(&old) != tokens(&new)
        })
        .count();
    assert_eq!(
        (moved, report.record_tokens_recomputed),
        (1, 1),
        "the edited restaurant's record is indexed under new tokens, and it \
         alone is tokenized again — of {} live records",
        live.len()
    );

    // A removed aggregator page: every record typed after it gets a
    // smaller id, so every page after it is typed again.
    let position = corpus
        .pages()
        .iter()
        .position(|p| p.truth.kind == PageKind::AggregatorBiz && typed_records(p) > 0)
        .expect("the tiny world has aggregator pages");
    let gone = corpus.pages()[position].url.clone();
    corpus.remove(&gone);
    let after: usize = corpus.pages()[position..].iter().map(typed_records).sum();
    assert!(after > 0, "{gone} is not the last page with records");
    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert_eq!(
        report.records_retyped, after,
        "the records of every page after the removed one, and no others"
    );
    assert_equivalent(&engine, &corpus, &config, "a removal that renumbers ids");
}

/// The same one-restaurant edit handed over twice: as a regenerated crawl —
/// a different `WebCorpus`, so every page is fingerprinted — and applied in
/// place to the corpus the engine saw last, page by page, as a crawler's
/// delta or the stream's commit stage does — so only the replaced pages
/// are. Both engines carry an earlier pass; a control built cold on the
/// previous crawl says what the edit costs when every pair score is fresh.
/// Same bytes as a rebuild, same pair work, either way.
#[test]
fn an_edit_costs_the_same_regenerated_or_applied_in_place() {
    let mut world = World::generate(WorldConfig::tiny(507));
    let corpus_cfg = CorpusConfig::tiny(57);
    let config = pipeline(0);
    let mut crawls = vec![generate_corpus(&world, &corpus_cfg)];
    for (round, &id) in world.restaurants.clone().iter().take(2).enumerate() {
        let tick = Tick(10 + round as u64);
        world
            .store
            .update(id, tick, |r| {
                r.set(
                    "hours",
                    AttrValue::Text(format!("{}am - {}pm", 6 + round, 9 + round)),
                    Provenance::ground_truth(tick),
                );
            })
            .expect("a live restaurant accepts a later-tick update");
        crawls.push(generate_corpus(&world, &corpus_cfg));
    }
    let [v0, v1, v2] = &crawls[..] else {
        unreachable!("three crawls")
    };

    let mut regenerated = IncrEngine::new(v0, config.clone());
    let mut held = v0.clone();
    let mut in_place = IncrEngine::new(&held, config.clone());
    let mut reports = Vec::new();
    for next in [v1, v2] {
        let mut replaced = 0;
        for page in next.pages() {
            if held.get(&page.url) != Some(page) {
                held.add(page.clone());
                replaced += 1;
            }
        }
        assert!(replaced > 0 && held.len() == next.len());
        let whole = regenerated.maintain(next).expect("maintain must succeed");
        let delta = in_place.maintain(&held).expect("maintain must succeed");
        assert_eq!(whole.pages_dirty, replaced);
        assert_eq!(
            whole.pages_fingerprinted,
            next.len(),
            "a corpus seen for the first time"
        );
        assert_eq!(
            (delta.pages_dirty, delta.pages_fingerprinted),
            (replaced, replaced),
            "a corpus edited in place hashes only the replaced pages"
        );
        reports.push((whole, delta));
    }
    assert_eq!(
        canonical_bytes(regenerated.web()),
        canonical_bytes(in_place.web())
    );
    assert_equivalent(&in_place, &held, &config, "an edit applied in place");
    assert_equivalent(&regenerated, v2, &config, "a regenerated crawl");

    let mut control = IncrEngine::new(v1, config.clone());
    let fresh = control.maintain(v2).expect("maintain must succeed");
    let (whole, delta) = reports.last().expect("two passes ran");
    assert!(
        fresh.pairs_rescored > 0,
        "the edited restaurant has candidate matches"
    );
    assert_eq!(whole.pairs_rescored, fresh.pairs_rescored);
    assert_eq!(delta.pairs_rescored, fresh.pairs_rescored);
    assert_eq!(
        (whole.pairs_carried, delta.pairs_carried),
        (fresh.pairs_carried, fresh.pairs_carried)
    );

    // A removed page changes no surviving record: nothing is rescored, and
    // every candidate pair of the new web was carried.
    let gone = held
        .pages()
        .iter()
        .find(|p| p.truth.kind == PageKind::AggregatorBiz)
        .expect("the tiny world has aggregator pages")
        .url
        .clone();
    held.remove(&gone);
    let report = in_place.maintain(&held).expect("maintain must succeed");
    assert_eq!(
        report.pages_fingerprinted, 0,
        "a removal leaves no page to hash"
    );
    assert_eq!(
        (report.pairs_rescored, report.pairs_carried),
        (0, in_place.web().report.match_pairs_scored)
    );
    assert!(report.pairs_carried > 0);
    assert_equivalent(&in_place, &held, &config, "a removal after in-place edits");
}

/// A cold build and a build through cold caches agree at any thread count,
/// and so does a maintained pass on top: sharing records between epochs
/// never depends on how the work was sharded.
#[test]
fn cold_and_cached_builds_agree_at_1_and_4_threads() {
    let mut world = World::generate(WorldConfig::tiny(506));
    let corpus_cfg = CorpusConfig::tiny(56);
    let v1 = generate_corpus(&world, &corpus_cfg);
    churn_until_events(&mut world, 0.2, Tick(10), 1);
    let v2 = generate_corpus(&world, &corpus_cfg);
    let reference = [&v1, &v2].map(|c| canonical_bytes(&build(c, &pipeline(1))));
    for threads in [1, 4] {
        let config = pipeline(threads);
        assert_eq!(canonical_bytes(&build(&v1, &config)), reference[0]);
        let mut engine = IncrEngine::new(&v1, config.clone());
        assert_eq!(canonical_bytes(engine.web()), reference[0]);
        engine.maintain(&v2).expect("maintain must succeed");
        assert_eq!(canonical_bytes(engine.web()), reference[1]);
        assert_clean_audit(engine.web());
    }
}
