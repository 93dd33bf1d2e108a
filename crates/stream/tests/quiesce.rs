//! The stream's headline invariant: after quiescing, the streamed web is
//! **byte-identical** ([`woc_incr::canonical_bytes`]) to a from-scratch
//! batch build of the same final crawl — at any churn rate and any thread
//! count — and the full audit (including the stream's own W015) passes.
//! The `stream` CI job runs exactly these tests.

use woc_audit::AuditConfig;
use woc_core::{build, PipelineConfig};
use woc_incr::{canonical_bytes, IncrEngine};
use woc_lrec::Tick;
use woc_serve::{ConceptServer, ServeConfig};
use woc_stream::{PageEvent, StreamConfig, StreamEngine};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, WebCorpus, World, WorldConfig};

/// Churn the world until at least one event actually fires (tiny worlds at
/// 1% churn usually roll zero events; a zero-event call is a no-op, so
/// retrying seeds is sound).
fn churn_until_events(world: &mut World, rate: f64, tick: Tick, mut seed: u64) {
    while churn_restaurants(world, rate, tick, seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after a thousand seeds");
    }
}

fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// A stream over an engine freshly built from `corpus` with `config`.
fn stream(corpus: &WebCorpus, config: PipelineConfig) -> StreamEngine {
    let incr = IncrEngine::new(corpus, config);
    StreamEngine::from_parts(incr, corpus.clone(), StreamConfig::default())
}

/// The full recrawl as an event stream: every page of the new crawl as an
/// update (unchanged ones must dedup away), plus a removal for every URL
/// that vanished.
fn event_stream(old: &WebCorpus, new: &WebCorpus) -> Vec<PageEvent> {
    let mut events: Vec<PageEvent> = new
        .pages()
        .iter()
        .cloned()
        .map(PageEvent::Updated)
        .collect();
    for p in old.pages() {
        if new.get(&p.url).is_none() {
            events.push(PageEvent::Removed(p.url.clone()));
        }
    }
    events
}

fn assert_quiesced_clean(engine: &StreamEngine) {
    let report = engine.audit(&AuditConfig::default());
    let failing: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.violations > 0)
        .map(|c| (c.code.clone(), c.violations))
        .collect();
    assert!(report.passed(), "audit violations: {failing:?}");
    assert!(
        report.check("W015").is_some(),
        "stream audit must include the watermark check"
    );
}

/// Seed from crawl v1, churn at `rate`, stream the recrawl with a
/// `threads`-thread pipeline, and require byte-identity with a
/// from-scratch batch build plus a clean audit.
fn quiesce_scenario(rate: f64, threads: usize) {
    let mut world = World::generate(WorldConfig::tiny(500));
    let corpus_cfg = CorpusConfig::tiny(50);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = stream(&corpus_v1, pipeline_config(threads));
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());

    churn_until_events(&mut world, rate, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);

    let report = engine.run(event_stream(&corpus_v1, &corpus_v2), &server);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert_eq!(
        report.pending_carryover, 0,
        "quiesced stream leaves nothing"
    );
    assert!(report.micro_epochs >= 1, "churn must commit something");
    assert!(
        report.deduped > 0,
        "recrawling unchanged pages must dedup at the fingerprint stage"
    );
    assert_eq!(engine.watermark().events, {
        let changed: u64 = corpus_v2
            .pages()
            .iter()
            .filter(|p| corpus_v1.get(&p.url).map(|q| q.fingerprint()) != Some(p.fingerprint()))
            .count() as u64;
        changed
    });

    let fresh = build(&corpus_v2, &pipeline_config(threads));
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "streamed web must be byte-identical to a batch build \
         (rate {rate}, {threads} threads)"
    );
    assert_eq!(
        server.epoch(),
        engine
            .journal()
            .iter()
            .map(|e| e.published_epoch)
            .max()
            .unwrap_or(1),
        "server must end on the last published micro-epoch"
    );
    assert_quiesced_clean(&engine);
}

#[test]
fn quiesce_equivalent_at_1pct_churn_1_thread() {
    quiesce_scenario(0.01, 1);
}

#[test]
fn quiesce_equivalent_at_1pct_churn_8_threads() {
    quiesce_scenario(0.01, 8);
}

#[test]
fn quiesce_equivalent_at_50pct_churn_1_thread() {
    quiesce_scenario(0.5, 1);
}

#[test]
fn quiesce_equivalent_at_50pct_churn_8_threads() {
    quiesce_scenario(0.5, 8);
}

/// The journal — ordinals, watermarks, transitions, changed records — is a
/// pure function of the event stream: thread count must not leak into it.
#[test]
fn journal_deterministic_across_thread_counts() {
    let mut world = World::generate(WorldConfig::tiny(500));
    let corpus_cfg = CorpusConfig::tiny(50);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    churn_until_events(&mut world, 0.5, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let events = event_stream(&corpus_v1, &corpus_v2);

    let mut journals = Vec::new();
    for threads in [1usize, 8] {
        let mut engine = stream(&corpus_v1, pipeline_config(threads));
        let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
        let report = engine.run(events.clone(), &server);
        assert_eq!(report.publish_failures, 0);
        journals.push(engine.journal().to_vec());
    }
    assert_eq!(
        journals[0], journals[1],
        "micro-epoch boundaries and watermarks must not depend on scheduling"
    );
}

/// Adds and removals: stream a recrawl where pages appear and vanish, then
/// require byte-identity against a batch build of the streamed corpus and
/// a clean audit (removals exercise tombstoning end to end).
#[test]
fn quiesce_equivalent_with_added_and_removed_pages() {
    let mut world = World::generate(WorldConfig::tiny(501));
    let corpus_cfg = CorpusConfig::tiny(51);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = stream(&corpus_v1, pipeline_config(4));
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());

    churn_until_events(&mut world, 0.3, Tick(10), 1);
    let full_v2 = generate_corpus(&world, &corpus_cfg);
    // Drop every third page of the recrawl: those URLs get removal events.
    let mut corpus_v2 = WebCorpus::new();
    for (i, p) in full_v2.pages().iter().enumerate() {
        if i % 3 != 0 {
            corpus_v2.add(p.clone());
        }
    }

    let report = engine.run(event_stream(&corpus_v1, &corpus_v2), &server);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert_eq!(report.pending_carryover, 0);

    // The streamed corpus is the truth the engine maintained against;
    // batch-building it from scratch must reproduce the web exactly.
    let fresh = build(engine.corpus(), &pipeline_config(4));
    assert_eq!(canonical_bytes(engine.web()), canonical_bytes(&fresh));
    assert_eq!(
        engine.corpus().len(),
        corpus_v2.len(),
        "removals must have shrunk the live corpus to the new crawl"
    );
    assert_quiesced_clean(&engine);
}

/// Streaming publishes keep the result cache warm: after ~1% churn flows
/// through `StreamEngine::run` into a cache-enabled server, at least 80% of
/// the warmed search entries still answer from the cache, and the server
/// sits at the stream's last published epoch.
#[test]
fn streamed_low_churn_keeps_search_entries_warm() {
    let mut world = World::generate(WorldConfig::tiny(500));
    let corpus_cfg = CorpusConfig::tiny(50);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = stream(&corpus_v1, pipeline_config(2));
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());

    let names: std::collections::BTreeSet<String> = {
        let store = &engine.web().store;
        store
            .live_ids()
            .into_iter()
            .filter_map(|id| store.latest(id)?.best_string("name"))
            .take(64)
            .collect()
    };
    for name in &names {
        assert!(
            !server.search(name, 5).cached,
            "{name:?} fills on first ask"
        );
    }

    churn_until_events(&mut world, 0.01, Tick(10), 1);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let report = engine.run(event_stream(&corpus_v1, &corpus_v2), &server);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert!(report.effective_epochs >= 1, "the churn must publish");
    assert_eq!(
        Some(server.epoch()),
        engine.journal().last().map(|e| e.published_epoch)
    );

    let warm = names
        .iter()
        .filter(|name| server.search(name, 5).cached)
        .count();
    assert!(
        warm * 5 >= names.len() * 4,
        "{warm}/{} warmed search entries survived the streamed publishes",
        names.len()
    );
}

/// The ingest stage extracts with the configuration of the engine the
/// stream drives: adopting an engine built without detail extraction, the
/// streamed web still equals a cold build under that same configuration.
#[test]
fn stream_extracts_with_its_engines_config() {
    let mut world = World::generate(WorldConfig::tiny(731));
    let corpus_cfg = CorpusConfig::tiny(31);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let config = PipelineConfig {
        use_detail: false,
        ..PipelineConfig::default()
    };
    let mut engine = stream(&corpus_v1, config.clone());
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());

    churn_until_events(&mut world, 0.5, Tick(10), 5);
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let report = engine.run(event_stream(&corpus_v1, &corpus_v2), &server);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert!(report.effective_epochs >= 1, "the churn must publish");

    let fresh = build(engine.corpus(), &config);
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "streamed web must equal a cold build under the engine's own config"
    );
    assert_quiesced_clean(&engine);
}
