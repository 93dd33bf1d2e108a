//! The stream under fault injection: degraded crawls flow through the
//! dataflow while queries run, behind a watchdog. Required outcomes —
//! no deadlock (the watchdog fires otherwise), no partial micro-epoch
//! ever visible (every observed serving epoch is one the journal
//! published, or the initial build), and quiesced byte-identity holds on
//! whatever corpus the degraded crawl produced.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use woc_audit::AuditConfig;
use woc_chaos::{crawl, FaultProfile, RetryPolicy};
use woc_core::{build, PipelineConfig};
use woc_incr::{canonical_bytes, IncrEngine};
use woc_lrec::Tick;
use woc_serve::{ConceptServer, ServeConfig};
use woc_stream::{PageEvent, StreamConfig, StreamEngine, StreamReport};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, WebCorpus, World, WorldConfig};

/// Watchdog budget: generous for CI machines, tiny next to a real hang.
const WATCHDOG: Duration = Duration::from_secs(120);

fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    }
}

fn stream(corpus: &WebCorpus) -> StreamEngine {
    let config = StreamConfig {
        // A small channel so backpressure actually engages under the test
        // corpus sizes.
        channel_capacity: 4,
        ..StreamConfig::default()
    };
    let incr = IncrEngine::new(corpus, pipeline_config());
    StreamEngine::from_parts(incr, corpus.clone(), config)
}

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

/// Run the stream on its own thread under the watchdog while a query
/// thread hammers the server and records every serving epoch it observes.
/// Returns the engine, the run report, and the observed epoch set.
fn run_with_watchdog(
    mut engine: StreamEngine,
    server: Arc<ConceptServer>,
    events: Vec<PageEvent>,
) -> (StreamEngine, StreamReport, Vec<u64>) {
    let (done_tx, done_rx) = mpsc::channel();
    let stop = Arc::new(AtomicBool::new(false));
    let observer = {
        let server = Arc::clone(&server);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen: Vec<u64> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let answer = server.search("verde", 3);
                if seen.last() != Some(&answer.epoch) {
                    seen.push(answer.epoch);
                }
                std::thread::yield_now();
            }
            seen
        })
    };
    let runner = std::thread::spawn(move || {
        let report = engine.run(events, &server);
        (engine, report)
    });
    // The watchdog: a deadlocked dataflow never sends, and the test fails
    // loudly instead of hanging CI.
    let (engine, report) = {
        let handle = std::thread::spawn(move || {
            let out = runner.join().expect("stream thread must not panic");
            done_tx.send(()).ok();
            out
        });
        done_rx
            .recv_timeout(WATCHDOG)
            .expect("watchdog: stream did not quiesce — deadlock or livelock");
        handle.join().expect("collector thread must not panic")
    };
    stop.store(true, Ordering::Relaxed);
    let seen = observer.join().expect("observer thread must not panic");
    (engine, report, seen)
}

/// Every epoch a reader ever observed must be the initial build or a
/// journal-published one: partial micro-epochs are unobservable.
fn assert_no_partial_epochs(engine: &StreamEngine, initial_epoch: u64, seen: &[u64]) {
    let mut valid: Vec<u64> = engine.journal().iter().map(|e| e.published_epoch).collect();
    valid.push(initial_epoch);
    for epoch in seen {
        assert!(
            valid.contains(epoch),
            "observed serving epoch {epoch} was never published by a \
             micro-epoch (valid: {valid:?})"
        );
    }
}

fn chaos_scenario(profile: FaultProfile, seed: u64) {
    let mut world = World::generate(WorldConfig::tiny(500));
    let corpus_cfg = CorpusConfig::tiny(50);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let engine = stream(&corpus_v1);
    let server = Arc::new(ConceptServer::new(
        engine.web().clone(),
        ServeConfig::default(),
    ));
    let initial_epoch = server.epoch();

    let mut churn_seed = seed;
    while churn_restaurants(&mut world, 0.4, Tick(10), churn_seed).is_empty() {
        churn_seed += 1;
    }
    let truth_v2 = generate_corpus(&world, &corpus_cfg);
    // The degraded crawl: faults quarantine some pages; patch those from
    // the last good crawl, exactly as a resilient recrawl loop would.
    let outcome = crawl(&truth_v2, &profile, &RetryPolicy::default(), seed);
    let patched = outcome.patched_with(&corpus_v1);
    let events = event_stream(&corpus_v1, &patched);

    let (engine, report, seen) = run_with_watchdog(engine, Arc::clone(&server), events);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert_eq!(report.pending_carryover, 0, "chaos run must still quiesce");

    // Quiesced byte-identity on the corpus the degraded crawl produced.
    let fresh = build(engine.corpus(), &pipeline_config());
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "degraded crawl ({}, seed {seed}) must still stream to a \
         byte-identical web",
        profile.name
    );
    assert_no_partial_epochs(&engine, initial_epoch, &seen);
    let audit = engine.audit(&AuditConfig::default());
    assert!(audit.passed(), "{}", audit.render());
}

#[test]
fn stream_survives_timeouts_seed_11() {
    chaos_scenario(FaultProfile::timeouts(), 11);
}

#[test]
fn stream_survives_timeouts_seed_17() {
    chaos_scenario(FaultProfile::timeouts(), 17);
}

#[test]
fn stream_survives_truncation_seed_11() {
    chaos_scenario(FaultProfile::truncation(), 11);
}

#[test]
fn stream_survives_truncation_seed_17() {
    chaos_scenario(FaultProfile::truncation(), 17);
}

#[test]
fn stream_survives_flapping_seed_11() {
    chaos_scenario(FaultProfile::flapping(), 11);
}

#[test]
fn stream_survives_flapping_seed_17() {
    chaos_scenario(FaultProfile::flapping(), 17);
}

/// Maintenance-side faults: a hook that rejects the first two passes makes
/// those micro-epochs fail. Their batches must coalesce — not vanish, not
/// publish partially — and a retry run must quiesce to byte-identity with
/// one journal entry covering the union of the failed batches.
#[test]
fn failed_publishes_coalesce_and_retry_quiesces() {
    let mut world = World::generate(WorldConfig::tiny(502));
    let corpus_cfg = CorpusConfig::tiny(52);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = stream(&corpus_v1);
    let server = Arc::new(ConceptServer::new(
        engine.web().clone(),
        ServeConfig::default(),
    ));

    // Each pass records the failure streak the server reports as it starts.
    let streaks: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let (observer, seen) = (Arc::clone(&server), Arc::clone(&streaks));
    let rejections = Arc::new(AtomicUsize::new(0));
    let gate = Arc::clone(&rejections);
    engine.set_fault_hook(Box::new(move |_changes| {
        seen.lock()
            .expect("streak log poisoned")
            .push(observer.health().consecutive_failures);
        if gate.fetch_add(1, Ordering::SeqCst) < 2 {
            Err("injected: maintenance rejected".to_string())
        } else {
            Ok(())
        }
    }));

    let mut churn_seed = 1;
    while churn_restaurants(&mut world, 0.5, Tick(10), churn_seed).is_empty() {
        churn_seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let report = engine.run(event_stream(&corpus_v1, &corpus_v2), &server);
    assert!(
        report.publish_failures >= 1,
        "the gate must have rejected at least one pass"
    );
    assert!(report
        .failure_messages
        .iter()
        .all(|m| m.contains("injected")));

    // Every failed micro-epoch reached the server: the pass after a failure
    // starts degraded, the first accepted pass (the third) ends the streak,
    // and the server is degraded now exactly if the last pass failed.
    let streaks = streaks.lock().expect("streak log poisoned").clone();
    let expected: Vec<u64> = (0..streaks.len() as u64)
        .map(|pass| if pass <= 2 { pass } else { 0 })
        .collect();
    assert_eq!(streaks, expected);
    let health = server.health();
    assert_eq!(health.failed_maintains, report.publish_failures as u64);
    assert_eq!(health.degraded, report.pending_carryover > 0);
    assert!(health
        .last_error
        .as_deref()
        .is_some_and(|m| m.contains("injected: maintenance rejected")));

    // Whether the stream already recovered in-run (later cuts retry the
    // coalesced batch) or still carries pending work, a quiesce retry with
    // no new events must finish the job.
    engine.clear_fault_hook();
    let retry = engine.run(Vec::new(), &server);
    assert_eq!(retry.publish_failures, 0);
    assert_eq!(engine.pending_len(), 0, "retry must drain the carry-over");
    let healed = server.health();
    assert!(!healed.degraded, "a clean retry run clears degraded mode");
    assert_eq!(healed.consecutive_failures, 0);
    assert_eq!(healed.failed_maintains, health.failed_maintains);

    let fresh = build(&corpus_v2, &pipeline_config());
    assert_eq!(canonical_bytes(engine.web()), canonical_bytes(&fresh));
    let audit = engine.audit(&AuditConfig::default());
    assert!(audit.passed(), "{}", audit.render());
    // The failed batches surface as coalesced journal entries: total
    // transitions still account for every changed page exactly once.
    let journaled: usize = engine.journal().iter().map(|e| e.changed_pages.len()).sum();
    assert_eq!(journaled as u64, engine.watermark().events);
}
