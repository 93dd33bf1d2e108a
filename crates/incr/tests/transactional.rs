//! Transactional maintenance: a failed or rejected pass must leave the
//! engine byte-identical to its state before the call — the last good
//! epoch stays servable — and a subsequent clean pass must fully recover.

use woc_core::{build, PipelineConfig};
use woc_incr::{canonical_bytes, IncrEngine, MaintainError};
use woc_lrec::Tick;
use woc_serve::{ConceptServer, ServeConfig};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

fn epochs() -> (woc_webgen::WebCorpus, woc_webgen::WebCorpus) {
    let mut world = World::generate(WorldConfig::tiny(700));
    let corpus_cfg = CorpusConfig::tiny(70);
    let v1 = generate_corpus(&world, &corpus_cfg);
    let mut seed = 1;
    while churn_restaurants(&mut world, 0.4, Tick(10), seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after a thousand seeds");
    }
    let v2 = generate_corpus(&world, &corpus_cfg);
    (v1, v2)
}

#[test]
fn rejected_pass_leaves_last_good_epoch_untouched() {
    let (v1, v2) = epochs();
    let config = PipelineConfig::default();
    let mut engine = IncrEngine::new(&v1, config.clone());
    let before = canonical_bytes(engine.web());

    engine.set_fault_hook(Box::new(|changes| {
        Err(format!("crawl gate rejected {} dirty pages", changes.len()))
    }));
    let err = engine.maintain(&v2).expect_err("hook must abort the pass");
    assert!(
        matches!(&err, MaintainError::FaultInjected(msg) if msg.contains("crawl gate")),
        "unexpected error: {err}"
    );
    assert_eq!(
        canonical_bytes(engine.web()),
        before,
        "aborted pass must not touch the engine's web"
    );

    // A later clean crawl of the *old* epoch still short-circuits: the
    // fingerprints were not replaced either.
    engine.clear_fault_hook();
    let report = engine.maintain(&v1).expect("clean pass succeeds");
    assert!(report.short_circuited, "epoch fingerprints were preserved");
}

#[test]
fn panicking_pass_aborts_cleanly_and_recovers() {
    let (v1, v2) = epochs();
    let config = PipelineConfig::default();
    let mut engine = IncrEngine::new(&v1, config.clone());
    let before = canonical_bytes(engine.web());

    engine.set_fault_hook(Box::new(|_| panic!("injected rebuild panic")));
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let err = engine.maintain(&v2).expect_err("panic must abort the pass");
    std::panic::set_hook(prev_hook);
    assert!(
        matches!(&err, MaintainError::RebuildPanicked(msg) if msg.contains("injected rebuild panic")),
        "unexpected error: {err}"
    );
    assert_eq!(
        canonical_bytes(engine.web()),
        before,
        "panicked pass must not touch the engine's web"
    );

    // Recovery: the same engine maintains the same target epoch cleanly
    // and lands byte-identical to a from-scratch rebuild.
    engine.clear_fault_hook();
    let report = engine.maintain(&v2).expect("recovery pass succeeds");
    assert!(!report.short_circuited);
    let fresh = build(&v2, &config);
    assert_eq!(
        canonical_bytes(engine.web()),
        canonical_bytes(&fresh),
        "recovered epoch must equal a from-scratch build"
    );
}

/// The serving tier sees the real write path fail: a failed
/// `maintain_and_publish` pass leaves the server degraded on the last good
/// epoch with the error text, and the next successful pass — a no-op or a
/// real publish — clears the streak.
#[test]
fn failed_publishing_pass_degrades_the_server_until_the_next_success() {
    let (v1, v2) = epochs();
    let mut engine = IncrEngine::new(&v1, PipelineConfig::default());
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    assert!(!server.health().degraded);

    engine.set_fault_hook(Box::new(|_| Err("crawl gate closed".to_string())));
    for failures in 1..=2 {
        engine
            .maintain_and_publish(&v2, &server)
            .expect_err("hook must abort the pass");
        let h = server.health();
        assert!(h.degraded, "a failed pass must degrade the server");
        assert_eq!(h.epoch, 1, "…which keeps serving the last good epoch");
        assert_eq!(
            (h.failed_maintains, h.consecutive_failures),
            (failures, failures)
        );
        assert_eq!(
            h.last_error.as_deref(),
            Some("fault injected: crawl gate closed")
        );
    }

    // A successful no-op pass (the old crawl short-circuits before the
    // hook) ends the streak without publishing anything.
    let (report, epoch) = engine
        .maintain_and_publish(&v1, &server)
        .expect("short-circuit succeeds");
    assert!(report.short_circuited);
    assert_eq!(epoch, 1);
    let h = server.health();
    assert!(!h.degraded, "a successful no-op pass clears the streak");
    assert_eq!((h.failed_maintains, h.consecutive_failures), (2, 0));

    // Fail once more, then recover with a real publish.
    engine
        .maintain_and_publish(&v2, &server)
        .expect_err("hook still installed");
    assert!(server.health().degraded);
    engine.clear_fault_hook();
    let (_, epoch) = engine
        .maintain_and_publish(&v2, &server)
        .expect("recovery pass publishes");
    assert_eq!(epoch, 2);
    let h = server.health();
    assert!(!h.degraded, "a published pass clears the streak");
    assert_eq!((h.failed_maintains, h.consecutive_failures), (3, 0));
}

/// One epoch object: the engine and the serving tier read the same
/// allocation, and a failed pass leaves both on the one they had.
#[test]
fn engine_and_server_share_one_web_per_epoch() {
    let (v1, v2) = epochs();
    let mut engine = IncrEngine::new(&v1, PipelineConfig::default());
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    engine
        .maintain_and_publish(&v2, &server)
        .expect("clean pass publishes");
    assert!(
        std::ptr::eq(engine.web(), &*server.snapshot().woc),
        "the published web is the engine's own, not a copy"
    );

    // A rejected pass and a panicking one: engine and server both stay on
    // the pre-pass allocation, content untouched.
    let good: *const woc_core::WebOfConcepts = engine.web();
    let before = canonical_bytes(engine.web());
    for hook in [
        Box::new(|_: &woc_incr::ChangeSet| Err("crawl gate closed".to_string()))
            as woc_incr::FaultHook,
        Box::new(|_: &woc_incr::ChangeSet| panic!("injected rebuild panic")),
    ] {
        engine.set_fault_hook(hook);
        engine
            .maintain_and_publish(&v1, &server)
            .expect_err("the pass must abort");
        assert!(std::ptr::eq(engine.web(), good));
        assert!(std::ptr::eq(&*server.snapshot().woc, good));
        assert_eq!(canonical_bytes(engine.web()), before);
    }
    engine.clear_fault_hook();

    // Moving on releases nothing a reader holds: the engine's next epoch is
    // a new allocation, the server follows it.
    engine
        .maintain_and_publish(&v1, &server)
        .expect("recovery pass publishes");
    assert!(!std::ptr::eq(engine.web(), good));
    assert!(std::ptr::eq(engine.web(), &*server.snapshot().woc));
}

/// A reader that pinned epoch *n* keeps rendering epoch *n*, byte for
/// byte, however many epochs the engine and the server move on — also when
/// it reads from another thread while the later passes run: consecutive
/// epochs share records, versions and posting lists, so the writer bumps,
/// copies-on-write and releases heap objects the reader is walking (the
/// TSan leg runs this test).
#[test]
fn pinned_reader_keeps_its_epoch_across_later_publishes() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let (v1, v2) = epochs();
    let mut engine = IncrEngine::new(&v1, PipelineConfig::default());
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    engine
        .maintain_and_publish(&v2, &server)
        .expect("epoch 2 publishes");
    let pinned = server.snapshot();
    let bytes = canonical_bytes(&pinned.woc);
    assert_eq!(pinned.epoch, 2);

    let (reading_tx, reading_rx) = std::sync::mpsc::channel();
    let passes_done = AtomicBool::new(false);
    std::thread::scope(|s| {
        // Render the pinned epoch over and over until the writer is done.
        let reader = s.spawn(|| {
            let mut reads = 0usize;
            loop {
                reading_tx.send(()).expect("the writer outlives the reader");
                assert_eq!(canonical_bytes(&pinned.woc), bytes);
                reads += 1;
                if passes_done.load(Ordering::SeqCst) {
                    return reads;
                }
            }
        });
        for (corpus, epoch) in [(&v1, 3), (&v2, 4)] {
            // A pass starts only once a read is under way.
            reading_rx.recv().expect("the reader is running");
            let (_, served) = engine
                .maintain_and_publish(corpus, &server)
                .expect("later epochs publish");
            assert_eq!(served, epoch);
        }
        passes_done.store(true, Ordering::SeqCst);
        let reads = reader.join().expect("the reader never saw other bytes");
        assert!(reads >= 2, "one read began before each pass");
    });
    assert_eq!(pinned.epoch, 2);
    assert_eq!(canonical_bytes(&pinned.woc), bytes);
    // Epoch 4 was maintained from the same crawl as the pinned one: equal
    // bytes, a different object.
    assert_eq!(canonical_bytes(engine.web()), bytes);
    assert!(!std::ptr::eq(engine.web(), &*pinned.woc));
}

/// A page is fingerprinted once per corpus that holds it: the corpus keeps
/// the value, and every later pass handed that corpus reads it.
#[test]
fn a_page_is_fingerprinted_once_per_corpus_that_holds_it() {
    let (v1, v2) = epochs();
    let mut engine = IncrEngine::new(&v1, PipelineConfig::default());
    // `IncrEngine::new` swept v1; v2 is seen for the first time.
    for (corpus, fingerprinted) in [(&v2, v2.len()), (&v1, 0), (&v2, 0)] {
        let report = engine.maintain(corpus).expect("clean pass succeeds");
        assert!(!report.short_circuited);
        assert_eq!(report.pages_fingerprinted, fingerprinted);
    }
}

#[test]
fn short_circuit_does_not_consult_the_hook() {
    let (v1, _) = epochs();
    let mut engine = IncrEngine::new(&v1, PipelineConfig::default());
    engine.set_fault_hook(Box::new(|_| Err("must not be called".to_string())));
    let report = engine
        .maintain(&v1)
        .expect("empty change set short-circuits before the hook");
    assert!(report.short_circuited);
}

#[test]
fn maintain_error_displays_its_cause() {
    let a = MaintainError::RebuildPanicked("boom".to_string());
    let b = MaintainError::FaultInjected("gate closed".to_string());
    assert_eq!(a.to_string(), "rebuild panicked: boom");
    assert_eq!(b.to_string(), "fault injected: gate closed");
}
