//! A panic in the commit stage must propagate out of `StreamEngine::run`,
//! not hang it. The commit stage owns the channel's receiver; when it
//! unwinds, the receiver drops, the ingest thread's parked `send` fails and
//! that thread exits, so the scope can join it and re-raise the panic.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use woc_core::PipelineConfig;
use woc_incr::IncrEngine;
use woc_lrec::Tick;
use woc_serve::{ConceptServer, ServeConfig};
use woc_stream::{PageEvent, StreamConfig, StreamEngine};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

/// Budget for the panic to surface: generous for CI machines, tiny next to
/// a real hang.
const DEADLINE: Duration = Duration::from_secs(60);

#[test]
fn commit_stage_panic_propagates_instead_of_hanging() {
    let mut world = World::generate(WorldConfig::tiny(505));
    let corpus_cfg = CorpusConfig::tiny(55);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut seed = 1;
    while churn_restaurants(&mut world, 0.5, Tick(10), seed).is_empty() {
        seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    // Flip between the churned crawl and the original one twice: every
    // changed page is a real change on each flip, so ~4 × the corpus's
    // pages arrive as events and the single-slot channel stays full.
    let events: Vec<PageEvent> = [&corpus_v2, &corpus_v1, &corpus_v2, &corpus_v1]
        .into_iter()
        .flat_map(|c| c.pages().iter().cloned().map(PageEvent::Updated))
        .collect();

    let config = StreamConfig {
        channel_capacity: 1,
        // Every change closes a micro-epoch, so the first one publishes.
        cut_mask: 0,
        ..StreamConfig::default()
    };
    let pipeline = PipelineConfig {
        threads: 1,
        ..PipelineConfig::default()
    };
    let incr = IncrEngine::new(&corpus_v1, pipeline);
    let mut engine = StreamEngine::from_parts(incr, corpus_v1, config);
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());
    server.on_publish(Box::new(|snap| {
        panic!("publish hook rejects epoch {}", snap.epoch)
    }));

    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.run(events, &server)));
        done_tx.send(outcome.is_err()).ok();
    });
    let panicked = done_rx
        .recv_timeout(DEADLINE)
        .expect("stream hung after its commit stage panicked");
    assert!(
        panicked,
        "the publish hook's panic must propagate out of run"
    );
}
