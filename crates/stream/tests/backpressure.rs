//! Backpressure and watermark properties: the dataflow stays correct when
//! the channel is too small to absorb anything (ingest throttles),
//! batch sizes respect their cap, and the watermark algebra holds for
//! arbitrary transition sets.

use proptest::prelude::*;
use woc_audit::{stream_digest, PageChangeView};
use woc_core::{build, PipelineConfig};
use woc_incr::{canonical_bytes, IncrEngine};
use woc_lrec::Tick;
use woc_serve::{ConceptServer, ServeConfig};
use woc_stream::{PageEvent, StreamConfig, StreamEngine, Watermark};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

/// A rendezvous channel and a single-slot one, each with a hard 3-page
/// batch cap: the stream must throttle end to end and still quiesce
/// byte-identically, with no journal entry exceeding the cap.
#[test]
fn single_slot_channels_throttle_but_stay_exact() {
    for channel_capacity in [0, 1] {
        throttle_scenario(channel_capacity);
    }
}

fn throttle_scenario(channel_capacity: usize) {
    let mut world = World::generate(WorldConfig::tiny(503));
    let corpus_cfg = CorpusConfig::tiny(53);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let config = StreamConfig {
        channel_capacity,
        // Never cut on content: every micro-epoch closes on the size cap,
        // so the cap is what this test exercises.
        cut_mask: u64::MAX,
        max_batch_pages: 3,
    };
    let pipeline = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    let incr = IncrEngine::new(&corpus_v1, pipeline.clone());
    let mut engine = StreamEngine::from_parts(incr, corpus_v1.clone(), config);
    let server = ConceptServer::new(engine.web().clone(), ServeConfig::default());

    let mut seed = 1;
    while churn_restaurants(&mut world, 0.6, Tick(10), seed).is_empty() {
        seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let events: Vec<PageEvent> = corpus_v2
        .pages()
        .iter()
        .cloned()
        .map(PageEvent::Updated)
        .collect();

    let report = engine.run(events, &server);
    assert_eq!(report.publish_failures, 0, "{:?}", report.failure_messages);
    assert_eq!(report.pending_carryover, 0);
    for e in engine.journal() {
        assert!(
            e.changed_pages.len() <= 3,
            "micro-epoch {} exceeded the batch cap: {} pages",
            e.ordinal,
            e.changed_pages.len()
        );
    }
    let fresh = build(&corpus_v2, &pipeline);
    assert_eq!(canonical_bytes(engine.web()), canonical_bytes(&fresh));
}

fn arb_change() -> impl Strategy<Value = PageChangeView> {
    (
        "[a-z]{1,8}",
        prop::option::of(0u64..u64::MAX),
        prop::option::of(0u64..u64::MAX),
    )
        .prop_map(|(path, old_fp, new_fp)| PageChangeView {
            url: format!("http://p.test/{path}"),
            old_fp,
            new_fp,
        })
}

proptest! {
    /// `advance` strictly increases `events` for non-empty batches, by
    /// exactly the batch size, from any starting watermark.
    #[test]
    fn watermark_events_strictly_monotone(
        start_events in 0u64..1_000_000,
        start_digest in 0u64..u64::MAX,
        changes in prop::collection::vec(arb_change(), 1..20),
    ) {
        let start = Watermark { events: start_events, digest: start_digest };
        let next = start.advance(&changes);
        prop_assert_eq!(next.events, start.events + changes.len() as u64);
        prop_assert!(next.events > start.events);
    }

    /// The digest is arrival-order-free (any permutation chains equally)
    /// but history-sensitive: it must depend on the previous digest.
    #[test]
    fn watermark_digest_order_free_and_chained(
        start_digest in 0u64..u64::MAX,
        mut changes in prop::collection::vec(arb_change(), 1..12),
        rotate in 0usize..12,
    ) {
        let fwd = stream_digest(start_digest, &changes);
        let r = rotate % changes.len();
        changes.rotate_left(r);
        prop_assert_eq!(fwd, stream_digest(start_digest, &changes));
        prop_assert_ne!(fwd, stream_digest(start_digest ^ 0x5a5a_5a5a, &changes));
    }
}
