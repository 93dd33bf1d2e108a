//! Integration tests for the serving layer: epoch-swap consistency under
//! concurrent load, and cache transparency (cached answers byte-identical to
//! uncached evaluation, across invalidation cycles).

use std::collections::HashMap;
use std::sync::Arc;

use woc_core::{build, PipelineConfig, WebOfConcepts};
use woc_serve::{Answer, ConceptServer, Query, ServeConfig};
use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

fn build_woc(world_seed: u64, corpus_seed: u64) -> WebOfConcepts {
    let world = World::generate(WorldConfig::tiny(world_seed));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(corpus_seed));
    build(&corpus, &PipelineConfig::default())
}

fn mixed_queries() -> Vec<Query> {
    vec![
        Query::Search("gochi cupertino".into(), 5),
        Query::Search("is:restaurant".into(), 8),
        Query::Search("cuisine:italian".into(), 5),
        Query::ConceptBox("gochi cupertino".into()),
        Query::Recommend("gochi cupertino".into(), 3),
        Query::Search("san jose".into(), 5),
    ]
}

/// Render an answer's payload for byte-identity comparison. `Debug` prints
/// floats at full round-trip precision, so two renderings are equal iff the
/// results are bit-identical.
fn payload(a: &Answer) -> String {
    format!("{:?}", a.value)
}

/// Reference answers: a fresh single-epoch server with the cache disabled,
/// evaluated once per query.
fn reference_answers(woc: WebOfConcepts, queries: &[Query]) -> HashMap<Query, String> {
    let server = ConceptServer::new(
        woc,
        ServeConfig {
            cache_enabled: false,
            ..ServeConfig::default()
        },
    );
    queries
        .iter()
        .map(|q| (q.clone(), payload(&server.execute(q))))
        .collect()
}

/// N threads hammer a shared snapshot with mixed queries while the main
/// thread publishes a new epoch mid-flight. Every answer must match the
/// reference evaluation of exactly one epoch — no torn reads, no blends.
#[test]
fn epoch_swap_under_concurrent_load() {
    let woc_v1 = build_woc(41, 14);
    let woc_v2 = build_woc(42, 24);
    let queries = mixed_queries();
    let expected_v1 = reference_answers(woc_v1.clone(), &queries);
    let expected_v2 = reference_answers(woc_v2.clone(), &queries);

    for threads in [1usize, 8] {
        let server = Arc::new(ConceptServer::new(woc_v1.clone(), ServeConfig::default()));
        // Each worker keeps querying until it has answered several rounds
        // against epoch 2, so the swap always lands mid-run regardless of
        // scheduling (bounded to stay finite if publish were broken).
        let tail_rounds = 12usize;
        let max_rounds = 200_000usize;
        let answers: Vec<(Query, u64, String)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let server = Arc::clone(&server);
                    let queries = &queries;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut after_swap = 0usize;
                        for r in 0..max_rounds {
                            // Stagger start positions so threads disagree on
                            // which query is in flight at the swap.
                            let q = &queries[(t + r) % queries.len()];
                            let a = server.execute(q);
                            if a.epoch >= 2 {
                                after_swap += 1;
                            }
                            out.push((q.clone(), a.epoch, payload(&a)));
                            if after_swap >= tail_rounds {
                                break;
                            }
                        }
                        out
                    })
                })
                .collect();
            // Publish the new epoch while workers are mid-loop.
            let publisher = {
                let server = Arc::clone(&server);
                let woc_v2 = woc_v2.clone();
                scope.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    server.try_publish_with(|_| woc_v2)
                })
            };
            assert_eq!(publisher.join().unwrap(), Ok(2));
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });

        assert!(answers.len() >= threads * tail_rounds);
        let mut seen_epochs = std::collections::BTreeSet::new();
        for (q, epoch, got) in &answers {
            seen_epochs.insert(*epoch);
            let want = match epoch {
                1 => &expected_v1[q],
                2 => &expected_v2[q],
                other => panic!("answer from unknown epoch {other}"),
            };
            assert_eq!(
                &got, &want,
                "threads={threads}: answer for {q:?} at epoch {epoch} \
                 differs from that epoch's reference evaluation"
            );
        }
        // The swap happened mid-flight: with the publisher racing the
        // workers, epoch 2 must be observed by the tail of the run.
        assert!(
            seen_epochs.contains(&2),
            "threads={threads}: publish never became visible"
        );
    }
}

/// Cached answers are byte-identical to uncached evaluation — on first miss,
/// on hits, and across a full invalidation cycle (publish of an identical
/// web under a new epoch).
#[test]
fn cache_is_transparent() {
    let woc = build_woc(7, 7);
    let queries = mixed_queries();
    let reference = reference_answers(woc.clone(), &queries);

    let server = ConceptServer::new(woc.clone(), ServeConfig::default());
    for q in &queries {
        let miss = server.execute(q);
        assert!(!miss.cached);
        assert_eq!(payload(&miss), reference[q], "fresh fill differs for {q:?}");
        let hit = server.execute(q);
        assert!(hit.cached, "repeat of {q:?} must hit");
        assert_eq!(payload(&hit), reference[q], "cache hit differs for {q:?}");
    }

    // Invalidation cycle: republish the *same* web as a new epoch. The cache
    // is cleared; fresh fills and fresh hits must still match the reference.
    let epoch = server.try_publish_with(|_| woc);
    assert_eq!(epoch, Ok(2));
    assert_eq!(server.cache_len(), 0);
    for q in &queries {
        let refill = server.execute(q);
        assert!(!refill.cached, "cache must be cold after publish");
        assert_eq!(refill.epoch, 2);
        assert_eq!(
            payload(&refill),
            reference[q],
            "post-invalidation fill differs for {q:?}"
        );
        let hit = server.execute(q);
        assert!(hit.cached);
        assert_eq!(payload(&hit), reference[q]);
    }
}

/// Concurrent batches against a fixed snapshot are deterministic: every
/// thread count yields the same answers in the same order.
#[test]
fn batch_deterministic_across_thread_counts() {
    let server = ConceptServer::new(build_woc(11, 12), ServeConfig::default());
    let queries: Vec<Query> = (0..24).map(|i| mixed_queries()[i % 6].clone()).collect();
    let base: Vec<String> = server.run_batch(&queries, 1).iter().map(payload).collect();
    for threads in [2usize, 8] {
        let got: Vec<String> = server
            .run_batch(&queries, threads)
            .iter()
            .map(payload)
            .collect();
        assert_eq!(got, base, "batch at {threads} threads diverged");
    }
}
