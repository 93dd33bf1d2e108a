//! The cluster invariant, end to end: under every shard-fault profile,
//! quorum serving stays **byte-identical** to the single-node answers and
//! audit-clean (W013 included), or the router degrades with explicit
//! [`Coverage::Partial`] metadata whose surviving results are a provable
//! prefix of the single-node answer restricted to surviving shards —
//! never a silently partial epoch.
//!
//! Every test is deterministic: faults are rolled from fixed seeds and
//! latency accumulates on a virtual clock, so a failure replays exactly.
//! Set `WOC_CLUSTER_SEED` to sweep an extra seed in CI.

use std::sync::{Arc, OnceLock};

use woc_apps::{concept_search_parsed, hydrate_record_hit, interpret_query, ConceptResult};
use woc_audit::AuditConfig;
use woc_chaos::ShardFaultProfile;
use woc_cluster::{ClusterConfig, ClusterServer, Coverage};
use woc_core::{build, PipelineConfig, WebOfConcepts};
use woc_incr::{IncrEngine, MaintainReport};
use woc_index::{FieldQuery, MergePolicy};
use woc_lrec::{LrecId, Tick};
use woc_serve::SegmentDelta;
use woc_textkit::tokenize::tokenize_words;
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, WebCorpus, World, WorldConfig};

/// Seeds every profile is exercised at. `WOC_CLUSTER_SEED` adds one more.
fn fault_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 17];
    if let Ok(extra) = std::env::var("WOC_CLUSTER_SEED") {
        if let Ok(s) = extra.parse() {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    seeds
}

/// Shared fixture: one built web, cloned into each cluster under test.
fn fixture() -> &'static (WebCorpus, WebOfConcepts) {
    static FIXTURE: OnceLock<(WebCorpus, WebOfConcepts)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(700));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(70));
        let woc = build(&corpus, &PipelineConfig::default());
        (corpus, woc)
    })
}

/// The search workload: free-text, cuisine-scoped, and concept-filtered
/// queries at several depths, exercising every gather-stage filter —
/// including a scoped requirement under a resolved concept, one under an
/// unresolvable concept (no filter, so no over-fetch), and a `k` deeper
/// than the match count.
fn search_pool() -> Vec<(&'static str, usize)> {
    vec![
        ("pizza", 5),
        ("thai noodles", 5),
        ("sushi", 3),
        ("cheap pizza downtown", 8),
        ("romantic italian", 5),
        ("is:restaurant", 10),
        ("burger", 1),
        ("is:restaurant cuisine:thai", 5),
        ("is:nosuchconcept noodles cuisine:japanese", 5),
        ("sushi", 500),
    ]
}

fn doc_pool() -> Vec<(&'static str, usize)> {
    vec![("pizza", 10), ("menu", 10), ("downtown thai", 5)]
}

/// The single-node reference answer the cluster must reproduce.
fn reference_search(woc: &WebOfConcepts, query: &str, k: usize) -> Vec<ConceptResult> {
    let fq = interpret_query(query).normalized();
    concept_search_parsed(woc, &fq, k)
}

/// The single-node reference for plain document search, as `(url, score)`.
fn reference_doc_search(woc: &WebOfConcepts, query: &str, k: usize) -> Vec<(String, f64)> {
    woc.doc_index
        .search(query, k)
        .into_iter()
        .map(|h| (woc.doc_urls[h.doc.0 as usize].clone(), h.score))
        .collect()
}

/// Publish a maintenance pass the way `IncrEngine::maintain_and_publish`
/// does: the engine's web and segments under the pass's folded delta.
fn publish_pass(
    cluster: &ClusterServer,
    corpus: &WebCorpus,
    engine: &IncrEngine,
    report: &MaintainReport,
) -> u64 {
    cluster.publish(
        corpus,
        engine.web().clone(),
        &report.delta,
        Arc::new(engine.segments().clone()),
    )
}

fn cluster_over(woc: &WebOfConcepts, corpus: &WebCorpus, config: ClusterConfig) -> ClusterServer {
    ClusterServer::new(corpus, woc.clone(), config)
}

/// Byte-identity oracle: debug-render both answer lists and compare.
fn assert_identical(cluster: &[ConceptResult], reference: &[ConceptResult], ctx: &str) {
    assert_eq!(
        format!("{cluster:?}"),
        format!("{reference:?}"),
        "[{ctx}] cluster answer must be byte-identical to single-node"
    );
}

/// The degraded-answer contract: every served hit is owned by a surviving
/// shard, and the reference answer restricted to surviving shards is a
/// byte-identical *prefix* of the cluster's partial answer.
fn assert_partial_contract(
    cluster: &ClusterServer,
    results: &[ConceptResult],
    missing: &[usize],
    woc: &WebOfConcepts,
    query: &str,
    k: usize,
    ctx: &str,
) {
    let pm = cluster.partition();
    for r in results {
        let owner = pm.shard_of_record(r.id).expect("served records are live");
        assert!(
            !missing.contains(&owner),
            "[{ctx}] hit {:?} owned by missing shard {owner}",
            r.id
        );
    }
    let reference = reference_search(woc, query, k);
    let surviving: Vec<&ConceptResult> = reference
        .iter()
        .filter(|r| {
            pm.shard_of_record(r.id)
                .is_some_and(|s| !missing.contains(&s))
        })
        .collect();
    assert!(
        results.len() >= surviving.len(),
        "[{ctx}] partial answer lost surviving reference hits"
    );
    for (i, want) in surviving.iter().enumerate() {
        assert_eq!(
            format!("{:?}", results[i]),
            format!("{want:?}"),
            "[{ctx}] surviving reference hits must form a prefix (rank {i})"
        );
    }
}

fn assert_audit_clean(cluster: &ClusterServer, ctx: &str) {
    let report = cluster.audit(&AuditConfig::default());
    let failing: Vec<_> = report
        .checks
        .iter()
        .filter(|c| c.violations > 0)
        .map(|c| (c.code.clone(), c.violations))
        .collect();
    assert!(report.passed(), "[{ctx}] audit violations: {failing:?}");
}

/// Healthy cluster, every width: scatter-gather search, doc search, and
/// routed lookup are byte-identical to the single-node paths, and the
/// virtual cost of the search pool never grows with the shard count —
/// `postings_cost` partitions the posting walk, and a query costs its
/// slowest shard.
#[test]
fn healthy_cluster_is_byte_identical_at_every_width() {
    let (corpus, woc) = fixture();
    let mut pool_micros = Vec::new();
    for shards in [1, 2, 4] {
        let cluster = cluster_over(
            woc,
            corpus,
            ClusterConfig {
                shards,
                ..ClusterConfig::default()
            },
        );
        assert_eq!(cluster.epoch(), 1);
        let mut micros = 0;
        for (q, k) in search_pool() {
            let ans = cluster.search(q, k);
            micros += ans.virtual_micros;
            assert!(ans.coverage.is_complete(), "[N={shards}] {q:?} degraded");
            assert_eq!(ans.epoch, 1);
            assert_identical(
                &ans.results,
                &reference_search(woc, q, k),
                &format!("N={shards} {q:?}"),
            );
        }
        for (q, k) in doc_pool() {
            let ans = cluster.doc_search(q, k);
            assert!(ans.coverage.is_complete());
            assert_eq!(
                format!("{:?}", ans.results),
                format!("{:?}", reference_doc_search(woc, q, k)),
                "[N={shards}] doc search {q:?} must match the full index"
            );
        }
        for id in woc.store.live_ids().into_iter().take(12) {
            let ans = cluster.lookup(id);
            assert!(ans.coverage.is_complete());
            assert_eq!(
                format!("{:?}", ans.result),
                format!("{:?}", woc_cluster::lookup_reference(woc, id)),
                "[N={shards}] lookup {id:?}"
            );
        }
        // An id the store never allocated resolves to a clean miss.
        let miss = cluster.lookup(LrecId(u64::MAX / 2));
        assert!(miss.coverage.is_complete());
        assert!(miss.result.is_none());
        assert_eq!(cluster.stats().partial_answers, 0);
        assert_audit_clean(&cluster, &format!("healthy N={shards}"));
        pool_micros.push(micros);
    }
    assert!(
        pool_micros.windows(2).all(|w| w[1] <= w[0]) && pool_micros[2] < pool_micros[0],
        "search-pool virtual micros at N=1,2,4 must fall with width: {pool_micros:?}"
    );
}

/// `k` is caller-supplied (`Query::Search(_, k)`): at `k = usize::MAX` the
/// over-fetch budget under `is:` must saturate, not overflow — the flat
/// reference, the single node's segmented index and a 4-shard cluster all
/// return every restaurant, identically.
#[test]
fn unbounded_k_under_a_concept_filter_returns_every_match() {
    // More restaurants than a wrapped budget (`usize::MAX * 8 + 32` = 24)
    // would keep, so a release build fails here too.
    let world = World::generate(WorldConfig {
        restaurants: 40,
        ..WorldConfig::tiny(704)
    });
    let corpus = &generate_corpus(&world, &CorpusConfig::tiny(74));
    let woc = &build(corpus, &PipelineConfig::default());
    let restaurant = woc.registry.id_of("restaurant").expect("standard concept");
    let restaurants = woc.records_of(restaurant);
    // Every restaurant has a city, so the union of city words matches all.
    let mut terms: Vec<String> = restaurants
        .iter()
        .filter_map(|r| r.best_string("city"))
        .flat_map(|city| tokenize_words(&city))
        .collect();
    terms.sort_unstable();
    terms.dedup();
    let fq = FieldQuery {
        terms,
        scoped: Vec::new(),
        concept: Some("restaurant".into()),
    };
    let flat = concept_search_parsed(woc, &fq, usize::MAX);
    assert_eq!(flat.len(), restaurants.len(), "flat reference drops hits");
    assert!(flat.len() > 24, "fixture too small to see a wrapped budget");

    let cluster = cluster_over(woc, corpus, ClusterConfig::default());
    let ans = cluster.search_parsed(&fq, usize::MAX);
    assert!(ans.coverage.is_complete());
    assert_identical(&ans.results, &flat, "cluster, k = usize::MAX");
    let snap = cluster.full().snapshot();
    let segmented: Vec<ConceptResult> = snap
        .segments
        .search(&fq, usize::MAX, |n| woc.registry.id_of(n))
        .iter()
        .filter_map(|h| hydrate_record_hit(woc, h))
        .collect();
    assert_identical(&segmented, &flat, "segmented, k = usize::MAX");
}

/// Kill any single replica of any shard: the quorum keeps every answer
/// byte-identical and the audit (W013 included) stays clean.
#[test]
fn replica_kill_keeps_quorum_byte_identical() {
    let (corpus, woc) = fixture();
    for seed in fault_seeds() {
        let config = ClusterConfig::default();
        for shard in 0..config.shards {
            let cluster = cluster_over(woc, corpus, config.clone());
            let replica = (shard + seed as usize) % config.replicas;
            cluster.set_faults(ShardFaultProfile::replica_down(shard, replica), seed);
            for (q, k) in search_pool() {
                let ans = cluster.search(q, k);
                assert!(
                    ans.coverage.is_complete(),
                    "[{seed}/{shard}] quorum must absorb a single replica kill"
                );
                assert_identical(
                    &ans.results,
                    &reference_search(woc, q, k),
                    &format!("kill {shard}.{replica} seed {seed} {q:?}"),
                );
            }
            assert!(
                cluster.stats().dead_probes > 0,
                "[{seed}/{shard}] the dead replica must have been probed"
            );
            assert_eq!(cluster.stats().partial_answers, 0);
            assert_audit_clean(&cluster, &format!("replica-down {shard}.{replica}"));
        }
    }
}

/// Black out a whole shard: every answer degrades with explicit partial
/// metadata naming exactly that shard, and the surviving results honor the
/// prefix contract against the single-node reference.
#[test]
fn shard_blackout_degrades_with_explicit_partial_metadata() {
    let (corpus, woc) = fixture();
    for seed in fault_seeds() {
        let config = ClusterConfig::default();
        for shard in 0..config.shards {
            let cluster = cluster_over(woc, corpus, config.clone());
            cluster.set_faults(ShardFaultProfile::shard_blackout(shard), seed);
            for (q, k) in search_pool() {
                let ans = cluster.search(q, k);
                let Coverage::Partial { missing } = &ans.coverage else {
                    panic!("[{seed}/{shard}] a blacked-out shard cannot report complete");
                };
                assert_eq!(missing, &vec![shard], "missing set names the shard");
                assert_partial_contract(
                    &cluster,
                    &ans.results,
                    missing,
                    woc,
                    q,
                    k,
                    &format!("blackout {shard} seed {seed} {q:?}"),
                );
            }
            assert!(cluster.stats().partial_answers > 0);
            // Lookups route: records on the dead shard answer partial,
            // records elsewhere stay complete and correct.
            let pm = cluster.partition();
            let mut on_dead = None;
            let mut elsewhere = None;
            for id in woc.store.live_ids() {
                match pm.shard_of_record(id) {
                    Some(s) if s == shard && on_dead.is_none() => on_dead = Some(id),
                    Some(s) if s != shard && elsewhere.is_none() => elsewhere = Some(id),
                    _ => {}
                }
                if on_dead.is_some() && elsewhere.is_some() {
                    break;
                }
            }
            if let Some(id) = on_dead {
                let ans = cluster.lookup(id);
                assert_eq!(
                    ans.coverage,
                    Coverage::Partial {
                        missing: vec![shard]
                    }
                );
                assert!(ans.result.is_none(), "no silently served stale record");
            }
            if let Some(id) = elsewhere {
                let ans = cluster.lookup(id);
                assert!(ans.coverage.is_complete());
                assert_eq!(
                    format!("{:?}", ans.result),
                    format!("{:?}", woc_cluster::lookup_reference(woc, id))
                );
            }
        }
    }
}

/// Flapping replicas: whatever each availability window does, every answer
/// is either complete and byte-identical, or explicitly partial and
/// prefix-correct. The virtual clock is advanced across windows so the
/// flap pattern actually changes under the workload.
#[test]
fn flapping_replicas_never_tear_an_answer() {
    let (corpus, woc) = fixture();
    for seed in fault_seeds() {
        let cluster = cluster_over(woc, corpus, ClusterConfig::default());
        cluster.set_faults(ShardFaultProfile::flappy(0.4), seed);
        let mut complete = 0usize;
        for round in 0..6 {
            for (q, k) in search_pool() {
                let ans = cluster.search(q, k);
                match &ans.coverage {
                    Coverage::Complete => {
                        complete += 1;
                        assert_identical(
                            &ans.results,
                            &reference_search(woc, q, k),
                            &format!("flappy seed {seed} round {round} {q:?}"),
                        );
                    }
                    Coverage::Partial { missing } => {
                        assert!(!missing.is_empty());
                        assert_partial_contract(
                            &cluster,
                            &ans.results,
                            missing,
                            woc,
                            q,
                            k,
                            &format!("flappy seed {seed} round {round} {q:?}"),
                        );
                    }
                }
            }
            // Cross into a different availability window.
            cluster.advance_clock(61_000);
        }
        assert!(
            complete > 0,
            "[{seed}] a 40% flap rate with two replicas must still complete sometimes"
        );
    }
}

/// Brownout: slow replicas fire hedged requests, and hedging never changes
/// an answer byte — it only changes latency.
#[test]
fn brownout_fires_hedges_without_changing_answers() {
    let (corpus, woc) = fixture();
    for seed in fault_seeds() {
        let cluster = cluster_over(woc, corpus, ClusterConfig::default());
        cluster.set_faults(ShardFaultProfile::slow(0.9, 10_000), seed);
        for (q, k) in search_pool() {
            let ans = cluster.search(q, k);
            assert!(
                ans.coverage.is_complete(),
                "[{seed}] slowness within the timeout must not drop shards"
            );
            assert!(ans.virtual_micros <= cluster.config().timeout_micros);
            assert_identical(
                &ans.results,
                &reference_search(woc, q, k),
                &format!("slow seed {seed} {q:?}"),
            );
        }
        assert!(
            cluster.stats().hedges > 0,
            "[{seed}] a 90% slow rate must trip the hedge threshold"
        );
    }
}

/// Publish while a replica is partitioned away: the replica misses the
/// epoch, the router refuses it as stale once it returns (counted, never
/// served), the W013 audit reports the staleness without failing, and an
/// anti-entropy sync heals it.
#[test]
fn stale_replica_is_refused_until_resynced() {
    let mut world = World::generate(WorldConfig::tiny(701));
    let corpus_cfg = CorpusConfig::tiny(71);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let cluster = ClusterServer::new(&corpus_v1, engine.web().clone(), ClusterConfig::default());

    // Partition one replica away, then publish a churned epoch past it.
    let (shard, replica) = (1usize, 0usize);
    cluster.set_faults(ShardFaultProfile::replica_down(shard, replica), 11);
    let mut seed = 1;
    while churn_restaurants(&mut world, 0.4, Tick(10), seed).is_empty() {
        seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let report = engine.maintain(&corpus_v2).expect("maintain must succeed");
    assert!(!report.short_circuited);
    let epoch = publish_pass(&cluster, &corpus_v2, &engine, &report);
    assert_eq!(epoch, 2);
    assert_eq!(cluster.epoch(), 2);
    let view = cluster.coverage_view();
    assert_eq!(
        view.replicas[shard][replica].0, 1,
        "the partitioned replica must have missed the publish"
    );

    // Partition lifts: the replica is reachable again but one epoch
    // behind. The router must refuse it — and keep every answer on the
    // new epoch — until anti-entropy catches it up.
    cluster.clear_faults();
    let woc_v2 = engine.web();
    for (q, k) in search_pool() {
        let ans = cluster.search(q, k);
        assert!(ans.coverage.is_complete());
        assert_eq!(ans.epoch, 2);
        assert_identical(
            &ans.results,
            &reference_search(woc_v2, q, k),
            &format!("stale {q:?}"),
        );
    }
    assert!(
        cluster.stats().stale_skips > 0,
        "replica rotation must have offered the stale replica"
    );
    assert_audit_clean(&cluster, "stale replica (info, not violation)");

    cluster.sync_replicas();
    let healed = cluster.coverage_view();
    assert_eq!(
        healed.replicas[shard][replica].0, 2,
        "sync heals the straggler"
    );
    let before = cluster.stats().stale_skips;
    for (q, k) in search_pool() {
        let ans = cluster.search(q, k);
        assert!(ans.coverage.is_complete());
        assert_identical(
            &ans.results,
            &reference_search(woc_v2, q, k),
            &format!("healed {q:?}"),
        );
    }
    assert_eq!(
        cluster.stats().stale_skips,
        before,
        "no more stale refusals"
    );
    assert_audit_clean(&cluster, "after resync");
}

/// Republishing an unchanged web re-ships every shard side as the same
/// `Arc` — the per-shard reuse the incremental publish path depends on.
#[test]
fn republish_of_unchanged_web_reuses_every_shard_side() {
    let (corpus, woc) = fixture();
    let cluster = cluster_over(woc, corpus, ClusterConfig::default());
    let records_before: Vec<_> = (0..4).map(|s| cluster.records_side(s)).collect();
    let docs_before: Vec<_> = (0..4).map(|s| cluster.docs_side(s)).collect();

    let segments = Arc::new(woc.segmented_record_index(MergePolicy::default()));
    let epoch = cluster.publish(corpus, woc.clone(), &SegmentDelta::cold(), segments);
    assert_eq!(epoch, 2);
    for s in 0..4 {
        assert!(
            Arc::ptr_eq(&records_before[s], &cluster.records_side(s)),
            "shard {s} record side must be reused, not rebuilt"
        );
        assert!(
            Arc::ptr_eq(&docs_before[s], &cluster.docs_side(s)),
            "shard {s} doc side must be reused, not rebuilt"
        );
    }
    // Replicas serve the new epoch through the reused sides.
    let view = cluster.coverage_view();
    for node in &view.replicas {
        for &(epoch, _) in node {
            assert_eq!(epoch, 2);
        }
    }
    for (q, k) in search_pool() {
        let ans = cluster.search(q, k);
        assert!(ans.coverage.is_complete());
        assert_identical(
            &ans.results,
            &reference_search(woc, q, k),
            &format!("reuse {q:?}"),
        );
    }
    assert_audit_clean(&cluster, "after reuse republish");
}

/// A maintenance pass that changes nothing folds to an empty delta, and an
/// empty delta is a cluster-wide no-op: same epoch, same shard sides, no
/// replica churn.
#[test]
fn empty_delta_publish_is_a_cluster_noop() {
    let world = World::generate(WorldConfig::tiny(702));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(72));
    let mut engine = IncrEngine::new(&corpus, PipelineConfig::default());
    let cluster = ClusterServer::new(&corpus, engine.web().clone(), ClusterConfig::default());
    let side = cluster.records_side(0);

    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert!(report.short_circuited);
    let epoch = publish_pass(&cluster, &corpus, &engine, &report);
    assert_eq!(epoch, 1, "no change, no epoch bump");
    assert_eq!(cluster.epoch(), 1);
    assert_eq!(cluster.full().epoch(), 1);
    assert!(Arc::ptr_eq(&side, &cluster.records_side(0)));
}

/// Incremental maintenance drives the cluster across epochs: churn,
/// maintain, delta-publish — and the new epoch serves byte-identically to
/// a single-node view of the maintained web, audit-clean.
#[test]
fn incremental_epochs_serve_byte_identically_through_the_cluster() {
    let mut world = World::generate(WorldConfig::tiny(703));
    let corpus_cfg = CorpusConfig::tiny(73);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let cluster = ClusterServer::new(&corpus_v1, engine.web().clone(), ClusterConfig::default());

    let mut expected_epoch = 1;
    for (round, rate) in [(1u64, 0.3f64), (2, 0.6)] {
        let mut seed = round * 100;
        while churn_restaurants(&mut world, rate, Tick(10 * round), seed).is_empty() {
            seed += 1;
        }
        let corpus_next = generate_corpus(&world, &corpus_cfg);
        let report = engine
            .maintain(&corpus_next)
            .expect("maintain must succeed");
        let epoch = publish_pass(&cluster, &corpus_next, &engine, &report);
        if !report.short_circuited && report.effective_change {
            expected_epoch += 1;
        }
        assert_eq!(epoch, expected_epoch);

        let woc = engine.web();
        for (q, k) in search_pool() {
            let ans = cluster.search(q, k);
            assert!(ans.coverage.is_complete());
            assert_eq!(ans.epoch, expected_epoch);
            assert_identical(
                &ans.results,
                &reference_search(woc, q, k),
                &format!("epoch {epoch} {q:?}"),
            );
        }
        for (q, k) in doc_pool() {
            let ans = cluster.doc_search(q, k);
            assert!(ans.coverage.is_complete());
            assert_eq!(
                format!("{:?}", ans.results),
                format!("{:?}", reference_doc_search(woc, q, k))
            );
        }
        assert_audit_clean(&cluster, &format!("incremental epoch {epoch}"));
    }
    assert!(expected_epoch > 1, "churn rounds must have published");
}

/// The segmented delta path through the cluster: a low-churn maintenance
/// pass ships only the engine's delta segments — the frozen base segment
/// is the same allocation on the engine and the router's full server, and
/// only the shards owning changed records rebuild their record side
/// (unchanged shards re-ship their old `Arc`, because the pinned scoring
/// statistics are stable across delta epochs). Scatter-gather answers at
/// the new epoch stay byte-identical to the single-node reference.
#[test]
fn segmented_delta_publish_rebuilds_only_changed_shards() {
    let mut world = World::generate(WorldConfig::tiny(704));
    let corpus_cfg = CorpusConfig::tiny(74);
    let corpus_v1 = generate_corpus(&world, &corpus_cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    let cluster = ClusterServer::new(&corpus_v1, engine.web().clone(), ClusterConfig::default());
    let shards = cluster.config().shards;
    let records_before: Vec<_> = (0..shards).map(|s| cluster.records_side(s)).collect();
    let pm_before = cluster.partition();

    // Low churn so most shards own no changed record.
    let mut seed = 1u64;
    while churn_restaurants(&mut world, 0.02, Tick(10), seed).is_empty() {
        seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &corpus_cfg);
    let report = engine.maintain(&corpus_v2).expect("maintain must succeed");
    assert!(!report.short_circuited);
    assert!(report.effective_change);
    assert!(
        !report.delta.stats_repinned,
        "low churn must ride on the pinned statistics"
    );
    assert!(!report.delta.changed_records.is_empty());

    let epoch = publish_pass(&cluster, &corpus_v2, &engine, &report);
    assert_eq!(epoch, 2);
    assert_eq!(cluster.epoch(), 2);

    // The router's full server serves the engine's exact segments: the
    // frozen base was shipped by reference, with the churn as deltas.
    let snap = cluster.full().snapshot();
    assert!(Arc::ptr_eq(
        engine.segments().base_segment(),
        snap.segments.base_segment(),
    ));
    assert!(snap.segments.delta_count() > 0, "the pass shipped a delta");

    // Exactly the shards owning a changed record rebuilt their record
    // side; every other shard re-shipped its old `Arc`.
    let pm = cluster.partition();
    let mut changed_shards: Vec<bool> = vec![false; shards];
    for &id in &report.delta.changed_records {
        // A changed record dirties its owner in the new map; a deleted
        // record dirties the shard that owned it in the old map.
        for m in [&pm, &pm_before] {
            if let Some(s) = m.shard_of_record(id) {
                changed_shards[s] = true;
            }
        }
    }
    let mut rebuilt = 0usize;
    for (s, changed) in changed_shards.iter().enumerate() {
        let reused = Arc::ptr_eq(&records_before[s], &cluster.records_side(s));
        assert_eq!(
            reused, !changed,
            "shard {s}: reused={reused} but owns-changed-record={changed}"
        );
        if !reused {
            rebuilt += 1;
        }
    }
    assert!(rebuilt >= 1, "churn must have rebuilt some shard");
    assert!(
        rebuilt < shards,
        "low churn must leave some shard untouched ({rebuilt}/{shards} rebuilt)"
    );

    // Mid-delta (between merge points), scatter-gather answers stay
    // byte-identical to the single-node reference over the maintained web.
    let woc = engine.web();
    for (q, k) in search_pool() {
        let ans = cluster.search(q, k);
        assert!(ans.coverage.is_complete());
        assert_eq!(ans.epoch, 2);
        assert_identical(
            &ans.results,
            &reference_search(woc, q, k),
            &format!("segmented {q:?}"),
        );
    }
    assert_audit_clean(&cluster, "after segmented delta publish");
}
