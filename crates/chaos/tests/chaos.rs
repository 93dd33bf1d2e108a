//! The chaos invariant, end to end: under every fault profile, either a
//! clean epoch is published (and `woc-audit` passes on it), or serving
//! stays on the previous epoch with byte-identical answers.
//!
//! Every test is deterministic: faults are rolled from fixed seeds, and
//! delays accumulate on a virtual clock instead of sleeping. Set
//! `WOC_CHAOS_SEED` to sweep an extra seed in CI.

use std::sync::Arc;

use woc_audit::{audit, AuditConfig};
use woc_chaos::{build_resilient, crawl, CrawlOutcome, FaultProfile, RetryPolicy};
use woc_core::{build, PipelineConfig};
use woc_incr::{canonical_bytes, IncrEngine};
use woc_lrec::Tick;
use woc_serve::{ConceptServer, CrawlHealth, MaintainError, Query, SegmentDelta, ServeConfig};
use woc_webgen::{
    churn_restaurants, generate_corpus, AdversarialConfig, CorpusConfig, WebCorpus, World,
    WorldConfig,
};

/// Seeds every profile is exercised at. `WOC_CHAOS_SEED` adds one more.
fn fault_seeds() -> Vec<u64> {
    let mut seeds = vec![11, 17];
    if let Ok(extra) = std::env::var("WOC_CHAOS_SEED") {
        if let Ok(s) = extra.parse() {
            if !seeds.contains(&s) {
                seeds.push(s);
            }
        }
    }
    seeds
}

fn truth_corpus() -> WebCorpus {
    let world = World::generate(WorldConfig::tiny(700));
    generate_corpus(&world, &CorpusConfig::tiny(70))
}

fn fixed_queries() -> Vec<Query> {
    vec![
        Query::Search("pizza".to_string(), 5),
        Query::Search("thai noodles".to_string(), 5),
        Query::ConceptBox("sushi".to_string()),
        Query::Recommend("burger".to_string(), 3),
    ]
}

/// Debug-render a batch of answers: the byte-identity oracle for "serving
/// stays on the previous epoch with byte-identical answers".
fn answer_bytes(server: &ConceptServer, queries: &[Query]) -> String {
    queries
        .iter()
        .map(|q| format!("{:?}\n", server.execute(q).value))
        .collect()
}

fn crawl_health_of(outcome: &CrawlOutcome) -> CrawlHealth {
    CrawlHealth {
        breakers_open: outcome
            .sites
            .iter()
            .filter(|s| s.breaker_state != woc_chaos::BreakerState::Closed)
            .count(),
        breaker_trips: outcome
            .sites
            .iter()
            .map(|s| u64::from(s.breaker_trips))
            .sum(),
        retries: outcome.retries,
    }
}

/// The full invariant, one profile at one seed: crawl, resilient build,
/// audit, publish, then a faulted publish attempt that must leave answers
/// byte-identical, then recovery.
fn drive_profile(truth: &WebCorpus, profile: &FaultProfile, seed: u64) {
    let policy = RetryPolicy::default();
    let config = PipelineConfig::default();
    let outcome = crawl(truth, profile, &policy, seed);

    // Coverage arithmetic: every expected page is delivered, quarantined,
    // or failed — nothing is silently dropped.
    for site in &outcome.sites {
        let c = &site.coverage;
        assert_eq!(
            c.expected,
            c.delivered + c.quarantined + c.failed,
            "[{}/{seed}] site {} leaks pages",
            profile.name,
            c.site
        );
    }
    assert_eq!(
        outcome.corpus.len() + outcome.quarantined.len(),
        truth.len(),
        "[{}/{seed}] outcome must account for every truth page",
        profile.name
    );

    // A clean epoch over the delivered pages: the audit must pass even on
    // a degraded build.
    let woc = build_resilient(&outcome, &config);
    let report = audit(&woc, &AuditConfig::default());
    assert!(
        report.passed(),
        "[{}/{seed}] audit failed on resilient build:\n{report:?}",
        profile.name
    );
    assert_eq!(
        woc.report.pages_quarantined + woc.report.pages_failed,
        outcome.quarantined.len()
    );

    // Publish and pin the answers of the good epoch.
    let server = ConceptServer::new(woc, ServeConfig::default());
    server.set_crawl_health(crawl_health_of(&outcome));
    let queries = fixed_queries();
    let before = answer_bytes(&server, &queries);
    let epoch = server.epoch();

    // A pass that dies before publishing must not perturb serving: same
    // epoch, byte-identical answers, degraded health. It reports itself
    // the way `IncrEngine::maintain_and_publish` does.
    server.record_maintain_failure(&MaintainError::RebuildPanicked(
        "injected publish failure".to_string(),
    ));
    assert_eq!(
        server.epoch(),
        epoch,
        "[{}/{seed}] epoch moved",
        profile.name
    );
    assert_eq!(
        answer_bytes(&server, &queries),
        before,
        "[{}/{seed}] answers changed after failed publish",
        profile.name
    );
    let health = server.health();
    assert!(
        health.degraded,
        "[{}/{seed}] failed publish must degrade health",
        profile.name
    );
    assert_eq!(health.failed_maintains, 1);
    assert!(health
        .last_error
        .is_some_and(|e| e.contains("injected publish failure")));

    // Recovery: a clean publish lands a new epoch and clears the degraded
    // failure streak.
    let woc = server.snapshot().woc.as_ref().clone();
    let segments = Arc::new(woc.segmented_record_index(Default::default()));
    let next = server.publish_delta_segmented(woc, &SegmentDelta::cold(), segments);
    assert_eq!(next, epoch + 1);
    assert_eq!(server.health().consecutive_failures, 0);
}

#[test]
fn chaos_invariant_holds_under_every_profile_and_seed() {
    let truth = truth_corpus();
    for seed in fault_seeds() {
        for profile in FaultProfile::all() {
            drive_profile(&truth, &profile, seed);
        }
    }
}

#[test]
fn fault_free_crawl_is_byte_identical_to_plain_build() {
    let truth = truth_corpus();
    let outcome = crawl(&truth, &FaultProfile::none(), &RetryPolicy::default(), 11);
    assert!(outcome.complete(), "no faults, nothing quarantined");
    assert_eq!(outcome.retries, 0);
    assert_eq!(outcome.damaged_delivered, 0);

    let config = PipelineConfig::default();
    let resilient = build_resilient(&outcome, &config);
    let plain = build(&truth, &config);
    assert_eq!(
        canonical_bytes(&resilient),
        canonical_bytes(&plain),
        "faults disabled must reproduce the plain build byte-for-byte"
    );
}

#[test]
fn crawl_is_deterministic_for_a_fixed_seed() {
    let truth = truth_corpus();
    let policy = RetryPolicy::default();
    for profile in FaultProfile::all() {
        let a = crawl(&truth, &profile, &policy, 11);
        let b = crawl(&truth, &profile, &policy, 11);
        assert_eq!(a.quarantined, b.quarantined, "[{}]", profile.name);
        assert_eq!(a.retries, b.retries, "[{}]", profile.name);
        assert_eq!(a.virtual_micros, b.virtual_micros, "[{}]", profile.name);
        assert_eq!(
            canonical_bytes(&build_resilient(&a, &PipelineConfig::default())),
            canonical_bytes(&build_resilient(&b, &PipelineConfig::default())),
            "[{}]",
            profile.name
        );
    }
}

#[test]
fn different_seeds_reach_different_outcomes_under_heavy_faults() {
    let truth = truth_corpus();
    let policy = RetryPolicy::default();
    let profile = FaultProfile::everything(0.25);
    let outcomes: Vec<CrawlOutcome> = fault_seeds()
        .iter()
        .map(|&s| crawl(&truth, &profile, &policy, s))
        .collect();
    // Seeds must actually vary the fault pattern — otherwise the two-seed
    // CI sweep is testing one seed twice.
    assert!(
        outcomes
            .windows(2)
            .any(|w| w[0].quarantined != w[1].quarantined || w[0].retries != w[1].retries),
        "all seeds produced identical outcomes"
    );
}

#[test]
fn partial_maintenance_patches_unreachable_pages_from_last_good() {
    let mut world = World::generate(WorldConfig::tiny(700));
    let corpus_cfg = CorpusConfig::tiny(70);
    let v1 = generate_corpus(&world, &corpus_cfg);
    let mut seed = 1;
    while churn_restaurants(&mut world, 0.4, Tick(10), seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after a thousand seeds");
    }
    let v2 = generate_corpus(&world, &corpus_cfg);

    let config = PipelineConfig::default();
    let mut engine = IncrEngine::new(&v1, config.clone());
    let policy = RetryPolicy::default();

    // The v2 crawl arrives degraded; patch the holes with last-good copies
    // and maintain over the patched corpus.
    let outcome = crawl(&v2, &FaultProfile::everything(0.2), &policy, 17);
    let patched = outcome.patched_with(&v1);
    assert_eq!(
        patched.len(),
        outcome.corpus.len()
            + outcome
                .quarantined
                .iter()
                .filter(|q| v1.get(&q.url).is_some())
                .count()
    );
    engine
        .maintain(&patched)
        .expect("maintenance over the patched corpus succeeds");

    // The maintained web equals a fresh build of the same patched corpus,
    // and it audits clean.
    let fresh = build(&patched, &config);
    assert_eq!(canonical_bytes(engine.web()), canonical_bytes(&fresh));
    let report = audit(engine.web(), &AuditConfig::default());
    assert!(
        report.passed(),
        "patched maintenance audit failed:\n{report:?}"
    );
}

#[test]
fn trust_and_poison_quarantine_share_one_lineage_story() {
    // Content-level (trust, site-scope) and transport-level (poison,
    // page-scope) quarantine both arrive through
    // `Lineage::quarantine_scoped` and must coexist in one build: an
    // adversarial corpus crawled under transport faults produces both
    // kinds, and W012 (page accounting) plus W016 (site accounting) audit
    // the same lineage cleanly without stepping on each other.
    let world = World::generate(WorldConfig::tiny(700));
    let mut corpus_cfg = CorpusConfig::tiny(70);
    corpus_cfg.adversarial = Some(AdversarialConfig::at_ratio(0.3, 11));
    let truth = generate_corpus(&world, &corpus_cfg);

    let outcome = crawl(
        &truth,
        &FaultProfile::everything(0.15),
        &RetryPolicy::default(),
        17,
    );
    assert!(
        !outcome.quarantined.is_empty(),
        "transport faults must poison some pages"
    );
    let woc = build_resilient(&outcome, &PipelineConfig::default());
    assert!(
        woc.report.sites_distrusted > 0,
        "the reliability model must distrust the spam sites"
    );
    assert!(
        !woc.lineage.quarantined().is_empty() && !woc.lineage.quarantined_sites().is_empty(),
        "both quarantine scopes must be present in one lineage"
    );
    // Page-scope listing never bleeds into site-scope listing or vice versa.
    for (url, _) in woc.lineage.quarantined() {
        assert!(!woc.lineage.is_site_quarantined(url));
    }
    for (site, _) in woc.lineage.quarantined_sites() {
        assert!(!woc.lineage.is_quarantined(site));
    }
    let report = audit(&woc, &AuditConfig::default());
    let w12 = report.check("W012").expect("W012 present");
    let w16 = report.check("W016").expect("W016 present");
    assert!(
        w12.passed() && w16.passed(),
        "both quarantine planes must audit clean:\n{}",
        report.render()
    );
    assert!(report.passed(), "{}", report.render());
}

#[test]
fn quarantine_reasons_are_stable_vocabulary() {
    let truth = truth_corpus();
    let policy = RetryPolicy::default();
    const KNOWN: [&str; 6] = [
        "truncated",
        "garbled",
        "timeout",
        "http-5xx",
        "site-unavailable",
        "circuit-open",
    ];
    for seed in fault_seeds() {
        let outcome = crawl(&truth, &FaultProfile::everything(0.3), &policy, seed);
        for q in &outcome.quarantined {
            assert!(
                KNOWN.contains(&q.reason.as_str()),
                "unknown quarantine reason {:?}",
                q.reason
            );
        }
        // Heavy faults must actually quarantine something, or the reason
        // assertions above are vacuous.
        assert!(
            !outcome.quarantined.is_empty(),
            "everything(0.3) quarantined nothing"
        );
    }
}
