//! Each integrity check must (a) pass on a freshly built synthetic web and
//! (b) fire — with the right diagnostic code — on a web hand-corrupted to
//! break exactly that invariant.

use std::sync::OnceLock;

use woc_audit::{audit, Audit, AuditConfig};
use woc_core::{AssocKind, NodeId, WebOfConcepts};
use woc_lrec::{AttrValue, Cardinality, ConceptId, LrecId, Provenance, SourceRef, Tick};
use woc_webgen::page::url_host;
use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

/// One tiny deterministic build, cloned per test (`WebOfConcepts: Clone`).
fn fresh_web() -> WebOfConcepts {
    static BASE: OnceLock<WebOfConcepts> = OnceLock::new();
    BASE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(7));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
        woc_core::build(&corpus, &woc_core::PipelineConfig::default())
    })
    .clone()
}

fn run(woc: &WebOfConcepts) -> Audit {
    // Sample every record in the round-trip check so corruptions anywhere
    // in the store are visible to W007.
    let cfg = AuditConfig {
        roundtrip_sample: usize::MAX,
        // Uncapped diagnostics: the assertions below look for specific
        // needles that must not be crowded out by earlier violations.
        max_details: usize::MAX,
        ..AuditConfig::default()
    };
    audit(woc, &cfg)
}

/// The check with `code` fired, and its first detail mentions `needle`.
fn assert_fired(report: &Audit, code: &str, needle: &str) {
    let check = report
        .check(code)
        .unwrap_or_else(|| panic!("no check {code}"));
    assert!(
        check.violations > 0,
        "{code} should have fired:\n{}",
        report.render()
    );
    assert!(
        check.details.iter().any(|d| d.contains(needle)),
        "{code} details should mention {needle:?}, got: {:?}",
        check.details
    );
    assert!(
        !report.passed(),
        "corrupted web must fail the audit overall"
    );
}

fn next_tick(woc: &WebOfConcepts) -> Tick {
    Tick(woc.store.max_tick().0 + 1)
}

fn a_live_id(woc: &WebOfConcepts) -> LrecId {
    *woc.store
        .live_ids()
        .first()
        .expect("tiny fixture has live records")
}

#[test]
fn clean_build_passes_every_check() {
    let woc = fresh_web();
    let report = run(&woc);
    assert!(
        report.passed(),
        "clean build must audit clean:\n{}",
        report.render()
    );
    assert_eq!(report.checks.len(), 13);
    assert!(report.live_records > 0 && report.associations > 0);
    assert!((report.conformance_rate - 1.0).abs() < 1e-9);
}

#[test]
fn w001_association_to_unknown_record() {
    let mut woc = fresh_web();
    let bogus = LrecId(u64::MAX);
    woc.web
        .associate(bogus, "http://nowhere.test/ghost", AssocKind::Mentions);
    assert_fired(&run(&woc), "W001", "unknown record");
}

#[test]
fn w003_ref_to_nonexistent_record() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    let tick = next_tick(&woc);
    woc.store
        .update(id, tick, |rec| {
            rec.add(
                "see_also",
                AttrValue::Ref(LrecId(999_999_999)),
                Provenance::derived("corruptor", 0.9, tick),
            );
        })
        .expect("update succeeds on a live record");
    assert_fired(&run(&woc), "W003", "does not resolve");
}

#[test]
fn w004_record_with_unregistered_concept() {
    let mut woc = fresh_web();
    let tick = next_tick(&woc);
    let id = woc.store.insert(ConceptId(u32::MAX), tick, |rec| {
        rec.add(
            "name",
            AttrValue::Text("orphan".into()),
            Provenance::derived("corruptor", 0.9, tick),
        );
    });
    // Keep the lineage/index checks out of the blast radius: this test is
    // about the schema gap, not the missing postings.
    let producer = woc.lineage.operator("corruptor", vec![]);
    woc.lineage.record(id, producer);
    woc.record_index
        .add(woc.store.latest(id).expect("just inserted"));
    assert_fired(&run(&woc), "W004", "no registered schema");
}

#[test]
fn w004_conformance_rate_gates_at_threshold_one() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    let schema = woc
        .registry
        .schema(woc.store.latest(id).expect("live").concept())
        .expect("live records have schemas");
    // A One-cardinality attribute to overrun.
    let attr = schema
        .attrs()
        .find(|s| s.cardinality == Cardinality::One)
        .expect("fixture schemas declare One-cardinality attrs")
        .key
        .clone();
    let tick = next_tick(&woc);
    woc.store
        .update(id, tick, |rec| {
            for i in 0..4 {
                rec.add(
                    &attr,
                    AttrValue::Text(format!("alt-{i}")),
                    Provenance::derived("corruptor", 0.1, tick),
                );
            }
        })
        .expect("update succeeds");
    let cfg = AuditConfig {
        conformance_threshold: 1.0,
        ..AuditConfig::default()
    };
    let report = audit(&woc, &cfg);
    assert_fired(&report, "W004", "below threshold");
    assert!(report.conformance_rate < 1.0);
}

#[test]
fn w005_alternatives_with_excess_probability_mass() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    let schema = woc
        .registry
        .schema(woc.store.latest(id).expect("live").concept())
        .expect("live records have schemas");
    let attr = schema
        .attrs()
        .find(|s| s.cardinality == Cardinality::One)
        .expect("fixture schemas declare One-cardinality attrs")
        .key
        .clone();
    let tick = next_tick(&woc);
    woc.store
        .update(id, tick, |rec| {
            rec.remove(&attr);
            // Two mutually exclusive alternatives, each claimed near-certain:
            // total mass 1.85 — an impossible distribution.
            rec.add(
                &attr,
                AttrValue::Text("alternative alpha".into()),
                Provenance::derived("extractor-a", 0.95, tick),
            );
            rec.add(
                &attr,
                AttrValue::Text("alternative beta".into()),
                Provenance::derived("extractor-b", 0.9, tick),
            );
        })
        .expect("update succeeds");
    assert_fired(&run(&woc), "W005", "total mass");
}

#[test]
fn w005_confidence_outside_unit_interval() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    let tick = next_tick(&woc);
    woc.store
        .update(id, tick, |rec| {
            // The constructors clamp confidence into [0,1]; corrupt data
            // arrives through the public fields (e.g. a bad deserialization).
            rec.add(
                "suspicious",
                AttrValue::Text("overconfident".into()),
                Provenance {
                    source: SourceRef::Derived("corruptor".into()),
                    operator: "corruptor".into(),
                    confidence: 1.5,
                    observed_at: tick,
                    support: vec![],
                },
            );
        })
        .expect("update succeeds");
    assert_fired(&run(&woc), "W005", "outside [0,1]");
}

#[test]
fn w006_live_record_missing_from_index() {
    let mut woc = fresh_web();
    let concept = woc.store.latest(a_live_id(&woc)).expect("live").concept();
    let tick = next_tick(&woc);
    // Created in the store but never handed to the record index.
    let id = woc.store.create(concept, tick);
    let producer = woc.lineage.operator("corruptor", vec![]);
    woc.lineage.record(id, producer);
    let report = run(&woc);
    assert_fired(&report, "W006", &format!("{id}"));
    assert_fired(&report, "W006", "missing from the record index");
}

#[test]
fn w006_stale_index_entry_for_retracted_record() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    // Retract in the store without removing the postings.
    woc.store
        .retract(id)
        .expect("retract succeeds on a live record");
    assert_fired(&run(&woc), "W006", "stale index entry");
}

#[test]
fn w007_index_roundtrip_catches_unreindexed_update() {
    let mut woc = fresh_web();
    let id = a_live_id(&woc);
    let rec = woc.store.latest(id).expect("live");
    let attr = rec
        .iter()
        .find(|(_, entries)| {
            entries
                .iter()
                .any(|e| !matches!(e.value, AttrValue::Ref(_)))
        })
        .map(|(a, _)| a.to_string())
        .expect("live records carry text attrs");
    let tick = next_tick(&woc);
    // Rewrite the value in the store; the index still holds the old tokens,
    // so a scoped query built from the stored value comes up empty.
    woc.store
        .update(id, tick, |rec| {
            rec.remove(&attr);
            rec.add(
                &attr,
                AttrValue::Text("zzyxq never indexed".into()),
                Provenance::derived("corruptor", 0.9, tick),
            );
        })
        .expect("update succeeds");
    assert_fired(&run(&woc), "W007", "not retrieved");
}

#[test]
fn w008_lineage_forward_edge() {
    let mut woc = fresh_web();
    // The in-memory API enforces acyclicity at construction, so smuggle the
    // forward edge in the way real corruption would arrive: through a
    // serialized DAG whose bytes were damaged before deserialization.
    let dag = serde_json::to_string(&woc.lineage).expect("lineage serializes");
    let future = NodeId(woc.lineage.len() as u32 + 10);
    // First `"inputs":[]` in the stream belongs to the first source node.
    let corrupted = dag.replacen("\"inputs\":[]", &format!("\"inputs\":[{}]", future.0), 1);
    assert_ne!(dag, corrupted, "fixture lineage has an input-free node");
    woc.lineage = serde_json::from_str(&corrupted).expect("corrupted lineage deserializes");
    assert_fired(&run(&woc), "W008", "does not precede");
}

#[test]
fn w008_live_record_without_lineage() {
    let mut woc = fresh_web();
    let concept = woc.store.latest(a_live_id(&woc)).expect("live").concept();
    let tick = next_tick(&woc);
    let id = woc.store.create(concept, tick);
    woc.record_index
        .add(woc.store.latest(id).expect("just created"));
    assert_fired(&run(&woc), "W008", "no lineage node");
}

#[test]
fn w009_reported_counts_cover_every_created_id() {
    // W009 cannot be corrupted through the store's public API (resolution
    // is canonical by construction — that is the point of the check), so
    // assert its coverage instead: every ever-created id is examined,
    // including merge tombstones that no longer appear in live_ids().
    let woc = fresh_web();
    let report = run(&woc);
    let w9 = report.check("W009").expect("W009 present");
    assert_eq!(w9.checked, woc.store.total_created());
    assert!(w9.checked > report.live_records, "merges leave tombstones");
    assert!(w9.passed());
}

#[test]
fn w010_truncated_url_table() {
    let mut woc = fresh_web();
    woc.doc_urls.pop().expect("fixture has documents");
    assert_fired(&run(&woc), "W010", "doc_urls");
}

#[test]
fn w011_association_to_tombstoned_record() {
    let mut woc = fresh_web();
    // A record that the bipartite graph actually points at.
    let id = woc
        .store
        .live_ids()
        .into_iter()
        .find(|&id| !woc.web.docs_of(id).is_empty())
        .expect("fixture has associated records");
    // Retract it in the store but leave its associations and postings —
    // exactly the inconsistency a buggy maintenance pass would produce.
    woc.store.retract(id).expect("retract succeeds");
    let report = run(&woc);
    assert_fired(&report, "W011", "retracted");
    assert_fired(&report, "W011", "association");
}

#[test]
fn w011_posting_for_merged_away_record() {
    let mut woc = fresh_web();
    // Two live records of the same concept, both indexed.
    let concept = woc.store.latest(a_live_id(&woc)).expect("live").concept();
    let ids = woc.store.by_concept(concept);
    assert!(ids.len() >= 2, "fixture has multiple records per concept");
    let (survivor, merged) = (ids[0], ids[1]);
    let tick = next_tick(&woc);
    // Merge in the store without patching the index or the graph: the
    // merged-away id still has postings and associations.
    woc.store
        .merge(survivor, merged, tick)
        .expect("merge succeeds on live records");
    let report = run(&woc);
    assert_fired(&report, "W011", "merged-away");
    assert_fired(&report, "W011", &format!("canonical is {survivor}"));
}

#[test]
fn w012_lineage_quarantine_disagrees_with_report() {
    let mut woc = fresh_web();
    // A quarantine node the pipeline report knows nothing about.
    woc.lineage
        .quarantine("http://flaky.test/page-1", "truncated");
    assert_fired(&run(&woc), "W012", "report accounts for 0");
}

#[test]
fn w012_quarantine_without_reason() {
    let mut woc = fresh_web();
    woc.lineage.quarantine("http://flaky.test/page-2", "");
    woc.report.pages_quarantined = 1;
    assert_fired(&run(&woc), "W012", "no recorded reason");
}

#[test]
fn w012_quarantined_page_still_indexed() {
    let mut woc = fresh_web();
    // Quarantine a page that is demonstrably in the document tables.
    let url = woc.doc_urls[0].clone();
    woc.lineage.quarantine(&url, "garbled");
    woc.report.pages_quarantined = 1;
    assert_fired(&run(&woc), "W012", "present in the document tables");
}

#[test]
fn w012_record_sourced_solely_from_quarantined_pages() {
    let mut woc = fresh_web();
    // Find a live record with extraction provenance and quarantine every
    // page it was extracted from.
    let id = woc
        .store
        .live_ids()
        .into_iter()
        .find(|&id| {
            !woc.web
                .docs_of_kind(id, AssocKind::ExtractedFrom)
                .is_empty()
        })
        .expect("fixture has extracted records");
    let docs: Vec<String> = woc
        .web
        .docs_of_kind(id, AssocKind::ExtractedFrom)
        .iter()
        .map(|d| d.to_string())
        .collect();
    for d in &docs {
        woc.lineage.quarantine(d, "site-unavailable");
    }
    woc.report.pages_failed = docs.len();
    assert_fired(&run(&woc), "W012", "solely from quarantined pages");
}

#[test]
fn json_report_is_serializable_and_stable() {
    let woc = fresh_web();
    let report = run(&woc);
    let json = serde_json::to_string(&report).expect("report serializes");
    for code in ["W001", "W004", "W007", "W010"] {
        assert!(json.contains(code), "JSON report should carry {code}");
    }
}

// ---------------------------------------------------------------- W013

/// A well-formed single-shard coverage view for the fixture web: every
/// live record and document owned by shard 0, two byte-identical replicas
/// at the expected epoch.
fn clean_view(woc: &WebOfConcepts) -> woc_audit::ShardCoverageView {
    woc_audit::ShardCoverageView {
        shards: 1,
        record_owners: woc.store.live_ids().into_iter().map(|id| (id, 0)).collect(),
        doc_owners: woc.doc_urls.iter().map(|u| (u.clone(), 0)).collect(),
        expected_epoch: 1,
        replicas: vec![vec![(1, 0xabcd), (1, 0xabcd)]],
    }
}

fn run_cluster(woc: &WebOfConcepts, view: &woc_audit::ShardCoverageView) -> Audit {
    let cfg = AuditConfig::default();
    let mut a = woc_audit::audit(woc, &cfg);
    a.checks
        .push(woc_audit::check_shard_coverage(woc, view, &cfg));
    a
}

#[test]
fn w013_passes_on_clean_coverage() {
    let woc = fresh_web();
    let report = run_cluster(&woc, &clean_view(&woc));
    assert!(
        report.passed(),
        "clean view must pass:\n{}",
        report.render()
    );
    assert!(report.check("W013").is_some());
}

#[test]
fn w013_uncovered_record_fires() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    view.record_owners.pop();
    assert_fired(&run_cluster(&woc, &view), "W013", "owned by no shard");
}

#[test]
fn w013_double_owned_record_fires() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    let dup = view.record_owners[0];
    view.record_owners.push(dup);
    assert_fired(&run_cluster(&woc, &view), "W013", "owned by 2 shards");
}

#[test]
fn w013_out_of_range_owner_fires() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    view.record_owners[0].1 = 7;
    assert_fired(&run_cluster(&woc, &view), "W013", "out of range");
}

#[test]
fn w013_uncovered_document_fires() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    view.doc_owners.pop();
    assert_fired(&run_cluster(&woc, &view), "W013", "owned by no shard");
}

#[test]
fn w013_divergent_replicas_fire() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    view.replicas[0][1] = (1, 0xbeef);
    assert_fired(&run_cluster(&woc, &view), "W013", "diverge");
}

// ---------------------------------------------------------------- W014

/// A clean segmented index over the fixture web — one frozen base segment,
/// pinned stats taken at build, i.e. a merge point.
fn fresh_segments(woc: &WebOfConcepts) -> woc_index::SegmentedLrecIndex {
    woc.segmented_record_index(woc_index::MergePolicy::default())
}

fn run_segments(woc: &WebOfConcepts, segments: &woc_index::SegmentedLrecIndex) -> Audit {
    let cfg = AuditConfig::default();
    let mut a = woc_audit::audit(woc, &cfg);
    a.checks
        .push(woc_audit::check_segments(woc, segments, &cfg));
    a
}

#[test]
fn w014_passes_on_clean_segments() {
    let woc = fresh_web();
    let segments = fresh_segments(&woc);
    assert_eq!(segments.delta_count(), 0, "a fresh build is a merge point");
    let report = run_segments(&woc, &segments);
    assert!(
        report.passed(),
        "clean segments must pass:\n{}",
        report.render()
    );
    let check = report.check("W014").expect("W014 present");
    assert!(check.checked > 0);
}

#[test]
fn w014_passes_mid_delta_and_reports_stale_pins() {
    // A real maintenance round: the engine patches the flat index and the
    // segments in lock-step, so W014 must hold mid-delta — with the pinned
    // stats reported (not gated) while delta segments are stacked.
    use woc_webgen::{churn_restaurants, World as WgWorld};
    let mut world = WgWorld::generate(WorldConfig::tiny(14));
    let cfg = CorpusConfig::tiny(14);
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = woc_incr::IncrEngine::new(&corpus_v1, woc_core::PipelineConfig::default());
    let mut seed = 1u64;
    while churn_restaurants(&mut world, 0.05, Tick(10), seed).is_empty() {
        seed += 1;
    }
    let corpus_v2 = generate_corpus(&world, &cfg);
    let report = engine.maintain(&corpus_v2).expect("maintain succeeds");
    assert!(!report.short_circuited);
    assert!(engine.segments().delta_count() > 0, "churn stacked a delta");
    let audit_report = run_segments(engine.web(), engine.segments());
    assert!(
        audit_report.passed(),
        "mid-delta segments must audit clean:\n{}",
        audit_report.render()
    );
    let check = audit_report.check("W014").expect("W014 present");
    assert!(
        check.info.iter().any(|i| i.contains("stale")),
        "stale pinned stats must be reported: {:?}",
        check.info
    );
}

#[test]
fn w014_record_dropped_from_liveness_map_fires() {
    let woc = fresh_web();
    let mut segments = fresh_segments(&woc);
    let id = a_live_id(&woc);
    segments.corrupt_set_owner(id, None);
    let report = run_segments(&woc, &segments);
    assert_fired(&report, "W014", "absent from the liveness map");
}

#[test]
fn w014_owner_pointing_at_wrong_segment_fires() {
    let woc = fresh_web();
    let mut segments = fresh_segments(&woc);
    let id = a_live_id(&woc);
    segments.corrupt_set_owner(id, Some(5));
    assert_fired(&run_segments(&woc, &segments), "W014", "dead sets serve it");
}

#[test]
fn w014_live_record_marked_dead_in_its_segment_fires() {
    let woc = fresh_web();
    let mut segments = fresh_segments(&woc);
    let id = a_live_id(&woc);
    let owner = segments.owner_of(id).expect("live record has an owner");
    segments.corrupt_set_dead(owner, id, true);
    assert_fired(
        &run_segments(&woc, &segments),
        "W014",
        "every segment posting is dead",
    );
}

#[test]
fn w014_corrupt_pinned_stats_fire_at_a_merge_point() {
    let woc = fresh_web();
    let mut segments = fresh_segments(&woc);
    assert_eq!(segments.delta_count(), 0);
    segments.corrupt_pinned_stats(woc_index::LrecIndex::new().scoring_stats());
    assert_fired(&run_segments(&woc, &segments), "W014", "merge point");
}

#[test]
fn w013_all_replicas_stale_fires_but_one_stale_is_info() {
    let woc = fresh_web();
    let mut view = clean_view(&woc);
    // One stale replica: degraded, reported, not a violation.
    view.replicas[0][1] = (0, 0x1111);
    let report = run_cluster(&woc, &view);
    assert!(report.passed(), "{}", report.render());
    let check = report.check("W013").expect("W013 present");
    assert!(check.info.iter().any(|i| i.contains("stale")));
    // Every replica stale: the shard is uncovered at the expected epoch.
    view.replicas[0][0] = (0, 0x1111);
    assert_fired(&run_cluster(&woc, &view), "W013", "all stale or dead");
}

// ---- W016: source reliability -----------------------------------------

#[test]
fn w016_tampered_trust_score_fires() {
    let mut woc = fresh_web();
    let site = woc
        .trust
        .site_trust
        .keys()
        .next()
        .expect("fixture has trusted sites")
        .clone();
    // Nudge one converged score: the fixpoint is deterministic, so any
    // stored score the recomputation cannot reproduce is tampering.
    *woc.trust
        .site_trust
        .get_mut(&site)
        .expect("site row exists") += 0.25;
    assert_fired(&run(&woc), "W016", "tampered trust score");
}

#[test]
fn w016_quarantined_sole_source_value_fires() {
    let mut woc = fresh_web();
    // Declare a value-sourcing site quarantined (consistently, in both the
    // model and lineage) without running the scrub: every live value it
    // sourced now rests solely on a quarantined-trust site, and its pages
    // are still in the document tables.
    let id = a_live_id(&woc);
    let host = woc
        .store
        .latest(id)
        .expect("live")
        .iter()
        .flat_map(|(_, entries)| entries)
        .find_map(|e| e.provenance.document_url())
        .map(|u| url_host(u).to_string())
        .expect("live records carry document-sourced values");
    let reason = "trust 0.10 < 0.50".to_string();
    woc.trust.quarantined.push((host.clone(), reason.clone()));
    woc.lineage.quarantine_site(&host, &reason);
    let report = run(&woc);
    assert_fired(
        &report,
        "W016",
        "sourced solely from quarantined-trust sites",
    );
    // The un-recomputable quarantine decision is itself reported.
    assert_fired(&report, "W016", "quarantine set mismatch");
}

#[test]
fn w016_reliability_ignored_merge_winner_fires() {
    let mut woc = fresh_web();
    assert!(
        !woc.trust.selections.is_empty(),
        "fixture reconciliation logs selections"
    );
    // The selection log claims a winner the record does not actually serve —
    // a reconciler that ignored the reliability weighting would look exactly
    // like this.
    woc.trust.selections[0].value = "value the reconciler never chose".to_string();
    assert_fired(&run(&woc), "W016", "reliability-ignored winner");
}

#[test]
fn w016_selection_supported_only_by_quarantined_sites_fires() {
    let mut woc = fresh_web();
    let sel_site = woc
        .trust
        .selections
        .iter()
        .flat_map(|s| &s.support)
        .map(|s| s.site.clone())
        .next()
        .expect("fixture selections carry site support");
    let reason = "trust 0.10 < 0.50".to_string();
    woc.trust
        .quarantined
        .push((sel_site.clone(), reason.clone()));
    woc.lineage.quarantine_site(&sel_site, &reason);
    assert_fired(&run(&woc), "W016", "supported only by quarantined sites");
}

// ---- W015: stream watermark -------------------------------------------

use woc_audit::{check_stream_epochs, stream_digest, MicroEpochView, PageChangeView};

/// A valid two-micro-epoch journal, watermarks stamped with the same
/// [`stream_digest`] the check recomputes with.
fn stream_journal() -> Vec<MicroEpochView> {
    let first_pages = vec![
        PageChangeView {
            url: "http://a.example.com/1".into(),
            old_fp: None,
            new_fp: Some(0xaaaa),
        },
        PageChangeView {
            url: "http://b.example.com/1".into(),
            old_fp: Some(0x1111),
            new_fp: Some(0x2222),
        },
    ];
    let second_pages = vec![PageChangeView {
        url: "http://b.example.com/1".into(),
        old_fp: Some(0x2222),
        new_fp: None,
    }];
    let d1 = stream_digest(0, &first_pages);
    let d2 = stream_digest(d1, &second_pages);
    vec![
        MicroEpochView {
            ordinal: 0,
            prev_events: 0,
            prev_digest: 0,
            events: 2,
            digest: d1,
            changed_pages: first_pages,
            changed_records: vec![LrecId(3)],
            lineage_affected: vec![LrecId(3), LrecId(4)],
            published_epoch: 2,
            effective: true,
        },
        MicroEpochView {
            ordinal: 1,
            prev_events: 2,
            prev_digest: d1,
            events: 3,
            digest: d2,
            changed_pages: second_pages,
            changed_records: vec![],
            lineage_affected: vec![LrecId(3)],
            published_epoch: 2,
            effective: false,
        },
    ]
}

#[test]
fn w015_watermark_regression_fires() {
    let cfg = AuditConfig::default();
    let clean = check_stream_epochs(&stream_journal(), &cfg);
    assert!(
        clean.passed(),
        "valid journal must pass: {:?}",
        clean.details
    );

    // A replayed (non-advancing) watermark: the second micro-epoch claims
    // the same event count as its predecessor.
    let mut epochs = stream_journal();
    epochs[1].events = epochs[1].prev_events;
    let c = check_stream_epochs(&epochs, &cfg);
    assert!(!c.passed());
    assert!(
        c.details.iter().any(|d| d.contains("strictly advance")),
        "{:?}",
        c.details
    );

    // A watermark whose digest was not computed from its changed pages —
    // the content-defined chain must break.
    let mut epochs = stream_journal();
    epochs[0].digest ^= 1;
    let c = check_stream_epochs(&epochs, &cfg);
    assert!(!c.passed());
    // The tampered digest fails its own recomputation AND unchains the
    // successor's prev watermark.
    assert!(
        c.details.iter().any(|d| d.contains("does not recompute")),
        "{:?}",
        c.details
    );
    assert!(
        c.details.iter().any(|d| d.contains("does not chain")),
        "{:?}",
        c.details
    );
}

#[test]
fn w015_changed_record_outside_lineage_fires() {
    let cfg = AuditConfig::default();

    // A delta claiming to change a record no changed page can explain.
    let mut epochs = stream_journal();
    epochs[0].changed_records.push(LrecId(999));
    let c = check_stream_epochs(&epochs, &cfg);
    assert!(!c.passed());
    assert!(
        c.details
            .iter()
            .any(|d| d.contains("999") && d.contains("not lineage-affected")),
        "{:?}",
        c.details
    );

    // A no-op transition surviving dedup is the same class of inexactness:
    // the journal claims a change the fingerprint plane never saw.
    let mut epochs = stream_journal();
    epochs[1].changed_pages[0].new_fp = epochs[1].changed_pages[0].old_fp;
    epochs[1].digest = stream_digest(epochs[1].prev_digest, &epochs[1].changed_pages);
    let c = check_stream_epochs(&epochs, &cfg);
    assert!(!c.passed());
    assert!(
        c.details
            .iter()
            .any(|d| d.contains("not a real transition")),
        "{:?}",
        c.details
    );
}
