//! Experiment S6: maintenance under change (paper §7.3).
//!
//! * incremental re-extraction cost vs full rebuild across world-churn rates;
//! * correctness: churned values land on existing records;
//! * lineage-guided error attribution.
//!
//! Every pass runs on `IncrEngine`, so each maintained web equals a fresh
//! build of its crawl.
//!
//! Run: `cargo run -p woc-bench --bin maintenance_eval --release`

use woc_bench::{header, metric_row, pct};
use woc_core::{PipelineConfig, WebOfConcepts};
use woc_incr::IncrEngine;
use woc_lrec::{AttrValue, LrecId, Tick};
use woc_webgen::{churn_restaurants, generate_corpus, CorpusConfig, World, WorldConfig};

/// The live restaurant served under `name`, with its phone numbers.
fn restaurant_named(woc: &WebOfConcepts, name: &str) -> Option<(LrecId, Vec<String>)> {
    woc.records_of(woc.concepts.restaurant)
        .into_iter()
        .find(|r| r.best_string("name").unwrap_or_default().contains(name))
        .map(|r| {
            let phones = r
                .get("phone")
                .iter()
                .filter_map(|e| match &e.value {
                    AttrValue::Phone(p) => Some(p.clone()),
                    _ => None,
                })
                .collect();
            (r.id(), phones)
        })
}

fn main() {
    header("S6a Incremental maintenance vs full rebuild across churn rates");
    println!(
        "  {:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
        "churn", "events", "reextracted", "cost ratio", "changed", "tombstoned"
    );
    for &rate in &[0.0, 0.05, 0.1, 0.25, 0.5, 1.0] {
        let cfg = CorpusConfig::default();
        let mut world = World::generate(WorldConfig::default());
        let corpus_v1 = generate_corpus(&world, &cfg);
        let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
        let events = churn_restaurants(&mut world, rate, Tick(10), 1234);
        let corpus_v2 = generate_corpus(&world, &cfg);
        let report = engine.maintain(&corpus_v2).expect("maintenance pass");
        println!(
            "  {:>6} {:>8} {:>12} {:>12} {:>10} {:>10}",
            pct(rate),
            events.len(),
            format!("{}/{}", report.pages_reextracted, report.pages_scanned),
            pct(report.pages_reextracted as f64 / report.pages_scanned as f64),
            report.delta.changed_records.len(),
            report.records_tombstoned
        );
    }
    println!("  (expected shape: cost scales with churn, staying far below 100%");
    println!("   at realistic rates — a full rebuild always re-extracts every page)");

    header("S6b Churned values land on existing records (no duplication)");
    let cfg = CorpusConfig::default();
    let mut world = World::generate(WorldConfig::default());
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    println!("{}", engine.web().report);
    let before = engine.shared_web();
    let events = churn_restaurants(&mut world, 0.3, Tick(10), 77);
    let corpus_v2 = generate_corpus(&world, &cfg);
    let report = engine.maintain(&corpus_v2).expect("maintenance pass");
    let woc = engine.web();
    let phone_changes: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            woc_webgen::ChurnEvent::PhoneChanged(id, p) => Some((world.attr(*id, "name"), p)),
            _ => None,
        })
        .collect();
    let landed = phone_changes
        .iter()
        .filter(|(name, new_phone)| {
            restaurant_named(woc, name).is_some_and(|(_, phones)| phones.contains(new_phone))
        })
        .count();
    metric_row("phone changes in world", phone_changes.len());
    metric_row("changes reflected in records", landed);
    metric_row("records changed", report.delta.changed_records.len());
    metric_row(
        "live records before → after",
        format!("{} → {}", before.store.live_count(), woc.store.live_count()),
    );

    header("S6b2 Corpus quality report after maintenance (§7.3 dashboard)");
    let q = woc_core::assess(woc);
    print!("{}", q.render());
    metric_row("overall quality", format!("{:.3}", q.overall_quality()));

    header("S6c Lineage-guided error attribution");
    // Flag records that violate their schema as "bad" and ask lineage which
    // operator is the common upstream suspect.
    let mut bad = Vec::new();
    for id in woc.store.live_ids() {
        let rec = woc.store.latest(id).unwrap();
        if let Some(schema) = woc.registry.schema(rec.concept()) {
            if !schema.check(rec).is_empty() {
                bad.push(id);
            }
        }
    }
    metric_row("records with schema violations", bad.len());
    for (op, count) in woc.lineage.attribute_error(&bad).into_iter().take(5) {
        metric_row(&format!("  suspect operator {op}"), count);
    }

    header("S6d Time travel — the previous epoch beside the current one");
    if let Some((name, _)) = phone_changes.first() {
        let show = |found: Option<(LrecId, Vec<String>)>| match found {
            Some((id, phones)) => format!("{id} {}", phones.join(", ")),
            None => "-".into(),
        };
        metric_row("record", name);
        metric_row("previous epoch", show(restaurant_named(&before, name)));
        metric_row("current epoch", show(restaurant_named(woc, name)));
    }
}
