//! Maintenance scenario (paper §7.3): the world changes — restaurants close,
//! phone numbers change — and the web of concepts tracks it incrementally:
//! each maintained epoch equals a fresh build of its crawl, the previous
//! epoch stays readable while it is held, and lineage explains the values.
//!
//! Run: `cargo run --example living_web --release`

use web_of_concepts::prelude::*;
use web_of_concepts::webgen::{churn_restaurants, ChurnEvent};

fn main() {
    let cfg = CorpusConfig::default();
    let mut world = World::generate(WorldConfig::default());
    let corpus_v1 = generate_corpus(&world, &cfg);
    let mut engine = IncrEngine::new(&corpus_v1, PipelineConfig::default());
    println!(
        "Initial build: {} pages → {} canonical records",
        corpus_v1.len(),
        engine.web().store.live_count()
    );

    // --- The world moves on -------------------------------------------------
    let events = churn_restaurants(&mut world, 0.25, Tick(10), 2026);
    println!("\nWorld churn: {} events", events.len());
    for e in events.iter().take(5) {
        match e {
            ChurnEvent::PhoneChanged(id, p) => {
                println!("  {} changed phone to {p}", world.attr(*id, "name"))
            }
            ChurnEvent::HoursChanged(id, h) => {
                println!("  {} changed hours to {h}", world.attr(*id, "name"))
            }
            ChurnEvent::Closed(id) => println!("  {} closed", world.attr(*id, "name")),
        }
    }

    // --- Incremental maintenance --------------------------------------------
    // The previous epoch stays readable for as long as we hold it.
    let before = engine.shared_web();
    let corpus_v2 = generate_corpus(&world, &cfg);
    let report = engine.maintain(&corpus_v2).expect("maintenance pass");
    println!(
        "\nMaintenance: {}/{} pages re-extracted ({:.1}% of a full rebuild), \
         {} records changed, {} tombstoned",
        report.pages_reextracted,
        report.pages_scanned,
        100.0 * report.pages_reextracted as f64 / report.pages_scanned as f64,
        report.delta.changed_records.len(),
        report.records_tombstoned
    );

    // --- Time travel on one changed record ----------------------------------
    if let Some(ChurnEvent::PhoneChanged(world_id, new_phone)) = events
        .iter()
        .find(|e| matches!(e, ChurnEvent::PhoneChanged(..)))
    {
        let name = world.attr(*world_id, "name");
        let named = |woc: &WebOfConcepts| {
            woc.records_of(woc.concepts.restaurant)
                .into_iter()
                .find(|r| r.best_string("name").unwrap_or_default().contains(&name))
                .map(|r| (r.id(), r.best_string("phone")))
        };
        let now = engine.web();
        if let Some((id, phone)) = named(now) {
            println!("\nRecord {id} ({name}):");
            println!(
                "  phone in the previous epoch: {}",
                named(&before)
                    .and_then(|(_, p)| p)
                    .unwrap_or_else(|| "-".into())
            );
            println!(
                "  phone now:                   {}",
                phone.unwrap_or_else(|| "-".into())
            );
            println!("  (world changed it to {new_phone})");
            println!("\n  why do we believe the current values?");
            for line in now.lineage.explain(id).iter().take(6) {
                println!("    · {line}");
            }
        }
    }
}
