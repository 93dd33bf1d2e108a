//! Structured feed ingestion (paper §2.2 "contractual feeds", §5.1
//! "licensing arrangements with data providers").
//!
//! Not everything must be extracted: providers ship structured records
//! directly. A feed is a JSON array of `{concept, fields}` objects; ingestion
//! types the values, stamps [`woc_lrec::SourceRef::Feed`] provenance, and —
//! crucially — *resolves each feed record against the existing corpus* so a
//! licensed record corroborates (or corrects) extracted ones instead of
//! duplicating them.

use serde::{Deserialize, Serialize};

use woc_lrec::{Lrec, LrecId, Provenance, SourceRef, Tick};
use woc_matching::FellegiSunter;

use crate::graph::AssocKind;
use crate::pipeline::{flat_record_index, scorer_for, type_value, WebOfConcepts};

/// One record in a feed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeedRecord {
    /// Concept name (must be registered, e.g. `restaurant`).
    pub concept: String,
    /// Field values; repeated fields use multiple entries.
    pub fields: Vec<(String, String)>,
}

/// A parsed feed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Feed {
    /// Provider name (lands in provenance).
    pub provider: String,
    /// Provider-asserted confidence for its values.
    pub confidence: f64,
    /// The records.
    pub records: Vec<FeedRecord>,
}

/// Errors from feed parsing/ingestion.
#[derive(Debug)]
pub enum FeedError {
    /// Malformed JSON.
    Malformed(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Malformed(e) => write!(f, "malformed feed: {e}"),
        }
    }
}

impl std::error::Error for FeedError {}

/// Parse a feed from JSON.
pub fn parse_feed(json: &str) -> Result<Feed, FeedError> {
    serde_json::from_str(json).map_err(|e| FeedError::Malformed(e.to_string()))
}

/// Outcome of ingesting one feed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeedReport {
    /// Feed records merged into existing records.
    pub merged: usize,
    /// Feed records that created new records.
    pub created: usize,
    /// Records skipped (unknown concept).
    pub skipped: usize,
}

/// Ingest a feed into a web of concepts. Each feed record is scored against
/// the existing records of its concept with the concept's Fellegi–Sunter
/// model; a confident match merges (feed values corroborate via
/// reconciliation), otherwise a new record is created.
pub fn ingest_feed(woc: &mut WebOfConcepts, feed: &Feed, tick: Tick) -> FeedReport {
    let mut report = FeedReport::default();
    let mut clock = tick.max(woc.store.max_tick());
    let mut next_tick = move || {
        clock = clock.next();
        clock
    };
    let source = format!("feed:{}", feed.provider);
    let doc_node = woc.lineage.document(&source);

    for fr in &feed.records {
        let Some(cid) = woc.registry.id_of(&fr.concept) else {
            report.skipped += 1;
            continue;
        };
        let prov = |t: Tick| Provenance {
            source: SourceRef::Feed(feed.provider.clone()),
            operator: "feed-ingest".to_string(),
            confidence: feed.confidence.clamp(0.0, 1.0),
            observed_at: t,
            support: Vec::new(),
        };
        // Build a staging record for matching.
        let mut staged = Lrec::new(LrecId(u64::MAX), cid);
        for (k, v) in &fr.fields {
            staged.add(k, type_value(k, v), prov(Tick(0)));
        }
        let fs: FellegiSunter = scorer_for(&fr.concept);
        let best: Option<(LrecId, f64)> = woc
            .store
            .by_concept(cid)
            .into_iter()
            .filter_map(|id| woc.store.latest(id).map(|r| (id, fs.score(&staged, r))))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));

        match best {
            Some((target, score)) if score >= fs.upper => {
                let t = next_tick();
                woc.store
                    .update(target, t, |r| {
                        for (k, v) in &fr.fields {
                            let val = type_value(k, v);
                            // Corroborate: append unless the same denotation
                            // is already present from this feed.
                            let dup = r.get(k).iter().any(|e| {
                                e.value.same_denotation(&val)
                                    && matches!(e.provenance.source, SourceRef::Feed(_))
                            });
                            if !dup {
                                r.add(k, val, prov(t));
                            }
                        }
                    })
                    .expect("feed merge update");
                let op = woc.lineage.operator("feed-ingest", vec![doc_node]);
                woc.lineage.record(target, op);
                woc.web.associate(target, &source, AssocKind::ExtractedFrom);
                report.merged += 1;
            }
            _ => {
                let t = next_tick();
                let id = woc.store.insert(cid, t, |r| {
                    for (k, v) in &fr.fields {
                        r.add(k, type_value(k, v), prov(t));
                    }
                });
                let op = woc.lineage.operator("feed-ingest", vec![doc_node]);
                woc.lineage.record(id, op);
                woc.web.associate(id, &source, AssocKind::ExtractedFrom);
                report.created += 1;
            }
        }
    }

    // Feed data changes the corpus: rebuild the record index.
    woc.record_index = flat_record_index(&woc.store);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build, PipelineConfig};
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    fn setup() -> (World, WebOfConcepts) {
        let world = World::generate(WorldConfig::tiny(701));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(51));
        let woc = build(&corpus, &PipelineConfig::default());
        (world, woc)
    }

    fn gochi_feed(world: &World) -> Feed {
        let gochi = world.restaurants[0];
        Feed {
            provider: "licensed-local-data".into(),
            confidence: 0.95,
            records: vec![
                FeedRecord {
                    concept: "restaurant".into(),
                    fields: vec![
                        ("name".into(), world.attr(gochi, "name")),
                        ("city".into(), world.attr(gochi, "city")),
                        ("zip".into(), world.attr(gochi, "zip")),
                        ("phone".into(), world.attr(gochi, "phone")),
                        ("street".into(), world.attr(gochi, "street")),
                    ],
                },
                FeedRecord {
                    concept: "restaurant".into(),
                    fields: vec![
                        ("name".into(), "Brand New Bistro".into()),
                        ("city".into(), "Cupertino".into()),
                        ("zip".into(), "95099".into()),
                        ("phone".into(), "(408) 555-7777".into()),
                    ],
                },
                FeedRecord {
                    concept: "nonexistent".into(),
                    fields: vec![],
                },
            ],
        }
    }

    #[test]
    fn feed_merges_corroborates_and_creates() {
        let (world, mut woc) = setup();
        let before = woc.store.live_count();
        let report = ingest_feed(&mut woc, &gochi_feed(&world), Tick(200));
        assert_eq!(report.merged, 1, "gochi record matched and merged");
        assert_eq!(report.created, 1, "unknown bistro created");
        assert_eq!(report.skipped, 1, "unknown concept skipped");
        assert_eq!(woc.store.live_count(), before + 1);

        // The merged record now carries feed provenance alongside extraction.
        let hits = woc
            .record_index
            .query("gochi cupertino", 3, |n| woc.registry.id_of(n));
        let rec = woc.store.latest(hits[0].id).unwrap();
        let has_feed = rec.iter().any(|(_, es)| {
            es.iter()
                .any(|e| matches!(e.provenance.source, SourceRef::Feed(_)))
        });
        assert!(has_feed, "feed values present on the merged record");

        // The new bistro is findable.
        let hits = woc
            .record_index
            .query("brand new bistro", 3, |n| woc.registry.id_of(n));
        assert!(!hits.is_empty());
    }

    #[test]
    fn feed_json_round_trip() {
        let (world, _) = setup();
        let feed = gochi_feed(&world);
        let json = serde_json::to_string(&feed).unwrap();
        let parsed = parse_feed(&json).unwrap();
        assert_eq!(parsed.provider, feed.provider);
        assert_eq!(parsed.records.len(), 3);
        assert!(matches!(parse_feed("nope"), Err(FeedError::Malformed(_))));
    }

    #[test]
    fn feed_ingest_is_idempotent_for_values() {
        let (world, mut woc) = setup();
        let feed = gochi_feed(&world);
        ingest_feed(&mut woc, &feed, Tick(200));
        let hits = woc
            .record_index
            .query("gochi cupertino", 3, |n| woc.registry.id_of(n));
        let id = hits[0].id;
        let values_after_one = woc.store.latest(id).unwrap().num_values();
        // Re-ingesting the same feed adds no duplicate values to the merged
        // record (the second bistro copy may merge with the first).
        ingest_feed(&mut woc, &feed, Tick(300));
        let id2 = woc.store.resolve(id).unwrap();
        assert_eq!(
            woc.store.latest(id2).unwrap().num_values(),
            values_after_one,
            "same-feed values deduplicate"
        );
    }
}
