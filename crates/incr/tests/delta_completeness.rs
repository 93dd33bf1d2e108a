//! Delta completeness: the delta a maintained pass publishes names
//! everything a reader can see change. For every pass, two cold builds —
//! of the crawl before and of the crawl after — are compared record by
//! record and term by term:
//!
//! - every record whose served rendering (its hydrated search hit,
//!   debug-rendered) differs, including records that appear or vanish, is
//!   in the delta's `changed_records`;
//! - every index term whose record → count postings differ is in the
//!   delta's `changed_terms`;
//! - a pass that changed anything a reader sees does not publish as a
//!   no-op, and a short-circuited or ineffective pass publishes the no-op
//!   delta with empty lists.
//!
//! The retention suites assume exactly this: a cached answer is dropped
//! only when its terms or records meet the delta, so a change the delta
//! misses would be served stale after the publish.

use std::collections::{BTreeMap, BTreeSet};

use woc_apps::hydrate_record_hit;
use woc_core::{build, PipelineConfig, WebOfConcepts};
use woc_incr::IncrEngine;
use woc_index::{LrecIndex, RecordHit};
use woc_lrec::{LrecId, Tick};
use woc_serve::SegmentDelta;
use woc_webgen::{
    churn_restaurants, generate_corpus, AdversarialConfig, CorpusConfig, Node, Page, WebCorpus,
    World, WorldConfig,
};

/// What a reader of one web can observe of its record plane: each live
/// record's served rendering and each term's postings by record.
struct Served {
    renderings: BTreeMap<LrecId, String>,
    postings: BTreeMap<String, BTreeMap<LrecId, usize>>,
}

fn served(woc: &WebOfConcepts) -> Served {
    let mut renderings = BTreeMap::new();
    let mut postings: BTreeMap<String, BTreeMap<LrecId, usize>> = BTreeMap::new();
    for id in woc.store.live_ids() {
        let rec = woc
            .store
            .latest(id)
            .expect("live ids have a latest version");
        let hit = RecordHit {
            id,
            concept: rec.concept(),
            score: 0.0,
        };
        renderings.insert(id, format!("{:?}", hydrate_record_hit(woc, &hit)));
        for term in LrecIndex::record_tokens(rec) {
            *postings.entry(term).or_default().entry(id).or_default() += 1;
        }
    }
    Served {
        renderings,
        postings,
    }
}

/// The keys of two maps whose values differ, a key missing on one side
/// included.
fn differing<K: Ord + Clone, V: PartialEq>(a: &BTreeMap<K, V>, b: &BTreeMap<K, V>) -> Vec<K> {
    let keys: BTreeSet<&K> = a.keys().chain(b.keys()).collect();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .cloned()
        .collect()
}

/// The items of `changed` that `listed` does not name.
fn unlisted<T: Ord + Clone>(changed: &[T], listed: &[T]) -> Vec<T> {
    let listed: BTreeSet<&T> = listed.iter().collect();
    changed
        .iter()
        .filter(|x| !listed.contains(x))
        .cloned()
        .collect()
}

/// Maintains one engine over a sequence of crawls, checking each pass's
/// delta against cold builds of the crawls on both sides of it.
struct Probe {
    engine: IncrEngine,
    config: PipelineConfig,
    cold: Served,
    changed_passes: usize,
}

impl Probe {
    fn new(corpus: &WebCorpus) -> Self {
        let config = PipelineConfig::default();
        Self {
            engine: IncrEngine::new(corpus, config.clone()),
            cold: served(&build(corpus, &config)),
            config,
            changed_passes: 0,
        }
    }

    /// Maintain against `corpus` and require the published delta to cover
    /// every difference between the cold builds before and after.
    fn pass(&mut self, corpus: &WebCorpus, what: &str) {
        let report = self
            .engine
            .maintain(corpus)
            .unwrap_or_else(|e| panic!("{what}: maintain failed: {e}"));
        let delta = &report.delta;
        let next = served(&build(corpus, &self.config));
        let records = differing(&self.cold.renderings, &next.renderings);
        let terms = differing(&self.cold.postings, &next.postings);

        let missed = unlisted(&records, &delta.changed_records);
        assert!(
            missed.is_empty(),
            "{what}: records whose served rendering changed are missing from the delta: {missed:?}"
        );
        let missed = unlisted(&terms, &delta.changed_terms);
        assert!(
            missed.is_empty(),
            "{what}: terms whose postings changed are missing from the delta: {missed:?}"
        );
        if !records.is_empty() || !terms.is_empty() {
            assert!(
                !delta.is_noop(),
                "{what}: a pass that changed what readers see published as a no-op"
            );
            self.changed_passes += 1;
        }
        if report.short_circuited || !report.effective_change {
            assert_noop(delta, what);
        }
        self.cold = next;
    }
}

fn assert_noop(delta: &SegmentDelta, what: &str) {
    assert!(delta.is_noop(), "{what}: expected the no-op delta");
    assert!(
        delta.changed_terms.is_empty() && delta.changed_records.is_empty(),
        "{what}: the no-op delta lists nothing"
    );
}

/// Churn the world until at least one event fires (a zero-event churn
/// call leaves the world as it was).
fn churn(world: &mut World, rate: f64, tick: u64, mut seed: u64) {
    while churn_restaurants(world, rate, Tick(tick), seed).is_empty() {
        seed += 1;
        assert!(seed < 1000, "no churn events after a thousand seeds");
    }
}

/// The pages of `corpus` that `keep` accepts, with their page positions.
fn keep_pages(corpus: &WebCorpus, keep: impl Fn(usize, &Page) -> bool) -> WebCorpus {
    let mut out = WebCorpus::new();
    for (i, p) in corpus.pages().iter().enumerate() {
        if keep(i, p) {
            out.add(p.clone());
        }
    }
    out
}

/// Churn at 2 %, 10 % and 50 %, drop every 7th page and restore them,
/// then drop and restore three whole sites — each pass maintained on top
/// of the last.
fn churn_and_reshape(world_seed: u64, corpus_cfg: CorpusConfig) {
    let mut world = World::generate(WorldConfig::tiny(world_seed));
    let corpus = generate_corpus(&world, &corpus_cfg);
    let mut probe = Probe::new(&corpus);
    let mut tick = 10;
    for rate in [0.02, 0.1, 0.5] {
        for seed in [1, 7, 13] {
            churn(&mut world, rate, tick, seed);
            tick += 10;
            let corpus = generate_corpus(&world, &corpus_cfg);
            probe.pass(&corpus, &format!("churn {rate} (seed {seed})"));
        }
    }
    let full = generate_corpus(&world, &corpus_cfg);
    probe.pass(
        &keep_pages(&full, |i, _| i % 7 != 0),
        "every 7th page removed",
    );
    probe.pass(&full, "removed pages added back");
    // A site that vanishes or returns changes which value some records
    // render without changing their index tokens: only the lineage part of
    // `changed_records`, not the index diff, covers those records.
    for site in [
        "proceedings.example.org",
        "seller2.example.com",
        "upcoming.example.com",
    ] {
        probe.pass(
            &keep_pages(&full, |_, p| p.site != site),
            &format!("site {site} removed"),
        );
        probe.pass(&full, &format!("site {site} added back"));
    }
    probe.pass(&full, "the same crawl again");
    assert!(
        probe.changed_passes >= 9,
        "half of the 18 passes must change what readers see, or the property is vacuous"
    );
}

#[test]
fn delta_covers_churn_removals_and_additions() {
    churn_and_reshape(610, CorpusConfig::tiny(61));
}

#[test]
fn delta_covers_churn_removals_and_additions_under_adversaries() {
    churn_and_reshape(
        611,
        CorpusConfig {
            adversarial: Some(AdversarialConfig::at_ratio(0.3, 11)),
            ..CorpusConfig::tiny(62)
        },
    );
}

#[test]
fn short_circuited_and_ineffective_passes_publish_nothing() {
    let world = World::generate(WorldConfig::tiny(612));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(63));
    let mut engine = IncrEngine::new(&corpus, PipelineConfig::default());

    let report = engine.maintain(&corpus).expect("maintain must succeed");
    assert!(report.short_circuited);
    assert_noop(&report.delta, "short-circuited pass");

    // A DOM-attribute-only edit dirties the fingerprint and nothing else.
    let mut cosmetic = WebCorpus::new();
    for (i, p) in corpus.pages().iter().enumerate() {
        let mut p = p.clone();
        if i == 0 {
            if let Node::Element { attrs, .. } = &mut p.dom {
                attrs.insert("data-deploy".to_string(), "canary".to_string());
            }
        }
        cosmetic.add(p);
    }
    let report = engine.maintain(&cosmetic).expect("maintain must succeed");
    assert!(!report.short_circuited && !report.effective_change);
    assert_noop(&report.delta, "ineffective pass");
}
