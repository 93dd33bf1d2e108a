//! The adapter: the only file that names the program under test.
//!
//! Every call the harness makes into a `woc_*` crate goes through here, and
//! on the two journeys only through the entry points ROADMAP item 2 keeps
//! (`IncrEngine::{new,changes,maintain,maintain_and_publish}`,
//! `segment_delta`, `ConceptServer::{new,execute,snapshot,
//! publish_delta_segmented,cache_len}`, `StreamEngine::{from_parts,run}`,
//! `canonical_bytes`, `audit`) with the program's own default configs. When
//! those entry points collapse, this file is the benchmark's whole
//! follow-up. Nothing is imported from `woc-bench`, so edits to the old
//! bins cannot move a measurement.
//!
//! The second half holds the *shadow* calls a traced run makes beside the
//! journeys — one public function per layer, on the same inputs — so each
//! layer's cost exists on its own.

use std::sync::Arc;
use std::time::Duration;

use woc_apps::{
    alternatives, build_concept_box, hydrate_record_hit, interpret_query, trigger_concept_box,
};
use woc_audit::{audit, AuditConfig};
use woc_cluster::{ClusterConfig, ClusterServer};
use woc_core::{build, extract_page, PipelineConfig, TrustModel};
use woc_extract::lists::ConceptProfile;
use woc_incr::{canonical_bytes, segment_delta, IncrEngine, MaintainReport};
use woc_index::{FieldQuery, RecordHit};
use woc_lrec::{AttrValue, Lrec, LrecId, Provenance, Tick};
use woc_matching::{candidate_pairs, FellegiSunter};
use woc_serve::{Answer, ConceptServer, Query, Response, ServeConfig, Snapshot};
use woc_stream::{PageEvent, StreamConfig, StreamEngine};
use woc_webgen::{generate_corpus, CorpusConfig, Page, WebCorpus, World, WorldConfig};

// ── inputs ────────────────────────────────────────────────────────────────

/// Fixture size. `Std` is the fixture every EXPERIMENTS.md table used;
/// `X2` doubles every entity count so distinct read keys outnumber the
/// result cache; `Tiny` is the `--check` smoke fixture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Std,
    X2,
}

/// The ground-truth world and the renderer that turns it into a crawl.
#[derive(Debug)]
pub struct Fixture {
    world: World,
    corpus_cfg: CorpusConfig,
    closed: Vec<LrecId>,
    edits: u64,
}

impl Fixture {
    /// The world and its crawl are the same on every run: the run seed
    /// drives the traffic (which names are asked, in what order, which
    /// restaurants are edited to what), not the web it runs against, so
    /// corpus size does not add to the run-to-run spread.
    pub fn generate(scale: Scale) -> Self {
        let (mut world_cfg, mut corpus_cfg) = match scale {
            Scale::Tiny => (WorldConfig::tiny(97), CorpusConfig::tiny(97)),
            Scale::Std | Scale::X2 => (WorldConfig::default(), CorpusConfig::default()),
        };
        if scale == Scale::X2 {
            // Cities and cuisines are clamped to the gazetteer by the
            // generator itself.
            for n in [
                &mut world_cfg.restaurants,
                &mut world_cfg.people,
                &mut world_cfg.publications,
                &mut world_cfg.products,
                &mut world_cfg.sellers,
                &mut world_cfg.events,
                &mut world_cfg.cities,
                &mut world_cfg.cuisines,
                &mut corpus_cfg.blog_articles,
            ] {
                *n *= 2;
            }
        }
        Fixture {
            world: World::generate(world_cfg),
            corpus_cfg,
            closed: Vec::new(),
            edits: 0,
        }
    }

    /// Render the world as a crawl. Pages about a closed restaurant are
    /// gone from it (the generator itself keeps rendering closed ones).
    pub fn crawl(&self) -> Corpus {
        let mut corpus = generate_corpus(&self.world, &self.corpus_cfg);
        if !self.closed.is_empty() {
            let gone: Vec<String> = corpus
                .pages()
                .iter()
                .filter(|p| p.truth.about.is_some_and(|id| self.closed.contains(&id)))
                .map(|p| p.url.clone())
                .collect();
            for url in gone {
                corpus.remove(&url);
            }
        }
        Corpus(corpus)
    }

    pub fn restaurants(&self) -> usize {
        self.world.restaurants.len()
    }

    pub fn is_open(&self, i: usize) -> bool {
        !self.closed.contains(&self.world.restaurants[i])
    }

    pub fn name(&self, i: usize) -> String {
        self.world.attr(self.world.restaurants[i], "name")
    }

    /// Ground-truth phone, as an answer displays it.
    pub fn phone(&self, i: usize) -> String {
        self.world.attr(self.world.restaurants[i], "phone")
    }

    /// True when ground truth lists exactly one phone. With two, pages may
    /// show either and reconciliation need not settle on the edited one.
    pub fn has_one_phone(&self, i: usize) -> bool {
        self.world.rec(self.world.restaurants[i]).get("phone").len() == 1
    }

    pub fn hours(&self, i: usize) -> String {
        self.world.attr(self.world.restaurants[i], "hours")
    }

    fn update(&mut self, i: usize, mutate: impl FnOnce(&mut Lrec, Tick)) {
        assert!(self.is_open(i), "edits go to live restaurants only");
        self.edits += 1;
        let tick = Tick(10 + self.edits);
        self.world
            .store
            .update(self.world.restaurants[i], tick, |r| mutate(r, tick))
            .expect("invariant: a live restaurant accepts a later-tick update");
    }

    /// Replace restaurant `i`'s primary phone (ten digits), keeping any
    /// secondary one so page rendering consumes the same randomness and
    /// only pages that show the phone change. Returns the displayed form.
    pub fn set_phone(&mut self, i: usize, digits: &str) -> String {
        let phone = AttrValue::Phone(digits.to_string());
        let shown = phone.display_string();
        self.update(i, |r, tick| {
            let rest: Vec<AttrValue> = r
                .get("phone")
                .iter()
                .skip(1)
                .map(|e| e.value.clone())
                .collect();
            r.set("phone", phone, Provenance::ground_truth(tick));
            for v in rest {
                r.add("phone", v, Provenance::ground_truth(tick));
            }
        });
        shown
    }

    pub fn set_hours(&mut self, i: usize, hours: &str) {
        self.update(i, |r, tick| {
            r.set(
                "hours",
                AttrValue::Text(hours.to_string()),
                Provenance::ground_truth(tick),
            );
        });
    }

    /// Close restaurant `i`: retracted from ground truth, and every page
    /// about it disappears from later crawls.
    pub fn close(&mut self, i: usize) {
        let id = self.world.restaurants[i];
        self.world
            .store
            .retract(id)
            .expect("invariant: only live restaurants are closed");
        self.closed.push(id);
    }
}

/// One crawl: what the operator hands to the program.
#[derive(Debug, Clone)]
pub struct Corpus(WebCorpus);

impl Corpus {
    pub fn pages(&self) -> usize {
        self.0.len()
    }

    pub fn url(&self, i: usize) -> &str {
        &self.0.pages()[i].url
    }

    /// The page-level difference from `self` to `next`.
    pub fn delta_to(&self, next: &Corpus) -> CrawlDelta {
        CrawlDelta {
            changed: next
                .0
                .pages()
                .iter()
                .filter(|p| self.0.get(&p.url) != Some(p))
                .cloned()
                .collect(),
            removed: self
                .0
                .pages()
                .iter()
                .filter(|p| next.0.get(&p.url).is_none())
                .map(|p| p.url.clone())
                .collect(),
        }
    }

    /// Apply a delta in place. Replaced pages keep their position and
    /// removals keep the order of the rest, so the result is page-for-page
    /// the crawl the delta was computed against.
    pub fn apply(&mut self, delta: &CrawlDelta) {
        for p in &delta.changed {
            self.0.add(p.clone());
        }
        for url in &delta.removed {
            self.0.remove(url);
        }
    }

    /// A recrawl observation of page `i` as it stands in this crawl.
    pub fn recrawl(&self, i: usize) -> Event {
        Event(PageEvent::Updated(self.0.pages()[i].clone()))
    }
}

/// Pages that changed or vanished between two crawls.
#[derive(Debug)]
pub struct CrawlDelta {
    changed: Vec<Page>,
    removed: Vec<String>,
}

impl CrawlDelta {
    pub fn len(&self) -> usize {
        self.changed.len() + self.removed.len()
    }

    pub fn urls(&self) -> impl Iterator<Item = &str> {
        self.changed
            .iter()
            .map(|p| p.url.as_str())
            .chain(self.removed.iter().map(String::as_str))
    }

    /// Put the changed pages whose fingerprint closes a micro-epoch (the
    /// stream's default content-defined cut) last, and return how many
    /// there are: with exactly one, the delta streams as one micro-epoch.
    pub fn order_for_stream(&mut self) -> usize {
        let cuts = |p: &Page| p.fingerprint() & StreamConfig::default().cut_mask == 0;
        self.changed.sort_by_key(cuts);
        self.changed.iter().filter(|p| cuts(p)).count()
    }

    /// The delta as stream events, changed pages first.
    pub fn events(&self) -> Vec<Event> {
        self.changed
            .iter()
            .cloned()
            .map(PageEvent::Updated)
            .chain(self.removed.iter().cloned().map(PageEvent::Removed))
            .map(Event)
            .collect()
    }
}

/// One crawl observation entering the stream.
#[derive(Debug)]
pub struct Event(PageEvent);

// ── the read journey ──────────────────────────────────────────────────────

/// One serving request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Request(Query);

impl Request {
    pub fn search(text: &str, k: usize) -> Self {
        Request(Query::Search(text.to_string(), k))
    }

    pub fn concept_box(text: &str) -> Self {
        Request(Query::ConceptBox(text.to_string()))
    }

    pub fn recommend(text: &str, k: usize) -> Self {
        Request(Query::Recommend(text.to_string(), k))
    }

    pub fn is_search(&self) -> bool {
        matches!(self.0, Query::Search(..))
    }
}

/// A served answer.
#[derive(Debug)]
pub struct Reply(Answer);

impl Reply {
    pub fn cached(&self) -> bool {
        self.0.cached
    }

    /// The answer as bytes — what the oracle comparison compares.
    pub fn render(&self) -> String {
        format!("{:?}", self.0.value)
    }

    /// True when both replies share one payload allocation (a cache hit
    /// hands out the cached `Arc`), so one comparison covers both.
    pub fn same_payload(&self, other: &Reply) -> bool {
        Arc::ptr_eq(&self.0.value, &other.0.value)
    }

    /// Does a search answer list a record of concept `name`?
    pub fn mentions_concept(&self, name: &str) -> bool {
        match &*self.0.value {
            Response::Search(hits) => hits.iter().any(|h| h.concept == name),
            _ => false,
        }
    }

    /// Does a concept-box answer show `value` on its `label` line?
    pub fn shows(&self, label: &str, value: &str) -> bool {
        match &*self.0.value {
            Response::ConceptBox(Some(b)) => b.lines.iter().any(|(l, v)| l == label && v == value),
            _ => false,
        }
    }
}

/// The serving front end.
#[derive(Debug)]
pub struct Server(ConceptServer);

impl Server {
    fn over(web: woc_core::WebOfConcepts, cache: bool) -> Self {
        Server(ConceptServer::new(
            web,
            ServeConfig {
                cache_enabled: cache,
                ..ServeConfig::default()
            },
        ))
    }

    /// A cache-disabled server over a from-scratch build of `corpus`.
    pub fn oracle(corpus: &Corpus) -> Self {
        Server::over(build(&corpus.0, &PipelineConfig::default()), false)
    }

    #[inline]
    pub fn execute(&self, r: &Request) -> Reply {
        Reply(self.0.execute(&r.0))
    }

    pub fn cache_len(&self) -> usize {
        self.0.cache_len()
    }

    /// Distinct values of attribute `key` over the live records being
    /// served, sorted.
    pub fn record_values(&self, key: &str) -> Vec<String> {
        let snap = self.0.snapshot();
        let woc = &snap.woc;
        let mut values: Vec<String> = woc
            .store
            .live_ids()
            .into_iter()
            .filter_map(|id| woc.store.latest(id))
            .filter_map(|r| r.best_string(key))
            .collect();
        values.sort();
        values.dedup();
        values
    }

    /// Pin the current snapshot for the decomposed read path.
    pub fn read_path(&self) -> ReadPath {
        ReadPath(self.0.snapshot())
    }

    /// The publish half of the write journey, on its own (traced rounds).
    pub fn publish(&self, snap: EngineSnapshot, pass: &Pass) -> u64 {
        self.0
            .publish_delta_segmented(snap.0, &segment_delta(&pass.0), snap.1)
    }
}

// ── the write journey ─────────────────────────────────────────────────────

/// What one maintenance pass did, as the program reported it.
#[derive(Debug)]
pub struct Pass(MaintainReport);

impl Pass {
    pub fn pages_dirty(&self) -> usize {
        self.0.pages_dirty
    }
    pub fn pages_reextracted(&self) -> usize {
        self.0.pages_reextracted
    }
    pub fn pairs_rescored(&self) -> usize {
        self.0.pairs_rescored
    }
    pub fn postings_patched(&self) -> usize {
        self.0.postings_patched
    }
    pub fn segment_merges(&self) -> usize {
        self.0.segment_merges
    }
}

/// The web and segmented index a publish ships, cloned off the engine.
#[derive(Debug)]
pub struct EngineSnapshot(woc_core::WebOfConcepts, Arc<woc_index::SegmentedLrecIndex>);

/// A maintained web that can be served and checked against a rebuild.
pub trait Maintained {
    /// The maintained web itself; only this file looks inside it.
    fn web(&self) -> &woc_core::WebOfConcepts;

    /// Does the integrity audit pass?
    fn audit_clean(&self) -> bool;

    /// A default-config server over a clone of the maintained web.
    fn serve(&self) -> Server {
        Server::over(self.web().clone(), true)
    }

    /// The same with the result cache off: every answer is evaluated, so
    /// it can serve as the reference for the cached one.
    fn serve_uncached(&self) -> Server {
        Server::over(self.web().clone(), false)
    }

    /// Is the maintained web byte-identical to a from-scratch build of
    /// `corpus`?
    fn matches_rebuild(&self, corpus: &Corpus) -> bool {
        canonical_bytes(self.web())
            == canonical_bytes(&build(&corpus.0, &PipelineConfig::default()))
    }
}

/// The incremental maintenance engine.
#[derive(Debug)]
pub struct Engine(IncrEngine);

impl Engine {
    /// Cold build plus memo warm-up.
    pub fn new(corpus: &Corpus) -> Self {
        Engine(IncrEngine::new(&corpus.0, PipelineConfig::default()))
    }

    /// Change detection alone: URLs the next pass would re-extract.
    pub fn changed_urls(&self, corpus: &Corpus) -> Vec<String> {
        let set = self.0.changes(&corpus.0);
        set.dirty.into_iter().chain(set.added).collect()
    }

    pub fn maintain(&mut self, corpus: &Corpus) -> Result<Pass, String> {
        self.0
            .maintain(&corpus.0)
            .map(Pass)
            .map_err(|e| e.to_string())
    }

    pub fn maintain_and_publish(
        &mut self,
        corpus: &Corpus,
        server: &Server,
    ) -> Result<Pass, String> {
        self.0
            .maintain_and_publish(&corpus.0, &server.0)
            .map(|(report, _epoch)| Pass(report))
            .map_err(|e| e.to_string())
    }

    /// The clones `maintain_and_publish` makes before publishing.
    pub fn snapshot_clone(&self) -> EngineSnapshot {
        EngineSnapshot(self.0.web().clone(), Arc::new(self.0.segments().clone()))
    }
}

impl Maintained for Engine {
    fn web(&self) -> &woc_core::WebOfConcepts {
        self.0.web()
    }

    fn audit_clean(&self) -> bool {
        audit(self.0.web(), &AuditConfig::default()).passed()
    }
}

/// What one stream run did.
#[derive(Debug)]
pub struct StreamStats {
    pub events_in: u64,
    pub deduped: u64,
    pub micro_epochs: usize,
    pub effective_epochs: usize,
    /// Failed passes plus changes left pending at quiesce.
    pub unpublished: usize,
    pub publish_at: Vec<Duration>,
    pub publish_took: Vec<Duration>,
}

/// The continuous crawl→extract→publish engine.
#[derive(Debug)]
pub struct Stream(StreamEngine);

impl Stream {
    /// Switch a warm engine into streaming mode; `corpus` is the crawl it
    /// was last maintained against.
    pub fn adopt(engine: Engine, corpus: &Corpus) -> Self {
        Stream(StreamEngine::from_parts(
            engine.0,
            corpus.0.clone(),
            StreamConfig::default(),
        ))
    }

    /// Drain `events` through the dataflow into `server` and quiesce.
    pub fn run(
        &mut self,
        events: impl Iterator<Item = Event> + Send,
        server: &Server,
    ) -> StreamStats {
        let r = self.0.run(events.map(|e| e.0), &server.0);
        StreamStats {
            events_in: r.events_in,
            deduped: r.deduped,
            micro_epochs: r.micro_epochs,
            effective_epochs: r.effective_epochs,
            unpublished: r.publish_failures + r.pending_carryover,
            publish_at: r.publish_at,
            publish_took: r.publish_took,
        }
    }
}

impl Maintained for Stream {
    fn web(&self) -> &woc_core::WebOfConcepts {
        self.0.web()
    }

    fn audit_clean(&self) -> bool {
        self.0.audit(&AuditConfig::default()).passed()
    }
}

// ── shadow calls (traced runs only) ───────────────────────────────────────

/// `webgen`: fingerprint every page, as each maintenance pass does.
pub fn fingerprint_pages(corpus: &Corpus) -> u64 {
    corpus
        .0
        .pages()
        .iter()
        .fold(0, |acc, p| acc ^ p.fingerprint())
}

/// `core`: page extraction, the recomputation a dirty page costs.
#[derive(Debug)]
pub struct Extractor(Vec<ConceptProfile>);

impl Extractor {
    pub fn new() -> Self {
        Extractor(ConceptProfile::standard())
    }

    /// Extract the named pages of `corpus`; returns records extracted.
    pub fn extract(&self, corpus: &Corpus, urls: &[String]) -> usize {
        urls.iter()
            .filter_map(|u| corpus.0.get(u))
            .map(|p| extract_page(p, &self.0).len())
            .sum()
    }
}

/// `matching`: blocking and pair scoring over the live restaurant records.
#[derive(Debug)]
pub struct Matcher {
    records: Vec<Lrec>,
    model: FellegiSunter,
}

impl Matcher {
    pub fn block(&self) -> Vec<(usize, usize)> {
        let refs: Vec<&Lrec> = self.records.iter().collect();
        // 200 is the block cap the pipeline's resolve stage uses.
        candidate_pairs(&refs, 200)
    }

    pub fn score(&self, pairs: &[(usize, usize)]) -> f64 {
        pairs
            .iter()
            .map(|&(a, b)| self.model.score(&self.records[a], &self.records[b]))
            .sum()
    }
}

impl Engine {
    /// `core`: rerun the source-trust fixpoint over the web's claims.
    pub fn trust_recompute(&self) -> usize {
        let trust = &self.0.web().trust;
        TrustModel::compute(trust.claims.clone(), &trust.config).iterations
    }

    pub fn matcher(&self) -> Matcher {
        let woc = self.0.web();
        Matcher {
            records: woc
                .records_of(woc.concepts.restaurant)
                .into_iter()
                .cloned()
                .collect(),
            model: FellegiSunter::restaurant_default(),
        }
    }

    /// `incr`: the byte-identity oracle's serialisation, on its own.
    pub fn canonical_len(&self) -> usize {
        canonical_bytes(self.0.web()).len()
    }

    /// `index`: delta segments the maintained index carries right now.
    pub fn delta_segments(&self) -> usize {
        self.0.segments().delta_count()
    }

    /// `index`: compact a clone of the maintained segmented index.
    pub fn compact_clone(&self) -> usize {
        let mut segments = self.0.segments().clone();
        segments.compact();
        segments.live_len()
    }
}

/// A request after the parse step of its endpoint.
#[derive(Debug)]
pub enum Parsed {
    Search(FieldQuery, usize),
    ConceptBox(String),
    Recommend(String, usize),
}

/// `index` and `apps`: the steps `Server::execute` is made of on a miss,
/// against one pinned snapshot.
#[derive(Debug)]
pub struct ReadPath(Arc<Snapshot>);

impl ReadPath {
    /// Parse + normalise: the only step a cache hit also pays.
    pub fn parse(&self, r: &Request) -> Parsed {
        match &r.0 {
            Query::Search(s, k) => Parsed::Search(interpret_query(s).normalized(), *k),
            Query::ConceptBox(s) => {
                Parsed::ConceptBox(FieldQuery::parse(s).normalized().to_string())
            }
            Query::Recommend(s, k) => {
                Parsed::Recommend(FieldQuery::parse(s).normalized().to_string(), *k)
            }
        }
    }

    /// Segmented block-max top-k (search requests only).
    pub fn search(&self, p: &Parsed) -> Option<Vec<RecordHit>> {
        let woc = &self.0.woc;
        match p {
            Parsed::Search(fq, k) => {
                Some(self.0.segments.search(fq, *k, |n| woc.registry.id_of(n)))
            }
            _ => None,
        }
    }

    /// The same search on the flat index, for reference.
    pub fn flat_search(&self, p: &Parsed) -> Option<usize> {
        let woc = &self.0.woc;
        match p {
            Parsed::Search(fq, k) => Some(
                woc.record_index
                    .search(fq, *k, |n| woc.registry.id_of(n))
                    .len(),
            ),
            _ => None,
        }
    }

    pub fn hydrate(&self, hits: &[RecordHit]) -> usize {
        hits.iter()
            .filter_map(|h| hydrate_record_hit(&self.0.woc, h))
            .count()
    }

    /// Trigger + build (concept-box requests only); true when a box came
    /// back.
    pub fn concept_box(&self, p: &Parsed) -> Option<bool> {
        let woc = &self.0.woc;
        match p {
            Parsed::ConceptBox(canon) => Some(
                trigger_concept_box(woc, canon)
                    .and_then(|(id, conf)| build_concept_box(woc, id, conf))
                    .is_some(),
            ),
            _ => None,
        }
    }

    /// The record a recommend request anchors on (untimed by callers: the
    /// trigger is the concept box's cost).
    pub fn anchor(&self, p: &Parsed) -> Option<(LrecId, usize)> {
        match p {
            Parsed::Recommend(canon, k) => {
                trigger_concept_box(&self.0.woc, canon).map(|(id, _)| (id, *k))
            }
            _ => None,
        }
    }

    pub fn recommend(&self, anchor: (LrecId, usize)) -> usize {
        alternatives(&self.0.woc, anchor.0, anchor.1).len()
    }
}

/// `cluster`: the scatter-gather router at its default 4 shards × 2
/// replicas, healthy, timed on the wall clock.
#[derive(Debug)]
pub struct Cluster(ClusterServer);

impl Cluster {
    pub fn new(corpus: &Corpus, engine: &Engine) -> Self {
        let cluster =
            ClusterServer::new(&corpus.0, engine.0.web().clone(), ClusterConfig::default());
        // The reference must evaluate every time, as the router does.
        cluster.full().set_cache_enabled(false);
        Cluster(cluster)
    }

    /// Routed search; `None` for a request that is not a search.
    pub fn search(&self, r: &Request) -> Option<usize> {
        match &r.0 {
            Query::Search(s, k) => Some(self.0.search(s, *k).results.len()),
            _ => None,
        }
    }

    /// The same search on the cluster's unsharded reference server.
    pub fn full_search(&self, r: &Request) -> Option<usize> {
        match &r.0 {
            Query::Search(..) => match &*self.0.full().execute(&r.0).value {
                Response::Search(hits) => Some(hits.len()),
                _ => None,
            },
            _ => None,
        }
    }
}
