//! # woc-serve — the concurrent concept-serving layer
//!
//! The paper's applications (§5) presume "massively scalable" serving
//! infrastructure over the concept store and its inverted indexes (§2.2);
//! this crate is that read tier. A built [`WebOfConcepts`] is frozen into an
//! immutable [`Snapshot`] and published behind an `Arc`; any number of
//! threads query it concurrently through a [`ConceptServer`]:
//!
//! * **Snapshot/epoch model** — readers grab one `Arc<Snapshot>` per request
//!   and evaluate entirely against it, so a request can never observe a
//!   half-updated web (no torn reads, by construction). Maintenance builds a
//!   *new* web and ships it, with the [`SegmentDelta`] describing what moved,
//!   through the one publish door
//!   ([`ConceptServer::publish_delta_segmented`]); in-flight readers of the
//!   old epoch drain gracefully — the old snapshot is freed when its last
//!   reader drops its `Arc`. The web inside a snapshot is itself shared
//!   ([`Snapshot::woc`] is an `Arc`): the maintenance engine publishes the
//!   very allocation it maintains from, so an epoch exists once however
//!   many tiers read it. The publish order is swap → unlock → hooks → drop:
//!   the retired snapshot leaves the lock alive and is released only after
//!   the publish hooks ran, so no reader ever waits out the deep free of a
//!   whole web.
//! * **Segmented search path** — every snapshot carries a
//!   [`SegmentedLrecIndex`]: a frozen base segment with pinned corpus-global
//!   BM25 statistics plus delta segments, scored with block-max pruned
//!   top-k. Because every segment scores through the pinned statistics, a
//!   record's score is a pure function of its frozen content — which is
//!   what makes per-entry cache retention across epochs sound at all.
//! * **Sharded LRU result cache** ([`cache`]) — keyed on the endpoint and
//!   the *normalized* [`FieldQuery`] rendering, so syntactic variants of a
//!   query share one entry. Entries carry the epoch they were filled at and
//!   a retention [`cache::Scope`]; a stale worker finishing after a publish
//!   can never poison the new epoch's cache (its fill generation is
//!   refused), and a publish retains every entry whose scope the delta
//!   provably did not touch instead of dropping the cache wholesale.
//! * **Metrics** ([`metrics`]) — per-endpoint request counters, cache
//!   hit/miss counters, and log2-bucketed latency histograms with p50/p95/p99
//!   summaries, cheap enough to stay on under load.
//!
//! Queries are canonicalized *before* evaluation (sorted terms, rendered
//! back to query syntax), so the cached and uncached paths evaluate the
//! byte-identical query — the cache can only ever return exactly what a
//! fresh evaluation would.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use woc_apps::{
    build_concept_box, hydrate_record_hit, interpret_query, trigger_concept_box, ConceptBox,
    ConceptResult, Recommendation,
};
use woc_core::{shard_map, WebOfConcepts};
use woc_index::{FieldQuery, MergePolicy, SegmentedLrecIndex};
use woc_lrec::{LrecId, Violation};

pub use cache::Scope;
use cache::ShardedCache;
pub use metrics::{Endpoint, EndpointSummary, MetricsRegistry, ERROR_BUDGET};

/// Separator inside cache keys; cannot occur in tokenized query terms.
const KEY_SEP: char = '\u{1f}';

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Total result-cache entries across all shards (0 disables storage).
    pub cache_capacity: usize,
    /// Number of independent cache shards.
    pub cache_shards: usize,
    /// Whether queries consult the cache at all (togglable at runtime via
    /// [`ConceptServer::set_cache_enabled`], e.g. for A/B benchmarking).
    pub cache_enabled: bool,
    /// Exclude records with *hard* schema violations (kind mismatches,
    /// cardinality overruns) from search results — the serving-path guard
    /// against garbage that survived extraction. Undeclared keys are
    /// tolerated: the lrec model is deliberately loose (§2.2).
    pub exclude_nonconforming: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            cache_capacity: 4096,
            cache_shards: 16,
            cache_enabled: true,
            exclude_nonconforming: false,
        }
    }
}

/// What changed between the served snapshot and its replacement — the one
/// delta [`ConceptServer::publish_delta_segmented`] publishes with: coarse
/// plane flags (`records_changed` covers the record store and the record
/// index, `docs_changed` document content and the doc index) plus exactly
/// what the record-plane change touched, in the same vocabulary cached
/// entries record in their [`Scope`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentDelta {
    /// Any record content, merge state, or record-index posting changed.
    pub records_changed: bool,
    /// Any document content or doc-index posting changed.
    pub docs_changed: bool,
    /// Every index term whose posting list the delta touched: the union of
    /// the old and new token sequences of every changed record (sorted,
    /// deduplicated). A cached search answer whose query terms are disjoint
    /// from this set keeps its result set and — under pinned statistics —
    /// its exact scores.
    pub changed_terms: Vec<String>,
    /// Every record whose served rendering the pass may have changed
    /// (created, updated, merged or tombstoned), canonical ids, sorted. A
    /// cached answer hydrated only from records outside this set renders
    /// byte-identically after the publish. The set does not cover stored
    /// provenance no rendering shows: a record outside it may carry moved
    /// trust, confidence or observation times (a pass that removes pages
    /// re-weighs the sources of records no changed page derives), and
    /// listing such records would drop cached answers that are still
    /// correct.
    pub changed_records: Vec<LrecId>,
    /// True when the shipped index pins fresh corpus-global statistics (it
    /// compacted during the pass, or was built cold): every score in the
    /// corpus may shift, so the whole cache must drop.
    pub stats_repinned: bool,
}

impl SegmentDelta {
    /// The delta of a cold publish: both planes changed and the statistics
    /// are re-pinned, so nothing cached survives. Ship it with a freshly
    /// built segmented index of the new web.
    pub fn cold() -> Self {
        Self {
            records_changed: true,
            docs_changed: true,
            stats_repinned: true,
            ..Self::default()
        }
    }

    /// True when neither plane changed: the published bytes would equal the
    /// served ones, so publishing is a no-op — dropping a warm cache for it
    /// would be pure waste. A pass can *visit* records (tombstone scrubbing,
    /// cosmetic page edits) and still fold to exactly this.
    pub fn is_noop(&self) -> bool {
        !self.records_changed && !self.docs_changed
    }
}

/// Why a maintenance or publish pass failed without changing the served
/// epoch. A failed pass is transactional: the maintained web and the
/// served snapshot are exactly what they were before it began, and the
/// server stays in degraded mode — answering every query from the last
/// good snapshot — until a later pass succeeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaintainError {
    /// The rebuild panicked; the payload message is captured.
    RebuildPanicked(String),
    /// A pre-rebuild fault hook rejected the pass (chaos testing, or a
    /// crawl-quality gate refusing a degraded corpus).
    FaultInjected(String),
}

impl MaintainError {
    /// Render a `catch_unwind` payload: panics carry `&str` or `String`
    /// almost always; anything else is opaque.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        Self::RebuildPanicked(if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        })
    }
}

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaintainError::RebuildPanicked(msg) => write!(f, "rebuild panicked: {msg}"),
            MaintainError::FaultInjected(msg) => write!(f, "fault injected: {msg}"),
        }
    }
}

impl std::error::Error for MaintainError {}

/// Crawl-layer telemetry pushed into the server's health surface by the
/// maintenance driver (see `woc-chaos`), since the server itself never
/// crawls.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlHealth {
    /// Sites whose circuit breaker was not closed when the crawl ended.
    pub breakers_open: usize,
    /// Total breaker trips across all sites.
    pub breaker_trips: u64,
    /// Total fetch retries across all pages.
    pub retries: u64,
}

/// One endpoint's health row: traffic, failures, and remaining error
/// budget (fraction of [`ERROR_BUDGET`] still unspent, in `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointHealth {
    /// Stable endpoint name.
    pub endpoint: &'static str,
    /// Requests served.
    pub requests: u64,
    /// Requests whose evaluation failed (answered with a degraded empty
    /// response).
    pub errors: u64,
    /// Remaining error budget in `[0, 1]`.
    pub error_budget_remaining: f64,
}

/// The health endpoint's payload: epoch freshness, degraded-mode state,
/// quarantine accounting of the snapshot being served, crawl telemetry,
/// and per-endpoint error budgets.
#[derive(Debug, Clone)]
pub struct Health {
    /// The epoch currently being served.
    pub epoch: u64,
    /// Time since the current epoch was published (or since the server
    /// started, for epoch 1).
    pub epoch_age: Duration,
    /// True when the server is serving stale or incomplete data: a
    /// maintenance pass has failed without a subsequent success, or the
    /// served snapshot itself reports quarantined/failed pages.
    pub degraded: bool,
    /// Maintenance/publish passes that have failed since startup.
    pub failed_maintains: u64,
    /// Failed passes since the last successful pass (published or no-op).
    pub consecutive_failures: u64,
    /// The most recent maintenance error, if any.
    pub last_error: Option<String>,
    /// Pages quarantined (poisoned content) in the served snapshot's build.
    pub pages_quarantined: usize,
    /// Pages never delivered in the served snapshot's build.
    pub pages_failed: usize,
    /// Sites with incomplete coverage in the served snapshot.
    pub degraded_sites: usize,
    /// Crawl telemetry, when the maintenance driver pushed it.
    pub crawl: Option<CrawlHealth>,
    /// Per-endpoint traffic and error budgets, in display order.
    pub endpoints: Vec<EndpointHealth>,
}

/// An immutable, read-only view of one published web of concepts.
#[derive(Debug)]
pub struct Snapshot {
    /// Monotonically increasing publish generation (first publish = 1).
    pub epoch: u64,
    /// The web this snapshot serves — the publisher's own allocation, shared
    /// rather than copied: the maintenance engine keeps reading the same
    /// web it published, and it is freed when the last of engine, snapshot
    /// and pinned readers lets go.
    pub woc: Arc<WebOfConcepts>,
    /// The segmented record index the search endpoint evaluates against.
    /// Shared across epochs wherever possible: a delta publish ships the
    /// same base-segment `Arc` plus small new delta segments, and a
    /// doc-plane-only publish reships the whole index untouched.
    pub segments: Arc<SegmentedLrecIndex>,
}

/// A segmented index built cold from `woc`: a single base segment pinned
/// at the web's own statistics, so segmented answers are byte-identical to
/// flat ones.
fn cold_segments(woc: &WebOfConcepts) -> Arc<SegmentedLrecIndex> {
    Arc::new(woc.segmented_record_index(MergePolicy::default()))
}

/// A subscriber invoked after every successful publish with the newly
/// installed snapshot. This is the replication seam: a cluster layer
/// subscribes here to fan each published epoch out to shard replicas without
/// polling. Hooks run on the publishing thread, after the snapshot swap and
/// cache invalidation, so a subscriber always observes the epoch that new
/// requests are already being served from.
pub type PublishHook = Box<dyn Fn(&Arc<Snapshot>) + Send + Sync>;

/// Registered publish subscribers (interior-mutable so `on_publish` works
/// through a shared server handle).
#[derive(Default)]
struct PublishHooks(RwLock<Vec<PublishHook>>);

impl fmt::Debug for PublishHooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublishHooks({} registered)", self.0.read().len())
    }
}

/// One serving request, for batch execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// Concept search: query string and result budget.
    Search(String, usize),
    /// Augmented-search concept box for the query.
    ConceptBox(String),
    /// Recommendations (alternatives) anchored on the query's best match.
    Recommend(String, usize),
}

/// A serving response payload.
#[derive(Debug, Clone)]
pub enum Response {
    /// Concept-search hits.
    Search(Vec<ConceptResult>),
    /// The concept box, when the query confidently matched a record.
    ConceptBox(Option<ConceptBox>),
    /// Recommendations for the query's matched record.
    Recommend(Vec<Recommendation>),
}

/// A response plus its serving metadata.
#[derive(Debug, Clone)]
pub struct Answer {
    /// Shared response payload (uncopied on cache hits).
    pub value: Arc<Response>,
    /// The snapshot epoch that produced this answer. Every answer comes from
    /// exactly one epoch: the request holds one `Arc<Snapshot>` throughout.
    pub epoch: u64,
    /// True if served from the result cache.
    pub cached: bool,
    /// End-to-end service time in microseconds.
    pub micros: u64,
}

/// The thread-safe serving front end over a published [`Snapshot`].
#[derive(Debug)]
pub struct ConceptServer {
    snapshot: RwLock<Arc<Snapshot>>,
    cache: ShardedCache<Response>,
    cache_enabled: AtomicBool,
    metrics: MetricsRegistry,
    config: ServeConfig,
    published_at: RwLock<Instant>,
    failed_maintains: AtomicU64,
    consecutive_failures: AtomicU64,
    last_error: RwLock<Option<String>>,
    crawl_health: RwLock<Option<CrawlHealth>>,
    hooks: PublishHooks,
}

impl ConceptServer {
    /// Publish `woc` as epoch 1 and start serving. A web passed by value
    /// is moved behind a fresh `Arc`; an `Arc` is shared as it is.
    pub fn new(woc: impl Into<Arc<WebOfConcepts>>, config: ServeConfig) -> Self {
        let woc = woc.into();
        Self {
            snapshot: RwLock::new(Arc::new(Snapshot {
                epoch: 1,
                segments: cold_segments(&woc),
                woc,
            })),
            cache: ShardedCache::new(config.cache_capacity, config.cache_shards),
            cache_enabled: AtomicBool::new(config.cache_enabled),
            metrics: MetricsRegistry::new(),
            config,
            published_at: RwLock::new(Instant::now()),
            failed_maintains: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
            last_error: RwLock::new(None),
            crawl_health: RwLock::new(None),
            hooks: PublishHooks::default(),
        }
    }

    /// Subscribe to publishes: `hook` runs after every snapshot swap with
    /// the newly installed snapshot. No-op publishes (see
    /// [`SegmentDelta::is_noop`]) do not fire hooks — subscribers only ever
    /// see genuinely new epochs.
    pub fn on_publish(&self, hook: PublishHook) {
        self.hooks.0.write().push(hook);
    }

    /// The currently published snapshot. Holding the returned `Arc` pins
    /// that epoch's web for as long as the caller needs it, independent of
    /// later publishes.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read())
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot.read().epoch
    }

    /// The one door to the served epoch: publish a web together with its
    /// segmented index and the [`SegmentDelta`] describing what moved,
    /// retaining every cached entry the delta provably does not touch.
    /// In-flight requests keep serving from the epoch they started on; new
    /// requests see the new snapshot immediately. Returns the epoch now
    /// being served.
    ///
    /// A no-op delta ([`SegmentDelta::is_noop`]) returns the current epoch
    /// untouched: no snapshot swap, no epoch bump, no hook, and — crucially
    /// — no cache invalidation, so a maintenance cycle that changed nothing
    /// keeps the result cache warm. Either way the call marks a maintenance
    /// pass that *succeeded*, so it ends a degraded streak.
    ///
    /// Retention soundness, entry by entry: a cached search answer is a
    /// pure function of (a) the posting lists of its query terms, (b) the
    /// pinned scoring statistics, and (c) the served rendering of its
    /// result records (what hydration reads of them, not their stored
    /// provenance). The delta certifies (a) unchanged when the entry's terms
    /// are disjoint from [`SegmentDelta::changed_terms`], (b) unchanged
    /// unless [`SegmentDelta::stats_repinned`], and (c) unchanged when the
    /// entry's records are disjoint from [`SegmentDelta::changed_records`]
    /// — so a doc-plane-only delta, which lists neither, keeps every search
    /// entry. Entries without a scope (concept box, recommendations) also
    /// read document-plane state, so they only survive a no-op. A cold
    /// publish is [`SegmentDelta::cold`] over a freshly built index.
    ///
    /// The caller certifies the invariant the search path relies on: the
    /// segmented index's live entries are exactly the web's live records
    /// (`segments.flatten()` digest-equal to `woc.record_index`) — the W014
    /// audit checks it.
    ///
    /// `woc` is shared, not copied (an `Arc` as it is, a web by value behind
    /// a fresh one). The order is swap → unlock → hooks → drop: the retired
    /// snapshot is taken out of the lock alive, the write lock released,
    /// the hooks run, and only then is it let go — so when this was its
    /// last reference, the deep free of a whole web happens on the
    /// publishing thread with no reader excluded, and a hook can still
    /// reach the epoch it replaces.
    pub fn publish_delta_segmented(
        &self,
        woc: impl Into<Arc<WebOfConcepts>>,
        delta: &SegmentDelta,
        segments: Arc<SegmentedLrecIndex>,
    ) -> u64 {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        if delta.is_noop() {
            return self.epoch();
        }
        let terms: std::collections::HashSet<&str> =
            delta.changed_terms.iter().map(String::as_str).collect();
        let records: std::collections::HashSet<LrecId> =
            delta.changed_records.iter().copied().collect();
        let woc = woc.into();
        let mut guard = self.snapshot.write();
        let epoch = guard.epoch + 1;
        // woc-lint: allow(lock-across-io) — settle-before-swap by design (the
        // publish/read race fix): the cache generation advances while the
        // snapshot write lock excludes readers. Once it has moved, stale
        // workers' fills are refused; and because no reader can pin the new
        // snapshot until the swap, none can observe the new epoch with an
        // unsettled cache. Total lock order is snapshot -> cache shard;
        // settling only touches cache shards.
        if delta.stats_repinned {
            self.cache.clear_to(epoch);
        } else {
            self.cache.retain(epoch, |scope| {
                scope.is_some_and(|s| {
                    !s.terms.iter().any(|t| terms.contains(t.as_str()))
                        && !s.records.iter().any(|r| records.contains(r))
                })
            });
        }
        let installed = Arc::new(Snapshot {
            epoch,
            woc,
            segments,
        });
        let retired = std::mem::replace(&mut *guard, Arc::clone(&installed));
        drop(guard);
        *self.published_at.write() = Instant::now();
        for hook in self.hooks.0.read().iter() {
            hook(&installed);
        }
        drop(retired);
        epoch
    }

    /// Rebuild the next epoch with an arbitrary closure over the pinned
    /// current snapshot and publish the result cold. A panicking rebuild
    /// aborts transactionally: the error is recorded, the served epoch and
    /// its answers are untouched. This is the seam chaos tests use to
    /// inject publish-path failures.
    pub fn try_publish_with(
        &self,
        rebuild: impl FnOnce(&WebOfConcepts) -> WebOfConcepts,
    ) -> Result<u64, MaintainError> {
        let snap = self.snapshot();
        // AssertUnwindSafe: the closure receives a shared reference into
        // an immutable snapshot; any state it was going to produce dies
        // with the unwind.
        let woc = catch_unwind(AssertUnwindSafe(|| rebuild(&snap.woc))).map_err(|payload| {
            let err = MaintainError::from_panic(payload);
            self.record_maintain_failure(&err);
            err
        })?;
        let segments = cold_segments(&woc);
        Ok(self.publish_delta_segmented(woc, &SegmentDelta::cold(), segments))
    }

    /// Record a maintenance pass that failed before it could publish: the
    /// server enters degraded mode (visible through [`Self::health`]) and
    /// keeps answering from the last good snapshot until the next pass
    /// reaches [`Self::publish_delta_segmented`].
    pub fn record_maintain_failure(&self, err: &MaintainError) {
        self.failed_maintains.fetch_add(1, Ordering::Relaxed);
        self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
        *self.last_error.write() = Some(err.to_string());
    }

    /// Push crawl-layer telemetry (breaker states, retries) into the
    /// health surface. The maintenance driver calls this after each crawl.
    pub fn set_crawl_health(&self, crawl: CrawlHealth) {
        *self.crawl_health.write() = Some(crawl);
    }

    /// The health endpoint: epoch age, degraded-mode state, quarantine
    /// accounting of the snapshot being served, crawl telemetry, and
    /// per-endpoint error budgets.
    pub fn health(&self) -> Health {
        let snap = self.snapshot();
        let report = &snap.woc.report;
        let consecutive_failures = self.consecutive_failures.load(Ordering::Relaxed);
        let endpoints = Endpoint::ALL
            .iter()
            .map(|&e| {
                let s = self.metrics.endpoint(e).summary();
                EndpointHealth {
                    endpoint: e.name(),
                    requests: s.requests,
                    errors: s.errors,
                    error_budget_remaining: s.error_budget_remaining(),
                }
            })
            .collect();
        Health {
            epoch: snap.epoch,
            epoch_age: self.published_at.read().elapsed(),
            degraded: consecutive_failures > 0
                || report.pages_quarantined > 0
                || report.pages_failed > 0,
            failed_maintains: self.failed_maintains.load(Ordering::Relaxed),
            consecutive_failures,
            last_error: self.last_error.read().clone(),
            pages_quarantined: report.pages_quarantined,
            pages_failed: report.pages_failed,
            degraded_sites: report.degraded_sites().len(),
            crawl: self.crawl_health.read().clone(),
            endpoints,
        }
    }

    /// Runtime cache switch (the config default applies at construction).
    pub fn set_cache_enabled(&self, on: bool) {
        self.cache_enabled.store(on, Ordering::Relaxed);
    }

    /// The metrics registry (counters, hit rates, latency histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Concept search (§5.2) with geo/cuisine query interpretation.
    /// Evaluates on the snapshot's segmented index — byte-identical to the
    /// flat index at every merge point, and between merge points a pure
    /// function of frozen segment content plus pinned statistics, which is
    /// what lets the answer's cache entry survive later delta publishes.
    pub fn search(&self, query: &str, k: usize) -> Answer {
        let fq = interpret_query(query).normalized();
        let key = format!("{k}{KEY_SEP}{fq}");
        let exclude = self.config.exclude_nonconforming;
        self.serve(Endpoint::Search, key, move |snap| {
            let woc = &snap.woc;
            let raw = snap.segments.search(&fq, k, |n| woc.registry.id_of(n));
            let mut hits: Vec<ConceptResult> = raw
                .iter()
                .filter_map(|h| hydrate_record_hit(woc, h))
                .collect();
            if exclude {
                hits.retain(|h| conforms(woc, h.id));
            }
            let scope = Scope {
                terms: fq.index_terms(),
                records: raw.iter().map(|h| h.id).collect(),
            };
            (Response::Search(hits), Some(scope))
        })
    }

    /// Augmented-search concept box (§5.1): `Some` when the query
    /// confidently matches one record. Scopeless: the box renders
    /// document-side state (mention links, titles), so its cache entry only
    /// survives a no-op publish.
    pub fn concept_box(&self, query: &str) -> Answer {
        let canon = FieldQuery::parse(query).normalized().to_string();
        self.serve(Endpoint::ConceptBox, canon.clone(), move |snap| {
            let woc = &snap.woc;
            (
                Response::ConceptBox(
                    trigger_concept_box(woc, &canon)
                        .and_then(|(id, conf)| build_concept_box(woc, id, conf)),
                ),
                None,
            )
        })
    }

    /// Recommendations (§5.4): alternatives anchored on the query's best
    /// concept-box match, empty when nothing triggers. Scopeless, like the
    /// concept box.
    pub fn recommend(&self, query: &str, k: usize) -> Answer {
        let canon = FieldQuery::parse(query).normalized().to_string();
        let key = format!("{k}{KEY_SEP}{canon}");
        self.serve(Endpoint::Recommend, key, move |snap| {
            let woc = &snap.woc;
            (
                Response::Recommend(
                    trigger_concept_box(woc, &canon)
                        .map(|(id, _)| woc_apps::alternatives(woc, id, k))
                        .unwrap_or_default(),
                ),
                None,
            )
        })
    }

    /// Execute one [`Query`].
    pub fn execute(&self, q: &Query) -> Answer {
        match q {
            Query::Search(s, k) => self.search(s, *k),
            Query::ConceptBox(s) => self.concept_box(s),
            Query::Recommend(s, k) => self.recommend(s, *k),
        }
    }

    /// Fan a batch of queries across a worker pool of up to `threads`
    /// threads (0 = all available cores). Answers come back in input order;
    /// each query still runs against whichever snapshot is current when its
    /// worker picks it up.
    pub fn run_batch(&self, queries: &[Query], threads: usize) -> Vec<Answer> {
        let threads = woc_core::resolve_threads(threads);
        shard_map(queries, threads, |q| self.execute(q))
    }

    /// The shared serve skeleton: snapshot pin → cache probe → evaluate →
    /// cache fill → metrics. `key` must determine the evaluation entirely
    /// (it is combined with the endpoint name; epoch visibility is enforced
    /// by the cache's generation gates, not the key, so entries can survive
    /// epoch bumps under selective retention). `eval` returns the response
    /// plus its retention scope (`None` = drop on any effective publish).
    fn serve(
        &self,
        endpoint: Endpoint,
        key: String,
        eval: impl FnOnce(&Snapshot) -> (Response, Option<Scope>),
    ) -> Answer {
        let start = Instant::now();
        let snap = self.snapshot();
        let enabled = self.cache_enabled.load(Ordering::Relaxed);
        let full_key = format!("{}{KEY_SEP}{key}", endpoint.name());
        if enabled {
            if let Some(value) = self.cache.get(&full_key, snap.epoch) {
                let micros = start.elapsed().as_micros() as u64;
                self.metrics.endpoint(endpoint).record(micros, Some(true));
                return Answer {
                    value,
                    epoch: snap.epoch,
                    cached: true,
                    micros,
                };
            }
        }
        // Evaluation runs under unwind protection: a panicking query is
        // answered with the endpoint's empty response and counted against
        // its error budget instead of tearing down the worker.
        // `AssertUnwindSafe` is justified: `eval` is a pure read over the
        // immutable pinned snapshot.
        let (value, scope, failed) = match catch_unwind(AssertUnwindSafe(|| eval(&snap))) {
            Ok((v, scope)) => (Arc::new(v), scope, false),
            Err(_) => (Arc::new(empty_response(endpoint)), None, true),
        };
        if failed {
            self.metrics.endpoint(endpoint).record_error();
        } else if enabled {
            // Never cache a degraded answer: the next request re-evaluates.
            // The fill carries the pinned epoch; the cache refuses it if a
            // publish has moved the generation on (stale-worker guard).
            self.cache
                .insert(full_key, Arc::clone(&value), snap.epoch, scope);
        }
        let micros = start.elapsed().as_micros() as u64;
        self.metrics
            .endpoint(endpoint)
            .record(micros, (enabled && !failed).then_some(false));
        Answer {
            value,
            epoch: snap.epoch,
            cached: false,
            micros,
        }
    }
}

/// The degraded (empty) response an endpoint answers with when its
/// evaluation panics.
fn empty_response(endpoint: Endpoint) -> Response {
    match endpoint {
        Endpoint::Search => Response::Search(Vec::new()),
        Endpoint::ConceptBox => Response::ConceptBox(None),
        Endpoint::Recommend => Response::Recommend(Vec::new()),
    }
}

/// True unless the record carries a *hard* schema violation (kind mismatch
/// or cardinality overrun). Records of concepts without a schema conform
/// trivially, as do undeclared keys — the loose-schema stance of §2.2.
pub fn conforms(woc: &WebOfConcepts, id: woc_lrec::LrecId) -> bool {
    let Some(rec) = woc.store.latest(id) else {
        return false;
    };
    let Some(schema) = woc.registry.schema(rec.concept()) else {
        return true;
    };
    !schema.check(rec).iter().any(|v| {
        matches!(
            v,
            Violation::KindMismatch { .. } | Violation::CardinalityExceeded { .. }
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_core::{build, PipelineConfig};
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    fn tiny_woc(world_seed: u64, corpus_seed: u64) -> WebOfConcepts {
        let world = World::generate(WorldConfig::tiny(world_seed));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(corpus_seed));
        build(&corpus, &PipelineConfig::default())
    }

    /// Publish `woc` under `delta` with a freshly built segmented index.
    fn publish(server: &ConceptServer, woc: WebOfConcepts, delta: &SegmentDelta) -> u64 {
        let segments = cold_segments(&woc);
        server.publish_delta_segmented(woc, delta, segments)
    }

    fn publish_cold(server: &ConceptServer, woc: WebOfConcepts) -> u64 {
        publish(server, woc, &SegmentDelta::cold())
    }

    #[test]
    fn search_hits_and_caches() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let a = server.search("gochi cupertino", 5);
        assert_eq!(a.epoch, 1);
        assert!(!a.cached);
        let Response::Search(hits) = a.value.as_ref() else {
            panic!("wrong variant");
        };
        assert!(!hits.is_empty());
        let b = server.search("gochi cupertino", 5);
        assert!(b.cached, "repeat query served from cache");
        assert!(Arc::ptr_eq(&a.value, &b.value), "hit shares the payload");
        let s = server.metrics().endpoint(Endpoint::Search).summary();
        assert_eq!((s.requests, s.cache_hits, s.cache_misses), (2, 1, 1));
    }

    #[test]
    fn normalized_variants_share_a_cache_entry() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let a = server.search("cupertino gochi", 5);
        let b = server.search("gochi   cupertino", 5);
        assert!(!a.cached && b.cached, "term order normalizes away");
        assert_eq!(format!("{:?}", a.value), format!("{:?}", b.value));
    }

    #[test]
    fn publish_bumps_epoch_and_invalidates() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.search("gochi cupertino", 5);
        assert!(server.cache_len() > 0);
        let epoch = publish_cold(&server, tiny_woc(902, 92));
        assert_eq!(epoch, 2);
        assert_eq!(server.epoch(), 2);
        assert_eq!(server.cache_len(), 0, "publish clears the cache");
        let a = server.search("gochi cupertino", 5);
        assert_eq!(a.epoch, 2);
        assert!(!a.cached);
    }

    #[test]
    fn old_snapshot_survives_publish() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let pinned = server.snapshot();
        publish_cold(&server, tiny_woc(902, 92));
        assert_eq!(pinned.epoch, 1, "pinned epoch unchanged");
        assert!(pinned.woc.store.live_count() > 0, "old web still readable");
        assert_eq!(server.snapshot().epoch, 2);
    }

    #[test]
    fn cache_disabled_never_hits() {
        let server = ConceptServer::new(
            tiny_woc(901, 91),
            ServeConfig {
                cache_enabled: false,
                ..ServeConfig::default()
            },
        );
        server.search("gochi", 5);
        let b = server.search("gochi", 5);
        assert!(!b.cached);
        assert_eq!(server.cache_len(), 0);
        let s = server.metrics().endpoint(Endpoint::Search).summary();
        assert_eq!(s.cache_hits + s.cache_misses, 0, "bypass counts nothing");
    }

    #[test]
    fn batch_executes_all_queries_in_order() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let queries = vec![
            Query::Search("gochi cupertino".into(), 5),
            Query::ConceptBox("gochi cupertino".into()),
            Query::Recommend("gochi cupertino".into(), 3),
            Query::Search("is:restaurant".into(), 10),
        ];
        for threads in [1, 4] {
            let answers = server.run_batch(&queries, threads);
            assert_eq!(answers.len(), queries.len());
            assert!(matches!(answers[0].value.as_ref(), Response::Search(_)));
            assert!(matches!(answers[1].value.as_ref(), Response::ConceptBox(_)));
            assert!(matches!(answers[2].value.as_ref(), Response::Recommend(_)));
        }
    }

    #[test]
    fn publish_delta_empty_keeps_epoch_and_cache() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.search("gochi", 5);
        let warm = server.cache_len();
        let epoch = publish(&server, tiny_woc(901, 91), &SegmentDelta::default());
        assert_eq!(epoch, 1);
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.cache_len(), warm);
    }

    #[test]
    fn health_starts_clean_and_tracks_traffic() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.search("gochi", 5);
        let h = server.health();
        assert_eq!(h.epoch, 1);
        assert!(!h.degraded);
        assert_eq!(h.failed_maintains, 0);
        assert_eq!(h.consecutive_failures, 0);
        assert!(h.last_error.is_none());
        assert_eq!(
            (h.pages_quarantined, h.pages_failed, h.degraded_sites),
            (0, 0, 0)
        );
        assert!(h.crawl.is_none());
        let search = h
            .endpoints
            .iter()
            .find(|e| e.endpoint == "search")
            .expect("search endpoint present");
        assert_eq!(search.requests, 1);
        assert_eq!(search.errors, 0);
        assert_eq!(search.error_budget_remaining, 1.0);
    }

    #[test]
    fn failed_publish_keeps_serving_last_good_epoch() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let before = server.search("gochi cupertino", 5);

        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = server
            .try_publish_with(|_| panic!("injected publish failure"))
            .expect_err("panicking rebuild must fail");
        std::panic::set_hook(prev_hook);
        assert!(matches!(
            &err,
            MaintainError::RebuildPanicked(msg) if msg.contains("injected publish failure")
        ));

        // Degraded mode: same epoch, byte-identical answers, health dirty.
        assert_eq!(server.epoch(), 1, "failed publish must not bump the epoch");
        let after = server.search("gochi cupertino", 5);
        assert_eq!(after.epoch, 1);
        assert_eq!(
            format!("{:?}", before.value),
            format!("{:?}", after.value),
            "degraded serving answers from the last good snapshot"
        );
        let h = server.health();
        assert!(h.degraded);
        assert_eq!(h.failed_maintains, 1);
        assert_eq!(h.consecutive_failures, 1);
        assert!(h
            .last_error
            .as_deref()
            .is_some_and(|m| m.contains("injected")));

        // Recovery: a successful publish clears the degraded flag.
        let epoch = server
            .try_publish_with(|woc| woc.clone())
            .expect("clean rebuild publishes");
        assert_eq!(epoch, 2);
        let h = server.health();
        assert!(!h.degraded);
        assert_eq!(h.consecutive_failures, 0);
        assert_eq!(h.failed_maintains, 1, "lifetime counter keeps history");
    }

    #[test]
    fn crawl_health_surfaces_in_health() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.set_crawl_health(CrawlHealth {
            breakers_open: 2,
            breaker_trips: 5,
            retries: 17,
        });
        let crawl = server.health().crawl.expect("crawl telemetry set");
        assert_eq!(crawl.breakers_open, 2);
        assert_eq!(crawl.breaker_trips, 5);
        assert_eq!(crawl.retries, 17);
    }

    #[test]
    fn publish_delta_scrubbed_to_noop_keeps_epoch_and_cache() {
        // Regression: a delta whose record and doc changes were all scrubbed
        // away (e.g. tombstone candidates that cancelled out) used to drop
        // the whole warm cache just because the pass had visited records.
        // It must behave exactly like an empty delta.
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.search("gochi", 5);
        let warm = server.cache_len();
        assert!(warm > 0);
        let delta = SegmentDelta {
            changed_records: vec![LrecId(0), LrecId(1)],
            ..SegmentDelta::default()
        };
        assert_ne!(delta, SegmentDelta::default(), "the delta is non-empty…");
        assert!(delta.is_noop(), "…but carries no changes");
        let epoch = publish(&server, tiny_woc(901, 91), &delta);
        assert_eq!(epoch, 1, "no epoch bump for a scrubbed-to-no-op delta");
        assert_eq!(server.epoch(), 1);
        assert_eq!(server.cache_len(), warm, "cache survives");
        assert!(server.search("gochi", 5).cached, "and still hits");
    }

    #[test]
    fn publish_hooks_observe_only_real_publishes() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let seen: Arc<RwLock<Vec<u64>>> = Arc::new(RwLock::new(Vec::new()));
        let sink = Arc::clone(&seen);
        server.on_publish(Box::new(move |snap| sink.write().push(snap.epoch)));
        publish_cold(&server, tiny_woc(902, 92));
        // No-op delta → no publish → hook must not fire.
        publish(&server, tiny_woc(901, 91), &SegmentDelta::default());
        publish_cold(&server, tiny_woc(903, 93));
        assert_eq!(*seen.read(), vec![2, 3]);
    }

    /// Publish order is swap → unlock → hooks → drop. With no reader
    /// pinning it, the server's reference to the outgoing snapshot is the
    /// last one; dropping it in place (`*guard = …`) would free a whole web
    /// while the write lock still excludes every reader.
    #[test]
    fn retired_snapshot_outlives_the_lock_and_the_hooks() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        let retired = Arc::downgrade(&server.snapshot());
        let seen: Arc<RwLock<Vec<Option<u64>>>> = Arc::new(RwLock::new(Vec::new()));
        let (weak, sink) = (retired.clone(), Arc::clone(&seen));
        server.on_publish(Box::new(move |_| {
            sink.write().push(weak.upgrade().map(|snap| snap.epoch));
        }));
        publish_cold(&server, tiny_woc(902, 92));
        assert_eq!(
            *seen.read(),
            vec![Some(1)],
            "the hook runs after the unlock and must still reach the epoch it replaces"
        );
        assert!(
            retired.upgrade().is_none(),
            "…which is freed once the hooks have run"
        );
    }

    #[test]
    fn publish_delta_nonempty_bumps_and_clears() {
        let server = ConceptServer::new(tiny_woc(901, 91), ServeConfig::default());
        server.search("gochi", 5);
        let delta = SegmentDelta {
            records_changed: true,
            stats_repinned: true,
            ..SegmentDelta::default()
        };
        assert!(!delta.is_noop());
        let epoch = publish(&server, tiny_woc(902, 92), &delta);
        assert_eq!(epoch, 2);
        assert_eq!(server.cache_len(), 0);
    }
}
