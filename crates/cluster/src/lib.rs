//! # woc-cluster — sharded multi-node serving of the web of concepts
//!
//! The paper's serving stance (§2.2) is that concept records ride
//! "massively scalable inverted index implementations"; `woc-serve`
//! builds the single-node read tier, and this crate scales it *out*: a
//! built [`WebOfConcepts`] is deterministically partitioned across `N`
//! simulated shard nodes ([`PartitionMap`]), each shard holds `R`
//! replicas of its shard-local indexes under the same epoch-swap
//! discipline `woc-serve` uses, and a scatter-gather router answers
//! `search` / `lookup` / `doc_search` with per-shard virtual-clock
//! timeouts and hedged requests.
//!
//! The load-bearing invariant, enforced by the partition/failover chaos
//! suite: **quorum serving is byte-identical to single-node answers**.
//! A shard's record side is a frozen [`woc_index::LrecSegment`] over the
//! records it owns, scored through the epoch's pinned
//! [`woc_index::ScoringStats`] — what a delta segment of the single node's
//! index already is — so every hit carries the bitwise-identical score,
//! and the router finishes in the same [`woc_index::gather`] the
//! single-node search does: one evaluator, scattered over slots there and
//! over shards here.
//! When faults (via [`woc_chaos::ShardFaultInjector`]) take out every
//! usable replica of a shard, the router degrades with explicit
//! [`Coverage::Partial`] metadata — never a silently partial epoch. The
//! W013 shard-coverage audit ([`woc_audit::check_shard_coverage`]) checks
//! the partition tiles the web and replicas do not diverge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod node;
pub mod partition;
pub mod router;

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use woc_apps::{hydrate_record_hit, interpret_query, ConceptResult};
use woc_audit::{
    audit, check_segments, check_shard_coverage, Audit, AuditConfig, ShardCoverageView,
};
use woc_chaos::{ShardFaultInjector, ShardFaultProfile};
use woc_core::{record_entries, WebOfConcepts};
use woc_index::{gather, FieldQuery, RecordHit, SegmentedLrecIndex};
use woc_lrec::LrecId;
use woc_serve::{ConceptServer, SegmentDelta, ServeConfig, Snapshot};
use woc_textkit::tokenize::tokenize_words;
use woc_webgen::WebCorpus;

pub use node::{ReplicaState, ShardDocs, ShardNode, ShardRecords};
pub use partition::{host_of, PartitionGroup, PartitionMap};
pub use router::{Coverage, RouterStats, RouterStatsSnapshot, POSTING_MICROS, TIMEOUT_MICROS};

/// Cluster topology. The routing budgets are constants of [`router`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shard nodes.
    pub shards: usize,
    /// Replicas per shard.
    pub replicas: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            replicas: 2,
        }
    }
}

/// A scatter-gather concept-search answer.
#[derive(Debug, Clone)]
pub struct ClusterAnswer {
    /// Merged, hydrated hits — byte-identical to the single-node answer
    /// when coverage is complete.
    pub results: Vec<ConceptResult>,
    /// The epoch every contributing shard served.
    pub epoch: u64,
    /// Whether every shard answered.
    pub coverage: Coverage,
    /// Virtual end-to-end latency (max over shards; scatter is parallel).
    pub virtual_micros: u64,
    /// Shards that fired a hedged request.
    pub hedged_shards: usize,
}

/// A routed single-record lookup.
#[derive(Debug, Clone)]
pub struct LookupAnswer {
    /// The record, hydrated by its owning shard (`None` when the id does
    /// not resolve to a live record — or, under [`Coverage::Partial`],
    /// when the owner could not serve).
    pub result: Option<ConceptResult>,
    /// The epoch served.
    pub epoch: u64,
    /// Whether the owning shard answered.
    pub coverage: Coverage,
    /// Virtual latency of the routed request.
    pub virtual_micros: u64,
}

/// A scatter-gather document-search answer.
#[derive(Debug, Clone)]
pub struct DocAnswer {
    /// `(url, score)` hits, byte-identical to the full doc index's
    /// answer when coverage is complete.
    pub results: Vec<(String, f64)>,
    /// The epoch every contributing shard served.
    pub epoch: u64,
    /// Whether every shard answered.
    pub coverage: Coverage,
    /// Virtual end-to-end latency.
    pub virtual_micros: u64,
}

/// The cluster's canonical state for one epoch: the full snapshot (the
/// metadata/hydration plane) plus each shard's two index sides.
#[derive(Debug)]
struct ClusterState {
    snap: Arc<Snapshot>,
    partition: Arc<PartitionMap>,
    records: Vec<Arc<ShardRecords>>,
    docs: Vec<Arc<ShardDocs>>,
}

/// What one scatter over every shard came back with.
struct Scatter {
    /// The replica state that served each answering shard, in shard order.
    served: Vec<Arc<ReplicaState>>,
    coverage: Coverage,
    /// Max over shards.
    latency: u64,
    hedged_shards: usize,
}

/// The sharded serving tier: a [`ConceptServer`] epoch authority, `N`
/// [`ShardNode`]s of `R` replicas each, and the scatter-gather router.
#[derive(Debug)]
pub struct ClusterServer {
    config: ClusterConfig,
    full: ConceptServer,
    state: RwLock<Arc<ClusterState>>,
    nodes: Vec<ShardNode>,
    injector: RwLock<Arc<ShardFaultInjector>>,
    clock: AtomicU64,
    seq: AtomicU64,
    stats: RouterStats,
}

impl ClusterServer {
    /// Partition `woc` across the configured topology and start serving
    /// epoch 1 on every replica. `corpus` supplies document text for the
    /// shard doc indexes (the web stores URLs and titles, not bodies). The
    /// web is shared as [`ConceptServer::new`] shares it.
    pub fn new(
        corpus: &WebCorpus,
        woc: impl Into<Arc<WebOfConcepts>>,
        config: ClusterConfig,
    ) -> Self {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        assert!(config.replicas >= 1, "a shard needs at least one replica");
        let full = ConceptServer::new(woc, ServeConfig::default());
        let snap = full.snapshot();
        let state = Arc::new(build_state(&snap, corpus, &config, None));
        let nodes = (0..config.shards)
            .map(|s| {
                ShardNode::new(
                    config.replicas,
                    Arc::new(ReplicaState {
                        epoch: snap.epoch,
                        snap: Arc::clone(&snap),
                        records: Arc::clone(&state.records[s]),
                        docs: Arc::clone(&state.docs[s]),
                    }),
                )
            })
            .collect();
        Self {
            config,
            full,
            state: RwLock::new(state),
            nodes,
            injector: RwLock::new(Arc::new(ShardFaultInjector::new(
                ShardFaultProfile::healthy(),
                0,
            ))),
            clock: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            stats: RouterStats::default(),
        }
    }

    /// The routing configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The single-node epoch authority (and reference server) inside the
    /// cluster — chaos tests compare scatter-gather answers against it.
    pub fn full(&self) -> &ConceptServer {
        &self.full
    }

    /// The cluster epoch.
    pub fn epoch(&self) -> u64 {
        self.state.read().snap.epoch
    }

    /// The current partition map.
    pub fn partition(&self) -> Arc<PartitionMap> {
        Arc::clone(&self.state.read().partition)
    }

    /// The canonical record side of `shard` (Arc identity is observable:
    /// an incremental publish re-ships untouched sides unchanged).
    pub fn records_side(&self, shard: usize) -> Arc<ShardRecords> {
        Arc::clone(&self.state.read().records[shard])
    }

    /// The canonical doc side of `shard`.
    pub fn docs_side(&self, shard: usize) -> Arc<ShardDocs> {
        Arc::clone(&self.state.read().docs[shard])
    }

    /// Install a shard-fault profile rolled from `seed`. Takes effect on
    /// the next request; the virtual clock keeps running.
    pub fn set_faults(&self, profile: ShardFaultProfile, seed: u64) {
        *self.injector.write() = Arc::new(ShardFaultInjector::new(profile, seed));
    }

    /// Remove all injected faults.
    pub fn clear_faults(&self) {
        self.set_faults(ShardFaultProfile::healthy(), 0);
    }

    /// Current virtual time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Snapshot the routing state. The read guard lives only inside this
    /// expression, so no caller ever holds it across another lock.
    fn routing_state(&self) -> Arc<ClusterState> {
        Arc::clone(&self.state.read())
    }

    /// Snapshot the active fault injector under the same single-lock rule.
    fn fault_injector(&self) -> Arc<ShardFaultInjector> {
        Arc::clone(&self.injector.read())
    }

    /// Advance the virtual clock (e.g. to cross a flap window).
    pub fn advance_clock(&self, micros: u64) {
        self.clock.fetch_add(micros, Ordering::Relaxed);
    }

    /// Router counters.
    pub fn stats(&self) -> RouterStatsSnapshot {
        self.stats.snapshot()
    }

    /// Publish a web together with its segmented index and the delta
    /// describing what moved — the cluster form of
    /// [`ConceptServer::publish_delta_segmented`]. The epoch authority
    /// swaps its snapshot (retaining its result cache by the delta's scope)
    /// and returns the new epoch, the partition map and shard sides
    /// rebuild — re-shipping as the same `Arc` every side whose owned
    /// entries and pinned statistics are unchanged, so a delta publish
    /// rebuilds only the shards owning changed records — and every replica
    /// *reachable at the current virtual time* installs the new epoch.
    /// Unreachable replicas stay on their old epoch; the router refuses
    /// them until [`ClusterServer::sync_replicas`] (or a later publish)
    /// catches them up. A no-op delta — the authority returns the epoch it
    /// already serves — is a cluster-wide no-op: no epoch bump, no shard
    /// rebuild, no replica churn. Returns the epoch now being served.
    pub fn publish(
        &self,
        corpus: &WebCorpus,
        woc: impl Into<Arc<WebOfConcepts>>,
        delta: &SegmentDelta,
        segments: Arc<SegmentedLrecIndex>,
    ) -> u64 {
        let epoch = self.full.publish_delta_segmented(woc, delta, segments);
        let prev = self.routing_state();
        // A no-op publish returns the epoch already served.
        if epoch == prev.snap.epoch {
            return epoch;
        }
        let snap = self.full.snapshot();
        let next = Arc::new(build_state(&snap, corpus, &self.config, Some(&prev)));
        *self.state.write() = next;
        self.sync_replicas();
        epoch
    }

    /// Install the canonical state into every replica reachable at the
    /// current virtual time — the anti-entropy pass that heals stale
    /// replicas after a partition lifts.
    pub fn sync_replicas(&self) {
        let now = self.now_micros();
        let st = self.routing_state();
        let inj = self.fault_injector();
        for (s, node) in self.nodes.iter().enumerate() {
            for r in 0..node.replicas() {
                if inj.replica_down(s, r, now) {
                    continue;
                }
                node.install(
                    r,
                    Arc::new(ReplicaState {
                        epoch: st.snap.epoch,
                        snap: Arc::clone(&st.snap),
                        records: Arc::clone(&st.records[s]),
                        docs: Arc::clone(&st.docs[s]),
                    }),
                );
            }
        }
    }

    /// Concept search (§5.2) with the same geo/cuisine query
    /// interpretation the single-node server applies.
    pub fn search(&self, query: &str, k: usize) -> ClusterAnswer {
        let fq = interpret_query(query).normalized();
        self.search_parsed(&fq, k)
    }

    /// Route one request to every shard ([`router::serve_shard`] per node,
    /// `work(shard)` postings charged to each) and advance the virtual
    /// clock by the slowest shard — the scatter is parallel.
    fn scatter(&self, st: &ClusterState, work: impl Fn(usize) -> u64) -> Scatter {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let now = self.now_micros();
        let inj = self.fault_injector();
        let mut served = Vec::with_capacity(self.nodes.len());
        let mut missing: Vec<usize> = Vec::new();
        let mut latency = 0u64;
        let mut hedged_shards = 0usize;
        for (s, node) in self.nodes.iter().enumerate() {
            let outcome = router::serve_shard(
                node,
                s,
                st.snap.epoch,
                work(s) * POSTING_MICROS,
                &inj,
                now,
                seq,
                &self.stats,
            );
            latency = latency.max(outcome.latency_micros);
            hedged_shards += outcome.hedged as usize;
            match outcome.state {
                Some(rs) => served.push(rs),
                None => missing.push(s),
            }
        }
        self.clock.fetch_add(latency, Ordering::Relaxed);
        let coverage = if missing.is_empty() {
            Coverage::Complete
        } else {
            self.stats.partial_answers.fetch_add(1, Ordering::Relaxed);
            Coverage::Partial { missing }
        };
        Scatter {
            served,
            coverage,
            latency,
            hedged_shards,
        }
    }

    /// Scatter a parsed query over the served shards' segments and
    /// [`gather`] — the same two halves, in the same order, as the
    /// single-node [`SegmentedLrecIndex::search`]; see the crate docs for
    /// the byte-identity argument.
    pub fn search_parsed(&self, fq: &FieldQuery, k: usize) -> ClusterAnswer {
        let st = self.routing_state();
        let terms = fq.index_terms();
        let sc = self.scatter(&st, |s| {
            st.records.get(s).map_or(0, |r| r.postings_cost(&terms))
        });
        let concept = fq
            .concept
            .as_deref()
            .and_then(|n| st.snap.woc.registry.id_of(n));
        let fetch = FieldQuery::fetch_budget(k, concept.is_some());
        let nothing_dead = HashSet::new();
        let mut hits: Vec<RecordHit> = Vec::new();
        for rs in &sc.served {
            let side = &rs.records;
            hits.extend(
                side.segment
                    .search(&terms, fetch, &side.stats, &nothing_dead),
            );
        }
        // Shards own disjoint records, so only the owner can say yes.
        let hits = gather(hits, fq, k, concept, |id, term| {
            sc.served
                .iter()
                .any(|rs| rs.records.segment.has_term(id, term))
        });
        ClusterAnswer {
            results: hits
                .iter()
                .filter_map(|h| hydrate_record_hit(&st.snap.woc, h))
                .collect(),
            epoch: st.snap.epoch,
            coverage: sc.coverage,
            virtual_micros: sc.latency,
            hedged_shards: sc.hedged_shards,
        }
    }

    /// Route a single-record lookup to the shard owning the record.
    pub fn lookup(&self, id: LrecId) -> LookupAnswer {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let now = self.now_micros();
        let st = self.routing_state();
        let inj = self.fault_injector();
        let canon = st.snap.woc.store.resolve(id);
        let owner = canon.and_then(|c| st.partition.shard_of_record(c));
        let Some(shard) = owner else {
            // Not a live record: the metadata plane answers directly.
            let latency = router::BASE_LATENCY_MICROS;
            self.clock.fetch_add(latency, Ordering::Relaxed);
            return LookupAnswer {
                result: None,
                epoch: st.snap.epoch,
                coverage: Coverage::Complete,
                virtual_micros: latency,
            };
        };
        let outcome = router::serve_shard(
            self.nodes
                .get(shard)
                .expect("invariant: routing table only yields shard ids < config.shards"),
            shard,
            st.snap.epoch,
            0,
            &inj,
            now,
            seq,
            &self.stats,
        );
        self.clock
            .fetch_add(outcome.latency_micros, Ordering::Relaxed);
        let Some(rs) = outcome.state else {
            self.stats.partial_answers.fetch_add(1, Ordering::Relaxed);
            return LookupAnswer {
                result: None,
                epoch: st.snap.epoch,
                coverage: Coverage::Partial {
                    missing: vec![shard],
                },
                virtual_micros: outcome.latency_micros,
            };
        };
        let result = lookup_reference(&rs.snap.woc, id);
        LookupAnswer {
            result,
            epoch: st.snap.epoch,
            coverage: Coverage::Complete,
            virtual_micros: outcome.latency_micros,
        }
    }

    /// Scatter a plain document search to every shard's doc index and
    /// merge by the full index's `(score desc, doc asc)` order.
    pub fn doc_search(&self, query: &str, k: usize) -> DocAnswer {
        let st = self.routing_state();
        let terms = tokenize_words(query);
        let sc = self.scatter(&st, |s| {
            st.docs.get(s).map_or(0, |d| d.postings_cost(&terms))
        });
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for rs in &sc.served {
            hits.extend(rs.docs.raw_search(&terms, k));
        }
        router::merge_by_score(&mut hits);
        hits.truncate(k);
        let results = hits
            .into_iter()
            .filter_map(|(pos, score)| {
                st.snap
                    .woc
                    .doc_urls
                    .get(pos as usize)
                    .map(|url| (url.clone(), score))
            })
            .collect();
        DocAnswer {
            results,
            epoch: st.snap.epoch,
            coverage: sc.coverage,
            virtual_micros: sc.latency,
        }
    }

    /// The plain-data coverage view the W013 audit checks: the partition
    /// assignment plus every replica's `(epoch, content digest)`.
    pub fn coverage_view(&self) -> ShardCoverageView {
        let st = self.routing_state();
        ShardCoverageView {
            shards: self.config.shards,
            record_owners: st.partition.record_entries(),
            doc_owners: st.partition.doc_entries(),
            expected_epoch: st.snap.epoch,
            replicas: self
                .nodes
                .iter()
                .map(|n| {
                    (0..n.replicas())
                        .map(|r| {
                            let rs = n.replica(r);
                            (rs.epoch, rs.digest())
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Run the audit (codes W001–W016) over the served web: [`audit`]'s own
    /// checks plus the W013 shard-coverage check over this cluster's view
    /// of it and the W014 segment-metadata check over the epoch's segmented
    /// record index.
    pub fn audit(&self, cfg: &AuditConfig) -> Audit {
        let st = self.routing_state();
        let woc = &st.snap.woc;
        let mut a = audit(woc, cfg);
        a.checks
            .push(check_shard_coverage(woc, &self.coverage_view(), cfg));
        a.checks.push(check_segments(woc, &st.snap.segments, cfg));
        a
    }
}

/// The single-node reference for [`ClusterServer::lookup`]: resolve
/// through merge tombstones, then hydrate the surviving live record.
pub fn lookup_reference(woc: &WebOfConcepts, id: LrecId) -> Option<ConceptResult> {
    let canon = woc.store.resolve(id)?;
    let rec = woc.store.latest(canon)?;
    hydrate_record_hit(
        woc,
        &RecordHit {
            id: canon,
            concept: rec.concept(),
            score: 0.0,
        },
    )
}

/// Rebalance the partition when max/mean shard size exceeds this (see
/// [`PartitionMap::build`]).
const REBALANCE_THRESHOLD: f64 = 1.5;

/// Build the canonical cluster state for a snapshot, re-shipping any
/// shard side whose input digest matches the previous state (same owned
/// entries, same global stats ⇒ a rebuild would be byte-identical).
fn build_state(
    snap: &Arc<Snapshot>,
    corpus: &WebCorpus,
    config: &ClusterConfig,
    prev: Option<&ClusterState>,
) -> ClusterState {
    let partition = Arc::new(PartitionMap::build(
        &snap.woc,
        config.shards,
        REBALANCE_THRESHOLD,
    ));
    let mut records = Vec::with_capacity(config.shards);
    let mut docs = Vec::with_capacity(config.shards);
    // Shard records score through the epoch's *pinned* statistics (the
    // segmented index's), not the flat index's own: between merge points
    // the single-node path scores through the pinned snapshot, and shard
    // hits must carry bitwise-identical scores. At every merge point the
    // two coincide. Stable pinned stats also mean a delta publish leaves
    // the record-side digest of every unchanged shard intact — only
    // shards owning changed records rebuild.
    let pinned = snap.segments.pinned_stats();
    let mut owned: Vec<Vec<_>> = vec![Vec::new(); config.shards];
    for entry in record_entries(&snap.woc.store) {
        if let Some(side) = partition
            .shard_of_record(entry.0)
            .and_then(|s| owned.get_mut(s))
        {
            side.push(entry);
        }
    }
    for (s, entries) in owned.into_iter().enumerate() {
        let rd = node::record_entries_digest(&entries, pinned);
        records.push(match prev {
            Some(p) if p.records[s].entries_digest == rd => Arc::clone(&p.records[s]),
            _ => Arc::new(node::build_shard_records(s, entries, rd, pinned.clone())),
        });
        let dd = node::doc_entries_digest(&snap.woc, corpus, &partition, s);
        docs.push(match prev {
            Some(p) if p.docs[s].entries_digest == dd => Arc::clone(&p.docs[s]),
            _ => Arc::new(node::build_shard_docs(&snap.woc, corpus, &partition, s, dd)),
        });
    }
    ClusterState {
        snap: Arc::clone(snap),
        partition,
        records,
        docs,
    }
}
