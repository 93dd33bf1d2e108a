//! The scatter-gather router: replica selection, hedged requests, and the
//! merge that reproduces single-node answer order.
//!
//! Time is virtual (microseconds on a shared counter, never slept). A
//! query scatters to every shard in parallel, so its latency is the *max*
//! over per-shard service times; each shard's service time is a
//! deterministic function of the fault injector's rolls and the shard's
//! posting-list work for the query. Determinism end to end: replaying the
//! same query sequence against the same seed reproduces every latency,
//! every hedge, and every answer byte.
//!
//! Per shard, the router walks the replica ring starting at
//! `(seq + shard) % R` (rotation spreads load and makes single-replica
//! faults visible to some-but-not-all queries). A dead replica costs one
//! probe; a replica serving the wrong epoch is *refused* (stale replicas
//! are what a failover leaves behind — serving one silently would tear
//! the epoch) and costs one probe. The first live, epoch-correct replica
//! serves; when its service time exceeds the hedge threshold and another
//! live fresh replica exists, a hedged request fires and the shard's
//! latency is the better of the two paths. A shard with no usable replica
//! — or whose best path exceeds the timeout — is reported missing, and
//! the answer degrades with explicit [`Coverage::Partial`] metadata.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use woc_chaos::ShardFaultInjector;

use crate::node::{ReplicaState, ShardNode};

/// Virtual cost of walking one posting entry, in microseconds. The work
/// term is what makes scatter-gather *scale*: shards own disjoint posting
/// lists, so the per-shard work — and with it the max-over-shards query
/// latency — shrinks as shards are added.
pub const POSTING_MICROS: u64 = 2;

/// Per-shard budget: a shard whose best path exceeds this is dropped from
/// the answer (explicitly, via [`Coverage::Partial`]).
pub const TIMEOUT_MICROS: u64 = 50_000;

/// Service time above which a hedged request fires to a second replica;
/// the shard's latency becomes the better of the two paths.
pub(crate) const HEDGE_MICROS: u64 = 2_000;

/// Fixed per-request virtual cost (connect + dispatch) per replica touched.
pub(crate) const BASE_LATENCY_MICROS: u64 = 100;

/// How much of the answer's shard coverage arrived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Coverage {
    /// Every shard answered at the expected epoch.
    Complete,
    /// These shards could not serve; their records are absent from the
    /// answer and the caller is told so — never a silently partial epoch.
    Partial {
        /// Missing shard indexes, ascending.
        missing: Vec<usize>,
    },
}

impl Coverage {
    /// True when every shard answered.
    pub fn is_complete(&self) -> bool {
        matches!(self, Coverage::Complete)
    }
}

/// Router counters (atomics: the router serves concurrently).
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Hedged requests fired.
    pub hedges: AtomicU64,
    /// Dead replicas probed.
    pub dead_probes: AtomicU64,
    /// Stale (wrong-epoch) replicas refused.
    pub stale_skips: AtomicU64,
    /// Answers that degraded to partial coverage.
    pub partial_answers: AtomicU64,
}

/// A point-in-time copy of [`RouterStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterStatsSnapshot {
    /// Hedged requests fired.
    pub hedges: u64,
    /// Dead replicas probed.
    pub dead_probes: u64,
    /// Stale (wrong-epoch) replicas refused.
    pub stale_skips: u64,
    /// Answers that degraded to partial coverage.
    pub partial_answers: u64,
}

impl RouterStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> RouterStatsSnapshot {
        RouterStatsSnapshot {
            hedges: self.hedges.load(Ordering::Relaxed),
            dead_probes: self.dead_probes.load(Ordering::Relaxed),
            stale_skips: self.stale_skips.load(Ordering::Relaxed),
            partial_answers: self.partial_answers.load(Ordering::Relaxed),
        }
    }
}

/// The outcome of routing one shard's portion of a query.
#[derive(Debug)]
pub struct ShardServe {
    /// The replica state that served, `None` when the shard is missing.
    pub state: Option<Arc<ReplicaState>>,
    /// Virtual service latency for this shard, probes included.
    pub latency_micros: u64,
    /// True when a hedged request fired.
    pub hedged: bool,
}

/// Route one shard: walk the replica ring, probe past dead and stale
/// replicas, serve from the first usable one, hedge when it is slow.
/// `work_micros` is the deterministic evaluation cost of the query on
/// this shard (same on every replica — replicas are identical).
#[allow(clippy::too_many_arguments)]
pub fn serve_shard(
    node: &ShardNode,
    shard: usize,
    expected_epoch: u64,
    work_micros: u64,
    injector: &ShardFaultInjector,
    now_micros: u64,
    seq: u64,
    stats: &RouterStats,
) -> ShardServe {
    let replicas = node.replicas();
    let start = (seq as usize + shard) % replicas;
    let mut latency = 0u64;
    let mut usable: Vec<usize> = Vec::new();
    for i in 0..replicas {
        let r = (start + i) % replicas;
        if injector.replica_down(shard, r, now_micros) {
            stats.dead_probes.fetch_add(1, Ordering::Relaxed);
            latency += BASE_LATENCY_MICROS;
            continue;
        }
        if node.replica(r).epoch != expected_epoch {
            stats.stale_skips.fetch_add(1, Ordering::Relaxed);
            latency += BASE_LATENCY_MICROS;
            continue;
        }
        usable.push(r);
        if usable.len() == 2 {
            break; // primary + hedge candidate found
        }
    }
    let Some(&primary) = usable.first() else {
        return ShardServe {
            state: None,
            latency_micros: latency.min(TIMEOUT_MICROS),
            hedged: false,
        };
    };
    let serve_cost = |replica: usize| {
        BASE_LATENCY_MICROS + work_micros + injector.extra_latency_micros(shard, replica, seq)
    };
    let primary_cost = serve_cost(primary);
    let mut hedged = false;
    let mut best = primary_cost;
    if primary_cost > HEDGE_MICROS {
        if let Some(&backup) = usable.get(1) {
            hedged = true;
            stats.hedges.fetch_add(1, Ordering::Relaxed);
            best = best.min(HEDGE_MICROS + serve_cost(backup));
        }
    }
    latency += best;
    if latency > TIMEOUT_MICROS {
        return ShardServe {
            state: None,
            latency_micros: TIMEOUT_MICROS,
            hedged,
        };
    }
    ShardServe {
        state: Some(node.replica(primary)),
        latency_micros: latency,
        hedged,
    }
}

/// Merge scattered hits into the single-node order: score descending,
/// tie-broken by ascending id. The full index resolves ties by internal
/// doc id, which is ascending in record/doc id because both the pipeline
/// and the shard builders index in sorted id order — so this comparator
/// reproduces the single-node ranking exactly.
pub fn merge_by_score<T>(items: &mut [(T, f64)])
where
    T: Ord + Copy,
{
    items.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
}
