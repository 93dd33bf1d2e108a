//! Lightweight serving metrics: per-endpoint request counters, cache
//! hit/miss counters, and log2-bucketed latency histograms with percentile
//! summaries.
//!
//! Everything is a relaxed atomic — recording a sample is a handful of
//! `fetch_add`s, cheap enough to leave on in production serving. Buckets are
//! powers of two in microseconds: bucket `i` holds samples in
//! `[2^(i-1), 2^i)` µs (bucket 0 holds sub-microsecond samples), so p50/p95/
//! p99 are upper-bound estimates with ≤2× resolution — the standard
//! trade-off of histogram-based tail latency tracking.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 latency buckets: 2^39 µs ≈ 6.4 days, beyond any query.
const BUCKETS: usize = 40;

/// The serving endpoints instrumented by the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// Concept search (`§5.2`).
    Search,
    /// Augmented-search concept box (`§5.1`).
    ConceptBox,
    /// Concept recommendations (`§5.4`).
    Recommend,
}

impl Endpoint {
    /// All endpoints, in display order.
    pub const ALL: [Endpoint; 3] = [Endpoint::Search, Endpoint::ConceptBox, Endpoint::Recommend];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Search => "search",
            Endpoint::ConceptBox => "concept_box",
            Endpoint::Recommend => "recommend",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Search => 0,
            Endpoint::ConceptBox => 1,
            Endpoint::Recommend => 2,
        }
    }
}

/// Allowed fraction of requests that may error before an endpoint's error
/// budget is exhausted (SRE-style: 99% of requests must succeed).
pub const ERROR_BUDGET: f64 = 0.01;

/// Counters and latency histogram for one endpoint.
#[derive(Debug)]
pub struct EndpointMetrics {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    errors: AtomicU64,
    total_micros: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for EndpointMetrics {
    fn default() -> Self {
        Self {
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            total_micros: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl EndpointMetrics {
    /// Record one request with its latency and cache outcome.
    /// `cached = None` means the cache was bypassed (disabled).
    pub fn record(&self, micros: u64, cached: Option<bool>) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match cached {
            Some(true) => self.cache_hits.fetch_add(1, Ordering::Relaxed),
            Some(false) => self.cache_misses.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        self.total_micros.fetch_add(micros, Ordering::Relaxed);
        let bucket = (64 - micros.leading_zeros() as usize).min(BUCKETS - 1);
        let cell = self
            .buckets
            .get(bucket)
            .expect("invariant: bucket clamped to BUCKETS - 1");
        cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one failed request (the evaluation panicked or was refused).
    /// Errors count against the endpoint's [`ERROR_BUDGET`].
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time summary of this endpoint.
    pub fn summary(&self) -> EndpointSummary {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let requests = self.requests.load(Ordering::Relaxed);
        let percentile = |p: f64| -> u64 {
            let total: u64 = counts.iter().sum();
            if total == 0 {
                return 0;
            }
            let rank = (p * total as f64).ceil() as u64;
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    // Upper bound of bucket i: 2^i µs (bucket 0 → 1 µs).
                    return 1u64 << i.min(63);
                }
            }
            1u64 << (BUCKETS - 1)
        };
        EndpointSummary {
            requests,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            mean_micros: if requests == 0 {
                0.0
            } else {
                self.total_micros.load(Ordering::Relaxed) as f64 / requests as f64
            },
            p50_micros: percentile(0.50),
            p95_micros: percentile(0.95),
            p99_micros: percentile(0.99),
        }
    }
}

/// Snapshot of one endpoint's counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointSummary {
    /// Requests served.
    pub requests: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// Requests that evaluated and populated the cache.
    pub cache_misses: u64,
    /// Requests whose evaluation failed (served a degraded empty answer).
    pub errors: u64,
    /// Mean latency in microseconds.
    pub mean_micros: f64,
    /// Median latency (bucket upper bound), microseconds.
    pub p50_micros: u64,
    /// 95th-percentile latency (bucket upper bound), microseconds.
    pub p95_micros: u64,
    /// 99th-percentile latency (bucket upper bound), microseconds.
    pub p99_micros: u64,
}

impl EndpointSummary {
    /// Cache hit rate over requests that consulted the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let consulted = self.cache_hits + self.cache_misses;
        if consulted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / consulted as f64
        }
    }

    /// Fraction of requests that errored (0 when no traffic).
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.errors as f64 / self.requests as f64
        }
    }

    /// Remaining fraction of the endpoint's [`ERROR_BUDGET`], in `[0, 1]`:
    /// 1 with no errors, 0 once the observed error rate has consumed the
    /// whole allowance.
    pub fn error_budget_remaining(&self) -> f64 {
        (1.0 - self.error_rate() / ERROR_BUDGET).clamp(0.0, 1.0)
    }
}

/// The registry: one [`EndpointMetrics`] per serving endpoint.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    endpoints: [EndpointMetrics; 3],
}

impl MetricsRegistry {
    /// Fresh registry with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The metrics of one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointMetrics {
        self.endpoints
            .get(e.index())
            .expect("invariant: Endpoint::index() is < the endpoint count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarize() {
        let m = MetricsRegistry::new();
        let e = m.endpoint(Endpoint::Search);
        e.record(0, Some(false));
        e.record(3, Some(true));
        e.record(100, Some(true));
        let s = e.summary();
        assert_eq!(s.requests, 3);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        assert!(s.p50_micros <= s.p95_micros && s.p95_micros <= s.p99_micros);
        // 100µs lands in the (64,128] bucket → upper bound 128.
        assert_eq!(s.p99_micros, 128);
    }

    #[test]
    fn percentiles_track_distribution() {
        let m = MetricsRegistry::new();
        let e = m.endpoint(Endpoint::Recommend);
        // 90 fast samples, 10 slow: p50 small, p99 large.
        for _ in 0..90 {
            e.record(2, None);
        }
        for _ in 0..10 {
            e.record(5_000, None);
        }
        let s = e.summary();
        assert!(s.p50_micros <= 4);
        assert!(
            s.p99_micros >= 4_096,
            "tail visible at p99: {}",
            s.p99_micros
        );
        assert_eq!(s.cache_hits + s.cache_misses, 0, "bypass counts nothing");
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = EndpointMetrics::default().summary();
        assert_eq!(s.requests, 0);
        assert_eq!(s.p50_micros, 0);
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.errors, 0);
        assert_eq!(s.error_budget_remaining(), 1.0, "no traffic, full budget");
    }

    #[test]
    fn error_budget_drains_with_error_rate() {
        let m = MetricsRegistry::new();
        let e = m.endpoint(Endpoint::Search);
        for _ in 0..1_000 {
            e.record(5, None);
        }
        assert_eq!(e.summary().error_budget_remaining(), 1.0);
        // 5 errors in 1000 requests = 0.5% rate = half the 1% budget.
        for _ in 0..5 {
            e.record_error();
        }
        let s = e.summary();
        assert_eq!(s.errors, 5);
        assert!((s.error_budget_remaining() - 0.5).abs() < 1e-9);
        // Blow far past the budget: remaining clamps at zero.
        for _ in 0..100 {
            e.record_error();
        }
        assert_eq!(e.summary().error_budget_remaining(), 0.0);
    }
}
