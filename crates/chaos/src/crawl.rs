//! The resilient crawl loop: retry with seeded jittered backoff, per-site
//! circuit breakers, a content validator, and poison-page quarantine.
//!
//! The crawler walks the truth corpus in its deterministic page order and
//! simulates every fetch through a [`FaultInjector`]. Nothing sleeps:
//! injected latency, backoff delays and breaker cooldowns all accumulate
//! on a [`VirtualClock`], so a crawl is a pure function of
//! `(corpus, profile, policy, seed)`.

use std::collections::BTreeMap;

use woc_core::SiteCoverage;
use woc_webgen::{Fnv1a, WebCorpus};

use crate::backoff::{Backoff, RetryPolicy};
use crate::breaker::{BreakerState, CircuitBreaker};
use crate::fault::{mix, Delivery, FaultInjector, FaultProfile, GARBLE_LIMIT};

/// Deterministic time: microseconds that would have elapsed, accumulated
/// instead of slept.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VirtualClock {
    micros: u64,
}

impl VirtualClock {
    /// A clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in microseconds.
    pub fn now(&self) -> u64 {
        self.micros
    }

    /// Advance by `micros`.
    pub fn advance(&mut self, micros: u64) {
        self.micros = self.micros.saturating_add(micros);
    }
}

/// Why a page contributed nothing to the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The body arrived but was poisoned (truncated or garbled) on every
    /// attempt.
    Poison,
    /// No body ever arrived (timeouts, errors, down windows, open breaker).
    Undelivered,
}

/// One page the crawl had to give up on, with the reason recorded in
/// lineage by [`crate::build_resilient`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedPage {
    /// The page URL.
    pub url: String,
    /// Its site.
    pub site: String,
    /// Stable reason string (`truncated`, `garbled`, `timeout`, `http-5xx`,
    /// `site-unavailable`, `circuit-open`).
    pub reason: String,
    /// Poisoned content vs never delivered.
    pub kind: FaultKind,
}

/// Per-site crawl accounting: coverage plus breaker/retry telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReport {
    /// Expected/delivered/quarantined/failed page counts.
    pub coverage: SiteCoverage,
    /// Retries spent against this site.
    pub retries: u64,
    /// Times the site's breaker tripped open.
    pub breaker_trips: u32,
    /// Breaker state when the crawl finished.
    pub breaker_state: BreakerState,
}

/// Everything one crawl produced.
#[derive(Debug, Clone)]
pub struct CrawlOutcome {
    /// The delivered pages, in crawl order — the corpus a resilient build
    /// publishes over.
    pub corpus: WebCorpus,
    /// Pages given up on, in crawl order.
    pub quarantined: Vec<QuarantinedPage>,
    /// Per-site accounting, sorted by site.
    pub sites: Vec<SiteReport>,
    /// Total retries across all pages.
    pub retries: u64,
    /// Delivered pages that arrived damaged (lightly corrupted) and were
    /// re-parsed rather than cloned.
    pub damaged_delivered: usize,
    /// Virtual microseconds the whole crawl consumed (latency + backoff).
    pub virtual_micros: u64,
}

impl CrawlOutcome {
    /// True when every expected page was delivered.
    pub fn complete(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Pages quarantined for poisoned content.
    pub fn poisoned(&self) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.kind == FaultKind::Poison)
            .count()
    }

    /// Pages never delivered.
    pub fn undelivered(&self) -> usize {
        self.quarantined
            .iter()
            .filter(|q| q.kind == FaultKind::Undelivered)
            .count()
    }

    /// Per-site coverage rows (for [`woc_core::PipelineReport::coverage`]).
    pub fn coverage(&self) -> Vec<SiteCoverage> {
        self.sites.iter().map(|s| s.coverage.clone()).collect()
    }

    /// Patch the delivered corpus with last-known-good copies of every
    /// page the crawl could not deliver: the partial-maintenance corpus.
    /// A page missing from `last_good` too (e.g. brand new and unfetchable)
    /// stays missing. Maintenance over the patched corpus serves stale
    /// copies of unreachable pages instead of tombstoning their records.
    pub fn patched_with(&self, last_good: &WebCorpus) -> WebCorpus {
        let mut out = WebCorpus::new();
        for page in self.corpus.pages() {
            out.add(page.clone());
        }
        for q in &self.quarantined {
            if let Some(old) = last_good.get(&q.url) {
                out.add(old.clone());
            }
        }
        out
    }
}

/// Validate a delivered body: the renderer always closes the `html` root,
/// so a missing close tag means truncation; [`GARBLE_LIMIT`]+ replacement
/// characters mean the encoding was destroyed in transit.
fn validate(html: &str) -> Result<(), &'static str> {
    if !html.trim_end().ends_with("</html>") {
        return Err("truncated");
    }
    if html.chars().filter(|&c| c == '\u{FFFD}').count() >= GARBLE_LIMIT {
        return Err("garbled");
    }
    Ok(())
}

enum Verdict {
    Delivered {
        damaged: bool,
    },
    GaveUp {
        reason: &'static str,
        kind: FaultKind,
    },
}

/// Crawl `truth` under `profile`, retrying with `policy`. Deterministic
/// for fixed arguments: the same seed yields a byte-identical outcome at
/// any thread count (the crawl itself is sequential; parallelism lives in
/// the build that follows).
pub fn crawl(
    truth: &WebCorpus,
    profile: &FaultProfile,
    policy: &RetryPolicy,
    seed: u64,
) -> CrawlOutcome {
    let injector = FaultInjector::new(profile.clone(), seed);
    let mut clock = VirtualClock::new();
    let mut breakers: BTreeMap<String, CircuitBreaker> = BTreeMap::new();
    let mut site_seq: BTreeMap<String, u64> = BTreeMap::new();
    let mut tallies: BTreeMap<String, (SiteCoverage, u64)> = BTreeMap::new();

    let mut corpus = WebCorpus::new();
    let mut quarantined = Vec::new();
    let mut retries_total = 0u64;
    let mut damaged_delivered = 0usize;

    for page in truth.pages() {
        let breaker = breakers.entry(page.site.clone()).or_insert_with(|| {
            CircuitBreaker::new(policy.breaker_threshold, policy.breaker_cooldown_micros)
        });
        let (tally, site_retries) = tallies.entry(page.site.clone()).or_insert_with(|| {
            (
                SiteCoverage {
                    site: page.site.clone(),
                    ..SiteCoverage::default()
                },
                0,
            )
        });
        tally.expected += 1;

        let mut backoff = Backoff::new(policy, mix(seed, Fnv1a::of(&page.url)));
        let verdict = loop {
            if !breaker.allows(clock.now()) {
                break Verdict::GaveUp {
                    reason: "circuit-open",
                    kind: FaultKind::Undelivered,
                };
            }
            let seq = site_seq.entry(page.site.clone()).or_insert(0);
            let attempt_seq = *seq;
            *seq += 1;
            let (latency, result) = injector.fetch(page, backoff.attempts() - 1, attempt_seq);
            clock.advance(latency);
            let (failure_reason, failure_kind) = match result {
                Ok(Delivery::Clean(p)) => {
                    breaker.record_success();
                    corpus.add(p);
                    break Verdict::Delivered { damaged: false };
                }
                Ok(Delivery::Raw(html)) => match validate(&html) {
                    Ok(()) => {
                        breaker.record_success();
                        corpus.add(page.with_html(&html));
                        break Verdict::Delivered { damaged: true };
                    }
                    Err(reason) => (reason, FaultKind::Poison),
                },
                Err(e) => (e.reason(), FaultKind::Undelivered),
            };
            breaker.record_failure(clock.now());
            match backoff.next_delay() {
                Some(delay) => {
                    retries_total += 1;
                    *site_retries += 1;
                    clock.advance(delay);
                }
                None => {
                    break Verdict::GaveUp {
                        reason: failure_reason,
                        kind: failure_kind,
                    }
                }
            }
        };

        match verdict {
            Verdict::Delivered { damaged } => {
                tally.delivered += 1;
                if damaged {
                    damaged_delivered += 1;
                }
            }
            Verdict::GaveUp { reason, kind } => {
                match kind {
                    FaultKind::Poison => tally.quarantined += 1,
                    FaultKind::Undelivered => tally.failed += 1,
                }
                quarantined.push(QuarantinedPage {
                    url: page.url.clone(),
                    site: page.site.clone(),
                    reason: reason.to_string(),
                    kind,
                });
            }
        }
    }

    let sites = tallies
        .into_iter()
        .map(|(site, (coverage, site_retries))| {
            let breaker = &breakers[&site];
            SiteReport {
                coverage,
                retries: site_retries,
                breaker_trips: breaker.trips(),
                breaker_state: breaker.state(),
            }
        })
        .collect();

    CrawlOutcome {
        corpus,
        quarantined,
        sites,
        retries: retries_total,
        damaged_delivered,
        virtual_micros: clock.now(),
    }
}
