//! Fault profiles and the seeded fault injector.
//!
//! Every fault decision is a pure function of `(fault seed, page URL,
//! attempt number)` — plus `(site, availability window)` for flapping — so
//! two crawls with the same seed inject byte-identical faults regardless
//! of thread count or wall-clock time.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use woc_webgen::{Fnv1a, Page};

/// Deterministically combine two 64-bit values into an RNG seed.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(31)
}

/// Salt separating flapping rolls from per-fetch rolls.
const FLAP_SALT: u64 = 0x666c_6170;

/// How a simulated fetch fails without delivering anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// The fetch exceeded its deadline.
    Timeout,
    /// The site answered with a transient server error.
    Http5xx,
    /// The site is in a down window of its availability flap.
    Unavailable,
}

impl FetchError {
    /// Stable reason string recorded in lineage quarantine nodes.
    pub fn reason(self) -> &'static str {
        match self {
            FetchError::Timeout => "timeout",
            FetchError::Http5xx => "http-5xx",
            FetchError::Unavailable => "site-unavailable",
        }
    }
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// What a non-failing simulated fetch delivered.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// The page arrived exactly as published (no content fault rolled) —
    /// handed over without an HTML round-trip, so a fault-free crawl
    /// reproduces the truth corpus byte-for-byte.
    Clean(Page),
    /// The page arrived as damaged HTML bytes the crawler must validate
    /// and re-parse.
    Raw(String),
}

/// A configurable mix of crawl faults. Rates are per-fetch probabilities;
/// a page's rolls are independent across attempts, so retries can succeed.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Display name for reports and benches.
    pub name: &'static str,
    /// Probability a fetch times out.
    pub timeout_rate: f64,
    /// Virtual microseconds a timed-out fetch burns before failing.
    pub timeout_micros: u64,
    /// Probability of a transient 5xx-style fetch error.
    pub error_rate: f64,
    /// Probability the response body arrives truncated.
    pub truncate_rate: f64,
    /// Probability the response body arrives with byte-level corruption
    /// (encoding garbage); light corruption is delivered, heavy corruption
    /// is quarantined by the crawler's validator.
    pub corrupt_rate: f64,
    /// Fetches per availability window; `0` disables flapping.
    pub flap_period: u64,
    /// Probability a given availability window is a down window.
    pub flap_duty: f64,
    /// Base injected latency per fetch, in virtual microseconds.
    pub latency_micros: u64,
    /// Latency jitter fraction: actual latency is `base * (1 + jitter*u)`.
    pub latency_jitter: f64,
    /// Fraction of sites whose fault rates are doubled — the long-tail
    /// heterogeneity of real site populations.
    pub flaky_site_fraction: f64,
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self {
            name: "custom",
            timeout_rate: 0.0,
            timeout_micros: 2_000_000,
            error_rate: 0.0,
            truncate_rate: 0.0,
            corrupt_rate: 0.0,
            flap_period: 0,
            flap_duty: 0.0,
            latency_micros: 0,
            latency_jitter: 0.0,
            flaky_site_fraction: 0.0,
        }
    }
}

impl FaultProfile {
    /// No faults at all: the crawl must reproduce the truth corpus exactly.
    pub fn none() -> Self {
        Self {
            name: "none",
            ..Self::default()
        }
    }

    /// Per-site fetch timeouts.
    pub fn timeouts() -> Self {
        Self {
            name: "timeouts",
            timeout_rate: 0.15,
            flaky_site_fraction: 0.3,
            ..Self::default()
        }
    }

    /// Transient 5xx-style fetch errors.
    pub fn transient_errors() -> Self {
        Self {
            name: "transient-errors",
            error_rate: 0.2,
            flaky_site_fraction: 0.3,
            ..Self::default()
        }
    }

    /// Truncated HTML bodies.
    pub fn truncation() -> Self {
        Self {
            name: "truncation",
            truncate_rate: 0.12,
            ..Self::default()
        }
    }

    /// Byte-level corruption / encoding garbage.
    pub fn corruption() -> Self {
        Self {
            name: "corruption",
            corrupt_rate: 0.15,
            ..Self::default()
        }
    }

    /// Flapping site availability: whole windows of fetches fail.
    pub fn flapping() -> Self {
        Self {
            name: "flapping",
            flap_period: 4,
            flap_duty: 0.3,
            ..Self::default()
        }
    }

    /// Slow responses: heavy injected latency, no failures.
    pub fn slow() -> Self {
        Self {
            name: "slow",
            latency_micros: 50_000,
            latency_jitter: 1.0,
            ..Self::default()
        }
    }

    /// Every fault class at once, scaled by `rate` (the chaos-bench sweep
    /// knob): `rate` is the per-fetch probability of each failure class.
    pub fn everything(rate: f64) -> Self {
        Self {
            name: "everything",
            timeout_rate: rate,
            error_rate: rate,
            truncate_rate: rate,
            corrupt_rate: rate,
            flap_period: 6,
            flap_duty: rate,
            latency_micros: 5_000,
            latency_jitter: 0.5,
            flaky_site_fraction: 0.25,
            ..Self::default()
        }
    }

    /// Every shipped profile, for exhaustive chaos suites.
    pub fn all() -> Vec<FaultProfile> {
        vec![
            Self::none(),
            Self::timeouts(),
            Self::transient_errors(),
            Self::truncation(),
            Self::corruption(),
            Self::flapping(),
            Self::slow(),
            Self::everything(0.15),
        ]
    }
}

/// Number of U+FFFD replacement characters at which the crawler's
/// validator declares a delivered body garbled and quarantines the page.
pub const GARBLE_LIMIT: usize = 12;

/// The seeded injector wrapping the fetch boundary.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    profile: FaultProfile,
    seed: u64,
}

impl FaultInjector {
    /// An injector applying `profile` with all rolls keyed on `seed`.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// The profile being injected.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// True when this site drew the doubled fault rates.
    pub fn site_is_flaky(&self, site: &str) -> bool {
        if self.profile.flaky_site_fraction <= 0.0 {
            return false;
        }
        StdRng::seed_from_u64(mix(self.seed, Fnv1a::of(site)))
            .random_bool(self.profile.flaky_site_fraction.min(1.0))
    }

    fn site_rate(&self, rate: f64, site: &str) -> f64 {
        if self.site_is_flaky(site) {
            (rate * 2.0).min(0.95)
        } else {
            rate
        }
    }

    /// Whether `site` is in a down window at per-site fetch `site_seq`.
    fn flapped_down(&self, site: &str, site_seq: u64) -> bool {
        if self.profile.flap_period == 0 || self.profile.flap_duty <= 0.0 {
            return false;
        }
        let window = site_seq / self.profile.flap_period;
        StdRng::seed_from_u64(mix(self.seed ^ FLAP_SALT, mix(Fnv1a::of(site), window)))
            .random_bool(self.site_rate(self.profile.flap_duty, site).min(1.0))
    }

    /// Simulate fetching `page` on its `attempt`-th try (0-based), with
    /// `site_seq` the site's monotone fetch counter (flapping windows).
    /// Returns the virtual microseconds the fetch consumed and its result.
    /// Deterministic in all arguments plus the injector seed.
    pub fn fetch(
        &self,
        page: &Page,
        attempt: u32,
        site_seq: u64,
    ) -> (u64, Result<Delivery, FetchError>) {
        let mut rng =
            StdRng::seed_from_u64(mix(self.seed, mix(Fnv1a::of(&page.url), attempt as u64)));
        let latency = {
            let u: f64 = rng.random();
            let jittered = self.profile.latency_micros as f64
                * (1.0 + self.profile.latency_jitter.max(0.0) * u);
            jittered as u64
        };
        if self.flapped_down(&page.site, site_seq) {
            return (latency, Err(FetchError::Unavailable));
        }
        if rng.random_bool(
            self.site_rate(self.profile.timeout_rate, &page.site)
                .min(1.0),
        ) {
            return (
                latency.saturating_add(self.profile.timeout_micros),
                Err(FetchError::Timeout),
            );
        }
        if rng.random_bool(self.site_rate(self.profile.error_rate, &page.site).min(1.0)) {
            return (latency, Err(FetchError::Http5xx));
        }
        if rng.random_bool(
            self.site_rate(self.profile.truncate_rate, &page.site)
                .min(1.0),
        ) {
            return (
                latency,
                Ok(Delivery::Raw(truncate(&page.to_html(), &mut rng))),
            );
        }
        if rng.random_bool(
            self.site_rate(self.profile.corrupt_rate, &page.site)
                .min(1.0),
        ) {
            return (
                latency,
                Ok(Delivery::Raw(corrupt(&page.to_html(), &mut rng))),
            );
        }
        (latency, Ok(Delivery::Clean(page.clone())))
    }
}

/// Cut the body somewhere in its middle (char-boundary safe). The renderer
/// always emits a trailing `</html>` close tag, so any cut strips it and
/// the crawler's validator can detect the damage.
fn truncate(html: &str, rng: &mut StdRng) -> String {
    if html.len() < 8 {
        return String::new();
    }
    let lo = html.len() / 5;
    let hi = html.len() * 4 / 5;
    let mut cut = rng.random_range(lo..hi.max(lo + 1));
    while cut > 0 && !html.is_char_boundary(cut) {
        cut -= 1;
    }
    html[..cut].to_string()
}

/// Replace a rolled number of characters with U+FFFD encoding garbage,
/// sparing the trailing close tag so corruption is not misread as
/// truncation. Light corruption (below [`GARBLE_LIMIT`] replacements) is
/// delivered to the pipeline; heavy corruption trips the validator.
fn corrupt(html: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = html.chars().collect();
    if chars.len() < 16 {
        return html.to_string();
    }
    let k: usize = rng.random_range(4..=32);
    let span = chars.len() - 8;
    for _ in 0..k {
        let idx = rng.random_range(0..span);
        chars[idx] = '\u{FFFD}';
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    fn sample_page() -> Page {
        let world = World::generate(WorldConfig::tiny(7));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(3));
        corpus.pages()[0].clone()
    }

    #[test]
    fn fetch_is_deterministic_per_seed_url_attempt() {
        let page = sample_page();
        let inj = FaultInjector::new(FaultProfile::everything(0.3), 42);
        for attempt in 0..4 {
            let (la, ra) = inj.fetch(&page, attempt, 0);
            let (lb, rb) = inj.fetch(&page, attempt, 0);
            assert_eq!(la, lb);
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
        }
        let (_, r0) = inj.fetch(&page, 0, 0);
        let other = FaultInjector::new(FaultProfile::everything(0.3), 43);
        let (_, r1) = other.fetch(&page, 0, 0);
        // Different seeds *may* coincide on one page; over several attempts
        // the streams must diverge.
        let a: Vec<String> = (0..8)
            .map(|i| format!("{:?}", inj.fetch(&page, i, 0).1))
            .collect();
        let b: Vec<String> = (0..8)
            .map(|i| format!("{:?}", other.fetch(&page, i, 0).1))
            .collect();
        assert!(a != b || format!("{r0:?}") == format!("{r1:?}"));
    }

    #[test]
    fn quiet_profile_always_delivers_clean() {
        let page = sample_page();
        let inj = FaultInjector::new(FaultProfile::none(), 42);
        for attempt in 0..8 {
            let (latency, r) = inj.fetch(&page, attempt, attempt as u64);
            assert_eq!(latency, 0);
            match r {
                Ok(Delivery::Clean(p)) => assert_eq!(p, page),
                other => panic!("quiet profile must deliver clean, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_strips_the_close_tag() {
        let page = sample_page();
        let html = page.to_html();
        assert!(html.ends_with("</html>"), "renderer closes the root");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let cut = truncate(&html, &mut rng);
            assert!(!cut.ends_with("</html>"), "any cut strips the close tag");
            assert!(cut.len() < html.len());
        }
    }

    #[test]
    fn corruption_spares_the_tail_and_injects_garbage() {
        let page = sample_page();
        let html = page.to_html();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let damaged = corrupt(&html, &mut rng);
            assert!(damaged.ends_with("</html>"), "tail spared");
            assert!(damaged.chars().any(|c| c == '\u{FFFD}'));
        }
    }

    #[test]
    fn flapping_is_window_based_per_site() {
        let page = sample_page();
        let inj = FaultInjector::new(FaultProfile::flapping(), 5);
        // Within one window every fetch agrees; across many windows both
        // up and down windows occur.
        let mut down_windows = 0;
        let mut up_windows = 0;
        for w in 0..40u64 {
            let seq = w * 4;
            let first = matches!(inj.fetch(&page, 0, seq).1, Err(FetchError::Unavailable));
            for off in 1..4 {
                let again = matches!(
                    inj.fetch(&page, 0, seq + off).1,
                    Err(FetchError::Unavailable)
                );
                assert_eq!(first, again, "availability constant within a window");
            }
            if first {
                down_windows += 1;
            } else {
                up_windows += 1;
            }
        }
        assert!(down_windows > 0, "some windows are down");
        assert!(up_windows > 0, "some windows are up");
    }

    #[test]
    fn slow_profile_injects_latency_without_failures() {
        let page = sample_page();
        let inj = FaultInjector::new(FaultProfile::slow(), 5);
        let (latency, r) = inj.fetch(&page, 0, 0);
        assert!(latency >= 50_000, "base latency applies");
        assert!(latency <= 100_000, "jitter at most doubles it");
        assert!(matches!(r, Ok(Delivery::Clean(_))));
    }
}
