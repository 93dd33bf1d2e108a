//! # woc-bench — the experiment harness
//!
//! Shared fixtures and table-printing helpers for the paper-reproduction
//! binaries (`src/bin/*.rs`, one per experiment id of DESIGN.md §4, plus the
//! fault- and spam-tolerance sweeps `chaos_bench` and `truth_bench`) and the
//! criterion microbenches of leaf functions (`benches/*.rs`). System
//! performance — serving, maintenance, streaming, cluster — is not measured
//! here: that is the `perf/` package declared in `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use woc_core::{PipelineConfig, WebOfConcepts};
use woc_webgen::{generate_corpus, CorpusConfig, WebCorpus, World, WorldConfig};

/// The standard experiment fixture: a medium world, its corpus, and the
/// constructed web of concepts.
pub struct Fixture {
    /// Ground truth.
    pub world: World,
    /// The synthetic web.
    pub corpus: WebCorpus,
    /// The constructed web of concepts.
    pub woc: WebOfConcepts,
}

impl std::fmt::Debug for Fixture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fixture")
            .field("pages", &self.corpus.len())
            .field("live_records", &self.woc.store.live_count())
            .finish()
    }
}

/// The pipeline configuration the experiment binaries use: defaults, with
/// the worker count overridable via the `WOC_THREADS` env var (0 = all
/// cores). Results are identical at any thread count — only timings move.
pub fn bench_pipeline_config() -> PipelineConfig {
    let threads = std::env::var("WOC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

/// Build the standard experiment fixture (deterministic).
pub fn standard_fixture() -> Fixture {
    let world = World::generate(WorldConfig::default());
    let corpus = generate_corpus(&world, &CorpusConfig::default());
    let woc = woc_core::build(&corpus, &bench_pipeline_config());
    Fixture { world, corpus, woc }
}

/// A small fixture for fast microbenches.
pub fn small_fixture(seed: u64) -> Fixture {
    let world = World::generate(WorldConfig::tiny(seed));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(seed));
    let woc = woc_core::build(&corpus, &bench_pipeline_config());
    Fixture { world, corpus, woc }
}

/// Print a section header.
pub fn header(title: &str) {
    println!();
    println!("═══ {title} ═══");
}

/// Print a paper-vs-measured comparison row.
pub fn compare_row(metric: &str, paper: f64, measured: f64) {
    let delta = measured - paper;
    println!("  {metric:<42} paper {paper:>7.3}   measured {measured:>7.3}   Δ {delta:>+7.3}");
}

/// Print a plain metric row.
pub fn metric_row(metric: &str, value: impl std::fmt::Display) {
    println!("  {metric:<42} {value}");
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fixture_builds() {
        let f = small_fixture(9);
        assert!(f.corpus.len() > 20);
        assert!(f.woc.store.live_count() > 0);
    }
}
