//! The declared metrics: names, units, directions and bounds. This table is
//! the single source for what a run prints, what `--check` demands, and
//! what `/BENCHMARK.json` lists (`--print-benchmark-json` renders the file
//! from it, `--check` fails if the committed file differs).

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

/// How long one run measures, in seconds: what the driver passes as
/// `--seconds`, and what the phase shares and round counts are sized for.
pub const RUN_SECONDS: u32 = 12;

#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the system sees; every workload reports every one
/// (`workloads.rs` says which statistic of a phase each is). The timing
/// bounds are the contract's cap: on this shared 2-vCPU guest they spread by
/// 5–20 % between runs, and a bound under twice the spread would gate on the
/// host, not on the program.
pub const END_TO_END: [EndToEnd; 5] = [
    // Set-up only: cold build + memo warm, server construction, cache warm
    // pass; median of three to five set-ups. Input generation and the oracle are
    // excluded (`webgen.generate_s`, `verify.oracle_s`).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Closed loop, one client; best of ≈ 0.05 s slices.
    EndToEnd {
        name: "read_qps",
        unit: "answers/s",
        better: "higher",
        bound: 0.25,
    },
    // Open loop at the workload's gated rate, latency from the due time.
    // Reads on their own: p50 of the best slice of 1 250 requests in which
    // the generator kept its schedule. Reads beside a stream: median of the
    // half-second slices' p50.
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    // Crawl hand-over → first served answer showing the new ground truth;
    // median over every round of the run.
    EndToEnd {
        name: "freshness_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    // VmHWM at workload end; each workload is its own process.
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

#[derive(Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Single-layer metrics of a traced run; the README's glossary says which
/// end-to-end metric each should move. One that a workload's writer cannot
/// measure reads 0 there (`workloads::DIRECT_ONLY`, `STREAM_ONLY`).
pub const PER_LAYER: [PerLayer; 65] = [
    layer("webgen.generate_s", "s", "lower"),
    layer("webgen.fingerprint_ns_per_page", "ns", "lower"),
    layer("core.build_s", "s", "lower"),
    layer("core.build_pages_per_s", "pages/s", "higher"),
    layer("core.extract_us_per_page", "us", "lower"),
    layer("core.trust_compute_ms", "ms", "lower"),
    layer("matching.block_ms", "ms", "lower"),
    layer("matching.score_ns_per_pair", "ns", "lower"),
    layer("incr.changes_ms", "ms", "lower"),
    layer("incr.maintain_ms_p50", "ms", "lower"),
    layer("incr.maintain_ms_max", "ms", "lower"),
    layer("incr.replay_share", "ratio", "lower"),
    layer("incr.pages_dirty", "count", "lower"),
    layer("incr.pages_reextracted", "count", "lower"),
    layer("incr.pairs_rescored", "count", "lower"),
    layer("incr.postings_patched", "count", "lower"),
    layer("incr.segment_merges", "count", "lower"),
    layer("incr.reextract_per_dirty", "ratio", "lower"),
    layer("incr.canonical_bytes_ms", "ms", "lower"),
    layer("incr.snapshot_clone_ms", "ms", "lower"),
    layer("index.parse_ns", "ns", "lower"),
    layer("index.search_us_p50", "us", "lower"),
    layer("index.search_us_p99", "us", "lower"),
    layer("index.flat_search_us_p50", "us", "lower"),
    layer("index.delta_segments", "count", "lower"),
    layer("index.compact_ms", "ms", "lower"),
    layer("apps.hydrate_us", "us", "lower"),
    layer("apps.concept_box_us", "us", "lower"),
    layer("apps.recommend_us", "us", "lower"),
    layer("serve.hit_rate", "ratio", "higher"),
    layer("serve.hit_us_p50", "us", "lower"),
    layer("serve.miss_us_p50", "us", "lower"),
    layer("serve.overhead_us", "us", "lower"),
    // p99 over every request of the gated open-loop phase. Not end to end:
    // on this host it spreads by 50-260 % between runs of one commit (a
    // bare 15 us spin reads 0.3-4 ms), and 25 % is the widest bound allowed.
    layer("read_p99_us", "us", "lower"),
    layer("serve.p99_us_lo", "us", "lower"),
    layer("serve.p99_us_hi", "us", "lower"),
    layer("serve.max_rate_ok", "req/s", "higher"),
    layer("serve.over_limit_share", "ratio", "lower"),
    layer("serve.publish_ms_p50", "ms", "lower"),
    layer("serve.cache_retained_share", "ratio", "higher"),
    layer("serve.first_answer_us", "us", "lower"),
    layer("serve.new_ms", "ms", "lower"),
    // Page events handed to the stream ÷ time until they are visible. Not
    // end to end: only `mixed_stream` streams, every workload must report
    // every end-to-end metric and none may read 0; and with one round in
    // flight it is events per round ÷ freshness, which is gated.
    layer("ingest_events_per_s", "events/s", "higher"),
    layer("stream.events_in", "count", "higher"),
    layer("stream.dedup_share", "ratio", "higher"),
    layer("stream.micro_epochs", "count", "lower"),
    layer("stream.effective_epochs", "count", "lower"),
    layer("stream.publish_took_ms_p50", "ms", "lower"),
    layer("stream.publish_cadence_ms", "ms", "lower"),
    layer("stream.commit_busy_share", "ratio", "lower"),
    layer("stream.source_blocked_share", "ratio", "lower"),
    layer("stream.read_p99_us_during", "us", "lower"),
    layer("stream.read_p99_us_between", "us", "lower"),
    layer("cluster.build_ms", "ms", "lower"),
    layer("cluster.search_us_p50", "us", "lower"),
    layer("cluster.overhead_x", "x", "lower"),
    // Nearest-rank p90 and the maximum of the rounds' freshness: where a
    // merge, a compaction or a slow publish shows. Not end to end: over 20
    // to 48 rounds the p90 spread by more than 25 % between ten runs of one
    // commit in 7 of 40 workload cells, so it would gate on the host.
    layer("freshness_p90_ms", "ms", "lower"),
    layer("freshness_max_ms", "ms", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.backlog_end", "count", "lower"),
    layer("gen.valid_slice_share", "ratio", "higher"),
    layer("trace.read_overhead_share", "ratio", "lower"),
    layer("trace.write_overhead_share", "ratio", "lower"),
    layer("verify.oracle_s", "s", "lower"),
    layer("verify.checked_ops", "count", "higher"),
];

/// `(name, unit)` of every metric a run with `--trace <traced>` reports.
pub fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// `/BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn declared_names_and_units_meet_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n, 64), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let distinct: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used once");
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(well_formed(u, 16), "{u}");
            assert!(
                u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
