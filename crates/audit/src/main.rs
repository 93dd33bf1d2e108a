//! `woc-audit` — build a synthetic web of concepts and run the static
//! integrity audit over it.
//!
//! Usage:
//!
//! ```text
//! woc-audit [--small] [--json] [--threshold <0..1>]
//! ```
//!
//! Exits non-zero when any check fails, so it can gate CI.

use std::process::ExitCode;

use woc_audit::{audit, check_segments, AuditConfig};
use woc_index::MergePolicy;
use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

fn main() -> ExitCode {
    let mut small = false;
    let mut json = false;
    let mut cfg = AuditConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--json" => json = true,
            "--threshold" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("woc-audit: --threshold needs a number in [0, 1]");
                    return ExitCode::from(2);
                };
                cfg.conformance_threshold = v;
            }
            "--help" | "-h" => {
                println!("usage: woc-audit [--small] [--json] [--threshold <0..1>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("woc-audit: unknown flag {other:?} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let (world_cfg, corpus_cfg) = if small {
        (WorldConfig::tiny(7), CorpusConfig::tiny(7))
    } else {
        (WorldConfig::default(), CorpusConfig::default())
    };
    let world = World::generate(world_cfg);
    let corpus = generate_corpus(&world, &corpus_cfg);
    let woc = woc_core::build(&corpus, &woc_core::PipelineConfig::default());

    // W014 runs over the segmented view a serving snapshot would build
    // from this web — a fresh base at a merge point, so the pinned-stat
    // recomputation check gates too.
    let segments = woc.segmented_record_index(MergePolicy::default());
    let mut report = audit(&woc, &cfg);
    report.checks.push(check_segments(&woc, &segments, &cfg));

    if json {
        match serde_json::to_string_pretty(&report) {
            Ok(s) => println!("{s}"),
            Err(e) => {
                eprintln!("woc-audit: failed to serialize report: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        print!("{}", report.render());
    }

    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
