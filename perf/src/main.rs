//! `woc-perf` — the repo's benchmark: the two journeys (page change → first
//! correct answer, query → answer) measured end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- --workload all --seed 11
//! ```
//!
//! runs the five workloads, each in a fresh process, checks every output
//! against an oracle, and prints every end-to-end metric as
//! `workload metric value unit`; `--trace 1` runs them traced and prints
//! the per-layer metrics. With one workload named, the last line of
//! standard output is the result object the driver of `/BENCHMARK.json`
//! reads. See `perf/README.md`.

mod edits;
mod load;
mod metrics;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use load::quantile;
use metrics::{benchmark_json, declared, RUN_SECONDS};
use workloads::{Outcome, RunArgs, Spec, WORKLOADS};

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    repeat: usize,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: woc-perf --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
[--repeat N] [--out DIR] | --check | --print-benchmark-json";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn cli() -> Result<(Cli, bool, bool), String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 11,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        tiny: false,
        repeat: 1,
        out_dir: PathBuf::from("perf/out"),
    };
    let (mut check, mut print_json) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => cli.workload = parse(&flag, args.next())?,
            "--seed" => cli.seed = parse(&flag, args.next())?,
            "--seconds" => cli.seconds = parse(&flag, args.next())?,
            "--trace" => cli.trace = parse::<u8>(&flag, args.next())? != 0,
            "--repeat" => cli.repeat = parse(&flag, args.next())?,
            "--out" => cli.out_dir = parse(&flag, args.next())?,
            "--tiny" => cli.tiny = true,
            "--check" => check = true,
            "--print-benchmark-json" => print_json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {}", cli.seconds));
    }
    Ok((cli, check, print_json))
}

fn host_stamp(seed: u64) -> Vec<(&'static str, String)> {
    let tool = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", tool("rustc", &["--version"])),
        ("git_rev", tool("git", &["rev-parse", "--short", "HEAD"])),
        ("seed", seed.to_string()),
    ]
}

/// The driver's result object.
fn result_json(outcome: &Outcome, metrics: &[(&'static str, &'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// Run one workload in this process and print its metrics, then the result
/// object as the last line.
fn run_one(spec: &Spec, cli: &Cli) -> Result<(), String> {
    let stamp = host_stamp(cli.seed);
    let outcome = workloads::run(
        spec,
        &RunArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            tiny: cli.tiny,
            out_dir: &cli.out_dir,
            stamp: &stamp,
        },
    );
    for note in &outcome.notes {
        eprintln!("{}: {note}", spec.name);
    }
    let mut metrics = Vec::new();
    for (name, unit) in declared(cli.trace) {
        let mut values = outcome
            .metrics
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v);
        let value = values
            .next()
            .ok_or_else(|| format!("{}: {name} was not measured", spec.name))?;
        if values.next().is_some() {
            return Err(format!("{}: {name} was measured twice", spec.name));
        }
        if !value.is_finite() {
            return Err(format!("{}: {name} is not finite", spec.name));
        }
        println!("{} {name} {value} {unit}", spec.name);
        metrics.push((name, unit, value));
    }
    let json = result_json(&outcome, &metrics);
    let stamped: Vec<String> = stamp
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let file = cli.out_dir.join(format!(
        "result_{}_trace{}.json",
        spec.name,
        u8::from(cli.trace)
    ));
    // Best effort: the result on standard output is the one that counts.
    let _ = std::fs::create_dir_all(&cli.out_dir).and_then(|()| {
        std::fs::write(
            file,
            format!(
                "{{{}, \"workload\": \"{}\", \"result\": {json}}}\n",
                stamped.join(", "),
                spec.name
            ),
        )
    });
    println!("{json}");
    Ok(())
}

/// One child run's printed metrics.
struct ChildRun {
    metrics: Vec<(String, f64, String)>,
    attempted: u64,
    failed: u64,
}

/// Run one workload in a fresh process (peak memory is per process) and
/// read back the `workload metric value unit` lines it prints.
fn run_child(spec: &Spec, cli: &Cli) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cli.out_dir);
    if cli.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.name))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("{} exited with {}", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, unit] = fields[..] {
            if w == spec.name {
                let value = value
                    .parse()
                    .map_err(|_| format!("{}: bad value in {line:?}", spec.name))?;
                run.metrics
                    .push((name.to_string(), value, unit.to_string()));
            }
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let count = |key: &str| -> Result<u64, String> {
        let rest = last
            .split_once(&format!("\"{key}\": "))
            .ok_or_else(|| format!("{}: no {key} in the result object", spec.name))?
            .1;
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse()
            .map_err(|_| format!("{}: bad {key}", spec.name))
    };
    run.attempted = count("attempted")?;
    run.failed = count("failed")?;
    Ok(run)
}

fn selected(name: &str) -> Result<Vec<&'static Spec>, String> {
    if name == "all" {
        return Ok(WORKLOADS.iter().collect());
    }
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map(|w| vec![w])
        .ok_or_else(|| {
            format!(
                "unknown workload {name:?}; one of: all {}",
                workload_names()
            )
        })
}

fn workload_names() -> String {
    WORKLOADS
        .iter()
        .map(|w| w.name)
        .collect::<Vec<_>>()
        .join(" ")
}

/// `--workload all` and `--repeat N`: each run in a fresh process; with
/// repeats of the one seed, median and quartiles per metric.
fn run_many(specs: &[&'static Spec], cli: &Cli) -> Result<(), String> {
    let mut failed_in_all = 0;
    for spec in specs {
        let mut runs = Vec::new();
        for _ in 0..cli.repeat {
            runs.push(run_child(spec, cli)?);
        }
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        failed_in_all += failed;
        for (i, (name, _, unit)) in runs[0].metrics.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
            let q = |at| quantile(&values, at).expect("invariant: at least one run");
            if cli.repeat == 1 {
                println!("{} {name} {} {unit}", spec.name, values[0]);
            } else {
                let (q1, q2, q3) = (q(0.25), q(0.5), q(0.75));
                println!(
                    "{} {name} median {q2} q1 {q1} q3 {q3} spread {:.4} {unit}",
                    spec.name,
                    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
                );
            }
        }
        println!(
            "{} fail_share {} ratio",
            spec.name,
            failed as f64 / attempted.max(1) as f64
        );
    }
    if failed_in_all > 0 {
        return Err(format!("{failed_in_all} operations failed"));
    }
    Ok(())
}

/// `--check`: all five workloads on the tiny fixture, untraced and traced;
/// every declared metric printed exactly once, finite, with its unit, and
/// `/BENCHMARK.json` in step with the declared tables.
fn check(cli: &mut Cli) -> Result<(), String> {
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) if text == benchmark_json() => {}
        Ok(_) => return Err("BENCHMARK.json differs from --print-benchmark-json".to_string()),
        Err(e) => {
            return Err(format!(
                "cannot read BENCHMARK.json from the current directory: {e}"
            ))
        }
    }
    cli.tiny = true;
    cli.seconds = 0.3;
    for traced in [false, true] {
        cli.trace = traced;
        // The five children run side by side: nothing here is a
        // measurement, and it keeps the smoke test short.
        let runs: Vec<Result<ChildRun, String>> = std::thread::scope(|s| {
            let cli = &*cli;
            let children: Vec<_> = WORKLOADS
                .iter()
                .map(|spec| s.spawn(move || run_child(spec, cli)))
                .collect();
            children
                .into_iter()
                .map(|c| c.join().expect("invariant: run_child does not panic"))
                .collect()
        });
        for (spec, run) in WORKLOADS.iter().zip(runs) {
            let run = run?;
            let want = declared(traced);
            for (name, unit) in &want {
                let printed: Vec<_> = run.metrics.iter().filter(|(n, _, _)| n == name).collect();
                match printed[..] {
                    [(_, value, u)] if u == unit && value.is_finite() => {}
                    _ => {
                        return Err(format!(
                            "{} --trace {}: {name} not printed exactly once, finite, in {unit}",
                            spec.name,
                            u8::from(traced)
                        ))
                    }
                }
            }
            if run.metrics.len() != want.len() {
                return Err(format!(
                    "{}: printed {} metrics, declared {}",
                    spec.name,
                    run.metrics.len(),
                    want.len()
                ));
            }
            if run.failed > 0 {
                return Err(format!(
                    "{}: {} of {} operations failed",
                    spec.name, run.failed, run.attempted
                ));
            }
        }
    }
    println!(
        "check ok: {} workloads, {} end-to-end and {} per-layer metrics",
        WORKLOADS.len(),
        declared(false).len(),
        declared(true).len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let done = cli().and_then(|(mut cli, do_check, print_json)| {
        if print_json {
            print!("{}", benchmark_json());
            return Ok(());
        }
        if do_check {
            return check(&mut cli);
        }
        if cli.workload.is_empty() {
            return Err(USAGE.to_string());
        }
        let specs = selected(&cli.workload)?;
        if specs.len() == 1 && cli.repeat == 1 {
            run_one(specs[0], &cli)
        } else {
            run_many(&specs, &cli)
        }
    });
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("woc-perf: {why}");
            ExitCode::FAILURE
        }
    }
}
