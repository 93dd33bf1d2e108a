//! The five workloads and the phases they are made of.
//!
//! Every workload runs both journeys — query → answer, and page change →
//! first correct answer — because the benchmark contract wants every
//! end-to-end metric from every workload. What differs is which journey
//! gets the shaped input and most of the run: the other one runs at a
//! fixed reference shape (hot reads, small edits) as a control. A workload
//! has one writer, though: a per-layer metric that only the other writer
//! could measure reads 0 ([`DIRECT_ONLY`], [`STREAM_ONLY`]).
//!
//! The sandbox is a shared 2-vCPU guest: a 15 µs spin through the open
//! loop below reads a whole-phase p99 anywhere from 260 µs to 4 ms within a
//! minute (the README has the probe). What a statistic can see here depends
//! on the size of what it measures:
//!
//! * write rounds take 0.1–0.6 s, far above the host's stalls, so the
//!   write-side metrics are taken over **every round of the run** (median
//!   and p90) and a merge or compaction spike shows;
//! * reads beside the stream stall for milliseconds at every publish, so
//!   `mixed_stream` reports the **median of its half-second slices**, each
//!   of which holds two or three publishes;
//! * reads on their own take 15–50 µs and no writer runs beside them, so
//!   their tail is the host's: those phases are cut into slices (≈ 0.05 s of
//!   closed loop, 1 250 requests of open loop), run in chunks between the
//!   run's set-ups, and the **best slice in which the generator kept its
//!   schedule** is reported. Interference only ever makes a slice worse; a
//!   change to the program moves every slice.
//!
//! The tail of the reads (`read_p99_us`) is taken over every request of the
//! gated phase and is a per-layer metric: no statistic of it repeats within
//! the widest bound the contract allows (the README has the measurements).

use std::cell::Cell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::edits::{self, EditMix, Round};
use crate::load::{
    closed_loop, median, ns_to_f64, open_loop, percentile, quantile, Clock, OpenStats, Rng,
    Schedule, WallClock, Zipf,
};
use crate::sut::{
    self, Cluster, Corpus, Engine, Event, Extractor, Fixture, Maintained, Parsed, Reply, Request,
    Scale, Server, Stream,
};
use crate::trace::Tracer;

/// Forms each hot name is asked in; form 0 is the plain search.
const HOT_FORMS: usize = 5;

/// Zipf exponent of the hot pool: skewed, but flat enough that no single
/// name's length decides a run's median latency.
const HOT_SKEW: f64 = 0.6;

/// Open-loop rate of the reader beside a stream, in requests/s.
const STREAM_READ_RATE: u64 = 2_000;

/// Per-layer metrics that come from a direct writer's traced rounds. The
/// benchmark contract wants every per-layer metric from every traced run,
/// so a streamed workload reports them as 0.
const DIRECT_ONLY: [&str; 16] = [
    "core.extract_us_per_page",
    "incr.changes_ms",
    "incr.maintain_ms_p50",
    "incr.maintain_ms_max",
    "incr.replay_share",
    "incr.pages_dirty",
    "incr.pages_reextracted",
    "incr.pairs_rescored",
    "incr.postings_patched",
    "incr.segment_merges",
    "incr.reextract_per_dirty",
    "incr.snapshot_clone_ms",
    "serve.publish_ms_p50",
    "serve.first_answer_us",
    "serve.cache_retained_share",
    "trace.write_overhead_share",
];

/// Per-layer metrics only a stream run yields; 0 on a direct workload.
const STREAM_ONLY: [&str; 11] = [
    "ingest_events_per_s",
    "stream.events_in",
    "stream.dedup_share",
    "stream.micro_epochs",
    "stream.effective_epochs",
    "stream.publish_took_ms_p50",
    "stream.publish_cadence_ms",
    "stream.commit_busy_share",
    "stream.source_blocked_share",
    "stream.read_p99_us_during",
    "stream.read_p99_us_between",
];

/// Which read keys a workload draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pool {
    /// 256 names × 5 forms, Zipf-skewed: fits the result cache.
    Hot,
    /// Every name × 10 forms in one cycled permutation: reuse distance
    /// exceeds the cache, so every request misses, inserts and evicts.
    Cold,
}

/// How page changes reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// Whole crawls through `maintain_and_publish`, one at a time.
    Direct(EditMix),
    /// Page events through the stream engine, beside an open-loop reader.
    Stream,
}

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    scale: Scale,
    pool: Pool,
    writer: Writer,
    /// Shares of `--seconds` given to the closed and the open read loop.
    closed_share: f64,
    open_share: f64,
    /// Open-loop ladder in requests/s; the middle rate is the gated one.
    rates: [u64; 3],
    /// p99 limit in µs: a rate that misses it is not sustained, and the
    /// gated rate missing it is a failed operation. Sized to the host, not
    /// to the program: about ten times today's p99.
    limit_us: u64,
    /// Write rounds per second of `--seconds` (fixed counts, so the
    /// program's own work counters repeat exactly for a seed).
    rounds_per_second: f64,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "read_hot",
        why: "Read keys fit the result cache (~100% hits): parse, key and shard lock are all the work, so a cheaper hit path shows here and nowhere else.",
        scale: Scale::Std,
        pool: Pool::Hot,
        writer: Writer::Direct(EditMix::Small { closures: false }),
        closed_share: 0.25,
        open_share: 0.3,
        rates: [10_000, 25_000, 40_000],
        limit_us: 500,
        rounds_per_second: 2.5,
    },
    Spec {
        name: "read_cold",
        why: "Distinct read keys outnumber the cache (~0% hits): index and apps do the work and the cache only pays inserts and evictions, so a hit-path gain that taxes inserts shows as a loss.",
        scale: Scale::X2,
        pool: Pool::Cold,
        writer: Writer::Direct(EditMix::Small { closures: false }),
        closed_share: 0.25,
        open_share: 0.3,
        rates: [4_000, 8_000, 12_000],
        limit_us: 5_000,
        // Twenty rounds: with fewer, p90 is the second-slowest round.
        rounds_per_second: 1.7,
    },
    Spec {
        name: "write_small",
        why: "One restaurant edited per crawl (~3 dirty pages of ~970): the pass is almost all replay over the untouched corpus, so delta-proportional maintenance shows here.",
        scale: Scale::Std,
        pool: Pool::Hot,
        writer: Writer::Direct(EditMix::Small { closures: true }),
        closed_share: 0.12,
        open_share: 0.2,
        rates: [10_000, 25_000, 40_000],
        limit_us: 500,
        rounds_per_second: 4.0,
    },
    Spec {
        name: "write_bulk",
        why: "Half the restaurants edited per crawl: extraction and pair rescoring are a large share, so per-change state that wins on small deltas but loses to replay shows as a loss.",
        scale: Scale::Std,
        pool: Pool::Hot,
        writer: Writer::Direct(EditMix::Bulk),
        closed_share: 0.12,
        open_share: 0.2,
        rates: [10_000, 25_000, 40_000],
        limit_us: 500,
        rounds_per_second: 2.0,
    },
    Spec {
        name: "mixed_stream",
        why: "Micro-epochs stream into the server while an open-loop reader runs: publish settle, cache retention and core contention land on read p99, a read shortcut that slows publishing on freshness.",
        scale: Scale::Std,
        pool: Pool::Hot,
        writer: Writer::Stream,
        closed_share: 0.2,
        open_share: 0.0,
        // One rate, not a ladder: the reader runs beside the stream.
        rates: [STREAM_READ_RATE; 3],
        // Less than one maintenance pass: readers held up for a whole pass
        // miss it, readers held up for a publish (≈ 15 ms) do not.
        limit_us: 100_000,
        rounds_per_second: 2.25,
    },
];

#[derive(Debug)]
pub struct RunArgs<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `--check`: the tiny fixture in place of the workload's own.
    pub tiny: bool,
    pub out_dir: &'a Path,
    /// Host facts stamped into the trace file.
    pub stamp: &'a [(&'static str, String)],
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric this run measured, by declared name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Why operations failed, and which open-loop phases were invalid.
    pub notes: Vec<String>,
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn timed<T>(clock: &WallClock, f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = clock.now_ns();
    let out = f();
    (out, clock.now_ns() - t0)
}

// ── read side ─────────────────────────────────────────────────────────────

/// A workload's distinct read requests, their reference answers, and the
/// order they are asked in.
struct ReadPool {
    requests: Vec<Request>,
    expected: Vec<String>,
    order: Vec<u32>,
    cursor: usize,
}

impl ReadPool {
    /// With `restaurant_free`, only names whose top hits include no
    /// restaurant are used and no form filters to restaurants: while edits
    /// stream in, a restaurant's record is briefly inconsistent (one page
    /// new, one old), which perturbs the ranking of anything it appears in.
    fn build(
        kind: Pool,
        names: &[String],
        oracle: &Server,
        restaurant_free: bool,
        rng: &mut Rng,
    ) -> Self {
        let mut names = names.to_vec();
        if restaurant_free {
            names.retain(|n| {
                !oracle
                    .execute(&Request::search(n, 8))
                    .mentions_concept("restaurant")
            });
        }
        rng.shuffle(&mut names);
        let mut requests = Vec::new();
        let order = match kind {
            Pool::Hot => {
                names.truncate(256);
                // Three of the five forms are searches. A search hit costs
                // ≈ 10× a concept-box hit (query interpretation), so with an
                // even split the median latency would sit between the two
                // modes and flip with the seed.
                for n in &names {
                    requests.push(Request::search(n, 5));
                    requests.push(if restaurant_free {
                        Request::search(n, 8)
                    } else {
                        Request::search(&format!("{n} is:restaurant"), 8)
                    });
                    requests.push(Request::search(n, 10));
                    requests.push(Request::concept_box(n));
                    requests.push(Request::recommend(n, 3));
                }
                // Rank = position: a name's forms sit on adjacent ranks, so
                // the hot head is the same mix of forms whatever the seed.
                let zipf = Zipf::new(requests.len(), HOT_SKEW);
                (0..1 << 16).map(|_| zipf.sample(rng) as u32).collect()
            }
            Pool::Cold => {
                // The fixture has far fewer distinct names than the cache
                // has entries, so each is asked in ten forms that all do
                // real work: result size is part of the cache key.
                for n in &names {
                    requests.push(Request::concept_box(n));
                    requests.push(Request::recommend(n, 3));
                    for k in [3, 5, 8, 10, 15, 20] {
                        requests.push(Request::search(n, k));
                    }
                    for k in [8, 20] {
                        requests.push(Request::search(&format!("{n} is:restaurant"), k));
                    }
                }
                let mut order: Vec<u32> = (0..requests.len() as u32).collect();
                rng.shuffle(&mut order);
                order
            }
        };
        let expected = requests
            .iter()
            .map(|r| oracle.execute(r).render())
            .collect();
        ReadPool {
            requests,
            expected,
            order,
            cursor: 0,
        }
    }

    fn next(&mut self) -> u32 {
        let q = self.order[self.cursor];
        self.cursor = (self.cursor + 1) % self.order.len();
        q
    }

    /// Ask every distinct request once, in asking order, and start over:
    /// the cache is then in the state one full cycle leaves it in, so on a
    /// pool larger than the cache the next request asked is the one evicted
    /// longest ago.
    fn warm(&mut self, server: &Server) {
        let mut seen = vec![false; self.requests.len()];
        for &q in &self.order {
            if !std::mem::replace(&mut seen[q as usize], true) {
                server.execute(&self.requests[q as usize]);
            }
        }
        self.cursor = 0;
    }

    /// Compare a batch of replies with the reference answers, outside any
    /// timed window. Replies sharing a payload with an already verified
    /// reply to the same request (cache hits) are covered by that check.
    fn verify(&self, batch: &[(u32, Reply)], tally: &mut Tally) -> usize {
        let mut verified: HashMap<u32, usize> = HashMap::new();
        let mut hits = 0;
        for (i, (q, reply)) in batch.iter().enumerate() {
            hits += usize::from(reply.cached());
            let known = verified
                .get(q)
                .is_some_and(|&j| reply.same_payload(&batch[j].1));
            let ok = known || reply.render() == self.expected[*q as usize];
            if ok && !known {
                verified.insert(*q, i);
            }
            tally.check(ok, || {
                format!("read {q}: answer differs from the reference")
            });
        }
        hits
    }
}

/// What one open-loop phase reported.
#[derive(Default)]
struct OpenReport {
    p50_us: f64,
    p99_us: f64,
    /// p99 over every request of the phase, the host's stalls included.
    whole_p99_us: f64,
    /// Generator lateness over the whole phase, valid slices or not.
    late_p99_us: f64,
    backlog_end: usize,
    /// Share of the phase's slices in which the generator kept its
    /// schedule; the reported numbers come from those.
    valid_share: f64,
}

#[derive(Default)]
struct ReadStats {
    requests: usize,
    hits: usize,
    over_limit: usize,
    /// Closed loop: answers/s per slice, untraced and traced.
    qps: Vec<f64>,
    traced_qps: Vec<f64>,
    /// The open-loop phase at the workload's gated rate.
    gated: OpenReport,
}

fn over_limit(latency_ns: &[u64], limit_us: u64) -> usize {
    latency_ns.iter().filter(|&&l| l > limit_us * 1_000).count()
}

/// Closed loop, one client: `slices` back-to-back slices of `slice_s`,
/// each verified after it ends. With `tracer` on, every 64th call is
/// recorded as a `serve.execute` span.
fn read_closed(
    server: &Server,
    pool: &mut ReadPool,
    slices: usize,
    slice_s: f64,
    tracer: &mut Tracer,
    stats: &mut ReadStats,
    tally: &mut Tally,
) {
    let clock = WallClock::start();
    let mut batch: Vec<(u32, Reply)> = Vec::new();
    for _ in 0..slices {
        batch.clear();
        let deadline = clock.now_ns() + (slice_s * 1e9) as u64;
        let (n, took) = closed_loop(&clock, deadline, |i| {
            let q = pool.next();
            let reply = if tracer.enabled() && i % 64 == 0 {
                tracer.span("serve.execute", i as u64, |_| {
                    server.execute(&pool.requests[q as usize])
                })
            } else {
                server.execute(&pool.requests[q as usize])
            };
            batch.push((q, reply));
        });
        let qps = n as f64 / secs(took);
        if tracer.enabled() {
            stats.traced_qps.push(qps);
        } else {
            stats.qps.push(qps);
        }
        stats.requests += n;
        stats.hits += pool.verify(&batch, tally);
    }
}

/// One open-loop phase: slices of `slice_s` at `rate`, run in chunks
/// between the set-ups and judged once all have run.
struct OpenPhase {
    rate: u64,
    slice_s: f64,
    /// p99 limit in µs; missing it is a failed operation when `gated`.
    limit_us: u64,
    /// The workload's gated rate: the outer ladder rates are context and
    /// may miss the limit.
    gated: bool,
    /// False on the `--check` fixture, which measures nothing and so has no
    /// validity to lose.
    judged: bool,
    /// Per slice run so far: (p50 in µs, p99 in µs, valid).
    slices: Vec<(f64, f64, bool)>,
    latency_ns: Vec<u64>,
    late_ns: Vec<u64>,
    backlog_end: usize,
}

impl OpenPhase {
    /// Run `n` more slices on the calling thread. A slice is valid when the
    /// generator kept its schedule in it: lateness p99 within a tenth of
    /// the gap and nothing still queued at its end.
    fn run(
        &mut self,
        n: usize,
        server: &Server,
        pool: &mut ReadPool,
        stats: &mut ReadStats,
        tally: &mut Tally,
    ) {
        let clock = WallClock::start();
        let mut batch: Vec<(u32, Reply)> = Vec::new();
        for _ in 0..n {
            batch.clear();
            let schedule =
                Schedule::fixed_rate(clock.now_ns() + 1_000_000, self.rate, self.slice_s);
            batch.reserve(schedule.count);
            let open = open_loop(
                &clock,
                schedule,
                || true,
                |_| {
                    let q = pool.next();
                    batch.push((q, server.execute(&pool.requests[q as usize])));
                },
            );
            stats.requests += batch.len();
            stats.hits += pool.verify(&batch, tally);
            stats.over_limit += over_limit(&open.latency_ns, self.limit_us);
            // No verdict on a slice too short for a p99 (the `--check` fixture).
            let on_time = percentile(&open.late_ns, 99.0).is_none_or(|l| l * 10 <= schedule.gap_ns);
            self.slices.push((
                med_us(&open.latency_ns),
                tail_us(&open.latency_ns, 99.0),
                !self.judged || (on_time && open.backlog_end == 0),
            ));
            self.backlog_end += open.backlog_end;
            self.latency_ns.extend(open.latency_ns);
            self.late_ns.extend(open.late_ns);
        }
    }

    /// The best p50 and the best p99 among the valid slices. With none the
    /// phase is invalid (at the gated rate a failed operation, at an outer
    /// one a rate not sustained) and the best of all slices is printed.
    fn report(&self, tally: &mut Tally) -> OpenReport {
        let valid = self.slices.iter().filter(|s| s.2).count();
        if self.gated {
            tally.check(valid > 0, || {
                format!(
                    "invalid open-loop phase at {}/s: the generator kept its schedule in no slice",
                    self.rate
                )
            });
        }
        let of = |pick: fn(&(f64, f64, bool)) -> f64| {
            let kept = self.slices.iter().filter(|s| s.2 || valid == 0).map(pick);
            kept.fold(f64::INFINITY, f64::min)
        };
        let report = OpenReport {
            p50_us: of(|s| s.0),
            p99_us: of(|s| s.1),
            whole_p99_us: tail_us(&self.latency_ns, 99.0),
            late_p99_us: tail_us(&self.late_ns, 99.0),
            backlog_end: self.backlog_end,
            valid_share: valid as f64 / self.slices.len().max(1) as f64,
        };
        if self.gated && self.judged {
            tally.check(report.p99_us <= self.limit_us as f64, || {
                format!(
                    "read p99 {:.0}µs at {}/s is over the limit of {}µs",
                    report.p99_us, self.rate, self.limit_us
                )
            });
        }
        report
    }
}

// ── write side ────────────────────────────────────────────────────────────

#[derive(Default)]
struct WriteStats {
    /// Per round: ns from the hand-over until the first served answer
    /// showed the round's ground truth.
    fresh_ns: Vec<u64>,
    /// Traced runs: freshness of the rounds run whole and of those taken
    /// apart, for the tracing overhead.
    whole_ms: Vec<f64>,
    apart_ms: Vec<f64>,
    pages_dirty: usize,
    pages_reextracted: usize,
    pairs_rescored: usize,
    postings_patched: usize,
    segment_merges: usize,
    /// Traced rounds only: what recomputing the change cost on its own.
    extract_ns: u64,
    extract_pages: usize,
    apart_pairs_rescored: usize,
    retained: Vec<f64>,
}

impl WriteStats {
    /// Hand-over → first correct answer, per round, in ms.
    fn fresh_ms(&self) -> Vec<f64> {
        self.fresh_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// Closed loop over whole crawls: round *k+1* is handed over only after
/// round *k*'s probe has been verified. Freshness runs from the hand-over
/// to the first answer showing the round's ground truth. In a traced run
/// every second round replaces `maintain_and_publish` by the public calls
/// it is made of, with a span each.
fn write_direct(
    engine: &mut Engine,
    server: &Server,
    corpus: &mut Corpus,
    rounds: &[Round],
    tracer: &mut Tracer,
    stats: &mut WriteStats,
    tally: &mut Tally,
) {
    let clock = WallClock::start();
    let extractor = Extractor::new();
    for (k, round) in rounds.iter().enumerate() {
        corpus.apply(&round.delta);
        let apart = tracer.enabled() && k % 2 == 1;
        let rid = k as u64;
        let mut cache_before = 0;
        if apart {
            let dirty = tracer.span("incr.changes", rid, |_| engine.changed_urls(corpus));
            let t0 = clock.now_ns();
            tracer.span("core.extract", rid, |_| extractor.extract(corpus, &dirty));
            stats.extract_ns += clock.now_ns() - t0;
            stats.extract_pages += dirty.len();
            cache_before = server.cache_len();
        }
        let t0 = clock.now_ns();
        let (pass, reply) = if apart {
            tracer.span("write.round", rid, |t| {
                let pass = t.span("incr.maintain", rid, |_| engine.maintain(corpus));
                let pass = pass.inspect(|pass| {
                    let snap = t.span("incr.snapshot_clone", rid, |_| engine.snapshot_clone());
                    t.span("serve.publish", rid, |_| server.publish(snap, pass));
                });
                (
                    pass,
                    t.span("serve.first_answer", rid, |_| server.execute(&round.probe)),
                )
            })
        } else {
            (
                engine.maintain_and_publish(corpus, server),
                server.execute(&round.probe),
            )
        };
        let took = clock.now_ns() - t0;
        match pass {
            Ok(pass) => {
                tally.check(round.expect.met_by(&reply), || {
                    format!("write round {k}: first answer does not show the new ground truth")
                });
                stats.pages_dirty += pass.pages_dirty();
                stats.pages_reextracted += pass.pages_reextracted();
                stats.pairs_rescored += pass.pairs_rescored();
                stats.postings_patched += pass.postings_patched();
                stats.segment_merges += pass.segment_merges();
                if apart {
                    stats.apart_pairs_rescored += pass.pairs_rescored();
                    if cache_before > 0 {
                        stats
                            .retained
                            .push(server.cache_len() as f64 / cache_before as f64);
                    }
                }
            }
            Err(e) => tally.check(false, || format!("write round {k}: pass failed: {e}")),
        }
        let ms = took as f64 / 1e6;
        if tracer.enabled() {
            if apart {
                &mut stats.apart_ms
            } else {
                &mut stats.whole_ms
            }
            .push(ms);
        }
        stats.fresh_ns.push(took);
    }
}

/// Rounds the stream source may run ahead of the last visible one. One
/// makes the stream a closed loop like the direct workloads: freshness is one
/// pass through the dataflow, not the drain time of a backlog. (A round's
/// extraction is a few ms against a pass of ≈ 150 ms, so nothing is lost by
/// not overlapping them.)
const STREAM_WINDOW: usize = 1;

/// A probe gives up on a round this long after it was handed over.
const GIVE_UP_NS: u64 = 5_000_000_000;

/// `visible_ns` value of a round no probe ever saw.
const NEVER: u64 = u64::MAX;

struct StreamOutcome {
    wall_ns: u64,
    unpulled_ns: u64,
    /// Page events of the rounds that became visible.
    events: u64,
    stats: sut::StreamStats,
    writes: WriteStats,
    reads: OpenStats,
    read_hits: usize,
    /// Per read: completed inside a publish window?
    during: Vec<bool>,
}

impl StreamOutcome {
    /// The reader's side of the run: the concurrent phase is cut into
    /// half-second slices by completion time and the median slice is
    /// reported. The reader shares two cores with the stream's six threads,
    /// so its lateness is the contention this workload exists to measure,
    /// not a generator fault, and it ends right after the last publish
    /// stalled it, so it always ends some requests behind. A slice is valid
    /// when its median latency is within one gap — the reader had caught up
    /// with its schedule for most of it — and the phase when most are: a
    /// backlog that grows drags every later median past the gap.
    fn read_report(
        &self,
        limit_us: u64,
        judged: bool,
        stats: &mut ReadStats,
        tally: &mut Tally,
    ) -> OpenReport {
        let r = &self.reads;
        let gap_us = 1e6 / STREAM_READ_RATE as f64;
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        let mut from = 0;
        while from < r.done_ns.len() {
            let until = r.done_ns[from] + 500_000_000;
            let to = from + r.done_ns[from..].partition_point(|&t| t < until);
            // A last, short slice would have too thin a tail.
            if to - from >= 500 || p99s.is_empty() {
                p50s.push(med_us(&r.latency_ns[from..to]));
                p99s.push(tail_us(&r.latency_ns[from..to], 99.0));
            }
            from = to;
        }
        stats.over_limit += over_limit(&r.latency_ns, limit_us);
        stats.requests += r.latency_ns.len();
        stats.hits += self.read_hits;
        let report = OpenReport {
            p50_us: med(&p50s),
            p99_us: med(&p99s),
            whole_p99_us: tail_us(&r.latency_ns, 99.0),
            late_p99_us: tail_us(&r.late_ns, 99.0),
            backlog_end: r.backlog_end,
            valid_share: p50s.iter().filter(|&&p| p <= gap_us).count() as f64
                / p50s.len().max(1) as f64,
        };
        if judged {
            tally.check(report.valid_share > 0.5, || {
                format!(
                    "invalid open-loop phase: the reader kept up with {STREAM_READ_RATE}/s in \
                     {:.0}% of its slices",
                    100.0 * report.valid_share
                )
            });
            tally.check(report.p99_us <= limit_us as f64, || {
                format!(
                    "read p99 {:.0}µs beside the stream is over the limit of {limit_us}µs",
                    report.p99_us
                )
            });
        }
        report
    }
}

/// The event source: each round's changed pages (the one that closes the
/// micro-epoch last), then a seeded quarter of the pages no round touches
/// (recrawled unchanged, so they dedup at the fingerprint stage). A round
/// is released once the round [`STREAM_WINDOW`] before it is visible.
/// Records when each round was handed over and how long the engine left
/// the source un-pulled.
struct Source<'a> {
    clock: WallClock,
    base: &'a Corpus,
    changed: Vec<std::vec::IntoIter<Event>>,
    unchanged: &'a [Vec<usize>],
    round: usize,
    at: usize,
    handed_ns: &'a [AtomicU64],
    visible_ns: &'a [AtomicU64],
    unpulled_ns: &'a AtomicU64,
    last_return_ns: u64,
}

impl Iterator for Source<'_> {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        self.unpulled_ns
            .fetch_add(self.clock.now_ns() - self.last_return_ns, Ordering::Relaxed);
        let event = loop {
            let Some(changed) = self.changed.get_mut(self.round) else {
                break None;
            };
            if let Some(e) = changed.next() {
                if self.handed_ns[self.round].load(Ordering::Relaxed) == 0 {
                    if let Some(gate) = self.round.checked_sub(STREAM_WINDOW) {
                        while self.visible_ns[gate].load(Ordering::Acquire) == 0 {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                    }
                    // Release: the reader must see the hand-over time before
                    // it can see the round's effect.
                    self.handed_ns[self.round].store(self.clock.now_ns().max(1), Ordering::Release);
                }
                break Some(e);
            }
            if let Some(&i) = self.unchanged[self.round].get(self.at) {
                self.at += 1;
                break Some(self.base.recrawl(i));
            }
            self.round += 1;
            self.at = 0;
        };
        self.last_return_ns = self.clock.now_ns();
        event
    }
}

/// Stream the rounds through `stream` into `server` while one reader thread
/// runs an open loop at [`STREAM_READ_RATE`]: 60% hot searches, 30% other forms, 10%
/// probes for the oldest edit not yet visible. Freshness runs from the
/// moment the source yields a round's first changed page to the first probe
/// showing its value.
fn write_stream(
    stream: &mut Stream,
    server: &Server,
    corpus: &mut Corpus,
    rounds: &[Round],
    pool: &ReadPool,
    rng: &mut Rng,
    tally: &mut Tally,
) -> StreamOutcome {
    // Pages no round touches: recrawling them is a guaranteed no-op.
    let touched: std::collections::HashSet<&str> =
        rounds.iter().flat_map(|r| r.delta.urls()).collect();
    let stable: Vec<usize> = (0..corpus.pages())
        .filter(|&i| !touched.contains(corpus.url(i)))
        .collect();
    let unchanged: Vec<Vec<usize>> = rounds
        .iter()
        .map(|_| {
            (0..stable.len() / 4)
                .map(|_| stable[rng.below(stable.len())])
                .collect()
        })
        .collect();
    // 0 = hot search, 1 = other form, 2 = probe.
    let kinds: Vec<u8> = (0..4096)
        .map(|_| match rng.below(10) {
            0..=5 => 0,
            6..=8 => 1,
            _ => 2,
        })
        .collect();
    let forms = HOT_FORMS as u32;
    let searches: Vec<u32> = (0..pool.requests.len() as u32)
        .filter(|q| q % forms == 0)
        .collect();
    let others: Vec<u32> = (0..pool.requests.len() as u32)
        .filter(|q| q % forms != 0)
        .collect();
    let zipf = Zipf::new(searches.len(), HOT_SKEW);
    let picks: Vec<(u32, u32)> = (0..4096)
        .map(|_| (searches[zipf.sample(rng)], others[rng.below(others.len())]))
        .collect();

    let clock = WallClock::start();
    let handed_ns: Vec<AtomicU64> = rounds.iter().map(|_| AtomicU64::new(0)).collect();
    let visible_ns: Vec<AtomicU64> = rounds.iter().map(|_| AtomicU64::new(0)).collect();
    let unpulled_ns = AtomicU64::new(0);
    let mut batch: Vec<(u32, Reply)> = Vec::new();

    let start = clock.now_ns();
    let (stats, wall_ns, reads) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            // The oldest round no probe has seen yet; the loop ends once
            // every round is visible or given up on.
            let oldest = Cell::new(0);
            let schedule = Schedule::fixed_rate(start, STREAM_READ_RATE, 600.0);
            open_loop(
                &clock,
                schedule,
                || oldest.get() < rounds.len(),
                |i| {
                    let (hot, other) = picks[i % picks.len()];
                    let kind = kinds[i % kinds.len()];
                    let k = oldest.get();
                    let handed = handed_ns[k].load(Ordering::Acquire);
                    if kind == 2 && handed != 0 {
                        let reply = server.execute(&rounds[k].probe);
                        let now = clock.now_ns();
                        if rounds[k].expect.met_by(&reply) {
                            visible_ns[k].store(now, Ordering::Release);
                            oldest.set(k + 1);
                        } else if now - handed > GIVE_UP_NS {
                            visible_ns[k].store(NEVER, Ordering::Release);
                            oldest.set(k + 1);
                        }
                    } else {
                        let q = if kind == 1 { other } else { hot };
                        batch.push((q, server.execute(&pool.requests[q as usize])));
                    }
                },
            )
        });
        let source = Source {
            clock,
            base: &*corpus,
            changed: rounds
                .iter()
                .map(|r| r.delta.events().into_iter())
                .collect(),
            unchanged: &unchanged,
            round: 0,
            at: 0,
            handed_ns: &handed_ns,
            visible_ns: &visible_ns,
            unpulled_ns: &unpulled_ns,
            last_return_ns: start,
        };
        let stats = stream.run(source, server);
        let wall_ns = clock.now_ns() - start;
        let reads = reader
            .join()
            .expect("invariant: the reader thread does not panic");
        (stats, wall_ns, reads)
    });
    for round in rounds {
        corpus.apply(&round.delta);
    }
    let read_hits = pool.verify(&batch, tally);

    // One round is in flight at a time, so a round's own time is all the
    // time its events took.
    let mut writes = WriteStats::default();
    let mut events = 0;
    for (k, (handed, visible)) in handed_ns.iter().zip(&visible_ns).enumerate() {
        let (handed, visible) = (
            handed.load(Ordering::Relaxed),
            visible.load(Ordering::Relaxed),
        );
        tally.check(visible != NEVER, || {
            format!("stream round {k}: edit never became visible")
        });
        if visible != NEVER {
            events += (rounds[k].delta.len() + unchanged[k].len()) as u64;
            writes.fresh_ns.push(visible - handed);
        }
    }
    tally.check(stats.unpublished == 0, || {
        format!("stream left {} changes unpublished", stats.unpublished)
    });
    let windows: Vec<(u64, u64)> = stats
        .publish_at
        .iter()
        .zip(&stats.publish_took)
        .map(|(at, took)| {
            let end = start + at.as_nanos() as u64;
            (end.saturating_sub(took.as_nanos() as u64), end)
        })
        .collect();
    let during = reads
        .done_ns
        .iter()
        .map(|&t| windows.iter().any(|&(a, b)| t >= a && t <= b))
        .collect();
    StreamOutcome {
        wall_ns,
        unpulled_ns: unpulled_ns.load(Ordering::Relaxed),
        events,
        stats,
        writes,
        reads,
        read_hits,
        during,
    }
}

// ── the run ───────────────────────────────────────────────────────────────

/// One program set-up: cold build + memo warm, server construction, and
/// the cache warm pass. Returns the pieces and their times in seconds.
fn set_up(corpus: &Corpus, warm: Option<&mut ReadPool>) -> (Engine, Server, [f64; 3]) {
    let clock = WallClock::start();
    let (engine, build_ns) = timed(&clock, || Engine::new(corpus));
    let (server, new_ns) = timed(&clock, || engine.serve());
    let ((), warm_ns) = timed(&clock, || {
        if let Some(pool) = warm {
            pool.warm(&server);
        }
    });
    (
        engine,
        server,
        [secs(build_ns), secs(new_ns), secs(warm_ns)],
    )
}

fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// p-th percentile in µs; on a sample set too small for the ten-beyond
/// rule (the `--check` fixture), its maximum.
fn tail_us(samples_ns: &[u64], p: f64) -> f64 {
    percentile(samples_ns, p)
        .or_else(|| samples_ns.iter().copied().max())
        .unwrap_or(0) as f64
        / 1e3
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

/// The best slice of a metric where higher is better (see the module docs).
fn highest(slices: &[f64]) -> f64 {
    quantile(slices, 1.0).unwrap_or(0.0)
}

fn med_us(samples_ns: &[u64]) -> f64 {
    med(&ns_to_f64(samples_ns)) / 1e3
}

pub fn run(spec: &Spec, args: &RunArgs) -> Outcome {
    let clock = WallClock::start();
    let mut rng = Rng::new(args.seed ^ 0x5EED_0FBE);
    let mut tally = Tally::default();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tracer = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let scale = if args.tiny { Scale::Tiny } else { spec.scale };
    let streamed = spec.writer == Writer::Stream;
    let s = args.seconds;
    let n_rounds = ((spec.rounds_per_second * s).round() as usize).max(2);

    // Inputs and the first set-up. The warm pass of this one is timed once
    // the read pool exists.
    let mut gen_ns = 0;
    let ((mut fixture, base), ns) = timed(&clock, || {
        let f = Fixture::generate(scale);
        let c = f.crawl();
        (f, c)
    });
    gen_ns += ns;
    let (first, first_server, mut first_s) = set_up(&base, None);

    // Reference answers come from a cache-disabled server over the first
    // set-up's web.
    let (oracle, mut oracle_ns) = timed(&clock, || first.serve_uncached());
    let names = oracle.record_values("name");
    let (mut pool, ns) = timed(&clock, || {
        ReadPool::build(spec.pool, &names, &oracle, streamed, &mut rng)
    });
    oracle_ns += ns;
    let (rounds, ns) = timed(&clock, || {
        let mut targets = edits::probeable(&fixture, &oracle);
        rng.shuffle(&mut targets);
        let (mix, n) = match spec.writer {
            Writer::Direct(mix) => (mix, n_rounds),
            // A streamed round needs a restaurant of its own.
            Writer::Stream => (
                EditMix::Small { closures: false },
                n_rounds.min(targets.len().saturating_sub(2)),
            ),
        };
        edits::generate(&mut fixture, &base, &targets, mix, n, streamed, &mut rng).0
    });
    gen_ns += ns;
    drop(oracle);

    let ((), warm_ns) = timed(&clock, || pool.warm(&first_server));
    first_s[2] = secs(warm_ns);
    drop((first, first_server));
    // Query → answer, in chunks between the set-ups: five set-ups on `std`,
    // three on the larger and the `--check` fixtures, the first of which
    // came before there was anything to ask. Spread over the whole of the
    // set-up time, the best slice meets more of the host's moods than one
    // stretch of three seconds would.
    let n_set_ups = if scale == Scale::Std { 5 } else { 3 };
    let chunks = n_set_ups - 1;
    let mut reads = ReadStats::default();
    // Both loops run as many short slices, each verified after it ends.
    let closed = ((spec.closed_share * s / 0.05 / chunks as f64).round() as usize).max(1);
    let slice_s = spec.closed_share * s / (closed * chunks) as f64;
    // In a traced run a third of the closed slices are traced: the
    // difference is what tracing costs the closed loop.
    let closed_traced = if args.trace { closed.div_ceil(3) } else { 0 };
    // 1 250 requests per open slice: enough for a p99 with ten samples
    // beyond it, short enough (50 ms at 25 k/s) that some slices fall
    // between the host's hiccups. An untraced run spends the phase on the
    // gated rate; a traced one gives each ladder rate a third of it. (A
    // streamed workload's open loop runs beside its stream instead.)
    let rates = match (streamed, args.trace) {
        (true, _) => &[][..],
        (false, true) => &spec.rates[..],
        (false, false) => &spec.rates[1..2],
    };
    let requests = spec.open_share * s * spec.rates[1] as f64;
    let open =
        ((requests / 1_250.0 / (chunks * rates.len().max(1)) as f64).round() as usize).max(1);
    let mut ladder: Vec<OpenPhase> = rates
        .iter()
        .map(|&rate| OpenPhase {
            rate,
            slice_s: spec.open_share * s / (open * chunks * rates.len()) as f64,
            limit_us: spec.limit_us,
            gated: rate == spec.rates[1],
            judged: !args.tiny,
            slices: Vec::new(),
            latency_ns: Vec::new(),
            late_ns: Vec::new(),
            backlog_end: 0,
        })
        .collect();
    let mut off = Tracer::off();
    let mut set_ups = vec![first_s];
    let (mut engine, server) = loop {
        let (engine, server, t) = set_up(&base, Some(&mut pool));
        set_ups.push(t);
        read_closed(
            &server,
            &mut pool,
            closed - closed_traced,
            slice_s,
            &mut off,
            &mut reads,
            &mut tally,
        );
        read_closed(
            &server,
            &mut pool,
            closed_traced,
            slice_s,
            &mut tracer,
            &mut reads,
            &mut tally,
        );
        for phase in &mut ladder {
            phase.run(open, &server, &mut pool, &mut reads, &mut tally);
        }
        if set_ups.len() == n_set_ups {
            break (engine, server);
        }
    };
    let totals: Vec<f64> = set_ups.iter().map(|t| t.iter().sum()).collect();
    let piece = |i: usize| med(&set_ups.iter().map(|t| t[i]).collect::<Vec<_>>());
    m.push(("core.build_s", piece(0)));
    m.push(("core.build_pages_per_s", base.pages() as f64 / piece(0)));
    m.push(("serve.new_ms", 1e3 * piece(1)));
    m.push(("webgen.generate_s", secs(gen_ns)));
    // Per ladder rate: (rate, p99 in µs, sustained?).
    let mut rungs: Vec<(u64, f64, bool)> = Vec::new();
    for phase in &ladder {
        let report = phase.report(&mut tally);
        let sustained = report.valid_share > 0.0 && report.p99_us <= spec.limit_us as f64;
        rungs.push((phase.rate, report.p99_us, sustained));
        if phase.gated {
            reads.gated = report;
        }
    }

    // Page change → first correct answer: whole crawls through the engine,
    // or page events through a stream that adopts it.
    let mut corpus = base.clone();
    let mut direct = WriteStats::default();
    if !streamed {
        write_direct(
            &mut engine,
            &server,
            &mut corpus,
            &rounds,
            &mut tracer,
            &mut direct,
            &mut tally,
        );
    }
    if args.trace {
        let mut layers = Layers {
            m: &mut m,
            tracer: &mut tracer,
            tally: &mut tally,
            clock,
        };
        layers.read_battery(&engine.serve(), &pool);
        let score_ns = layers.engine_side(&engine, &corpus);
        layers.cluster_side(&engine, &corpus, &pool);
        if streamed {
            for name in DIRECT_ONLY {
                layers.put(name, 0.0);
            }
        } else {
            layers.write_rounds(&direct, score_ns);
            for name in STREAM_ONLY {
                layers.put(name, 0.0);
            }
        }
    }
    let mut adopt_s = 0.0;
    let (maintained, streamed_out): (Box<dyn Maintained>, Option<StreamOutcome>) = if streamed {
        // A streamed workload's set-up ends with the adoption.
        let (mut stream, ns) = timed(&clock, || Stream::adopt(engine, &corpus));
        adopt_s = secs(ns);
        let out = write_stream(
            &mut stream,
            &server,
            &mut corpus,
            &rounds,
            &pool,
            &mut rng,
            &mut tally,
        );
        reads.gated = out.read_report(spec.limit_us, !args.tiny, &mut reads, &mut tally);
        let g = &reads.gated;
        rungs.push((
            STREAM_READ_RATE,
            g.p99_us,
            g.valid_share > 0.5 && g.p99_us <= spec.limit_us as f64,
        ));
        (Box::new(stream), Some(out))
    } else {
        (Box::new(engine), None)
    };
    let fresh_ms = streamed_out
        .as_ref()
        .map_or(&direct, |out| &out.writes)
        .fresh_ms();
    m.push(("setup_s", med(&totals) + adopt_s));
    m.push(("read_qps", highest(&reads.qps)));
    m.push(("read_p50_us", reads.gated.p50_us));
    m.push(("freshness_p50_ms", med(&fresh_ms)));

    // The maintained web must be the web a from-scratch build of the final
    // crawl gives, and pass the integrity audit.
    let ((), ns) = timed(&clock, || {
        tally.check(maintained.matches_rebuild(&corpus), || {
            "maintained web differs from a from-scratch build of the final crawl".to_string()
        });
        tally.check(maintained.audit_clean(), || {
            "integrity audit failed".to_string()
        });
    });
    m.push(("verify.oracle_s", secs(oracle_ns + ns)));

    if args.trace {
        let mut layers = Layers {
            m: &mut m,
            tracer: &mut tracer,
            tally: &mut tally,
            clock,
        };
        if let Some(out) = &streamed_out {
            layers.stream_side(out);
        }
        layers.read_side(&reads, &rungs, &fresh_ms);
        let path = args.out_dir.join(format!("trace_{}.json", spec.name));
        let mut header: Vec<(&str, String)> = args.stamp.to_vec();
        header.push(("workload", spec.name.to_string()));
        if let Err(e) = std::fs::create_dir_all(args.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)))
        {
            tally
                .notes
                .push(format!("trace not written to {}: {e}", path.display()));
        }
    }
    m.push(("rss_peak_mb", rss_peak_mb()));
    m.push(("verify.checked_ops", tally.attempted as f64));
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        notes: tally.notes,
    }
}

// ── per-layer numbers (traced runs) ───────────────────────────────────────

/// Run `call` in a span and add its duration to `total_ns`.
fn step<T>(
    t: &mut Tracer,
    clock: &WallClock,
    total_ns: &mut u64,
    name: &'static str,
    request_id: u64,
    call: impl FnOnce() -> T,
) -> T {
    let t0 = clock.now_ns();
    let out = t.span(name, request_id, |_| call());
    *total_ns += clock.now_ns() - t0;
    out
}

struct Layers<'a> {
    m: &'a mut Vec<(&'static str, f64)>,
    tracer: &'a mut Tracer,
    tally: &'a mut Tally,
    clock: WallClock,
}

impl Layers<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.m.push((name, value));
    }

    fn span_med_us(&self, name: &str) -> f64 {
        med_us(&self.tracer.durations_ns(name))
    }

    /// On a fresh server: each distinct request once (a miss, with its
    /// insert), once more (a hit), then the public calls a miss is made of.
    /// Index searches repeat until there are enough samples for a p99.
    fn read_battery(&mut self, server: &Server, pool: &ReadPool) {
        let path = server.read_path();
        let (t, clock) = (&mut *self.tracer, self.clock);
        let mut overhead_us = Vec::new();
        let sample: Vec<&Request> = pool.requests.iter().take(2048).collect();
        let mut searches = 0;
        let mut pass = 0;
        while pass == 0 || (searches > 0 && searches < 1_100) {
            for (i, r) in sample.iter().enumerate() {
                let rid = i as u64;
                let (mut miss_ns, mut parts_ns) = (0, 0);
                if pass == 0 {
                    step(t, &clock, &mut miss_ns, "serve.miss", rid, || {
                        server.execute(r)
                    });
                    t.span("serve.hit", rid, |_| server.execute(r));
                }
                let parsed = step(t, &clock, &mut parts_ns, "index.parse", rid, || {
                    path.parse(r)
                });
                let hits = if matches!(parsed, Parsed::Search(..)) {
                    step(t, &clock, &mut parts_ns, "index.search", rid, || {
                        path.search(&parsed)
                    })
                } else {
                    None
                };
                searches += usize::from(hits.is_some());
                if pass > 0 {
                    continue;
                }
                if let Some(hits) = &hits {
                    step(t, &clock, &mut parts_ns, "apps.hydrate", rid, || {
                        path.hydrate(hits)
                    });
                    t.span("index.flat_search", rid, |_| path.flat_search(&parsed));
                }
                if matches!(parsed, Parsed::ConceptBox(_)) {
                    step(t, &clock, &mut parts_ns, "apps.concept_box", rid, || {
                        path.concept_box(&parsed)
                    });
                }
                if let Some(anchor) = path.anchor(&parsed) {
                    step(t, &clock, &mut parts_ns, "apps.recommend", rid, || {
                        path.recommend(anchor)
                    });
                }
                overhead_us.push((miss_ns as f64 - parts_ns as f64) / 1e3);
            }
            pass += 1;
        }
        self.put("serve.miss_us_p50", self.span_med_us("serve.miss"));
        self.put("serve.hit_us_p50", self.span_med_us("serve.hit"));
        self.put("serve.overhead_us", med(&overhead_us));
        self.put("index.parse_ns", 1e3 * self.span_med_us("index.parse"));
        let search = self.tracer.durations_ns("index.search");
        self.put("index.search_us_p50", med_us(&search));
        self.put("index.search_us_p99", tail_us(&search, 99.0));
        self.put(
            "index.flat_search_us_p50",
            self.span_med_us("index.flat_search"),
        );
        self.put("apps.hydrate_us", self.span_med_us("apps.hydrate"));
        self.put("apps.concept_box_us", self.span_med_us("apps.concept_box"));
        self.put("apps.recommend_us", self.span_med_us("apps.recommend"));
    }

    /// One-off shadows on the set-up's engine: each layer's share of a
    /// maintenance pass, on its own. Returns ns per pair scored.
    fn engine_side(&mut self, engine: &Engine, corpus: &Corpus) -> f64 {
        let t = &mut *self.tracer;
        for _ in 0..5 {
            t.span("webgen.fingerprint", 0, |_| sut::fingerprint_pages(corpus));
            t.span("core.trust_compute", 0, |_| engine.trust_recompute());
        }
        let matcher = engine.matcher();
        let mut pairs = Vec::new();
        for _ in 0..5 {
            pairs = t.span("matching.block", 0, |_| matcher.block());
        }
        let reps = (20_000 / pairs.len().max(1)).max(1);
        t.span("matching.score", 0, |_| {
            (0..reps).map(|_| matcher.score(&pairs)).sum::<f64>()
        });
        t.span("incr.canonical_bytes", 0, |_| engine.canonical_len());
        let delta_segments = engine.delta_segments();
        t.span("index.compact", 0, |_| engine.compact_clone());

        self.put(
            "webgen.fingerprint_ns_per_page",
            1e3 * self.span_med_us("webgen.fingerprint") / corpus.pages() as f64,
        );
        self.put(
            "core.trust_compute_ms",
            self.span_med_us("core.trust_compute") / 1e3,
        );
        self.put(
            "matching.block_ms",
            self.span_med_us("matching.block") / 1e3,
        );
        let score_ns = self.tracer.durations_ns("matching.score")[0] as f64
            / (reps * pairs.len().max(1)) as f64;
        self.put("matching.score_ns_per_pair", score_ns);
        self.put(
            "incr.canonical_bytes_ms",
            self.span_med_us("incr.canonical_bytes") / 1e3,
        );
        self.put("index.delta_segments", delta_segments as f64);
        self.put("index.compact_ms", self.span_med_us("index.compact") / 1e3);
        score_ns
    }

    /// What a direct writer's rounds, whole and taken apart, yield
    /// ([`DIRECT_ONLY`]).
    fn write_rounds(&mut self, w: &WriteStats, score_ns: f64) {
        let extract_us = w.extract_ns as f64 / 1e3 / w.extract_pages.max(1) as f64;
        let maintain = self.tracer.durations_ns("incr.maintain");
        let explained_ns = w.extract_ns as f64 + w.apart_pairs_rescored as f64 * score_ns;
        let maintain_ns: f64 = maintain.iter().sum::<u64>() as f64;
        self.put("core.extract_us_per_page", extract_us);
        self.put("incr.changes_ms", self.span_med_us("incr.changes") / 1e3);
        self.put("incr.maintain_ms_p50", med_us(&maintain) / 1e3);
        self.put(
            "incr.maintain_ms_max",
            maintain.iter().copied().max().unwrap_or(0) as f64 / 1e6,
        );
        self.put(
            "incr.replay_share",
            1.0 - explained_ns / maintain_ns.max(1.0),
        );
        self.put("incr.pages_dirty", w.pages_dirty as f64);
        self.put("incr.pages_reextracted", w.pages_reextracted as f64);
        self.put("incr.pairs_rescored", w.pairs_rescored as f64);
        self.put("incr.postings_patched", w.postings_patched as f64);
        self.put("incr.segment_merges", w.segment_merges as f64);
        self.put(
            "incr.reextract_per_dirty",
            w.pages_reextracted as f64 / w.pages_dirty.max(1) as f64,
        );
        self.put(
            "incr.snapshot_clone_ms",
            self.span_med_us("incr.snapshot_clone") / 1e3,
        );
        self.put(
            "serve.publish_ms_p50",
            self.span_med_us("serve.publish") / 1e3,
        );
        self.put(
            "serve.first_answer_us",
            self.span_med_us("serve.first_answer"),
        );
        self.put("serve.cache_retained_share", med(&w.retained));
        let (whole, apart) = (med(&w.whole_ms), med(&w.apart_ms));
        self.put(
            "trace.write_overhead_share",
            (apart - whole) / whole.max(1e-9),
        );
    }

    fn stream_side(&mut self, o: &StreamOutcome) {
        let st = &o.stats;
        let wall = secs(o.wall_ns).max(1e-9);
        let took_ms: Vec<f64> = st
            .publish_took
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        let cadence_ms = match (st.publish_at.first(), st.publish_at.last()) {
            (Some(a), Some(b)) if st.publish_at.len() > 1 => {
                (*b - *a).as_secs_f64() * 1e3 / (st.publish_at.len() - 1) as f64
            }
            _ => wall * 1e3,
        };
        let split = |want: bool| -> f64 {
            let ns: Vec<u64> = o
                .reads
                .latency_ns
                .iter()
                .zip(&o.during)
                .filter(|(_, &d)| d == want)
                .map(|(&l, _)| l)
                .collect();
            tail_us(&ns, 99.0)
        };
        // One round is in flight at a time, so the rounds' own times add up
        // to all the time their events took.
        let busy_ns: u64 = o.writes.fresh_ns.iter().sum();
        self.put(
            "ingest_events_per_s",
            o.events as f64 / secs(busy_ns.max(1)),
        );
        self.put("stream.events_in", st.events_in as f64);
        self.put(
            "stream.dedup_share",
            st.deduped as f64 / st.events_in.max(1) as f64,
        );
        self.put("stream.micro_epochs", st.micro_epochs as f64);
        self.put("stream.effective_epochs", st.effective_epochs as f64);
        self.put("stream.publish_took_ms_p50", med(&took_ms));
        self.put("stream.publish_cadence_ms", cadence_ms);
        self.put(
            "stream.commit_busy_share",
            took_ms.iter().sum::<f64>() / 1e3 / wall,
        );
        self.put("stream.source_blocked_share", secs(o.unpulled_ns) / wall);
        self.put("stream.read_p99_us_during", split(true));
        self.put("stream.read_p99_us_between", split(false));
    }

    fn cluster_side(&mut self, engine: &Engine, corpus: &Corpus, pool: &ReadPool) {
        let t = &mut *self.tracer;
        let cluster = t.span("cluster.build", 0, |_| Cluster::new(corpus, engine));
        let searches = pool.requests.iter().filter(|r| r.is_search());
        for (i, r) in searches.take(256).enumerate() {
            let routed = t.span("cluster.search", i as u64, |_| cluster.search(r));
            let full = t.span("cluster.full_search", i as u64, |_| cluster.full_search(r));
            self.tally.check(routed == full, || {
                format!("cluster search {i}: routed and unsharded answers differ in size")
            });
        }
        let (routed, full) = (
            self.span_med_us("cluster.search"),
            self.span_med_us("cluster.full_search"),
        );
        self.put("cluster.build_ms", self.span_med_us("cluster.build") / 1e3);
        self.put("cluster.search_us_p50", routed);
        self.put("cluster.overhead_x", routed / full.max(1e-9));
    }

    fn read_side(&mut self, reads: &ReadStats, ladder: &[(u64, f64, bool)], fresh_ms: &[f64]) {
        self.put(
            "serve.hit_rate",
            reads.hits as f64 / reads.requests.max(1) as f64,
        );
        self.put(
            "serve.over_limit_share",
            reads.over_limit as f64 / reads.requests.max(1) as f64,
        );
        let max_ok = ladder
            .iter()
            .filter(|rung| rung.2)
            .map(|rung| rung.0)
            .max()
            .unwrap_or(0);
        let p99 = |rung: Option<&(u64, f64, bool)>| rung.map_or(0.0, |r| r.1);
        self.put("serve.p99_us_lo", p99(ladder.first()));
        self.put("serve.p99_us_hi", p99(ladder.last()));
        self.put("serve.max_rate_ok", max_ok as f64);
        self.put("read_p99_us", reads.gated.whole_p99_us);
        self.put("gen.late_p99_us", reads.gated.late_p99_us);
        self.put("gen.backlog_end", reads.gated.backlog_end as f64);
        self.put("gen.valid_slice_share", reads.gated.valid_share);
        // Nearest rank over every round of the run (20 to 48 of them: fewer
        // than the ten-beyond rule wants, so not through `percentile`).
        self.put("freshness_p90_ms", quantile(fresh_ms, 0.9).unwrap_or(0.0));
        self.put("freshness_max_ms", highest(fresh_ms));
        let (untraced, traced) = (highest(&reads.qps), highest(&reads.traced_qps));
        self.put(
            "trace.read_overhead_share",
            (untraced - traced) / untraced.max(1e-9),
        );
    }
}
