//! Load generation and sample statistics: the seeded generator, the
//! closed and open loops, and the percentile helpers. Nothing here knows
//! the program under test — loops drive an opaque `op` closure and read
//! time through [`Clock`], so the accounting is unit-testable on a manual
//! clock.

use std::time::Instant;

/// SplitMix64: the harness's only randomness, so a seed fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// pool sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / (r as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an unsorted sample set. Refuses (`None`) a
/// percentile with fewer than ten samples beyond it: a tail read off two
/// or three samples is one scheduler hiccup, not a property of the system.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < 10 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    Some(sorted[rank - 1])
}

/// Median (upper middle), for sample sets too small for [`percentile`]'s
/// ten-beyond rule. `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Nearest-rank quantile without the ten-beyond rule; used for medians
/// and for the quartiles `--repeat` prints.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("invariant: samples are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

pub fn ns_to_f64(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&v| v as f64).collect()
}

/// Time source of the loops. `wait_until` returns the time it woke at.
pub trait Clock {
    fn now_ns(&self) -> u64;
    fn wait_until(&self, t_ns: u64) -> u64;
}

/// Monotonic nanosecond clock; waits by spinning, because a sleep's wake-up
/// jitter (tens of µs) is larger than the latencies being measured.
#[derive(Debug, Clone, Copy)]
pub struct WallClock(Instant);

impl WallClock {
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, t_ns: u64) -> u64 {
        loop {
            let now = self.now_ns();
            if now >= t_ns {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// A fixed-rate arrival schedule: request `i` is due at `start + i * gap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    pub start_ns: u64,
    pub gap_ns: u64,
    pub count: usize,
}

impl Schedule {
    /// `rate_per_s` requests per second for `seconds`, starting at `start_ns`.
    pub fn fixed_rate(start_ns: u64, rate_per_s: u64, seconds: f64) -> Self {
        assert!(rate_per_s > 0, "rate must be positive");
        Schedule {
            start_ns,
            gap_ns: 1_000_000_000 / rate_per_s,
            count: (rate_per_s as f64 * seconds).round() as usize,
        }
    }

    pub fn due_ns(&self, i: usize) -> u64 {
        self.start_ns + i as u64 * self.gap_ns
    }

    pub fn end_ns(&self) -> u64 {
        self.due_ns(self.count)
    }
}

/// What an open-loop phase observed.
#[derive(Debug, Default)]
pub struct OpenStats {
    /// Per request: completion minus *due* time, so a stall is charged to
    /// every request it delayed, not only to the one that was running.
    pub latency_ns: Vec<u64>,
    /// Per request: issue time minus the earliest moment it could have been
    /// issued (its due time, or the previous completion if that was later)
    /// — the generator's own lateness, which the system is not to blame for.
    pub late_ns: Vec<u64>,
    /// Per request: completion time on the phase clock.
    pub done_ns: Vec<u64>,
    /// Requests that were due but not yet issued when the phase ended: at
    /// the schedule's end, or at the moment `keep_going` stopped it.
    pub backlog_end: usize,
}

/// Run one open-loop phase on the calling thread: issue request `i` at its
/// due time (or as soon after as the previous one allows), never skipping
/// one. `keep_going` is polled before each request so a concurrent phase
/// can end the loop early; `op` receives the request's index.
pub fn open_loop(
    clock: &impl Clock,
    schedule: Schedule,
    mut keep_going: impl FnMut() -> bool,
    mut op: impl FnMut(usize),
) -> OpenStats {
    // Sized up front (capped for schedules that end by `keep_going`), so
    // no sample vector reallocates inside the timed loop.
    let room = schedule.count.min(1 << 20);
    let mut stats = OpenStats {
        latency_ns: Vec::with_capacity(room),
        late_ns: Vec::with_capacity(room),
        done_ns: Vec::with_capacity(room),
        backlog_end: 0,
    };
    let mut prev_done = schedule.start_ns;
    for i in 0..schedule.count {
        let due = schedule.due_ns(i);
        if !keep_going() {
            if let Some(behind_ns) = clock.now_ns().checked_sub(due) {
                let owed = behind_ns / schedule.gap_ns.max(1) + 1;
                stats.backlog_end = (owed as usize).min(schedule.count - i);
            }
            break;
        }
        let issued = clock.wait_until(due);
        if issued >= schedule.end_ns() {
            stats.backlog_end += 1;
        }
        op(i);
        let done = clock.now_ns();
        stats.latency_ns.push(done - due);
        stats.late_ns.push(issued - due.max(prev_done));
        stats.done_ns.push(done);
        prev_done = done;
    }
    stats
}

/// Run `op` back to back until `deadline_ns`; returns operations completed
/// and the time they took.
pub fn closed_loop(
    clock: &impl Clock,
    deadline_ns: u64,
    mut op: impl FnMut(usize),
) -> (usize, u64) {
    let start = clock.now_ns();
    let mut n = 0;
    loop {
        op(n);
        n += 1;
        let now = clock.now_ns();
        if now >= deadline_ns {
            return (n, now - start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// Manual clock: time moves only when the test (or a wait) moves it.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, t_ns: u64) -> u64 {
            self.0.set(self.0.get().max(t_ns));
            self.0.get()
        }
    }

    #[test]
    fn schedule_is_evenly_spaced_and_counts_rate_times_seconds() {
        let s = Schedule::fixed_rate(1_000, 50_000, 0.5);
        assert_eq!(s.gap_ns, 20_000);
        assert_eq!(s.count, 25_000);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(3), 61_000);
        assert_eq!(s.end_ns(), 1_000 + 25_000 * 20_000);
    }

    #[test]
    fn latency_is_counted_from_due_time_not_issue_time() {
        // Gap 100, service 10 — except request 1, which stalls for 350.
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            gap_ns: 100,
            count: 6,
        };
        let stats = open_loop(
            &clock,
            schedule,
            || true,
            |i| clock.advance(if i == 1 { 350 } else { 10 }),
        );
        // Request 1 (due 100) ends at 450. Requests 2..4 were due at 200,
        // 300, 400 and queue behind it: a closed loop would report 10 for
        // each, the due-time accounting charges them the stall.
        assert_eq!(stats.latency_ns, vec![10, 350, 260, 170, 80, 10]);
        // The generator itself was never late: every request was issued at
        // its due time or the moment the previous one completed.
        assert!(stats.late_ns.iter().all(|&l| l == 0), "{:?}", stats.late_ns);
        assert_eq!(stats.backlog_end, 0);
    }

    #[test]
    fn backlog_counts_requests_still_queued_at_schedule_end() {
        // Service 300 against a gap of 100: the queue grows without bound.
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            gap_ns: 100,
            count: 9,
        };
        let stats = open_loop(&clock, schedule, || true, |_| clock.advance(300));
        // Schedule ends at 900; requests 3.. are issued at 900, 1200, ...
        assert_eq!(stats.backlog_end, 6);
        assert_eq!(*stats.latency_ns.last().unwrap(), 9 * 300 - 800);
    }

    #[test]
    fn open_loop_stops_when_told() {
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            gap_ns: 10,
            count: 100,
        };
        let mut left = 7;
        let stats = open_loop(
            &clock,
            schedule,
            || {
                left -= 1;
                left >= 0
            },
            |_| clock.advance(1),
        );
        assert_eq!(stats.latency_ns.len(), 7);
        // Request 7 is due at 70 and the clock reads 61: nothing is owed.
        assert_eq!(stats.backlog_end, 0);
    }

    #[test]
    fn stopping_behind_schedule_leaves_a_backlog() {
        // Service 35 against a gap of 10; stopped before request 4 (due 40)
        // at time 140, when those due at 40, 50, ... 140 are owed.
        let clock = FakeClock(Cell::new(0));
        let schedule = Schedule {
            start_ns: 0,
            gap_ns: 10,
            count: 100,
        };
        let mut left = 4;
        let stats = open_loop(
            &clock,
            schedule,
            || {
                left -= 1;
                left >= 0
            },
            |_| clock.advance(35),
        );
        assert_eq!(stats.latency_ns.len(), 4);
        assert_eq!(stats.backlog_end, 11);
    }

    #[test]
    fn closed_loop_runs_to_deadline() {
        let clock = FakeClock(Cell::new(0));
        let (n, took) = closed_loop(&clock, 1_000, |_| clock.advance(30));
        assert_eq!(n, 34);
        assert_eq!(took, 34 * 30);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&samples, 50.0), Some(500));
        assert_eq!(percentile(&samples, 99.0), Some(990));
        assert_eq!(percentile(&samples, 90.0), Some(900));
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        let samples: Vec<u64> = (0..1000).collect();
        assert!(percentile(&samples, 99.0).is_some());
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&samples[..50], 90.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 0.75), Some(6.0));
    }

    #[test]
    fn rng_and_zipf_repeat_for_a_seed_and_skew_to_low_ranks() {
        let z = Zipf::new(1024, 1.1);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..4096).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        let head = a.iter().filter(|&&r| r < 32).count();
        assert!(head > a.len() / 2, "head share {head}/{}", a.len());
        assert!(a.iter().all(|&r| r < 1024));
    }
}
