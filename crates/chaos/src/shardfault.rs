//! Shard-level fault profiles for the cluster serving tier.
//!
//! Where [`crate::fault`] breaks individual page fetches, this module
//! breaks whole *serving nodes*: a [`ShardFaultProfile`] declares which
//! shard replicas are dead, flapping in and out of availability windows on
//! the virtual clock, or serving slowly, and a [`ShardFaultInjector`]
//! rolls every decision as a pure function of `(seed, shard, replica,
//! window | request)` — so a partition/failover scenario replays
//! byte-identically across runs and thread counts.
//!
//! The profiles mirror the failure shapes a scatter-gather router must
//! survive (see `woc-cluster`):
//!
//! * **node kill** ([`ShardFaultProfile::replica_down`]) — one replica of
//!   one shard is gone; the quorum must keep answers byte-identical;
//! * **shard blackout** ([`ShardFaultProfile::shard_blackout`]) — every
//!   replica of a shard is gone; the router must degrade with *explicit*
//!   partial-result metadata, never a silently incomplete answer;
//! * **flapping** ([`ShardFaultProfile::flappy`]) — replicas bounce per
//!   availability window, exercising hedging and replica rotation;
//! * **brownout** ([`ShardFaultProfile::slow`]) — replicas answer, but
//!   slowly enough to trip per-shard timeouts and fire hedged requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use woc_webgen::Fnv1a;

use crate::fault::mix;

/// Salt separating replica-flap rolls from request-latency rolls.
const SHARD_FLAP_SALT: u64 = 0x7368_666c;
/// Salt for per-request slowness rolls.
const SHARD_SLOW_SALT: u64 = 0x7368_736c;

/// What the simulated shard fleet does wrong.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardFaultProfile {
    /// Stable name, used in test output and failover-latency tables.
    pub name: &'static str,
    /// Shards whose *every* replica is permanently dead (blackout — e.g. a
    /// network partition isolating the whole shard).
    pub dead_shards: Vec<usize>,
    /// Individual `(shard, replica)` slots that are permanently dead (a
    /// killed node; the shard's other replicas keep serving).
    pub dead_replicas: Vec<(usize, usize)>,
    /// Probability that a replica is down for a given availability window.
    pub flap_rate: f64,
    /// Availability-window length on the virtual clock, in microseconds.
    pub flap_window_micros: u64,
    /// Probability that a single request is served slowly.
    pub slow_rate: f64,
    /// Extra virtual service time injected on a slow request.
    pub slow_extra_micros: u64,
}

impl ShardFaultProfile {
    /// No shard faults at all.
    pub fn healthy() -> Self {
        Self {
            name: "healthy",
            ..Self::default()
        }
    }

    /// One replica of one shard is dead — the single-node-kill scenario.
    pub fn replica_down(shard: usize, replica: usize) -> Self {
        Self {
            name: "replica-down",
            dead_replicas: vec![(shard, replica)],
            ..Self::default()
        }
    }

    /// Every replica of `shard` is dead — the whole-shard blackout.
    pub fn shard_blackout(shard: usize) -> Self {
        Self {
            name: "shard-blackout",
            dead_shards: vec![shard],
            ..Self::default()
        }
    }

    /// Replicas flap in and out of availability windows.
    pub fn flappy(rate: f64) -> Self {
        Self {
            name: "flappy",
            flap_rate: rate,
            flap_window_micros: 50_000,
            ..Self::default()
        }
    }

    /// Replicas answer, but a fraction of requests are served slowly —
    /// the brownout that exercises timeouts and hedging.
    pub fn slow(rate: f64, extra_micros: u64) -> Self {
        Self {
            name: "slow",
            slow_rate: rate,
            slow_extra_micros: extra_micros,
            ..Self::default()
        }
    }
}

/// Rolls shard-fault decisions from a seed. Every answer is a pure
/// function of the constructor arguments and the call parameters — no
/// interior state, so concurrent routers observe the same faults.
#[derive(Debug, Clone)]
pub struct ShardFaultInjector {
    profile: ShardFaultProfile,
    seed: u64,
}

impl ShardFaultInjector {
    /// Injector for `profile`, rolling from `seed`.
    pub fn new(profile: ShardFaultProfile, seed: u64) -> Self {
        Self { profile, seed }
    }

    /// The profile being injected.
    pub fn profile(&self) -> &ShardFaultProfile {
        &self.profile
    }

    /// Stable per-slot identity for fault rolls.
    fn slot_key(shard: usize, replica: usize) -> u64 {
        Fnv1a::of(&format!("shard-{shard}/replica-{replica}"))
    }

    /// Is this replica unreachable at virtual time `now_micros`?
    pub fn replica_down(&self, shard: usize, replica: usize, now_micros: u64) -> bool {
        if self.profile.dead_shards.contains(&shard)
            || self.profile.dead_replicas.contains(&(shard, replica))
        {
            return true;
        }
        if self.profile.flap_rate > 0.0 && self.profile.flap_window_micros > 0 {
            let window = now_micros / self.profile.flap_window_micros;
            return StdRng::seed_from_u64(mix(
                self.seed ^ SHARD_FLAP_SALT,
                mix(Self::slot_key(shard, replica), window),
            ))
            .random_bool(self.profile.flap_rate.min(1.0));
        }
        false
    }

    /// Extra virtual service latency injected into request `seq` at this
    /// replica (0 unless the slowness roll fires).
    pub fn extra_latency_micros(&self, shard: usize, replica: usize, seq: u64) -> u64 {
        if self.profile.slow_rate <= 0.0 {
            return 0;
        }
        let slow = StdRng::seed_from_u64(mix(
            self.seed ^ SHARD_SLOW_SALT,
            mix(Self::slot_key(shard, replica), seq),
        ))
        .random_bool(self.profile.slow_rate.min(1.0));
        if slow {
            self.profile.slow_extra_micros
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_slots_are_down_at_any_time() {
        let inj = ShardFaultInjector::new(ShardFaultProfile::replica_down(1, 0), 11);
        for now in [0, 1, 1_000_000, u64::MAX / 2] {
            assert!(inj.replica_down(1, 0, now));
            assert!(!inj.replica_down(1, 1, now), "sibling replica untouched");
            assert!(!inj.replica_down(0, 0, now), "other shard untouched");
        }
        let blackout = ShardFaultInjector::new(ShardFaultProfile::shard_blackout(2), 17);
        for replica in 0..4 {
            assert!(blackout.replica_down(2, replica, 123));
        }
        assert!(!blackout.replica_down(1, 0, 123));
    }

    #[test]
    fn flap_rolls_are_deterministic_and_window_keyed() {
        let a = ShardFaultInjector::new(ShardFaultProfile::flappy(0.5), 42);
        let b = ShardFaultInjector::new(ShardFaultProfile::flappy(0.5), 42);
        let mut down_windows = 0;
        for window in 0..64u64 {
            let now = window * 50_000;
            let x = a.replica_down(0, 0, now);
            assert_eq!(x, b.replica_down(0, 0, now), "same seed, same roll");
            // Within one window the decision is constant.
            assert_eq!(x, a.replica_down(0, 0, now + 49_999));
            down_windows += x as usize;
        }
        assert!(
            down_windows > 5 && down_windows < 59,
            "flap rate ~0.5 must bounce ({down_windows}/64 down)"
        );
        // A different seed flips at least one window.
        let c = ShardFaultInjector::new(ShardFaultProfile::flappy(0.5), 43);
        assert!(
            (0..64u64)
                .any(|w| a.replica_down(0, 0, w * 50_000) != c.replica_down(0, 0, w * 50_000)),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn slow_rolls_hit_roughly_at_rate() {
        let inj = ShardFaultInjector::new(ShardFaultProfile::slow(0.25, 7_000), 7);
        let slow = (0..400u64)
            .filter(|&seq| inj.extra_latency_micros(0, 0, seq) == 7_000)
            .count();
        assert!(
            (40..=200).contains(&slow),
            "rate 0.25 over 400 requests landed {slow} slow"
        );
        let quiet = ShardFaultInjector::new(ShardFaultProfile::healthy(), 7);
        assert_eq!(quiet.extra_latency_micros(0, 0, 3), 0);
    }
}
