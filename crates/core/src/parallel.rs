//! Deterministic sharded execution for the construction pipeline.
//!
//! Work is split into contiguous shards, one per worker, and results are
//! re-assembled in shard order — so as long as the per-item function is
//! pure, the output is *identical* to a serial run regardless of the worker
//! count. All pipeline parallelism routes through here to keep that
//! guarantee in one place; the one [`shard_map`] is `woc-matching`'s (the
//! lowest crate that fans out), re-exported so callers keep this path.

use std::num::NonZeroUsize;

pub use woc_matching::shard::shard_map;

/// Resolve a configured thread count: `0` means all available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_zero_means_available() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn order_preserved_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 7, 16, 1000, 2000] {
            assert_eq!(shard_map(&items, threads, |x| x * x), serial);
        }
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(shard_map(&[] as &[u8], 4, |x| *x), Vec::<u8>::new());
        assert_eq!(shard_map(&[5u8], 4, |x| *x + 1), vec![6]);
    }
}
