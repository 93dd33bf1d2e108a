//! Order-preserving sharded map for the matching stages.
//!
//! Contiguous chunks, one per worker, results concatenated in chunk order —
//! for a pure per-item function the output equals the serial map exactly at
//! any thread count, which is what lets the pipeline promise byte-identical
//! builds regardless of parallelism.

/// Map `f` over `items` on up to `threads` workers, preserving input order.
pub fn shard_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let shards = threads.min(items.len());
    let chunk = items.len().div_ceil(shards);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|shard| {
                let f = &f;
                scope.spawn(move || shard.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("matching shard worker panicked"));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_preserved() {
        let items: Vec<u32> = (0..97).collect();
        let serial: Vec<u32> = items.iter().map(|x| x + 1).collect();
        for threads in [1, 2, 5, 97, 200] {
            assert_eq!(shard_map(&items, threads, |x| x + 1), serial);
        }
    }
}
