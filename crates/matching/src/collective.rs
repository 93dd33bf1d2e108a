//! Iterative collective entity resolution (paper §6, references \[12, 29\]).
//!
//! "Collective approaches … are either iterative, where matching decisions
//! trigger new matches, or use various advanced probabilistic models."
//!
//! This module implements the iterative family: pairs are scored by a base
//! (attribute-level) scorer plus relational evidence — the overlap between
//! the *clusters* of the two records' neighbors (co-authors, shared
//! citations, shared reviews). Because neighbor clusters change as merges
//! happen, accepting one pair can push another pair over the threshold on
//! the next round; iteration runs to fixpoint.

use crate::cluster::UnionFind;

/// Configuration of the collective-resolution loop.
#[derive(Debug, Clone)]
pub struct CollectiveConfig {
    /// Score at or above which a pair is merged.
    pub accept: f64,
    /// Weight of the relational (neighbor-overlap) evidence.
    pub relational_weight: f64,
    /// Maximum iterations (fixpoint usually arrives in 2–4).
    pub max_iters: usize,
}

impl Default for CollectiveConfig {
    fn default() -> Self {
        Self {
            accept: 1.0,
            relational_weight: 1.5,
            max_iters: 10,
        }
    }
}

/// Jaccard overlap of two cluster-id sets, each a sorted, deduplicated
/// list: the intersection is counted by one merge walk.
fn cluster_jaccard(a: &[usize], b: &[usize]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (mut rest_a, mut rest_b) = (a.iter().peekable(), b.iter().peekable());
    let mut inter = 0usize;
    while let (Some(&&x), Some(&&y)) = (rest_a.peek(), rest_b.peek()) {
        if x <= y {
            rest_a.next();
        }
        if y <= x {
            rest_b.next();
        }
        inter += usize::from(x == y);
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Run collective resolution.
///
/// * `n` — number of records;
/// * `candidates` — blocked candidate pairs with their base scores;
/// * `neighbors[i]` — indices of records related to record `i` (co-author
///   mentions, reviews rendered on the same page, …);
/// * returns the final clustering and the number of iterations used.
pub fn resolve_collective(
    n: usize,
    candidates: &[(usize, usize, f64)],
    neighbors: &[Vec<usize>],
    config: &CollectiveConfig,
) -> (UnionFind, usize) {
    assert_eq!(neighbors.len(), n);
    let mut uf = UnionFind::new(n);
    let mut iters = 0;
    for round in 1..=config.max_iters {
        iters = round;
        // Snapshot neighbor clusters for this round.
        let neighbor_clusters: Vec<Vec<usize>> = neighbors
            .iter()
            .map(|of_i| {
                let mut clusters: Vec<usize> = of_i.iter().map(|&j| uf.find(j)).collect();
                clusters.sort_unstable();
                clusters.dedup();
                clusters
            })
            .collect();
        let mut changed = false;
        for &(i, j, base) in candidates {
            // A pair merged in an earlier round is still in one cluster.
            if uf.same(i, j) {
                continue;
            }
            let rel = cluster_jaccard(&neighbor_clusters[i], &neighbor_clusters[j]);
            let score = base + config.relational_weight * rel;
            if score >= config.accept {
                uf.union(i, j);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (uf, iters)
}

/// Baseline for comparison: accept purely on base score (no relational
/// evidence, single pass) — the "pairwise" column of experiment S5.
pub fn resolve_pairwise(n: usize, candidates: &[(usize, usize, f64)], accept: f64) -> UnionFind {
    let mut uf = UnionFind::new(n);
    for &(i, j, base) in candidates {
        if base >= accept {
            uf.union(i, j);
        }
    }
    uf
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scenario modeled on author disambiguation: two "A. Lovelace" mentions
    /// have an ambiguous base score, but their co-author mentions have
    /// already-mergeable names; collective resolution cascades.
    ///
    /// Records 0,1: "A. Lovelace" mentions (ambiguous pair, base 0.6).
    /// Records 2,3: "Grace Hopper" mentions (clear pair, base 1.2).
    /// Mention 0 co-occurs with 2; mention 1 with 3.
    type Scenario = (usize, Vec<(usize, usize, f64)>, Vec<Vec<usize>>);

    fn scenario() -> Scenario {
        let candidates = vec![(0, 1, 0.6), (2, 3, 1.2)];
        let neighbors = vec![vec![2], vec![3], vec![0], vec![1]];
        (4, candidates, neighbors)
    }

    #[test]
    fn pairwise_misses_ambiguous_pair() {
        let (n, cands, _) = scenario();
        let mut uf = resolve_pairwise(n, &cands, 1.0);
        assert!(!uf.same(0, 1), "base score 0.6 < 1.0");
        assert!(uf.same(2, 3));
    }

    #[test]
    fn collective_cascades() {
        let (n, cands, neigh) = scenario();
        let (mut uf, iters) = resolve_collective(n, &cands, &neigh, &CollectiveConfig::default());
        assert!(uf.same(2, 3), "clear pair merges in round 1");
        assert!(
            uf.same(0, 1),
            "after 2~3 merges co-author clusters overlap and the ambiguous pair follows"
        );
        assert!(iters >= 2, "needs at least two rounds, got {iters}");
    }

    #[test]
    fn no_relational_signal_no_cascade() {
        // Same ambiguous pair but with disjoint neighborhoods.
        let candidates = vec![(0, 1, 0.6), (2, 3, 1.2)];
        let neighbors = vec![vec![2], vec![], vec![0], vec![]];
        let (mut uf, _) =
            resolve_collective(4, &candidates, &neighbors, &CollectiveConfig::default());
        assert!(!uf.same(0, 1));
    }

    #[test]
    fn fixpoint_terminates_early() {
        let candidates = vec![(0, 1, 2.0)];
        let neighbors = vec![vec![], vec![]];
        let (mut uf, iters) =
            resolve_collective(2, &candidates, &neighbors, &CollectiveConfig::default());
        assert!(uf.same(0, 1));
        assert!(iters <= 2);
    }

    #[test]
    fn empty_input() {
        let (uf, iters) = resolve_collective(0, &[], &[], &CollectiveConfig::default());
        assert!(uf.is_empty());
        assert!(iters <= 1);
    }
}
