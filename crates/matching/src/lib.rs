//! # woc-matching — entity matching for the web of concepts (paper §6, §7.2)
//!
//! "The problems of identifying which pieces of information pertain to the
//! same concept is a variant of the well-studied entity matching problem."
//! This crate implements the full EM pipeline the paper surveys:
//!
//! * [`blocking`] — cheap candidate-pair generation by shared keys;
//! * [`simvec`] — per-attribute similarity vectors (Levenshtein/Jaro-Winkler
//!   based, kind-aware);
//! * [`fellegi`] — the Fellegi–Sunter probabilistic match/non-match model
//!   \[31\], with supervised m/u estimation;
//! * [`collective`] — iterative collective resolution where "matching
//!   decisions trigger new matches" \[12, 29\];
//! * [`textmatch`] — record↔text matching via a domain-centric generative
//!   language model (reviews → restaurants, the \[23\] idea), plus a TF-IDF
//!   baseline;
//! * [`cluster`] — union-find clustering and pairwise cluster P/R.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod cluster;
pub mod collective;
pub mod fellegi;
pub mod shard;
pub mod simvec;
pub mod textmatch;

pub use blocking::{
    blocking_keys, blocking_recall, candidate_pairs, candidate_pairs_from_keys,
    candidate_pairs_sharded,
};
pub use cluster::{pairwise_prf, pairwise_prf_sharded, UnionFind};
pub use collective::{resolve_collective, resolve_pairwise, CollectiveConfig};
pub use fellegi::{AttrParams, Decision, FellegiSunter, PreparedRecord};
pub use simvec::{attr_similarity, similarity_vector, value_similarity};
pub use textmatch::{GenerativeMatcher, TfIdfMatcher};

/// Precision/recall/F1 over pair decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MatchPrf {
    /// Correctly matched pairs.
    pub tp: usize,
    /// Incorrectly matched pairs.
    pub fp: usize,
    /// Missed pairs.
    pub fn_: usize,
}

impl MatchPrf {
    /// Precision (1.0 when nothing was matched).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall (1.0 when there was nothing to match).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl std::fmt::Display for MatchPrf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P={:.3} R={:.3} F1={:.3}",
            self.precision(),
            self.recall(),
            self.f1()
        )
    }
}
