//! Taxonomies and containment (paper §2.3).
//!
//! The paper asks how far to "extend support for organizing lrecs into …
//! hierarchical relationships": the D40 *is a* digital camera *is a* camera;
//! the D40 *is part of* a special camera package; and — for concepts that
//! resist curation — whether "data-driven taxonomy construction" can stand
//! in for curator-developed taxonomies. This module implements both sides
//! of that question:
//!
//! * [`Taxonomy`] — a curated category DAG with `is_a` chains and
//!   subsumption queries, populated from records' `is_a` attributes;
//! * [`part_of_components`] / [`bundles_containing`] — containment via
//!   typed `part_of` references;
//! * [`data_driven_taxonomy`] — agglomerative (average-link) clustering of
//!   records by attribute-token overlap, with [`cluster_purity`] to compare
//!   the two approaches (the §2.3 ablation).

use std::collections::{HashMap, HashSet};

use woc_lrec::{Lrec, LrecId, Store};
use woc_textkit::tokenize::tokenize_words;

/// A curated taxonomy: category → parent category.
#[derive(Debug, Clone, Default)]
pub struct Taxonomy {
    parents: HashMap<String, String>,
}

impl Taxonomy {
    /// Empty taxonomy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare `child is_a parent`.
    pub fn declare(&mut self, child: &str, parent: &str) {
        assert_ne!(child, parent, "a category cannot be its own parent");
        self.parents.insert(child.to_string(), parent.to_string());
        // Reject cycles eagerly: walking up from `child` must terminate.
        let mut seen = HashSet::new();
        let mut cur = child.to_string();
        while let Some(p) = self.parents.get(&cur) {
            assert!(
                seen.insert(cur.clone()),
                "taxonomy cycle through {child:?} -> {parent:?}"
            );
            cur = p.clone();
        }
    }

    /// The curated camera taxonomy of the shopping domain (the paper's
    /// "Nikon D40 … is a particular kind of digital camera, which in turn is
    /// a particular kind of camera").
    pub fn curated_shopping() -> Taxonomy {
        let mut t = Taxonomy::new();
        t.declare("Digital Camera", "Camera");
        t.declare("DSLR Camera", "Camera");
        t.declare("Camera", "Product");
        t.declare("Camera Lens", "Camera Accessory");
        t.declare("Camera Battery", "Camera Accessory");
        t.declare("Tripod", "Camera Accessory");
        t.declare("Memory Card", "Camera Accessory");
        t.declare("Camera Bag", "Camera Accessory");
        t.declare("Flash Unit", "Camera Accessory");
        t.declare("Camera Accessory", "Product");
        t.declare("Camera Bundle", "Product");
        t
    }

    /// Direct parent of a category.
    pub fn parent(&self, category: &str) -> Option<&str> {
        self.parents.get(category).map(String::as_str)
    }

    /// All ancestors, nearest first.
    pub fn ancestors(&self, category: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut cur = category;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// Is `category` equal to or a descendant of `ancestor`?
    pub fn is_a(&self, category: &str, ancestor: &str) -> bool {
        category == ancestor || self.ancestors(category).contains(&ancestor)
    }

    /// All records of `ids` whose category falls under `ancestor`.
    pub fn instances_under(&self, store: &Store, ids: &[LrecId], ancestor: &str) -> Vec<LrecId> {
        ids.iter()
            .copied()
            .filter(|&id| {
                store
                    .latest(id)
                    .and_then(|r| r.best_string("category"))
                    .is_some_and(|c| self.is_a(&c, ancestor))
            })
            .collect()
    }
}

/// Components of a bundle: records whose `part_of` references resolve to
/// `bundle`.
pub fn part_of_components(store: &Store, candidates: &[LrecId], bundle: LrecId) -> Vec<LrecId> {
    let target = store.resolve(bundle).unwrap_or(bundle);
    candidates
        .iter()
        .copied()
        .filter(|&id| {
            store.latest(id).is_some_and(|r| {
                r.get("part_of")
                    .iter()
                    .filter_map(|e| e.value.as_ref_id())
                    .any(|t| store.resolve(t) == Some(target))
            })
        })
        .collect()
}

/// Bundles containing a record (the reverse containment walk).
pub fn bundles_containing(store: &Store, id: LrecId) -> Vec<LrecId> {
    store
        .latest(id)
        .map(|r| {
            r.get("part_of")
                .iter()
                .filter_map(|e| e.value.as_ref_id())
                .filter_map(|t| store.resolve(t))
                .collect()
        })
        .unwrap_or_default()
}

/// Data-driven taxonomy construction: average-link agglomerative clustering
/// of records by Jaccard overlap of their attribute tokens, stopped at
/// `target_clusters`. Returns clusters of indices into `records`.
pub fn data_driven_taxonomy(records: &[&Lrec], target_clusters: usize) -> Vec<Vec<usize>> {
    let n = records.len();
    if n == 0 {
        return Vec::new();
    }
    let token_sets: Vec<HashSet<String>> = records
        .iter()
        .map(|r| {
            let mut toks = HashSet::new();
            for (key, entries) in r.iter() {
                if key == "name" {
                    continue; // names are near-unique; cluster on descriptors
                }
                for e in entries {
                    if matches!(e.value, woc_lrec::AttrValue::Ref(_)) {
                        continue;
                    }
                    toks.extend(tokenize_words(&e.value.display_string()));
                }
            }
            toks
        })
        .collect();
    let sim = |a: &HashSet<String>, b: &HashSet<String>| -> f64 {
        if a.is_empty() && b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        inter as f64 / (a.len() + b.len() - inter).max(1) as f64
    };

    // Each cluster holds member indices; average-link similarity between
    // clusters is the mean pairwise member similarity.
    let mut clusters: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    while clusters.len() > target_clusters.max(1) {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..clusters.len() {
            for j in (i + 1)..clusters.len() {
                let mut total = 0.0;
                let mut pairs = 0usize;
                for &a in &clusters[i] {
                    for &b in &clusters[j] {
                        total += sim(&token_sets[a], &token_sets[b]);
                        pairs += 1;
                    }
                }
                let avg = total / pairs.max(1) as f64;
                if best.is_none_or(|(_, _, s)| avg > s) {
                    best = Some((i, j, avg));
                }
            }
        }
        let Some((i, j, _)) = best else { break };
        let merged = clusters.remove(j);
        clusters[i].extend(merged);
    }
    for c in &mut clusters {
        c.sort_unstable();
    }
    clusters.sort_by_key(|c| c[0]);
    clusters
}

/// Purity of clusters against gold labels: the weighted fraction of members
/// belonging to each cluster's majority label.
pub fn cluster_purity<T: Eq + std::hash::Hash>(clusters: &[Vec<usize>], labels: &[T]) -> f64 {
    let total: usize = clusters.iter().map(Vec::len).sum();
    if total == 0 {
        return 1.0;
    }
    let mut correct = 0usize;
    for c in clusters {
        let mut counts: HashMap<&T, usize> = HashMap::new();
        for &i in c {
            *counts.entry(&labels[i]).or_insert(0) += 1;
        }
        correct += counts.values().copied().max().unwrap_or(0);
    }
    correct as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_webgen::{World, WorldConfig};

    #[test]
    fn curated_chains() {
        let t = Taxonomy::curated_shopping();
        assert_eq!(t.parent("DSLR Camera"), Some("Camera"));
        assert_eq!(t.ancestors("DSLR Camera"), vec!["Camera", "Product"]);
        assert!(t.is_a("DSLR Camera", "Camera"));
        assert!(t.is_a("DSLR Camera", "Product"));
        assert!(t.is_a("Camera", "Camera"));
        assert!(!t.is_a("Camera", "DSLR Camera"));
        assert!(!t.is_a("Tripod", "Camera"));
        assert!(t.is_a("Tripod", "Camera Accessory"));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycles_rejected() {
        let mut t = Taxonomy::new();
        t.declare("a", "b");
        t.declare("b", "c");
        t.declare("c", "a");
    }

    #[test]
    fn instances_under_ancestor() {
        let w = World::generate(WorldConfig::tiny(601));
        let t = Taxonomy::curated_shopping();
        let cameras = t.instances_under(&w.store, &w.products, "Camera");
        let accessories = t.instances_under(&w.store, &w.products, "Camera Accessory");
        let all = t.instances_under(&w.store, &w.products, "Product");
        assert_eq!(
            all.len(),
            w.products.len(),
            "every product is under Product"
        );
        assert!(!accessories.is_empty());
        for &c in &cameras {
            assert!(!accessories.contains(&c), "disjoint subtrees");
        }
    }

    #[test]
    fn bundle_containment_roundtrip() {
        let w = World::generate(WorldConfig::tiny(602));
        assert!(!w.bundles.is_empty());
        for &b in &w.bundles {
            let comps = part_of_components(&w.store, &w.products, b);
            assert!(comps.len() >= 3, "bundle has its components");
            for &c in &comps {
                assert!(bundles_containing(&w.store, c).contains(&b));
            }
        }
    }

    #[test]
    fn data_driven_clusters_separate_domains() {
        // Mixed restaurants and products: a 2-way data-driven taxonomy should
        // recover the domain split almost perfectly (they share no
        // descriptor vocabulary).
        let w = World::generate(WorldConfig::tiny(603));
        let mut records: Vec<&woc_lrec::Lrec> = Vec::new();
        let mut labels: Vec<&str> = Vec::new();
        for &r in w.restaurants.iter().take(8) {
            records.push(w.store.latest(r).unwrap());
            labels.push("restaurant");
        }
        for &p in w.products.iter().take(8) {
            records.push(w.store.latest(p).unwrap());
            labels.push("product");
        }
        let clusters = data_driven_taxonomy(&records, 2);
        assert_eq!(clusters.len(), 2);
        let purity = cluster_purity(&clusters, &labels);
        assert!(purity > 0.9, "domain split purity {purity}");
    }

    #[test]
    fn purity_edge_cases() {
        assert_eq!(cluster_purity::<u8>(&[], &[]), 1.0);
        let clusters = vec![vec![0, 1], vec![2]];
        let labels = ["a", "b", "b"];
        // Cluster 1 majority 1/2, cluster 2 majority 1/1 → 2/3.
        assert!((cluster_purity(&clusters, &labels) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert!(data_driven_taxonomy(&[], 3).is_empty());
        let t = Taxonomy::new();
        assert!(t.ancestors("x").is_empty());
        assert!(t.is_a("x", "x"));
    }
}
