//! Deterministic partitioning of a built web across shard nodes.
//!
//! Records are grouped by *(concept, source host)* — the locality unit the
//! paper's construction pipeline naturally produces, since a host's pages
//! feed extraction for one concept at a time — and every group is assigned
//! to a shard by a stable hash of its key. Documents partition by source
//! host alone. The map is a pure function of the built web and the shard
//! count: rebuilding it on any machine, at any thread count, yields the
//! byte-identical assignment (the `woc-cluster` proptests pin this).
//!
//! When churn skews the hash assignment past a configurable threshold
//! (max shard size / mean shard size), the map is *rebalanced*: groups are
//! re-placed greedily, largest first (ties by key), each onto the currently
//! least-loaded shard. The greedy pass is itself deterministic, so a
//! rebalanced topology is as reproducible as a hashed one.

use std::collections::BTreeMap;

use woc_core::{AssocKind, WebOfConcepts};
use woc_lrec::LrecId;
use woc_textkit::Fnv1a;

/// The host portion of a corpus URL (`http://host/path` → `host`). Falls
/// back to the whole string when no scheme separator is present.
pub fn host_of(url: &str) -> &str {
    let rest = url.split_once("://").map(|(_, r)| r).unwrap_or(url);
    rest.split('/').next().unwrap_or(rest)
}

/// One co-located unit of records: everything sharing a partition key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionGroup {
    /// Stable group key (`concept|host`, or a solo key for sourceless
    /// records).
    pub key: String,
    /// The shard the group landed on.
    pub shard: usize,
    /// Member records, ascending.
    pub records: Vec<LrecId>,
}

/// The deterministic record/document → shard assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionMap {
    shards: usize,
    groups: Vec<PartitionGroup>,
    record_shard: BTreeMap<LrecId, usize>,
    doc_shard: BTreeMap<String, usize>,
    rebalanced: bool,
}

impl PartitionMap {
    /// Partition `woc` across `shards` nodes, rebalancing when the hashed
    /// assignment's skew (max size / mean size) exceeds
    /// `rebalance_threshold`.
    pub fn build(woc: &WebOfConcepts, shards: usize, rebalance_threshold: f64) -> Self {
        assert!(shards >= 1, "a cluster needs at least one shard");
        // Group records by (concept, source host). `live_ids()` is sorted,
        // so group membership vectors come out ascending.
        let mut by_key: BTreeMap<String, Vec<LrecId>> = BTreeMap::new();
        for id in woc.store.live_ids() {
            let rec = match woc.store.latest(id) {
                Some(r) => r,
                None => continue,
            };
            let mut sources = woc.web.docs_of_kind(id, AssocKind::ExtractedFrom);
            if sources.is_empty() {
                sources = woc
                    .web
                    .docs_of(id)
                    .iter()
                    .map(|(u, _)| u.as_str())
                    .collect();
            }
            sources.sort_unstable();
            let key = match sources.first() {
                Some(url) => format!("{}|{}", rec.concept().0, host_of(url)),
                // A record with no associated documents partitions alone.
                None => format!("{}|rec-{}", rec.concept().0, id.0),
            };
            by_key.entry(key).or_default().push(id);
        }

        let mut groups: Vec<PartitionGroup> = by_key
            .into_iter()
            .map(|(key, records)| {
                let shard = (Fnv1a::of(&key) % shards as u64) as usize;
                PartitionGroup {
                    key,
                    shard,
                    records,
                }
            })
            .collect();

        let rebalanced = shards > 1 && skew_of(&groups, shards) > rebalance_threshold;
        if rebalanced {
            // Greedy re-placement: largest group first (ties by key, which
            // is unique), onto the currently least-loaded shard (ties to
            // the lowest shard index). Deterministic by construction.
            let mut order: Vec<usize> = (0..groups.len()).collect();
            order.sort_by(|&a, &b| {
                groups[b]
                    .records
                    .len()
                    .cmp(&groups[a].records.len())
                    .then_with(|| groups[a].key.cmp(&groups[b].key))
            });
            let mut load = vec![0usize; shards];
            for i in order {
                let target = least_loaded(&load);
                groups[i].shard = target;
                load[target] += groups[i].records.len();
            }
        }

        let mut record_shard = BTreeMap::new();
        for g in &groups {
            for &id in &g.records {
                record_shard.insert(id, g.shard);
            }
        }
        let doc_shard: BTreeMap<String, usize> = woc
            .doc_urls
            .iter()
            .map(|url| {
                let shard = (Fnv1a::of(host_of(url)) % shards as u64) as usize;
                (url.clone(), shard)
            })
            .collect();

        Self {
            shards,
            groups,
            record_shard,
            doc_shard,
            rebalanced,
        }
    }

    /// Number of shards in the topology.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// True when the greedy rebalance pass ran.
    pub fn rebalanced(&self) -> bool {
        self.rebalanced
    }

    /// The partition groups, sorted by key.
    pub fn groups(&self) -> &[PartitionGroup] {
        &self.groups
    }

    /// The shard owning a record, if the record is live.
    pub fn shard_of_record(&self, id: LrecId) -> Option<usize> {
        self.record_shard.get(&id).copied()
    }

    /// The shard owning a document URL.
    pub fn shard_of_doc(&self, url: &str) -> Option<usize> {
        self.doc_shard.get(url).copied()
    }

    /// Every `(record, shard)` assignment, ascending by record id.
    pub fn record_entries(&self) -> Vec<(LrecId, usize)> {
        self.record_shard.iter().map(|(&id, &s)| (id, s)).collect()
    }

    /// Every `(doc URL, shard)` assignment, ascending by URL.
    pub fn doc_entries(&self) -> Vec<(String, usize)> {
        self.doc_shard
            .iter()
            .map(|(u, &s)| (u.clone(), s))
            .collect()
    }

    /// Records owned by `shard`, ascending.
    pub fn records_of_shard(&self, shard: usize) -> Vec<LrecId> {
        self.record_shard
            .iter()
            .filter(|&(_, &s)| s == shard)
            .map(|(&id, _)| id)
            .collect()
    }

    /// Global doc-index positions owned by `shard`, ascending. Positions
    /// index into `woc.doc_urls` of the web the map was built from.
    pub fn doc_positions_of_shard(&self, woc: &WebOfConcepts, shard: usize) -> Vec<u32> {
        woc.doc_urls
            .iter()
            .enumerate()
            .filter(|(_, url)| self.shard_of_doc(url) == Some(shard))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Records per shard.
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.shards];
        for &s in self.record_shard.values() {
            sizes[s] += 1;
        }
        sizes
    }

    /// Skew of the current assignment: max shard size / mean shard size
    /// (1.0 = perfectly even; 0.0 for an empty web).
    pub fn skew(&self) -> f64 {
        let sizes = self.shard_sizes();
        let total: usize = sizes.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.shards as f64;
        sizes.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

fn skew_of(groups: &[PartitionGroup], shards: usize) -> f64 {
    let mut sizes = vec![0usize; shards];
    for g in groups {
        sizes[g.shard] += g.records.len();
    }
    let total: usize = sizes.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mean = total as f64 / shards as f64;
    sizes.iter().copied().max().unwrap_or(0) as f64 / mean
}

fn least_loaded(load: &[usize]) -> usize {
    let mut best = 0usize;
    for (i, &l) in load.iter().enumerate() {
        if l < load[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_core::{build, PipelineConfig};
    use woc_webgen::{generate_corpus, CorpusConfig, World, WorldConfig};

    fn tiny_woc() -> WebOfConcepts {
        let world = World::generate(WorldConfig::tiny(311));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(31));
        build(&corpus, &PipelineConfig::default())
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("http://yolp.test/r/3"), "yolp.test");
        assert_eq!(host_of("city-eats.test/list"), "city-eats.test");
        assert_eq!(host_of("bare"), "bare");
    }

    /// Shard assignment is FNV-1a of the key modulo the width; these values
    /// were computed with the written-out loop this crate used to carry.
    #[test]
    fn doc_shard_assignment_is_pinned() {
        let mut woc = tiny_woc();
        woc.doc_urls = vec![
            "http://yolp.test/r/3".into(),
            "http://city-eats.test/list".into(),
            "http://guide.example/dining/gochi.html".into(),
        ];
        let at = |shards| {
            let pm = PartitionMap::build(&woc, shards, 100.0);
            woc.doc_urls
                .iter()
                .map(|u| pm.shard_of_doc(u).expect("doc owned"))
                .collect::<Vec<_>>()
        };
        assert_eq!(at(7), [3, 2, 0]);
        assert_eq!(at(4), [1, 0, 3]);
    }

    #[test]
    fn every_live_record_and_doc_owned_exactly_once() {
        let woc = tiny_woc();
        for shards in [1, 2, 4, 7] {
            let pm = PartitionMap::build(&woc, shards, 100.0);
            let live = woc.store.live_ids();
            assert_eq!(pm.record_entries().len(), live.len());
            for id in &live {
                let s = pm.shard_of_record(*id).expect("live record owned");
                assert!(s < shards);
            }
            for url in &woc.doc_urls {
                let s = pm.shard_of_doc(url).expect("doc owned");
                assert!(s < shards);
            }
            let total: usize = pm.shard_sizes().iter().sum();
            assert_eq!(total, live.len(), "shard sizes tile the web");
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let woc = tiny_woc();
        let a = PartitionMap::build(&woc, 4, 1.5);
        let b = PartitionMap::build(&woc, 4, 1.5);
        assert_eq!(a, b);
    }

    #[test]
    fn groups_colocate_concept_and_host() {
        let woc = tiny_woc();
        let pm = PartitionMap::build(&woc, 4, 100.0);
        assert!(!pm.groups().is_empty());
        for g in pm.groups() {
            for &id in &g.records {
                assert_eq!(pm.shard_of_record(id), Some(g.shard));
            }
        }
    }

    #[test]
    fn rebalance_fires_on_skew_and_improves_it() {
        let woc = tiny_woc();
        // Threshold 1.0 can only be met by a perfectly even assignment, so
        // any real web trips the rebalance.
        let hashed = PartitionMap::build(&woc, 4, 1_000.0);
        let balanced = PartitionMap::build(&woc, 4, 1.0000001);
        assert!(!hashed.rebalanced());
        if balanced.rebalanced() {
            assert!(
                balanced.skew() <= hashed.skew() + 1e-9,
                "greedy placement must not worsen skew: {} vs {}",
                balanced.skew(),
                hashed.skew()
            );
        }
        // Coverage still tiles the web after rebalancing.
        let live = woc.store.live_ids();
        assert_eq!(balanced.record_entries().len(), live.len());
        // And the rebalanced map is as deterministic as the hashed one.
        assert_eq!(balanced, PartitionMap::build(&woc, 4, 1.0000001));
    }

    #[test]
    fn single_shard_owns_everything() {
        let woc = tiny_woc();
        let pm = PartitionMap::build(&woc, 1, 1.5);
        assert_eq!(pm.shard_sizes(), vec![woc.store.live_ids().len()]);
        assert!((pm.skew() - 1.0).abs() < 1e-12);
        assert!(!pm.rebalanced(), "one shard can never be skewed");
    }
}
