//! Blocking: cheap candidate-pair generation.
//!
//! Comparing all `n²` record pairs is infeasible at web scale; blocking
//! groups records by cheap keys (zip, city, name tokens, phone) and only
//! pairs records sharing a key — the standard first stage of every EM system
//! the paper surveys.

use std::collections::{HashMap, HashSet};

use woc_lrec::Lrec;
use woc_textkit::tokenize::{normalize, tokenize_words};

use crate::shard::shard_map;

/// Generate blocking keys for one record.
pub fn blocking_keys(rec: &Lrec) -> Vec<String> {
    let mut keys = Vec::new();
    for e in rec.get("zip") {
        keys.push(format!("zip:{}", e.value.display_string()));
    }
    for e in rec.get("phone") {
        keys.push(format!("phone:{}", normalize(&e.value.display_string())));
    }
    for e in rec.get("city") {
        keys.push(format!("city:{}", normalize(&e.value.display_string())));
    }
    for name_attr in ["name", "title"] {
        for e in rec.get(name_attr) {
            for tok in tokenize_words(&e.value.display_string()) {
                if tok.len() >= 3 && !woc_textkit::tokenize::is_stopword(&tok) {
                    keys.push(format!("tok:{tok}"));
                }
            }
        }
    }
    keys.sort();
    keys.dedup();
    keys
}

/// Candidate pairs `(i, j)` with `i < j` over `records`, from shared
/// blocking keys. Keys matching more than `max_block` records are skipped
/// (stopword-like keys would otherwise reintroduce the quadratic blowup).
pub fn candidate_pairs(records: &[&Lrec], max_block: usize) -> Vec<(usize, usize)> {
    candidate_pairs_sharded(records, max_block, 1)
}

/// [`candidate_pairs`] with key generation — the expensive half — sharded
/// across `threads` workers; the pairs come from
/// [`candidate_pairs_from_keys`], so the result is identical at any thread
/// count.
pub fn candidate_pairs_sharded(
    records: &[&Lrec],
    max_block: usize,
    threads: usize,
) -> Vec<(usize, usize)> {
    let keys_per_rec: Vec<Vec<String>> = shard_map(records, threads, |r| blocking_keys(r));
    let keys: Vec<&[String]> = keys_per_rec.iter().map(Vec::as_slice).collect();
    candidate_pairs_from_keys(&keys, max_block)
}

/// Candidate pairs `(i, j)`, `i < j`, sorted and deduplicated, over records
/// given by their blocking keys alone: `keys[i]` are record `i`'s. A key
/// shared by more than `max_block` records pairs nothing. A key listed twice
/// for one record counts once — a record is never its own partner.
///
/// Each record emits its partners above it — the later members of its
/// buckets, a short list sorted on its own — so the output is globally
/// sorted without sorting the whole pair set.
pub fn candidate_pairs_from_keys(keys: &[&[String]], max_block: usize) -> Vec<(usize, usize)> {
    // A bucket is its members — ascending, since records arrive in order —
    // and how many of them the emission pass below has visited.
    let mut bucket_of: HashMap<&str, usize> = HashMap::new();
    let mut buckets: Vec<(Vec<usize>, usize)> = Vec::new();
    let mut buckets_per_rec: Vec<Vec<usize>> = Vec::with_capacity(keys.len());
    for (i, rec_keys) in keys.iter().enumerate() {
        let mut own: Vec<usize> = Vec::with_capacity(rec_keys.len());
        for k in rec_keys.iter() {
            let b = *bucket_of.entry(k.as_str()).or_insert(buckets.len());
            if b == buckets.len() {
                buckets.push((Vec::new(), 0));
            }
            let Some((members, _)) = buckets.get_mut(b) else {
                continue;
            };
            if members.last() != Some(&i) {
                members.push(i);
                own.push(b);
            }
        }
        buckets_per_rec.push(own);
    }
    // The emission pass visits records in bucket order too, so a bucket's
    // members above the current record are those past its visited count.
    let mut out: Vec<(usize, usize)> = Vec::new();
    let mut partners: Vec<usize> = Vec::new();
    for (i, own) in buckets_per_rec.iter().enumerate() {
        partners.clear();
        for &b in own {
            let Some((members, visited)) = buckets.get_mut(b) else {
                continue;
            };
            *visited += 1;
            if members.len() <= max_block {
                partners.extend_from_slice(members.get(*visited..).unwrap_or_default());
            }
        }
        partners.sort_unstable();
        partners.dedup();
        out.extend(partners.iter().map(|&j| (i, j)));
    }
    out
}

/// Blocking recall: fraction of true pairs (same gold label) surviving
/// blocking. The complementary metric to the pair-count reduction.
pub fn blocking_recall<T: Eq>(pairs: &[(usize, usize)], gold: &[T]) -> f64 {
    let mut truth_pairs = 0usize;
    let mut found = 0usize;
    let pair_set: HashSet<&(usize, usize)> = pairs.iter().collect();
    for i in 0..gold.len() {
        for j in (i + 1)..gold.len() {
            if gold[i] == gold[j] {
                truth_pairs += 1;
                if pair_set.contains(&(i, j)) {
                    found += 1;
                }
            }
        }
    }
    if truth_pairs == 0 {
        1.0
    } else {
        found as f64 / truth_pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{AttrValue, ConceptId, LrecId, Provenance, Tick};

    fn rec(id: u64, name: &str, zip: &str) -> Lrec {
        let mut r = Lrec::new(LrecId(id), ConceptId(0));
        let p = Provenance::ground_truth(Tick(0));
        r.add("name", AttrValue::Text(name.into()), p.clone());
        if !zip.is_empty() {
            r.add("zip", AttrValue::Zip(zip.into()), p);
        }
        r
    }

    #[test]
    fn keys_cover_attributes() {
        let r = rec(1, "Gochi Fusion Tapas", "95014");
        let keys = blocking_keys(&r);
        assert!(keys.contains(&"zip:95014".to_string()));
        assert!(keys.contains(&"tok:gochi".to_string()));
        assert!(keys.contains(&"tok:fusion".to_string()));
    }

    #[test]
    fn shared_key_pairs() {
        let a = rec(1, "Gochi Tapas", "95014");
        let b = rec(2, "Gochi Fusion", "99999");
        let c = rec(3, "Farolito", "60601");
        let records = vec![&a, &b, &c];
        let pairs = candidate_pairs(&records, 50);
        assert!(pairs.contains(&(0, 1)), "shared token gochi");
        assert!(!pairs.contains(&(0, 2)));
        assert!(!pairs.contains(&(1, 2)));
    }

    #[test]
    fn oversized_blocks_skipped() {
        let recs: Vec<Lrec> = (0..10).map(|i| rec(i, "Common Name", "")).collect();
        let refs: Vec<&Lrec> = recs.iter().collect();
        let pairs = candidate_pairs(&refs, 5);
        assert!(pairs.is_empty(), "block of 10 exceeds max 5");
        let pairs = candidate_pairs(&refs, 20);
        assert_eq!(pairs.len(), 45);
    }

    #[test]
    fn sharded_pairs_match_serial_at_any_thread_count() {
        let recs: Vec<Lrec> = (0..30)
            .map(|i| {
                rec(
                    i,
                    ["Gochi Tapas", "Blue Lotus", "Farolito Cafe"][i as usize % 3],
                    "",
                )
            })
            .collect();
        let refs: Vec<&Lrec> = recs.iter().collect();
        let serial = candidate_pairs(&refs, 50);
        assert!(!serial.is_empty());
        for threads in [2, 3, 8, 64] {
            assert_eq!(candidate_pairs_sharded(&refs, 50, threads), serial);
        }
    }

    #[test]
    fn a_doubled_key_never_pairs_a_record_with_itself() {
        let key = |k: &str| vec![k.to_string()];
        let doubled = vec!["tok:gochi".to_string(), "tok:gochi".to_string()];
        let other = key("tok:gochi");
        let third = key("tok:farolito");
        let keys: Vec<&[String]> = vec![&doubled, &other, &third, &doubled];
        assert_eq!(
            candidate_pairs_from_keys(&keys, 50),
            vec![(0, 1), (0, 3), (1, 3)]
        );
        // The doubled listing does not count twice against the block limit
        // either: three records share the key.
        assert_eq!(candidate_pairs_from_keys(&keys, 3).len(), 3);
        assert!(candidate_pairs_from_keys(&keys, 2).is_empty());
    }

    #[test]
    fn recall_measurement() {
        let pairs = vec![(0, 1)];
        let gold = ["a", "a", "b", "a"];
        // truth pairs: (0,1),(0,3),(1,3) → found 1/3
        let r = blocking_recall(&pairs, &gold);
        assert!((r - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(blocking_recall(&[], &["x", "y"]), 1.0);
    }
}
