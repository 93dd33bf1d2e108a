//! Property tests for entity-matching invariants.

use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use woc_lrec::value::Date;
use woc_lrec::{AttrValue, ConceptId, Lrec, LrecId, Provenance, Tick};

use woc_matching::{
    attr_similarity, candidate_pairs, candidate_pairs_from_keys, candidate_pairs_sharded,
    pairwise_prf, resolve_collective, resolve_pairwise, value_similarity, CollectiveConfig,
    FellegiSunter, GenerativeMatcher, UnionFind,
};

fn rec(id: u64, name: &str, zip: &str, phone: &str) -> Lrec {
    let mut r = Lrec::new(LrecId(id), ConceptId(0));
    let p = Provenance::ground_truth(Tick(0));
    if !name.is_empty() {
        r.add("name", AttrValue::Text(name.into()), p.clone());
    }
    if !zip.is_empty() {
        r.add("zip", AttrValue::Zip(zip.into()), p.clone());
    }
    if !phone.is_empty() {
        r.add("phone", AttrValue::Phone(phone.into()), p);
    }
    r
}

/// A candidate for the generative matcher: `words` joined as its name (no
/// attribute at all when empty, so its model observes nothing).
fn named(id: u64, words: &[String]) -> Lrec {
    rec(id, &words.join(" "), "", "")
}

/// What `match_text` returns, comparable bit for bit.
fn bits(found: Option<(LrecId, f64)>) -> Option<(LrecId, u64)> {
    found.map(|(id, margin)| (id, margin.to_bits()))
}

/// `resolve_collective` as it was before the hash sets went: the merged-pair
/// set and per-round `HashSet` neighbour clusters. The production body must
/// produce the same clusters in the same number of rounds.
fn resolve_collective_reference(
    n: usize,
    candidates: &[(usize, usize, f64)],
    neighbors: &[Vec<usize>],
    config: &CollectiveConfig,
) -> (UnionFind, usize) {
    fn cluster_jaccard(a: &HashSet<usize>, b: &HashSet<usize>) -> f64 {
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let inter = a.intersection(b).count();
        let union = a.len() + b.len() - inter;
        inter as f64 / union as f64
    }
    let mut uf = UnionFind::new(n);
    let mut merged: HashSet<(usize, usize)> = HashSet::new();
    let mut iters = 0;
    for round in 1..=config.max_iters {
        iters = round;
        let neighbor_clusters: Vec<HashSet<usize>> = (0..n)
            .map(|i| neighbors[i].iter().map(|&j| uf.find(j)).collect())
            .collect();
        let mut changed = false;
        for &(i, j, base) in candidates {
            if merged.contains(&(i, j)) || uf.same(i, j) {
                continue;
            }
            let rel = cluster_jaccard(&neighbor_clusters[i], &neighbor_clusters[j]);
            let score = base + config.relational_weight * rel;
            if score >= config.accept {
                uf.union(i, j);
                merged.insert((i, j));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (uf, iters)
}

/// Candidate generation as it was before `candidate_pairs_from_keys`: bucket
/// by key, push every pair of every bucket within the limit, sort, dedup.
fn candidate_pairs_reference(keys: &[Vec<String>], max_block: usize) -> Vec<(usize, usize)> {
    let mut blocks: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, rec_keys) in keys.iter().enumerate() {
        for k in rec_keys {
            blocks.entry(k.as_str()).or_default().push(i);
        }
    }
    let mut out: Vec<(usize, usize)> = Vec::new();
    for members in blocks.values().filter(|m| m.len() <= max_block) {
        for (a, &i) in members.iter().enumerate() {
            for &j in &members[a + 1..] {
                out.push((i.min(j), i.max(j)));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Keys a random record draws from: the restaurant model's five, plus one
/// the model never reads.
const KEYS: [&str; 6] = ["name", "phone", "zip", "street", "city", "other"];

/// One value of the given kind (`kind % 10` picks among every `AttrValue`
/// variant), built from a text and a number.
fn value_of(kind: usize, text: &str, n: i64) -> AttrValue {
    match kind % 10 {
        0 => AttrValue::Text(text.to_string()),
        1 => AttrValue::Int(n % 7),
        2 => AttrValue::Float(n as f64 / 97.0),
        3 => AttrValue::PriceCents(n - 50),
        4 if n % 2 == 0 => AttrValue::Phone(format!("408555{:04}", n % 3)),
        4 => AttrValue::Phone(text.to_string()),
        5 => AttrValue::Zip(format!("95{:03}", n % 4)),
        6 => AttrValue::Url(format!("http://{text}.example")),
        7 => AttrValue::Date(Date {
            year: 2000 + (n % 3) as u16,
            month: 1 + (n % 12) as u8,
            day: 1 + (n % 3) as u8,
        }),
        8 => AttrValue::Bool(n % 2 == 0),
        _ => AttrValue::Ref(LrecId((n % 3) as u64)),
    }
}

/// A record with 0–7 values of any kind under any of [`KEYS`]: attributes
/// go missing, carry several values, and mix kinds.
fn arb_record() -> impl Strategy<Value = Vec<(usize, usize, String, i64)>> {
    prop::collection::vec(
        (0..KEYS.len(), 0usize..10, "[a-c 0-9]{0,10}", 0i64..400),
        0..8,
    )
}

fn record_of(id: u64, values: &[(usize, usize, String, i64)]) -> Lrec {
    let mut r = Lrec::new(LrecId(id), ConceptId(0));
    for (key, kind, text, n) in values {
        r.add(
            KEYS[*key],
            value_of(*kind, text, *n),
            Provenance::ground_truth(Tick(0)),
        );
    }
    r
}

/// `score`, `score_prepared` and `score_reference` of a pair, as bits.
fn score_bits(fs: &FellegiSunter, a: &Lrec, b: &Lrec) -> [u64; 3] {
    [
        fs.score(a, b).to_bits(),
        fs.score_prepared(&fs.prepare(a), &fs.prepare(b)).to_bits(),
        fs.score_reference(a, b).to_bits(),
    ]
}

#[test]
fn prepared_score_equals_its_reference_on_every_kind_pairing() {
    let fs = FellegiSunter::restaurant_default();
    let samples: Vec<AttrValue> = (0..20)
        .map(|i| value_of(i % 10, "gochi tapas", (i / 10) as i64 * 101 + 4))
        .chain([
            AttrValue::Text("(408) 555-0004".into()),
            AttrValue::Text("$0.54".into()),
            AttrValue::Text(" Gochi ".into()),
        ])
        .collect();
    for key in KEYS {
        for x in &samples {
            for y in &samples {
                let p = Provenance::ground_truth(Tick(0));
                let mut a = Lrec::new(LrecId(1), ConceptId(0));
                let mut b = Lrec::new(LrecId(2), ConceptId(0));
                a.add(key, x.clone(), p.clone());
                b.add(key, y.clone(), p.clone());
                b.add("name", AttrValue::Text("Gochi".into()), p);
                let [s, prepared, reference] = score_bits(&fs, &a, &b);
                assert_eq!(s, reference, "{key}: {x:?} × {y:?}");
                assert_eq!(prepared, reference, "{key}: {x:?} × {y:?}");
            }
        }
    }
}

proptest! {
    /// The prepared Fellegi–Sunter sum equals the per-pair one bit for bit
    /// on random records: missing attributes, multi-valued attributes and
    /// every kind pairing the display-string fallback meets.
    #[test]
    fn prepared_score_equals_its_reference_bit_for_bit(
        recs in prop::collection::vec(arb_record(), 2..8),
    ) {
        let fs = FellegiSunter::restaurant_default();
        let recs: Vec<Lrec> = recs.iter().enumerate().map(|(i, v)| record_of(i as u64, v)).collect();
        let prepared: Vec<_> = recs.iter().map(|r| fs.prepare(r)).collect();
        for (i, a) in recs.iter().enumerate() {
            for (j, b) in recs.iter().enumerate() {
                let reference = fs.score_reference(a, b).to_bits();
                prop_assert_eq!(fs.score(a, b).to_bits(), reference);
                // One preparation serves every pair a record is in.
                prop_assert_eq!(
                    fs.score_prepared(&prepared[i], &prepared[j]).to_bits(),
                    reference
                );
            }
        }
    }

    /// The inverted-index evaluation of `match_text` is the per-model one,
    /// bit for bit: over a small vocabulary tokens repeat inside a text, are
    /// shared by several records, and some records have no tokens at all.
    #[test]
    fn match_text_equals_its_reference_bit_for_bit(
        records in prop::collection::vec(prop::collection::vec("[b-f]{1,2}", 0..5), 1..9),
        text in prop::collection::vec("[b-g]{1,2}", 0..12),
        domain in prop::collection::vec("[b-h]{1,2} [b-h]{1,2} [b-h]{1,2}", 0..3),
        alpha in 0.0f64..1.0,
    ) {
        let recs: Vec<Lrec> = records.iter().enumerate().map(|(i, w)| named(i as u64, w)).collect();
        let domain: Vec<&str> = domain.iter().map(String::as_str).collect();
        let matcher = GenerativeMatcher::build(recs.iter(), &domain, alpha);
        let text = text.join(" ");
        let found = matcher.match_text(&text);
        prop_assert_eq!(bits(found), bits(matcher.match_text_reference(&text)));
        prop_assert_eq!(found.is_some(), !text.is_empty());
        if let (Some((_, margin)), 1) = (found, recs.len()) {
            prop_assert_eq!(margin, f64::INFINITY, "a single candidate has no runner-up");
        }
        // The same text twice over repeats every token.
        let doubled = format!("{text} {text}");
        prop_assert_eq!(
            bits(matcher.match_text(&doubled)),
            bits(matcher.match_text_reference(&doubled))
        );
    }

    /// Two identical records tie for every text: the first wins with margin
    /// 0.0, exactly as a stable sort would have it.
    #[test]
    fn match_text_ties_go_to_the_first_candidate(
        twin in prop::collection::vec("[b-f]{1,2}", 1..5),
        other in prop::collection::vec("[g-k]{1,2}", 0..5),
        twins_first in 0usize..2,
    ) {
        let mut recs = vec![named(10, &twin), named(11, &twin)];
        recs.insert(if twins_first == 1 { 2 } else { 0 }, named(12, &other));
        let matcher = GenerativeMatcher::build(recs.iter(), &[], 0.6);
        let text = twin.join(" ");
        let found = matcher.match_text(&text);
        prop_assert_eq!(bits(found), bits(matcher.match_text_reference(&text)));
        prop_assert_eq!(found, Some((LrecId(10), 0.0)));
    }

    /// `resolve_collective` without its hash sets forms the same clusters in
    /// the same number of rounds — with empty neighbour lists, repeated
    /// neighbours, and chains where one merge enables the next.
    #[test]
    fn collective_equals_its_reference(
        scores in prop::collection::vec((0usize..10, 0usize..10, 0.0f64..1.4), 0..30),
        neighbors in prop::collection::vec(prop::collection::vec(0usize..10, 0..5), 10..11),
        weight in 0.0f64..2.0,
    ) {
        let n = 10;
        let cands: Vec<(usize, usize, f64)> = scores
            .into_iter()
            .filter(|(i, j, _)| i != j)
            .map(|(i, j, s)| (i.min(j), i.max(j), s))
            .collect();
        let config = CollectiveConfig { accept: 1.0, relational_weight: weight, max_iters: 6 };
        let (mut uf, iters) = resolve_collective(n, &cands, &neighbors, &config);
        let (mut expected, expected_iters) =
            resolve_collective_reference(n, &cands, &neighbors, &config);
        prop_assert_eq!(uf.clusters(), expected.clusters());
        prop_assert_eq!(iters, expected_iters);
    }

    /// `candidate_pairs_from_keys` emits what bucket → push → sort → dedup
    /// did, whether buckets fit the limit or not, and the record-level entry
    /// points agree with it at any thread count.
    #[test]
    fn candidate_pairs_from_keys_equals_sort_and_dedup(
        key_sets in prop::collection::vec(prop::collection::vec("[a-d]{1,2}", 0..5), 0..14),
        names in prop::collection::vec("[a-c]{3} [a-c]{3}", 0..12),
    ) {
        // One record's keys are a set: `blocking_keys` never lists one twice.
        let keys: Vec<Vec<String>> = key_sets
            .into_iter()
            .map(|ks| ks.into_iter().collect::<BTreeSet<_>>().into_iter().collect())
            .collect();
        let key_refs: Vec<&[String]> = keys.iter().map(Vec::as_slice).collect();
        for max_block in [2, 3, 200] {
            prop_assert_eq!(
                candidate_pairs_from_keys(&key_refs, max_block),
                candidate_pairs_reference(&keys, max_block)
            );
        }
        let recs: Vec<Lrec> = names
            .iter()
            .enumerate()
            .map(|(i, n)| rec(i as u64, n, "", ""))
            .collect();
        let refs: Vec<&Lrec> = recs.iter().collect();
        let own_keys: Vec<Vec<String>> = refs.iter().map(|r| woc_matching::blocking_keys(r)).collect();
        for max_block in [2, 3, 200] {
            let expected = candidate_pairs_reference(&own_keys, max_block);
            for threads in [1, 4] {
                prop_assert_eq!(&candidate_pairs_sharded(&refs, max_block, threads), &expected);
            }
        }
    }

    /// Value similarity is bounded, reflexive and symmetric across the typed
    /// algebra.
    #[test]
    fn value_similarity_axioms(a in "[a-z0-9 ]{0,20}", b in "[a-z0-9 ]{0,20}") {
        let va = AttrValue::Text(a.clone());
        let vb = AttrValue::Text(b.clone());
        let s = value_similarity(&va, &vb);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s));
        prop_assert!((value_similarity(&va, &va) - 1.0).abs() < 1e-9);
        prop_assert!((value_similarity(&va, &vb) - value_similarity(&vb, &va)).abs() < 1e-9);
    }

    /// Fellegi–Sunter scores are symmetric, and missing attributes never
    /// change a score (loose records: absence is not evidence).
    #[test]
    fn fs_symmetry_and_missing_neutrality(
        n1 in "[a-z]{3,12}", n2 in "[a-z]{3,12}",
        z1 in "[0-9]{5}", z2 in "[0-9]{5}",
    ) {
        let fs = FellegiSunter::restaurant_default();
        let a = rec(1, &n1, &z1, "4085550134");
        let b = rec(2, &n2, &z2, "4085550199");
        prop_assert!((fs.score(&a, &b) - fs.score(&b, &a)).abs() < 1e-9);
        // Adding an attribute only one side has cannot change the score.
        let mut a2 = a.clone();
        a2.add("street", AttrValue::Text("1 Main St".into()), Provenance::ground_truth(Tick(0)));
        prop_assert!((fs.score(&a2, &b) - fs.score(&a, &b)).abs() < 1e-9);
    }

    /// attr_similarity is None iff either side lacks the attribute.
    #[test]
    fn attr_similarity_missing_contract(n in "[a-z]{1,10}") {
        let a = rec(1, &n, "", "");
        let b = rec(2, "", "95014", "");
        prop_assert!(attr_similarity(&a, &b, "name").is_none());
        prop_assert!(attr_similarity(&a, &b, "zip").is_none());
        prop_assert!(attr_similarity(&a, &b, "nope").is_none());
        let c = rec(3, &n, "", "");
        prop_assert!(attr_similarity(&a, &c, "name").is_some());
    }

    /// Blocking never pairs records sharing no key, and identical records
    /// always end up candidates.
    #[test]
    fn blocking_contract(names in prop::collection::vec("[a-f]{4,8}", 2..12)) {
        let recs: Vec<Lrec> = names
            .iter()
            .enumerate()
            .map(|(i, n)| rec(i as u64, n, "", ""))
            .collect();
        let refs: Vec<&Lrec> = recs.iter().collect();
        let pairs = candidate_pairs(&refs, 100);
        for &(i, j) in &pairs {
            prop_assert!(i < j && j < recs.len());
        }
        // Duplicate names must be candidates.
        for i in 0..names.len() {
            for j in (i + 1)..names.len() {
                if names[i] == names[j] {
                    prop_assert!(pairs.contains(&(i, j)), "dup {} not paired", names[i]);
                }
            }
        }
    }

    /// Collective resolution with zero relational weight equals pairwise.
    #[test]
    fn collective_reduces_to_pairwise(
        scores in prop::collection::vec((0usize..8, 0usize..8, -2.0f64..6.0), 0..20)
    ) {
        let n = 8;
        let cands: Vec<(usize, usize, f64)> = scores
            .into_iter()
            .filter(|(i, j, _)| i != j)
            .map(|(i, j, s)| (i.min(j), i.max(j), s))
            .collect();
        let neighbors = vec![Vec::new(); n];
        let (mut coll, _) = resolve_collective(
            n,
            &cands,
            &neighbors,
            &CollectiveConfig {
                accept: 2.0,
                relational_weight: 0.0,
                max_iters: 5,
            },
        );
        let mut pair = resolve_pairwise(n, &cands, 2.0);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(coll.same(i, j), pair.same(i, j));
            }
        }
    }

    /// Pairwise P/R/F1 stays in range and perfect clustering has F1 = 1.
    #[test]
    fn prf_bounds(labels in prop::collection::vec(0u8..4, 1..16)) {
        let n = labels.len();
        let mut perfect = UnionFind::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if labels[i] == labels[j] {
                    perfect.union(i, j);
                }
            }
        }
        let prf = pairwise_prf(&mut perfect, &labels);
        prop_assert!((prf.f1() - 1.0).abs() < 1e-12 || prf.tp + prf.fn_ == 0);
        prop_assert!(prf.precision() >= 0.0 && prf.precision() <= 1.0);
        prop_assert!(prf.recall() >= 0.0 && prf.recall() <= 1.0);
    }

    /// Union-find: union is commutative/idempotent, `same` is an equivalence
    /// relation.
    #[test]
    fn union_find_equivalence(ops in prop::collection::vec((0usize..10, 0usize..10), 0..30)) {
        let mut uf = UnionFind::new(10);
        for &(a, b) in &ops {
            uf.union(a, b);
        }
        for x in 0..10 {
            prop_assert!(uf.same(x, x));
            for y in 0..10 {
                prop_assert_eq!(uf.same(x, y), uf.same(y, x));
                for z in 0..10 {
                    if uf.same(x, y) && uf.same(y, z) {
                        prop_assert!(uf.same(x, z));
                    }
                }
            }
        }
        // Clusters partition the universe.
        let clusters = uf.clusters();
        let total: usize = clusters.iter().map(Vec::len).sum();
        prop_assert_eq!(total, 10);
    }
}
