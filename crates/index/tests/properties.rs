//! Property tests: index round-trips and ranking invariants.

use proptest::prelude::*;
use woc_index::postings::{intersect, union, DocId, PostingList};
use woc_index::{FieldQuery, InvertedIndex, MergePolicy, RecordChange, SegmentedLrecIndex};
use woc_lrec::{ConceptId, LrecId};

proptest! {
    /// Posting lists round-trip through their byte encoding.
    #[test]
    fn postings_encode_decode(docs in prop::collection::btree_map(0u32..100_000, 1u32..50, 0..64)) {
        let mut pl = PostingList::new();
        for (&d, &tf) in &docs {
            pl.add_tf(DocId(d), tf);
        }
        let decoded = PostingList::decode(pl.encode()).unwrap();
        prop_assert_eq!(decoded, pl);
    }

    /// Every indexed document is findable by each of its own terms,
    /// and all scores are non-negative.
    #[test]
    fn indexed_docs_findable(docs in prop::collection::vec(
        prop::collection::vec("[a-e]{1,3}", 1..8), 1..12)) {
        let mut ix = InvertedIndex::new();
        for toks in &docs {
            ix.add_tokens(toks);
        }
        for (i, toks) in docs.iter().enumerate() {
            for t in toks {
                let hits = ix.search_terms(std::slice::from_ref(t), usize::MAX);
                prop_assert!(
                    hits.iter().any(|h| h.doc.0 as usize == i),
                    "doc {} not found for its own term {:?}", i, t
                );
                for h in &hits {
                    prop_assert!(h.score >= 0.0);
                }
            }
        }
    }

    /// Results are sorted by score descending, doc id ascending on ties,
    /// and top-k is a prefix of top-(k+1).
    #[test]
    fn ranking_sorted_and_prefix_stable(docs in prop::collection::vec(
        prop::collection::vec("[a-c]{1,2}", 1..6), 1..10), k in 1usize..6) {
        let mut ix = InvertedIndex::new();
        for toks in &docs {
            ix.add_tokens(toks);
        }
        let q = ["a".to_string(), "b".to_string()];
        let top_k = ix.search_terms(&q, k);
        let top_k1 = ix.search_terms(&q, k + 1);
        for w in top_k.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        prop_assert!(top_k.len() <= k);
        for (a, b) in top_k.iter().zip(&top_k1) {
            prop_assert_eq!(a.doc, b.doc);
        }
    }

    /// Phrase hits are a subset of AND hits, and an indexed document is
    /// always a phrase hit for any contiguous slice of its own tokens.
    #[test]
    fn phrase_subset_of_and(docs in prop::collection::vec(
        prop::collection::vec("[a-c]", 1..8), 1..8), start in 0usize..4, len in 1usize..4) {
        let mut ix = InvertedIndex::new();
        for toks in &docs {
            ix.add_tokens(toks);
        }
        // Pick a real slice of doc 0 as the phrase.
        let d0 = &docs[0];
        let start = start.min(d0.len() - 1);
        let end = (start + len).min(d0.len());
        let phrase = d0[start..end].join(" ");
        let phrase_hits = ix.search_phrase(&phrase);
        prop_assert!(
            phrase_hits.iter().any(|d| d.0 == 0),
            "doc 0 must match its own slice {:?}", phrase
        );
        let and_hits = ix.search_and(&phrase);
        for d in &phrase_hits {
            prop_assert!(and_hits.contains(d), "phrase hit missing from AND");
        }
    }

    /// Delta+varint encoding round-trips arbitrary sorted doc id lists,
    /// including huge gaps near the u32 ceiling (multi-byte varints).
    #[test]
    fn postings_roundtrip_large_gaps(docs in prop::collection::btree_map(
        0u32..u32::MAX - 1, 1u32..1_000_000, 0..32)) {
        let mut pl = PostingList::new();
        for (&d, &tf) in &docs {
            pl.add_tf(DocId(d), tf);
        }
        let decoded = PostingList::decode(pl.encode()).unwrap();
        prop_assert_eq!(&decoded, &pl);
        // Double round-trip: re-encoding the decoded list is byte-identical.
        prop_assert_eq!(decoded.encode(), pl.encode());
    }

    /// `intersect` agrees with the naive model: exactly the doc ids present
    /// in both lists, ascending.
    #[test]
    fn intersect_matches_naive_model(
        a in prop::collection::btree_map(0u32..2_000, 1u32..20, 0..48),
        b in prop::collection::btree_map(0u32..2_000, 1u32..20, 0..48)) {
        let mut pa = PostingList::new();
        for (&d, &tf) in &a { pa.add_tf(DocId(d), tf); }
        let mut pb = PostingList::new();
        for (&d, &tf) in &b { pb.add_tf(DocId(d), tf); }
        let naive: Vec<DocId> = a.keys()
            .filter(|d| b.contains_key(d))
            .map(|&d| DocId(d))
            .collect();
        prop_assert_eq!(intersect(&pa, &pb), naive);
    }

    /// `union` agrees with the naive model: every doc id from either side,
    /// ascending, with term frequencies summed on the overlap — and it
    /// round-trips through the byte encoding like any other list.
    #[test]
    fn union_matches_naive_model(
        a in prop::collection::btree_map(0u32..2_000, 1u32..20, 0..48),
        b in prop::collection::btree_map(0u32..2_000, 1u32..20, 0..48)) {
        let mut pa = PostingList::new();
        for (&d, &tf) in &a { pa.add_tf(DocId(d), tf); }
        let mut pb = PostingList::new();
        for (&d, &tf) in &b { pb.add_tf(DocId(d), tf); }
        let u = union(&pa, &pb);
        let mut naive: std::collections::BTreeMap<u32, u32> = a.clone();
        for (&d, &tf) in &b {
            *naive.entry(d).or_insert(0) += tf;
        }
        let got: Vec<(u32, u32)> = u.iter().map(|p| (p.doc.0, p.tf)).collect();
        let want: Vec<(u32, u32)> = naive.into_iter().collect();
        prop_assert_eq!(got, want);
        prop_assert_eq!(u.doc_freq() as usize,
            a.keys().chain(b.keys()).collect::<std::collections::BTreeSet<_>>().len());
        prop_assert_eq!(PostingList::decode(u.encode()).unwrap(), u);
    }

    /// `FieldQuery::parse` never panics on arbitrary byte soup, and neither
    /// do `to_string` and `normalized` on whatever it produced.
    #[test]
    fn field_query_parse_total(bytes in prop::collection::vec(0u8..=255, 0..64)) {
        let soup = String::from_utf8_lossy(&bytes);
        let fq = FieldQuery::parse(&soup);
        let _ = fq.to_string();
        let _ = fq.normalized().to_string();
    }

    /// `parse → to_string → parse` is idempotent for any input: one render
    /// cycle canonicalizes the query, after which re-parsing the rendering
    /// reproduces it exactly. The serving cache keys on this stability.
    #[test]
    fn field_query_render_fixed_point(raw in ".{0,48}") {
        let fq1 = FieldQuery::parse(&raw);
        let fq2 = FieldQuery::parse(&fq1.to_string());
        let fq3 = FieldQuery::parse(&fq2.to_string());
        prop_assert_eq!(&fq3, &fq2, "render of {:?} not stable", raw);
        // Normalization commutes with the render cycle.
        let norm = fq2.normalized();
        prop_assert_eq!(FieldQuery::parse(&norm.to_string()), norm);
    }

    /// Well-formed queries (plain terms, `field:value`, quoted values,
    /// `is:` concept filters) hit the fixed point on the *first* render.
    #[test]
    fn field_query_well_formed_round_trip(
        terms in prop::collection::vec("[a-z]{1,6}", 0..4),
        scoped in prop::collection::vec(("[a-z]{1,4}", "[a-z]{1,6}"), 0..3),
        quoted in prop::option::of(("[a-z]{1,4}", "[a-z]{1,4}", "[a-z]{1,4}")),
        concept in prop::option::of("[a-z]{1,6}")) {
        let mut parts: Vec<String> = terms;
        for (f, v) in &scoped {
            parts.push(format!("{f}:{v}"));
        }
        if let Some((f, v1, v2)) = &quoted {
            // Quoted multi-word value: city:"san jose" scopes both words.
            parts.push(format!("{f}:\"{v1} {v2}\""));
        }
        if let Some(c) = &concept {
            parts.push(format!("is:{c}"));
        }
        let raw = parts.join(" ");
        let fq1 = FieldQuery::parse(&raw);
        if let Some((f, v1, v2)) = &quoted {
            prop_assert!(fq1.scoped.contains(&(f.clone(), v1.clone())));
            prop_assert!(fq1.scoped.contains(&(f.clone(), v2.clone())));
        }
        prop_assert_eq!(FieldQuery::parse(&fq1.to_string()), fq1);
    }

    /// Boolean AND result is exactly the set of documents containing all terms.
    #[test]
    fn boolean_and_exact(docs in prop::collection::vec(
        prop::collection::vec("[a-c]", 0..5), 0..10)) {
        let mut ix = InvertedIndex::new();
        for toks in &docs {
            ix.add_tokens(toks);
        }
        let found = ix.search_and("a b");
        for (i, toks) in docs.iter().enumerate() {
            let has_both = toks.iter().any(|t| t == "a") && toks.iter().any(|t| t == "b");
            let in_result = found.iter().any(|d| d.0 as usize == i);
            prop_assert_eq!(has_both, in_result, "doc {} tokens {:?}", i, toks);
        }
    }

    /// Block-max pruning never changes the returned top-k: same docs, same
    /// order, same score bits as exhaustive scoring — under an arbitrary
    /// (superset) stats snapshot, an arbitrary dead set, any block size.
    #[test]
    fn pruned_search_equals_exhaustive(
        docs in prop::collection::vec(prop::collection::vec("[a-f]{1,2}", 0..10), 1..24),
        extra in prop::collection::vec(prop::collection::vec("[a-f]{1,2}", 0..10), 0..8),
        query in prop::collection::vec("[a-f]{1,2}", 1..5),
        k in 1usize..8,
        dead_mask in 0u32..=u32::MAX,
        block in 1usize..5)
    {
        let mut ix = InvertedIndex::new();
        for toks in &docs {
            ix.add_tokens(toks);
        }
        // Pinned-stats serving situation: the snapshot covers a superset
        // corpus, so idf and average length differ from the index's own.
        let mut superset = ix.clone();
        for toks in &extra {
            superset.add_tokens(toks);
        }
        let stats = superset.scoring_stats();
        let dead: std::collections::HashSet<DocId> = (0..docs.len() as u32)
            .filter(|d| dead_mask & (1u32 << (d % 32)) != 0)
            .map(DocId)
            .collect();
        let bm = ix.block_max(block);
        let pruned = ix.search_terms_pruned_with_stats(&query, k, &stats, &bm, &dead);
        // Exhaustive oracle: score everything, drop dead docs, take top k.
        let mut all = ix.search_terms_with_stats(&query, usize::MAX, &stats);
        all.retain(|h| !dead.contains(&h.doc));
        all.truncate(k);
        prop_assert_eq!(pruned.len(), all.len(), "hit counts diverge");
        for (p, e) in pruned.iter().zip(&all) {
            prop_assert_eq!(p.doc, e.doc);
            prop_assert_eq!(p.score.to_bits(), e.score.to_bits(),
                "score bits diverge for {:?}", p.doc);
        }
    }

    /// Segment merging is associative and order-independent: any merge
    /// schedule over the same deltas yields byte-identical postings (equal
    /// frozen-segment digests once fully merged) and identical top-k.
    #[test]
    fn segment_merge_schedule_independent(
        base in prop::collection::btree_map(
            0u64..40, (0u32..3, prop::collection::vec("[a-d]{1,2}", 1..6)), 1..16),
        deltas in prop::collection::vec(
            prop::collection::btree_map(
                0u64..48,
                prop::option::of((0u32..3, prop::collection::vec("[a-d]{1,2}", 1..6))),
                1..8),
            2..5),
        schedule_seed in 0u64..=u64::MAX,
        query in prop::collection::vec("[a-d]{1,2}", 1..4))
    {
        // Manual policy: the schedules below are the only merges.
        let manual = MergePolicy {
            fanout: usize::MAX,
            compact_fraction: f64::INFINITY,
            max_deltas: usize::MAX,
        };
        let entries: Vec<_> = base
            .iter()
            .map(|(&id, (c, t))| (LrecId(id), ConceptId(*c), t.clone()))
            .collect();
        let mut seg = SegmentedLrecIndex::new(entries, manual);
        for d in &deltas {
            let changes: Vec<RecordChange> = d
                .iter()
                .map(|(&id, v)| RecordChange {
                    id: LrecId(id),
                    concept: ConceptId(v.as_ref().map(|(c, _)| *c).unwrap_or(0)),
                    old_tokens: None,
                    new_tokens: v.as_ref().map(|(_, t)| t.clone()),
                })
                .collect();
            seg.apply_delta(changes);
        }
        // Schedule A: fold left. Schedule B: seed-driven adjacent merges.
        let mut a = seg.clone();
        while a.delta_count() > 1 {
            a.merge_deltas(0, 1);
        }
        let mut b = seg.clone();
        let mut s = schedule_seed;
        while b.delta_count() > 1 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = ((s >> 33) as usize) % (b.delta_count() - 1);
            b.merge_deltas(i, i + 1);
        }
        if a.delta_count() == 1 && b.delta_count() == 1 {
            prop_assert_eq!(
                a.delta_segments()[0].digest(),
                b.delta_segments()[0].digest(),
                "schedules built different merged postings"
            );
        }
        prop_assert_eq!(a.flatten().digest(), b.flatten().digest());
        let fq = FieldQuery { terms: query, scoped: Vec::new(), concept: None };
        let ha = a.search(&fq, 10, |_| None);
        let hb = b.search(&fq, 10, |_| None);
        prop_assert_eq!(ha.len(), hb.len());
        for (x, y) in ha.iter().zip(&hb) {
            prop_assert_eq!(x.id, y.id);
            prop_assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
        // And both agree with the flat oracle through the pinned stats.
        let flat = a.flatten();
        let hf = flat.search_with_stats(&fq, 10, |_| None, a.pinned_stats());
        prop_assert_eq!(ha, hf);
    }
}
