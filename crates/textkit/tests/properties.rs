//! Property-based tests for textkit invariants (DESIGN.md §8).

use proptest::prelude::*;
use woc_textkit::metrics::{
    char_ngrams, cosine_counts, dice, jaccard, jaro, jaro_reference, jaro_winkler,
    jaro_winkler_reference, lev_similarity, levenshtein, name_similarity, name_similarity_keys,
    name_similarity_reference, NameKey,
};
use woc_textkit::recognize::{recognize_all, recognize_all_reference};
use woc_textkit::tokenize::{normalize, sentences, tokenize, tokenize_words};

/// Strings for the string-metric oracles: the empty string, whitespace
/// only, multibyte text, repeated tokens, and lengths past one and two
/// 64-bit flag words.
fn metric_input() -> impl Strategy<Value = String> {
    const WORDS: [&str; 5] = ["gochi", "tapas", "Gochi", "  ", "中文"];
    prop_oneof![
        "",
        "[ \t\n]{1,6}",
        "[a-c ]{0,20}",
        "[a-eéüß中 ]{0,24}",
        prop::collection::vec((0..WORDS.len()).prop_map(|i| WORDS[i]), 0..8)
            .prop_map(|w| w.join(" ")),
        "[a-d ]{60,70}",
        "[a-d]{120,140}",
        "[ab ]{129,200}",
        "\\PC{0,40}",
    ]
}

/// Row-like text for the recognizer oracle: the shapes every recognizer
/// looks for, mixed with noise.
fn row_text() -> impl Strategy<Value = String> {
    const FIELDS: [&str; 20] = [
        "(408) 555-0134",
        "408-555-0134",
        "408.555.0134",
        "95014",
        "95014-1234",
        "CA",
        "$12.95",
        "20 dollars",
        "January 20, 2010",
        "1/20/2010",
        "2010-01-20",
        "11:30am",
        "5 pm",
        "19980 Homestead Rd",
        "San Jose",
        "Cupertino",
        "Italian",
        "info@gochi.example.com",
        "http://gochi.example.com/menu",
        "www.yelp.example",
    ];
    let piece = prop_oneof![
        (0..FIELDS.len()).prop_map(|i| FIELDS[i].to_string()),
        "[A-Za-z0-9 ,.:$/@-]{0,12}",
        "\\PC{0,8}",
    ];
    prop::collection::vec(piece, 0..10).prop_map(|p| p.join(" "))
}

proptest! {
    #[test]
    fn bitset_jaro_equals_its_reference_bit_for_bit(
        pairs in prop::collection::vec((metric_input(), metric_input()), 8..16),
    ) {
        for (a, b) in &pairs {
            prop_assert_eq!(jaro(a, b).to_bits(), jaro_reference(a, b).to_bits(), "{:?} {:?}", a, b);
            prop_assert_eq!(
                jaro_winkler(a, b).to_bits(),
                jaro_winkler_reference(a, b).to_bits(),
                "{:?} {:?}",
                a,
                b
            );
        }
    }

    #[test]
    fn keyed_name_similarity_equals_its_reference_bit_for_bit(
        pairs in prop::collection::vec((metric_input(), metric_input()), 8..16),
    ) {
        for (a, b) in &pairs {
            let reference = name_similarity_reference(a, b).to_bits();
            prop_assert_eq!(name_similarity(a, b).to_bits(), reference, "{:?} {:?}", a, b);
            prop_assert_eq!(
                name_similarity_keys(&NameKey::new(a), &NameKey::new(b)).to_bits(),
                reference,
                "{:?} {:?}",
                a,
                b
            );
        }
    }

    #[test]
    fn one_tokenization_recognizes_what_one_per_recognizer_does(
        texts in prop::collection::vec(row_text(), 4..8),
    ) {
        for text in &texts {
            prop_assert_eq!(recognize_all(text), recognize_all_reference(text), "{:?}", text);
        }
    }
}

#[test]
fn string_oracles_agree_on_the_edge_cases() {
    let long_a = "ab".repeat(70);
    let long_b = "ba".repeat(66);
    let cases: [(&str, &str); 9] = [
        ("", ""),
        ("", "gochi"),
        ("   ", "\t"),
        (" Gochi ", "gochi"),
        ("gochi gochi tapas", "tapas gochi"),
        ("Café Ünïcode 中文", "cafe unicode"),
        ("MARTHA", "MARHTA"),
        (&long_a, &long_b),
        ("DIXON", "DICKSONX"),
    ];
    for (a, b) in cases {
        assert_eq!(
            jaro(a, b).to_bits(),
            jaro_reference(a, b).to_bits(),
            "{a:?} {b:?}"
        );
        assert_eq!(
            jaro_winkler(a, b).to_bits(),
            jaro_winkler_reference(a, b).to_bits(),
            "{a:?} {b:?}"
        );
        assert_eq!(
            name_similarity(a, b).to_bits(),
            name_similarity_reference(a, b).to_bits(),
            "{a:?} {b:?}"
        );
    }
}

proptest! {
    #[test]
    fn tokenize_spans_slice_source(s in ".{0,200}") {
        let toks = tokenize(&s);
        for t in &toks {
            prop_assert_eq!(&s[t.start..t.end], t.text.as_str());
        }
        // Spans strictly increasing and non-overlapping.
        for w in toks.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn tokenize_words_all_lowercase(s in "\\PC{0,200}") {
        for w in tokenize_words(&s) {
            prop_assert_eq!(w.to_lowercase(), w.clone());
            prop_assert!(!w.is_empty());
        }
    }

    #[test]
    fn normalize_idempotent(s in "\\PC{0,200}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once.clone());
        prop_assert!(!once.starts_with(' ') && !once.ends_with(' '));
    }

    #[test]
    fn levenshtein_metric_axioms(a in "[a-z]{0,20}", b in "[a-z]{0,20}", c in "[a-z]{0,20}") {
        // Identity, symmetry, triangle inequality.
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
        // Bounded by max length.
        prop_assert!(levenshtein(&a, &b) <= a.len().max(b.len()));
    }

    #[test]
    fn similarities_bounded(a in "\\PC{0,40}", b in "\\PC{0,40}") {
        for v in [
            lev_similarity(&a, &b),
            jaro(&a, &b),
            jaro_winkler(&a, &b),
            name_similarity(&a, &b),
        ] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v), "similarity out of range: {}", v);
        }
    }

    #[test]
    fn similarity_identity(a in "\\PC{1,40}") {
        prop_assert!((jaro(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((jaro_winkler(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((lev_similarity(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn similarity_symmetry(a in "[a-z ]{0,30}", b in "[a-z ]{0,30}") {
        prop_assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
        prop_assert!((lev_similarity(&a, &b) - lev_similarity(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn set_similarities_bounded(a in prop::collection::vec("[a-z]{1,6}", 0..20),
                                b in prop::collection::vec("[a-z]{1,6}", 0..20)) {
        for v in [jaccard(&a, &b), dice(&a, &b), cosine_counts(&a, &b)] {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
        prop_assert!((jaccard(&a, &a) - 1.0).abs() < 1e-12);
        prop_assert!((cosine_counts(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn char_ngram_count(s in "[a-z]{0,30}", n in 1usize..5) {
        let g = char_ngrams(&s, n);
        if s.is_empty() && n == 1 {
            prop_assert!(g.is_empty());
        } else {
            // With (n-1) padding on both sides there are len + n - 1 windows.
            prop_assert_eq!(g.len(), s.chars().count() + n - 1);
        }
        for gram in &g {
            prop_assert_eq!(gram.chars().count(), n);
        }
    }

    #[test]
    fn sentences_cover_nonwhitespace(s in "[a-zA-Z .!?]{0,120}") {
        // Every sentence is a non-empty trimmed substring of the input.
        for sent in sentences(&s) {
            prop_assert!(!sent.is_empty());
            prop_assert!(s.contains(sent));
            prop_assert_eq!(sent.trim(), sent);
        }
    }
}

#[test]
fn tfidf_vector_norm_nonnegative() {
    use woc_textkit::{CorpusStats, TfIdf};
    let mut s = CorpusStats::new();
    s.add_document(&["a", "b", "c"]);
    s.add_document(&["a", "d"]);
    let v = TfIdf::new(&s).vectorize(&["a", "b", "b"]);
    assert!(v.norm() > 0.0);
    for &(_, w) in v.entries() {
        assert!(w >= 0.0, "tf-idf weights are non-negative with BM25+ idf");
    }
}
