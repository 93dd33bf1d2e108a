//! String similarity metrics used by entity matching (paper §6).
//!
//! The entity-matching literature the paper builds on (Fellegi–Sunter \[31\],
//! Cohen et al. \[20\], Navarro \[51\]) composes per-attribute similarity scores
//! from edit-distance and token-overlap measures. All similarities here are
//! normalized to `\[0, 1\]` with `1.0` meaning identical.

use std::collections::HashMap;
use std::hash::Hash;

/// Levenshtein edit distance between two strings (unit costs), computed over
/// `char`s with the classic two-row dynamic program (O(|a|·|b|) time,
/// O(min(|a|,|b|)) space — see the perf-book guidance on avoiding quadratic
/// allocation in hot loops).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Levenshtein distance normalized to a similarity in `\[0, 1\]`:
/// `1 - d / max(|a|, |b|)`. Two empty strings are defined as similarity 1.
pub fn lev_similarity(a: &str, b: &str) -> f64 {
    let la = a.chars().count();
    let lb = b.chars().count();
    let m = la.max(lb);
    if m == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / m as f64
}

/// Jaro similarity between two strings, in `\[0, 1\]`.
///
/// Matching window is `max(|a|,|b|)/2 - 1` per the standard definition.
pub fn jaro(a: &str, b: &str) -> f64 {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let j = jaro_chars(&ca, &cb);
    debug_assert_eq!(
        j.to_bits(),
        jaro_reference(a, b).to_bits(),
        "the bitset Jaro must equal the reference bit for bit"
    );
    j
}

/// [`jaro`] over character slices, with the match flags of both sides in
/// one bitset: the same greedy window scan (first unused equal character
/// of `b`, left to right) and the same transposition walk over the matched
/// characters in order, so the counts and the final division are the
/// reference's. Storage for up to 512 flag bits sits on the stack; the
/// loops run over a `[u64]` slice either way.
fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (wa, wb) = (a.len().div_ceil(64), b.len().div_ceil(64));
    let mut stack = [0u64; 8];
    let mut heap = Vec::new();
    let flags: &mut [u64] = match stack.get_mut(..wa + wb) {
        Some(words) => words,
        None => {
            heap.resize(wa + wb, 0);
            &mut heap
        }
    };
    let (a_flags, b_flags) = flags.split_at_mut(wa);
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut m = 0usize;
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        let Some(row) = b.get(lo..hi) else {
            continue;
        };
        let hit = (lo..hi)
            .zip(row)
            .find(|&(j, cb)| cb == ca && !test_bit(b_flags, j));
        if let Some((j, _)) = hit {
            set_bit(b_flags, j);
            set_bit(a_flags, i);
            m += 1;
        }
    }
    if m == 0 {
        return 0.0;
    }
    let transpositions = set_bits(a_flags)
        .zip(set_bits(b_flags))
        .filter(|&(i, j)| a.get(i) != b.get(j))
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

fn test_bit(words: &[u64], i: usize) -> bool {
    words.get(i / 64).is_some_and(|w| (w >> (i % 64)) & 1 == 1)
}

fn set_bit(words: &mut [u64], i: usize) {
    if let Some(w) = words.get_mut(i / 64) {
        *w |= 1 << (i % 64);
    }
}

/// Positions of the set bits, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &bits)| {
        std::iter::successors((bits != 0).then_some(bits), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

/// [`jaro`] as first written: character vectors, boolean flag vectors and
/// the matched characters collected on both sides. The oracle the property
/// tests and the debug-build shadow compare against; nothing else calls it.
pub fn jaro_reference(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_used = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    let mut match_flags_b = vec![false; b.len()];
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_used[j] && b[j] == ca {
                b_used[j] = true;
                match_flags_b[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(match_flags_b.iter())
        .filter(|(_, &f)| f)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro–Winkler similarity: Jaro boosted by shared prefix (standard p=0.1,
/// prefix capped at 4 characters). In `\[0, 1\]`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let jw = jaro_winkler_chars(&ca, &cb);
    debug_assert_eq!(
        jw.to_bits(),
        jaro_winkler_reference(a, b).to_bits(),
        "the bitset Jaro–Winkler must equal the reference bit for bit"
    );
    jw
}

fn jaro_winkler_chars(a: &[char], b: &[char]) -> f64 {
    let j = jaro_chars(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// [`jaro_winkler`] over [`jaro_reference`]: the oracle of the property
/// tests and the debug-build shadow.
pub fn jaro_winkler_reference(a: &str, b: &str) -> f64 {
    let j = jaro_reference(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Jaccard similarity between two slices viewed as sets. In `\[0, 1\]`;
/// two empty sets are defined as similarity 1.
pub fn jaccard<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    let sa: std::collections::HashSet<&T> = a.iter().collect();
    let sb: std::collections::HashSet<&T> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    inter as f64 / union as f64
}

/// Dice coefficient between two slices viewed as sets: `2|A∩B| / (|A|+|B|)`.
pub fn dice<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    let sa: std::collections::HashSet<&T> = a.iter().collect();
    let sb: std::collections::HashSet<&T> = b.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    2.0 * inter as f64 / (sa.len() + sb.len()) as f64
}

/// Cosine similarity between two multisets given as item slices (counts are
/// taken from repetitions). In `\[0, 1\]` since counts are non-negative.
pub fn cosine_counts<T: Eq + Hash + Clone>(a: &[T], b: &[T]) -> f64 {
    let ca = counts(a);
    let cb = counts(b);
    let mut dot = 0.0;
    for (k, &v) in &ca {
        if let Some(&w) = cb.get(k) {
            dot += v as f64 * w as f64;
        }
    }
    let na: f64 = ca.values().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

fn counts<T: Eq + Hash + Clone>(items: &[T]) -> HashMap<&T, usize> {
    let mut m = HashMap::new();
    for it in items {
        *m.entry(it).or_insert(0) += 1;
    }
    m
}

/// Character n-gram multiset of a string (padded with `_` at both ends),
/// useful for robust fuzzy-name comparison via [`cosine_counts`]/[`dice`].
pub fn char_ngrams(s: &str, n: usize) -> Vec<String> {
    assert!(n > 0, "n-gram order must be positive");
    let padded: Vec<char> = std::iter::repeat_n('_', n - 1)
        .chain(s.chars())
        .chain(std::iter::repeat_n('_', n - 1))
        .collect();
    if padded.len() < n {
        return Vec::new();
    }
    padded.windows(n).map(|w| w.iter().collect()).collect()
}

/// What [`name_similarity`] reads of one string, computed once: the
/// characters of its normalized form and the set of its normalized tokens,
/// as spans of those characters sorted by their text and deduplicated.
/// Entity matching keeps one per compared value, so a record that takes
/// part in a hundred candidate pairs is normalized once, not a hundred
/// times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameKey {
    chars: Vec<char>,
    tokens: Vec<(usize, usize)>,
}

impl NameKey {
    /// The key of `s`.
    pub fn new(s: &str) -> Self {
        let chars: Vec<char> = crate::tokenize::normalize(s).chars().collect();
        // `normalize` leaves single spaces between non-empty tokens, but
        // splitting on every space and dropping empty pieces is what the
        // reference does.
        let mut tokens: Vec<(usize, usize)> = Vec::new();
        let mut start = 0;
        for (i, &c) in chars.iter().enumerate().chain([(chars.len(), &' ')]) {
            if c == ' ' {
                if i > start {
                    tokens.push((start, i));
                }
                start = i + 1;
            }
        }
        let mut key = Self {
            chars,
            tokens: Vec::new(),
        };
        tokens.sort_unstable_by(|&x, &y| key.token(x).cmp(key.token(y)));
        tokens.dedup_by(|x, y| key.token(*x) == key.token(*y));
        key.tokens = tokens;
        key
    }

    fn token(&self, (start, end): (usize, usize)) -> &[char] {
        self.chars.get(start..end).unwrap_or_default()
    }
}

/// A hybrid name-similarity used as the default in entity matching: the
/// maximum of Jaro–Winkler on the normalized strings and Jaccard on their
/// token sets. Robust both to typos and to word reordering
/// ("Gochi Fusion Tapas" vs "Fusion Tapas Gochi").
pub fn name_similarity(a: &str, b: &str) -> f64 {
    let s = name_similarity_keys(&NameKey::new(a), &NameKey::new(b));
    debug_assert_eq!(
        s.to_bits(),
        name_similarity_reference(a, b).to_bits(),
        "the keyed name similarity must equal the reference bit for bit"
    );
    s
}

/// [`name_similarity`] of two prepared keys. Jaccard is a merge count over
/// the two sorted token sets: the same intersection and union counts the
/// hash sets give, the same division, and 1.0 for two empty sets.
pub fn name_similarity_keys(a: &NameKey, b: &NameKey) -> f64 {
    let jw = jaro_winkler_chars(&a.chars, &b.chars);
    let jaccard = if a.tokens.is_empty() && b.tokens.is_empty() {
        1.0
    } else {
        let mut x = a.tokens.iter().map(|&t| a.token(t)).peekable();
        let mut y = b.tokens.iter().map(|&t| b.token(t)).peekable();
        let mut inter = 0usize;
        while let (Some(p), Some(q)) = (x.peek(), y.peek()) {
            match p.cmp(q) {
                std::cmp::Ordering::Less => {
                    x.next();
                }
                std::cmp::Ordering::Greater => {
                    y.next();
                }
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    x.next();
                    y.next();
                }
            }
        }
        let union = a.tokens.len() + b.tokens.len() - inter;
        inter as f64 / union as f64
    };
    jw.max(jaccard)
}

/// [`name_similarity`] as first written: both strings normalized, split and
/// hashed on every call. The oracle of the property tests and the
/// debug-build shadow; nothing else calls it.
pub fn name_similarity_reference(a: &str, b: &str) -> f64 {
    let na = crate::tokenize::normalize(a);
    let nb = crate::tokenize::normalize(b);
    let jw = jaro_winkler_reference(&na, &nb);
    let ta: Vec<&str> = na.split(' ').filter(|t| !t.is_empty()).collect();
    let tb: Vec<&str> = nb.split(' ').filter(|t| !t.is_empty()).collect();
    jw.max(jaccard(&ta, &tb))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("gochi", "gochi"), 0);
    }

    #[test]
    fn levenshtein_unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn lev_similarity_bounds() {
        assert_eq!(lev_similarity("", ""), 1.0);
        assert_eq!(lev_similarity("abc", "abc"), 1.0);
        assert_eq!(lev_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn jaro_known_values() {
        // Classic textbook examples.
        let v = jaro("MARTHA", "MARHTA");
        assert!((v - 0.944444).abs() < 1e-4, "got {v}");
        let v = jaro("DIXON", "DICKSONX");
        assert!((v - 0.766667).abs() < 1e-4, "got {v}");
    }

    #[test]
    fn jaro_winkler_known_values() {
        let v = jaro_winkler("MARTHA", "MARHTA");
        assert!((v - 0.961111).abs() < 1e-4, "got {v}");
        assert_eq!(jaro_winkler("abc", "abc"), 1.0);
        assert_eq!(jaro_winkler("", ""), 1.0);
        assert_eq!(jaro_winkler("a", ""), 0.0);
    }

    #[test]
    fn jaccard_and_dice() {
        let a = ["x", "y", "z"];
        let b = ["y", "z", "w"];
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert!((dice(&a, &b) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(jaccard::<&str>(&[], &[]), 1.0);
    }

    #[test]
    fn cosine_counts_basics() {
        assert_eq!(cosine_counts(&["a", "a"], &["a"]), 1.0);
        assert_eq!(cosine_counts(&["a"], &["b"]), 0.0);
        assert_eq!(cosine_counts::<&str>(&[], &[]), 1.0);
    }

    #[test]
    fn char_ngrams_padding() {
        let g = char_ngrams("ab", 2);
        assert_eq!(g, vec!["_a", "ab", "b_"]);
        assert_eq!(char_ngrams("", 1), Vec::<String>::new());
    }

    #[test]
    fn name_similarity_reordering() {
        let s = name_similarity("Gochi Fusion Tapas", "Fusion Tapas Gochi");
        assert!(s > 0.99, "reordered names should match, got {s}");
        let s = name_similarity("Gochi Fusion Tapas", "Taqueria El Farolito");
        assert!(s < 0.6, "unrelated names should not match, got {s}");
    }
}
