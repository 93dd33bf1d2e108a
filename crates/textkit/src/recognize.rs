//! Field recognizers — the "rules to identify zips/phones" of paper §4.2.
//!
//! Each recognizer scans token sequences (from [`crate::tokenize::tokenize`])
//! and emits [`FieldSpan`]s with byte offsets into the source text and a
//! confidence in `\[0, 1\]`. Recognizers are hand-built scanners rather than
//! regexes: they are deterministic, dependency-free and easy to audit.

use serde::{Deserialize, Serialize};

use std::sync::OnceLock;

use crate::gazetteer;
use crate::tokenize::{tokenize, Token, TokenKind};

/// The kind of field a recognizer detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldKind {
    /// US-style phone number, e.g. `(408) 555-0134` or `408-555-0134`.
    Phone,
    /// 5-digit US zip, optionally ZIP+4.
    Zip,
    /// Monetary amount, e.g. `$12.95`.
    Price,
    /// Calendar date, e.g. `January 20, 2010` or `01/20/2010`.
    Date,
    /// Clock time or time range, e.g. `11:30am`, `5pm - 10pm`.
    Time,
    /// Street address: number + street words + suffix, e.g. `19980 Homestead Rd`.
    StreetAddress,
    /// City name from the gazetteer.
    City,
    /// Cuisine word from the gazetteer.
    Cuisine,
    /// Email address.
    Email,
    /// URL (http/https or `www.`-prefixed).
    Url,
}

/// A recognized field occurrence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSpan {
    /// What was recognized.
    pub kind: FieldKind,
    /// Byte offset of the span start in the source text.
    pub start: usize,
    /// Byte offset one past the span end.
    pub end: usize,
    /// The matched text.
    pub text: String,
    /// Recognizer confidence in `\[0, 1\]`.
    pub confidence: f64,
}

fn span(kind: FieldKind, toks: &[Token], text: &str, confidence: f64) -> FieldSpan {
    let start = toks.first().map(|t| t.start).unwrap_or(0);
    let end = toks.last().map(|t| t.end).unwrap_or(0);
    FieldSpan {
        kind,
        start,
        end,
        text: text[start..end].to_string(),
        confidence,
    }
}

fn is_digits(t: &Token, len: usize) -> bool {
    t.kind == TokenKind::Number && t.text.len() == len
}

fn is_punct(t: &Token, p: &str) -> bool {
    t.kind == TokenKind::Punct && t.text == p
}

/// Recognize US phone numbers. Accepted shapes over the token stream:
/// `DDD-DDD-DDDD`, `DDD.DDD.DDDD`, `(DDD) DDD-DDDD`, `DDD DDD DDDD`.
pub fn phones(text: &str) -> Vec<FieldSpan> {
    phones_in(&tokenize(text), text)
}

fn phones_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // (DDD) DDD-DDDD
        if i + 4 < toks.len()
            && is_punct(&toks[i], "(")
            && is_digits(&toks[i + 1], 3)
            && is_punct(&toks[i + 2], ")")
            && is_digits(&toks[i + 3], 3)
            && i + 5 < toks.len()
            && (is_punct(&toks[i + 4], "-") || is_punct(&toks[i + 4], "."))
            && is_digits(&toks[i + 5], 4)
        {
            out.push(span(FieldKind::Phone, &toks[i..=i + 5], text, 0.98));
            i += 6;
            continue;
        }
        // DDD sep DDD sep DDDD where sep is -, ., or adjacency with space
        if i + 2 < toks.len() && is_digits(&toks[i], 3) && is_digits_sep(toks, i).is_some() {
            if let Some(consumed) = is_digits_sep(toks, i) {
                out.push(span(FieldKind::Phone, &toks[i..i + consumed], text, 0.95));
                i += consumed;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Helper: from position `i` (a 3-digit token) try to match the rest of a
/// phone `DDD [sep] DDD [sep] DDDD`; returns number of tokens consumed.
fn is_digits_sep(toks: &[Token], i: usize) -> Option<usize> {
    let mut j = i + 1;
    let mut seps = 0usize;
    // optional separator
    if j < toks.len() && (is_punct(&toks[j], "-") || is_punct(&toks[j], ".")) {
        j += 1;
        seps += 1;
    }
    if j >= toks.len() || !is_digits(&toks[j], 3) {
        return None;
    }
    j += 1;
    if j < toks.len() && (is_punct(&toks[j], "-") || is_punct(&toks[j], ".")) {
        j += 1;
        seps += 1;
    }
    if j >= toks.len() || !is_digits(&toks[j], 4) {
        return None;
    }
    j += 1;
    // Bare "DDD DDD DDDD" without any separator is too ambiguous; require at
    // least one explicit separator.
    if seps == 0 {
        return None;
    }
    Some(j - i)
}

/// Recognize 5-digit zips (optionally ZIP+4). A 5-digit number adjacent to a
/// known state code or city gets higher confidence.
pub fn zips(text: &str) -> Vec<FieldSpan> {
    zips_in(&tokenize(text), text)
}

fn zips_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_digits(&toks[i], 5) {
            // Exclude when part of a phone-like pattern already.
            let mut end = i;
            let mut conf = 0.6;
            // ZIP+4
            if i + 2 < toks.len() && is_punct(&toks[i + 1], "-") && is_digits(&toks[i + 2], 4) {
                end = i + 2;
                conf = 0.9;
            }
            // Context boost: preceding token is a state code or city word.
            if i > 0 {
                let prev = toks[i - 1].text.to_uppercase();
                if [
                    "CA", "IL", "WA", "TX", "OR", "MA", "NY", "RI", "WI", "CO", "GA",
                ]
                .contains(&prev.as_str())
                {
                    conf = 0.97;
                }
            }
            out.push(span(FieldKind::Zip, &toks[i..=end], text, conf));
            i = end + 1;
            continue;
        }
        i += 1;
    }
    out
}

/// Recognize monetary amounts: `$D`, `$D.DD`, and `D dollars`.
pub fn prices(text: &str) -> Vec<FieldSpan> {
    prices_in(&tokenize(text), text)
}

fn prices_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if is_punct(&toks[i], "$") && i + 1 < toks.len() && toks[i + 1].kind == TokenKind::Number {
            let mut end = i + 1;
            if i + 3 < toks.len() && is_punct(&toks[i + 2], ".") && is_digits(&toks[i + 3], 2) {
                end = i + 3;
            }
            out.push(span(FieldKind::Price, &toks[i..=end], text, 0.97));
            i = end + 1;
            continue;
        }
        if toks[i].kind == TokenKind::Number
            && i + 1 < toks.len()
            && toks[i + 1].lower() == "dollars"
        {
            out.push(span(FieldKind::Price, &toks[i..=i + 1], text, 0.9));
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Recognize dates: `Month D, YYYY`, `Month D YYYY`, `M/D/YYYY`, `YYYY-MM-DD`.
pub fn dates(text: &str) -> Vec<FieldSpan> {
    dates_in(&tokenize(text), text)
}

fn dates_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let months = gazetteer::month_set();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // Month D[,] YYYY
        if toks[i].kind == TokenKind::Word && months.contains(capitalize(&toks[i].text).as_str()) {
            let mut j = i + 1;
            if j < toks.len() && toks[j].kind == TokenKind::Number && toks[j].text.len() <= 2 {
                j += 1;
                if j < toks.len() && is_punct(&toks[j], ",") {
                    j += 1;
                }
                if j < toks.len() && is_digits(&toks[j], 4) {
                    out.push(span(FieldKind::Date, &toks[i..=j], text, 0.97));
                    i = j + 1;
                    continue;
                }
            }
        }
        // YYYY-MM-DD (ISO)
        if is_digits(&toks[i], 4)
            && i + 4 < toks.len()
            && is_punct(&toks[i + 1], "-")
            && is_digits(&toks[i + 2], 2)
            && is_punct(&toks[i + 3], "-")
            && is_digits(&toks[i + 4], 2)
        {
            let month: u32 = toks[i + 2].text.parse().unwrap_or(0);
            let day: u32 = toks[i + 4].text.parse().unwrap_or(0);
            if (1..=12).contains(&month) && (1..=31).contains(&day) {
                out.push(span(FieldKind::Date, &toks[i..=i + 4], text, 0.95));
                i += 5;
                continue;
            }
        }
        // M/D/YYYY
        if toks[i].kind == TokenKind::Number
            && toks[i].text.len() <= 2
            && i + 4 < toks.len()
            && is_punct(&toks[i + 1], "/")
            && toks[i + 2].kind == TokenKind::Number
            && toks[i + 2].text.len() <= 2
            && is_punct(&toks[i + 3], "/")
            && is_digits(&toks[i + 4], 4)
        {
            out.push(span(FieldKind::Date, &toks[i..=i + 4], text, 0.95));
            i += 5;
            continue;
        }
        i += 1;
    }
    out
}

fn capitalize(s: &str) -> String {
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + &c.as_str().to_lowercase(),
        None => String::new(),
    }
}

/// Recognize clock times: `H[:MM]am/pm`, e.g. `11:30am`, `5 pm`.
pub fn times(text: &str) -> Vec<FieldSpan> {
    times_in(&tokenize(text), text)
}

fn times_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Number && toks[i].text.len() <= 2 {
            let mut j = i;
            if i + 2 < toks.len() && is_punct(&toks[i + 1], ":") && is_digits(&toks[i + 2], 2) {
                j = i + 2;
            }
            if j + 1 < toks.len() {
                let ampm = toks[j + 1].lower();
                if ampm == "am" || ampm == "pm" {
                    out.push(span(FieldKind::Time, &toks[i..=j + 1], text, 0.95));
                    i = j + 2;
                    continue;
                }
            }
        }
        i += 1;
    }
    out
}

/// Recognize street addresses: a 1-5 digit number followed by 1-3 words and
/// a street suffix. Confidence is boosted when a street word is in the
/// gazetteer.
pub fn street_addresses(text: &str) -> Vec<FieldSpan> {
    street_addresses_in(&tokenize(text), text)
}

fn street_addresses_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let suffixes = gazetteer::street_suffix_any_set();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokenKind::Number && toks[i].text.len() <= 5 {
            // Look ahead 1..=3 words then a suffix.
            let mut words = Vec::new();
            let mut j = i + 1;
            while j < toks.len() && toks[j].kind == TokenKind::Word && words.len() < 4 {
                if suffixes.contains(capitalize(&toks[j].text).as_str()) && !words.is_empty() {
                    let street_phrase = words.join(" ");
                    let conf = if gazetteer::street_set().contains(street_phrase.as_str()) {
                        0.97
                    } else {
                        0.8
                    };
                    out.push(span(FieldKind::StreetAddress, &toks[i..=j], text, conf));
                    break;
                }
                words.push(capitalize(&toks[j].text));
                j += 1;
            }
        }
        i += 1;
    }
    out
}

/// Recognize cities (gazetteer phrases) with byte spans.
pub fn cities(text: &str) -> Vec<FieldSpan> {
    cities_in(&tokenize(text), text)
}

/// The gazetteer's city names as lowercased word sequences, in gazetteer
/// order.
fn city_words() -> &'static [Vec<String>] {
    static WORDS: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    WORDS.get_or_init(|| {
        gazetteer::CITIES
            .iter()
            .map(|&(city, _, _)| city.split(' ').map(str::to_lowercase).collect())
            .collect()
    })
}

/// [`cities`] as first written, lowercasing every token once per gazetteer
/// city; [`recognize_all_reference`] runs it.
fn cities_reference(text: &str) -> Vec<FieldSpan> {
    let toks = tokenize(text);
    let mut out = Vec::new();
    for &(city, _, _) in gazetteer::CITIES {
        let city_words: Vec<String> = city.split(' ').map(|w| w.to_lowercase()).collect();
        let n = city_words.len();
        if n == 0 || toks.len() < n {
            continue;
        }
        for w in 0..=(toks.len() - n) {
            let window = &toks[w..w + n];
            if window
                .iter()
                .zip(&city_words)
                .all(|(t, cw)| t.kind == TokenKind::Word && t.lower() == *cw)
            {
                out.push(span(FieldKind::City, window, text, 0.9));
            }
        }
    }
    out.sort_by_key(|s| s.start);
    out
}

fn cities_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    // Each word token is lowercased once; no other token matches a city
    // word.
    let lower: Vec<Option<String>> = toks
        .iter()
        .map(|t| (t.kind == TokenKind::Word).then(|| t.lower()))
        .collect();
    let mut out = Vec::new();
    for words in city_words() {
        if words.is_empty() {
            continue;
        }
        for (w, window) in lower.windows(words.len()).enumerate() {
            let hit = window
                .iter()
                .zip(words)
                .all(|(t, cw)| t.as_deref() == Some(cw.as_str()));
            if let Some(toks) = toks.get(w..w + words.len()).filter(|_| hit) {
                out.push(span(FieldKind::City, toks, text, 0.9));
            }
        }
    }
    out.sort_by_key(|s| s.start);
    out
}

/// Recognize cuisine mentions with byte spans.
pub fn cuisines(text: &str) -> Vec<FieldSpan> {
    cuisines_in(&tokenize(text))
}

fn cuisines_in(toks: &[Token]) -> Vec<FieldSpan> {
    let set = gazetteer::cuisine_set();
    toks.iter()
        .filter(|t| t.kind == TokenKind::Word && set.contains(capitalize(&t.text).as_str()))
        .map(|t| FieldSpan {
            kind: FieldKind::Cuisine,
            start: t.start,
            end: t.end,
            text: t.text.clone(),
            confidence: 0.85,
        })
        .collect()
}

/// Recognize emails: `word(.word)* @ word(.word)+` over the raw text.
pub fn emails(text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    let bytes = text.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'@' {
            continue;
        }
        // Expand left.
        let mut s = i;
        while s > 0 {
            let c = bytes[s - 1];
            if c.is_ascii_alphanumeric() || c == b'.' || c == b'_' || c == b'-' {
                s -= 1;
            } else {
                break;
            }
        }
        // Expand right.
        let mut e = i + 1;
        let mut dots = 0;
        while e < bytes.len() {
            let c = bytes[e];
            if c.is_ascii_alphanumeric() || c == b'-' {
                e += 1;
            } else if c == b'.' && e + 1 < bytes.len() && bytes[e + 1].is_ascii_alphanumeric() {
                dots += 1;
                e += 1;
            } else {
                break;
            }
        }
        if s < i && dots >= 1 {
            out.push(FieldSpan {
                kind: FieldKind::Email,
                start: s,
                end: e,
                text: text[s..e].to_string(),
                confidence: 0.97,
            });
        }
    }
    out
}

/// Recognize URLs starting with `http://`, `https://` or `www.`.
pub fn urls(text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    for prefix in ["http://", "https://", "www."] {
        let mut from = 0;
        while let Some(pos) = text[from..].find(prefix) {
            let start = from + pos;
            // Only accept "www." at a word boundary.
            if prefix == "www." && start > 0 {
                let prev = text.as_bytes()[start - 1];
                if prev.is_ascii_alphanumeric() || prev == b'/' || prev == b'.' {
                    from = start + prefix.len();
                    continue;
                }
            }
            let mut end = start;
            for (off, c) in text[start..].char_indices() {
                if c.is_whitespace() || c == '"' || c == '<' || c == '>' || c == ')' {
                    break;
                }
                end = start + off + c.len_utf8();
            }
            // Trim trailing sentence punctuation.
            while end > start && matches!(text.as_bytes()[end - 1], b'.' | b',' | b';') {
                end -= 1;
            }
            if end > start + prefix.len() {
                out.push(FieldSpan {
                    kind: FieldKind::Url,
                    start,
                    end,
                    text: text[start..end].to_string(),
                    confidence: 0.98,
                });
            }
            from = end.max(start + prefix.len());
        }
    }
    out.sort_by_key(|s| s.start);
    out.dedup_by(|a, b| a.start < b.end && b.start < a.end); // drop overlaps (keep first)
    out
}

/// Run every recognizer and return all spans sorted by start offset.
pub fn recognize_all(text: &str) -> Vec<FieldSpan> {
    recognize_all_in(&tokenize(text), text)
}

/// [`recognize_all`] over `toks`, which must be `tokenize(text)`, for a
/// caller that has them already: every token-level recognizer reads the
/// one token list, in the reference's order, so the stable sort sees the
/// same sequence.
pub fn recognize_all_in(toks: &[Token], text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    out.extend(phones_in(toks, text));
    out.extend(street_addresses_in(toks, text));
    let covered: Vec<(usize, usize)> = out.iter().map(|s| (s.start, s.end)).collect();
    // 5-digit numbers inside phone numbers or street addresses (street
    // numbers!) are not zips.
    out.extend(
        zips_in(toks, text)
            .into_iter()
            .filter(|z| !covered.iter().any(|&(s, e)| z.start >= s && z.end <= e)),
    );
    out.extend(prices_in(toks, text));
    out.extend(dates_in(toks, text));
    out.extend(times_in(toks, text));
    out.extend(cities_in(toks, text));
    out.extend(cuisines_in(toks));
    out.extend(emails(text));
    out.extend(urls(text));
    out.sort_by_key(|s| (s.start, s.end));
    debug_assert_eq!(
        out,
        recognize_all_reference(text),
        "one tokenization must recognize what one per recognizer does"
    );
    out
}

/// [`recognize_all`] as first written: every recognizer tokenizes the text
/// itself, and cities are matched by the original scan. The oracle of the property tests and the debug-build shadow;
/// nothing else calls it.
pub fn recognize_all_reference(text: &str) -> Vec<FieldSpan> {
    let mut out = Vec::new();
    out.extend(phones(text));
    out.extend(street_addresses(text));
    let covered: Vec<(usize, usize)> = out.iter().map(|s| (s.start, s.end)).collect();
    // 5-digit numbers inside phone numbers or street addresses (street
    // numbers!) are not zips.
    out.extend(
        zips(text)
            .into_iter()
            .filter(|z| !covered.iter().any(|&(s, e)| z.start >= s && z.end <= e)),
    );
    out.extend(prices(text));
    out.extend(dates(text));
    out.extend(times(text));
    out.extend(cities_reference(text));
    out.extend(cuisines(text));
    out.extend(emails(text));
    out.extend(urls(text));
    out.sort_by_key(|s| (s.start, s.end));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phone_formats() {
        for t in [
            "Call 408-555-0134 now",
            "Call (408) 555-0134 now",
            "Call 408.555.0134 now",
        ] {
            let p = phones(t);
            assert_eq!(p.len(), 1, "text: {t}");
            assert!(p[0].text.contains("408"));
        }
        assert!(phones("no phone 12345 here").is_empty());
    }

    #[test]
    fn phone_requires_separator() {
        assert!(
            phones("123 456 7890").is_empty(),
            "bare triples are ambiguous"
        );
    }

    #[test]
    fn zip_detection() {
        let z = zips("Cupertino CA 95014");
        assert_eq!(z.len(), 1);
        assert_eq!(z[0].text, "95014");
        assert!(z[0].confidence > 0.9, "state context boosts confidence");
        let z = zips("95014-1234");
        assert_eq!(z[0].text, "95014-1234");
    }

    #[test]
    fn zip_not_confused_with_phone() {
        let all = recognize_all("Call 408-555-0134");
        assert!(all.iter().all(|s| s.kind != FieldKind::Zip));
        assert!(all.iter().any(|s| s.kind == FieldKind::Phone));
    }

    #[test]
    fn price_detection() {
        let p = prices("Lunch special $12.95 or 20 dollars");
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].text, "$12.95");
        assert_eq!(p[1].text, "20 dollars");
    }

    #[test]
    fn date_detection() {
        let d = dates("open on January 20, 2010 and 1/20/2010");
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].text, "January 20, 2010");
        assert_eq!(d[1].text, "1/20/2010");
    }

    #[test]
    fn time_detection() {
        let t = times("Open 11:30am to 9 pm daily");
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].text, "11:30am");
        assert_eq!(t[1].text, "9 pm");
    }

    #[test]
    fn street_address_detection() {
        let a = street_addresses("located at 19980 Homestead Rd in Cupertino");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].text, "19980 Homestead Rd");
        assert!(a[0].confidence > 0.9, "gazetteer street boosts confidence");
    }

    #[test]
    fn city_and_cuisine() {
        let c = cities("best pizza in San Jose and Chicago");
        assert_eq!(c.len(), 2);
        let cu = cuisines("great Italian food");
        assert_eq!(cu.len(), 1);
        assert_eq!(cu[0].text, "Italian");
    }

    #[test]
    fn email_detection() {
        let e = emails("contact info@gochi-tapas.example.com today");
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].text, "info@gochi-tapas.example.com");
        assert!(emails("no at sign").is_empty());
        assert!(emails("a@b").is_empty(), "needs a dot in the domain");
    }

    #[test]
    fn url_detection() {
        let u = urls("see http://gochi.example.com/menu. Also www.yelp.example.");
        assert_eq!(u.len(), 2);
        assert_eq!(u[0].text, "http://gochi.example.com/menu");
        assert_eq!(u[1].text, "www.yelp.example");
    }

    #[test]
    fn recognize_all_sorted() {
        let spans = recognize_all(
            "Gochi, 19980 Homestead Rd, Cupertino CA 95014, (408) 555-0134, open 11am",
        );
        assert!(!spans.is_empty());
        for w in spans.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        let kinds: std::collections::HashSet<_> = spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&FieldKind::StreetAddress));
        assert!(kinds.contains(&FieldKind::City));
        assert!(kinds.contains(&FieldKind::Zip));
        assert!(kinds.contains(&FieldKind::Phone));
        assert!(kinds.contains(&FieldKind::Time));
    }
}
