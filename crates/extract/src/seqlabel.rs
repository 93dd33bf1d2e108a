//! Linear-chain sequence labeling with an averaged structured perceptron.
//!
//! Paper §4.1: "Conditional Random Fields have been used effectively to
//! parse postal addresses and lists of publications." This module provides
//! the same capability — feature-based linear-chain models with exact
//! Viterbi decoding — trained by the averaged structured perceptron
//! (Collins 2002), which optimizes the same decoding objective as a CRF
//! without external ML dependencies.
//!
//! Features include token identity, word shape, gazetteer membership
//! (names, venues, months — the domain knowledge), and neighbor words;
//! first-order transitions are learned jointly.

use std::collections::HashMap;

use woc_textkit::gazetteer;
use woc_textkit::tokenize::{tokenize, Token, TokenKind};

/// A training/evaluation example: tokens with gold labels.
#[derive(Debug, Clone)]
pub struct Example {
    /// Token strings.
    pub tokens: Vec<String>,
    /// One gold label per token.
    pub labels: Vec<String>,
}

/// Build an example from raw text and ordered `(field, substring)` segments:
/// tokens inside a segment get the field label, everything else gets `O`.
///
/// Segments are located left-to-right, each search starting where the
/// previous segment ended, so repeated substrings resolve in order.
pub fn example_from_segments(text: &str, segments: &[(String, String)]) -> Example {
    let toks = tokenize(text);
    let mut labels = vec!["O".to_string(); toks.len()];
    let mut cursor = 0usize;
    for (field, sub) in segments {
        if sub.is_empty() {
            continue;
        }
        let Some(found) = text[cursor..].find(sub.as_str()) else {
            continue;
        };
        let start = cursor + found;
        let end = start + sub.len();
        for (i, t) in toks.iter().enumerate() {
            if t.start >= start && t.end <= end {
                labels[i] = field.clone();
            }
        }
        cursor = end;
    }
    Example {
        tokens: toks.iter().map(|t| t.text.clone()).collect(),
        labels,
    }
}

fn word_shape(t: &str) -> String {
    let mut shape = String::new();
    let mut last = ' ';
    for c in t.chars() {
        let s = if c.is_uppercase() {
            'X'
        } else if c.is_lowercase() {
            'x'
        } else if c.is_ascii_digit() {
            'd'
        } else {
            '.'
        };
        if s != last {
            shape.push(s);
            last = s;
        }
    }
    shape
}

/// Emission features of token `i` in a sentence.
fn features(tokens: &[String], i: usize) -> Vec<String> {
    let t = &tokens[i];
    let lower = t.to_lowercase();
    let mut f = vec![
        format!("w={lower}"),
        format!("shape={}", word_shape(t)),
        format!("len={}", t.len().min(8)),
    ];
    if gazetteer::first_name_set().contains(t.as_str()) {
        f.push("gaz:first".into());
    }
    if gazetteer::last_name_set().contains(t.as_str()) {
        f.push("gaz:last".into());
    }
    if gazetteer::venue_set().contains(t.as_str()) {
        f.push("gaz:venue".into());
    }
    if gazetteer::month_set().contains(t.as_str()) {
        f.push("gaz:month".into());
    }
    if gazetteer::city_set().contains(t.as_str()) {
        f.push("gaz:city".into());
    }
    if t.len() == 4 && t.chars().all(|c| c.is_ascii_digit()) {
        f.push("year-like".into());
    }
    if i == 0 {
        f.push("begin".into());
    }
    if i + 1 == tokens.len() {
        f.push("end".into());
    }
    if i > 0 {
        f.push(format!("prev={}", tokens[i - 1].to_lowercase()));
    }
    if i + 1 < tokens.len() {
        f.push(format!("next={}", tokens[i + 1].to_lowercase()));
    }
    f
}

/// An averaged-perceptron linear-chain labeler.
#[derive(Debug, Clone, Default)]
pub struct Labeler {
    labels: Vec<String>,
    /// feature → per-label weights.
    emit: HashMap<String, Vec<f64>>,
    /// `trans[prev][cur]`, with index `labels.len()` as the start state.
    trans: Vec<Vec<f64>>,
}

impl Labeler {
    fn label_id(&mut self, l: &str) -> usize {
        match self.labels.iter().position(|x| x == l) {
            Some(i) => i,
            None => {
                self.labels.push(l.to_string());
                self.labels.len() - 1
            }
        }
    }

    /// Train on examples for `epochs` passes with weight averaging.
    pub fn train(examples: &[Example], epochs: usize) -> Labeler {
        Labeler::default().train_more(examples, epochs)
    }

    /// Continue training from this model's weights — the transfer-learning
    /// mechanism §7.2 asks for ("even if the extractor cannot be directly
    /// applied … we should not require the full efforts to develop a new
    /// extractor"): adapt a source-format model to a new format with a
    /// handful of target examples instead of training from scratch.
    pub fn adapt(&self, examples: &[Example], epochs: usize) -> Labeler {
        self.clone().train_more(examples, epochs)
    }

    fn train_more(mut self, examples: &[Example], epochs: usize) -> Labeler {
        let mut model = std::mem::take(&mut self);
        for ex in examples {
            for l in &ex.labels {
                model.label_id(l);
            }
        }
        let n_labels = model.labels.len();
        // Grow existing weight vectors to the (possibly larger) label set.
        for w in model.emit.values_mut() {
            w.resize(n_labels, 0.0);
        }
        let old_rows = model.trans.len();
        for row in &mut model.trans {
            row.resize(n_labels, 0.0);
        }
        if old_rows < n_labels + 1 {
            model.trans.resize(n_labels + 1, vec![0.0; n_labels]);
        } else if old_rows > n_labels + 1 {
            // Start row must stay last: move it.
            let start_row = model.trans.remove(old_rows - 1);
            model.trans.truncate(n_labels);
            model.trans.push(start_row);
        }

        // Averaging accumulators with lazy timestamps.
        let mut emit_acc: HashMap<String, Vec<f64>> = HashMap::new();
        let mut emit_last: HashMap<String, u64> = HashMap::new();
        let mut trans_acc = vec![vec![0.0; n_labels]; n_labels + 1];
        let mut trans_last = vec![vec![0u64; n_labels]; n_labels + 1];
        let mut step: u64 = 0;

        for _ in 0..epochs {
            for ex in examples {
                step += 1;
                let gold: Vec<usize> = ex
                    .labels
                    .iter()
                    .map(|l| {
                        model
                            .labels
                            .iter()
                            .position(|x| x == l)
                            .expect("invariant: training labels come from the model label set")
                    })
                    .collect();
                let pred = model.viterbi_ids(&ex.tokens);
                if pred == gold {
                    continue;
                }
                // Perceptron update: +gold, -pred.
                for i in 0..ex.tokens.len() {
                    if pred[i] == gold[i] {
                        continue;
                    }
                    for f in features(&ex.tokens, i) {
                        let w = model
                            .emit
                            .entry(f.clone())
                            .or_insert_with(|| vec![0.0; n_labels]);
                        // Flush averaging for this feature.
                        let acc = emit_acc
                            .entry(f.clone())
                            .or_insert_with(|| vec![0.0; n_labels]);
                        let last = emit_last.entry(f).or_insert(0);
                        let dt = (step - *last) as f64;
                        for (a, ww) in acc.iter_mut().zip(w.iter()) {
                            *a += ww * dt;
                        }
                        *last = step;
                        w[gold[i]] += 1.0;
                        w[pred[i]] -= 1.0;
                    }
                }
                for i in 0..ex.tokens.len() {
                    let gprev = if i == 0 { n_labels } else { gold[i - 1] };
                    let pprev = if i == 0 { n_labels } else { pred[i - 1] };
                    if gprev == pprev && gold[i] == pred[i] {
                        continue;
                    }
                    for (prev, cur, delta) in [(gprev, gold[i], 1.0f64), (pprev, pred[i], -1.0)] {
                        let dt = (step - trans_last[prev][cur]) as f64;
                        trans_acc[prev][cur] += model.trans[prev][cur] * dt;
                        trans_last[prev][cur] = step;
                        model.trans[prev][cur] += delta;
                    }
                }
            }
        }
        // Final averaging flush.
        for (f, w) in &model.emit {
            let acc = emit_acc
                .entry(f.clone())
                .or_insert_with(|| vec![0.0; n_labels]);
            let last = emit_last.get(f).copied().unwrap_or(0);
            let dt = (step - last) as f64;
            for (a, ww) in acc.iter_mut().zip(w.iter()) {
                *a += ww * dt;
            }
        }
        for prev in 0..=n_labels {
            for cur in 0..n_labels {
                let dt = (step - trans_last[prev][cur]) as f64;
                trans_acc[prev][cur] += model.trans[prev][cur] * dt;
            }
        }
        let denom = (step.max(1)) as f64;
        model.emit = emit_acc
            .into_iter()
            .map(|(f, v)| (f, v.into_iter().map(|x| x / denom).collect()))
            .collect();
        model.trans = trans_acc
            .into_iter()
            .map(|row| row.into_iter().map(|x| x / denom).collect())
            .collect();
        model
    }

    fn emit_scores(&self, tokens: &[String], i: usize) -> Vec<f64> {
        let mut scores = vec![0.0; self.labels.len()];
        for f in features(tokens, i) {
            if let Some(w) = self.emit.get(&f) {
                for (s, ww) in scores.iter_mut().zip(w) {
                    *s += ww;
                }
            }
        }
        scores
    }

    fn viterbi_ids(&self, tokens: &[String]) -> Vec<usize> {
        let n = tokens.len();
        let l = self.labels.len();
        if n == 0 || l == 0 {
            return Vec::new();
        }
        let start = l; // start-state row in trans
        let mut dp = vec![vec![f64::NEG_INFINITY; l]; n];
        let mut back = vec![vec![0usize; l]; n];
        let e0 = self.emit_scores(tokens, 0);
        for (y, item) in dp[0].iter_mut().enumerate() {
            *item = e0[y] + self.trans.get(start).map_or(0.0, |row| row[y]);
        }
        for i in 1..n {
            let ei = self.emit_scores(tokens, i);
            for y in 0..l {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0;
                for (prev, &dp_prev) in dp[i - 1].iter().enumerate() {
                    let s = dp_prev + self.trans[prev][y];
                    if s > best {
                        best = s;
                        arg = prev;
                    }
                }
                dp[i][y] = best + ei[y];
                back[i][y] = arg;
            }
        }
        let mut last = (0..l)
            .max_by(|&a, &b| {
                dp[n - 1][a]
                    .partial_cmp(&dp[n - 1][b])
                    .expect("invariant: viterbi scores are finite, never NaN")
            })
            .expect("invariant: the label set is non-empty");
        let mut out = vec![0usize; n];
        out[n - 1] = last;
        for i in (1..n).rev() {
            last = back[i][last];
            out[i - 1] = last;
        }
        out
    }

    /// Exhaustive decode for tiny instances — used by property tests to
    /// verify Viterbi optimality. Panics if `labels^tokens` exceeds 1e6.
    pub fn brute_force(&self, tokens: &[String]) -> Vec<String> {
        let l = self.labels.len();
        let n = tokens.len();
        assert!((l as f64).powi(n as i32) <= 1e6, "instance too large");
        let emits: Vec<Vec<f64>> = (0..n).map(|i| self.emit_scores(tokens, i)).collect();
        let mut best_score = f64::NEG_INFINITY;
        let mut best: Vec<usize> = Vec::new();
        let mut assignment = vec![0usize; n];
        loop {
            let mut score = 0.0;
            for i in 0..n {
                let prev = if i == 0 { l } else { assignment[i - 1] };
                score += emits[i][assignment[i]] + self.trans[prev][assignment[i]];
            }
            if score > best_score {
                best_score = score;
                best = assignment.clone();
            }
            // Next assignment (odometer).
            let mut i = 0;
            loop {
                if i == n {
                    return best.iter().map(|&y| self.labels[y].clone()).collect();
                }
                assignment[i] += 1;
                if assignment[i] < l {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    /// Predict labels for a token sequence.
    pub fn predict(&self, tokens: &[String]) -> Vec<String> {
        self.viterbi_ids(tokens)
            .into_iter()
            .map(|y| self.labels[y].clone())
            .collect()
    }

    /// Label raw text; returns `(field, substring)` segments of maximal
    /// same-label runs (excluding `O`).
    pub fn segment(&self, text: &str) -> Vec<(String, String)> {
        let toks: Vec<Token> = tokenize(text);
        let tokens: Vec<String> = toks.iter().map(|t| t.text.clone()).collect();
        let labels = self.predict(&tokens);
        let mut out: Vec<(String, String)> = Vec::new();
        let mut i = 0;
        while i < toks.len() {
            if labels[i] == "O" {
                i += 1;
                continue;
            }
            let mut j = i;
            // Extend the run, allowing punctuation tokens labeled the same.
            while j + 1 < toks.len() && labels[j + 1] == labels[i] {
                j += 1;
            }
            // Trim trailing punctuation from the segment.
            let mut end = j;
            while end > i && toks[end].kind == TokenKind::Punct {
                end -= 1;
            }
            out.push((
                labels[i].clone(),
                text[toks[i].start..toks[end].end].to_string(),
            ));
            i = j + 1;
        }
        out
    }

    /// The known label set.
    pub fn label_set(&self) -> &[String] {
        &self.labels
    }

    /// Token accuracy on held-out examples.
    pub fn token_accuracy(&self, examples: &[Example]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for ex in examples {
            let pred = self.predict(&ex.tokens);
            for (p, g) in pred.iter().zip(&ex.labels) {
                total += 1;
                if p == g {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_webgen::sites::academic::render_citation;
    use woc_webgen::{World, WorldConfig};

    fn citation_examples(world: &World, fmt_mask: &[usize]) -> Vec<Example> {
        world
            .publications
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let cit = render_citation(world, p, fmt_mask[i % fmt_mask.len()]);
                example_from_segments(&cit.text, &cit.segments)
            })
            .collect()
    }

    #[test]
    fn example_from_segments_aligns() {
        let ex = example_from_segments(
            "Ada Lovelace. On Engines. In PODS, 2009.",
            &[
                ("authors".into(), "Ada Lovelace".into()),
                ("title".into(), "On Engines".into()),
                ("venue".into(), "PODS".into()),
                ("year".into(), "2009".into()),
            ],
        );
        assert_eq!(ex.tokens.len(), ex.labels.len());
        let pairs: Vec<(&str, &str)> = ex
            .tokens
            .iter()
            .map(String::as_str)
            .zip(ex.labels.iter().map(String::as_str))
            .collect();
        assert!(pairs.contains(&("Ada", "authors")));
        assert!(pairs.contains(&("Engines", "title")));
        assert!(pairs.contains(&("PODS", "venue")));
        assert!(pairs.contains(&("2009", "year")));
        assert!(pairs.contains(&(".", "O")));
    }

    #[test]
    fn learns_citation_segmentation() {
        let w = World::generate(WorldConfig {
            publications: 40,
            ..WorldConfig::tiny(111)
        });
        let examples = citation_examples(&w, &[0, 1, 2]);
        let (train, test) = examples.split_at(30);
        let model = Labeler::train(train, 8);
        let acc = model.token_accuracy(test);
        assert!(acc > 0.85, "citation token accuracy too low: {acc}");
    }

    #[test]
    fn transfer_gap_across_formats() {
        // Trained on one citation format, tested on another: accuracy drops —
        // the sensitivity to training data the paper calls out ("a model
        // learnt to extract Computer Science publications may perform poorly
        // on Physics publications").
        let w = World::generate(WorldConfig {
            publications: 40,
            ..WorldConfig::tiny(112)
        });
        let same = citation_examples(&w, &[0]);
        let other = citation_examples(&w, &[2]);
        let model = Labeler::train(&same[..30], 8);
        let in_format = model.token_accuracy(&same[30..]);
        let out_format = model.token_accuracy(&other[30..]);
        assert!(
            in_format > out_format,
            "in-format {in_format} should beat out-of-format {out_format}"
        );
    }

    #[test]
    fn adaptation_beats_cold_start_with_few_examples() {
        // Transfer (§7.2): a model trained on citation format 0, adapted with
        // 4 examples of format 2, beats a model trained on those 4 examples
        // alone — the source model's lexical/gazetteer knowledge transfers.
        let w = World::generate(WorldConfig {
            publications: 40,
            ..WorldConfig::tiny(124)
        });
        let source = citation_examples(&w, &[0]);
        let target = citation_examples(&w, &[2]);
        let base = Labeler::train(&source[..30], 8);
        let no_adapt_acc = base.token_accuracy(&target[10..]);
        let adapted = base.adapt(&target[..2], 4);
        let adapted_acc = adapted.token_accuracy(&target[10..]);
        assert!(
            adapted_acc > no_adapt_acc,
            "two target examples must beat zero: {adapted_acc:.3} vs {no_adapt_acc:.3}"
        );
        assert!(
            adapted_acc > 0.9,
            "adapted accuracy too low: {adapted_acc:.3}"
        );
    }

    #[test]
    fn adapt_admits_new_labels() {
        // Adaptation data includes one rehearsal example of the old label —
        // standard practice against catastrophic forgetting in warm-started
        // perceptrons.
        let ex1 = vec![Example {
            tokens: vec!["PODS".into()],
            labels: vec!["venue".into()],
        }];
        let ex2 = vec![
            Example {
                tokens: vec!["Cupertino".into()],
                labels: vec!["city".into()],
            },
            ex1[0].clone(),
        ];
        let m = Labeler::train(&ex1, 3).adapt(&ex2, 3);
        assert!(m.label_set().contains(&"venue".to_string()));
        assert!(m.label_set().contains(&"city".to_string()));
        assert_eq!(m.predict(&["PODS".to_string()]), vec!["venue".to_string()]);
        assert_eq!(
            m.predict(&["Cupertino".to_string()]),
            vec!["city".to_string()]
        );
    }

    #[test]
    fn segment_reconstructs_fields() {
        let w = World::generate(WorldConfig {
            publications: 40,
            ..WorldConfig::tiny(113)
        });
        let examples = citation_examples(&w, &[0]);
        let model = Labeler::train(&examples[..30], 8);
        let cit = render_citation(&w, w.publications[35], 0);
        let segs = model.segment(&cit.text);
        let get = |f: &str| segs.iter().find(|(k, _)| k == f).map(|(_, v)| v.as_str());
        let truth_venue = cit
            .segments
            .iter()
            .find(|(k, _)| k == "venue")
            .unwrap()
            .1
            .clone();
        assert_eq!(get("venue"), Some(truth_venue.as_str()));
        assert!(get("year").is_some());
    }

    #[test]
    fn learns_address_segmentation() {
        // The paper's other CRF use case: "parse postal addresses". Generate
        // address strings from the world and segment street/city/state/zip.
        let w = World::generate(WorldConfig {
            restaurants: 30,
            ..WorldConfig::tiny(115)
        });
        let examples: Vec<Example> = w
            .restaurants
            .iter()
            .map(|&r| {
                let rec = w.rec(r);
                let street = rec.best_string("street").unwrap();
                let city = rec.best_string("city").unwrap();
                let state = rec.best_string("state").unwrap();
                let zip = rec.best_string("zip").unwrap();
                let text = format!("{street}, {city}, {state} {zip}");
                example_from_segments(
                    &text,
                    &[
                        ("street".into(), street),
                        ("city".into(), city),
                        ("state".into(), state),
                        ("zip".into(), zip),
                    ],
                )
            })
            .collect();
        let (train, test) = examples.split_at(20);
        let model = Labeler::train(train, 8);
        let acc = model.token_accuracy(test);
        assert!(acc > 0.9, "address token accuracy {acc}");
        // Segment an unseen synthetic address.
        let segs = model.segment("4321 Winchester Blvd, Cupertino, CA 95014");
        let has = |f: &str, v: &str| segs.iter().any(|(k, val)| k == f && val == v);
        assert!(has("zip", "95014"), "zip segment: {segs:?}");
        assert!(has("city", "Cupertino"), "city segment: {segs:?}");
    }

    #[test]
    fn viterbi_matches_brute_force_small() {
        let examples = vec![
            Example {
                tokens: vec!["PODS".into(), "2009".into()],
                labels: vec!["venue".into(), "year".into()],
            },
            Example {
                tokens: vec!["Ada".into(), "Lovelace".into()],
                labels: vec!["authors".into(), "authors".into()],
            },
        ];
        let model = Labeler::train(&examples, 4);
        for toks in [
            vec!["PODS".to_string(), "2009".to_string()],
            vec!["Ada".to_string(), "PODS".to_string(), "2009".to_string()],
        ] {
            assert_eq!(model.predict(&toks), model.brute_force(&toks));
        }
    }

    #[test]
    fn empty_input() {
        let model = Labeler::default();
        assert!(model.predict(&[]).is_empty());
        assert!(model.segment("").is_empty());
    }
}
