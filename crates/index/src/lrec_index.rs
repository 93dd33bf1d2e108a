//! Fielded indexing of lrecs — retrieval over records rather than documents.
//!
//! Every lrec is flattened into terms twice: once unscoped (so free-text
//! queries match any attribute) and once scoped by attribute key (so a query
//! can constrain `cuisine:italian city:"san jose"`). This is the "evolutionary
//! shift … based primarily on massively scalable inverted index
//! implementations" of paper §2.2: concept records ride the same index
//! machinery as documents.

use std::collections::HashMap;

use woc_lrec::{ConceptId, Lrec, LrecId};
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;

use crate::index::{Hit, InvertedIndex, ScoringStats};
use crate::postings::DocId;

/// Separator between field name and term in scoped index entries. A unit
/// separator cannot appear in tokenized words, so scoped and unscoped terms
/// never collide.
const FIELD_SEP: char = '\u{1f}';

/// Render a `(field, term)` constraint into the scoped index term
/// [`LrecIndex::record_tokens`] emits for it. The one canonical rendering —
/// the serving cache's term scopes and the cluster's scatter path must match
/// the index's own encoding or scoped constraints silently stop scoring.
pub fn scoped_term(field: &str, term: &str) -> String {
    format!("{field}{FIELD_SEP}{term}")
}

/// A parsed concept-search query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldQuery {
    /// Unscoped free-text terms.
    pub terms: Vec<String>,
    /// `(field, term)` constraints.
    pub scoped: Vec<(String, String)>,
    /// Restrict to a concept, if set (by name; resolved by the caller).
    pub concept: Option<String>,
}

impl FieldQuery {
    /// Parse a query string. Syntax:
    /// * bare words — free-text terms;
    /// * `field:value` — scoped term;
    /// * `field:"two words"` — scoped phrase (each word scoped);
    /// * `is:concept` — concept restriction (e.g. `is:restaurant`).
    pub fn parse(input: &str) -> FieldQuery {
        let mut q = FieldQuery::default();
        let mut rest = input.trim();
        while !rest.is_empty() {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            // Take the next whitespace-delimited chunk, honoring quotes after
            // ':'. Only a colon inside the *current* token opens a quoted
            // span — a later token's `field:"…"` must not swallow this one.
            let token_end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            let chunk_end = match rest[..token_end]
                .find(':')
                .filter(|&i| rest[i + 1..].starts_with('"'))
            {
                Some(colon) => {
                    // field:"..." — find the closing quote.
                    match rest[colon + 2..].find('"') {
                        Some(q_end) => colon + 2 + q_end + 1,
                        None => rest.len(),
                    }
                }
                None => token_end,
            };
            let chunk = &rest[..chunk_end];
            rest = &rest[chunk_end..];
            if let Some((field, value)) = chunk.split_once(':') {
                let value = value.trim_matches('"');
                let field = field.to_lowercase();
                if field == "is" {
                    q.concept = Some(value.to_lowercase());
                } else {
                    for w in tokenize_words(value) {
                        q.scoped.push((field.clone(), w));
                    }
                }
            } else {
                q.terms.extend(tokenize_words(chunk));
            }
        }
        q
    }

    /// True if the query has no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty() && self.scoped.is_empty() && self.concept.is_none()
    }

    /// Canonical form: free-text terms and scoped constraints sorted.
    /// Duplicates are kept — repeated terms legitimately weight BM25 — but
    /// evaluation order becomes deterministic, so two queries with the same
    /// normalized form score identically (including float summation order).
    /// The serving layer keys its result cache on the normalized rendering.
    pub fn normalized(&self) -> FieldQuery {
        let mut q = self.clone();
        q.terms.sort_unstable();
        q.scoped.sort_unstable();
        q
    }

    /// The index terms an evaluation scores, in summation order: the free
    /// terms, then every scoped constraint rendered as the index stores it
    /// ([`scoped_term`]). Also the vocabulary the serving cache's retention
    /// scopes speak, so scope intersection is exact.
    pub fn index_terms(&self) -> Vec<String> {
        let mut terms = self.terms.clone();
        terms.extend(self.scoped.iter().map(|(f, t)| scoped_term(f, t)));
        terms
    }

    /// How many hits each segment fetches — and the merged ranking keeps —
    /// for a final cut at `k`. An `is:` restriction that *resolved* filters
    /// after ranking, so over-fetch, then trim; an unresolvable one filters
    /// nothing. Saturating: `k` is caller-supplied.
    pub fn fetch_budget(k: usize, concept_resolved: bool) -> usize {
        if concept_resolved {
            k.saturating_mul(8).saturating_add(32)
        } else {
            k
        }
    }
}

impl std::fmt::Display for FieldQuery {
    /// Render back to query syntax. For queries built by [`FieldQuery::parse`]
    /// (whose terms are single lowercase tokens), `parse → to_string → parse`
    /// is a fixed point: re-parsing the rendering reproduces the query.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut std::fmt::Formatter<'_>| -> std::fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, " ")
            }
        };
        for t in &self.terms {
            sep(f)?;
            write!(f, "{t}")?;
        }
        for (field, term) in &self.scoped {
            sep(f)?;
            write!(f, "{field}:{term}")?;
        }
        if let Some(c) = &self.concept {
            sep(f)?;
            write!(f, "is:{c}")?;
        }
        Ok(())
    }
}

/// A scored record hit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordHit {
    /// The matching record.
    pub id: LrecId,
    /// Its concept.
    pub concept: ConceptId,
    /// Retrieval score.
    pub score: f64,
}

/// An index over lrec records.
#[derive(Debug, Clone, Default)]
pub struct LrecIndex {
    inner: InvertedIndex,
    docs: Vec<(LrecId, ConceptId)>,
    by_lrec: HashMap<LrecId, DocId>,
}

impl LrecIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a record (latest version). Re-indexing the same id appends is
    /// NOT supported — use [`LrecIndex::replace`] for in-place updates or
    /// build a fresh index after bulk changes.
    pub fn add(&mut self, rec: &Lrec) {
        self.add_record_tokens(rec.id(), rec.concept(), &Self::record_tokens(rec));
    }

    /// The exact token sequence [`LrecIndex::add`] indexes for a record:
    /// every non-`Ref` value tokenized, each word emitted both unscoped and
    /// scoped by its attribute key. Exposed so incremental maintenance can
    /// compare a record's current tokens against what is indexed.
    pub fn record_tokens(rec: &Lrec) -> Vec<String> {
        let mut tokens: Vec<String> = Vec::new();
        for (key, entries) in rec.iter() {
            for e in entries {
                if let woc_lrec::AttrValue::Ref(_) = e.value {
                    continue;
                }
                let text = e.value.display_string();
                for w in tokenize_words(&text) {
                    tokens.push(w.clone());
                    tokens.push(scoped_term(key, &w));
                }
            }
        }
        tokens
    }

    /// Index a record from a pre-computed token sequence (see
    /// [`LrecIndex::record_tokens`]) — the builder behind both
    /// [`LrecIndex::add`] and cache-driven incremental rebuilds.
    pub fn add_record_tokens(&mut self, id: LrecId, concept: ConceptId, tokens: &[String]) {
        assert!(
            !self.by_lrec.contains_key(&id),
            "record {id} already indexed; rebuild the index instead"
        );
        let doc = self.inner.add_tokens(tokens);
        debug_assert_eq!(doc.0 as usize, self.docs.len());
        self.docs.push((id, concept));
        self.by_lrec.insert(id, doc);
    }

    /// Re-index one record in place: `old_tokens` must be exactly its
    /// current indexed tokens (see [`InvertedIndex::replace_doc`]). The
    /// record keeps its internal doc id, so the patched index is
    /// indistinguishable from a fresh build over the updated records.
    /// Returns the number of postings patched.
    pub fn replace(&mut self, id: LrecId, old_tokens: &[String], new_tokens: &[String]) -> usize {
        let doc = *self
            .by_lrec
            .get(&id)
            .expect("invariant: replace() is only called for indexed records");
        self.inner.replace_doc(doc, old_tokens, new_tokens)
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Ids of all indexed records, in id order (for integrity audits that
    /// compare index membership against the record store).
    pub fn indexed_ids(&self) -> Vec<LrecId> {
        let mut ids: Vec<LrecId> = self.docs.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    }

    /// True if no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Content digest over the inner index and the record/concept mapping —
    /// see [`InvertedIndex::digest`].
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::resume(self.inner.digest());
        for (id, concept) in &self.docs {
            h.fold(id.0);
            h.fold(concept.0 as u64);
        }
        h.finish()
    }

    /// Snapshot the corpus-global scoring statistics of the underlying
    /// inverted index — see [`InvertedIndex::scoring_stats`].
    pub fn scoring_stats(&self) -> ScoringStats {
        self.inner.scoring_stats()
    }

    /// Search with a parsed [`FieldQuery`]. `concept_resolver` maps a concept
    /// name (from `is:...`) to its id.
    pub fn search(
        &self,
        query: &FieldQuery,
        k: usize,
        concept_resolver: impl Fn(&str) -> Option<ConceptId>,
    ) -> Vec<RecordHit> {
        self.search_scored(query, k, concept_resolver, None)
    }

    /// Search scored through external corpus-global statistics — the shard
    /// form of [`LrecIndex::search`]. A shard index holding a subset of the
    /// records `stats` was snapshotted from returns, for every record it
    /// owns, exactly the hit the full index would return (bitwise-identical
    /// score), so a scatter-gather merge reproduces single-node answers.
    pub fn search_with_stats(
        &self,
        query: &FieldQuery,
        k: usize,
        concept_resolver: impl Fn(&str) -> Option<ConceptId>,
        stats: &ScoringStats,
    ) -> Vec<RecordHit> {
        self.search_scored(query, k, concept_resolver, Some(stats))
    }

    fn search_scored(
        &self,
        query: &FieldQuery,
        k: usize,
        concept_resolver: impl Fn(&str) -> Option<ConceptId>,
        stats: Option<&ScoringStats>,
    ) -> Vec<RecordHit> {
        let mut terms: Vec<String> = query.terms.clone();
        for (f, t) in &query.scoped {
            terms.push(scoped_term(f, t));
        }
        let concept_filter = query.concept.as_deref().and_then(&concept_resolver);
        // Over-fetch when filtering by concept, then trim.
        let fetch = if concept_filter.is_some() {
            k.saturating_mul(8).saturating_add(32)
        } else {
            k
        };
        let hits = match stats {
            Some(s) => self.inner.search_terms_with_stats(&terms, fetch, s),
            None => self.inner.search_terms(&terms, fetch),
        };
        let mut out: Vec<RecordHit> = hits
            .into_iter()
            .map(|Hit { doc, score }| {
                let (id, concept) = self.docs[doc.0 as usize];
                RecordHit { id, concept, score }
            })
            .filter(|h| concept_filter.is_none_or(|c| h.concept == c))
            .collect();
        // Scoped constraints are *requirements*: a hit must match every one.
        if !query.scoped.is_empty() {
            let required: Vec<String> = query
                .scoped
                .iter()
                .map(|(f, t)| scoped_term(f, t))
                .collect();
            out.retain(|h| {
                let doc = self.by_lrec[&h.id];
                required.iter().all(|rt| {
                    self.inner
                        .search_terms(std::slice::from_ref(rt), usize::MAX)
                        .iter()
                        .any(|hit| hit.doc == doc)
                })
            });
        }
        out.truncate(k);
        out
    }

    /// Convenience: parse and search.
    pub fn query(
        &self,
        input: &str,
        k: usize,
        concept_resolver: impl Fn(&str) -> Option<ConceptId>,
    ) -> Vec<RecordHit> {
        self.search(&FieldQuery::parse(input), k, concept_resolver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_lrec::{AttrValue, Provenance, Tick};

    fn rec(id: u64, concept: u32, pairs: &[(&str, &str)]) -> Lrec {
        let mut r = Lrec::new(LrecId(id), ConceptId(concept));
        for (k, v) in pairs {
            r.add(
                k,
                AttrValue::Text(v.to_string()),
                Provenance::ground_truth(Tick(0)),
            );
        }
        r
    }

    fn index() -> LrecIndex {
        let mut ix = LrecIndex::new();
        ix.add(&rec(
            1,
            0,
            &[
                ("name", "Gochi Fusion Tapas"),
                ("city", "Cupertino"),
                ("cuisine", "Japanese"),
            ],
        ));
        ix.add(&rec(
            2,
            0,
            &[
                ("name", "El Farolito"),
                ("city", "San Francisco"),
                ("cuisine", "Mexican"),
            ],
        ));
        ix.add(&rec(
            3,
            0,
            &[
                ("name", "Casa Cantina"),
                ("city", "San Jose"),
                ("cuisine", "Mexican"),
            ],
        ));
        ix.add(&rec(
            4,
            1,
            &[("title", "Towards Entity Matching"), ("venue", "PODS")],
        ));
        ix
    }

    fn resolver(name: &str) -> Option<ConceptId> {
        match name {
            "restaurant" => Some(ConceptId(0)),
            "publication" => Some(ConceptId(1)),
            _ => None,
        }
    }

    #[test]
    fn parse_query_forms() {
        let q = FieldQuery::parse(r#"best tapas cuisine:Japanese city:"San Jose" is:restaurant"#);
        assert_eq!(q.terms, vec!["best", "tapas"]);
        assert!(q.scoped.contains(&("cuisine".into(), "japanese".into())));
        assert!(q.scoped.contains(&("city".into(), "san".into())));
        assert!(q.scoped.contains(&("city".into(), "jose".into())));
        assert_eq!(q.concept.as_deref(), Some("restaurant"));
        assert!(FieldQuery::parse("  ").is_empty());
    }

    #[test]
    fn free_text_search() {
        let ix = index();
        let hits = ix.query("gochi cupertino", 5, resolver);
        assert_eq!(hits[0].id, LrecId(1));
    }

    #[test]
    fn scoped_search_is_required() {
        let ix = index();
        // "san" appears in two records, but cuisine:mexican city:san-jose
        // pins it to Casa Cantina.
        let hits = ix.query(r#"cuisine:Mexican city:"San Jose""#, 5, resolver);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, LrecId(3));
    }

    #[test]
    fn scoped_field_mismatch_excluded() {
        let ix = index();
        // "cupertino" is a city, not a name: scoping to name must miss.
        let hits = ix.query("name:cupertino", 5, resolver);
        assert!(hits.is_empty());
    }

    #[test]
    fn concept_restriction() {
        let ix = index();
        let hits = ix.query("is:publication matching", 5, resolver);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, LrecId(4));
        // Unknown concept name yields no filter (free search).
        let hits = ix.query("is:unknown gochi", 5, resolver);
        assert!(!hits.is_empty());
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_add_panics() {
        let mut ix = index();
        ix.add(&rec(1, 0, &[("name", "dup")]));
    }

    #[test]
    fn replace_matches_fresh_build() {
        let updated = rec(
            2,
            0,
            &[
                ("name", "El Farolito Nuevo"),
                ("city", "Oakland"),
                ("cuisine", "Mexican"),
            ],
        );
        let mut patched = index();
        let old = LrecIndex::record_tokens(&rec(
            2,
            0,
            &[
                ("name", "El Farolito"),
                ("city", "San Francisco"),
                ("cuisine", "Mexican"),
            ],
        ));
        let n = patched.replace(LrecId(2), &old, &LrecIndex::record_tokens(&updated));
        assert!(n > 0);

        let mut fresh = LrecIndex::new();
        fresh.add(&rec(
            1,
            0,
            &[
                ("name", "Gochi Fusion Tapas"),
                ("city", "Cupertino"),
                ("cuisine", "Japanese"),
            ],
        ));
        fresh.add(&updated);
        fresh.add(&rec(
            3,
            0,
            &[
                ("name", "Casa Cantina"),
                ("city", "San Jose"),
                ("cuisine", "Mexican"),
            ],
        ));
        fresh.add(&rec(
            4,
            1,
            &[("title", "Towards Entity Matching"), ("venue", "PODS")],
        ));
        assert_eq!(patched.digest(), fresh.digest());
        // The patched index serves the new content.
        let hits = patched.query("city:oakland", 5, resolver);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, LrecId(2));
        assert!(patched.query("city:francisco", 5, resolver).is_empty());
    }

    #[test]
    fn add_record_tokens_equals_add() {
        let r = rec(9, 0, &[("name", "Udon House"), ("city", "Berkeley")]);
        let mut a = LrecIndex::new();
        a.add(&r);
        let mut b = LrecIndex::new();
        b.add_record_tokens(r.id(), r.concept(), &LrecIndex::record_tokens(&r));
        assert_eq!(a.digest(), b.digest());
    }
}
