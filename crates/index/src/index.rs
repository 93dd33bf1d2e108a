//! The inverted index with BM25 ranking.
//!
//! ## Sharing between copies
//!
//! The index keeps one map, term → `TermPostings` (the posting list and
//! the positional list of that term), with both the term and its postings
//! behind `Arc`s. [`Clone`] therefore copies the table and bumps reference
//! counts: a clone shares every term's lists with its original — this is
//! how an incremental-maintenance cache hands each epoch its own index
//! without copying, or later freeing, the vocabulary. The copy-on-write
//! rule: a mutation may only reach a term's lists through
//! [`Arc::make_mut`], which copies that one term's lists when someone else
//! still holds them. [`InvertedIndex::add_tokens`] and
//! [`InvertedIndex::replace_doc`] look the term up first and take only the
//! terms they change, so a patched clone leaves its original — digest,
//! search results, positions — exactly as it was.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;

use crate::postings::{intersect, DocId, Posting, PostingList};

/// BM25 term-frequency saturation.
const K1: f64 = 1.2;

/// BM25 length normalization.
const B: f64 = 0.75;

/// A scored search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Matching document.
    pub doc: DocId,
    /// BM25 score (non-negative).
    pub score: f64,
}

/// BM25+ inverse document frequency — always positive. Factored out so an
/// index scoring against its own counters and one scoring against an external
/// [`ScoringStats`] snapshot run the exact same f64 arithmetic.
fn bm25_idf(n: f64, df: f64) -> f64 {
    (1.0 + (n - df + 0.5) / (df + 0.5)).ln()
}

/// Mean document length, in the one canonical evaluation order.
fn mean_len(total_len: u64, num_docs: usize) -> f64 {
    if num_docs == 0 {
        0.0
    } else {
        total_len as f64 / num_docs as f64
    }
}

/// The BM25 contribution of one `(term, document)` pair. Every scoring path
/// — exhaustive, stats-snapshot, and block-max pruned — funnels through this
/// single expression, so per-pair contributions are bitwise identical across
/// paths and the only remaining degree of freedom is summation order (which
/// each path fixes to query-term order).
#[inline]
fn bm25_term_score(idf: f64, tf: f64, len: f64, avg: f64) -> f64 {
    let denom = tf + K1 * (1.0 - B + B * len / avg.max(1e-9));
    idf * tf * (K1 + 1.0) / denom
}

/// Corpus-global scoring statistics snapshotted from a full index.
///
/// BM25 mixes per-document quantities (tf, document length) with
/// corpus-global ones (document frequency, mean document length). A
/// document-partitioned shard holds the former exactly but would compute the
/// latter from its local subset, skewing scores relative to a single-node
/// index. Scoring a shard through the stats of the full corpus instead makes
/// every per-document score *bitwise identical* to the score the full index
/// would assign — the property the cluster router relies on to merge
/// scatter-gather results byte-identically.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoringStats {
    num_docs: usize,
    total_len: u64,
    df: HashMap<Arc<str>, u32>,
}

impl ScoringStats {
    /// Number of documents in the corpus the stats were taken from.
    pub fn num_docs(&self) -> usize {
        self.num_docs
    }

    /// Corpus-wide document frequency of a term.
    pub fn df(&self, term: &str) -> u32 {
        self.df.get(term).copied().unwrap_or(0)
    }

    pub(crate) fn idf(&self, term: &str) -> f64 {
        bm25_idf(self.num_docs as f64, self.df(term) as f64)
    }

    pub(crate) fn avg_len(&self) -> f64 {
        mean_len(self.total_len, self.num_docs)
    }

    /// Content digest (FNV-1a over the sorted df table and the corpus
    /// counters) — lets replicas assert they score through the same global
    /// statistics without comparing whole tables.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut terms: Vec<(&Arc<str>, &u32)> = self.df.iter().collect();
        terms.sort_unstable();
        for (t, &df) in terms {
            h.str(t);
            h.bytes(&[0xff]);
            h.u64(df as u64);
        }
        h.u64(self.num_docs as u64);
        h.u64(self.total_len);
        h.finish()
    }
}

/// Per-block pruning metadata over one term's posting list: the last doc id
/// the block covers plus the ingredients of a score upper bound.
///
/// BM25 is monotone increasing in tf and decreasing in document length, so
/// evaluating the scoring formula at `(max_tf, min_len)` bounds every posting
/// in the block from above *under any* [`ScoringStats`] snapshot — the
/// metadata is stats-independent and survives stat re-pins unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Last doc id in the block (blocks partition the posting list in doc
    /// order, so binary search by `last_doc` locates the block covering a
    /// candidate).
    pub last_doc: DocId,
    /// Maximum term frequency over the block's postings.
    pub max_tf: u32,
    /// Minimum document length over the block's documents.
    pub min_len: u32,
}

/// Frozen per-term block metadata for a whole index — built once by
/// [`InvertedIndex::block_max`] when a segment freezes, consumed by
/// [`InvertedIndex::search_terms_pruned_with_stats`].
#[derive(Debug, Clone, Default)]
pub struct BlockMaxIndex {
    terms: HashMap<Arc<str>, Vec<BlockMeta>>,
}

impl BlockMaxIndex {
    /// Block metadata for `term` (empty if the term is unknown).
    pub fn blocks(&self, term: &str) -> &[BlockMeta] {
        self.terms.get(term).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Min-ordered top-k heap entry: the heap's top is the *worst* retained hit
/// under the final `(score desc, doc asc)` ranking, i.e. the pruning
/// threshold.
#[derive(Debug, PartialEq)]
struct WorstFirst {
    score: f64,
    doc: DocId,
}

impl Eq for WorstFirst {}

impl Ord for WorstFirst {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // "Greater" (popped first by BinaryHeap) = worse: lower score, or an
        // equal score with a higher doc id.
        other
            .score
            .total_cmp(&self.score)
            .then(self.doc.cmp(&other.doc))
    }
}

impl PartialOrd for WorstFirst {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Everything the index holds for one term, shared between index copies
/// until one of them changes it (see the module docs).
#[derive(Debug, Clone, Default)]
struct TermPostings {
    list: PostingList,
    /// `(doc, sorted token positions)` in doc order — the positional index
    /// backing phrase queries.
    positions: Vec<(DocId, Vec<u32>)>,
}

/// An in-memory inverted index over externally keyed documents.
///
/// Documents are added once each (the id is assigned densely by insertion
/// order); the caller maps [`DocId`]s back to its own keys (URLs, lrec ids).
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    terms: HashMap<Arc<str>, Arc<TermPostings>>,
    doc_lens: Vec<u32>,
    total_len: u64,
}

impl InvertedIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index a document given as raw text (tokenized internally). Returns
    /// its assigned id.
    pub fn add_text(&mut self, text: &str) -> DocId {
        let toks = tokenize_words(text);
        self.add_tokens(&toks)
    }

    /// Index a document given as pre-tokenized terms.
    pub fn add_tokens<S: AsRef<str>>(&mut self, tokens: &[S]) -> DocId {
        let id = DocId(self.doc_lens.len() as u32);
        for (pos, t) in tokens.iter().enumerate() {
            let t = t.as_ref();
            // A known term costs one lookup and no allocation.
            let term = match self.terms.get_mut(t) {
                Some(term) => Arc::make_mut(term),
                None => Arc::make_mut(self.terms.entry(Arc::from(t)).or_default()),
            };
            term.list.add(id);
            match term.positions.last_mut() {
                Some((d, ps)) if *d == id => ps.push(pos as u32),
                _ => term.positions.push((id, vec![pos as u32])),
            }
        }
        self.doc_lens.push(tokens.len() as u32);
        self.total_len += tokens.len() as u64;
        id
    }

    /// Replace the indexed content of `doc` in place: remove the
    /// contributions of `old_tokens` — which must be exactly the token
    /// sequence `doc` was indexed with — then index `new_tokens` under the
    /// same id. Terms whose last posting disappears are purged entirely, so
    /// the patched index is indistinguishable (including by
    /// [`InvertedIndex::digest`]) from one freshly built with the new
    /// tokens. Returns the number of `(term, doc)` postings removed plus
    /// inserted — the patch size.
    pub fn replace_doc(
        &mut self,
        doc: DocId,
        old_tokens: &[String],
        new_tokens: &[String],
    ) -> usize {
        let slot = doc.0 as usize;
        assert!(slot < self.doc_lens.len(), "doc {} not in index", doc.0);
        assert_eq!(
            self.doc_lens[slot] as usize,
            old_tokens.len(),
            "old_tokens must be the exact tokens doc {} was indexed with",
            doc.0
        );
        let mut patched = 0usize;
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for t in old_tokens {
            if !seen.insert(t.as_str()) {
                continue;
            }
            if let Some(term) = self.terms.get_mut(t.as_str()) {
                let term = Arc::make_mut(term);
                term.list.remove_doc(doc);
                if let Ok(i) = term.positions.binary_search_by_key(&doc, |&(d, _)| d) {
                    term.positions.remove(i);
                }
                if term.list.is_empty() {
                    self.terms.remove(t.as_str());
                }
            }
            patched += 1;
        }
        // Group the new tokens per term (BTreeMap: deterministic insertion
        // order into the hash maps does not matter, but the grouping must
        // not depend on iteration order either).
        let mut per_term: std::collections::BTreeMap<&str, Vec<u32>> =
            std::collections::BTreeMap::new();
        for (pos, t) in new_tokens.iter().enumerate() {
            per_term.entry(t.as_str()).or_default().push(pos as u32);
        }
        for (t, ps) in per_term {
            let term = match self.terms.get_mut(t) {
                Some(term) => Arc::make_mut(term),
                None => Arc::make_mut(self.terms.entry(Arc::from(t)).or_default()),
            };
            term.list.insert(doc, ps.len() as u32);
            let pv = &mut term.positions;
            match pv.binary_search_by_key(&doc, |&(d, _)| d) {
                Err(i) => pv.insert(i, (doc, ps)),
                Ok(_) => unreachable!("old postings for doc {} were just removed", doc.0),
            }
            patched += 1;
        }
        self.total_len = self.total_len - old_tokens.len() as u64 + new_tokens.len() as u64;
        self.doc_lens[slot] = new_tokens.len() as u32;
        patched
    }

    /// Positions of `term` in `doc`, sorted ascending (empty if absent).
    pub fn positions(&self, term: &str, doc: DocId) -> &[u32] {
        self.terms
            .get(term)
            .and_then(|t| {
                let pl = &t.positions;
                pl.binary_search_by_key(&doc, |&(d, _)| d)
                    .ok()
                    .and_then(|i| pl.get(i))
                    .map(|(_, ps)| ps.as_slice())
            })
            .unwrap_or(&[])
    }

    /// Exact phrase retrieval: documents containing the query tokens as a
    /// contiguous sequence, via positional intersection.
    pub fn search_phrase(&self, phrase: &str) -> Vec<DocId> {
        let terms = tokenize_words(phrase);
        if terms.is_empty() {
            return Vec::new();
        }
        // Candidates: conjunctive containment first.
        let candidates = self.search_and(&terms.join(" "));
        candidates
            .into_iter()
            .filter(|&doc| {
                // A start position p works if term[i] occurs at p + i for all i.
                self.positions(&terms[0], doc).iter().any(|&p| {
                    terms.iter().enumerate().skip(1).all(|(i, t)| {
                        self.positions(t, doc)
                            .binary_search(&(p + i as u32))
                            .is_ok()
                    })
                })
            })
            .collect()
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lens.len()
    }

    /// Number of distinct terms.
    pub fn vocab_size(&self) -> usize {
        self.terms.len()
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> u32 {
        self.terms.get(term).map_or(0, |t| t.list.doc_freq())
    }

    /// Content digest: FNV-1a over the sorted vocabulary, every posting and
    /// position list, and the document lengths. Two indexes with identical
    /// content digest equal — the equality check behind the pipeline's
    /// any-thread-count determinism tests.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        let mut terms: Vec<(&Arc<str>, &Arc<TermPostings>)> = self.terms.iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        for (t, term) in terms {
            h.str(t);
            h.bytes(&[0xff]);
            for p in term.list.iter() {
                h.u64(p.doc.0 as u64);
                h.u64(p.tf as u64);
            }
            for (doc, ps) in &term.positions {
                h.u64(doc.0 as u64);
                ps.iter().for_each(|&p| h.u64(p as u64));
            }
        }
        for &l in &self.doc_lens {
            h.u64(l as u64);
        }
        h.u64(self.total_len);
        h.finish()
    }

    fn avg_len(&self) -> f64 {
        mean_len(self.total_len, self.doc_lens.len())
    }

    /// Snapshot this index's corpus-global statistics for use by
    /// [`InvertedIndex::search_terms_with_stats`] on a document subset.
    pub fn scoring_stats(&self) -> ScoringStats {
        // woc-lint: allow(map-iter-order) — collected into a HashMap keyed by
        // term; the result is iteration-order independent.
        let df = self
            .terms
            .iter()
            .map(|(t, term)| (Arc::clone(t), term.list.doc_freq()))
            .collect();
        ScoringStats {
            num_docs: self.doc_lens.len(),
            total_len: self.total_len,
            df,
        }
    }

    /// Ranked disjunctive (OR) retrieval: BM25 over the query terms,
    /// returning the top `k` hits, highest score first; ties break by doc id
    /// for determinism.
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit> {
        let terms = tokenize_words(query);
        self.search_terms(&terms, k)
    }

    /// Ranked retrieval over pre-tokenized query terms.
    pub fn search_terms<S: AsRef<str>>(&self, terms: &[S], k: usize) -> Vec<Hit> {
        self.search_scored(terms, k, None)
    }

    /// Ranked retrieval scored through an external [`ScoringStats`] snapshot
    /// instead of this index's own counters. When `self` indexes a subset of
    /// the corpus `stats` was taken from, every hit's score is bitwise
    /// identical to the score the full index would assign that document.
    pub fn search_terms_with_stats<S: AsRef<str>>(
        &self,
        terms: &[S],
        k: usize,
        stats: &ScoringStats,
    ) -> Vec<Hit> {
        self.search_scored(terms, k, Some(stats))
    }

    fn search_scored<S: AsRef<str>>(
        &self,
        terms: &[S],
        k: usize,
        stats: Option<&ScoringStats>,
    ) -> Vec<Hit> {
        let mut acc: HashMap<DocId, f64> = HashMap::new();
        let avg = match stats {
            Some(s) => s.avg_len(),
            None => self.avg_len(),
        };
        // woc-lint: allow(map-iter-order) — `terms` is the query slice parameter
        // (shadows the postings field name); scores sum commutatively into `acc`.
        for t in terms {
            let Some(term) = self.terms.get(t.as_ref()) else {
                continue;
            };
            let idf = match stats {
                Some(s) => s.idf(t.as_ref()),
                None => bm25_idf(self.num_docs() as f64, term.list.doc_freq() as f64),
            };
            for p in term.list.iter() {
                let len = self.doc_lens[p.doc.0 as usize] as f64;
                let s = bm25_term_score(idf, p.tf as f64, len, avg);
                *acc.entry(p.doc).or_insert(0.0) += s;
            }
        }
        let mut hits: Vec<Hit> = acc
            .into_iter()
            .map(|(doc, score)| Hit { doc, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits.truncate(k);
        hits
    }

    /// Freeze block-max pruning metadata for every term, `block` postings per
    /// block. Meant for immutable (segment) indexes: the metadata is not
    /// maintained by [`InvertedIndex::replace_doc`].
    pub fn block_max(&self, block: usize) -> BlockMaxIndex {
        let block = block.max(1);
        // woc-lint: allow(map-iter-order) — collected into a HashMap keyed by
        // term; per-term metadata is independent of iteration order.
        let terms = self
            .terms
            .iter()
            .map(|(t, term)| {
                let blocks = term
                    .list
                    .as_slice()
                    .chunks(block)
                    .map(|chunk| BlockMeta {
                        last_doc: chunk[chunk.len() - 1].doc,
                        max_tf: chunk.iter().map(|p| p.tf).max().unwrap_or(0),
                        min_len: chunk
                            .iter()
                            .map(|p| self.doc_lens[p.doc.0 as usize])
                            .min()
                            .unwrap_or(0),
                    })
                    .collect();
                (Arc::clone(t), blocks)
            })
            .collect();
        BlockMaxIndex { terms }
    }

    /// Block-max pruned top-k retrieval through an external [`ScoringStats`]
    /// snapshot, skipping documents in `dead` (shadowed/tombstoned postings
    /// of a frozen segment).
    ///
    /// Returns *exactly* what [`InvertedIndex::search_terms_with_stats`]
    /// would return after dropping `dead` docs — same hits, same order, same
    /// score bits. A MaxScore-style document-at-a-time traversal enumerates
    /// candidates only from "essential" lists (those whose combined upper
    /// bounds can still reach the current k-th score) and consults per-block
    /// `(max_tf, min_len)` bounds for the rest; a candidate is skipped only
    /// when its upper bound is *strictly* below the k-th score, and the bound
    /// is summed in canonical query-term order with per-addend domination, so
    /// ties and float rounding can never evict a true top-k member. Surviving
    /// candidates are rescored exhaustively in query-term order, reproducing
    /// the exhaustive path's summation bit for bit.
    pub fn search_terms_pruned_with_stats<S: AsRef<str>>(
        &self,
        terms: &[S],
        k: usize,
        stats: &ScoringStats,
        blockmax: &BlockMaxIndex,
        dead: &HashSet<DocId>,
    ) -> Vec<Hit> {
        if k == 0 || terms.is_empty() {
            return Vec::new();
        }
        let avg = stats.avg_len();
        struct Cursor<'a> {
            /// Position of this term in the query — canonical summation order.
            ord: usize,
            idf: f64,
            ps: &'a [Posting],
            blocks: &'a [BlockMeta],
            /// Whole-list score upper bound.
            ub: f64,
            pos: usize,
        }
        let mut lists: Vec<Cursor<'_>> = Vec::with_capacity(terms.len());
        // woc-lint: allow(map-iter-order) — `terms` is the query slice
        // parameter (shadows the postings field name), already in query order.
        for (ord, t) in terms.iter().enumerate() {
            let Some(term) = self.terms.get(t.as_ref()) else {
                continue;
            };
            let idf = stats.idf(t.as_ref());
            let blocks = blockmax.blocks(t.as_ref());
            let ub = if blocks.is_empty() {
                // No frozen metadata for this term (foreign blockmax): the
                // universal bound tf·(k1+1)/(tf+…) < k1+1 still holds.
                idf * (K1 + 1.0)
            } else {
                blocks
                    .iter()
                    .map(|b| bm25_term_score(idf, b.max_tf as f64, b.min_len as f64, avg))
                    .fold(0.0f64, f64::max)
            };
            lists.push(Cursor {
                ord,
                idf,
                ps: term.list.as_slice(),
                blocks,
                ub,
                pos: 0,
            });
        }
        if lists.is_empty() {
            return Vec::new();
        }
        // Highest-impact lists first; ties by query position for determinism.
        lists.sort_by(|a, b| b.ub.total_cmp(&a.ub).then(a.ord.cmp(&b.ord)));
        let mut suffix = vec![0.0f64; lists.len() + 1];
        for i in (0..lists.len()).rev() {
            suffix[i] = suffix[i + 1] + lists[i].ub;
        }
        let mut heap: std::collections::BinaryHeap<WorstFirst> =
            std::collections::BinaryHeap::with_capacity(k.min(self.doc_lens.len()) + 1);
        // Scratch for per-candidate (ord, contribution-or-bound) addends.
        let mut addends: Vec<(usize, f64)> = Vec::with_capacity(lists.len());
        loop {
            let thr = if heap.len() == k {
                Some(heap.peek().expect("heap holds k > 0 entries").score)
            } else {
                None
            };
            // Essential prefix: lists[e..] alone sum strictly below the k-th
            // score, so docs appearing only there can never enter the top k.
            let e = match thr {
                None => lists.len(),
                Some(t) => {
                    let mut e = 0;
                    while e < lists.len() && suffix[e] >= t {
                        e += 1;
                    }
                    e
                }
            };
            if e == 0 {
                break;
            }
            // Next candidate: smallest pending doc over the essential lists.
            let mut cand: Option<DocId> = None;
            for l in &lists[..e] {
                if let Some(p) = l.ps.get(l.pos) {
                    cand = Some(cand.map_or(p.doc, |c| c.min(p.doc)));
                }
            }
            let Some(doc) = cand else {
                break;
            };
            if !dead.contains(&doc) {
                // Upper bound, summed in canonical (query) order: exact
                // contributions from essential lists at `doc`, block bounds
                // for the non-essential tail. Each addend dominates its exact
                // counterpart, and float addition is monotone, so the sum
                // dominates the canonical score.
                addends.clear();
                for l in &lists[..e] {
                    if let Some(p) = l.ps.get(l.pos) {
                        if p.doc == doc {
                            let len = self.doc_lens[doc.0 as usize] as f64;
                            let s = bm25_term_score(l.idf, p.tf as f64, len, avg);
                            addends.push((l.ord, s));
                        }
                    }
                }
                for l in &lists[e..] {
                    if l.blocks.is_empty() {
                        addends.push((l.ord, l.ub));
                        continue;
                    }
                    let b = l.blocks.partition_point(|b| b.last_doc < doc);
                    if let Some(meta) = l.blocks.get(b) {
                        let s =
                            bm25_term_score(l.idf, meta.max_tf as f64, meta.min_len as f64, avg);
                        addends.push((l.ord, s));
                    }
                }
                addends.sort_unstable_by_key(|&(ord, _)| ord);
                let bound: f64 = addends.iter().map(|&(_, s)| s).sum();
                let survives = match thr {
                    None => true,
                    Some(t) => bound >= t,
                };
                if survives {
                    // Exact rescore: advance every cursor to `doc` and sum
                    // the real contributions in canonical query order.
                    addends.clear();
                    for l in &mut lists {
                        while l.ps.get(l.pos).is_some_and(|p| p.doc < doc) {
                            l.pos += 1;
                        }
                        if let Some(p) = l.ps.get(l.pos) {
                            if p.doc == doc {
                                let len = self.doc_lens[doc.0 as usize] as f64;
                                let s = bm25_term_score(l.idf, p.tf as f64, len, avg);
                                addends.push((l.ord, s));
                            }
                        }
                    }
                    addends.sort_unstable_by_key(|&(ord, _)| ord);
                    let mut score = 0.0f64;
                    for &(_, s) in addends.iter() {
                        score += s;
                    }
                    let better = match heap.peek() {
                        Some(w) if heap.len() == k => {
                            score > w.score || (score == w.score && doc < w.doc)
                        }
                        _ => true,
                    };
                    if better {
                        heap.push(WorstFirst { score, doc });
                        while heap.len() > k {
                            heap.pop();
                        }
                    }
                }
            }
            // Step the essential cursors past the candidate.
            for l in &mut lists[..e] {
                if l.ps.get(l.pos).is_some_and(|p| p.doc == doc) {
                    l.pos += 1;
                }
            }
        }
        let mut hits: Vec<Hit> = heap
            .into_iter()
            .map(|w| Hit {
                doc: w.doc,
                score: w.score,
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.cmp(&b.doc))
        });
        hits
    }

    /// Boolean conjunctive (AND) retrieval: documents containing *all* terms.
    pub fn search_and(&self, query: &str) -> Vec<DocId> {
        let terms = tokenize_words(query);
        if terms.is_empty() {
            return Vec::new();
        }
        let mut lists: Vec<&PostingList> = Vec::with_capacity(terms.len());
        // woc-lint: allow(map-iter-order) — `terms` is the tokenized query Vec
        // (shadows the postings field name), already in query order.
        for t in &terms {
            match self.terms.get(t.as_str()) {
                Some(term) => lists.push(&term.list),
                None => return Vec::new(),
            }
        }
        // Intersect smallest-first for speed.
        lists.sort_by_key(|pl| pl.doc_freq());
        let mut result: Vec<DocId> = lists[0].iter().map(|p| p.doc).collect();
        for pl in &lists[1..] {
            let as_list = {
                let mut l = PostingList::new();
                for d in &result {
                    l.add(*d);
                }
                l
            };
            result = intersect(&as_list, pl);
            if result.is_empty() {
                break;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add_text("Gochi Fusion Tapas Cupertino japanese tapas");
        ix.add_text("Taqueria El Farolito San Francisco mexican burrito");
        ix.add_text("best mexican food in Chicago salsa salsa salsa");
        ix.add_text("Cupertino city guide hotels attractions");
        ix
    }

    #[test]
    fn search_ranks_relevant_first() {
        let ix = idx();
        let hits = ix.search("gochi cupertino", 10);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].doc, DocId(0));
        assert!(hits[0].score > 0.0);
    }

    #[test]
    fn repeated_terms_boost_tf() {
        let ix = idx();
        let hits = ix.search("salsa", 10);
        assert_eq!(hits[0].doc, DocId(2));
    }

    #[test]
    fn top_k_truncates_and_sorts() {
        let ix = idx();
        let hits = ix.search("cupertino mexican", 1);
        assert_eq!(hits.len(), 1);
        let all = ix.search("cupertino mexican", 10);
        assert!(all.len() >= 2);
        for w in all.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn unknown_terms_ignored() {
        let ix = idx();
        assert!(ix.search("zzzz qqqq", 5).is_empty());
        let hits = ix.search("zzzz gochi", 5);
        assert_eq!(hits[0].doc, DocId(0));
    }

    #[test]
    fn boolean_and() {
        let ix = idx();
        assert_eq!(ix.search_and("mexican salsa"), vec![DocId(2)]);
        assert_eq!(ix.search_and("mexican"), vec![DocId(1), DocId(2)]);
        assert!(ix.search_and("mexican zzzz").is_empty());
        assert!(ix.search_and("").is_empty());
    }

    #[test]
    fn phrase_search() {
        let ix = idx();
        assert_eq!(ix.search_phrase("gochi fusion tapas"), vec![DocId(0)]);
        // Words present but not contiguous/ordered.
        assert!(ix.search_phrase("tapas fusion").is_empty());
        assert!(ix.search_phrase("cupertino gochi").is_empty());
        // Single word phrase = containment.
        assert_eq!(ix.search_phrase("salsa"), vec![DocId(2)]);
        assert!(ix.search_phrase("").is_empty());
        assert!(ix.search_phrase("zz qq").is_empty());
    }

    #[test]
    fn positions_recorded() {
        let mut ix = InvertedIndex::new();
        let d = ix.add_tokens(&["a", "b", "a", "c"]);
        assert_eq!(ix.positions("a", d), &[0, 2]);
        assert_eq!(ix.positions("c", d), &[3]);
        assert!(ix.positions("z", d).is_empty());
        assert!(ix.positions("a", DocId(9)).is_empty());
    }

    #[test]
    fn empty_index_safe() {
        let ix = InvertedIndex::new();
        assert!(ix.search("anything", 5).is_empty());
        assert_eq!(ix.num_docs(), 0);
    }

    #[test]
    fn scores_nonnegative() {
        let ix = idx();
        for hit in ix.search("the cupertino guide mexican", 100) {
            assert!(hit.score >= 0.0);
        }
    }

    fn toks(s: &str) -> Vec<String> {
        tokenize_words(s)
    }

    #[test]
    fn replace_doc_is_indistinguishable_from_fresh_build() {
        let docs = [
            "Gochi Fusion Tapas Cupertino japanese tapas",
            "Taqueria El Farolito San Francisco mexican burrito",
            "best mexican food in Chicago salsa salsa salsa",
        ];
        // "salsa" and "chicago" exist only in doc 2: replacing it must purge
        // those terms entirely, and introduces brand-new terms.
        let replacement = "udon noodle bar mexican fusion";
        let mut patched = InvertedIndex::new();
        for d in &docs {
            patched.add_text(d);
        }
        let n = patched.replace_doc(DocId(2), &toks(docs[2]), &toks(replacement));
        assert!(n > 0);

        let mut fresh = InvertedIndex::new();
        fresh.add_text(docs[0]);
        fresh.add_text(docs[1]);
        fresh.add_text(replacement);
        assert_eq!(patched.digest(), fresh.digest());
        assert_eq!(patched.vocab_size(), fresh.vocab_size());
        assert_eq!(patched.df("salsa"), 0, "orphaned term purged");
        assert!(patched.positions("chicago", DocId(2)).is_empty());
        assert_eq!(patched.search_phrase("udon noodle bar"), vec![DocId(2)]);
    }

    /// Everything a reader can ask an index, rendered: digest, a ranked
    /// search, a phrase search and one positional list.
    fn observed(ix: &InvertedIndex) -> (u64, Vec<Hit>, Vec<DocId>, Vec<u32>) {
        (
            ix.digest(),
            ix.search("mexican salsa cupertino", 10),
            ix.search_phrase("salsa salsa"),
            ix.positions("salsa", DocId(2)).to_vec(),
        )
    }

    #[test]
    fn patching_a_clone_leaves_its_original_alone() {
        let original = idx();
        let before = observed(&original);
        let stats = original.scoring_stats();
        let blocks = original.block_max(2);

        // `replace_doc` on a clone that shares every term with `original`:
        // purges "salsa", shrinks "mexican", adds new terms.
        let mut patched = original.clone();
        let old = toks("best mexican food in Chicago salsa salsa salsa");
        patched.replace_doc(DocId(2), &old, &toks("udon noodle bar cupertino"));
        // `add_tokens` on another: a known term grows, a new one appears.
        let mut grown = original.clone();
        grown.add_text("mexican cantina tequila");

        assert_eq!(observed(&original), before);
        assert_eq!(observed(&original), observed(&idx()));
        assert_eq!(original.scoring_stats(), stats);
        assert_eq!(
            original.block_max(2).blocks("mexican"),
            blocks.blocks("mexican")
        );
        assert_eq!(original.df("mexican"), 2);
        assert_eq!((patched.df("mexican"), grown.df("mexican")), (1, 3));
        assert_eq!((patched.df("salsa"), grown.df("tequila")), (0, 1));

        // …and each clone is what a fresh build of its documents would be.
        let mut fresh = InvertedIndex::new();
        fresh.add_text("Gochi Fusion Tapas Cupertino japanese tapas");
        fresh.add_text("Taqueria El Farolito San Francisco mexican burrito");
        fresh.add_text("udon noodle bar cupertino");
        fresh.add_text("Cupertino city guide hotels attractions");
        assert_eq!(observed(&patched), observed(&fresh));
        let mut fresh = idx();
        fresh.add_text("mexican cantina tequila");
        assert_eq!(observed(&grown), observed(&fresh));
    }

    #[test]
    fn replace_doc_to_empty_and_back() {
        let mut patched = InvertedIndex::new();
        patched.add_tokens(&["a", "b"]);
        patched.add_tokens(&["b", "c"]);
        let old = vec!["b".to_string(), "c".to_string()];
        patched.replace_doc(DocId(1), &old, &[]);
        let mut fresh = InvertedIndex::new();
        fresh.add_tokens(&["a", "b"]);
        fresh.add_tokens::<String>(&[]);
        assert_eq!(patched.digest(), fresh.digest());
        patched.replace_doc(DocId(1), &[], &old);
        let mut fresh2 = InvertedIndex::new();
        fresh2.add_tokens(&["a", "b"]);
        fresh2.add_tokens(&["b", "c"]);
        assert_eq!(patched.digest(), fresh2.digest());
    }

    #[test]
    #[should_panic(expected = "exact tokens")]
    fn replace_doc_rejects_wrong_old_tokens() {
        let mut ix = InvertedIndex::new();
        ix.add_tokens(&["a", "b"]);
        ix.replace_doc(DocId(0), &["a".to_string()], &[]);
    }

    #[test]
    fn shard_subset_with_global_stats_scores_bitwise_identically() {
        let docs = [
            "Gochi Fusion Tapas Cupertino japanese tapas",
            "Taqueria El Farolito San Francisco mexican burrito",
            "best mexican food in Chicago salsa salsa salsa",
            "Cupertino city guide hotels attractions",
            "mexican cantina Cupertino happy hour",
        ];
        let mut full = InvertedIndex::new();
        for d in &docs {
            full.add_text(d);
        }
        let stats = full.scoring_stats();
        // Shard = docs 1, 2, 4 (in corpus order); local ids 0, 1, 2.
        let owned = [1usize, 2, 4];
        let mut shard = InvertedIndex::new();
        for &i in &owned {
            shard.add_text(docs[i]);
        }
        for query in [
            "mexican cupertino",
            "salsa",
            "tapas guide mexican",
            "burrito",
        ] {
            let terms = tokenize_words(query);
            let full_hits = full.search_terms(&terms, 10);
            let by_doc: HashMap<DocId, f64> = full_hits.iter().map(|h| (h.doc, h.score)).collect();
            for hit in shard.search_terms_with_stats(&terms, 10, &stats) {
                let global = DocId(owned[hit.doc.0 as usize] as u32);
                let want = by_doc[&global];
                assert_eq!(
                    hit.score.to_bits(),
                    want.to_bits(),
                    "query {query:?} doc {global:?}: shard score must be bitwise \
                     identical to the full index"
                );
            }
            // Local scoring (shard's own counters) would disagree: document
            // frequencies genuinely differ between subset and corpus.
            assert_eq!(stats.df("cupertino"), 3);
            assert_eq!(shard.df("cupertino"), 1);
        }
        // An index scoring through its own snapshot is the identity.
        let self_stats = full.scoring_stats();
        let terms = tokenize_words("mexican cupertino salsa");
        let a = full.search_terms(&terms, 10);
        let b = full.search_terms_with_stats(&terms, 10, &self_stats);
        assert_eq!(a, b);
        assert_eq!(self_stats.digest(), full.scoring_stats().digest());
        assert_ne!(self_stats.digest(), shard.scoring_stats().digest());
    }

    #[test]
    fn digest_tracks_content() {
        assert_eq!(idx().digest(), idx().digest());
        let mut other = idx();
        let before = other.digest();
        other.add_text("one more document");
        assert_ne!(before, other.digest());
        // Insertion of the same docs in the same order → same digest even
        // though HashMap iteration order may differ between instances.
        assert_eq!(InvertedIndex::new().digest(), InvertedIndex::new().digest());
    }
}
