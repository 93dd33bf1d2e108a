//! # woc-textkit — text substrate for the web of concepts
//!
//! This crate provides the text-processing primitives that every layer of the
//! web-of-concepts system builds on (see DESIGN.md §3):
//!
//! * [`mod@tokenize`] — offset-preserving tokenization and normalization,
//! * [`metrics`] — string similarity measures (Levenshtein, Jaro-Winkler,
//!   Jaccard, Dice, cosine) used by entity matching,
//! * [`tfidf`] — corpus statistics and TF-IDF sparse vectors,
//! * [`lm`] — unigram language models with smoothing, the backbone of
//!   the record↔text generative matcher (paper §4.2 "Matching"),
//! * [`recognize`] — *domain knowledge* field recognizers (phone, zip, price,
//!   date, hours, email, URL) used by domain-centric list extraction
//!   (paper §4.2 "Domain-Centric List Extraction"),
//! * [`fnv`] — the one FNV-1a hasher behind every fingerprint and digest,
//! * [`gazetteer`] — shared vocabulary pools (cities, cuisines, person names,
//!   street names, …). The synthetic-web generator draws entity names from
//!   these pools and extractors use the same pools as gazetteers, mirroring
//!   how real extraction systems curate domain lexicons.
//!
//! Everything here is dependency-free (std only, plus `serde` for
//! serializable types) and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fnv;
pub mod gazetteer;
pub mod lm;
pub mod metrics;
pub mod recognize;
pub mod tfidf;
pub mod tokenize;

pub use fnv::Fnv1a;
pub use metrics::{cosine_counts, dice, jaccard, jaro, jaro_winkler, lev_similarity, levenshtein};
pub use recognize::{recognize_all, FieldKind, FieldSpan};
pub use tfidf::{CorpusStats, SparseVector, TfIdf};
pub use tokenize::{normalize, tokenize, tokenize_words, Token, TokenKind};
