//! # woc-index — the inverted-index search substrate
//!
//! Paper §2.2: the lrec representation is chosen so concept retrieval is
//! "readily mapped to existing inverted indexes". This crate *is* that
//! existing infrastructure, built from scratch:
//!
//! * [`postings`] — sorted posting lists with delta+varint encoding,
//! * [`index`] — an in-memory inverted index with BM25 ranked retrieval and
//!   boolean AND,
//! * [`lrec_index`] — fielded indexing of lrec records with a small query
//!   language (`cuisine:italian city:"san jose" is:restaurant`), the
//!   foundation of concept search (paper §5.2),
//! * [`segment`] — the LSM-style segmented record index: a frozen base with
//!   pinned corpus-global stats plus delta segments, scored byte-identically
//!   to a flat rebuild with block-max pruned top-k.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod lrec_index;
pub mod postings;
pub mod segment;

pub use index::{BlockMaxIndex, BlockMeta, Hit, InvertedIndex, ScoringStats};
pub use lrec_index::{scoped_term, FieldQuery, LrecIndex, RecordHit};
pub use postings::{intersect, union, DocId, Posting, PostingList};
pub use segment::{
    gather, DeltaOutcome, LrecSegment, MergePolicy, RecordChange, SegmentedLrecIndex, SEGMENT_BLOCK,
};
