//! # woc-stream — continuous crawl→extract→publish dataflow
//!
//! The batch pipeline (`woc-core`) and the incremental engine (`woc-incr`)
//! both assume a *finished* crawl: hand them a corpus, get a web. Real
//! crawls never finish — pages arrive one at a time, forever, while the
//! serving tier keeps answering queries. This crate closes that gap: a
//! staged dataflow that turns an unbounded stream of page events into a
//! sequence of atomically-published **micro-epochs**, with the headline
//! guarantee that after quiescing, the maintained web is byte-identical
//! ([`woc_incr::canonical_bytes`]) to a from-scratch batch build of the
//! same final crawl — streaming is an *execution strategy*, never a
//! semantic fork.
//!
//! ```text
//!                  bounded sync_channel
//!  PageEvent ──▶ [ingest] ──────────────▶ [commit]
//!                 own thread: drops        calling thread: coalesce per
//!                 no-op recrawls, then     URL, content-defined cut
//!                 extracts the page          │ cut
//!                                            ▼
//!                              seed memos → IncrEngine::maintain
//!                                            │ MaintainReport::delta
//!                                            ├──────────▶ journal entry
//!                                            │            (MicroEpochView:
//!                                            ▼             W015 reads it)
//!                          ConceptServer::publish_delta_segmented
//!                          (readers never block, cache retained)
//! ```
//!
//! **Backpressure.** The two stages are joined by one bounded
//! [`std::sync::mpsc::sync_channel`]: when the commit stage is busy
//! publishing, the channel fills and the ingest thread parks in `send`, so
//! pressure propagates to the input instead of accumulating in an
//! unbounded queue. One producer and a FIFO channel keep changes in input
//! order, so nothing reorders them. The commit stage owns the receiver: if
//! it panics, the receiver drops, the ingest thread's parked `send` fails,
//! that thread exits and the panic propagates out of
//! [`StreamEngine::run`] instead of hanging it
//! (`tests/commit_panic.rs`). The chaos suite runs the whole dataflow
//! under fault injection behind a watchdog.
//!
//! **Micro-epochs are content-defined.** A change whose fingerprint has
//! its low [`StreamConfig::cut_mask`] bits zero closes the open batch
//! (think content-defined chunking, applied to time instead of bytes).
//! Epoch boundaries are therefore a pure function of *what was crawled* —
//! two runs of the same event stream cut identically at any thread count,
//! channel capacity, or machine load, which is what makes the journal
//! replayable and the equivalence suite meaningful. Each committed
//! micro-epoch advances a [`Watermark`]: a cumulative event count plus a
//! digest chained over the coalesced page transitions in sorted-URL order
//! ([`woc_audit::stream_digest`] — the audit's W015 check recomputes the
//! same chain, so a journal that drifts from what was actually applied is
//! caught, not trusted). The journal stores the audit's own record,
//! [`woc_audit::MicroEpochView`], so W015 reads it without a copy.
//!
//! **Read-while-write.** Each micro-epoch publishes through
//! [`woc_serve::ConceptServer::publish_delta_segmented`] with the exact
//! changed-term/changed-record delta the maintenance pass built
//! ([`woc_incr::MaintainReport::delta`]): readers
//! keep answering against the previous epoch's snapshot during the pass,
//! the swap is atomic, and cached answers the delta provably does not
//! touch survive it. A failed pass (fault hook, panic) publishes nothing —
//! the batch coalesces into the next micro-epoch and the last good epoch
//! keeps serving. Partial state is structurally unobservable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod stages;
mod watermark;

pub use engine::{StreamConfig, StreamEngine, StreamReport};
pub use stages::PageEvent;
pub use watermark::Watermark;
