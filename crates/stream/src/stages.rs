//! The pipelined stages: change detection and parallel extraction.
//!
//! ```text
//!  events ──▶ [fingerprint] ──seq──▶ [extract ×N] ──seq──▶ [commit]
//!             sequential,            parallel,             sequential,
//!             assigns seq,           content-keyed         reorders by seq
//!             drops no-ops           pure work
//! ```
//!
//! The fingerprint stage is the determinism anchor: it runs alone, sees
//! events in input order, drops recrawls whose content fingerprint did not
//! change, and stamps every surviving change with a dense sequence number.
//! Extraction then parallelizes freely — it computes a pure function of
//! page content — and the commit stage restores input order from the
//! sequence numbers, so nothing downstream can observe scheduling.

use std::collections::HashMap;
use std::sync::Arc;

use woc_extract::lists::ConceptProfile;
use woc_extract::ExtractedRecord;
use woc_webgen::{Fnv1a, Page};

use crate::channel::{Receiver, Sender};

/// One crawl observation entering the stream.
#[derive(Debug, Clone)]
pub enum PageEvent {
    /// The crawler fetched this page (new or recrawled).
    Updated(Page),
    /// The crawler observed this URL gone (404, delisted).
    Removed(String),
}

/// A stage message stamped with its position in the deduplicated change
/// sequence.
pub(crate) struct Seq<T> {
    pub seq: u64,
    pub msg: T,
}

/// Output of the fingerprint stage: a page change that survived dedup.
/// Pages ride boxed so a channel slot (and a removal) stays pointer-sized.
pub(crate) enum Change {
    Updated {
        page: Box<Page>,
        fp: u64,
        old_fp: Option<u64>,
    },
    Removed {
        url: String,
        old_fp: u64,
    },
}

/// Output of an extract worker: the change plus its extraction, ready for
/// the commit stage to reorder and batch.
pub(crate) enum Ready {
    Updated {
        page: Box<Page>,
        fp: u64,
        old_fp: Option<u64>,
        records: Arc<Vec<ExtractedRecord>>,
    },
    Removed {
        url: String,
        old_fp: u64,
    },
}

/// What the fingerprint stage saw, for the stream report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FingerprintStats {
    pub events_in: u64,
    /// Events dropped because nothing changed: a recrawl with an identical
    /// fingerprint, or a removal of a URL the stream never saw.
    pub deduped: u64,
}

/// FNV-1a over a removal marker — gives page removals a deterministic
/// pseudo-fingerprint so they participate in the content-defined cut
/// decision exactly like updates do.
pub(crate) fn removal_fingerprint(url: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.str("removed:");
    h.str(url);
    h.finish()
}

/// The sequential change-detection stage: dedup against the live
/// fingerprint map, stamp survivors with dense sequence numbers, and push
/// them downstream (blocking when extraction lags — this is where input
/// backpressure originates). `fps` is the stream's view of the latest
/// crawled content and is updated eagerly, so intra-batch recrawls dedup
/// correctly before the batch ever commits.
// woc-lint: hot-path
pub(crate) fn fingerprint_stage(
    events: impl Iterator<Item = PageEvent>,
    fps: &mut HashMap<String, u64>,
    out: &Sender<Seq<Change>>,
) -> FingerprintStats {
    let mut stats = FingerprintStats::default();
    let mut seq: u64 = 0;
    for event in events {
        stats.events_in += 1;
        let change = match event {
            PageEvent::Updated(page) => {
                let fp = page.fingerprint();
                let old_fp = fps.get(&page.url).copied();
                if old_fp == Some(fp) {
                    stats.deduped += 1;
                    continue;
                }
                fps.insert(page.url.clone(), fp);
                Change::Updated {
                    page: Box::new(page),
                    fp,
                    old_fp,
                }
            }
            PageEvent::Removed(url) => match fps.remove(&url) {
                Some(old_fp) => Change::Removed { url, old_fp },
                None => {
                    stats.deduped += 1;
                    continue;
                }
            },
        };
        let msg = Seq { seq, msg: change };
        seq += 1;
        if out.send(msg).is_err() {
            // Commit side aborted; nothing downstream will look at the
            // rest of the input.
            break;
        }
    }
    stats
}

/// One extraction worker: pull changes, run the pipeline's extraction
/// stage on updated pages (a pure function of page content), pass
/// removals through untouched. Workers share both channel ends; each
/// drops its sender clone on exit, and the last drop closes the commit
/// stage's input.
// woc-lint: hot-path
pub(crate) fn extract_worker(
    rx: &Receiver<Seq<Change>>,
    tx: &Sender<Seq<Ready>>,
    profiles: &[ConceptProfile],
    use_lists: bool,
    use_detail: bool,
) {
    while let Some(Seq { seq, msg }) = rx.recv() {
        let ready = match msg {
            Change::Updated { page, fp, old_fp } => {
                let records = Arc::new(woc_core::extract_page_with(
                    &page, profiles, use_lists, use_detail,
                ));
                Ready::Updated {
                    page,
                    fp,
                    old_fp,
                    records,
                }
            }
            Change::Removed { url, old_fp } => Ready::Removed { url, old_fp },
        };
        if tx.send(Seq { seq, msg: ready }).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cut points depend on this value; recorded from the written-out
    /// FNV-1a loop this function used to carry.
    #[test]
    fn removal_fingerprint_is_pinned() {
        assert_eq!(
            removal_fingerprint("http://a.example/1"),
            0x312e_ef17_95e7_de68
        );
    }
}
