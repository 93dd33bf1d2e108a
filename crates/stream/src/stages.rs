//! The ingest stage: change detection and extraction on one thread.
//!
//! ```text
//!  events ──▶ [ingest] ──sync_channel──▶ [commit]
//!             dedup by fingerprint,      in input order:
//!             extract survivors          coalesce, cut, publish
//! ```
//!
//! The ingest stage is the determinism anchor: it runs alone, sees events
//! in input order, drops recrawls whose content fingerprint did not change,
//! and extracts every surviving update (a pure function of page content)
//! before sending it on. One producer and one FIFO channel keep input order
//! end to end, so nothing downstream can observe scheduling.

use std::collections::HashMap;
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use woc_extract::lists::ConceptProfile;
use woc_extract::ExtractedRecord;
use woc_webgen::{Fnv1a, Page};

/// One crawl observation entering the stream.
#[derive(Debug, Clone)]
pub enum PageEvent {
    /// The crawler fetched this page (new or recrawled).
    Updated(Page),
    /// The crawler observed this URL gone (404, delisted).
    Removed(String),
}

/// Output of the ingest stage: a page change that survived dedup, with its
/// extraction. Pages ride boxed so a channel slot (and a removal) stays
/// small.
pub(crate) enum Change {
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

/// What the ingest stage saw, for the stream report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IngestStats {
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

/// The sequential ingest stage: dedup against the live fingerprint map,
/// run the pipeline's extraction on surviving updates, pass removals
/// through, and push each change downstream (blocking when the commit
/// stage lags — this is where input backpressure originates). `fps` is the
/// stream's view of the latest crawled content and is updated eagerly, so
/// intra-batch recrawls dedup correctly before the batch ever commits.
// woc-lint: hot-path
pub(crate) fn ingest_stage(
    events: impl Iterator<Item = PageEvent>,
    fps: &mut HashMap<String, u64>,
    profiles: &[ConceptProfile],
    use_lists: bool,
    use_detail: bool,
    out: &SyncSender<Change>,
) -> IngestStats {
    let mut stats = IngestStats::default();
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
                let records = Arc::new(woc_core::extract_page_with(
                    &page, profiles, use_lists, use_detail,
                ));
                Change::Updated {
                    page: Box::new(page),
                    fp,
                    old_fp,
                    records,
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
        if out.send(change).is_err() {
            // The commit stage is gone (it returned or unwound); nothing
            // will look at the rest of the input.
            break;
        }
    }
    stats
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
