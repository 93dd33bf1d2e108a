//! Content-defined watermarks: the stream position each journal entry
//! ([`woc_audit::MicroEpochView`]) records before and after its batch.
//!
//! A watermark is a pure function of *what changed*: an event count plus an
//! FNV digest chained over each micro-epoch's deduplicated page
//! transitions in sorted-URL order ([`woc_audit::stream_digest`] — the
//! audit recomputes the same chain in its W015 check, so there is exactly
//! one definition). Nothing about arrival order, worker count, channel
//! timing or wall clock reaches the watermark — two runs of the same event
//! stream produce identical journals at any parallelism.

use woc_audit::{stream_digest, PageChangeView};

/// A position in the stream: how many page changes have been applied since
/// the stream started, and the digest chained over all of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watermark {
    /// Cumulative deduplicated page changes.
    pub events: u64,
    /// FNV chain over every committed transition, in micro-epoch order.
    pub digest: u64,
}

impl Watermark {
    /// The stream origin: nothing committed yet.
    pub const ZERO: Watermark = Watermark {
        events: 0,
        digest: 0,
    };

    /// The watermark after committing `changed` on top of `self`. Strictly
    /// greater in `events` whenever `changed` is non-empty.
    pub fn advance(&self, changed: &[PageChangeView]) -> Watermark {
        Watermark {
            events: self.events + changed.len() as u64,
            digest: stream_digest(self.digest, changed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pc(url: &str, old: Option<u64>, new: Option<u64>) -> PageChangeView {
        PageChangeView {
            url: url.into(),
            old_fp: old,
            new_fp: new,
        }
    }

    #[test]
    fn advance_is_order_free_and_strictly_monotone() {
        let a = pc("http://a.test/1", None, Some(1));
        let b = pc("http://b.test/1", Some(2), Some(3));
        let fwd = Watermark::ZERO.advance(&[a.clone(), b.clone()]);
        let rev = Watermark::ZERO.advance(&[b, a]);
        assert_eq!(fwd, rev, "digest must not depend on arrival order");
        assert_eq!(fwd.events, 2);
        assert!(fwd.digest != 0);
    }

    #[test]
    fn chain_distinguishes_history() {
        let a = pc("http://a.test/1", None, Some(1));
        let b = pc("http://b.test/1", None, Some(2));
        // Same final set of pages, different epoch boundaries → different
        // digests: the chain commits to the grouping, not just the union.
        let one_epoch = Watermark::ZERO.advance(&[a.clone(), b.clone()]);
        let two_epochs = Watermark::ZERO.advance(&[a]).advance(&[b]);
        assert_eq!(one_epoch.events, two_epochs.events);
        assert_ne!(one_epoch.digest, two_epochs.digest);
    }
}
