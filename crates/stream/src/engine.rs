//! The stream engine: owns the dataflow, the micro-epoch state machine,
//! and the journal.

use std::collections::{BTreeMap, HashMap};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

use woc_audit::{
    audit, check_segments, check_stream_epochs, Audit, AuditConfig, MicroEpochView, PageChangeView,
};
use woc_core::{PipelineConfig, WebOfConcepts};
use woc_extract::lists::ConceptProfile;
use woc_extract::ExtractedRecord;
use woc_incr::{FaultHook, IncrEngine};
use woc_serve::ConceptServer;
use woc_webgen::{Page, WebCorpus};

use crate::stages::{ingest_stage, removal_fingerprint, Change, PageEvent};
use crate::watermark::Watermark;

/// Tunables for the streaming dataflow.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Capacity of the channel from the ingest stage to the commit stage
    /// (0 makes it a rendezvous). Small on purpose: the queue is for
    /// smoothing, not absorbing — a lagging commit stage must throttle
    /// ingest.
    pub channel_capacity: usize,
    /// Content-defined micro-epoch cut: a change whose fingerprint `fp`
    /// satisfies `fp & cut_mask == 0` closes the current batch, so epoch
    /// boundaries are a function of page *content* (average batch size
    /// `cut_mask + 1` changes), never of arrival timing or thread count.
    pub cut_mask: u64,
    /// Hard batch-size cap: close the micro-epoch when this many distinct
    /// URLs are pending even if no content cut fired (bounds publish
    /// latency under pathological fingerprint distributions).
    pub max_batch_pages: usize,
    /// Pipeline configuration for the underlying incremental engine.
    pub pipeline: PipelineConfig,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            channel_capacity: 32,
            cut_mask: 0x3,
            max_batch_pages: 64,
            pipeline: PipelineConfig::default(),
        }
    }
}

/// What one [`StreamEngine::run`] call did.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Events consumed from the input.
    pub events_in: u64,
    /// Events dropped by change detection (no-op recrawls, removals of
    /// unknown URLs).
    pub deduped: u64,
    /// Pages whose extraction the ingest stage computed.
    pub pages_extracted: u64,
    /// Micro-epochs committed to the journal during this run.
    pub micro_epochs: usize,
    /// Of those, how many actually advanced the served web.
    pub effective_epochs: usize,
    /// Maintenance passes that failed; their batches carried over into
    /// the following micro-epoch instead of publishing partially.
    pub publish_failures: usize,
    /// First few failure messages, for diagnostics.
    pub failure_messages: Vec<String>,
    /// The serving epoch after the last successful publish of this run
    /// (0 if none happened).
    pub last_epoch: u64,
    /// Watermark when the run finished.
    pub final_watermark: Watermark,
    /// Distinct URLs still pending (only non-zero when every closing
    /// attempt failed — a quiesced healthy stream leaves nothing behind).
    pub pending_carryover: usize,
    /// Offset of each successful publish from run start (cadence).
    pub publish_at: Vec<Duration>,
    /// Wall time of each successful maintain-and-publish pass.
    pub publish_took: Vec<Duration>,
}

/// Latest observed state of one URL inside the open batch.
enum PendingState {
    Updated {
        page: Box<Page>,
        fp: u64,
        records: Arc<Vec<ExtractedRecord>>,
    },
    Removed,
}

/// One URL's coalesced transition inside the open batch: `old_fp` is
/// pinned at first touch (the fingerprint as of the last commit attempt's
/// baseline), the state tracks the newest observation.
struct Pending {
    old_fp: Option<u64>,
    state: PendingState,
}

/// The continuous crawl→extract→publish engine.
///
/// Owns the incremental maintenance engine ([`IncrEngine`]), the live
/// corpus view, the open batch, and the micro-epoch journal. Each
/// [`Self::run`] call wires up the staged dataflow (see [`crate`] docs),
/// drains the given events through it, and quiesces: after `run` returns,
/// every committed change has been published (or its failure recorded) and
/// [`Self::web`] is byte-identical to a from-scratch batch build of
/// [`Self::corpus`] — the equivalence suite gates exactly this.
pub struct StreamEngine {
    config: StreamConfig,
    incr: IncrEngine,
    corpus: WebCorpus,
    /// The stream's eager fingerprint map: reflects every event the
    /// ingest stage accepted, including not-yet-committed ones.
    fps: HashMap<String, u64>,
    watermark: Watermark,
    journal: Vec<MicroEpochView>,
    pending: BTreeMap<String, Pending>,
}

impl std::fmt::Debug for StreamEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEngine")
            .field("corpus_pages", &self.corpus.len())
            .field("micro_epochs", &self.journal.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl StreamEngine {
    /// Build the initial web from `corpus` (a full batch build that warms
    /// every memo cache) and start the stream at [`Watermark::ZERO`].
    pub fn new(corpus: WebCorpus, config: StreamConfig) -> Self {
        let incr = IncrEngine::new(&corpus, config.pipeline.clone());
        Self::from_parts(incr, corpus, config)
    }

    /// Adopt an already-built incremental engine instead of rebuilding:
    /// `corpus` must be exactly the crawl `incr`'s current web was last
    /// maintained against (the benchmark uses this to switch a warm batch
    /// engine into streaming mode without paying a second full build).
    pub fn from_parts(incr: IncrEngine, corpus: WebCorpus, config: StreamConfig) -> Self {
        let fps = corpus
            .pages()
            .iter()
            .map(|p| p.url.clone())
            .zip(corpus.page_fingerprints())
            .collect();
        Self {
            config,
            incr,
            corpus,
            fps,
            watermark: Watermark::ZERO,
            journal: Vec::new(),
            pending: BTreeMap::new(),
        }
    }

    /// The current maintained web (the last good epoch).
    pub fn web(&self) -> &WebOfConcepts {
        self.incr.web()
    }

    /// The engine's segmented record index (for audits and publishes).
    pub fn segments(&self) -> &woc_index::SegmentedLrecIndex {
        self.incr.segments()
    }

    /// The live corpus view: every committed and pending page change
    /// applied to the seed corpus.
    pub fn corpus(&self) -> &WebCorpus {
        &self.corpus
    }

    /// The current watermark.
    pub fn watermark(&self) -> Watermark {
        self.watermark
    }

    /// The micro-epoch journal, oldest first: one entry per batch that
    /// published (or proved ineffective), as the W015 audit check reads
    /// it. Failed passes append nothing — their batch coalesces into the
    /// next entry.
    pub fn journal(&self) -> &[MicroEpochView] {
        &self.journal
    }

    /// Distinct URLs whose changes are batched but not yet committed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Run the full audit over the engine's web, segmented index and
    /// micro-epoch journal: W001–W012, W014, and the stream's own W015.
    pub fn audit(&self, cfg: &AuditConfig) -> Audit {
        let woc = self.incr.web();
        let mut a = audit(woc, cfg);
        a.checks
            .push(check_segments(woc, self.incr.segments(), cfg));
        a.checks.push(check_stream_epochs(&self.journal, cfg));
        a
    }

    /// Install a pre-publish gate on the underlying maintenance engine
    /// (chaos testing: a rejected pass fails the micro-epoch, whose batch
    /// then coalesces into the next one).
    pub fn set_fault_hook(&mut self, hook: FaultHook) {
        self.incr.set_fault_hook(hook);
    }

    /// Remove the fault hook.
    pub fn clear_fault_hook(&mut self) {
        self.incr.clear_fault_hook();
    }

    /// Drain `events` through the staged dataflow and quiesce.
    ///
    /// The ingest stage (dedup, then extraction) runs on one spawned
    /// thread and sends changes in input order over a bounded
    /// [`sync_channel`] to the commit stage on the calling thread. Both
    /// stages are joined before this returns and a panic in either
    /// propagates: if the commit stage unwinds, its receiver drops, the
    /// ingest stage's next send fails and that thread exits.
    ///
    /// Publishing happens *during* the run, micro-epoch by micro-epoch,
    /// through `server` — queries against the server see each published
    /// epoch atomically and never a partial batch. An empty `events` run
    /// is the retry path: it attempts to commit whatever a previous run
    /// left pending after publish failures.
    pub fn run<I>(&mut self, events: I, server: &ConceptServer) -> StreamReport
    where
        I: IntoIterator<Item = PageEvent>,
        I::IntoIter: Send,
    {
        let started = Instant::now();
        let mut report = StreamReport::default();
        let profiles = ConceptProfile::standard();
        let (use_lists, use_detail) = (
            self.config.pipeline.use_lists,
            self.config.pipeline.use_detail,
        );
        // Split borrows: the fingerprint map goes to the ingest thread,
        // everything else stays with the commit loop on this thread.
        let fps = &mut self.fps;
        let mut committer = Committer {
            cut_mask: self.config.cut_mask,
            max_batch_pages: self.config.max_batch_pages.max(1),
            incr: &mut self.incr,
            corpus: &mut self.corpus,
            watermark: &mut self.watermark,
            journal: &mut self.journal,
            pending: &mut self.pending,
            server,
            report: &mut report,
            started,
        };
        let events = events.into_iter();

        let stats = std::thread::scope(|s| {
            let (tx, rx) = sync_channel(self.config.channel_capacity);
            let ingest =
                s.spawn(move || ingest_stage(events, fps, &profiles, use_lists, use_detail, &tx));
            committer.drain(rx);
            match ingest.join() {
                Ok(stats) => stats,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        });

        report.events_in = stats.events_in;
        report.deduped = stats.deduped;
        report.final_watermark = self.watermark;
        report.pending_carryover = self.pending.len();
        report
    }
}

/// The commit stage's working state: mutable borrows of every engine field
/// the stage touches, split off from the fingerprint map so the stages can
/// run concurrently under one `&mut self`.
struct Committer<'a> {
    cut_mask: u64,
    max_batch_pages: usize,
    incr: &'a mut IncrEngine,
    corpus: &'a mut WebCorpus,
    watermark: &'a mut Watermark,
    journal: &'a mut Vec<MicroEpochView>,
    pending: &'a mut BTreeMap<String, Pending>,
    server: &'a ConceptServer,
    report: &'a mut StreamReport,
    started: Instant,
}

impl Committer<'_> {
    /// Fold every change from the ingest stage into batches, then quiesce:
    /// whatever is still batched commits, content cut or not. Takes the
    /// receiver by value so an unwinding commit stage drops it.
    fn drain(&mut self, rx: Receiver<Change>) {
        for change in rx {
            self.integrate(change);
        }
        if !self.pending.is_empty() {
            self.close_micro_epoch();
        }
    }

    /// Fold one in-order change into the open batch, then cut if its
    /// content says so. Deliberately *not* a lint hot-path: closing a
    /// batch runs the whole incremental build, which is maintenance, not
    /// request serving — the per-event hot path is the ingest stage.
    fn integrate(&mut self, change: Change) {
        let cut_fp = match &change {
            Change::Updated { fp, .. } => *fp,
            Change::Removed { url, .. } => removal_fingerprint(url),
        };
        match change {
            Change::Updated {
                page,
                fp,
                old_fp,
                records,
            } => {
                self.report.pages_extracted += 1;
                let url = page.url.clone();
                let state = PendingState::Updated { page, fp, records };
                match self.pending.entry(url) {
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        // Coalesce: keep the first-touch old_fp, adopt the
                        // newest content.
                        e.get_mut().state = state;
                    }
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(Pending { old_fp, state });
                    }
                }
            }
            Change::Removed { url, old_fp } => match self.pending.entry(url) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().state = PendingState::Removed;
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(Pending {
                        old_fp: Some(old_fp),
                        state: PendingState::Removed,
                    });
                }
            },
        }
        if cut_fp & self.cut_mask == 0 || self.pending.len() >= self.max_batch_pages {
            self.close_micro_epoch();
        }
    }

    /// Close the open batch: apply it to the corpus, seed the extraction
    /// memos, run one maintenance pass, publish its delta, and journal the
    /// micro-epoch. On failure the batch stays pending — it coalesces into
    /// the next micro-epoch, and the server keeps serving the last good
    /// epoch (no partial state is ever visible).
    fn close_micro_epoch(&mut self) {
        // The coalesced transitions, in sorted-URL order (BTreeMap). A URL
        // that round-tripped back to its original fingerprint (update then
        // revert, or add then remove) is content-wise a no-op and is
        // excluded from the watermark.
        let mut changed: Vec<PageChangeView> = Vec::new();
        for (url, p) in self.pending.iter() {
            let new_fp = match &p.state {
                PendingState::Updated { fp, .. } => Some(*fp),
                PendingState::Removed => None,
            };
            if p.old_fp != new_fp {
                changed.push(PageChangeView {
                    url: url.clone(),
                    old_fp: p.old_fp,
                    new_fp,
                });
            }
        }

        // Apply the final coalesced state of every URL to the live corpus.
        // Idempotent on purpose: a batch that fails to publish is
        // re-applied on the next attempt.
        for (url, p) in self.pending.iter() {
            match &p.state {
                PendingState::Updated { page, .. } => self.corpus.add(page.as_ref().clone()),
                PendingState::Removed => {
                    self.corpus.remove(url);
                }
            }
        }

        if changed.is_empty() {
            // Every transition round-tripped: the corpus content equals
            // the last commit baseline, nothing to publish or journal.
            self.pending.clear();
            return;
        }

        // Seed the extraction memos so the maintenance replay hits them
        // instead of re-extracting what the ingest stage already did.
        for p in self.pending.values() {
            if let PendingState::Updated { fp, records, .. } = &p.state {
                self.incr.seed_extraction(*fp, records.clone());
            }
        }

        let t0 = Instant::now();
        match self.incr.maintain_and_publish(self.corpus, self.server) {
            Ok((mrep, epoch)) => {
                let took = t0.elapsed();
                let prev = *self.watermark;
                *self.watermark = prev.advance(&changed);
                let effective = mrep.effective_change;
                self.journal.push(MicroEpochView {
                    ordinal: self.journal.len() as u64,
                    prev_events: prev.events,
                    prev_digest: prev.digest,
                    events: self.watermark.events,
                    digest: self.watermark.digest,
                    changed_pages: changed,
                    // Empty for an ineffective pass: nothing was published.
                    changed_records: mrep.delta.changed_records,
                    lineage_affected: mrep.affected_records,
                    published_epoch: epoch,
                    effective,
                });
                self.pending.clear();
                self.report.micro_epochs += 1;
                if effective {
                    self.report.effective_epochs += 1;
                }
                self.report.last_epoch = epoch;
                self.report.publish_at.push(self.started.elapsed());
                self.report.publish_took.push(took);
            }
            Err(err) => {
                // Transactional failure: the incr engine still holds the
                // last good epoch, the server still serves it, and the
                // batch stays pending for the next cut.
                self.report.publish_failures += 1;
                if self.report.failure_messages.len() < 8 {
                    self.report.failure_messages.push(err.to_string());
                }
            }
        }
    }
}
