//! # woc-audit — structural integrity audit over a built web of concepts
//!
//! The construction pipeline is heuristic, but the artifact it emits has
//! exact structural invariants: associations point at records that exist,
//! `Ref` values resolve, the record index agrees with the record store, the
//! lineage DAG is acyclic, merge resolution is canonical. This crate checks
//! those invariants over any [`WebOfConcepts`] and reports violations with
//! record ids, as human diagnostics and machine-readable JSON — the
//! static-analysis counterpart, over data, of what `woc-lint` does over
//! source.
//!
//! Every check has a stable code (`W001`…`W016`) so CI logs and dashboards
//! can track specific regressions:
//!
//! | code | name               | invariant |
//! |------|--------------------|-----------|
//! | W001 | dangling-assoc     | every association endpoint resolves to a stored record |
//! | W002 | assoc-symmetry     | record→doc and doc→record edge sets mirror each other |
//! | W003 | dangling-ref       | every `Ref` attribute resolves through merges to a live record |
//! | W004 | schema-conformance | live records conform to their concept schema (rate ≥ threshold) |
//! | W005 | prob-mass          | confidences lie in [0,1]; alternatives of a One-cardinality attribute carry total mass ≤ 1+ε |
//! | W006 | index-postings     | the record index holds exactly the live record ids |
//! | W007 | index-roundtrip    | sampled indexed fields are findable via scoped search |
//! | W008 | lineage-acyclic    | lineage inputs precede their node; live records have lineage |
//! | W009 | merge-canonical    | id resolution is idempotent and lands on live records |
//! | W010 | doc-tables         | document index, URL and title tables agree in length |
//! | W011 | tombstone-epoch    | no live association or index posting references a retracted or merged-away record |
//! | W012 | quarantine-lineage | every quarantined page carries a reason in lineage, the report agrees with the lineage count, quarantined pages are not indexed, and no live record's extraction rests solely on quarantined pages |
//! | W013 | shard-coverage     | under a cluster partition map, every live record and every indexed document is owned by exactly one in-range shard, every shard has at least one replica serving the expected epoch, and all such replicas are byte-identical (stale replicas are reported, not silently served) |
//! | W014 | segment-metadata   | under a segmented record index, every live record is served live from exactly one segment and the liveness map, per-segment dead sets, and tombstones agree; the segmented view flattens byte-identically to the web's flat index; and at merge points the pinned scoring statistics equal a flat recomputation |
//! | W015 | stream-watermark   | under streaming ingest, every published micro-epoch's content-defined watermark strictly advances and chains to its predecessor, the watermark digest recomputes from the micro-epoch's changed pages, every changed page carries a real fingerprint transition, and the delta's changed records are drawn exactly from the records whose source-page fingerprints changed since the previous watermark |
//! | W016 | source-reliability | the trust fixpoint recomputes from the model's stored claims (scores within ε, identical quarantine set), the lineage site-quarantine entries mirror the model's, no live value or record rests solely on quarantined-trust sites, no quarantined site survives in the document tables, and every logged reconciliation selection is actually the live first value with not-all-quarantined support |
//!
//! [`audit`] is the one entry point: it runs W001–W012 and W016 over any
//! web. The three plane checks need inputs only some callers have, so those
//! callers push them onto [`Audit::checks`] themselves: W013
//! ([`check_shard_coverage`]) takes the cluster's [`ShardCoverageView`] —
//! plain data, so the audit stays independent of the cluster crate that
//! produces it; W014 ([`check_segments`]) takes the [`SegmentedLrecIndex`]
//! serving the web; W015 ([`check_stream_epochs`]) takes the streaming
//! engine's micro-epoch journal as plain-data [`MicroEpochView`]s.
//! [`stream_digest`] is the single definition of the watermark digest —
//! the engine calls it to stamp watermarks, the audit calls it to verify
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;

use woc_core::{uncertainty::group_by_denotation, AssocKind, NodeId, TrustModel, WebOfConcepts};
use woc_index::lrec_index::FieldQuery;
use woc_index::SegmentedLrecIndex;
use woc_lrec::{AttrValue, Cardinality, LrecId, Violation};
use woc_textkit::tokenize::tokenize_words;
use woc_textkit::Fnv1a;
use woc_webgen::page::url_host;

/// Tunables for the audit.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Minimum fraction of live records without hard schema violations
    /// (kind mismatches, cardinality overruns). Undeclared keys are
    /// reported but never gate — the paper treats them as schema-evolution
    /// signal, not corruption.
    pub conformance_threshold: f64,
    /// Slack for probability-mass sums (float accumulation).
    pub epsilon: f64,
    /// Number of records sampled for the index round-trip check.
    pub roundtrip_sample: usize,
    /// Per-check cap on detailed diagnostics (total counts are always exact).
    pub max_details: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            conformance_threshold: 0.9,
            epsilon: 1e-6,
            roundtrip_sample: 64,
            max_details: 20,
        }
    }
}

/// Result of one integrity check.
#[derive(Debug, Clone, Serialize)]
pub struct CheckResult {
    /// Stable code, e.g. `W003`.
    pub code: String,
    /// Human name, e.g. `dangling-ref`.
    pub name: String,
    /// Units examined (edges, records, nodes — per check).
    pub checked: usize,
    /// Number of violations found (exact, even when details are capped).
    pub violations: usize,
    /// Capped per-violation diagnostics, each naming the offending ids.
    pub details: Vec<String>,
    /// Non-gating observations (rates, undeclared keys).
    pub info: Vec<String>,
}

impl CheckResult {
    fn new(code: &str, name: &str) -> Self {
        Self {
            code: code.to_string(),
            name: name.to_string(),
            checked: 0,
            violations: 0,
            details: Vec::new(),
            info: Vec::new(),
        }
    }

    fn violation(&mut self, cap: usize, msg: String) {
        self.violations += 1;
        if self.details.len() < cap {
            self.details.push(msg);
        }
    }

    /// True if the invariant held.
    pub fn passed(&self) -> bool {
        self.violations == 0
    }
}

/// The full audit report.
#[derive(Debug, Clone, Serialize)]
pub struct Audit {
    /// All checks, in code order.
    pub checks: Vec<CheckResult>,
    /// Live records examined.
    pub live_records: usize,
    /// Associations examined.
    pub associations: usize,
    /// Fraction of live records with no hard schema violations.
    pub conformance_rate: f64,
}

impl Audit {
    /// True if every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(CheckResult::passed)
    }

    /// The check with the given code.
    pub fn check(&self, code: &str) -> Option<&CheckResult> {
        self.checks.iter().find(|c| c.code == code)
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.checks {
            let status = if c.passed() { "ok  " } else { "FAIL" };
            out.push_str(&format!(
                "{status} {} {:<18} checked {:>6}, violations {}\n",
                c.code, c.name, c.checked, c.violations
            ));
            for d in &c.details {
                out.push_str(&format!("       - {d}\n"));
            }
            if c.violations > c.details.len() {
                out.push_str(&format!(
                    "       … and {} more\n",
                    c.violations - c.details.len()
                ));
            }
            for i in &c.info {
                out.push_str(&format!("       · {i}\n"));
            }
        }
        out.push_str(&format!(
            "audit: {} live records, {} associations, conformance {:.4} — {}\n",
            self.live_records,
            self.associations,
            self.conformance_rate,
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }
}

/// Run every integrity check over a built web.
pub fn audit(woc: &WebOfConcepts, cfg: &AuditConfig) -> Audit {
    let live = woc.store.live_ids();
    let mut checks = vec![
        check_dangling_assoc(woc, cfg),
        check_assoc_symmetry(woc, cfg),
        check_dangling_ref(woc, cfg, &live),
    ];
    let (conf_check, conformance_rate) = check_schema_conformance(woc, cfg, &live);
    checks.push(conf_check);
    checks.push(check_prob_mass(woc, cfg, &live));
    checks.push(check_index_postings(woc, cfg, &live));
    checks.push(check_index_roundtrip(woc, cfg, &live));
    checks.push(check_lineage(woc, cfg, &live));
    checks.push(check_merge_canonical(woc, cfg));
    checks.push(check_doc_tables(woc, cfg));
    checks.push(check_tombstones(woc, cfg));
    checks.push(check_quarantine_lineage(woc, cfg, &live));
    checks.push(check_trust(woc, cfg, &live));
    Audit {
        checks,
        live_records: live.len(),
        associations: woc.web.len(),
        conformance_rate,
    }
}

/// The cluster-side facts W013 verifies, reported by the serving tier
/// (`woc-cluster`) as plain data so this crate never depends on it.
#[derive(Debug, Clone, Default)]
pub struct ShardCoverageView {
    /// Number of shards in the topology.
    pub shards: usize,
    /// The partition map: `(record id, owning shard)` for every record the
    /// cluster claims to own.
    pub record_owners: Vec<(LrecId, usize)>,
    /// The document partition: `(doc URL, owning shard)`.
    pub doc_owners: Vec<(String, usize)>,
    /// The cluster epoch every replica is expected to serve.
    pub expected_epoch: u64,
    /// Per shard, per replica slot: `(served epoch, content digest of the
    /// replica's shard state — indexes plus scoring stats)`.
    pub replicas: Vec<Vec<(u64, u64)>>,
}

/// W013: shard coverage — the partition the cluster serves through must
/// tile the web exactly. Every live record and every indexed document is
/// owned by exactly one shard, owners are in range, nothing dead is owned;
/// every shard has at least one replica serving the expected epoch, and all
/// replicas serving it are byte-identical (equal content digests). Replicas
/// on other epochs are *reported* (they are what a failover left behind)
/// but do not fail the check — the router already refuses to serve them
/// silently.
pub fn check_shard_coverage(
    woc: &WebOfConcepts,
    view: &ShardCoverageView,
    cfg: &AuditConfig,
) -> CheckResult {
    let mut c = CheckResult::new("W013", "shard-coverage");
    let mut record_owner: std::collections::BTreeMap<LrecId, Vec<usize>> = Default::default();
    for &(id, shard) in &view.record_owners {
        record_owner.entry(id).or_default().push(shard);
        if shard >= view.shards {
            c.violation(
                cfg.max_details,
                format!(
                    "record {id} owned by shard {shard}, out of range for {} shards",
                    view.shards
                ),
            );
        }
    }
    for id in woc.store.live_ids() {
        c.checked += 1;
        match record_owner.get(&id).map(Vec::len).unwrap_or(0) {
            1 => {}
            0 => c.violation(
                cfg.max_details,
                format!("live record {id} is owned by no shard (uncovered)"),
            ),
            n => c.violation(
                cfg.max_details,
                format!("live record {id} is owned by {n} shards (double-owned)"),
            ),
        }
    }
    for (&id, _) in record_owner.iter() {
        if woc.store.latest(id).is_none() {
            c.violation(
                cfg.max_details,
                format!("shard map owns record {id}, which is not live"),
            );
        }
    }
    let mut doc_owner: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
    for (url, shard) in &view.doc_owners {
        doc_owner.entry(url.as_str()).or_default().push(*shard);
        if *shard >= view.shards {
            c.violation(
                cfg.max_details,
                format!(
                    "document {url} owned by shard {shard}, out of range for {} shards",
                    view.shards
                ),
            );
        }
    }
    for url in &woc.doc_urls {
        c.checked += 1;
        match doc_owner.get(url.as_str()).map(Vec::len).unwrap_or(0) {
            1 => {}
            0 => c.violation(
                cfg.max_details,
                format!("indexed document {url} is owned by no shard"),
            ),
            n => c.violation(
                cfg.max_details,
                format!("indexed document {url} is owned by {n} shards"),
            ),
        }
    }
    if view.replicas.len() != view.shards {
        c.violation(
            cfg.max_details,
            format!(
                "replica table covers {} shards but the topology declares {}",
                view.replicas.len(),
                view.shards
            ),
        );
    }
    let mut stale = 0usize;
    for (shard, replicas) in view.replicas.iter().enumerate() {
        c.checked += 1;
        let current: Vec<u64> = replicas
            .iter()
            .filter(|(epoch, _)| *epoch == view.expected_epoch)
            .map(|&(_, digest)| digest)
            .collect();
        stale += replicas.len() - current.len();
        match current.first() {
            None => c.violation(
                cfg.max_details,
                format!(
                    "shard {shard} has no replica serving epoch {} ({} replicas, all stale or dead)",
                    view.expected_epoch,
                    replicas.len()
                ),
            ),
            Some(&first) => {
                if current.iter().any(|&d| d != first) {
                    c.violation(
                        cfg.max_details,
                        format!(
                            "shard {shard} replicas at epoch {} diverge: digests {current:x?}",
                            view.expected_epoch
                        ),
                    );
                }
            }
        }
    }
    if stale > 0 {
        c.info.push(format!(
            "{stale} replica(s) serving a stale epoch (degraded, not served)"
        ));
    }
    c
}

/// W014: segment metadata — the segmented index's three metadata planes
/// (liveness map, per-segment dead sets, tombstones) must agree with each
/// other and with the record store:
///
/// - every store-live record is served live from **exactly one** segment,
///   and that segment is the one the liveness map names (the map feeds
///   [`SegmentedLrecIndex::flatten`]; the dead sets feed the search path —
///   if they disagree, search and flatten serve different webs);
/// - a record live in no segment must be tombstoned or store-dead, never
///   silently dropped;
/// - the segmented view flattens byte-identically to the web's flat record
///   index (digest equality);
/// - at merge points (no delta segments stacked) the **pinned** scoring
///   statistics equal a recomputation from the flattened view — between
///   merge points they are intentionally stale (that staleness is what
///   keeps cached scores pure), so they are reported, not gated.
pub fn check_segments(
    woc: &WebOfConcepts,
    segments: &SegmentedLrecIndex,
    cfg: &AuditConfig,
) -> CheckResult {
    let mut c = CheckResult::new("W014", "segment-metadata");

    // Live-posting count per id, from the per-slot dead sets (the search
    // path's view of liveness).
    let mut live_slots: std::collections::BTreeMap<LrecId, Vec<usize>> = Default::default();
    for slot in 0..segments.segment_count() {
        for (id, dead) in segments.slot_entries(slot) {
            if !dead {
                live_slots.entry(id).or_default().push(slot);
            }
        }
    }
    let tombstoned: std::collections::BTreeSet<LrecId> =
        segments.tombstoned().into_iter().collect();
    let store_live: std::collections::BTreeSet<LrecId> = woc.store.live_ids().into_iter().collect();

    // Every id any segment carries: the three planes must agree.
    let mut all_ids: std::collections::BTreeSet<LrecId> = live_slots.keys().copied().collect();
    for slot in 0..segments.segment_count() {
        all_ids.extend(segments.slot_entries(slot).into_iter().map(|(id, _)| id));
    }
    for &id in &all_ids {
        c.checked += 1;
        let slots = live_slots.get(&id).map(Vec::as_slice).unwrap_or(&[]);
        match (segments.owner_of(id), slots) {
            (Some(owner), [slot]) if *slot == owner => {}
            (Some(owner), [slot]) => c.violation(
                cfg.max_details,
                format!(
                    "record {id}: liveness map names segment {owner} but the dead sets serve it from segment {slot}"
                ),
            ),
            (Some(owner), []) => c.violation(
                cfg.max_details,
                format!(
                    "record {id}: liveness map names segment {owner} but every segment posting is dead"
                ),
            ),
            (Some(owner), slots) => c.violation(
                cfg.max_details,
                format!(
                    "record {id}: live in {} segments {slots:?} (owner {owner}) — postings must be live in exactly one",
                    slots.len()
                ),
            ),
            (None, []) => {
                if !tombstoned.contains(&id) && store_live.contains(&id) {
                    c.violation(
                        cfg.max_details,
                        format!(
                            "record {id}: store-live but served by no segment and not tombstoned"
                        ),
                    );
                }
            }
            (None, slots) => c.violation(
                cfg.max_details,
                format!(
                    "record {id}: absent from the liveness map but live in segments {slots:?}"
                ),
            ),
        }
    }
    // Every store-live record must be carried by some segment at all.
    for &id in &store_live {
        if !all_ids.contains(&id) {
            c.checked += 1;
            c.violation(
                cfg.max_details,
                format!("store-live record {id} appears in no segment"),
            );
        }
    }

    // The flatten and stat checks dereference the liveness map, so they
    // only run once the membership planes are known-consistent — a corrupt
    // map has already failed the check above.
    if c.violations > 0 {
        c.info
            .push("flatten/stat checks skipped: membership planes inconsistent".to_string());
        return c;
    }

    // The segmented view must flatten to the flat truth, bit for bit.
    c.checked += 1;
    let flat = segments.flatten();
    if flat.digest() != woc.record_index.digest() {
        c.violation(
            cfg.max_details,
            format!(
                "segmented index flattens to digest {:016x}, flat record index is {:016x}",
                flat.digest(),
                woc.record_index.digest()
            ),
        );
    }

    // Pinned stats: gate only at merge points; report staleness between.
    c.checked += 1;
    let pinned = segments.pinned_stats().digest();
    let recomputed = flat.scoring_stats().digest();
    if segments.delta_count() == 0 {
        if pinned != recomputed {
            c.violation(
                cfg.max_details,
                format!(
                    "at a merge point the pinned stats ({pinned:016x}) must equal a flat recomputation ({recomputed:016x})"
                ),
            );
        }
    } else if pinned != recomputed {
        c.info.push(format!(
            "pinned stats intentionally stale across {} delta segment(s)",
            segments.delta_count()
        ));
    }
    c.info.push(format!(
        "{} segment(s), {} tombstone(s), {} merges, {} compactions",
        segments.segment_count(),
        tombstoned.len(),
        segments.merge_count(),
        segments.compaction_count()
    ));
    c
}

/// One page's fingerprint transition inside a micro-epoch, as the
/// streaming engine observed it: `None → Some` is a first crawl,
/// `Some → Some` a recrawl whose content changed, `Some → None` a removal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageChangeView {
    /// The page URL.
    pub url: String,
    /// Fingerprint before the micro-epoch (`None` if the page was new).
    pub old_fp: Option<u64>,
    /// Fingerprint after the micro-epoch (`None` if the page was removed).
    pub new_fp: Option<u64>,
}

/// The stream-side facts W015 verifies: one entry of the streaming ingest
/// tier's (`woc-stream`) micro-epoch journal, which stores exactly these
/// records. Plain data, so this crate never depends on the stream — the
/// same layering as W013's [`ShardCoverageView`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MicroEpochView {
    /// Position in the journal; the first micro-epoch of a stream is 0.
    pub ordinal: u64,
    /// Event count of the previous watermark (0 for the first micro-epoch).
    pub prev_events: u64,
    /// Digest of the previous watermark (0 for the first micro-epoch).
    pub prev_digest: u64,
    /// Event count of this micro-epoch's watermark: cumulative changed
    /// pages since the stream started.
    pub events: u64,
    /// Digest of this micro-epoch's watermark: [`stream_digest`] folded
    /// over `changed_pages` starting from `prev_digest`.
    pub digest: u64,
    /// The deduplicated fingerprint transitions this micro-epoch applied.
    pub changed_pages: Vec<PageChangeView>,
    /// Records the published delta actually changed.
    pub changed_records: Vec<LrecId>,
    /// Records whose lineage touches the changed pages — the candidate
    /// set `changed_records` was filtered from.
    pub lineage_affected: Vec<LrecId>,
    /// The serving epoch after this micro-epoch's publish.
    pub published_epoch: u64,
    /// Whether the publish advanced the serving epoch (an effectively
    /// empty delta leaves it unchanged).
    pub effective: bool,
}

/// The content-defined watermark digest: an FNV-1a chain seeded from the
/// previous watermark's digest and folded over the micro-epoch's page
/// transitions in **sorted URL order** — a pure function of what changed,
/// never of arrival order, worker count, or wall clock. Both the streaming
/// engine (to stamp watermarks) and W015 (to verify them) call this; there
/// is deliberately no second implementation to drift.
pub fn stream_digest(prev_digest: u64, changed_pages: &[PageChangeView]) -> u64 {
    fn eat_fp(h: &mut Fnv1a, fp: Option<u64>) {
        match fp {
            Some(v) => {
                h.bytes(&[1]);
                h.u64(v);
            }
            None => h.bytes(&[0]),
        }
    }
    let mut sorted: Vec<&PageChangeView> = changed_pages.iter().collect();
    sorted.sort_by(|a, b| a.url.cmp(&b.url));
    let mut h = Fnv1a::new();
    h.u64(prev_digest);
    for pc in sorted {
        h.str(&pc.url);
        h.bytes(&[0xff]);
        eat_fp(&mut h, pc.old_fp);
        eat_fp(&mut h, pc.new_fp);
    }
    h.finish()
}

/// W015: stream watermark — the micro-epoch journal must advance
/// monotonically and each published delta must be exact:
///
/// - ordinals count up by one from 0 and each micro-epoch's previous
///   watermark is exactly its predecessor's (the first chains from the
///   zero watermark);
/// - the event count strictly increases, by exactly the number of changed
///   pages — a micro-epoch with nothing changed must never publish;
/// - the digest recomputes via [`stream_digest`] from the previous digest
///   and the changed pages (so the watermark is content-defined: any
///   tampering with what a micro-epoch claims to have applied breaks the
///   chain);
/// - every changed page is a real transition (`old_fp != new_fp`) — the
///   fingerprint stage dropped no-op recrawls, so one surviving here means
///   the dedup plane disagrees with the journal;
/// - the delta's `changed_records` are drawn from `lineage_affected`, the
///   records whose source-page fingerprints changed since the previous
///   watermark — a changed record outside that set means the published
///   delta touched records its micro-epoch's pages cannot explain.
///   (Completeness — that no changed record is *missing* — is gated
///   separately by the quiesced byte-identity equivalence suite.)
/// - a non-effective micro-epoch changed no records, and the published
///   epoch never regresses.
pub fn check_stream_epochs(epochs: &[MicroEpochView], cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W015", "stream-watermark");
    let mut prev: Option<&MicroEpochView> = None;
    for (i, e) in epochs.iter().enumerate() {
        c.checked += 1;
        let (want_ordinal, want_events, want_digest, prev_published) = match prev {
            Some(p) => (p.ordinal + 1, p.events, p.digest, p.published_epoch),
            None => (0, 0, 0, 0),
        };
        if e.ordinal != want_ordinal {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: ordinal {} but the journal position demands {want_ordinal}",
                    e.ordinal
                ),
            );
        }
        if (e.prev_events, e.prev_digest) != (want_events, want_digest) {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: previous watermark ({}, {:016x}) does not chain to its predecessor's ({want_events}, {want_digest:016x})",
                    e.prev_events, e.prev_digest
                ),
            );
        }
        if e.changed_pages.is_empty() {
            c.violation(
                cfg.max_details,
                format!("micro-epoch #{i}: published with no changed pages"),
            );
        }
        if e.events != e.prev_events + e.changed_pages.len() as u64 {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: watermark events {} ≠ prev {} + {} changed pages — the watermark must strictly advance by exactly what changed",
                    e.events,
                    e.prev_events,
                    e.changed_pages.len()
                ),
            );
        }
        let recomputed = stream_digest(e.prev_digest, &e.changed_pages);
        if e.digest != recomputed {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: watermark digest {:016x} does not recompute from its changed pages ({recomputed:016x})",
                    e.digest
                ),
            );
        }
        let mut urls: std::collections::BTreeSet<&str> = Default::default();
        for pc in &e.changed_pages {
            if pc.old_fp == pc.new_fp {
                c.violation(
                    cfg.max_details,
                    format!(
                        "micro-epoch #{i}: page {} is not a real transition ({:?} → {:?})",
                        pc.url, pc.old_fp, pc.new_fp
                    ),
                );
            }
            if !urls.insert(&pc.url) {
                c.violation(
                    cfg.max_details,
                    format!("micro-epoch #{i}: page {} appears twice — transitions must be coalesced per URL", pc.url),
                );
            }
        }
        let affected: std::collections::BTreeSet<LrecId> =
            e.lineage_affected.iter().copied().collect();
        for &id in &e.changed_records {
            if !affected.contains(&id) {
                c.violation(
                    cfg.max_details,
                    format!(
                        "micro-epoch #{i}: changed record {id} is not lineage-affected by any changed page — the delta is not exact"
                    ),
                );
            }
        }
        if !e.effective && !e.changed_records.is_empty() {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: marked non-effective but changed {} record(s)",
                    e.changed_records.len()
                ),
            );
        }
        if e.published_epoch < prev_published {
            c.violation(
                cfg.max_details,
                format!(
                    "micro-epoch #{i}: published epoch regressed {prev_published} → {}",
                    e.published_epoch
                ),
            );
        }
        prev = Some(e);
    }
    if let Some(last) = prev {
        c.info.push(format!(
            "{} micro-epoch(s), watermark at ({}, {:016x})",
            epochs.len(),
            last.events,
            last.digest
        ));
    }
    c
}

/// W001: every association endpoint (record side) resolves to a stored
/// record — no edge may point at an id the store has never seen.
fn check_dangling_assoc(woc: &WebOfConcepts, cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W001", "dangling-assoc");
    for url in woc.web.documents() {
        for &(id, kind) in woc.web.records_of(url) {
            c.checked += 1;
            if woc.store.latest(id).is_none() {
                c.violation(
                    cfg.max_details,
                    format!("association {url} –{kind:?}→ {id} points at an unknown record"),
                );
            }
        }
    }
    c
}

/// W002: the record→doc and doc→record halves of the bipartite graph hold
/// the same edge set.
fn check_assoc_symmetry(woc: &WebOfConcepts, cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W002", "assoc-symmetry");
    for rec in woc.web.records() {
        for (url, kind) in woc.web.docs_of(rec) {
            c.checked += 1;
            if !woc.web.records_of(url).contains(&(rec, *kind)) {
                c.violation(
                    cfg.max_details,
                    format!("edge {rec} –{kind:?}→ {url} missing from the doc-side map"),
                );
            }
        }
    }
    for url in woc.web.documents() {
        for &(rec, kind) in woc.web.records_of(url) {
            c.checked += 1;
            if !woc
                .web
                .docs_of(rec)
                .iter()
                .any(|(u, k)| u == url && *k == kind)
            {
                c.violation(
                    cfg.max_details,
                    format!("edge {url} –{kind:?}→ {rec} missing from the record-side map"),
                );
            }
        }
    }
    c
}

/// W003: every `Ref` attribute value of a live record resolves (through
/// merge tombstones) to a live record.
fn check_dangling_ref(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W003", "dangling-ref");
    for &id in live {
        let Some(rec) = woc.store.latest(id) else {
            continue;
        };
        for (attr, target) in rec.refs() {
            c.checked += 1;
            match woc.store.resolve(target) {
                Some(t) if woc.store.latest(t).is_some() => {}
                _ => c.violation(
                    cfg.max_details,
                    format!("record {id} attr `{attr}` references {target}, which does not resolve to a live record"),
                ),
            }
        }
    }
    c
}

/// W004: live records conform to their concept schema. Kind mismatches and
/// cardinality overruns are hard violations; the pass/fail criterion is the
/// conformance *rate* against [`AuditConfig::conformance_threshold`], since
/// extraction is allowed to be imperfect but not broken. A record whose
/// concept has no registered schema is always a hard violation.
fn check_schema_conformance(
    woc: &WebOfConcepts,
    cfg: &AuditConfig,
    live: &[LrecId],
) -> (CheckResult, f64) {
    let mut c = CheckResult::new("W004", "schema-conformance");
    let mut nonconforming = 0usize;
    let mut undeclared = 0usize;
    for &id in live {
        let Some(rec) = woc.store.latest(id) else {
            continue;
        };
        c.checked += 1;
        let Some(schema) = woc.registry.schema(rec.concept()) else {
            nonconforming += 1;
            c.violation(
                cfg.max_details,
                format!(
                    "record {id} has concept {:?} with no registered schema",
                    rec.concept()
                ),
            );
            continue;
        };
        let mut hard = Vec::new();
        for v in schema.check(rec) {
            match v {
                Violation::UndeclaredKey { .. } => undeclared += 1,
                other => hard.push(other),
            }
        }
        if !hard.is_empty() {
            nonconforming += 1;
            if c.details.len() < cfg.max_details {
                c.details.push(format!(
                    "record {id} ({}) violates schema: {hard:?}",
                    schema.name()
                ));
            }
        }
    }
    let rate = if c.checked == 0 {
        1.0
    } else {
        1.0 - nonconforming as f64 / c.checked as f64
    };
    c.info.push(format!(
        "conformance rate {rate:.4} (threshold {:.4}), {undeclared} undeclared-key observations",
        cfg.conformance_threshold
    ));
    // Individual nonconforming records only gate through the rate.
    if rate < cfg.conformance_threshold {
        c.violations += 1;
        c.details.insert(
            0,
            format!(
                "conformance rate {rate:.4} below threshold {:.4} ({nonconforming}/{} records nonconforming)",
                cfg.conformance_threshold, c.checked
            ),
        );
    }
    (c, rate)
}

/// W005: every confidence lies in [0,1]; where a One-cardinality attribute
/// still carries several denotation groups (uncertain alternatives), the
/// groups' combined confidences — a distribution over mutually exclusive
/// alternatives — must not exceed total mass 1+ε.
fn check_prob_mass(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W005", "prob-mass");
    for &id in live {
        let Some(rec) = woc.store.latest(id) else {
            continue;
        };
        let schema = woc.registry.schema(rec.concept());
        for (attr, entries) in rec.iter() {
            c.checked += 1;
            for e in entries {
                let conf = e.provenance.confidence;
                if !(0.0..=1.0).contains(&conf) || !conf.is_finite() {
                    c.violation(
                        cfg.max_details,
                        format!("record {id} attr `{attr}` has confidence {conf} outside [0,1]"),
                    );
                }
            }
            let is_one = schema
                .and_then(|s| s.attr(attr))
                .is_some_and(|spec| spec.cardinality == Cardinality::One);
            if !is_one {
                continue;
            }
            let groups = group_by_denotation(entries);
            if groups.len() < 2 {
                continue;
            }
            let mass: f64 = groups.iter().map(|g| g.combined_confidence).sum();
            if mass > 1.0 + cfg.epsilon {
                c.violation(
                    cfg.max_details,
                    format!(
                        "record {id} attr `{attr}` (cardinality One) carries {} alternatives with total mass {mass:.4} > 1",
                        groups.len()
                    ),
                );
            }
        }
    }
    c
}

/// W006: the record index holds exactly the live record ids — a stale or
/// over-eager index silently corrupts every concept-search result.
fn check_index_postings(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W006", "index-postings");
    let indexed = woc.record_index.indexed_ids();
    c.checked = indexed.len().max(live.len());
    let live_set: std::collections::BTreeSet<LrecId> = live.iter().copied().collect();
    let indexed_set: std::collections::BTreeSet<LrecId> = indexed.iter().copied().collect();
    for &id in indexed_set.difference(&live_set) {
        c.violation(
            cfg.max_details,
            format!("record {id} is indexed but not live in the store (stale index entry)"),
        );
    }
    for &id in live_set.difference(&indexed_set) {
        c.violation(
            cfg.max_details,
            format!("record {id} is live but missing from the record index"),
        );
    }
    c
}

/// W007: indexed fields round-trip through scoped search — for sampled live
/// records, a `field:term` query built from a stored value must retrieve
/// the record. Catches tokenization or posting corruption that W006's
/// membership check cannot see.
fn check_index_roundtrip(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W007", "index-roundtrip");
    if live.is_empty() {
        return c;
    }
    let step = (live.len() / cfg.roundtrip_sample.max(1)).max(1);
    let k = woc.record_index.len().max(1);
    for &id in live.iter().step_by(step) {
        let Some(rec) = woc.store.latest(id) else {
            continue;
        };
        // First text-bearing attribute with a tokenizable value.
        let Some((attr, term)) = rec.iter().find_map(|(attr, entries)| {
            entries.iter().find_map(|e| match &e.value {
                AttrValue::Ref(_) => None,
                v => tokenize_words(&v.display_string())
                    .into_iter()
                    .next()
                    .map(|w| (attr, w)),
            })
        }) else {
            continue;
        };
        c.checked += 1;
        let query = FieldQuery {
            scoped: vec![(attr.to_string(), term.clone())],
            ..FieldQuery::default()
        };
        let hits = woc.record_index.search(&query, k, |_| None);
        if !hits.iter().any(|h| h.id == id) {
            c.violation(
                cfg.max_details,
                format!("record {id} not retrieved by scoped query `{attr}:{term}` built from its own value"),
            );
        }
    }
    c
}

/// W008: the lineage DAG is acyclic (inputs strictly precede their node —
/// the append-only construction invariant) and every live record has at
/// least one lineage node, so provenance queries cannot come up empty.
fn check_lineage(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W008", "lineage-acyclic");
    for i in 0..woc.lineage.len() {
        let id = NodeId(i as u32);
        c.checked += 1;
        let Some(node) = woc.lineage.node(id) else {
            c.violation(cfg.max_details, format!("lineage node {id:?} unreadable"));
            continue;
        };
        for &input in &node.inputs {
            if input.0 >= node.id.0 {
                c.violation(
                    cfg.max_details,
                    format!(
                        "lineage node {:?} has input {input:?} that does not precede it (cycle or forward edge)",
                        node.id
                    ),
                );
            }
        }
    }
    for &id in live {
        c.checked += 1;
        if woc.lineage.nodes_of_record(id).is_empty() {
            c.violation(
                cfg.max_details,
                format!("live record {id} has no lineage node (unexplainable provenance)"),
            );
        }
    }
    c
}

/// W009: merge resolution is canonical — resolving any ever-created id
/// either fails (retracted) or lands, idempotently, on a live record.
fn check_merge_canonical(woc: &WebOfConcepts, cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W009", "merge-canonical");
    for raw in 0..woc.store.total_created() as u64 {
        let id = LrecId(raw);
        c.checked += 1;
        let Some(canon) = woc.store.resolve(id) else {
            continue; // retracted: resolution legitimately fails
        };
        if woc.store.resolve(canon) != Some(canon) {
            c.violation(
                cfg.max_details,
                format!("resolve({id}) = {canon}, but resolve({canon}) ≠ {canon} (not idempotent)"),
            );
        }
        if woc.store.latest(canon).is_none() {
            c.violation(
                cfg.max_details,
                format!("resolve({id}) = {canon}, which has no stored version"),
            );
        }
    }
    c
}

/// W010: the parallel document tables (inverted index, URL table, title
/// table) agree in length, so every doc id renders with a URL and title.
fn check_doc_tables(woc: &WebOfConcepts, cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W010", "doc-tables");
    c.checked = 3;
    let n = woc.doc_index.num_docs();
    if woc.doc_urls.len() != n {
        c.violation(
            cfg.max_details,
            format!(
                "doc_urls has {} entries but the doc index has {n} documents",
                woc.doc_urls.len()
            ),
        );
    }
    if woc.doc_titles.len() != n {
        c.violation(
            cfg.max_details,
            format!(
                "doc_titles has {} entries but the doc index has {n} documents",
                woc.doc_titles.len()
            ),
        );
    }
    c
}

/// W011: tombstone/epoch consistency — incremental maintenance retracts
/// and merges records, and nothing live may keep pointing at the corpses:
/// every association endpoint and every indexed record id must resolve to
/// *itself* (a live, canonical record). A dangling pointer here means a
/// maintained epoch would serve content that a from-scratch rebuild would
/// not have.
fn check_tombstones(woc: &WebOfConcepts, cfg: &AuditConfig) -> CheckResult {
    let mut c = CheckResult::new("W011", "tombstone-epoch");
    let flag = |c: &mut CheckResult, what: String, id: LrecId| match woc.store.resolve(id) {
        Some(canon) if canon == id => {}
        Some(canon) => c.violation(
            cfg.max_details,
            format!("{what} references merged-away record {id} (canonical is {canon})"),
        ),
        None => c.violation(
            cfg.max_details,
            format!("{what} references a retracted record {id}"),
        ),
    };
    for url in woc.web.documents() {
        for &(id, kind) in woc.web.records_of(url) {
            c.checked += 1;
            flag(&mut c, format!("association {url} –{kind:?}→ {id}"), id);
        }
    }
    for id in woc.record_index.indexed_ids() {
        c.checked += 1;
        flag(&mut c, format!("index posting for {id}"), id);
    }
    c
}

/// W012: quarantine accounting — the degraded-crawl bookkeeping of a
/// resilient build must be internally consistent. Every quarantine node in
/// lineage carries a non-empty reason; the pipeline report's quarantined +
/// failed page counts agree with the lineage quarantine count; a
/// quarantined page must not appear in the document tables (its content was
/// never delivered, so it cannot have been indexed); and no live record may
/// rest its extraction provenance *solely* on quarantined pages — such a
/// record would be served with no deliverable source behind it.
fn check_quarantine_lineage(
    woc: &WebOfConcepts,
    cfg: &AuditConfig,
    live: &[LrecId],
) -> CheckResult {
    let mut c = CheckResult::new("W012", "quarantine-lineage");
    let quarantined = woc.lineage.quarantined();
    for (url, reason) in &quarantined {
        c.checked += 1;
        if reason.is_empty() {
            c.violation(
                cfg.max_details,
                format!("quarantined page {url} has no recorded reason"),
            );
        }
    }
    c.checked += 1;
    let reported = woc.report.pages_quarantined + woc.report.pages_failed;
    if reported != quarantined.len() {
        c.violation(
            cfg.max_details,
            format!(
                "report accounts for {reported} undelivered pages but lineage quarantines {}",
                quarantined.len()
            ),
        );
    }
    if !quarantined.is_empty() {
        for url in &woc.doc_urls {
            c.checked += 1;
            if woc.lineage.is_quarantined(url) {
                c.violation(
                    cfg.max_details,
                    format!("quarantined page {url} is present in the document tables"),
                );
            }
        }
        for &id in live {
            let docs = woc.web.docs_of_kind(id, AssocKind::ExtractedFrom);
            if docs.is_empty() {
                continue;
            }
            c.checked += 1;
            if docs.iter().all(|d| woc.lineage.is_quarantined(d)) {
                c.violation(
                    cfg.max_details,
                    format!("live record {id} is extracted solely from quarantined pages"),
                );
            }
        }
    }
    c
}

/// W016: source reliability — the trust model a build served under must be
/// honest about itself. The fixpoint must recompute bitwise from the claims
/// the model stored (a tampered score or quarantine decision is corruption,
/// not drift: the iteration is deterministic); lineage's site-quarantine
/// entries must mirror the model's — content quarantine tells the same
/// lineage story transport quarantine does, one scope up; no live value,
/// record, or document may rest solely on quarantined-trust sites (their
/// content was scrubbed, so anything still standing on them leaked past the
/// gate); and the selection log must describe reality: each logged winner is
/// the record's live first value for that attribute, supported by at least
/// one non-quarantined site.
fn check_trust(woc: &WebOfConcepts, cfg: &AuditConfig, live: &[LrecId]) -> CheckResult {
    let mut c = CheckResult::new("W016", "source-reliability");
    let model = &woc.trust;

    // (a) The fixpoint is recomputable from the stored claim set.
    if !model.claims.is_empty() || !model.site_trust.is_empty() {
        let recomputed = TrustModel::compute(model.claims.clone(), &model.config);
        for (site, t) in &recomputed.site_trust {
            c.checked += 1;
            match model.site_trust.get(site) {
                Some(stored) if (stored - t).abs() <= cfg.epsilon => {}
                Some(stored) => c.violation(
                    cfg.max_details,
                    format!(
                        "tampered trust score: {site} stores {stored:.6} but the \
                         fixpoint recomputes {t:.6} from the model's own claims"
                    ),
                ),
                None => c.violation(
                    cfg.max_details,
                    format!("site {site} has claims but no trust row"),
                ),
            }
        }
        for site in model.site_trust.keys() {
            if !recomputed.site_trust.contains_key(site) {
                c.violation(
                    cfg.max_details,
                    format!("trust row for {site} is not derivable from the stored claims"),
                );
            }
        }
        c.checked += 1;
        let stored_q: Vec<&str> = model.quarantined.iter().map(|(s, _)| s.as_str()).collect();
        let recomputed_q: Vec<&str> = recomputed
            .quarantined
            .iter()
            .map(|(s, _)| s.as_str())
            .collect();
        if stored_q != recomputed_q {
            c.violation(
                cfg.max_details,
                format!(
                    "quarantine set mismatch: model holds {stored_q:?} but the fixpoint \
                     recomputes {recomputed_q:?}"
                ),
            );
        }
        c.info.push(format!(
            "fixpoint: {} sites, {} claims, {} iterations, converged {}",
            model.site_trust.len(),
            model.claims.len(),
            model.iterations,
            model.converged
        ));
        if !model.converged {
            c.violation(
                cfg.max_details,
                format!(
                    "trust fixpoint did not converge within {} iterations",
                    model.config.max_iters
                ),
            );
        }
    }

    // (b) Lineage mirrors the model: content quarantine is one lineage story.
    c.checked += 1;
    let lineage_q: Vec<&str> = woc
        .lineage
        .quarantined_sites()
        .iter()
        .map(|(s, _)| *s)
        .collect();
    let model_q: Vec<&str> = model.quarantined.iter().map(|(s, _)| s.as_str()).collect();
    if lineage_q != model_q {
        c.violation(
            cfg.max_details,
            format!(
                "lineage site-quarantine {lineage_q:?} disagrees with the trust model's \
                 {model_q:?}"
            ),
        );
    }

    // (c) Nothing live rests solely on quarantined-trust sites.
    if !model.quarantined.is_empty() {
        for url in &woc.doc_urls {
            c.checked += 1;
            if model.is_quarantined(url_host(url)) {
                c.violation(
                    cfg.max_details,
                    format!("quarantined-trust site page {url} is present in the document tables"),
                );
            }
        }
        for &id in live {
            let Some(rec) = woc.store.latest(id) else {
                continue;
            };
            c.checked += 1;
            for (attr, entries) in rec.iter() {
                for e in entries {
                    let sites: Vec<&str> = if e.provenance.support.is_empty() {
                        e.provenance
                            .document_url()
                            .map(url_host)
                            .into_iter()
                            .collect()
                    } else {
                        e.provenance
                            .support
                            .iter()
                            .map(|s| s.site.as_str())
                            .collect()
                    };
                    if !sites.is_empty() && sites.iter().all(|s| model.is_quarantined(s)) {
                        c.violation(
                            cfg.max_details,
                            format!(
                                "live value {id}.{attr} = {:?} is sourced solely from \
                                 quarantined-trust sites {sites:?}",
                                e.value.display_string()
                            ),
                        );
                    }
                }
            }
            let docs = woc.web.docs_of_kind(id, AssocKind::ExtractedFrom);
            if !docs.is_empty() && docs.iter().all(|d| model.is_quarantined(url_host(d))) {
                c.violation(
                    cfg.max_details,
                    format!("live record {id} is extracted solely from quarantined-trust sites"),
                );
            }
        }
    }

    // (d) The selection log describes reality: reliability-weighted winners
    // were actually applied, with at least one non-quarantined supporter.
    for sel in &model.selections {
        c.checked += 1;
        let Some(rec) = woc.store.latest(sel.record) else {
            c.violation(
                cfg.max_details,
                format!(
                    "selection log names record {} ({}) which does not exist",
                    sel.record, sel.attr
                ),
            );
            continue;
        };
        let live_val = rec
            .iter()
            .find(|(a, _)| *a == sel.attr)
            .and_then(|(_, es)| es.first())
            .map(|e| e.value.display_string());
        if live_val.as_deref() != Some(sel.value.as_str()) {
            c.violation(
                cfg.max_details,
                format!(
                    "reliability-ignored winner: record {} attr {} serves {:?} but the \
                     reconciliation selected {:?}",
                    sel.record, sel.attr, live_val, sel.value
                ),
            );
        }
        if !sel.support.is_empty() && sel.support.iter().all(|s| model.is_quarantined(&s.site)) {
            c.violation(
                cfg.max_details,
                format!(
                    "selection for record {} attr {} is supported only by quarantined sites",
                    sel.record, sel.attr
                ),
            );
        }
    }
    if !model.exclusions.is_empty() {
        c.info.push(format!(
            "{} value groups excluded for quarantined-only support",
            model.exclusions.len()
        ));
    }
    c
}
