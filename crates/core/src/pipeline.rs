//! The construction pipeline: from a crawled corpus to a web of concepts.
//!
//! Paper §4: "We can view today's web as a simplified web of concepts, where
//! each record is of type Document. We want to start from here and extract
//! records of richer types" via the three operation families the paper
//! lists — *information extraction* (lists + detail pages), *linking*
//! (entity resolution, review→record matching, semantic linking) and
//! *analysis* (reconciliation, quality scoring). Every operator application
//! is recorded in [`crate::lineage::Lineage`] and every value carries a
//! confidence, so §7.3's uncertainty/lineage requirements hold end to end.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use woc_extract::lists::{lists_and_claims, ConceptProfile};
use woc_extract::ExtractedRecord;
use woc_index::{InvertedIndex, LrecIndex, MergePolicy, SegmentedLrecIndex};
use woc_lrec::domains::{standard_registry, StandardConcepts};
use woc_lrec::value::Date;
use woc_lrec::{AttrValue, ConceptId, ConceptRegistry, Lrec, LrecId, Provenance, Store, Tick};
use woc_matching::{
    candidate_pairs_from_keys, CollectiveConfig, FellegiSunter, GenerativeMatcher, PreparedRecord,
};
use woc_textkit::gazetteer;
use woc_textkit::recognize::{self, FieldKind};
use woc_textkit::tokenize::normalize;
use woc_webgen::{Page, WebCorpus};

use crate::graph::{AssocKind, ConceptWeb};
use crate::lineage::Lineage;
use crate::memo::{self, BuildCaches, TypedRecord};
use crate::parallel::resolve_threads;
use crate::report::PipelineReport;
use crate::trust::{pool_key, Claim, Selection, TrustConfig, TrustModel, TRUST_CONCEPTS};

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Logical time of this construction run.
    pub tick: Tick,
    /// Worker threads for the sharded stages (0 = all available cores).
    /// Output is byte-identical at any thread count.
    pub threads: usize,
    /// Use collective (relational) resolution instead of purely pairwise.
    pub collective: bool,
    /// Run domain-centric list extraction (ablation flag).
    pub use_lists: bool,
    /// Run detail-page extraction (ablation flag).
    pub use_detail: bool,
    /// Run entity resolution (ablation flag).
    pub resolve_entities: bool,
    /// Run value reconciliation (ablation flag).
    pub reconcile_values: bool,
    /// Source-reliability fixpoint settings: the trust stage always runs
    /// (fixpoint trust per site, quarantine of systematically wrong sites,
    /// reliability-weighted reconciliation).
    pub trust: TrustConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            tick: Tick(1),
            threads: 0,
            collective: true,
            use_lists: true,
            use_detail: true,
            resolve_entities: true,
            reconcile_values: true,
            trust: TrustConfig::default(),
        }
    }
}

/// The constructed web of concepts.
///
/// Immutable once built: a maintenance pass builds the next web beside it
/// and the engine, the served snapshot and every pinned reader share one
/// allocation behind an `Arc` — publishing an epoch clones a pointer, and
/// the web is freed once, when its last holder lets go. `Clone` gives
/// callers a web of their own to mutate: records, versions and posting
/// lists are copy-on-write, so the copy shares them with its original until
/// either side changes one — with the value semantics of a deep copy.
#[derive(Debug, Clone)]
pub struct WebOfConcepts {
    /// Concept registry.
    pub registry: ConceptRegistry,
    /// Standard concept ids.
    pub concepts: StandardConcepts,
    /// Canonical records.
    pub store: Store,
    /// Operator provenance DAG.
    pub lineage: Lineage,
    /// Record↔document associations.
    pub web: ConceptWeb,
    /// Fielded index over canonical records (concept search).
    pub record_index: LrecIndex,
    /// Inverted index over document text (vanilla search).
    pub doc_index: InvertedIndex,
    /// Document URLs by doc-index id.
    pub doc_urls: Vec<String>,
    /// Page titles by doc-index id.
    pub doc_titles: Vec<String>,
    /// The source-reliability model: per-site trust, quarantine decisions,
    /// and the selection/exclusion log reconciliation produced under it.
    pub trust: TrustModel,
    /// Stage timings and record counts of the build that produced this web.
    pub report: PipelineReport,
}

impl WebOfConcepts {
    /// Canonical (post-merge) id for any record id.
    pub fn canonical(&self, id: LrecId) -> Option<LrecId> {
        self.store.resolve(id)
    }

    /// Live records of a concept.
    pub fn records_of(&self, concept: woc_lrec::ConceptId) -> Vec<&Lrec> {
        self.store
            .by_concept(concept)
            .into_iter()
            .filter_map(|id| self.store.latest(id))
            .collect()
    }

    /// The URL of a doc-index hit.
    pub fn doc_url(&self, doc: woc_index::DocId) -> &str {
        &self.doc_urls[doc.0 as usize]
    }

    /// A segmented record index over the live records, with base stats
    /// pinned at this corpus state. The base segment indexes exactly the
    /// token lists [`record_index`](Self::record_index) holds, so a fresh
    /// segmented index is byte-identical to the flat one.
    pub fn segmented_record_index(&self, policy: MergePolicy) -> SegmentedLrecIndex {
        SegmentedLrecIndex::new(record_entries(&self.store), policy)
    }
}

/// The live records as record-index entries: `(id, concept, tokens)` in
/// ascending id order — the sequence every record index (flat, segmented,
/// shard-local) is built from, listed here once.
pub fn record_entries(store: &Store) -> Vec<(LrecId, ConceptId, Vec<String>)> {
    store
        .live_ids()
        .into_iter()
        .map(|id| {
            let rec = store
                .latest(id)
                .expect("invariant: live_ids() yields ids with a latest version");
            (id, rec.concept(), LrecIndex::record_tokens(rec))
        })
        .collect()
}

/// A flat record index rebuilt from the store's live records (the
/// segment-rebuild model the non-incremental paths use).
pub(crate) fn flat_record_index(store: &Store) -> LrecIndex {
    let mut index = LrecIndex::new();
    for id in store.live_ids() {
        index.add(
            store
                .latest(id)
                .expect("invariant: live_ids() yields ids with a latest version"),
        );
    }
    index
}

/// Field name → typed value, using the recognizer/kind conventions shared
/// with `woc-extract`.
pub fn type_value(field: &str, raw: &str) -> AttrValue {
    match field {
        "phone" => AttrValue::parse_phone(raw).unwrap_or_else(|| AttrValue::Text(raw.to_string())),
        "zip" => {
            let digits: String = raw.chars().take_while(|c| c.is_ascii_digit()).collect();
            if digits.len() == 5 {
                AttrValue::Zip(digits)
            } else {
                AttrValue::Text(raw.to_string())
            }
        }
        "price" => AttrValue::parse_price(raw).unwrap_or_else(|| AttrValue::Text(raw.to_string())),
        "date" => parse_date(raw)
            .map(AttrValue::Date)
            .unwrap_or_else(|| AttrValue::Text(raw.to_string())),
        "rating" | "year" => raw
            .parse::<i64>()
            .map(AttrValue::Int)
            .unwrap_or_else(|_| AttrValue::Text(raw.to_string())),
        "homepage" | "url" => AttrValue::Url(raw.to_string()),
        _ => AttrValue::Text(raw.to_string()),
    }
}

/// Parse the date formats the recognizers accept into a typed [`Date`].
pub fn parse_date(raw: &str) -> Option<Date> {
    let toks = woc_textkit::tokenize::tokenize(raw);
    // Month D, YYYY
    if toks.len() >= 3 {
        if let Some(month) = gazetteer::MONTHS
            .iter()
            .position(|m| m.eq_ignore_ascii_case(&toks[0].text))
        {
            let day: u8 = toks[1].text.parse().ok()?;
            let year: u16 = toks.last()?.text.parse().ok()?;
            if (1..=31).contains(&day) && year >= 1000 {
                return Some(Date {
                    year,
                    month: month as u8 + 1,
                    day,
                });
            }
        }
    }
    // YYYY-MM-DD
    let iso: Vec<&str> = raw.split('-').map(str::trim).collect();
    if iso.len() == 3 && iso[0].len() == 4 {
        if let (Ok(year), Ok(month), Ok(day)) = (
            iso[0].parse::<u16>(),
            iso[1].parse::<u8>(),
            iso[2].parse::<u8>(),
        ) {
            if (1..=12).contains(&month) && (1..=31).contains(&day) {
                return Some(Date { year, month, day });
            }
        }
    }
    // M/D/YYYY
    let nums: Vec<&str> = raw.split('/').collect();
    if nums.len() == 3 {
        let month: u8 = nums[0].trim().parse().ok()?;
        let day: u8 = nums[1].trim().parse().ok()?;
        let year: u16 = nums[2].trim().parse().ok()?;
        if (1..=12).contains(&month) && (1..=31).contains(&day) {
            return Some(Date { year, month, day });
        }
    }
    None
}

/// Detail-page extraction: one record from a page that is *about* a single
/// entity (biz pages, homepages, product pages, event pages). Unsupervised:
/// headline = name, recognizers supply typed fields, simple cues pick the
/// concept.
pub fn detail_extract(page: &Page, exclude_concepts: &[&str]) -> Option<ExtractedRecord> {
    let dom = &page.dom;
    let h1 = dom.find_tag("h1").first().map(|n| n.text_content())?;
    if h1.is_empty() || h1.len() > 90 {
        return None;
    }
    // Boilerplate headlines ("Search results for …", "Find …") are not
    // entity names; drop the name but keep extracting typed fields.
    let h1_lower = h1.to_lowercase();
    let boilerplate = [
        "search results",
        "find ",
        "welcome",
        "join our",
        "upcoming events",
    ]
    .iter()
    .any(|b| h1_lower.starts_with(b));
    let h1 = if boilerplate { String::new() } else { h1 };
    let text = page.text();
    let spans = recognize::recognize_all(&text);
    let mut fields: Vec<(String, String)> = Vec::new();
    if !h1.is_empty() {
        fields.push(("name".to_string(), h1));
    }
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for s in &spans {
        let (field, limit) = match s.kind {
            FieldKind::Phone => ("phone", 2),
            FieldKind::Zip => ("zip", 1),
            FieldKind::StreetAddress => ("street", 1),
            FieldKind::City => ("city", 1),
            FieldKind::Cuisine => ("cuisine", 1),
            FieldKind::Time => ("hours", 2),
            FieldKind::Date => ("date", 1),
            FieldKind::Price => ("price", 1),
            FieldKind::Email => ("email", 1),
            FieldKind::Url => continue,
        };
        let c = counts.entry(field).or_insert(0);
        if *c < limit {
            fields.push((field.to_string(), s.text.clone()));
            *c += 1;
        }
    }
    // Label mining: sites that label their fields ("Brand: Nikon") expose
    // (label, value) pairs no recognizer is needed for — unsupervised
    // key-value extraction off the markup, §4.2's "exploit markup and other
    // contextual cues".
    for (label, value) in labeled_fields(dom) {
        let field = match label.as_str() {
            "brand" => "brand",
            "model" => "model",
            "category" => "category",
            "cuisine" => "cuisine",
            "venue" | "where" => "venue",
            _ => continue,
        };
        if !fields.iter().any(|(k, _)| k == field) && !value.is_empty() && value.len() < 60 {
            fields.push((field.to_string(), value));
        }
    }

    // Homepage link: an anchor whose text mentions "homepage".
    for (_, n) in dom.walk() {
        if n.tag() == Some("a") && n.text_content().to_lowercase().contains("homepage") {
            if let Some(href) = n.get_attr("href") {
                fields.push(("homepage".to_string(), href.to_string()));
                break;
            }
        }
    }
    // Hours range "9am - 9pm": merge the first two time spans into one
    // opening-hours value.
    let times: Vec<&str> = fields
        .iter()
        .filter(|(k, _)| k == "hours")
        .map(|(_, v)| v.as_str())
        .collect();
    let hours_merged = match times.as_slice() {
        [open] => Some((*open).to_string()),
        [open, close, ..] => Some(format!("{open} - {close}")),
        [] => None,
    };

    // Concept guess from the field mix.
    let has = |f: &str| fields.iter().any(|(k, _)| k == f);
    let brandish = fields
        .iter()
        .any(|(k, v)| k == "name" && gazetteer::BRANDS.iter().any(|b| v.starts_with(b)));
    let concept = if has("street") || has("zip") || (has("phone") && has("city")) {
        "restaurant"
    } else if brandish {
        "product"
    } else if has("date") && has("name") {
        "event"
    } else {
        return None;
    };
    // Lists on this page already claimed the concept: the page is a listing,
    // not a detail page about one entity.
    if exclude_concepts.contains(&concept) {
        return None;
    }
    // A record with nothing but a city is noise.
    if fields.len() < 2 {
        return None;
    }
    if let Some(h) = hours_merged {
        fields.retain(|(k, _)| k != "hours");
        if concept == "restaurant" {
            fields.push(("hours".to_string(), h));
        }
    }
    if concept != "restaurant" {
        fields.retain(|(k, _)| !matches!(k.as_str(), "street" | "zip" | "hours"));
    }
    if concept != "event" {
        fields.retain(|(k, _)| k != "date");
    }
    Some(ExtractedRecord {
        concept: Some(concept.to_string()),
        fields,
        confidence: 0.75,
        source_url: page.url.clone(),
    })
}

/// Mine `(label, value)` pairs from labeled-field markup: an element whose
/// first child's text ends with `:` labels the text of its remaining
/// children. Site-independent — only the labeling *convention* is assumed.
pub fn labeled_fields(dom: &woc_webgen::Node) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (_, node) in dom.walk() {
        let kids = node.child_nodes();
        if kids.len() < 2 {
            continue;
        }
        let label_text = kids[0].text_content();
        let Some(label) = label_text.strip_suffix(':') else {
            continue;
        };
        if label.is_empty() || label.len() > 20 || label.contains(' ') && label.len() > 16 {
            continue;
        }
        let value = kids[1..]
            .iter()
            .map(|k| k.text_content())
            .collect::<Vec<_>>()
            .join(" ")
            .trim()
            .to_string();
        if !value.is_empty() {
            out.push((label.trim().to_lowercase(), value));
        }
    }
    out
}

/// Extract all records from one page honoring ablation flags.
///
/// One region scan serves both halves: the lists, and the concepts a
/// listing claims. Detail extraction complements lists with the page-level
/// record — unless a list already claimed the same concept (listing pages
/// are not about one entity).
pub fn extract_page_with(
    page: &Page,
    profiles: &[ConceptProfile],
    use_lists: bool,
    use_detail: bool,
) -> Vec<ExtractedRecord> {
    let (lists, claimed) = lists_and_claims(page, profiles);
    let mut out = if use_lists { lists } else { Vec::new() };
    if use_detail {
        let claimed_refs: Vec<&str> = claimed.iter().map(String::as_str).collect();
        if let Some(rec) = detail_extract(page, &claimed_refs) {
            out.push(rec);
        }
    }
    out
}

/// Extract all records from one page (lists + detail).
pub fn extract_page(page: &Page, profiles: &[ConceptProfile]) -> Vec<ExtractedRecord> {
    extract_page_with(page, profiles, true, true)
}

/// Pipeline stage B for one page: type every extracted record that names a
/// concept into the lrec the store will hold — ids run from `first_id` —
/// with its extraction operator and the trust claims it contributes. Reads
/// the page, its extraction output and engine-constant configuration only,
/// which is what lets [`BuildCaches::memo_typed`] key the result on the
/// page fingerprint and `first_id`.
fn type_page(
    page: &Page,
    recs: &[ExtractedRecord],
    first_id: LrecId,
    registry: &ConceptRegistry,
    config: &PipelineConfig,
) -> Vec<TypedRecord> {
    let tick = config.tick;
    let mut typed: Vec<TypedRecord> = Vec::new();
    for rec in recs {
        let Some(concept_name) = rec.concept.as_deref() else {
            continue;
        };
        let cid = registry.id_of(concept_name).expect("standard concept");
        let op = if rec.fields.len() > 1 && rec.confidence >= 0.75 {
            "detail-extractor"
        } else {
            "list-extractor"
        };
        // Publication rows carry the raw citation text; refine it into
        // title/authors with the unsupervised citation parser.
        let mut fields: Vec<(String, String)> = rec.fields.clone();
        if concept_name == "publication" {
            if let Some(text) = fields
                .iter()
                .find(|(k, _)| k == "text")
                .map(|(_, v)| v.clone())
            {
                let parsed = woc_extract::citations::parse_citation(&text);
                fields.retain(|(k, _)| k != "text" && k != "name");
                if let Some(t) = parsed.title {
                    fields.push(("title".to_string(), t));
                }
                if let Some(a) = parsed.authors {
                    fields.push(("author_names".to_string(), a));
                }
            }
        }
        // Each field is typed once: the claim takes a clone, the record
        // the value itself.
        let values: Vec<AttrValue> = fields
            .iter()
            .map(|(field, raw)| type_value(field, raw))
            .collect();
        // Fuel for the source-reliability fixpoint: every pooled-concept
        // claim (site, entity pool, attribute, value).
        let mut claims: Vec<Claim> = Vec::new();
        if TRUST_CONCEPTS.contains(&concept_name) {
            let name = fields
                .iter()
                .find(|(k, _)| k == "name")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            let city = fields
                .iter()
                .find(|(k, _)| k == "city")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            // Unnamed records would all pool together; skip them.
            if !name.is_empty() {
                let pool = pool_key(concept_name, name, city);
                for ((field, _), value) in fields.iter().zip(&values) {
                    // Pool-key attributes (name, city) are tautologically
                    // in agreement within a pool — every site "wins" them,
                    // so they carry no reliability signal and would only
                    // dilute the contested facts that do.
                    if field == "name" || field == "city" {
                        continue;
                    }
                    claims.push(Claim {
                        site: page.site.clone(),
                        pool: pool.clone(),
                        attr: field.clone(),
                        value: value.clone(),
                        confidence: rec.confidence,
                    });
                }
            }
        }
        let mut lrec = Lrec::new(LrecId(first_id.0 + typed.len() as u64), cid);
        for ((field, _), value) in fields.iter().zip(values) {
            lrec.add(
                field,
                value,
                Provenance::extracted(&page.url, op, rec.confidence, tick),
            );
        }
        typed.push(TypedRecord::new(lrec, op, claims));
    }
    typed
}

/// Build the web of concepts from a corpus: one [`build_with_caches`] pass
/// over empty memos, dropped on return.
///
/// The heavy stages (extraction, candidate generation, pair scoring, the
/// mention scan) shard across `config.threads` workers via
/// [`crate::parallel::shard_map`]; the produced web is byte-identical at any
/// thread count. Stage timings and counts are returned in
/// [`WebOfConcepts::report`].
pub fn build(corpus: &WebCorpus, config: &PipelineConfig) -> WebOfConcepts {
    let mut caches = BuildCaches::new();
    let fps = caches.fingerprint_pages(corpus, config.threads);
    build_with_caches(corpus, config, &mut caches, &fps)
}

/// One build pass over (possibly empty) [`BuildCaches`] memos. Every build
/// is one: [`build`] passes fresh caches, and the `woc-incr` maintenance
/// engine passes the caches its previous pass left behind. The memos cover
/// the pure heavy stages — page extraction, entity-resolution blocking and
/// pair scoring, the mention scan and index construction — and each is
/// keyed purely on the content its computation reads, so the web is
/// **byte-identical** whatever the caches hold; warm caches only recompute
/// what changed since they were last used. `page_fps` are the page-order
/// fingerprints of `corpus` ([`BuildCaches::fingerprint_pages`]) — the
/// engine has them from change detection, so a pass fingerprints each page
/// once.
///
/// # Panics
///
/// When `page_fps` is not one fingerprint per page of `corpus`.
pub fn build_with_caches(
    corpus: &WebCorpus,
    config: &PipelineConfig,
    caches: &mut BuildCaches,
    page_fps: &[u64],
) -> WebOfConcepts {
    let (registry, concepts) = standard_registry();
    let mut store = Store::new();
    let mut lineage = Lineage::new();
    let mut web = ConceptWeb::new();
    let tick = config.tick;
    let profiles = ConceptProfile::standard();
    let threads = resolve_threads(config.threads);
    let mut report = PipelineReport::new(threads);
    let mut t0 = Instant::now();

    // --- Stage A: page extraction (sharded over pages) -------------------
    let pages: Vec<&Page> = corpus.pages().iter().collect();
    let (use_lists, use_detail) = (config.use_lists, config.use_detail);
    assert_eq!(
        page_fps.len(),
        pages.len(),
        "a build takes one fingerprint per page"
    );
    caches.begin_pass();
    let extracted: Vec<Arc<Vec<ExtractedRecord>>> =
        caches.memo_extract(page_fps, &pages, threads, |p| {
            extract_page_with(p, &profiles, use_lists, use_detail)
        });
    report.pages_scanned = pages.len();
    report.stage_done("extract", pages.len(), &mut t0);

    // --- Stage B: typed record creation with lineage --------------------
    let mut created: Vec<LrecId> = Vec::new();
    // Fuel for the source-reliability fixpoint: every pooled-concept claim
    // (site, entity pool, attribute, value), taken PRE-merge — absorbing a
    // duplicate record would destroy the cross-site corroboration signal.
    let mut claims: Vec<Claim> = Vec::new();
    // Which site asserted each record, so a distrusted site's records can
    // be scrubbed before entity resolution sees them.
    let mut record_sites: Vec<(LrecId, String)> = Vec::new();
    // Every page's typed records, kept for stage C: it reads each record's
    // digest and blocking keys as typed.
    let mut typed_pages: Vec<memo::TypedPage> = Vec::new();
    for ((page, recs), &fp) in pages.iter().zip(&extracted).zip(page_fps) {
        if recs.is_empty() {
            continue;
        }
        let doc_node = lineage.document(&page.url);
        let first_id = store.next_id();
        let typed = caches.memo_typed(fp, first_id, || {
            type_page(page, recs, first_id, &registry, config)
        });
        for t in typed.iter() {
            let op_node = lineage.operator(t.op, vec![doc_node]);
            claims.extend(t.claims.iter().cloned());
            let id = store.insert_shared(tick, Arc::clone(&t.rec));
            lineage.record(id, op_node);
            web.associate(id, &page.url, AssocKind::ExtractedFrom);
            created.push(id);
            record_sites.push((id, page.site.clone()));
        }
        typed_pages.push(typed);
    }
    // By id: the store starts empty, so stage B's ids are 0, 1, 2, … in
    // creation order.
    let typed_by_id: Vec<&TypedRecord> = typed_pages.iter().flat_map(|p| p.iter()).collect();
    report.lrecs_extracted = created.len();
    report.stage_done("records", created.len(), &mut t0);

    // --- Stage B2: source-reliability fixpoint ---------------------------
    // TruthFinder-style iteration over the pre-merge claims: a site is
    // trusted to the extent its contested claims win, and a claim group wins
    // to the extent trusted sites assert it. Sites converging below the
    // threshold are content-quarantined — the same lineage story transport
    // faults use, at site scope.
    let mut trust_model = TrustModel::compute(claims, &config.trust);
    for (site, reason) in &trust_model.quarantined {
        lineage.quarantine_site(site, reason);
    }
    report.sites_distrusted = trust_model.quarantined.len();

    // --- Stage B3: scrub records asserted by distrusted sites ------------
    // Retract BEFORE entity resolution: a spam record absorbed into an
    // honest cluster would launder its values past the trust gate. After the
    // scrub the live store is exactly what a clean crawl would have built.
    let mut scrubbed = 0usize;
    if report.sites_distrusted > 0 {
        for (id, site) in &record_sites {
            if trust_model.is_quarantined(site) {
                store
                    .retract(*id)
                    .expect("retract freshly created record from distrusted site");
                web.remove_record(*id);
                scrubbed += 1;
            }
        }
    }
    report.stage_done("trust", scrubbed, &mut t0);

    // --- Stage C: entity resolution per concept --------------------------
    // Every mutating store operation gets its own strictly-increasing tick.
    let mut clock = tick;
    let mut next_tick = move || {
        clock = clock.next();
        clock
    };
    for cname in ["restaurant", "menu_item", "publication", "event", "product"] {
        if !config.resolve_entities {
            break;
        }
        let cid = registry.id_of(cname).expect("standard concept");
        let ids: Vec<LrecId> = store.by_concept(cid);
        if ids.len() < 2 {
            continue;
        }
        let recs: Vec<Arc<Lrec>> = ids
            .iter()
            .map(|&i| {
                store
                    .latest_shared(i)
                    .cloned()
                    .expect("invariant: by_concept() yields live ids")
            })
            .collect();
        // Every record of the concept is still the version stage B
        // inserted, so the digest and the blocking keys it was typed with
        // are current.
        let typed: Vec<&TypedRecord> = ids
            .iter()
            .map(|id| {
                *typed_by_id
                    .get(id.0 as usize)
                    .expect("invariant: stage B types every record it creates")
            })
            .collect();
        debug_assert!(
            typed
                .iter()
                .zip(&recs)
                .all(|(t, rec)| t.block_keys == woc_matching::blocking_keys(rec)),
            "a {cname} record changed between stage B and its resolution"
        );
        let block = || {
            let keys: Vec<&[String]> = typed.iter().map(|t| t.block_keys.as_slice()).collect();
            candidate_pairs_from_keys(&keys, 200)
        };
        let fs = scorer_for(cname);
        // Each record is prepared for scoring at most once per pass, and
        // only when a pair it belongs to is scored.
        let prepared: Vec<OnceLock<PreparedRecord<'_>>> =
            recs.iter().map(|_| OnceLock::new()).collect();
        let record = |k: usize| recs.get(k).expect("invariant: blocking pairs positions");
        let score = |i: usize, j: usize| {
            let prepare = |k: usize| {
                prepared
                    .get(k)
                    .expect("invariant: one cell per position")
                    .get_or_init(|| fs.prepare(record(k)))
            };
            let s = fs.score_prepared(prepare(i), prepare(j));
            debug_assert_eq!(
                s.to_bits(),
                fs.score_reference(record(i), record(j)).to_bits(),
                "a prepared pair score must equal the reference bit for bit"
            );
            s
        };
        // Digests are taken pre-merge, before any `Ref` values exist, so
        // they are pure functions of extracted content — stable under the
        // id renumbering a removed page causes. Blocking and scoring read
        // nothing else, so a concept whose digest sequence is unchanged
        // skips both.
        let digests: Vec<u64> = typed.iter().map(|t| t.digest).collect();
        let scored = caches.memo_partition(cid.0, &digests, threads, block, score);
        report.match_pairs_scored += scored.len();
        let mut uf = if config.collective {
            // Relational evidence: records extracted from pages that mention
            // each other… for the corpus here, shared source hosts carry no
            // evidence, so neighbors are records sharing a source document.
            // BTreeMap, not HashMap: the per-doc member lists feed `neighbors`
            // in iteration order, which must not depend on hash seeding.
            let mut doc_members: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
            for (i, id) in ids.iter().enumerate() {
                for (url, _) in web.docs_of(*id) {
                    doc_members.entry(url.as_str()).or_default().push(i);
                }
            }
            let mut neighbors: Vec<Vec<usize>> = vec![Vec::new(); ids.len()];
            for members in doc_members.values() {
                for &i in members {
                    for &j in members {
                        if i != j {
                            neighbors[i].push(j);
                        }
                    }
                }
            }
            let (uf, _) = woc_matching::resolve_collective(
                ids.len(),
                &scored,
                &neighbors,
                &CollectiveConfig {
                    accept: fs.upper,
                    relational_weight: 0.8,
                    max_iters: 5,
                },
            );
            uf
        } else {
            woc_matching::resolve_pairwise(ids.len(), &scored, fs.upper)
        };
        // Merge clusters: the member with the most values wins.
        for cluster in uf.clusters() {
            if cluster.len() < 2 {
                continue;
            }
            report.clusters_formed += 1;
            let winner_idx = *cluster
                .iter()
                .max_by_key(|&&i| recs[i].num_values())
                .expect("invariant: clusters() yields non-empty clusters");
            let winner = ids[winner_idx];
            let mut inputs = vec![];
            for &i in &cluster {
                if let Some(&n) = lineage.nodes_of_record(ids[i]).first() {
                    inputs.push(n);
                }
            }
            let op = lineage.operator("entity-matcher", inputs);
            lineage.record(winner, op);
            for &i in &cluster {
                if ids[i] != winner {
                    store
                        .merge(winner, ids[i], next_tick())
                        .expect("merge of live records");
                }
            }
        }
    }
    web.resolve_merges(&store);
    report.stage_done("resolve", report.match_pairs_scored, &mut t0);

    // --- Stage C2: reconciliation ----------------------------------------
    // Pooled concepts reconcile under the reliability model: group rank is
    // trust-weighted, quarantined-only value groups are excluded outright,
    // and winners get SiteSupport provenance. With no quarantined sites this
    // is identical to plain reconcile, so honest builds are unchanged.
    let pooled: Vec<(ConceptId, &str)> = TRUST_CONCEPTS
        .iter()
        .filter_map(|&n| registry.id_of(n).map(|cid| (cid, n)))
        .collect();
    let mut reconciled = 0usize;
    for id in store.live_ids() {
        if !config.reconcile_values {
            break;
        }
        let rec = store
            .latest_shared(id)
            .cloned()
            .expect("invariant: live_ids() yields ids with a latest version");
        let Some(schema) = registry.schema(rec.concept()) else {
            continue;
        };
        if let Some((_, cname)) = pooled.iter().find(|(cid, _)| *cid == rec.concept()) {
            let tr = crate::uncertainty::reconcile_with_trust(&rec, schema, &trust_model);
            if !tr.recon.conflicts.is_empty() || rec.num_values() > rec.num_attrs() {
                let pool = pool_key(
                    cname,
                    rec.best_string("name").as_deref().unwrap_or(""),
                    rec.best_string("city").as_deref().unwrap_or(""),
                );
                store
                    .update(id, next_tick(), |r| {
                        crate::uncertainty::apply_reconciliation(r, &tr.recon, "reconciler");
                    })
                    .expect("reconcile update");
                for w in tr.winners {
                    trust_model.selections.push(Selection {
                        record: id,
                        attr: w.attr,
                        pool: pool.clone(),
                        value: w.value,
                        support: w.support,
                    });
                }
                for ex in tr.excluded {
                    trust_model.exclusions.push(crate::trust::Exclusion {
                        record: id,
                        attr: ex.attr,
                        value: ex.value,
                        sites: ex.sites,
                    });
                }
                reconciled += 1;
            }
        } else {
            let recon = crate::uncertainty::reconcile(&rec, schema);
            if !recon.conflicts.is_empty() || rec.num_values() > rec.num_attrs() {
                store
                    .update(id, next_tick(), |r| {
                        crate::uncertainty::apply_reconciliation(r, &recon, "reconciler");
                    })
                    .expect("reconcile update");
                reconciled += 1;
            }
        }
    }
    report.stage_done("reconcile", reconciled, &mut t0);

    // --- Stage D: review → record linking --------------------------------
    // Minimum generative-matcher margin to accept a review→record link.
    const REVIEW_MARGIN: f64 = 0.5;
    let mut review_links = 0usize;
    let restaurant_recs: Vec<Arc<Lrec>> = store
        .by_concept(concepts.restaurant)
        .into_iter()
        .map(|id| {
            store
                .latest_shared(id)
                .cloned()
                .expect("invariant: by_concept() yields live ids")
        })
        .collect();
    if !restaurant_recs.is_empty() {
        let matcher = GenerativeMatcher::build(restaurant_recs.iter().map(|r| &**r), &[], 0.6);
        for rid in store.by_concept(concepts.review) {
            let Some(text) = store
                .latest(rid)
                .and_then(|r| r.best_text("text").map(str::to_string))
            else {
                continue;
            };
            if let Some((target, margin)) = matcher.match_text(&text) {
                if margin >= REVIEW_MARGIN {
                    let conf = 1.0 - (-margin).exp();
                    let t = next_tick();
                    store
                        .update(rid, t, |r| {
                            r.set(
                                "about",
                                AttrValue::Ref(target),
                                Provenance::derived("review-linker", conf, t),
                            );
                        })
                        .expect("review link update");
                    let rec_node = lineage
                        .nodes_of_record(rid)
                        .first()
                        .copied()
                        .unwrap_or_else(|| lineage.operator("review-linker", vec![]));
                    let op = lineage.operator("review-linker", vec![rec_node]);
                    lineage.record(rid, op);
                    for (url, kind) in web.docs_of(rid).to_vec() {
                        if kind == AssocKind::ExtractedFrom {
                            web.associate(target, &url, AssocKind::ReviewOf);
                        }
                    }
                    review_links += 1;
                }
            }
        }
    }
    report.stage_done("review-link", review_links, &mut t0);

    // --- Stage E: semantic linking (record mentions in documents) --------
    // The scan reads only pre-E web state, so applying its lists serially in
    // page order is deterministic.
    let targets = mention_targets(&store);
    let mentions_per_page = mention_scan(caches, page_fps, &pages, &targets, &web, threads);
    debug_assert!(
        mentions_per_page == mention_scan_reference(&pages, &targets, &web, threads),
        "the memoized mention scan must equal the direct filter, page for page"
    );
    for (page, ids) in pages.iter().zip(&mentions_per_page) {
        // A distrusted site's pages link to nothing: a spam page stuffed
        // with honest names must not become "related documents" in serving.
        if lineage.is_site_quarantined(&page.site) {
            continue;
        }
        for id in ids {
            web.associate(*id, &page.url, AssocKind::Mentions);
            report.mention_links += 1;
        }
    }
    report.stage_done("mention-scan", pages.len(), &mut t0);

    // --- Stage E2: augmentation links ("Customers also bought") ----------
    // Product pages advertise complements; resolve anchor names to product
    // records and store typed `augments` refs (the §5.4 Augmentations data).
    let product_by_name: HashMap<String, LrecId> = store
        .by_concept(concepts.product)
        .into_iter()
        .filter_map(|id| {
            store
                .latest(id)
                .and_then(|r| r.best_string("name"))
                .map(|n| (normalize(&n), id))
        })
        .collect();
    // The DOM walk for also-bought anchors is a pure function of page
    // content — memoizable per fingerprint; only the name→record resolution
    // below depends on the current store.
    let scan_also = |page: &Page| {
        let mut names: Vec<String> = Vec::new();
        let mut in_also = false;
        for (_, n) in page.dom.walk() {
            if n.tag() == Some("h2") {
                in_also = n.text_content().to_lowercase().contains("also bought");
                continue;
            }
            if in_also && n.tag() == Some("a") {
                names.push(normalize(&n.text_content()));
            }
        }
        names
    };
    let also_names = caches.memo_also(page_fps, &pages, threads, scan_also);
    let mut augment_links = 0usize;
    for (page, names) in pages.iter().zip(&also_names) {
        let also: Vec<LrecId> = names
            .iter()
            .filter_map(|n| product_by_name.get(n).copied())
            .collect();
        if also.is_empty() {
            continue;
        }
        let owner = web
            .records_of(&page.url)
            .iter()
            .filter(|(_, k)| *k == AssocKind::ExtractedFrom)
            .filter_map(|(r, _)| store.resolve(*r))
            .find(|&r| {
                store
                    .latest(r)
                    .is_some_and(|x| x.concept() == concepts.product)
            });
        if let Some(owner) = owner {
            let t = next_tick();
            let existing: Vec<LrecId> = store
                .latest(owner)
                .map(|r| {
                    r.get("augments")
                        .iter()
                        .filter_map(|e| e.value.as_ref_id())
                        .collect()
                })
                .unwrap_or_default();
            let fresh: Vec<LrecId> = also
                .into_iter()
                .filter(|a| *a != owner && !existing.contains(a))
                .collect();
            if !fresh.is_empty() {
                augment_links += fresh.len();
                store
                    .update(owner, t, |r| {
                        for a in &fresh {
                            r.add(
                                "augments",
                                AttrValue::Ref(*a),
                                Provenance::derived("augment-linker", 0.8, t),
                            );
                        }
                    })
                    .expect("augment update");
            }
        }
    }
    report.stage_done("augment", augment_links, &mut t0);

    // --- Stage F: homepage associations -----------------------------------
    let mut homepage_links = 0usize;
    for id in store.live_ids() {
        if let Some(url) = store.latest(id).and_then(|r| r.best_string("homepage")) {
            if corpus.get(&url).is_some() {
                web.associate(id, &url, AssocKind::Homepage);
                homepage_links += 1;
            }
        }
    }
    report.stage_done("homepage", homepage_links, &mut t0);

    // --- Stage G: indexes ---------------------------------------------------
    let record_index = caches.record_index_with(&store);
    // The patch-in-place cache wants each live page's fingerprint beside it.
    let (doc_index, doc_urls, doc_titles) =
        document_plane(pages.iter().copied(), &lineage, |live| {
            let (live_pages, live_fps): (Vec<&Page>, Vec<u64>) = live
                .iter()
                .map(|&(i, p)| {
                    let fp = page_fps
                        .get(i)
                        .expect("invariant: a build fingerprints every page");
                    (p, *fp)
                })
                .unzip();
            caches.doc_index_with(&live_pages, &live_fps, threads)
        });
    caches.end_pass();
    report.stage_done("index", store.live_count() + doc_urls.len(), &mut t0);

    WebOfConcepts {
        registry,
        concepts,
        store,
        lineage,
        web,
        record_index,
        doc_index,
        doc_urls,
        doc_titles,
        trust: trust_model,
        report,
    }
}

/// The document plane over a crawl: the index of each page's title and
/// visible text, and the parallel URL and title tables. Distrusted sites
/// serve nothing: their pages are excluded. Adversarial pages are appended
/// after the honest corpus, so the surviving prefix — and with it every doc
/// id — is byte-identical to a clean crawl's. `index` builds the inverted
/// index over the surviving pages, each given with its position in `pages`.
pub(crate) fn document_plane<'a>(
    pages: impl IntoIterator<Item = &'a Page>,
    lineage: &Lineage,
    index: impl FnOnce(&[(usize, &'a Page)]) -> InvertedIndex,
) -> (InvertedIndex, Vec<String>, Vec<String>) {
    let live: Vec<(usize, &Page)> = pages
        .into_iter()
        .enumerate()
        .filter(|(_, p)| !lineage.is_site_quarantined(&p.site))
        .collect();
    let doc_index = index(&live);
    let (doc_urls, doc_titles) = live
        .iter()
        .map(|(_, p)| (p.url.clone(), p.title.clone()))
        .unzip();
    (doc_index, doc_urls, doc_titles)
}

/// Stage E's targets: every live record with a `name` (else `title`) of two
/// or more tokens, normalized, in ascending id order. Short, generic names
/// create false mentions.
fn mention_targets(store: &Store) -> Vec<(LrecId, String)> {
    store
        .live_ids()
        .into_iter()
        .filter_map(|id| {
            let rec = store.latest(id)?;
            let name = rec
                .best_string("name")
                .or_else(|| rec.best_string("title"))?;
            let norm = normalize(&name);
            (norm.split(' ').count() >= 2).then_some((id, norm))
        })
        .collect()
}

/// Stage E's scan: for each page, the `targets` whose name occurs in its
/// normalized text, in `targets` order, less the records `web` already
/// associates with the page. The heavy pure part — which names occur in a
/// page — is memoized per (page, target-name set); the id-dependent
/// filtering on top replays cheaply against the current web state. Equal
/// to [`mention_scan_reference`], page for page.
fn mention_scan(
    caches: &mut BuildCaches,
    page_fps: &[u64],
    pages: &[&Page],
    targets: &[(LrecId, String)],
    web: &ConceptWeb,
    threads: usize,
) -> Vec<Vec<LrecId>> {
    let mut names: Vec<&str> = targets.iter().map(|(_, n)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    let names_digest = memo::digest_strs(&names);
    let matched = caches.memo_mentions(page_fps, pages, names_digest, threads, |page| {
        let text = normalize(&page.text());
        names
            .iter()
            .filter(|n| text.contains(**n))
            .map(|n| (*n).to_string())
            .collect()
    });
    // name -> (position, id) pairs, so each page only touches the targets
    // its matched names name. Sorting the gathered pairs by position
    // restores the `targets` order `mention_scan_reference` produces —
    // byte-identity depends on that.
    let mut by_name: HashMap<&str, Vec<(usize, LrecId)>> = HashMap::new();
    for (pos, (id, name)) in targets.iter().enumerate() {
        by_name.entry(name.as_str()).or_default().push((pos, *id));
    }
    pages
        .iter()
        .zip(&matched)
        .map(|(page, m)| {
            if m.is_empty() {
                return Vec::new();
            }
            let mut hits: Vec<(usize, LrecId)> = m
                .iter()
                .filter_map(|n| by_name.get(n.as_str()))
                .flatten()
                .copied()
                .collect();
            hits.sort_unstable_by_key(|&(pos, _)| pos);
            hits.iter()
                .filter(|(_, id)| !web.records_of(&page.url).iter().any(|(r, _)| r == id))
                .map(|&(_, id)| id)
                .collect()
        })
        .collect()
}

/// [`mention_scan`]'s reference: every page's normalized text searched for
/// every target directly. Reached only from tests and `debug_assert!`.
fn mention_scan_reference(
    pages: &[&Page],
    targets: &[(LrecId, String)],
    web: &ConceptWeb,
    threads: usize,
) -> Vec<Vec<LrecId>> {
    crate::parallel::shard_map(pages, threads, |page| {
        let text = normalize(&page.text());
        targets
            .iter()
            .filter(|(id, name)| {
                text.contains(name.as_str())
                    && !web.records_of(&page.url).iter().any(|(r, _)| r == id)
            })
            .map(|(id, _)| *id)
            .collect()
    })
}

/// The Fellegi–Sunter scorer for each concept.
pub(crate) fn scorer_for(concept: &str) -> FellegiSunter {
    use woc_matching::AttrParams;
    match concept {
        "restaurant" => FellegiSunter::restaurant_default(),
        "publication" => FellegiSunter {
            attrs: vec![
                AttrParams {
                    key: "name".into(),
                    m: 0.9,
                    u: 0.02,
                    agree_threshold: 0.8,
                },
                AttrParams {
                    key: "venue".into(),
                    m: 0.95,
                    u: 0.15,
                    agree_threshold: 0.95,
                },
                AttrParams {
                    key: "year".into(),
                    m: 0.95,
                    u: 0.1,
                    agree_threshold: 0.99,
                },
            ],
            upper: 3.0,
            lower: 0.0,
        },
        "menu_item" => FellegiSunter {
            attrs: vec![
                AttrParams {
                    key: "name".into(),
                    m: 0.95,
                    u: 0.01,
                    agree_threshold: 0.9,
                },
                AttrParams {
                    key: "price".into(),
                    m: 0.8,
                    u: 0.05,
                    agree_threshold: 0.95,
                },
            ],
            // Menu items on different restaurants share names (same dish
            // pool); require both name AND price to agree.
            upper: 5.0,
            lower: 0.0,
        },
        "event" => FellegiSunter {
            attrs: vec![
                AttrParams {
                    key: "name".into(),
                    m: 0.95,
                    u: 0.02,
                    agree_threshold: 0.85,
                },
                AttrParams {
                    key: "date".into(),
                    m: 0.95,
                    u: 0.02,
                    agree_threshold: 0.99,
                },
            ],
            upper: 3.5,
            lower: 0.0,
        },
        _ => FellegiSunter {
            attrs: vec![AttrParams {
                key: "name".into(),
                m: 0.9,
                u: 0.01,
                agree_threshold: 0.9,
            }],
            upper: 3.0,
            lower: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_webgen::{generate_corpus, CorpusConfig, PageKind, World, WorldConfig};

    fn small_woc() -> (World, WebCorpus, WebOfConcepts) {
        let world = World::generate(WorldConfig::tiny(201));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(11));
        let woc = build(&corpus, &PipelineConfig::default());
        (world, corpus, woc)
    }

    #[test]
    fn parse_date_formats() {
        assert_eq!(
            parse_date("January 20, 2010"),
            Some(Date {
                year: 2010,
                month: 1,
                day: 20
            })
        );
        assert_eq!(
            parse_date("1/20/2010"),
            Some(Date {
                year: 2010,
                month: 1,
                day: 20
            })
        );
        assert_eq!(parse_date("not a date"), None);
        assert_eq!(parse_date("13/45/2010"), None);
    }

    #[test]
    fn type_value_conversions() {
        assert_eq!(
            type_value("phone", "(408) 555-0134"),
            AttrValue::Phone("4085550134".into())
        );
        assert_eq!(type_value("zip", "95014"), AttrValue::Zip("95014".into()));
        assert_eq!(type_value("price", "$9.95"), AttrValue::PriceCents(995));
        assert_eq!(type_value("rating", "4"), AttrValue::Int(4));
        assert_eq!(type_value("name", "Gochi"), AttrValue::Text("Gochi".into()));
        // Unparseable falls back to text, never lost.
        assert_eq!(
            type_value("phone", "call us"),
            AttrValue::Text("call us".into())
        );
    }

    #[test]
    fn labeled_fields_mined_from_markup() {
        let dom = woc_webgen::parse_html(
            r#"<html><body>
                <div><span>Brand:</span><span>Nikon</span></div>
                <div><span>Model:</span><span>D40</span></div>
                <div><span>Notes</span><span>no colon, not a label</span></div>
                <div><span>Way Too Long A Label For Mining:</span><span>x</span></div>
            </body></html>"#,
        );
        let fields = labeled_fields(&dom);
        assert!(fields.contains(&("brand".to_string(), "Nikon".to_string())));
        assert!(fields.contains(&("model".to_string(), "D40".to_string())));
        assert!(!fields.iter().any(|(k, _)| k.contains("notes")));
        assert!(!fields.iter().any(|(k, _)| k.contains("too long")));
    }

    #[test]
    fn detail_extract_products_carry_brand_and_category() {
        // Label mining only works on sites that label their fields; at least
        // one seller site does, and its product records must carry
        // brand/category mined off the markup.
        let world = World::generate(WorldConfig {
            sellers: 6,
            ..WorldConfig::tiny(205)
        });
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(45));
        let mut mined = 0usize;
        let mut product_pages = 0usize;
        for page in corpus
            .pages()
            .iter()
            .filter(|p| p.truth.kind == woc_webgen::PageKind::ProductPage)
        {
            product_pages += 1;
            let Some(rec) = detail_extract(page, &[]) else {
                continue;
            };
            assert_eq!(rec.concept.as_deref(), Some("product"));
            let has = |k: &str| rec.fields.iter().any(|(key, _)| key == k);
            assert!(has("name"));
            if has("brand") && has("category") {
                mined += 1;
            }
        }
        assert!(product_pages > 0);
        assert!(
            mined > 0,
            "some labeled seller site must yield mined brand/category"
        );
    }

    #[test]
    fn pipeline_builds_restaurants() {
        let (world, _corpus, woc) = small_woc();
        let restaurants = woc.records_of(woc.concepts.restaurant);
        assert!(
            !restaurants.is_empty(),
            "pipeline must produce restaurant records"
        );
        // Merging should bring the count near the true number (each
        // restaurant appears on up to 2 aggregators + its homepage).
        assert!(
            restaurants.len() <= world.restaurants.len() * 2,
            "too many canonical restaurants: {} vs {} true",
            restaurants.len(),
            world.restaurants.len()
        );
    }

    #[test]
    fn canonical_records_have_sources_and_lineage() {
        let (_, _, woc) = small_woc();
        for rec in woc.records_of(woc.concepts.restaurant) {
            let docs = woc.web.docs_of_kind(rec.id(), AssocKind::ExtractedFrom);
            assert!(!docs.is_empty(), "record {} has no source docs", rec.id());
            let explanation = woc.lineage.explain(rec.id());
            assert!(
                explanation.iter().any(|s| s.starts_with("operator")),
                "record {} lineage lacks operators",
                rec.id()
            );
        }
    }

    #[test]
    fn gochi_is_findable() {
        let (_, _, woc) = small_woc();
        let hits = woc
            .record_index
            .query("gochi cupertino", 5, |n| woc.registry.id_of(n));
        assert!(!hits.is_empty(), "gochi must be in the web of concepts");
        let top = woc.store.latest(hits[0].id).unwrap();
        let name = top.best_string("name").unwrap_or_default();
        assert!(name.to_lowercase().contains("gochi"), "got {name}");
    }

    #[test]
    fn reviews_linked_to_restaurants() {
        let (_, _, woc) = small_woc();
        let reviews = woc.records_of(woc.concepts.review);
        assert!(!reviews.is_empty(), "reviews extracted");
        let linked = reviews
            .iter()
            .filter(|r| {
                r.best("about")
                    .is_some_and(|e| e.value.as_ref_id().is_some())
            })
            .count();
        assert!(
            linked * 2 > reviews.len(),
            "most reviews should link: {linked}/{}",
            reviews.len()
        );
    }

    #[test]
    fn mentions_found_in_articles() {
        let (_, corpus, woc) = small_woc();
        let article_urls: Vec<&str> = corpus
            .pages()
            .iter()
            .filter(|p| p.truth.kind == PageKind::Article)
            .map(|p| p.url.as_str())
            .collect();
        let mentioned = article_urls
            .iter()
            .filter(|u| {
                woc.web
                    .records_of(u)
                    .iter()
                    .any(|(_, k)| *k == AssocKind::Mentions)
            })
            .count();
        assert!(
            mentioned > 0,
            "semantic linking should annotate some of {} articles",
            article_urls.len()
        );
    }

    #[test]
    fn doc_index_covers_corpus() {
        let (_, corpus, woc) = small_woc();
        assert_eq!(woc.doc_index.num_docs(), corpus.len());
        let hits = woc.doc_index.search("gochi", 5);
        assert!(!hits.is_empty());
        assert!(woc.doc_url(hits[0].doc).contains("gochi"));
    }

    #[test]
    fn sequential_equals_parallel() {
        let world = World::generate(WorldConfig::tiny(202));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(12));
        let seq = build(
            &corpus,
            &PipelineConfig {
                threads: 1,
                ..PipelineConfig::default()
            },
        );
        let par = build(
            &corpus,
            &PipelineConfig {
                threads: 4,
                ..PipelineConfig::default()
            },
        );
        assert_eq!(seq.store.live_count(), par.store.live_count());
        assert_eq!(seq.store.total_created(), par.store.total_created());
        // Deterministic counts match even though wall-clock timings differ.
        assert_eq!(seq.report.pages_scanned, par.report.pages_scanned);
        assert_eq!(seq.report.lrecs_extracted, par.report.lrecs_extracted);
        assert_eq!(seq.report.match_pairs_scored, par.report.match_pairs_scored);
        assert_eq!(seq.report.clusters_formed, par.report.clusters_formed);
        assert_eq!(seq.report.mention_links, par.report.mention_links);
        assert_eq!(seq.report.threads, 1);
        assert_eq!(par.report.threads, 4);
        assert!(seq.report.stage("extract").is_some());
    }

    #[test]
    fn cached_build_matches_fresh_build() {
        let world = World::generate(WorldConfig::tiny(203));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(13));
        let cfg = PipelineConfig::default();
        let fresh = build(&corpus, &cfg);
        let mut caches = BuildCaches::new();
        let fps = caches.fingerprint_pages(&corpus, cfg.threads);
        let cold = build_with_caches(&corpus, &cfg, &mut caches, &fps);
        let warm = build_with_caches(&corpus, &cfg, &mut caches, &fps);
        for woc in [&cold, &warm] {
            assert_eq!(woc.record_index.digest(), fresh.record_index.digest());
            assert_eq!(woc.doc_index.digest(), fresh.doc_index.digest());
            assert_eq!(woc.store.live_count(), fresh.store.live_count());
            assert_eq!(woc.store.total_created(), fresh.store.total_created());
            assert_eq!(woc.web.len(), fresh.web.len());
        }
        // Second pass over an unchanged corpus: everything is a memo hit,
        // and the one fingerprint sweep was charged to the first pass.
        assert_eq!(caches.stats().pages_fingerprinted, 0);
        assert_eq!(caches.stats().pages_reextracted, 0);
        assert_eq!(caches.stats().pairs_rescored, 0);
        assert_eq!(caches.stats().mention_pages_rescanned, 0);
        assert_eq!(caches.stats().postings_patched, 0);
        assert!(!caches.stats().record_index_rebuilt);
        assert!(!caches.stats().doc_index_rebuilt);
    }

    /// [`document_plane`]'s reference index: every live page tokenized afresh.
    fn index_texts(live: &[(usize, &Page)]) -> InvertedIndex {
        let mut doc_index = InvertedIndex::new();
        for (_, page) in live {
            doc_index.add_tokens(&memo::doc_tokens(page));
        }
        doc_index
    }

    /// Build `corpus` and check stage E and stage G against their reference
    /// bodies: the record index against a flat rebuild, the document plane
    /// against one tokenized afresh, and every page's mention list against
    /// [`mention_scan_reference`] run on stage E's inputs.
    fn assert_build_matches_references(corpus: &WebCorpus) -> WebOfConcepts {
        let woc = build(corpus, &PipelineConfig::default());
        assert_eq!(
            woc.record_index.digest(),
            flat_record_index(&woc.store).digest()
        );
        let (doc_index, doc_urls, doc_titles) =
            document_plane(corpus.pages(), &woc.lineage, index_texts);
        assert_eq!(woc.doc_index.digest(), doc_index.digest());
        assert_eq!((&woc.doc_urls, &woc.doc_titles), (&doc_urls, &doc_titles));

        // Stage E's inputs, recovered from the built web: later stages change
        // no record's name, and add only homepage links to the web.
        let targets = mention_targets(&woc.store);
        let mut pre_mentions = ConceptWeb::new();
        for id in woc.web.records() {
            for (url, kind) in woc.web.docs_of(id) {
                if !matches!(kind, AssocKind::Mentions | AssocKind::Homepage) {
                    pre_mentions.associate(id, url, *kind);
                }
            }
        }
        let pages: Vec<&Page> = corpus.pages().iter().collect();
        let reference = mention_scan_reference(&pages, &targets, &pre_mentions, 1);
        let mut caches = BuildCaches::new();
        let fps = caches.fingerprint_pages(corpus, 1);
        assert_eq!(
            mention_scan(&mut caches, &fps, &pages, &targets, &pre_mentions, 1),
            reference
        );
        // The build linked exactly those mentions, except on a distrusted
        // site's pages, which link to nothing.
        for (page, ids) in pages.iter().zip(&reference) {
            let linked: Vec<LrecId> = woc
                .web
                .records_of(&page.url)
                .iter()
                .filter(|(_, k)| *k == AssocKind::Mentions)
                .map(|(r, _)| *r)
                .collect();
            if woc.lineage.is_site_quarantined(&page.site) {
                assert!(linked.is_empty(), "{} is distrusted", page.url);
            } else {
                assert_eq!(&linked, ids, "mentions on {}", page.url);
            }
        }
        woc
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a whole corpus")]
    fn build_matches_references_on_a_tiny_corpus() {
        let world = World::generate(WorldConfig::tiny(204));
        let woc =
            assert_build_matches_references(&generate_corpus(&world, &CorpusConfig::tiny(14)));
        assert!(woc.report.mention_links > 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a whole corpus")]
    fn build_matches_references_on_the_standard_corpus() {
        let world = World::generate(WorldConfig::default());
        let woc =
            assert_build_matches_references(&generate_corpus(&world, &CorpusConfig::default()));
        assert!(woc.report.mention_links > 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds a whole corpus")]
    fn build_matches_references_with_a_quarantined_site() {
        let world = World::generate(WorldConfig::tiny(700));
        let corpus = generate_corpus(
            &world,
            &CorpusConfig {
                adversarial: Some(woc_webgen::AdversarialConfig::at_ratio(0.3, 11)),
                ..CorpusConfig::tiny(70)
            },
        );
        let woc = assert_build_matches_references(&corpus);
        assert!(
            !woc.trust.quarantined.is_empty(),
            "a planted site is distrusted"
        );
    }

    #[test]
    fn mention_scan_equals_its_reference_on_shared_names_and_own_records() {
        let world = World::generate(WorldConfig::tiny(205));
        let corpus = generate_corpus(&world, &CorpusConfig::tiny(15));
        let template = corpus
            .pages()
            .first()
            .expect("a generated corpus has pages");
        let page = |url: &str, html: &str| Page {
            url: url.to_string(),
            dom: woc_webgen::parse_html(html),
            ..template.clone()
        };
        let a = page(
            "http://blog.example.com/a",
            "<p>Dinner at Gochi Tapas, then drinks at Blue Door.</p>",
        );
        let b = page("http://blog.example.com/b", "<p>Nothing of note.</p>");
        let pages = [&a, &b];
        let fps: Vec<u64> = pages.iter().map(|p| p.fingerprint()).collect();
        // Records 8 and 5 share one normalized name; record 8 was extracted
        // from page `a` itself, so its mention there is dropped.
        let targets = vec![
            (LrecId(8), "gochi tapas".to_string()),
            (LrecId(3), "blue door".to_string()),
            (LrecId(5), "gochi tapas".to_string()),
            (LrecId(9), "red lantern".to_string()),
        ];
        let mut web = ConceptWeb::new();
        web.associate(LrecId(8), &a.url, AssocKind::ExtractedFrom);
        let reference = mention_scan_reference(&pages, &targets, &web, 1);
        assert_eq!(reference, vec![vec![LrecId(3), LrecId(5)], vec![]]);
        // Cold, then warm: the second scan is all memo hits.
        let mut caches = BuildCaches::new();
        for _ in 0..2 {
            assert_eq!(
                mention_scan(&mut caches, &fps, &pages, &targets, &web, 2),
                reference
            );
        }
        assert_eq!(caches.stats().mention_pages_rescanned, pages.len());
    }

    #[test]
    fn report_counts_are_populated() {
        let (_, _, woc) = small_woc();
        let r = &woc.report;
        assert!(r.pages_scanned > 0);
        assert!(r.lrecs_extracted > 0);
        assert!(r.match_pairs_scored > 0);
        assert!(r.clusters_formed > 0);
        assert!(r.stages.len() >= 8, "stages: {:?}", r.stages);
        let shown = r.to_string();
        assert!(shown.contains("pipeline report"));
        assert!(shown.contains("extract"));
    }
}
