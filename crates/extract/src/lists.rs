//! Domain-centric list extraction (paper §4.2).
//!
//! "A list can often be identified on a webpage by a repeating pattern of
//! HTML structure. However, webpages often contain several lists, and we
//! need to identify the lists that we are interested in; this typically
//! requires us to combine domain knowledge with structural cues."
//!
//! The extractor is **unsupervised and site-independent**:
//!
//! 1. [`repeating_regions`] finds maximal runs of ≥3 structurally identical
//!    siblings (the structural cue);
//! 2. each row's text is typed with the `woc-textkit` field recognizers and
//!    gazetteers (the domain knowledge: "rules to identify zips/phones");
//! 3. a [`ConceptProfile`] scores the list against the concept's required
//!    fields and statistical constraints ("each restaurant is associated
//!    with a single zip code and has one or two phone numbers") and the
//!    best-scoring profile above threshold claims the list.

use std::collections::BTreeMap;

use woc_textkit::gazetteer;
use woc_textkit::recognize::{self, FieldKind};
use woc_webgen::dom::{Node, NodePath};
use woc_webgen::Page;

use crate::wrapper::ExtractedRecord;

/// A detected repeating region: the parent path and the row nodes.
#[derive(Debug)]
pub struct RepeatingRegion<'a> {
    /// Path of the parent element.
    pub parent: NodePath,
    /// The row nodes (structurally identical siblings).
    pub rows: Vec<&'a Node>,
}

/// A structural signature of a subtree, depth-limited so minor deep
/// differences don't break row alignment.
fn shape(node: &Node, depth: usize) -> String {
    match node {
        Node::Text(_) => "#".to_string(),
        Node::Element { tag, children, .. } => {
            if depth == 0 {
                tag.clone()
            } else {
                let inner: Vec<String> = children.iter().map(|c| shape(c, depth - 1)).collect();
                format!("{tag}({})", inner.join(","))
            }
        }
    }
}

/// Find all maximal runs of ≥`min_rows` consecutive same-shape element
/// siblings anywhere in the DOM.
///
/// Each element child's shape is rendered once per parent and the runs are
/// read off the rendered signatures: the same comparisons, in the same
/// order, as [`repeating_regions_reference`].
pub fn repeating_regions(dom: &Node, min_rows: usize) -> Vec<RepeatingRegion<'_>> {
    let mut out = Vec::new();
    for (path, node) in dom.walk() {
        if node.tag().is_none() {
            continue;
        }
        let kids = node.child_nodes();
        // A text child has no signature, so it ends any run.
        let sigs: Vec<Option<String>> = kids
            .iter()
            .map(|k| k.tag().is_some().then(|| shape(k, 2)))
            .collect();
        let mut i = 0;
        while i < kids.len() {
            let Some(Some(sig)) = sigs.get(i) else {
                i += 1;
                continue;
            };
            let same = sigs
                .iter()
                .skip(i + 1)
                .take_while(|s| s.as_ref() == Some(sig))
                .count();
            let j = i + 1 + same;
            if j - i >= min_rows {
                out.push(RepeatingRegion {
                    parent: path.clone(),
                    rows: kids.iter().skip(i).take(j - i).collect(),
                });
            }
            i = j;
        }
    }
    out
}

/// [`repeating_regions`] as first written, rendering a child's shape again
/// for every comparison. The oracle of the property tests; nothing else
/// calls it.
pub fn repeating_regions_reference(dom: &Node, min_rows: usize) -> Vec<RepeatingRegion<'_>> {
    let mut out = Vec::new();
    for (path, node) in dom.walk() {
        if node.tag().is_none() {
            continue;
        }
        let kids = node.child_nodes();
        let mut i = 0;
        while i < kids.len() {
            if kids[i].tag().is_none() {
                i += 1;
                continue;
            }
            let sig = shape(&kids[i], 2);
            let mut j = i + 1;
            while j < kids.len() && kids[j].tag().is_some() && shape(&kids[j], 2) == sig {
                j += 1;
            }
            if j - i >= min_rows {
                out.push(RepeatingRegion {
                    parent: path.clone(),
                    rows: kids[i..j].iter().collect(),
                });
            }
            i = j.max(i + 1);
        }
    }
    out
}

/// Fields recognized in one row.
#[derive(Debug, Clone, Default)]
pub struct RowFields {
    /// `(field, value)` pairs found by the recognizers.
    pub fields: Vec<(String, String)>,
}

/// Type a row's text using recognizers and gazetteers.
pub fn type_row(row: &Node) -> RowFields {
    let text = row.text_content();
    let toks = woc_textkit::tokenize::tokenize(&text);
    let spans = recognize::recognize_all_in(&toks, &text);
    let mut fields: Vec<(String, String)> = Vec::new();

    let mut first_span_start = text.len();
    for s in &spans {
        first_span_start = first_span_start.min(s.start);
        let field = match s.kind {
            FieldKind::Phone => "phone",
            FieldKind::Zip => "zip",
            FieldKind::Price => "price",
            FieldKind::Date => "date",
            FieldKind::Time => "time",
            FieldKind::StreetAddress => "street",
            FieldKind::City => "city",
            FieldKind::Cuisine => "cuisine",
            FieldKind::Email => "email",
            FieldKind::Url => "url",
        };
        fields.push((field.to_string(), s.text.clone()));
    }

    // Name heuristic: prefer the first anchor's text; else the text before
    // the first recognized span.
    let name = row
        .find_tag("a")
        .first()
        .map(|a| a.text_content())
        .filter(|t| !t.is_empty())
        .or_else(|| {
            let lead = text[..first_span_start]
                .trim()
                .trim_end_matches([',', '-', ':']);
            let lead = lead.trim();
            (!lead.is_empty() && lead.len() < 80).then(|| lead.to_string())
        });
    if let Some(n) = name {
        fields.insert(0, ("name".to_string(), n));
    }

    // Star ratings ("4 stars") and long review-like text.
    for w in toks.windows(2) {
        if w[0].kind == woc_textkit::tokenize::TokenKind::Number
            && w[0].text.len() == 1
            && w[1].lower() == "stars"
        {
            fields.push(("rating".to_string(), w[0].text.clone()));
        }
    }
    if text.len() > 80 {
        fields.push(("text".to_string(), text.clone()));
    }

    // Venue + year for citations (academic domain knowledge).
    for v in gazetteer::VENUES {
        if text.contains(v) {
            fields.push(("venue".to_string(), (*v).to_string()));
        }
    }
    for tok in &toks {
        if tok.kind == woc_textkit::tokenize::TokenKind::Number
            && tok.text.len() == 4
            && (tok.text.starts_with("19") || tok.text.starts_with("20"))
            && !spans
                .iter()
                .any(|s| tok.start >= s.start && tok.end <= s.end)
        {
            fields.push(("year".to_string(), tok.text.clone()));
        }
    }

    RowFields { fields }
}

/// Domain knowledge for recognizing lists of one concept.
#[derive(Debug, Clone)]
pub struct ConceptProfile {
    /// Concept name this profile emits.
    pub concept: String,
    /// Fields that must be present in a conforming row.
    pub required: Vec<&'static str>,
    /// Of these fields, at least `min_any` must be present (beyond required).
    pub any_of: Vec<&'static str>,
    /// How many of `any_of` are needed.
    pub min_any: usize,
    /// Statistical constraints: max occurrences of a field per row.
    pub max_per_row: Vec<(&'static str, usize)>,
    /// Fraction of conforming rows required to claim a list.
    pub accept_threshold: f64,
}

impl ConceptProfile {
    /// The restaurant-listing profile from the paper's running example.
    pub fn restaurant() -> Self {
        Self {
            concept: "restaurant".into(),
            required: vec!["name"],
            any_of: vec!["street", "zip", "phone", "city"],
            min_any: 2,
            // "a single zip code … one or two phone numbers"
            max_per_row: vec![("zip", 1), ("phone", 2), ("street", 1)],
            accept_threshold: 0.6,
        }
    }

    /// Menu items: a dish name and a price.
    pub fn menu_item() -> Self {
        Self {
            concept: "menu_item".into(),
            required: vec!["name", "price"],
            any_of: vec![],
            min_any: 0,
            max_per_row: vec![("price", 1), ("phone", 0), ("zip", 0)],
            accept_threshold: 0.7,
        }
    }

    /// Publications: venue + year (titles are refined by the sequence labeler).
    pub fn publication() -> Self {
        Self {
            concept: "publication".into(),
            required: vec!["venue", "year"],
            any_of: vec![],
            min_any: 0,
            max_per_row: vec![("phone", 0), ("price", 0)],
            accept_threshold: 0.7,
        }
    }

    /// Reviews: a star rating plus a long text body.
    pub fn review() -> Self {
        Self {
            concept: "review".into(),
            required: vec!["rating", "text"],
            any_of: vec![],
            min_any: 0,
            max_per_row: vec![("rating", 1), ("price", 0)],
            accept_threshold: 0.7,
        }
    }

    /// Events: a name and a date.
    pub fn event() -> Self {
        Self {
            concept: "event".into(),
            required: vec!["name", "date"],
            any_of: vec![],
            min_any: 0,
            max_per_row: vec![("date", 1), ("price", 1)],
            accept_threshold: 0.7,
        }
    }

    /// All built-in profiles.
    pub fn standard() -> Vec<ConceptProfile> {
        vec![
            Self::menu_item(),
            Self::publication(),
            Self::event(),
            Self::review(),
            Self::restaurant(),
        ]
    }

    /// Does a typed row conform to this profile?
    pub fn row_conforms(&self, row: &RowFields) -> bool {
        let count = |f: &str| row.fields.iter().filter(|(k, _)| k == f).count();
        if self.required.iter().any(|f| count(f) == 0) {
            return false;
        }
        let any = self.any_of.iter().filter(|f| count(f) > 0).count();
        if any < self.min_any {
            return false;
        }
        self.max_per_row.iter().all(|(f, max)| count(f) <= *max)
    }

    /// Fraction of rows conforming.
    pub fn score(&self, rows: &[RowFields]) -> f64 {
        if rows.is_empty() {
            return 0.0;
        }
        rows.iter().filter(|r| self.row_conforms(r)).count() as f64 / rows.len() as f64
    }

    /// Fields this profile keeps in emitted records.
    fn keep(&self) -> Vec<&'static str> {
        let mut k: Vec<&'static str> = self.required.clone();
        k.extend(self.any_of.iter().copied());
        match self.concept.as_str() {
            "publication" => k.extend(["name", "text"]),
            "event" => k.extend(["price", "city"]),
            "restaurant" => k.extend(["cuisine"]),
            "review" => k.extend(["name"]),
            _ => {}
        }
        k
    }
}

/// Rows a repeating region needs before a profile may extract a list from
/// it.
const LIST_MIN_ROWS: usize = 3;

/// Rows a repeating region needs before a profile's claim on it suppresses
/// detail extraction: even a two-row listing marks the page as a listing,
/// not a detail page.
const CLAIM_MIN_ROWS: usize = 2;

/// Extract a page's concept lists and the concepts its repeating regions
/// claim, from one region scan with every row typed once.
///
/// Exact against the two separate scans ([`extract_lists_reference`] and
/// [`claimed_concepts_reference`] at two rows): a scan advances past a run
/// whether or not the run is long enough, so the row minimum only filters
/// the runs, and the lists' regions are the claims' regions of at least
/// three rows, in the same order.
pub fn lists_and_claims(
    page: &Page,
    profiles: &[ConceptProfile],
) -> (Vec<ExtractedRecord>, Vec<String>) {
    let mut lists = Vec::new();
    let mut claimed = Vec::new();
    for region in repeating_regions(&page.dom, CLAIM_MIN_ROWS) {
        let typed: Vec<RowFields> = region.rows.iter().map(|r| type_row(r)).collect();
        claim_region(&typed, profiles, &mut claimed);
        if typed.len() >= LIST_MIN_ROWS {
            extract_region(page, &typed, profiles, &mut lists);
        }
    }
    debug_assert!(
        lists == extract_lists_reference(page, profiles)
            && claimed == claimed_concepts_reference(page, profiles, CLAIM_MIN_ROWS),
        "one region scan must extract and claim what two scans do on {}",
        page.url
    );
    (lists, claimed)
}

/// Concepts whose profile claims any repeating region of at least two rows
/// on the page — used to *suppress* detail extraction on listing pages.
pub fn claimed_concepts(page: &Page, profiles: &[ConceptProfile]) -> Vec<String> {
    lists_and_claims(page, profiles).1
}

/// Extract all concept lists from a page, completely unsupervised.
///
/// Every repeating region of at least three rows is typed and scored
/// against every profile; the best profile above its threshold claims the
/// region. Emits one record per conforming row.
pub fn extract_lists(page: &Page, profiles: &[ConceptProfile]) -> Vec<ExtractedRecord> {
    lists_and_claims(page, profiles).0
}

/// Add the concept of every profile that claims a typed region to
/// `claimed`, once each.
fn claim_region(typed: &[RowFields], profiles: &[ConceptProfile], claimed: &mut Vec<String>) {
    for p in profiles {
        if p.score(typed) >= p.accept_threshold && !claimed.contains(&p.concept) {
            claimed.push(p.concept.clone());
        }
    }
}

/// Emit a typed region's records under the best profile above its
/// threshold, if any.
fn extract_region(
    page: &Page,
    typed: &[RowFields],
    profiles: &[ConceptProfile],
    out: &mut Vec<ExtractedRecord>,
) {
    let best = profiles
        .iter()
        .map(|p| (p, p.score(typed)))
        .filter(|(p, s)| *s >= p.accept_threshold)
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let Some((profile, score)) = best else {
        return;
    };
    let keep = profile.keep();
    for row in typed.iter().filter(|r| profile.row_conforms(r)) {
        let mut fields: Vec<(String, String)> = Vec::new();
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for (k, v) in &row.fields {
            if !keep.contains(&k.as_str()) {
                continue;
            }
            let limit = profile
                .max_per_row
                .iter()
                .find(|(f, _)| f == k)
                .map(|(_, m)| *m)
                .unwrap_or(1);
            let c = counts.entry(k.as_str()).or_insert(0);
            if *c < limit.max(1) {
                fields.push((k.clone(), v.clone()));
                *c += 1;
            }
        }
        out.push(ExtractedRecord {
            concept: Some(profile.concept.clone()),
            fields,
            confidence: 0.55 + 0.4 * score,
            source_url: page.url.clone(),
        });
    }
}

/// The claims of [`lists_and_claims`] from a scan of their own, at any row
/// minimum. The oracle of the property tests and the debug-build shadow;
/// nothing else calls it.
pub fn claimed_concepts_reference(
    page: &Page,
    profiles: &[ConceptProfile],
    min_rows: usize,
) -> Vec<String> {
    let mut out = Vec::new();
    for region in repeating_regions_reference(&page.dom, min_rows) {
        let typed: Vec<RowFields> = region.rows.iter().map(|r| type_row(r)).collect();
        claim_region(&typed, profiles, &mut out);
    }
    out
}

/// The lists of [`lists_and_claims`] from a scan of their own. The oracle
/// of the property tests and the debug-build shadow; nothing else calls it.
pub fn extract_lists_reference(page: &Page, profiles: &[ConceptProfile]) -> Vec<ExtractedRecord> {
    let mut out = Vec::new();
    for region in repeating_regions_reference(&page.dom, LIST_MIN_ROWS) {
        let typed: Vec<RowFields> = region.rows.iter().map(|r| type_row(r)).collect();
        extract_region(page, &typed, profiles, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use woc_webgen::sites::{generate_corpus, CorpusConfig};
    use woc_webgen::{PageKind, World, WorldConfig};

    fn corpus() -> (World, woc_webgen::WebCorpus) {
        // Dense enough that category pages carry multi-row listings.
        let w = World::generate(WorldConfig {
            restaurants: 30,
            cities: 3,
            cuisines: 3,
            ..WorldConfig::tiny(101)
        });
        let c = generate_corpus(&w, &CorpusConfig::tiny(5));
        (w, c)
    }

    #[test]
    fn repeating_region_detection() {
        let dom = Node::elem("div").children([
            Node::elem("p").text_child("intro"),
            Node::elem("ul").children([
                Node::elem("li").child(Node::elem("span").text_child("a")),
                Node::elem("li").child(Node::elem("span").text_child("b")),
                Node::elem("li").child(Node::elem("span").text_child("c")),
            ]),
        ]);
        let regions = repeating_regions(&dom, 3);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].rows.len(), 3);
    }

    #[test]
    fn short_runs_ignored() {
        let dom = Node::elem("ul").children([
            Node::elem("li").text_child("a"),
            Node::elem("li").text_child("b"),
        ]);
        assert!(repeating_regions(&dom, 3).is_empty());
    }

    #[test]
    fn type_row_restaurant_like() {
        let row = Node::elem("li")
            .child(
                Node::elem("a")
                    .attr("href", "x")
                    .text_child("Gochi Fusion Tapas"),
            )
            .child(Node::text("19980 Homestead Rd, Cupertino 95014"))
            .child(Node::text("(408) 555-0134"));
        let typed = type_row(&row);
        let get = |f: &str| {
            typed
                .fields
                .iter()
                .find(|(k, _)| k == f)
                .map(|(_, v)| v.as_str())
        };
        assert_eq!(get("name"), Some("Gochi Fusion Tapas"));
        assert_eq!(get("street"), Some("19980 Homestead Rd"));
        assert_eq!(get("zip"), Some("95014"));
        assert!(get("phone").is_some());
        assert_eq!(get("city"), Some("Cupertino"));
    }

    #[test]
    fn menu_lists_extracted_from_unseen_sites() {
        let (w, c) = corpus();
        let profiles = ConceptProfile::standard();
        let mut tp = 0usize;
        let mut total_truth = 0usize;
        for page in c
            .pages()
            .iter()
            .filter(|p| p.truth.kind == PageKind::RestaurantMenu)
        {
            let recs = extract_lists(page, &profiles);
            let menu_recs: Vec<&ExtractedRecord> = recs
                .iter()
                .filter(|r| r.concept.as_deref() == Some("menu_item"))
                .collect();
            total_truth += page.truth.records.len();
            for tr in &page.truth.records {
                let name = tr.field("name").unwrap();
                if menu_recs.iter().any(|r| {
                    r.fields
                        .iter()
                        .any(|(k, v)| k == "name" && v.contains(name))
                }) {
                    tp += 1;
                }
            }
        }
        assert!(total_truth > 0);
        let recall = tp as f64 / total_truth as f64;
        assert!(
            recall > 0.7,
            "menu recall too low: {recall} ({tp}/{total_truth})"
        );
        let _ = w;
    }

    #[test]
    fn category_listings_extracted_as_restaurants() {
        let (_, c) = corpus();
        let profiles = ConceptProfile::standard();
        let mut found_any = false;
        for page in c
            .pages()
            .iter()
            .filter(|p| p.truth.kind == PageKind::AggregatorCategory)
        {
            let recs = extract_lists(page, &profiles);
            let rest: Vec<_> = recs
                .iter()
                .filter(|r| r.concept.as_deref() == Some("restaurant"))
                .collect();
            if page.truth.records.len() >= 3 {
                assert!(
                    !rest.is_empty(),
                    "restaurant list missed on {} ({} truth rows)",
                    page.url,
                    page.truth.records.len()
                );
                found_any = true;
                for r in rest {
                    let zips = r.fields.iter().filter(|(k, _)| k == "zip").count();
                    assert!(zips <= 1, "statistical constraint: at most one zip");
                }
            }
        }
        assert!(found_any, "no category page had >=3 rows");
    }

    #[test]
    fn no_lists_claimed_on_plain_articles() {
        let (_, c) = corpus();
        let profiles = ConceptProfile::standard();
        for page in c
            .pages()
            .iter()
            .filter(|p| p.truth.kind == PageKind::Article)
        {
            let recs = extract_lists(page, &profiles);
            assert!(
                recs.len() <= 1,
                "article {} should not yield record lists, got {}",
                page.url,
                recs.len()
            );
        }
    }

    #[test]
    fn profile_constraints_reject_overfull_rows() {
        let p = ConceptProfile::restaurant();
        let mut row = RowFields::default();
        row.fields.push(("name".into(), "X".into()));
        row.fields.push(("zip".into(), "95014".into()));
        row.fields.push(("phone".into(), "408-555-0000".into()));
        assert!(p.row_conforms(&row));
        row.fields.push(("zip".into(), "95015".into()));
        assert!(
            !p.row_conforms(&row),
            "two zips violate the paper's constraint"
        );
    }
}
