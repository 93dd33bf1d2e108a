//! Pages and their ground-truth annotations.

use serde::{Deserialize, Serialize};

use woc_lrec::{ConceptId, LrecId};
use woc_textkit::Fnv1a;

use crate::dom::Node;

/// What a page *is*, per ground truth. This is the label space for page
/// classification (paper §4.2 "Relational Classification") and the category
/// system behind the usage studies (§3: biz / search / category URLs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageKind {
    /// Aggregator page about one business (Yelp "biz" URL).
    AggregatorBiz,
    /// Aggregator search-results page.
    AggregatorSearch,
    /// Aggregator pre-defined category page (e.g. "San Jose Italian Restaurants").
    AggregatorCategory,
    /// Aggregator front page.
    AggregatorHome,
    /// A restaurant's own homepage.
    RestaurantHome,
    /// A restaurant's menu page.
    RestaurantMenu,
    /// A restaurant's location/directions page.
    RestaurantLocation,
    /// A restaurant's coupons page.
    RestaurantCoupons,
    /// A restaurant's careers page.
    RestaurantCareers,
    /// City-guide content page in a non-event category (hotels, dining, …).
    CityCategory,
    /// City-guide events page (the positive class of experiment S3).
    CityEvents,
    /// Researcher homepage with a publication list.
    AcademicHome,
    /// Venue page listing publications.
    VenuePage,
    /// Product detail page.
    ProductPage,
    /// Product category listing.
    ProductList,
    /// Event detail page on the events aggregator.
    EventPage,
    /// Event listing page.
    EventList,
    /// Blog/news article.
    Article,
    /// Adversarial business page (spam farm, clone, stale mirror, or
    /// conflicting-fact site) asserting perturbed attribute values.
    AdversarialBiz,
    /// Adversarial site front page.
    AdversarialHome,
}

impl PageKind {
    /// Usage-study click category for this page, when it lives on the local
    /// aggregator (paper §3: 59% biz, 19% search, 11% category). `None` for
    /// pages outside that taxonomy.
    pub fn click_category(&self) -> Option<&'static str> {
        match self {
            PageKind::AggregatorBiz => Some("biz"),
            PageKind::AggregatorSearch => Some("search"),
            PageKind::AggregatorCategory => Some("c"),
            _ => None,
        }
    }
}

/// One ground-truth record rendered on a page, with the attribute values
/// *as rendered* (extraction is scored against these strings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TruthRecord {
    /// The concept of the record.
    pub concept: ConceptId,
    /// The world entity this rendering is about.
    pub entity: LrecId,
    /// `(attribute, rendered value)` pairs present on the page.
    pub fields: Vec<(String, String)>,
}

impl TruthRecord {
    /// Value of a field, if rendered.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Ground-truth annotation of a page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PageTruth {
    /// The page's true kind.
    pub kind: PageKind,
    /// The single entity the page is about, when there is one.
    pub about: Option<LrecId>,
    /// All records rendered on the page (one for detail pages, many for lists).
    pub records: Vec<TruthRecord>,
    /// All entities *mentioned* in running text (for semantic linking).
    pub mentions: Vec<LrecId>,
}

/// A crawled page: URL, site, DOM, outgoing links and ground truth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Page {
    /// Absolute URL.
    pub url: String,
    /// Site (hostname) the page belongs to.
    pub site: String,
    /// Page title.
    pub title: String,
    /// The DOM.
    pub dom: Node,
    /// Ground-truth annotation (never shown to extractors; used for
    /// training-label simulation and evaluation only).
    pub truth: PageTruth,
}

impl Page {
    /// All outgoing link hrefs in document order.
    pub fn links(&self) -> Vec<String> {
        self.dom
            .walk()
            .into_iter()
            .filter_map(|(_, n)| n.get_attr("href"))
            .map(str::to_string)
            .collect()
    }

    /// Full visible text of the page.
    pub fn text(&self) -> String {
        self.dom.text_content()
    }

    /// The path component of the URL (after the host).
    pub fn path(&self) -> &str {
        url_path(&self.url)
    }

    /// The top-level directory of the URL path (e.g. `calendar` for
    /// `/calendar/show-1.html`) — the relational signal of experiment S3.
    pub fn directory(&self) -> &str {
        let p = self.path().trim_start_matches('/');
        match p.find('/') {
            Some(i) => &p[..i],
            None => "",
        }
    }

    /// The page as it would travel over the wire: the DOM rendered to HTML.
    /// This is the byte stream a fault-injection layer can damage before a
    /// crawler re-parses it with [`Self::with_html`].
    pub fn to_html(&self) -> String {
        self.dom.to_html()
    }

    /// Rebuild this page from (possibly damaged) HTML bytes: the DOM is
    /// re-parsed leniently ([`crate::parse_html`] never panics), while URL,
    /// site, title and ground truth are carried over — truth describes the
    /// world entity the page renders, which damage in transit does not
    /// change.
    pub fn with_html(&self, html: &str) -> Page {
        Page {
            url: self.url.clone(),
            site: self.site.clone(),
            title: self.title.clone(),
            dom: crate::parse_html(html),
            truth: self.truth.clone(),
        }
    }

    /// Stable content fingerprint of the page, the change-detection signal
    /// of incremental maintenance: two pages fingerprint equal iff their
    /// URL, site, title, and DOM are identical. Ground truth is excluded —
    /// the pipeline never reads it, so truth-only edits must not dirty a
    /// page. The value depends only on the page's own bytes (FNV-1a with
    /// the same constants as the index digests), so it is independent of
    /// thread count and visit order by construction. Every string is
    /// length-prefixed and every node/field carries a distinct marker byte,
    /// making the encoding injective: any single-byte difference anywhere
    /// in the hashed content feeds different bytes to the hash.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(&[0x01]);
        h.framed_str(&self.url);
        h.bytes(&[0x02]);
        h.framed_str(&self.site);
        h.bytes(&[0x03]);
        h.framed_str(&self.title);
        fingerprint_node(&self.dom, &mut h);
        h.finish()
    }
}

/// Hash one DOM subtree; each marker byte separates a field or node type.
fn fingerprint_node(node: &Node, h: &mut Fnv1a) {
    match node {
        Node::Element {
            tag,
            attrs,
            children,
        } => {
            h.bytes(&[0x04]);
            h.framed_str(tag);
            for (k, v) in attrs {
                // BTreeMap: attrs arrive in sorted, deterministic order.
                h.bytes(&[0x05]);
                h.framed_str(k);
                h.bytes(&[0x06]);
                h.framed_str(v);
            }
            h.bytes(&[0x07]);
            for c in children {
                fingerprint_node(c, h);
            }
            h.bytes(&[0x08]);
        }
        Node::Text(t) => {
            h.bytes(&[0x09]);
            h.framed_str(t);
        }
    }
}

/// Path component of an absolute URL (empty string if malformed).
pub fn url_path(url: &str) -> &str {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))
        .unwrap_or(url);
    match rest.find('/') {
        Some(i) => &rest[i..],
        None => "",
    }
}

/// Host component of an absolute URL.
pub fn url_host(url: &str) -> &str {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))
        .unwrap_or(url);
    match rest.find('/') {
        Some(i) => &rest[..i],
        None => rest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Node;

    fn page(url: &str) -> Page {
        Page {
            url: url.to_string(),
            site: url_host(url).to_string(),
            title: "t".into(),
            dom: Node::elem("html").child(
                Node::elem("a")
                    .attr("href", "http://x.example.com/a")
                    .text_child("link"),
            ),
            truth: PageTruth {
                kind: PageKind::Article,
                about: None,
                records: vec![],
                mentions: vec![],
            },
        }
    }

    #[test]
    fn url_helpers() {
        assert_eq!(url_host("http://a.example.com/x/y"), "a.example.com");
        assert_eq!(url_path("http://a.example.com/x/y"), "/x/y");
        assert_eq!(url_path("http://a.example.com"), "");
        assert_eq!(url_host("https://b.example.com/"), "b.example.com");
    }

    #[test]
    fn page_directory() {
        let p = page("http://sanjose.example.com/calendar/show-1.html");
        assert_eq!(p.directory(), "calendar");
        // A file at the root has no directory.
        let p = page("http://sanjose.example.com/index.html");
        assert_eq!(p.directory(), "");
    }

    #[test]
    fn links_extracted() {
        let p = page("http://a.example.com/");
        assert_eq!(p.links(), vec!["http://x.example.com/a"]);
    }

    #[test]
    fn click_categories() {
        assert_eq!(PageKind::AggregatorBiz.click_category(), Some("biz"));
        assert_eq!(PageKind::AggregatorSearch.click_category(), Some("search"));
        assert_eq!(PageKind::AggregatorCategory.click_category(), Some("c"));
        assert_eq!(PageKind::Article.click_category(), None);
    }

    #[test]
    fn fingerprint_is_deterministic_and_clone_stable() {
        let p = page("http://a.example.com/x");
        assert_eq!(p.fingerprint(), p.fingerprint());
        assert_eq!(p.fingerprint(), p.clone().fingerprint());
    }

    #[test]
    fn fingerprint_sensitive_to_every_hashed_field() {
        let base = page("http://a.example.com/x");
        let fp = base.fingerprint();

        let mut m = base.clone();
        m.url = "http://a.example.com/y".into();
        assert_ne!(m.fingerprint(), fp, "url change must dirty the page");

        let mut m = base.clone();
        m.title = "u".into();
        assert_ne!(m.fingerprint(), fp, "title change must dirty the page");

        let mut m = base.clone();
        m.dom = Node::elem("html").child(
            Node::elem("a")
                .attr("href", "http://x.example.com/a")
                .text_child("lino"),
        );
        assert_ne!(m.fingerprint(), fp, "text change must dirty the page");

        let mut m = base.clone();
        m.dom = Node::elem("html").child(
            Node::elem("a")
                .attr("href", "http://x.example.com/b")
                .text_child("link"),
        );
        assert_ne!(m.fingerprint(), fp, "attr change must dirty the page");
    }

    #[test]
    fn fingerprint_ignores_ground_truth() {
        let base = page("http://a.example.com/x");
        let mut m = base.clone();
        m.truth.kind = PageKind::CityEvents;
        m.truth.mentions.push(LrecId(42));
        assert_eq!(
            m.fingerprint(),
            base.fingerprint(),
            "truth is invisible to the pipeline and must not dirty pages"
        );
    }

    #[test]
    fn fingerprint_distinguishes_text_grouping() {
        // "ab"+"c" vs "a"+"bc" as sibling text nodes: same concatenated
        // text, different DOM — length prefixes keep the encoding injective.
        let mut a = page("http://a.example.com/x");
        a.dom = Node::elem("p").text_child("ab").text_child("c");
        let mut b = page("http://a.example.com/x");
        b.dom = Node::elem("p").text_child("a").text_child("bc");
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn truth_record_field_lookup() {
        let tr = TruthRecord {
            concept: woc_lrec::ConceptId(0),
            entity: woc_lrec::LrecId(1),
            fields: vec![("name".into(), "Gochi".into())],
        };
        assert_eq!(tr.field("name"), Some("Gochi"));
        assert_eq!(tr.field("zip"), None);
    }
}
