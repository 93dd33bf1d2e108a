//! The crawled web: a corpus of pages with URL and site indexes.
//!
//! ## Kept fingerprints
//!
//! A corpus keeps [`Page::fingerprint`] of each page it holds, in a slot
//! beside the page, taken the first time anyone asks
//! ([`WebCorpus::page_fingerprints`]). The slots rest on one invariant:
//! **a corpus never hands out `&mut Page`**. A page changes only by being
//! replaced through [`WebCorpus::add`], which empties its slot, or removed
//! through [`WebCorpus::remove`], which removes the slot with it; a clone
//! copies pages and slots together. So a filled slot is always the
//! fingerprint of the page beside it, and maintenance that is handed the
//! same corpus edited in place fingerprints only the pages that were
//! replaced. Any new way to mutate a held page must empty its slot.

use std::collections::{BTreeMap, HashMap};
use std::sync::OnceLock;

use crate::page::Page;

/// A web corpus — what a crawler would hand to the extraction pipeline.
#[derive(Debug, Clone, Default)]
pub struct WebCorpus {
    pages: Vec<Page>,
    /// `Page::fingerprint` of the page at the same position, once taken
    /// (see the module docs).
    kept: Vec<OnceLock<u64>>,
    by_url: HashMap<String, usize>,
    by_site: BTreeMap<String, Vec<usize>>,
}

impl WebCorpus {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a page. Re-adding a URL replaces the old page (a recrawl).
    pub fn add(&mut self, page: Page) {
        match self.by_url.get(&page.url) {
            Some(&i) => {
                // Recrawl: site index unchanged (site is derived from URL).
                // The kept fingerprint was the old page's.
                self.pages[i] = page;
                if let Some(slot) = self.kept.get_mut(i) {
                    slot.take();
                }
            }
            None => {
                let i = self.pages.len();
                self.by_url.insert(page.url.clone(), i);
                self.by_site.entry(page.site.clone()).or_default().push(i);
                self.pages.push(page);
                self.kept.push(OnceLock::new());
            }
        }
    }

    /// Look up a page by URL.
    pub fn get(&self, url: &str) -> Option<&Page> {
        self.by_url.get(url).map(|&i| &self.pages[i])
    }

    /// Remove a page by URL, preserving the insertion order of the rest —
    /// the streaming ingest path applies page removals this way so that a
    /// corpus maintained event-by-event stays order-identical (and thus
    /// doc-id-identical) to one regenerated from the final world. Returns
    /// the removed page, or `None` if the URL was never crawled.
    pub fn remove(&mut self, url: &str) -> Option<Page> {
        let i = self.by_url.remove(url)?;
        let page = self.pages.remove(i);
        self.kept.remove(i);
        // Every later page shifted down one slot; rebuild both indexes'
        // positions. (Removal is O(n); the streaming commit stage batches
        // removals per micro-epoch, and corpora are bounded by crawl size.)
        // woc-lint: allow(map-iter-order) — independent per-entry decrement; commutative.
        for idx in self.by_url.values_mut() {
            if *idx > i {
                *idx -= 1;
            }
        }
        let site_ids = self
            .by_site
            .get_mut(&page.site)
            .expect("invariant: every indexed page has a site bucket");
        site_ids.retain(|&p| p != i);
        if site_ids.is_empty() {
            self.by_site.remove(&page.site);
        }
        for ids in self.by_site.values_mut() {
            for idx in ids.iter_mut() {
                if *idx > i {
                    *idx -= 1;
                }
            }
        }
        Some(page)
    }

    /// All pages.
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// The content fingerprint of every page, in page order: each slot's
    /// kept value, taken now where the slot is empty. Equal to mapping
    /// [`Page::fingerprint`] over [`Self::pages`], without hashing a page
    /// this corpus has hashed before.
    pub fn page_fingerprints(&self) -> Vec<u64> {
        self.pages
            .iter()
            .zip(&self.kept)
            .map(|(page, slot)| {
                let fp = *slot.get_or_init(|| page.fingerprint());
                debug_assert_eq!(fp, page.fingerprint(), "stale slot for {}", page.url);
                fp
            })
            .collect()
    }

    /// Positions of the pages whose fingerprint this corpus has not taken
    /// yet: pages added or replaced since it last was.
    pub fn unfingerprinted(&self) -> Vec<usize> {
        self.kept
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.get().is_none())
            .map(|(i, _)| i)
            .collect()
    }

    /// The fingerprint kept for the page at `position`, taken now if its
    /// slot is empty — one entry of [`Self::page_fingerprints`], for a
    /// caller that fills the empty slots on several threads first.
    pub fn kept_fingerprint(&self, position: usize) -> Option<u64> {
        let page = self.pages.get(position)?;
        let slot = self.kept.get(position)?;
        Some(*slot.get_or_init(|| page.fingerprint()))
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Site names in deterministic order.
    pub fn sites(&self) -> Vec<&str> {
        self.by_site.keys().map(String::as_str).collect()
    }

    /// Pages of one site, in insertion order.
    pub fn pages_of_site(&self, site: &str) -> Vec<&Page> {
        self.by_site
            .get(site)
            .map(|ids| ids.iter().map(|&i| &self.pages[i]).collect())
            .unwrap_or_default()
    }

    /// The hyperlink graph: URL → outgoing in-corpus link URLs.
    ///
    /// Links pointing outside the corpus are dropped — crawlers only know
    /// about pages they fetched.
    pub fn link_graph(&self) -> HashMap<&str, Vec<&str>> {
        let mut g: HashMap<&str, Vec<&str>> = HashMap::new();
        for p in &self.pages {
            let outs: Vec<&str> = p
                .links()
                .into_iter()
                .filter_map(|u| self.by_url.get(&u).map(|&i| self.pages[i].url.as_str()))
                .collect();
            g.insert(p.url.as_str(), outs);
        }
        g
    }

    /// Merge another corpus into this one (recrawls replace).
    pub fn extend(&mut self, other: WebCorpus) {
        for p in other.pages {
            self.add(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Node;
    use crate::page::{PageKind, PageTruth};

    fn page(url: &str, link_to: Option<&str>) -> Page {
        let mut body = Node::elem("body");
        if let Some(l) = link_to {
            body = body.child(Node::elem("a").attr("href", l).text_child("x"));
        }
        Page {
            url: url.to_string(),
            site: crate::page::url_host(url).to_string(),
            title: String::new(),
            dom: Node::elem("html").child(body),
            truth: PageTruth {
                kind: PageKind::Article,
                about: None,
                records: vec![],
                mentions: vec![],
            },
        }
    }

    #[test]
    fn add_get_and_site_index() {
        let mut c = WebCorpus::new();
        c.add(page("http://a.example.com/1", None));
        c.add(page("http://a.example.com/2", None));
        c.add(page("http://b.example.com/1", None));
        assert_eq!(c.len(), 3);
        assert!(c.get("http://a.example.com/1").is_some());
        assert!(c.get("http://nope").is_none());
        assert_eq!(c.sites(), vec!["a.example.com", "b.example.com"]);
        assert_eq!(c.pages_of_site("a.example.com").len(), 2);
    }

    #[test]
    fn remove_preserves_order_and_indexes() {
        let mut c = WebCorpus::new();
        c.add(page("http://a.example.com/1", None));
        c.add(page("http://b.example.com/1", None));
        c.add(page("http://a.example.com/2", None));
        let removed = c.remove("http://b.example.com/1").expect("page present");
        assert_eq!(removed.url, "http://b.example.com/1");
        assert_eq!(c.len(), 2);
        assert!(c.remove("http://b.example.com/1").is_none());
        // Order of the survivors is untouched and lookups still resolve.
        let urls: Vec<&str> = c.pages().iter().map(|p| p.url.as_str()).collect();
        assert_eq!(
            urls,
            vec!["http://a.example.com/1", "http://a.example.com/2"]
        );
        assert_eq!(c.get("http://a.example.com/2").unwrap().url, urls[1]);
        assert_eq!(c.sites(), vec!["a.example.com"]);
        assert_eq!(c.pages_of_site("a.example.com").len(), 2);
        assert!(c.pages_of_site("b.example.com").is_empty());
    }

    #[test]
    fn recrawl_replaces() {
        let mut c = WebCorpus::new();
        c.add(page("http://a.example.com/1", None));
        c.add(page(
            "http://a.example.com/1",
            Some("http://a.example.com/2"),
        ));
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("http://a.example.com/1").unwrap().links().len(), 1);
    }

    /// A seeded add / replace / remove / clone / extend / sweep sequence
    /// against a model of which slots should be empty: a kept fingerprint is
    /// always the page's, and only replaced or new pages are ever hashed
    /// again.
    #[test]
    fn kept_fingerprints_track_every_mutation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut next = move |bound: usize| rng.random_range(0..bound);
        let url = |n: usize| format!("http://s{}.example.com/{n}", n % 3);
        let versioned = |n: usize, version: usize| {
            let target = format!("http://v.example.com/{version}");
            page(&url(n), Some(&target))
        };
        let mut corpus = WebCorpus::new();
        // The model: URL and whether its slot should be empty, in page order.
        let mut model: Vec<(String, bool)> = Vec::new();
        let upsert = |model: &mut Vec<(String, bool)>, u: String| match model
            .iter_mut()
            .find(|(known, _)| *known == u)
        {
            Some(entry) => entry.1 = true,
            None => model.push((u, true)),
        };
        for step in 0..400 {
            match next(6) {
                0 | 1 => {
                    let n = next(24);
                    corpus.add(versioned(n, step));
                    upsert(&mut model, url(n));
                }
                2 if !model.is_empty() => {
                    let (gone, _) = model.remove(next(model.len()));
                    assert!(corpus.remove(&gone).is_some());
                }
                3 => corpus = corpus.clone(),
                4 => {
                    let mut other = WebCorpus::new();
                    for _ in 0..next(4) {
                        let n = next(30);
                        other.add(versioned(n, step));
                        upsert(&mut model, url(n));
                    }
                    // `other` may have taken its own fingerprints; they stay
                    // behind with it.
                    other.page_fingerprints();
                    corpus.extend(other);
                }
                _ => {
                    let fresh: Vec<u64> = corpus.pages().iter().map(Page::fingerprint).collect();
                    assert_eq!(corpus.page_fingerprints(), fresh);
                    model.iter_mut().for_each(|entry| entry.1 = false);
                }
            }
            let urls: Vec<&str> = corpus.pages().iter().map(|p| p.url.as_str()).collect();
            let expected: Vec<&str> = model.iter().map(|(u, _)| u.as_str()).collect();
            assert_eq!(urls, expected, "step {step}");
            let empty: Vec<usize> = (0..model.len()).filter(|&i| model[i].1).collect();
            assert_eq!(corpus.unfingerprinted(), empty, "step {step}");
            for (i, p) in corpus.pages().iter().enumerate() {
                if !model[i].1 {
                    assert_eq!(corpus.kept_fingerprint(i), Some(p.fingerprint()));
                }
            }
        }
        assert_eq!(corpus.kept_fingerprint(corpus.len()), None);
    }

    #[test]
    fn link_graph_drops_external() {
        let mut c = WebCorpus::new();
        c.add(page(
            "http://a.example.com/1",
            Some("http://a.example.com/2"),
        ));
        c.add(page(
            "http://a.example.com/2",
            Some("http://external.example.org/"),
        ));
        let g = c.link_graph();
        assert_eq!(g["http://a.example.com/1"], vec!["http://a.example.com/2"]);
        assert!(g["http://a.example.com/2"].is_empty());
    }
}
