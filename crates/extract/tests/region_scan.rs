//! One region scan per page: `lists_and_claims` equals the two separate
//! scans it replaced (`extract_lists_reference` and
//! `claimed_concepts_reference` at two rows) on every page of the tiny and
//! standard corpora, and on a page whose only listing has two rows.

use woc_extract::lists::{
    claimed_concepts_reference, extract_lists_reference, lists_and_claims, repeating_regions,
    repeating_regions_reference, ConceptProfile,
};
use woc_webgen::dom::Node;
use woc_webgen::{generate_corpus, CorpusConfig, Page, World, WorldConfig};

fn assert_one_scan_is_exact(pages: &[Page]) -> (usize, usize) {
    let profiles = ConceptProfile::standard();
    let (mut lists, mut claims) = (0, 0);
    for page in pages {
        let (l, c) = lists_and_claims(page, &profiles);
        assert_eq!(l, extract_lists_reference(page, &profiles), "{}", page.url);
        assert_eq!(
            c,
            claimed_concepts_reference(page, &profiles, 2),
            "{}",
            page.url
        );
        for min_rows in [2, 3] {
            let rows = |r: Vec<woc_extract::lists::RepeatingRegion<'_>>| {
                r.into_iter()
                    .map(|r| (r.parent, r.rows.len()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                rows(repeating_regions(&page.dom, min_rows)),
                rows(repeating_regions_reference(&page.dom, min_rows)),
                "{}",
                page.url
            );
        }
        lists += l.len();
        claims += c.len();
    }
    (lists, claims)
}

#[test]
fn one_scan_equals_two_on_the_tiny_corpus() {
    let world = World::generate(WorldConfig::tiny(7));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    let (lists, claims) = assert_one_scan_is_exact(corpus.pages());
    assert!(lists > 0 && claims > 0, "the fixture exercises both halves");
}

#[test]
fn one_scan_equals_two_on_the_standard_corpus() {
    let world = World::generate(WorldConfig::default());
    let corpus = generate_corpus(&world, &CorpusConfig::default());
    let (lists, claims) = assert_one_scan_is_exact(corpus.pages());
    assert!(lists > 0 && claims > 0, "the fixture exercises both halves");
}

#[test]
fn a_two_row_listing_is_claimed_but_not_extracted() {
    let row = |name: &str, phone: &str| {
        Node::elem("li")
            .child(Node::elem("a").attr("href", "x").text_child(name))
            .child(Node::text("19980 Homestead Rd, Cupertino 95014"))
            .child(Node::text(phone))
    };
    let dom = Node::elem("body").children([
        Node::elem("p").text_child("Two places we like"),
        Node::elem("ul").children([
            row("Gochi Fusion Tapas", "(408) 555-0134"),
            row("Zeni Ethiopian", "(408) 555-0199"),
        ]),
    ]);
    let world = World::generate(WorldConfig::tiny(7));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(7));
    let mut page = corpus.pages()[0].clone();
    page.dom = dom;
    let profiles = ConceptProfile::standard();
    let (lists, claims) = lists_and_claims(&page, &profiles);
    assert!(lists.is_empty(), "two rows are below the list minimum");
    assert_eq!(claims, vec!["restaurant".to_string()]);
    assert_one_scan_is_exact(&[page]);
}
