//! Pinned digest values. Stream cut points, shard assignment and every
//! byte-identity gate are functions of these hashes, so the one FNV-1a in
//! `woc-textkit` must keep producing the values the per-crate copies did.
//! The constants below were recorded from those copies.

use woc_audit::{stream_digest, PageChangeView};
use woc_index::{LrecIndex, MergePolicy, RecordChange, SegmentedLrecIndex};
use woc_lrec::{ConceptId, LrecId};
use woc_webgen::{Node, Page, PageKind, PageTruth};

fn toks(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn entries() -> Vec<(LrecId, ConceptId, Vec<String>)> {
    vec![
        (
            LrecId(1),
            ConceptId(0),
            toks(&["gochi", "japanese", "cupertino"]),
        ),
        (
            LrecId(2),
            ConceptId(0),
            toks(&["farolito", "mexican", "oakland"]),
        ),
        (LrecId(3), ConceptId(1), toks(&["sigmod", "2009", "pods"])),
    ]
}

#[test]
fn page_fingerprint_is_pinned() {
    let page = Page {
        url: "http://guide.example/dining/gochi.html".into(),
        site: "guide.example".into(),
        title: "Gochi — Cupertino".into(),
        dom: Node::elem("html").child(
            Node::elem("body")
                .class("biz")
                .child(Node::elem("h1").text_child("Gochi"))
                .child(
                    Node::elem("a")
                        .attr("href", "/dining/")
                        .text_child("more dining"),
                ),
        ),
        truth: PageTruth {
            kind: PageKind::Article,
            about: None,
            records: vec![],
            mentions: vec![],
        },
    };
    assert_eq!(page.fingerprint(), 0xed16_2590_1901_18ab);
}

#[test]
fn record_index_digests_are_pinned() {
    let mut flat = LrecIndex::new();
    for (id, concept, tokens) in entries() {
        flat.add_record_tokens(id, concept, &tokens);
    }
    assert_eq!(flat.digest(), 0x7ac7_6549_68ea_5128);
    assert_eq!(flat.scoring_stats().digest(), 0xffef_d7c8_ff89_a304);

    let mut seg = SegmentedLrecIndex::new(entries(), MergePolicy::default());
    assert_eq!(seg.digest(), 0xa420_3111_d36e_15f4);
    seg.apply_delta(&[
        RecordChange {
            id: LrecId(2),
            concept: ConceptId(0),
            old_tokens: None,
            new_tokens: Some(toks(&["farolito", "nuevo", "oakland"])),
        },
        RecordChange {
            id: LrecId(3),
            concept: ConceptId(1),
            old_tokens: None,
            new_tokens: None,
        },
    ]);
    assert_eq!(seg.digest(), 0x8e19_359f_2185_762c);
}

#[test]
fn stream_digest_is_pinned() {
    let changed = [
        PageChangeView {
            url: "http://b.example/2".into(),
            old_fp: Some(7),
            new_fp: None,
        },
        PageChangeView {
            url: "http://a.example/1".into(),
            old_fp: None,
            new_fp: Some(0xdead_beef),
        },
    ];
    assert_eq!(stream_digest(0, &[]), 0xa8c7_f832_281a_39c5);
    assert_eq!(
        stream_digest(0x1234_5678_9abc_def0, &changed),
        0xc02b_9fa0_4c17_fd6a
    );
}
