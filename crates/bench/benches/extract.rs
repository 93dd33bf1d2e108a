//! Microbenches: list extraction, wrapper application, sequence labeling.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use woc_extract::lists::{extract_lists, lists_and_claims, ConceptProfile};
use woc_extract::seqlabel::{example_from_segments, Labeler};
use woc_webgen::sites::academic::render_citation;
use woc_webgen::{generate_corpus, CorpusConfig, PageKind, World, WorldConfig};

fn bench_extract(c: &mut Criterion) {
    let world = World::generate(WorldConfig::tiny(78));
    let corpus = generate_corpus(&world, &CorpusConfig::tiny(78));
    let profiles = ConceptProfile::standard();
    let menu_page = corpus
        .pages()
        .iter()
        .find(|p| p.truth.kind == PageKind::RestaurantMenu)
        .unwrap();
    let biz_page = corpus
        .pages()
        .iter()
        .find(|p| p.truth.kind == PageKind::AggregatorBiz)
        .unwrap();

    c.bench_function("lists/extract_menu_page", |b| {
        b.iter(|| extract_lists(black_box(menu_page), &profiles))
    });
    c.bench_function("extract/lists_and_claims", |b| {
        b.iter(|| lists_and_claims(black_box(menu_page), &profiles))
    });
    c.bench_function("pipeline/extract_page_biz", |b| {
        b.iter(|| woc_core::extract_page(black_box(biz_page), &profiles))
    });

    // Sequence labeler decode throughput.
    let examples: Vec<_> = world
        .publications
        .iter()
        .map(|&p| {
            let cit = render_citation(&world, p, 0);
            example_from_segments(&cit.text, &cit.segments)
        })
        .collect();
    let model = Labeler::train(&examples, 5);
    let cit = render_citation(&world, world.publications[0], 0);
    c.bench_function("seqlabel/train_12_citations", |b| {
        b.iter(|| Labeler::train(black_box(&examples), 5))
    });
    c.bench_function("seqlabel/segment_citation", |b| {
        b.iter(|| model.segment(black_box(&cit.text)))
    });
}

criterion_group!(benches, bench_extract);
criterion_main!(benches);
