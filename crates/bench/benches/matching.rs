//! Microbenches: similarity scoring, blocking, resolution.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use woc_lrec::{AttrValue, ConceptId, Lrec, LrecId, Provenance, Tick};
use woc_matching::{
    candidate_pairs, resolve_collective, CollectiveConfig, FellegiSunter, GenerativeMatcher,
};

fn records(n: u64) -> Vec<Lrec> {
    (0..n)
        .map(|i| {
            let mut r = Lrec::new(LrecId(i), ConceptId(0));
            let p = Provenance::ground_truth(Tick(0));
            r.add(
                "name",
                AttrValue::Text(format!("Restaurant Number {}", i / 2)),
                p.clone(),
            );
            r.add(
                "zip",
                AttrValue::Zip(format!("95{:03}", i % 100)),
                p.clone(),
            );
            r.add(
                "phone",
                AttrValue::Phone(format!("408555{:04}", i / 2)),
                p.clone(),
            );
            r.add("city", AttrValue::Text("San Jose".into()), p);
            r
        })
        .collect()
}

/// Review-linking candidates: restaurants that share cities, cuisines and
/// dish words, so most review tokens are observed by several models.
fn restaurants(n: u64) -> Vec<Lrec> {
    const CITIES: [&str; 5] = ["San Jose", "Cupertino", "Austin", "Palo Alto", "Oakland"];
    const CUISINES: [&str; 6] = ["Thai", "Mexican", "Japanese", "Italian", "Indian", "Korean"];
    const DISHES: [&str; 7] = [
        "Green Curry",
        "Carnitas Burrito",
        "Tonkotsu Ramen",
        "Pad Thai",
        "Garlic Noodles",
        "Spicy Tuna Roll",
        "Lamb Vindaloo",
    ];
    (0..n)
        .map(|i| {
            let mut r = Lrec::new(LrecId(i), ConceptId(0));
            let p = Provenance::ground_truth(Tick(0));
            let pick =
                |from: &[&'static str], step: u64| from[((i * step) % from.len() as u64) as usize];
            r.add(
                "name",
                AttrValue::Text(format!("{} House {i}", pick(&CUISINES, 5))),
                p.clone(),
            );
            r.add("city", AttrValue::Text(pick(&CITIES, 3).into()), p.clone());
            r.add(
                "cuisine",
                AttrValue::Text(pick(&CUISINES, 1).into()),
                p.clone(),
            );
            for step in [1, 2] {
                r.add(
                    "dish",
                    AttrValue::Text(pick(&DISHES, step).into()),
                    p.clone(),
                );
            }
            r
        })
        .collect()
}

fn bench_matching(c: &mut Criterion) {
    let recs = records(200);
    let refs: Vec<&Lrec> = recs.iter().collect();
    let fs = FellegiSunter::restaurant_default();

    c.bench_function("matching/fs_score_pair", |b| {
        b.iter(|| fs.score(black_box(&recs[0]), black_box(&recs[1])))
    });
    // The same pair, each record prepared once: what stage C pays per
    // candidate pair once both records' names are keyed.
    let (pa, pb) = (fs.prepare(&recs[0]), fs.prepare(&recs[1]));
    c.bench_function("matching/fellegi_score_prepared", |b| {
        b.iter(|| fs.score_prepared(black_box(&pa), black_box(&pb)))
    });
    c.bench_function("matching/blocking_200_records", |b| {
        b.iter(|| candidate_pairs(black_box(&refs), 200))
    });
    let pairs = candidate_pairs(&refs, 200);
    c.bench_function("matching/score_all_candidates", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(i, j)| fs.score(&recs[i], &recs[j]))
                .sum::<f64>()
        })
    });

    let candidates = restaurants(50);
    let matcher = GenerativeMatcher::build(candidates.iter(), &[], 0.6);
    // 20 tokens: generic words no record observed, and words many did.
    let review = "the pad thai was amazing and the green curry at thai house 7 \
                  in austin is the best";
    c.bench_function("matching/generative_match_text", |b| {
        b.iter(|| matcher.match_text(black_box(review)))
    });

    // The 200 records' candidate pairs with their scores; records sharing
    // a zip are neighbours, so accepted pairs move later ones.
    let scored: Vec<(usize, usize, f64)> = pairs
        .iter()
        .map(|&(i, j)| (i, j, fs.score(&recs[i], &recs[j])))
        .collect();
    let neighbors: Vec<Vec<usize>> = (0..recs.len())
        .map(|i| {
            (0..recs.len())
                .filter(|&j| j != i && j % 100 == i % 100)
                .collect()
        })
        .collect();
    let config = CollectiveConfig {
        accept: fs.upper,
        relational_weight: 0.8,
        max_iters: 5,
    };
    c.bench_function("matching/resolve_collective", |b| {
        b.iter(|| resolve_collective(recs.len(), black_box(&scored), &neighbors, &config))
    });
}

criterion_group!(benches, bench_matching);
criterion_main!(benches);
