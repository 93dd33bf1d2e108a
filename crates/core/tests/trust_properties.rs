//! Property tests for the source-reliability fixpoint (`woc_core::trust`):
//! order independence, bounded convergence, monotonicity under added
//! corroboration, and stability of honestly-corroborated winners under
//! spam perturbation.

use proptest::prelude::*;
use woc_core::trust::{canonicalize, canonicalize_reference, EPSILON};
use woc_core::{Claim, TrustConfig, TrustModel};
use woc_lrec::AttrValue;

fn claim(site: &str, pool: &str, attr: &str, value: &str, confidence: f64) -> Claim {
    Claim {
        site: site.to_string(),
        pool: pool.to_string(),
        attr: attr.to_string(),
        value: AttrValue::Text(value.to_string()),
        confidence,
    }
}

/// A structured adversarial scenario: `honest` sites corroborate the truth
/// value `t{f}` of every fact, `spam` sites each assert a decorrelated lie.
fn scenario(honest: usize, spam: usize, facts: usize, hconf: f64, sconf: f64) -> Vec<Claim> {
    let mut claims = Vec::new();
    for f in 0..facts {
        let pool = format!("restaurant|r{f}|springfield");
        for h in 0..honest {
            claims.push(claim(
                &format!("honest-{h}.example.com"),
                &pool,
                "phone",
                &format!("t{f}"),
                hconf,
            ));
        }
        for s in 0..spam {
            claims.push(claim(
                &format!("spam-{s}.example.net"),
                &pool,
                "phone",
                &format!("lie-{s}-{f}"),
                sconf,
            ));
        }
    }
    claims
}

/// The winning denotation of a fact under a converged model: the group
/// with the strictly largest noisy-or of confidence × trust. The
/// best-rival normalization the fixpoint applies is monotone in the group
/// score, so the argmax is the same. Returns `None` on a tie.
fn winner(model: &TrustModel, pool: &str, attr: &str) -> Option<String> {
    let mut groups: Vec<(String, f64)> = Vec::new();
    for c in model
        .claims
        .iter()
        .filter(|c| c.pool == pool && c.attr == attr)
    {
        let v = c.value.display_string();
        let not = 1.0 - (c.confidence * model.trust_of(&c.site)).clamp(0.0, 1.0);
        match groups.iter_mut().find(|(g, _)| *g == v) {
            Some((_, s)) => *s = 1.0 - (1.0 - *s) * not,
            None => groups.push((v, 1.0 - not)),
        }
    }
    let best = groups
        .iter()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())?
        .clone();
    if groups.iter().any(|(g, s)| *g != best.0 && *s >= best.1) {
        return None;
    }
    Some(best.0)
}

/// Random claims over small site/pool/attr/value alphabets: the shape the
/// order- and convergence-laws must hold for unconditionally.
fn arb_claims() -> impl Strategy<Value = Vec<Claim>> {
    prop::collection::vec(
        (
            (0usize..6, 0usize..4),
            (0usize..3, 0usize..5, 0.05f64..0.95),
        ),
        1..60,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|((s, p), (a, v, conf))| {
                claim(
                    &format!("site-{s}.example.com"),
                    &format!("restaurant|r{p}|springfield"),
                    &format!("attr{a}"),
                    &format!("v{v}"),
                    conf,
                )
            })
            .collect()
    })
}

/// Values whose denotations coincide across kinds and spellings: a phone
/// as digits and as display text, one name padded and re-cased, one price
/// as cents and as text, one number as int and as float.
fn mixed_value(i: usize) -> AttrValue {
    match i % 12 {
        0 => AttrValue::Phone("4085550134".into()),
        1 => AttrValue::Text("(408) 555-0134".into()),
        2 => AttrValue::Text("408-555-0134".into()),
        3 => AttrValue::Text(" Gochi ".into()),
        4 => AttrValue::Text("gochi".into()),
        5 => AttrValue::Text("GOCHI".into()),
        6 => AttrValue::PriceCents(1295),
        7 => AttrValue::Text("$12.95".into()),
        8 => AttrValue::Int(4),
        9 => AttrValue::Float(4.0),
        10 => AttrValue::Text("zeni".into()),
        _ => AttrValue::Phone("4085550199".into()),
    }
}

/// Shuffled claims over small alphabets with same-denotation duplicates
/// whose display strings differ.
fn mixed_claims() -> impl Strategy<Value = Vec<Claim>> {
    prop::collection::vec(
        (
            (0usize..4, 0usize..3),
            (0usize..2, 0usize..12, 0.05f64..0.95),
            0u32..1_000_000,
        ),
        1..80,
    )
    .prop_map(|mut raw| {
        raw.sort_by_key(|r| r.2);
        raw.into_iter()
            .map(|((s, p), (a, v, conf), _)| Claim {
                site: format!("site-{s}.example.com"),
                pool: format!("restaurant|r{p}|springfield"),
                attr: format!("attr{a}"),
                value: mixed_value(v),
                confidence: conf,
            })
            .collect()
    })
}

/// A claim list's confidences as bits, to compare float fields exactly.
fn confidence_bits(claims: &[Claim]) -> Vec<u64> {
    claims.iter().map(|c| c.confidence.to_bits()).collect()
}

#[test]
fn canonicalize_keeps_one_claim_per_denotation_across_spellings() {
    let mut claims: Vec<Claim> = (0..12)
        .map(|v| Claim {
            site: "a.example.com".into(),
            pool: "restaurant|gochi|cupertino".into(),
            attr: "x".into(),
            value: mixed_value(v),
            confidence: 0.5 + v as f64 / 100.0,
        })
        .collect();
    claims.reverse();
    let out = canonicalize(claims.clone());
    assert_eq!(out, canonicalize_reference(claims));
    // The name's three spellings, the price's two and the number's two
    // collapse, and the phone digits fold into a phone text; the two phone
    // texts are different texts to each other.
    assert_eq!(out.len(), 7, "{out:?}");
}

proptest! {
    /// Claims rendered once sort and deduplicate exactly as the reference
    /// does, whatever order they arrive in.
    #[test]
    fn canonicalize_equals_its_reference(claims in mixed_claims()) {
        let out = canonicalize(claims.clone());
        let reference = canonicalize_reference(claims);
        prop_assert_eq!(confidence_bits(&out), confidence_bits(&reference));
        prop_assert_eq!(out, reference);
    }

    /// The indexed fixpoint with reused buffers is the reference fixpoint,
    /// bit for bit.
    #[test]
    fn compute_equals_its_reference_bit_for_bit(claims in mixed_claims(), spam in arb_claims()) {
        let cfg = TrustConfig::default();
        for claims in [claims, spam] {
            let model = TrustModel::compute(claims.clone(), &cfg);
            let reference = TrustModel::compute_reference(claims, &cfg);
            let bits = |m: &TrustModel| -> Vec<(String, u64)> {
                m.site_trust.iter().map(|(s, t)| (s.clone(), t.to_bits())).collect()
            };
            prop_assert_eq!(bits(&model), bits(&reference));
            let curve = |m: &TrustModel| -> Vec<u64> { m.curve.iter().map(|d| d.to_bits()).collect() };
            prop_assert_eq!(curve(&model), curve(&reference));
            prop_assert_eq!(&model.quarantined, &reference.quarantined);
            prop_assert_eq!(&model.claims, &reference.claims);
            prop_assert_eq!(&model.claim_counts, &reference.claim_counts);
            prop_assert_eq!(model.iterations, reference.iterations);
            prop_assert_eq!(model.digest(), reference.digest());
        }
    }

    /// The fixpoint never depends on the order claims arrive in: reversing
    /// or rotating the claim stream yields a bitwise-identical model.
    #[test]
    fn fixpoint_is_claim_order_independent(claims in arb_claims(), rot in 0usize..60) {
        let cfg = TrustConfig::default();
        let base = TrustModel::compute(claims.clone(), &cfg);

        let mut reversed = claims.clone();
        reversed.reverse();
        let rev = TrustModel::compute(reversed, &cfg);
        prop_assert_eq!(&base.site_trust, &rev.site_trust);
        prop_assert_eq!(&base.quarantined, &rev.quarantined);
        prop_assert_eq!(&base.curve, &rev.curve);
        prop_assert_eq!(base.digest(), rev.digest());

        let mut rotated = claims.clone();
        rotated.rotate_left(rot % claims.len().max(1));
        let rotd = TrustModel::compute(rotated, &cfg);
        prop_assert_eq!(&base.site_trust, &rotd.site_trust);
        prop_assert_eq!(base.digest(), rotd.digest());
    }

    /// Duplicated claims are canonicalized away: feeding every claim twice
    /// changes nothing.
    #[test]
    fn fixpoint_ignores_duplicate_claims(claims in arb_claims()) {
        let cfg = TrustConfig::default();
        let base = TrustModel::compute(claims.clone(), &cfg);
        let mut doubled = claims.clone();
        doubled.extend(claims);
        let dbl = TrustModel::compute(doubled, &cfg);
        prop_assert_eq!(&base.site_trust, &dbl.site_trust);
        prop_assert_eq!(base.digest(), dbl.digest());
    }

    /// The fixpoint converges within a bounded iteration count — the
    /// damped update contracts, so a 512-iteration budget always reaches
    /// epsilon even on adversarial random claim sets (the pipeline's
    /// default 128 covers its real, less contrived, claim pools) — and
    /// keeps every trust score inside [0, 1].
    #[test]
    fn fixpoint_converges_within_bounds(claims in arb_claims()) {
        let cfg = TrustConfig { max_iters: 512 };
        let m = TrustModel::compute(claims, &cfg);
        prop_assert!(m.converged, "no convergence in {} iterations (curve {:?})", m.iterations, m.curve);
        prop_assert!(m.iterations <= cfg.max_iters);
        prop_assert_eq!(m.curve.len(), m.iterations);
        prop_assert!(m.curve.last().copied().unwrap_or(0.0) < EPSILON);
        // Contraction, not oscillation: the tail of the curve keeps
        // shrinking relative to its start.
        if m.curve.len() >= 8 {
            let head = m.curve[..4].iter().cloned().fold(0.0f64, f64::max);
            let tail = m.curve[m.curve.len() - 4..].iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(tail <= head, "curve not contracting: head {head} tail {tail}");
        }
        for (site, t) in &m.site_trust {
            prop_assert!((0.0..=1.0).contains(t), "trust of {site} out of range: {t}");
        }
    }

    /// Adding one more honest site that corroborates the existing
    /// consensus never lowers any honest site's trust and never raises a
    /// lying site's trust.
    #[test]
    fn corroborating_site_is_monotone(
        honest in 2usize..5,
        spam in 1usize..4,
        facts in 2usize..6,
        hconf in 0.6f64..0.95,
        sconf in 0.5f64..0.95,
    ) {
        let cfg = TrustConfig::default();
        let base_claims = scenario(honest, spam, facts, hconf, sconf);
        let before = TrustModel::compute(base_claims.clone(), &cfg);

        let mut more = base_claims;
        for f in 0..facts {
            more.push(claim(
                "honest-new.example.com",
                &format!("restaurant|r{f}|springfield"),
                "phone",
                &format!("t{f}"),
                hconf,
            ));
        }
        let after = TrustModel::compute(more, &cfg);

        for h in 0..honest {
            let site = format!("honest-{h}.example.com");
            prop_assert!(
                after.trust_of(&site) >= before.trust_of(&site) - 1e-9,
                "corroboration lowered honest trust of {site}: {} -> {}",
                before.trust_of(&site),
                after.trust_of(&site)
            );
        }
        for s in 0..spam {
            let site = format!("spam-{s}.example.net");
            prop_assert!(
                after.trust_of(&site) <= before.trust_of(&site) + 1e-9,
                "corroboration raised spam trust of {site}: {} -> {}",
                before.trust_of(&site),
                after.trust_of(&site)
            );
        }
    }

    /// Perturbing a single value on a spam site — to anything, including
    /// the truth, another site's lie, or a fresh fabrication — never flips
    /// an honestly-corroborated winner.
    #[test]
    fn spam_perturbation_never_flips_corroborated_winner(
        honest in 2usize..5,
        spam in 1usize..4,
        facts in 2usize..6,
        hconf in 0.6f64..0.95,
        sconf in 0.5f64..0.95,
        which_site in 0usize..4,
        which_fact in 0usize..6,
        new_value in prop_oneof!["t0", "lie-0-0", "lie-1-1", "fresh-lie", "t1"],
    ) {
        let cfg = TrustConfig::default();
        let base_claims = scenario(honest, spam, facts, hconf, sconf);
        let before = TrustModel::compute(base_claims.clone(), &cfg);
        for f in 0..facts {
            let pool = format!("restaurant|r{f}|springfield");
            prop_assert_eq!(
                winner(&before, &pool, "phone").as_deref(),
                Some(format!("t{f}").as_str()),
                "corroborated truth must win before perturbation"
            );
        }

        let target_site = format!("spam-{}.example.net", which_site % spam);
        let target_pool = format!("restaurant|r{}|springfield", which_fact % facts);
        let mut perturbed = base_claims;
        let c = perturbed
            .iter_mut()
            .find(|c| c.site == target_site && c.pool == target_pool)
            .expect("scenario has a claim per (spam site, fact)");
        c.value = AttrValue::Text(new_value.to_string());

        let after = TrustModel::compute(perturbed, &cfg);
        for f in 0..facts {
            let pool = format!("restaurant|r{f}|springfield");
            prop_assert_eq!(
                winner(&after, &pool, "phone").as_deref(),
                Some(format!("t{f}").as_str()),
                "spam perturbation flipped the winner of fact {}",
                f
            );
        }
    }
}
