//! Source reliability: a TruthFinder-style trust fixpoint over site claims.
//!
//! The web of concepts is built from exactly the long-tail sources Dalvi et
//! al. document as noisy — and nothing stops a spam farm from asserting
//! wrong attribute values with perfect markup. Majority vote fails as soon
//! as coordinated sites outnumber honest ones, so reconciliation needs a
//! *source reliability* signal: sites that assert facts corroborated by
//! reliable sites are reliable, and facts asserted by reliable sites are
//! probably true. That circular definition is resolved as an iterative
//! fixpoint (Yin, Han & Yu's TruthFinder, adapted to the claim structure
//! here):
//!
//! 1. every site starts at a prior trust;
//! 2. claims about the same entity pool by `(concept, name, city)`; within a
//!    pool and attribute, claims group by denotation;
//! 3. a group's score is a noisy-or of `confidence × trust` over its
//!    claimants, turned into a probability against the *strongest rival*
//!    group of the same fact (squared, winner-take-most). Best-rival
//!    normalization matters: a corroborated honest group must not see its
//!    win diluted by however many independent lies are in the race;
//! 4. a site's new trust is the damped mean group-probability of its claims
//!    over **judgeable** facts only: facts that are contested, or
//!    corroborated by at least two sites (an unrivaled corroborated group
//!    wins outright). A value asserted by a single site and disputed by
//!    nobody carries no reliability information, and excluding those keeps
//!    innocent sites with unique content (blogs, niche pages) at prior
//!    trust instead of free-riding — while a noisy-but-honest aggregator
//!    still gets credit for everything it corroborates;
//! 5. iterate until the max trust delta is below epsilon.
//!
//! Sites whose converged trust falls below the quarantine threshold (and
//! that asserted enough contested claims to be judged at all) are
//! content-quarantined: their records are scrubbed before entity resolution,
//! which is how reliability feeds *merge* decisions, and their claims weigh
//! zero in reconciliation, which is how it feeds *value selection*. The
//! continuous scores are recorded in [`woc_lrec::SiteSupport`] stamps so
//! every live value can explain who supported it and how trusted they were.
//!
//! Everything iterates over sorted structures (`BTreeMap`, canonically
//! sorted claim lists), so the fixpoint is bitwise deterministic and
//! independent of thread count and site visit order by construction.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use woc_lrec::{AttrValue, LrecId, SiteSupport};
use woc_textkit::Fnv1a;

/// Trust-model configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrustConfig {
    /// Run the trust stage at all (ablation flag).
    pub enabled: bool,
    /// Prior trust assigned to every site before iteration.
    pub prior: f64,
    /// Weight of the evidence term in the trust update; `1 - damping` stays
    /// on the prior, which keeps single-iteration swings bounded.
    pub damping: f64,
    /// Convergence threshold on the max per-site trust delta.
    pub epsilon: f64,
    /// Iteration cap (the fixpoint must converge within this bound).
    pub max_iters: usize,
    /// Sites with converged trust below this are content-quarantined.
    pub quarantine_threshold: f64,
    /// Minimum judgeable claims before a site can be quarantined — a site
    /// judged on one or two facts stays at whatever trust it earned but is
    /// never scrubbed on that little evidence.
    pub min_claims: usize,
    /// Concepts whose records contribute claims. Restricted to concepts
    /// whose records carry a usable `(name, city)` identity; reviews and
    /// menu items pool badly (shared names, no identity) and would only add
    /// noise.
    pub concepts: Vec<String>,
}

impl Default for TrustConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            prior: 0.5,
            damping: 0.8,
            epsilon: 1e-9,
            max_iters: 128,
            quarantine_threshold: 0.5,
            min_claims: 3,
            concepts: vec!["restaurant".to_string()],
        }
    }
}

/// One claim: `site` asserts that the entity pooled under `pool` has
/// `attr = value`, with the extractor's confidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Claim {
    /// Asserting site (hostname).
    pub site: String,
    /// Entity pool key: `concept|normalized name|normalized city`.
    pub pool: String,
    /// Attribute key.
    pub attr: String,
    /// The asserted value.
    pub value: AttrValue,
    /// Extraction confidence of the assertion.
    pub confidence: f64,
}

/// One reconciliation decision made under the trust model: which value won
/// an attribute of a live record, and which sites supported it at what
/// trust. Audit check W016 replays these against the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Selection {
    /// The record reconciled.
    pub record: LrecId,
    /// The attribute.
    pub attr: String,
    /// Pool key of the record at selection time (audit must not re-derive
    /// it from the post-reconcile record, whose name may have changed).
    pub pool: String,
    /// Display string of the winning value.
    pub value: String,
    /// Sites supporting the winner, with their trust at selection time.
    pub support: Vec<SiteSupport>,
}

/// A value group suppressed because every site supporting it was
/// content-quarantined — the explicit "below-trust-threshold exclusion"
/// that explains any divergence from a clean-corpus build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exclusion {
    /// The record reconciled.
    pub record: LrecId,
    /// The attribute.
    pub attr: String,
    /// Display string of the excluded value.
    pub value: String,
    /// The quarantined sites that asserted it.
    pub sites: Vec<String>,
}

/// The converged source-reliability model.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrustModel {
    /// Configuration the fixpoint ran with.
    pub config: TrustConfig,
    /// Converged per-site trust.
    pub site_trust: BTreeMap<String, f64>,
    /// Judgeable claims per site — claims on facts with at least two
    /// claimants (the denominator of the trust update, and the evidence
    /// floor for quarantine).
    pub claim_counts: BTreeMap<String, usize>,
    /// The deduplicated claims the fixpoint ran over, in canonical order —
    /// kept so the fixpoint is recomputable (audit W016) and incremental
    /// maintenance can replay it.
    pub claims: Vec<Claim>,
    /// Sites quarantined for low trust, as `(site, reason)`, sorted.
    pub quarantined: Vec<(String, String)>,
    /// Max per-site trust delta per iteration — the convergence curve.
    pub curve: Vec<f64>,
    /// Iterations run.
    pub iterations: usize,
    /// Whether the fixpoint converged within `max_iters`.
    pub converged: bool,
    /// Reconciliation decisions made under this model (filled during the
    /// reconcile stage, not by [`TrustModel::compute`]).
    pub selections: Vec<Selection>,
    /// Value groups excluded for quarantined-only support.
    pub exclusions: Vec<Exclusion>,
}

impl TrustModel {
    /// Run the fixpoint over a claim set.
    pub fn compute(claims: Vec<Claim>, config: &TrustConfig) -> TrustModel {
        let claims = canonicalize(claims);
        // Facts: claims grouped per (pool, attr), then by denotation within.
        // `facts[f]` holds claim indices per denotation group of fact `f`.
        let mut facts: Vec<Vec<Vec<usize>>> = Vec::new();
        {
            let mut i = 0;
            while i < claims.len() {
                let j = claims[i..]
                    .iter()
                    .position(|c| (c.pool.as_str(), c.attr.as_str()) != key(&claims[i]))
                    .map(|p| i + p)
                    .unwrap_or(claims.len());
                let mut groups: Vec<Vec<usize>> = Vec::new();
                for k in i..j {
                    match groups
                        .iter_mut()
                        .find(|g| claims[g[0]].value.same_denotation(&claims[k].value))
                    {
                        Some(g) => g.push(k),
                        None => groups.push(vec![k]),
                    }
                }
                facts.push(groups);
                i = j;
            }
        }

        // A fact is judgeable when at least two sites weighed in: contested
        // (≥ 2 denotation groups) or corroborated (one group, ≥ 2 sites).
        // Sole-claimant facts carry no reliability signal either way.
        let judgeable = |f: &&Vec<Vec<usize>>| f.len() >= 2 || f[0].len() >= 2;

        // Judgeable claims per site; sites with any claim at all get a row.
        let mut site_trust: BTreeMap<String, f64> = BTreeMap::new();
        let mut claim_counts: BTreeMap<String, usize> = BTreeMap::new();
        for c in &claims {
            site_trust.entry(c.site.clone()).or_insert(config.prior);
            claim_counts.entry(c.site.clone()).or_insert(0);
        }
        for fact in facts.iter().filter(judgeable) {
            for g in fact {
                for &ci in g {
                    *claim_counts
                        .get_mut(&claims[ci].site)
                        .expect("invariant: every claim's site has a count row") += 1;
                }
            }
        }

        let mut curve = Vec::new();
        let mut converged = false;
        let mut iterations = 0;
        // Per-site accumulators, keyed in site_trust's (sorted) order.
        let sites: Vec<String> = site_trust.keys().cloned().collect();
        let site_pos: BTreeMap<&str, usize> = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let mut trust: Vec<f64> = sites.iter().map(|_| config.prior).collect();
        for _ in 0..config.max_iters {
            iterations += 1;
            let mut sum = vec![0.0f64; trust.len()];
            let mut cnt = vec![0usize; trust.len()];
            for fact in facts.iter().filter(judgeable) {
                // Group score: noisy-or of confidence × trust.
                let scores: Vec<f64> = fact
                    .iter()
                    .map(|g| {
                        let mut not = 1.0f64;
                        for &ci in g {
                            let t = trust[site_pos[claims[ci].site.as_str()]];
                            not *= 1.0 - (claims[ci].confidence * t).clamp(0.0, 1.0);
                        }
                        1.0 - not
                    })
                    .collect();
                // Best-rival, winner-take-most normalization: each group is
                // scored against the strongest competing group only, and
                // squaring sharpens the gap. Summing over all rivals instead
                // would dilute a corroborated honest win in proportion to how
                // many independent lies happen to be in the race.
                for (gi, (g, s)) in fact.iter().zip(&scores).enumerate() {
                    let rival = scores
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != gi)
                        .map(|(_, r)| *r)
                        .fold(0.0f64, f64::max);
                    let denom = s * s + rival * rival;
                    let p = if denom > 0.0 { s * s / denom } else { 0.0 };
                    for &ci in g {
                        let pos = site_pos[claims[ci].site.as_str()];
                        sum[pos] += p;
                        cnt[pos] += 1;
                    }
                }
            }
            let mut delta = 0.0f64;
            for i in 0..trust.len() {
                let evidence = if cnt[i] > 0 {
                    sum[i] / cnt[i] as f64
                } else {
                    config.prior
                };
                let next = config.damping * evidence + (1.0 - config.damping) * config.prior;
                delta = delta.max((next - trust[i]).abs());
                trust[i] = next;
            }
            curve.push(delta);
            if delta < config.epsilon {
                converged = true;
                break;
            }
        }
        for (i, s) in sites.iter().enumerate() {
            *site_trust
                .get_mut(s)
                .expect("invariant: sites enumerate site_trust keys") = trust[i];
        }

        let quarantined: Vec<(String, String)> = site_trust
            .iter()
            .filter(|(site, t)| {
                **t < config.quarantine_threshold && claim_counts[*site] >= config.min_claims
            })
            .map(|(site, t)| {
                (
                    site.clone(),
                    format!("trust {:.2} < {:.2}", t, config.quarantine_threshold),
                )
            })
            .collect();

        TrustModel {
            config: config.clone(),
            site_trust,
            claim_counts,
            claims,
            quarantined,
            curve,
            iterations,
            converged,
            selections: Vec::new(),
            exclusions: Vec::new(),
        }
    }

    /// Trust of a site (prior for sites the model never saw).
    pub fn trust_of(&self, site: &str) -> f64 {
        self.site_trust
            .get(site)
            .copied()
            .unwrap_or(self.config.prior)
    }

    /// True when the model content-quarantined the site.
    pub fn is_quarantined(&self, site: &str) -> bool {
        self.quarantined.iter().any(|(s, _)| s == site)
    }

    /// Selection weight of a site: its confidence multiplier in
    /// reconciliation. Thresholded, not continuous — a quarantined site's
    /// assertions weigh zero, everyone else weighs their extraction
    /// confidence — so serving output is bitwise stable under spam-ratio
    /// changes (small trust drifts must not flip honest-vs-honest ties).
    pub fn selection_weight(&self, site: &str) -> f64 {
        if self.is_quarantined(site) {
            0.0
        } else {
            1.0
        }
    }

    /// Digest of the model state that canonical snapshots hash: converged
    /// trust, quarantine set and claim set, FNV-1a over a length-prefixed
    /// encoding.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for (site, t) in &self.site_trust {
            h.framed_str(site);
            h.framed_str(&format!("{t:.12}"));
        }
        for (site, reason) in &self.quarantined {
            h.framed_str(site);
            h.framed_str(reason);
        }
        for c in &self.claims {
            h.framed_str(&c.site);
            h.framed_str(&c.pool);
            h.framed_str(&c.attr);
            h.framed_str(&c.value.display_string());
            h.framed_str(&format!("{:.12}", c.confidence));
        }
        h.u64(self.selections.len() as u64);
        h.finish()
    }
}

fn key(c: &Claim) -> (&str, &str) {
    (c.pool.as_str(), c.attr.as_str())
}

/// Sort claims canonically and deduplicate: one claim per
/// `(pool, attr, site, denotation)`, keeping the highest confidence — a site
/// repeating itself across its own pages is self-citation, not
/// corroboration.
fn canonicalize(mut claims: Vec<Claim>) -> Vec<Claim> {
    claims.sort_by(|a, b| {
        (&a.pool, &a.attr, &a.site, a.value.display_string(), &a.site).cmp(&(
            &b.pool,
            &b.attr,
            &b.site,
            b.value.display_string(),
            &b.site,
        ))
    });
    let mut out: Vec<Claim> = Vec::with_capacity(claims.len());
    for c in claims {
        if let Some(prev) = out.iter_mut().find(|p| {
            p.pool == c.pool
                && p.attr == c.attr
                && p.site == c.site
                && p.value.same_denotation(&c.value)
        }) {
            if c.confidence > prev.confidence {
                prev.confidence = c.confidence;
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Pool key for a record identity: `concept|normalized name|normalized
/// city`. Shared by claim collection (pipeline), reconciliation and audit so
/// all three agree on what "the same fact" means.
pub fn pool_key(concept: &str, name: &str, city: &str) -> String {
    use woc_textkit::tokenize::normalize;
    format!("{concept}|{}|{}", normalize(name), normalize(city))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(site: &str, pool: &str, attr: &str, value: &str, conf: f64) -> Claim {
        Claim {
            site: site.to_string(),
            pool: pool.to_string(),
            attr: attr.to_string(),
            value: AttrValue::Text(value.to_string()),
            confidence: conf,
        }
    }

    /// Three honest sites corroborate; one liar contradicts on every fact.
    fn contested_claims() -> Vec<Claim> {
        let mut cs = Vec::new();
        for pool in ["r|gochi|cupertino", "r|zeni|san jose", "r|sino|san jose"] {
            for site in ["a.example.com", "b.example.com", "c.example.com"] {
                cs.push(claim(site, pool, "phone", "4085550134", 0.75));
            }
            cs.push(claim("liar.example.net", pool, "phone", "9995550000", 0.75));
        }
        cs
    }

    #[test]
    fn fixpoint_separates_honest_from_liar() {
        let m = TrustModel::compute(contested_claims(), &TrustConfig::default());
        assert!(m.converged, "must converge: curve {:?}", m.curve);
        let honest = m.trust_of("a.example.com");
        let liar = m.trust_of("liar.example.net");
        assert!(
            honest > liar + 0.2,
            "honest {honest} must clearly beat liar {liar}"
        );
        assert!(m.is_quarantined("liar.example.net"), "liar trust {liar}");
        assert!(!m.is_quarantined("a.example.com"));
        assert_eq!(m.selection_weight("liar.example.net"), 0.0);
        assert_eq!(m.selection_weight("a.example.com"), 1.0);
        assert_eq!(m.selection_weight("never-seen.example.com"), 1.0);
    }

    #[test]
    fn uncontested_claims_carry_no_signal() {
        // A site asserting facts nobody disputes stays at prior trust and
        // can never be quarantined, however few or many claims it has.
        let mut cs = contested_claims();
        for i in 0..5 {
            cs.push(claim(
                "blog.example.com",
                &format!("r|unique-{i}|nowhere"),
                "phone",
                "1112223333",
                0.75,
            ));
        }
        let cfg = TrustConfig::default();
        let m = TrustModel::compute(cs, &cfg);
        assert!((m.trust_of("blog.example.com") - cfg.prior).abs() < 1e-9);
        assert_eq!(m.claim_counts["blog.example.com"], 0, "contested only");
        assert!(!m.is_quarantined("blog.example.com"));
    }

    #[test]
    fn min_claims_floor_blocks_thin_quarantine() {
        // A liar on a single contested fact earns low trust but is not
        // quarantined: one fact is not enough evidence to scrub a site.
        let mut cs = Vec::new();
        for site in ["a.example.com", "b.example.com", "c.example.com"] {
            cs.push(claim(
                site,
                "r|gochi|cupertino",
                "phone",
                "4085550134",
                0.75,
            ));
        }
        cs.push(claim(
            "thin.example.net",
            "r|gochi|cupertino",
            "phone",
            "9995550000",
            0.75,
        ));
        let m = TrustModel::compute(cs, &TrustConfig::default());
        assert!(m.trust_of("thin.example.net") < m.trust_of("a.example.com"));
        assert_eq!(m.claim_counts["thin.example.net"], 1);
        assert!(
            !m.is_quarantined("thin.example.net"),
            "below min_claims floor"
        );
    }

    #[test]
    fn deterministic_under_claim_permutation() {
        let cs = contested_claims();
        let a = TrustModel::compute(cs.clone(), &TrustConfig::default());
        let mut rev = cs;
        rev.reverse();
        let b = TrustModel::compute(rev, &TrustConfig::default());
        assert_eq!(a.site_trust, b.site_trust, "bitwise equal trust");
        assert_eq!(a.claims, b.claims, "canonical claim order");
        assert_eq!(a.curve, b.curve);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn self_citation_deduplicated() {
        // One site repeating a claim on 10 pages counts once.
        let mut cs = contested_claims();
        for _ in 0..10 {
            cs.push(claim(
                "liar.example.net",
                "r|gochi|cupertino",
                "phone",
                "9995550000",
                0.6,
            ));
        }
        let m = TrustModel::compute(cs.clone(), &TrustConfig::default());
        let liar_claims = m
            .claims
            .iter()
            .filter(|c| c.site == "liar.example.net" && c.pool == "r|gochi|cupertino")
            .count();
        assert_eq!(liar_claims, 1, "deduped to one claim per denotation");
        // The kept claim carries the max confidence seen.
        let kept = m
            .claims
            .iter()
            .find(|c| c.site == "liar.example.net" && c.pool == "r|gochi|cupertino")
            .unwrap();
        assert!((kept.confidence - 0.75).abs() < 1e-12);
    }

    #[test]
    fn convergence_curve_is_monotonically_informative() {
        let m = TrustModel::compute(contested_claims(), &TrustConfig::default());
        assert_eq!(m.curve.len(), m.iterations);
        assert!(m.iterations <= TrustConfig::default().max_iters);
        assert!(
            m.curve.last().copied().unwrap_or(1.0) < TrustConfig::default().epsilon,
            "last delta below epsilon: {:?}",
            m.curve
        );
    }

    #[test]
    fn pool_key_normalizes() {
        assert_eq!(
            pool_key("restaurant", "Gochi", "Cupertino"),
            "restaurant|gochi|cupertino"
        );
    }
}
