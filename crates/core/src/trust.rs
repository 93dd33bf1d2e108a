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

/// Prior trust assigned to every site before iteration.
const PRIOR: f64 = 0.5;

/// Weight of the evidence term in the trust update; `1 - DAMPING` stays on
/// the prior, which keeps single-iteration swings bounded.
const DAMPING: f64 = 0.8;

/// Convergence threshold on the max per-site trust delta.
pub const EPSILON: f64 = 1e-9;

/// Sites with converged trust below this are content-quarantined.
const QUARANTINE_THRESHOLD: f64 = 0.5;

/// Minimum judgeable claims before a site can be quarantined — a site
/// judged on one or two facts stays at whatever trust it earned but is
/// never scrubbed on that little evidence.
const MIN_CLAIMS: usize = 3;

/// Concepts whose records contribute claims. Restricted to concepts whose
/// records carry a usable `(name, city)` identity; reviews and menu items
/// pool badly (shared names, no identity) and would only add noise.
pub(crate) const TRUST_CONCEPTS: &[&str] = &["restaurant"];

/// Trust-model configuration: the iteration cap, the one fixpoint setting
/// a caller varies (the property tests raise it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrustConfig {
    /// Iteration cap (the fixpoint must converge within this bound).
    pub max_iters: usize,
}

impl Default for TrustConfig {
    fn default() -> Self {
        Self { max_iters: 128 }
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    ///
    /// Each claim's site is looked up once, not once per claim per
    /// iteration: the same arithmetic in the same order as
    /// [`Self::compute_reference`].
    pub fn compute(claims: Vec<Claim>, config: &TrustConfig) -> TrustModel {
        #[cfg(debug_assertions)]
        let shadow = Self::compute_reference(claims.clone(), config);
        let claims = canonicalize(claims);
        let facts = facts_of(&claims);
        let (site_trust, claim_counts) = sites_of(&claims, &facts);
        let sites: Vec<&str> = site_trust.keys().map(String::as_str).collect();
        // Each claim's confidence with its site's position.
        let claimants: Vec<(f64, usize)> = claims
            .iter()
            .map(|c| {
                let pos = sites
                    .binary_search(&c.site.as_str())
                    .expect("invariant: every claim's site is a site");
                (c.confidence, pos)
            })
            .collect();
        let mut scores: Vec<f64> = Vec::new();
        let fixpoint = iterate(sites.len(), config, |trust, sum, cnt| {
            for fact in facts.iter().filter(|f| judgeable(f)) {
                // Group score: noisy-or of confidence × trust.
                scores.clear();
                scores.extend(fact.iter().map(|g| {
                    let mut not = 1.0f64;
                    for &(confidence, pos) in g.iter().filter_map(|&ci| claimants.get(ci)) {
                        let t = trust.get(pos).copied().unwrap_or_default();
                        not *= 1.0 - (confidence * t).clamp(0.0, 1.0);
                    }
                    1.0 - not
                }));
                for (gi, (g, s)) in fact.iter().zip(&scores).enumerate() {
                    let p = group_probability(*s, &scores, gi);
                    for &(_, pos) in g.iter().filter_map(|&ci| claimants.get(ci)) {
                        if let (Some(sum), Some(cnt)) = (sum.get_mut(pos), cnt.get_mut(pos)) {
                            *sum += p;
                            *cnt += 1;
                        }
                    }
                }
            }
        });
        let model = converged_model(config, claims, site_trust, claim_counts, fixpoint);
        #[cfg(debug_assertions)]
        debug_assert!(
            model.claims == shadow.claims
                && model
                    .site_trust
                    .values()
                    .map(|t| t.to_bits())
                    .eq(shadow.site_trust.values().map(|t| t.to_bits()))
                && model
                    .curve
                    .iter()
                    .map(|d| d.to_bits())
                    .eq(shadow.curve.iter().map(|d| d.to_bits()))
                && model.quarantined == shadow.quarantined,
            "the indexed fixpoint must equal the reference bit for bit"
        );
        model
    }

    /// [`Self::compute`] as first written: [`canonicalize_reference`], and
    /// two ordered-map lookups per claim per iteration. The oracle of the
    /// property tests and the debug-build shadow; nothing else calls it.
    pub fn compute_reference(claims: Vec<Claim>, config: &TrustConfig) -> TrustModel {
        let claims = canonicalize_reference(claims);
        let facts = facts_of(&claims);
        let (site_trust, claim_counts) = sites_of(&claims, &facts);
        let site_pos: BTreeMap<&str, usize> = site_trust
            .keys()
            .enumerate()
            .map(|(i, s)| (s.as_str(), i))
            .collect();
        let fixpoint = iterate(site_pos.len(), config, |trust, sum, cnt| {
            for fact in facts.iter().filter(|f| judgeable(f)) {
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
                for (gi, (g, s)) in fact.iter().zip(&scores).enumerate() {
                    let p = group_probability(*s, &scores, gi);
                    for &ci in g {
                        let pos = site_pos[claims[ci].site.as_str()];
                        sum[pos] += p;
                        cnt[pos] += 1;
                    }
                }
            }
        });
        converged_model(config, claims, site_trust, claim_counts, fixpoint)
    }

    /// Trust of a site (prior for sites the model never saw).
    pub fn trust_of(&self, site: &str) -> f64 {
        self.site_trust.get(site).copied().unwrap_or(PRIOR)
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

/// Facts: canonical claims grouped per `(pool, attr)`, then by denotation
/// within. `facts[f]` holds claim indices per denotation group of fact `f`.
fn facts_of(claims: &[Claim]) -> Vec<Vec<Vec<usize>>> {
    let mut facts: Vec<Vec<Vec<usize>>> = Vec::new();
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
    facts
}

/// A fact is judgeable when at least two sites weighed in: contested
/// (≥ 2 denotation groups) or corroborated (one group, ≥ 2 sites).
/// Sole-claimant facts carry no reliability signal either way.
fn judgeable(fact: &[Vec<usize>]) -> bool {
    fact.len() >= 2 || fact.first().is_some_and(|g| g.len() >= 2)
}

/// Every site that claimed anything, at prior trust, and its judgeable
/// claim count.
fn sites_of(
    claims: &[Claim],
    facts: &[Vec<Vec<usize>>],
) -> (BTreeMap<String, f64>, BTreeMap<String, usize>) {
    let mut site_trust: BTreeMap<String, f64> = BTreeMap::new();
    let mut claim_counts: BTreeMap<String, usize> = BTreeMap::new();
    for c in claims {
        if !site_trust.contains_key(&c.site) {
            site_trust.insert(c.site.clone(), PRIOR);
            claim_counts.insert(c.site.clone(), 0);
        }
    }
    for fact in facts.iter().filter(|f| judgeable(f)) {
        for g in fact {
            for &ci in g {
                *claim_counts
                    .get_mut(&claims[ci].site)
                    .expect("invariant: every claim's site has a count row") += 1;
            }
        }
    }
    (site_trust, claim_counts)
}

/// Best-rival, winner-take-most normalization of group `gi`'s score `s`:
/// each group is scored against the strongest competing group only, and
/// squaring sharpens the gap. Summing over all rivals instead would dilute
/// a corroborated honest win in proportion to how many independent lies
/// happen to be in the race.
fn group_probability(s: f64, scores: &[f64], gi: usize) -> f64 {
    let rival = scores
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != gi)
        .map(|(_, r)| *r)
        .fold(0.0f64, f64::max);
    let denom = s * s + rival * rival;
    if denom > 0.0 {
        s * s / denom
    } else {
        0.0
    }
}

/// Where the fixpoint stopped.
struct Fixpoint {
    /// Per-site trust, in site order.
    trust: Vec<f64>,
    /// Max per-site trust delta per iteration.
    curve: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// Iterate the damped trust update over `sites` sites from the prior until
/// the max delta falls below epsilon or the cap is reached. `evidence`
/// adds each judgeable claim's group probability and a count to its site's
/// row of the zeroed `sum` and `cnt`, given the current trust.
fn iterate(
    sites: usize,
    config: &TrustConfig,
    mut evidence: impl FnMut(&[f64], &mut [f64], &mut [usize]),
) -> Fixpoint {
    let mut trust = vec![PRIOR; sites];
    let mut sum = vec![0.0f64; sites];
    let mut cnt = vec![0usize; sites];
    let mut fixpoint = Fixpoint {
        trust: Vec::new(),
        curve: Vec::new(),
        iterations: 0,
        converged: false,
    };
    for _ in 0..config.max_iters {
        fixpoint.iterations += 1;
        sum.fill(0.0);
        cnt.fill(0);
        evidence(&trust, &mut sum, &mut cnt);
        let mut delta = 0.0f64;
        for ((t, &sum), &cnt) in trust.iter_mut().zip(&sum).zip(&cnt) {
            let evidence = if cnt > 0 { sum / cnt as f64 } else { PRIOR };
            let next = DAMPING * evidence + (1.0 - DAMPING) * PRIOR;
            delta = delta.max((next - *t).abs());
            *t = next;
        }
        fixpoint.curve.push(delta);
        if delta < EPSILON {
            fixpoint.converged = true;
            break;
        }
    }
    fixpoint.trust = trust;
    fixpoint
}

/// The converged model: trust written back per site, and the quarantine
/// decided on it.
fn converged_model(
    config: &TrustConfig,
    claims: Vec<Claim>,
    mut site_trust: BTreeMap<String, f64>,
    claim_counts: BTreeMap<String, usize>,
    fixpoint: Fixpoint,
) -> TrustModel {
    for (t, converged) in site_trust.values_mut().zip(fixpoint.trust) {
        *t = converged;
    }
    let quarantined: Vec<(String, String)> = site_trust
        .iter()
        .filter(|(site, t)| **t < QUARANTINE_THRESHOLD && claim_counts[*site] >= MIN_CLAIMS)
        .map(|(site, t)| {
            (
                site.clone(),
                format!("trust {t:.2} < {QUARANTINE_THRESHOLD:.2}"),
            )
        })
        .collect();
    TrustModel {
        config: config.clone(),
        site_trust,
        claim_counts,
        claims,
        quarantined,
        curve: fixpoint.curve,
        iterations: fixpoint.iterations,
        converged: fixpoint.converged,
        selections: Vec::new(),
        exclusions: Vec::new(),
    }
}

/// Sort claims canonically and deduplicate: one claim per
/// `(pool, attr, site, denotation)`, keeping the highest confidence — a site
/// repeating itself across its own pages is self-citation, not
/// corroboration.
///
/// Each claim's display string is rendered once, and the stable sort keys
/// on `(pool, attr, site, display)` — the reference's key without its
/// repeated `site`, so the same order. In that order every earlier claim
/// sharing a claim's `(pool, attr, site)` lies in the trailing run of the
/// output that shares it, so the duplicate search reads only that run.
pub fn canonicalize(claims: Vec<Claim>) -> Vec<Claim> {
    let mut keyed: Vec<(String, Claim)> = claims
        .into_iter()
        .map(|c| (c.value.display_string(), c))
        .collect();
    keyed.sort_by(|(da, a), (db, b)| {
        (&a.pool, &a.attr, &a.site, da).cmp(&(&b.pool, &b.attr, &b.site, db))
    });
    let mut out: Vec<Claim> = Vec::with_capacity(keyed.len());
    // Start of the trailing run of `out` sharing the current claim's
    // `(pool, attr, site)`.
    let mut run = 0;
    for (_, c) in keyed {
        if out
            .last()
            .is_some_and(|p| (&p.pool, &p.attr, &p.site) != (&c.pool, &c.attr, &c.site))
        {
            run = out.len();
        }
        let same = out
            .iter_mut()
            .skip(run)
            .find(|p| p.value.same_denotation(&c.value));
        match same {
            Some(prev) => {
                if c.confidence > prev.confidence {
                    prev.confidence = c.confidence;
                }
            }
            None => out.push(c),
        }
    }
    out
}

/// [`canonicalize`] as first written: display strings rendered per sort
/// comparison, and the whole output searched for every claim. The oracle
/// of the property tests and the debug-build shadow; nothing else calls it.
pub fn canonicalize_reference(mut claims: Vec<Claim>) -> Vec<Claim> {
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
        let m = TrustModel::compute(cs, &TrustConfig::default());
        assert!((m.trust_of("blog.example.com") - PRIOR).abs() < 1e-9);
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
            m.curve.last().copied().unwrap_or(1.0) < EPSILON,
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
