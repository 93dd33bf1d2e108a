//! Page evolution: template drift and world churn.
//!
//! Paper §7.3: "we must develop extraction techniques that work robustly in
//! the face of such change" — sites redesign their templates, restaurants
//! "close down, move to a new location, or change phone numbers". This module
//! provides both change processes:
//!
//! * [`drift_site`] applies a *site-wide* template mutation (scripts change
//!   once, affecting every page of the site uniformly) without touching the
//!   underlying content — the workload of the robust-wrapper experiment S1.
//! * [`churn_restaurants`] mutates the ground-truth world (phone/hours
//!   changes, closures) — the workload of the maintenance experiment S6.

// woc-lint: allow-file(panic-in-lib) — corpus evolution: unwraps are choose() over
// non-empty pools and child_nodes_mut() on elements built by this module.

use rand::rngs::StdRng;
use rand::seq::IndexedRandom;
use rand::{Rng, SeedableRng};

use woc_lrec::{AttrValue, LrecId, Provenance, Tick};

use crate::dom::Node;
use crate::page::Page;
use crate::world::World;

/// Intensity knobs for a template drift.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// Probability of inserting an extra wrapper `<div>` around the body's
    /// main children.
    pub wrapper_prob: f64,
    /// Probability of renaming every class (suffix change).
    pub rename_prob: f64,
    /// Probability of injecting an ad/banner div into the body.
    pub ad_prob: f64,
    /// Probability of wrapping text values in `<b>` (per site, applied to
    /// all field-value spans).
    pub bold_prob: f64,
}

impl DriftConfig {
    /// Mild drift: the kind of incremental redesign robust wrappers should
    /// survive.
    pub fn mild() -> Self {
        Self {
            wrapper_prob: 0.5,
            rename_prob: 0.3,
            ad_prob: 0.7,
            bold_prob: 0.2,
        }
    }

    /// Heavy drift: several simultaneous mutations.
    pub fn heavy() -> Self {
        Self {
            wrapper_prob: 0.9,
            rename_prob: 0.8,
            ad_prob: 0.9,
            bold_prob: 0.6,
        }
    }
}

/// The concrete mutations chosen for one site redesign.
#[derive(Debug, Clone, Default)]
pub struct DriftPlan {
    wrap_body: bool,
    class_suffix: Option<String>,
    ad_position: Option<usize>,
    bold_values: bool,
}

impl DriftPlan {
    /// Sample a plan from a config.
    pub fn sample(cfg: &DriftConfig, rng: &mut StdRng) -> DriftPlan {
        DriftPlan {
            wrap_body: rng.random_bool(cfg.wrapper_prob),
            class_suffix: rng
                .random_bool(cfg.rename_prob)
                .then(|| format!("-r{}", rng.random_range(2..9))),
            ad_position: rng.random_bool(cfg.ad_prob).then(|| rng.random_range(0..2)),
            bold_values: rng.random_bool(cfg.bold_prob),
        }
    }

    /// True if the plan changes nothing.
    pub fn is_noop(&self) -> bool {
        !self.wrap_body
            && self.class_suffix.is_none()
            && self.ad_position.is_none()
            && !self.bold_values
    }

    /// Apply the plan to one page's DOM.
    pub fn apply(&self, dom: &Node) -> Node {
        let mut dom = dom.clone();
        if let Some(suffix) = &self.class_suffix {
            rename_classes(&mut dom, suffix);
        }
        if self.bold_values {
            bold_value_spans(&mut dom);
        }
        if let Some(body) = find_body_mut(&mut dom) {
            if self.wrap_body {
                let children = std::mem::take(body.child_nodes_mut().unwrap());
                let wrapper = Node::elem("div").class("redesign-wrap").children(children);
                body.child_nodes_mut().unwrap().push(wrapper);
            }
            if let Some(pos) = self.ad_position {
                let ad = Node::elem("div").class("ad-banner").child(
                    Node::elem("a")
                        .attr("href", "http://ads.example.net/click")
                        .text_child("Sponsored: limited time offer"),
                );
                let kids = body.child_nodes_mut().unwrap();
                let pos = pos.min(kids.len());
                kids.insert(pos, ad);
            }
        }
        dom
    }
}

fn find_body_mut(dom: &mut Node) -> Option<&mut Node> {
    if dom.tag() == Some("body") {
        return Some(dom);
    }
    if let Node::Element { children, .. } = dom {
        for c in children {
            if let Some(b) = find_body_mut(c) {
                return Some(b);
            }
        }
    }
    None
}

fn rename_classes(node: &mut Node, suffix: &str) {
    if let Node::Element {
        attrs, children, ..
    } = node
    {
        if let Some(c) = attrs.get_mut("class") {
            *c = format!("{c}{suffix}");
        }
        for ch in children {
            rename_classes(ch, suffix);
        }
    }
}

fn bold_value_spans(node: &mut Node) {
    if let Node::Element {
        tag,
        attrs,
        children,
    } = node
    {
        let is_value_span = tag == "span" && attrs.get("class").is_some_and(|c| c.ends_with("-v"));
        if is_value_span {
            let inner = std::mem::take(children);
            children.push(Node::elem("b").children(inner));
            return;
        }
        for ch in children {
            bold_value_spans(ch);
        }
    }
}

/// Redesign a whole site: sample one [`DriftPlan`] and apply it to every
/// page. Ground truth is untouched — only presentation changes.
pub fn drift_site(pages: &[Page], cfg: &DriftConfig, seed: u64) -> (Vec<Page>, DriftPlan) {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = DriftPlan::sample(cfg, &mut rng);
    let drifted = pages
        .iter()
        .map(|p| Page {
            dom: plan.apply(&p.dom),
            ..p.clone()
        })
        .collect();
    (drifted, plan)
}

/// A world-churn event (what changed in reality between crawls).
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEvent {
    /// A restaurant's phone number changed.
    PhoneChanged(LrecId, String),
    /// A restaurant's hours changed.
    HoursChanged(LrecId, String),
    /// A restaurant closed (record retracted from ground truth).
    Closed(LrecId),
}

impl ChurnEvent {
    /// The affected entity.
    pub fn entity(&self) -> LrecId {
        match self {
            ChurnEvent::PhoneChanged(id, _)
            | ChurnEvent::HoursChanged(id, _)
            | ChurnEvent::Closed(id) => *id,
        }
    }
}

/// Mutate a fraction `rate` of the restaurants still open at `tick`.
/// Closures are kept rare (a tenth of churn events) so the corpus keeps most
/// of its pages; a restaurant an earlier round closed is never rolled again.
pub fn churn_restaurants(world: &mut World, rate: f64, tick: Tick, seed: u64) -> Vec<ChurnEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut events = Vec::new();
    let ids: Vec<LrecId> = world
        .restaurants
        .iter()
        .copied()
        .filter(|&id| world.store.resolve(id) == Some(id))
        .collect();
    for id in ids {
        if !rng.random_bool(rate.clamp(0.0, 1.0)) {
            continue;
        }
        let roll = rng.random_range(0..10);
        if roll == 0 {
            if world.store.retract(id).is_ok() {
                events.push(ChurnEvent::Closed(id));
            }
        } else if roll < 6 {
            let new_phone = format!(
                "{}555{:04}",
                ["408", "650", "415", "312"].choose(&mut rng).unwrap(),
                rng.random_range(0..10000)
            );
            world
                .store
                .update(id, tick, |r| {
                    // Replace the primary phone but keep any secondary one:
                    // the *number of* phones stays stable, so page rendering
                    // consumes the same randomness and only genuinely
                    // affected pages change between crawls.
                    let rest: Vec<AttrValue> = r
                        .get("phone")
                        .iter()
                        .skip(1)
                        .map(|e| e.value.clone())
                        .collect();
                    r.set(
                        "phone",
                        AttrValue::Phone(new_phone.clone()),
                        Provenance::ground_truth(tick),
                    );
                    for v in rest {
                        r.add("phone", v, Provenance::ground_truth(tick));
                    }
                })
                .expect("churn update");
            events.push(ChurnEvent::PhoneChanged(id, new_phone));
        } else {
            let open = rng.random_range(7..12);
            let close = rng.random_range(20..24) - 12;
            let new_hours = format!("{open}am - {close}pm");
            world
                .store
                .update(id, tick, |r| {
                    r.set(
                        "hours",
                        AttrValue::Text(new_hours.clone()),
                        Provenance::ground_truth(tick),
                    );
                })
                .expect("churn update");
            events.push(ChurnEvent::HoursChanged(id, new_hours));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{generate_corpus, CorpusConfig};
    use crate::world::{World, WorldConfig};

    #[test]
    fn drift_preserves_text_content_modulo_ads() {
        let w = World::generate(WorldConfig::tiny(81));
        let c = generate_corpus(&w, &CorpusConfig::tiny(1));
        let site_pages: Vec<Page> = c
            .pages_of_site("localreviews.example.com")
            .into_iter()
            .cloned()
            .collect();
        let (drifted, plan) = drift_site(&site_pages, &DriftConfig::heavy(), 7);
        assert!(!plan.is_noop());
        for (old, new) in site_pages.iter().zip(&drifted) {
            let old_text = old.text();
            let new_text = new.text();
            // All original content survives the redesign.
            for token in old_text.split(' ').take(30) {
                assert!(new_text.contains(token), "lost content token {token:?}");
            }
            assert_eq!(old.truth, new.truth, "truth is untouched by drift");
        }
    }

    #[test]
    fn drift_changes_structure() {
        let w = World::generate(WorldConfig::tiny(82));
        let c = generate_corpus(&w, &CorpusConfig::tiny(2));
        let site_pages: Vec<Page> = c
            .pages_of_site("localreviews.example.com")
            .into_iter()
            .cloned()
            .collect();
        let (drifted, plan) = drift_site(&site_pages, &DriftConfig::heavy(), 3);
        assert!(!plan.is_noop());
        let changed = site_pages
            .iter()
            .zip(&drifted)
            .filter(|(a, b)| a.dom != b.dom)
            .count();
        assert_eq!(
            changed,
            site_pages.len(),
            "site-wide redesign hits every page"
        );
    }

    #[test]
    fn drift_plan_deterministic() {
        let w = World::generate(WorldConfig::tiny(83));
        let c = generate_corpus(&w, &CorpusConfig::tiny(3));
        let pages: Vec<Page> = c
            .pages_of_site("upcoming.example.com")
            .into_iter()
            .cloned()
            .collect();
        let (a, _) = drift_site(&pages, &DriftConfig::mild(), 99);
        let (b, _) = drift_site(&pages, &DriftConfig::mild(), 99);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_changes_fraction_of_world() {
        let mut w = World::generate(WorldConfig::tiny(84));
        let phones = |w: &World, r| -> Vec<String> {
            w.rec(r)
                .get("phone")
                .iter()
                .map(|e| e.value.display_string())
                .collect()
        };
        let before: Vec<Vec<String>> = w.restaurants.iter().map(|&r| phones(&w, r)).collect();
        let events = churn_restaurants(&mut w, 0.5, Tick(10), 5);
        assert!(!events.is_empty());
        assert!(events.len() <= w.restaurants.len());
        for e in &events {
            if let ChurnEvent::PhoneChanged(id, new_phone) = e {
                let i = w.restaurants.iter().position(|r| r == id).unwrap();
                let now = phones(&w, *id);
                assert_ne!(now, before[i], "phone list must change");
                assert_eq!(now.len(), before[i].len(), "phone count preserved");
                let formatted = woc_lrec::AttrValue::Phone(new_phone.clone()).display_string();
                assert!(now.contains(&formatted), "new phone present");
            }
        }
    }

    #[test]
    fn churn_survives_many_rounds_on_one_world() {
        let mut w = World::generate(WorldConfig::tiny(84));
        let mut closed: Vec<LrecId> = Vec::new();
        for round in 0..12u64 {
            for e in churn_restaurants(&mut w, 0.5, Tick(10 + round), round) {
                assert!(
                    !closed.contains(&e.entity()),
                    "round {round} re-rolled closed restaurant {:?}",
                    e.entity()
                );
                if let ChurnEvent::Closed(id) = e {
                    closed.push(id);
                }
            }
        }
        assert!(
            !closed.is_empty(),
            "twelve rounds at 0.5 must close something"
        );
    }

    /// Restricting the roll to open restaurants moves no RNG draw while
    /// nothing is closed: the first round's events are pinned.
    #[test]
    fn churn_first_round_is_pinned() {
        let mut w = World::generate(WorldConfig::tiny(84));
        let events = churn_restaurants(&mut w, 0.5, Tick(10), 5);
        assert_eq!(
            events,
            vec![
                ChurnEvent::HoursChanged(LrecId(0), "7am - 8pm".to_string()),
                ChurnEvent::Closed(LrecId(25)),
                ChurnEvent::PhoneChanged(LrecId(72), "3125557354".to_string()),
            ]
        );
    }

    #[test]
    fn churn_zero_rate_is_noop() {
        let mut w = World::generate(WorldConfig::tiny(85));
        let events = churn_restaurants(&mut w, 0.0, Tick(10), 5);
        assert!(events.is_empty());
    }
}
