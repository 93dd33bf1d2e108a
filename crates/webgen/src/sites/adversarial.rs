//! Adversarial site profiles: the content-level attack surface.
//!
//! The chaos layer damages pages in *transit*; these sites damage the *facts*.
//! Four profiles, all rendered from the same ground-truth world and all
//! deterministic in the adversarial seed, so corpora are byte-identical
//! across runs and thread counts:
//!
//! * **SEO spam farms** — plausible business pages that keep the name/city
//!   honest (so their claims pool with the real entity) but fabricate phone,
//!   zip, hours and cuisine.
//! * **Scraped-and-mangled clones** — aggregator copies whose values got
//!   garbled in the scrape (street suffix swapped, phone digits rotated,
//!   off-by-rotation zips).
//! * **Stale mirrors** — snapshots frozen at an old tick: the restaurant
//!   has since moved, renumbered and changed hours, so the mirror asserts
//!   yesterday's values with full confidence.
//! * **Conflicting-fact sites** — keep the identity attributes honest but
//!   systematically flip specific contact/category attributes.
//!
//! The perturbations are pure functions of the true value and a per-site
//! salt (no RNG), so each site tells *its own* systematic lies and repeats
//! them verbatim on every one of its pages — self-consistent misinformation,
//! not white noise. Sites do **not** collude on wrong values: real farms
//! fabricate independently, and this is also the regime where a reliability
//! signal is recoverable at all — the honest web corroborates itself, each
//! liar's values stand alone, and a site caught lying wherever facts are
//! contested is downweighted everywhere. (A bloc of sites colluding
//! byte-for-byte and outnumbering every honest corroborator is
//! indistinguishable from a better-covered honest web without an external
//! anchor; no fixpoint can recover truth there.)

use rand::rngs::StdRng;

use woc_textkit::gazetteer::CUISINES;
use woc_textkit::Fnv1a;

use crate::dom::Node;
use crate::page::{Page, PageKind, PageTruth, TruthRecord};
use crate::sites::local::RestaurantView;
use crate::sites::style::SiteStyle;
use crate::world::World;

/// Adversarial corpus knobs. `site_ratio` is the target fraction of *sites*
/// (not pages) that are adversarial; `seed` drives only the adversarial
/// rendering, so the honest prefix of the corpus stays byte-identical to a
/// clean corpus generated with the same [`super::CorpusConfig`] seed.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialConfig {
    /// Target fraction of sites that are adversarial, in `[0, 1)`.
    pub site_ratio: f64,
    /// Seed for adversarial style/rendering randomness.
    pub seed: u64,
}

impl AdversarialConfig {
    /// Config for a spam ratio (`0.3` = 30% of sites are adversarial).
    pub fn at_ratio(site_ratio: f64, seed: u64) -> Self {
        Self { site_ratio, seed }
    }
}

/// The four attack profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialProfile {
    /// Coordinated SEO spam network fabricating attribute values.
    SpamFarm,
    /// Scraped aggregator copy with mangled values.
    MangledClone,
    /// Mirror frozen at an old tick, asserting outdated values.
    StaleMirror,
    /// Site that systematically flips specific attributes.
    ConflictingFacts,
}

impl AdversarialProfile {
    /// Short label used in hostnames and reports.
    pub fn label(self) -> &'static str {
        match self {
            AdversarialProfile::SpamFarm => "spam-farm",
            AdversarialProfile::MangledClone => "mangled-clone",
            AdversarialProfile::StaleMirror => "stale-mirror",
            AdversarialProfile::ConflictingFacts => "conflicting-facts",
        }
    }
}

/// One planned adversarial site.
#[derive(Debug, Clone)]
pub struct AdversarialSite {
    /// Hostname.
    pub host: String,
    /// Attack profile.
    pub profile: AdversarialProfile,
    /// Per-site perturbation salt: decorrelates the wrong values of sites
    /// sharing a profile while keeping each site internally consistent.
    pub salt: u64,
    /// Indices into `world.restaurants` this site renders pages about.
    pub coverage: Vec<usize>,
}

/// Plan the adversarial sites for a world: how many (from the ratio and the
/// honest site count), which profile each gets (round-robin), which host it
/// uses and which restaurants it covers. Pure — benches and audits call this
/// to recover the ground-truth list of adversarial hosts.
pub fn plan_sites(
    world: &World,
    honest_sites: usize,
    config: &AdversarialConfig,
) -> Vec<AdversarialSite> {
    let r = config.site_ratio.clamp(0.0, 0.95);
    if r <= 0.0 || honest_sites == 0 {
        return Vec::new();
    }
    let count = ((r / (1.0 - r)) * honest_sites as f64).round().max(1.0) as usize;
    let n = world.restaurants.len();
    (0..count)
        .map(|i| {
            let profile = match i % 4 {
                0 => AdversarialProfile::SpamFarm,
                1 => AdversarialProfile::MangledClone,
                2 => AdversarialProfile::StaleMirror,
                _ => AdversarialProfile::ConflictingFacts,
            };
            let host = match profile {
                AdversarialProfile::SpamFarm => format!("best-eats-{i:02}.spam.example.net"),
                AdversarialProfile::MangledClone => {
                    format!("reviews-scrape-{i:02}.clone.example.net")
                }
                AdversarialProfile::StaleMirror => format!("archive-{i:02}.wayback.example.net"),
                AdversarialProfile::ConflictingFacts => format!("factbook-{i:02}.example.net"),
            };
            // Mirrors snapshot everything; the others cover a deterministic
            // ~3/4 slice shifted per site so coverage overlaps but differs.
            let coverage: Vec<usize> = if profile == AdversarialProfile::StaleMirror {
                (0..n).collect()
            } else {
                (0..n).filter(|j| (j + i) % 4 != 3).collect()
            };
            AdversarialSite {
                host,
                profile,
                salt: i as u64,
                coverage,
            }
        })
        .collect()
}

/// Mix a per-site salt and a per-attribute base into a perturbation key
/// (FNV-1a), so distinct `(salt, base)` pairs yield unrelated digit
/// transforms instead of colliding modulo the rotation alphabet.
fn mix(salt: u64, base: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(salt);
    h.u64(base);
    h.finish()
}

/// Rotate every ASCII digit by a position-dependent amount in `1..=9`
/// derived from `key` — the shared perturbation primitive. Never reproduces
/// the input (each digit moves), keeps length and "looks like a phone/zip"
/// shape, and two sites with different keys virtually never agree on the
/// perturbed value.
fn rot_digits(s: &str, key: u64) -> String {
    let mut pos: u64 = 0;
    s.chars()
        .map(|c| {
            if c.is_ascii_digit() {
                let k = (1 + (key.rotate_left((pos as u32 % 8) * 8) ^ pos) % 9) as u8;
                pos += 1;
                char::from(b'0' + (c as u8 - b'0' + k) % 10)
            } else {
                c
            }
        })
        .collect()
}

/// Display a 10-digit phone in the fixed `(aaa) bbb-cccc` format.
fn show_phone(digits: &str) -> String {
    if digits.len() == 10 {
        format!("({}) {}-{}", &digits[0..3], &digits[3..6], &digits[6..10])
    } else {
        digits.to_string()
    }
}

/// Shift a cuisine `steps` positions along the gazetteer (wrapping), so the
/// flipped value is still a recognizable cuisine — plausible, just wrong.
fn shift_cuisine(cuisine: &str, steps: usize) -> String {
    let idx = CUISINES.iter().position(|c| *c == cuisine).unwrap_or(0);
    CUISINES[(idx + steps) % CUISINES.len()].to_string()
}

/// Swap the street suffix for another one in the pool ("Rd" → "Blvd"), so
/// the mangled street still parses as an address but denotes a different
/// one; `step` picks which wrong suffix (never 0 mod pool size).
fn swap_street_suffix(street: &str, step: usize) -> String {
    let suffixes = ["St", "Ave", "Rd", "Blvd", "Dr", "Ln"];
    let step = 1 + step % (suffixes.len() - 1);
    for (i, s) in suffixes.iter().enumerate() {
        if let Some(prefix) = street.strip_suffix(s) {
            return format!("{prefix}{}", suffixes[(i + step) % suffixes.len()]);
        }
    }
    format!("{street} Annex")
}

/// A wrong-but-plausible opening-hours string: picked from a fixed pool by
/// the perturbation key, skipping any entry equal to the true hours.
fn fake_hours(truth: &str, key: u64) -> String {
    let pool = [
        "6am - 11pm",
        "7am - 1pm",
        "8am - 5pm",
        "10am - 3pm",
        "9am - 2pm",
        "11am - 4pm",
        "7am - 9pm",
        "6am - 2pm",
        "5am - 12pm",
        "10am - 8pm",
        "11am - 11pm",
        "9am - 6pm",
    ];
    let mut i = (key as usize) % pool.len();
    if pool[i] == truth {
        i = (i + 1) % pool.len();
    }
    pool[i].to_string()
}

/// The rendered (adversarial) field values for one restaurant under one
/// profile and site salt. Pure function of `(profile, salt, truth)` — each
/// site's lies are systematic and self-consistent, but decorrelated from
/// other sites'.
#[derive(Debug, Clone)]
pub struct AdversarialFacts {
    /// Rendered name (always honest: the lie must pool with the entity).
    pub name: String,
    /// Street line, or `None` when the profile omits it.
    pub street: Option<String>,
    /// City (always honest).
    pub city: String,
    /// State (always honest).
    pub state: String,
    /// Zip.
    pub zip: String,
    /// 10-digit phone.
    pub phone: String,
    /// Opening hours.
    pub hours: String,
    /// Cuisine.
    pub cuisine: String,
    /// Rating line.
    pub rating: String,
}

/// Compute the facts a profile asserts about a restaurant. `salt` is the
/// site's perturbation salt from [`AdversarialSite::salt`].
pub fn facts_for(profile: AdversarialProfile, salt: u64, v: &RestaurantView) -> AdversarialFacts {
    let phone = v.phones.first().cloned().unwrap_or_default();
    // Per-attribute perturbation keys, mixed from the site salt.
    let rk = |base: u64| mix(salt, base);
    // Cuisine shift in 1..len-1, likewise salted.
    let ck = |base: u64| 1 + mix(salt, base) as usize % (CUISINES.len() - 1);
    match profile {
        // Farms keep only name/city honest and fabricate the rest; no
        // street at all (thin doorway pages).
        AdversarialProfile::SpamFarm => AdversarialFacts {
            name: v.name.clone(),
            street: None,
            city: v.city.clone(),
            state: v.state.clone(),
            zip: rot_digits(&v.zip, rk(3)),
            phone: rot_digits(&phone, rk(1)),
            hours: fake_hours(&v.hours, mix(salt, 100 + v.index as u64)),
            cuisine: shift_cuisine(&v.cuisine, ck(1)),
            rating: "5.0 stars".to_string(),
        },
        // Clones scrape the aggregator but garble in transit; the cuisine
        // survives the scrape, addresses and numbers do not.
        AdversarialProfile::MangledClone => AdversarialFacts {
            name: v.name.clone(),
            street: Some(swap_street_suffix(&v.street, mix(salt, 7) as usize)),
            city: v.city.clone(),
            state: v.state.clone(),
            zip: rot_digits(&v.zip, rk(2)),
            phone: rot_digits(&phone, rk(2)),
            hours: fake_hours(&v.hours, mix(salt, 200 + v.index as u64)),
            cuisine: v.cuisine.clone(),
            rating: "2.0 stars".to_string(),
        },
        // Mirrors assert yesterday's address, phone and hours with full
        // confidence; identity and cuisine have not changed.
        AdversarialProfile::StaleMirror => AdversarialFacts {
            name: v.name.clone(),
            street: Some(rot_digits(&v.street, rk(0))),
            city: v.city.clone(),
            state: v.state.clone(),
            zip: rot_digits(&v.zip, rk(0)),
            phone: rot_digits(&phone, rk(5)),
            hours: fake_hours(&v.hours, mix(salt, 300 + v.index as u64)),
            cuisine: v.cuisine.clone(),
            rating: format!("{:.1} stars", v.rating),
        },
        // Conflicting-fact sites keep the whole identity (name, street,
        // city, state) honest and flip exactly the contact/category facts.
        AdversarialProfile::ConflictingFacts => AdversarialFacts {
            name: v.name.clone(),
            street: Some(v.street.clone()),
            city: v.city.clone(),
            state: v.state.clone(),
            zip: rot_digits(&v.zip, rk(7)),
            phone: rot_digits(&phone, rk(4)),
            hours: fake_hours(&v.hours, mix(salt, 400 + v.index as u64)),
            cuisine: shift_cuisine(&v.cuisine, ck(2)),
            rating: format!("{:.1} stars", v.rating),
        },
    }
}

/// Generate every page of one adversarial site: a biz-style page per covered
/// restaurant plus a front page linking them. Rendering style is sampled
/// from `rng`; the asserted *values* come from [`facts_for`] and carry no
/// randomness.
pub fn adversarial_pages(world: &World, site: &AdversarialSite, rng: &mut StdRng) -> Vec<Page> {
    let views = RestaurantView::all(world);
    let style = SiteStyle::sample(rng);
    let base = format!("http://{}", site.host);
    let nav = vec![
        ("Home".to_string(), format!("{base}/")),
        ("Listings".to_string(), format!("{base}/")),
        ("About".to_string(), format!("{base}/")),
    ];
    let mut pages = Vec::new();
    let mut home_links = Vec::new();

    for &idx in &site.coverage {
        let v = &views[idx];
        let facts = facts_for(site.profile, site.salt, v);
        let url = format!("{base}/biz/{}", v.slug());
        home_links.push((facts.name.clone(), url.clone()));

        let addr_line = match &facts.street {
            Some(street) => format!("{street}, {}, {} {}", facts.city, facts.state, facts.zip),
            None => format!("{}, {} {}", facts.city, facts.state, facts.zip),
        };
        let pitch = match site.profile {
            AdversarialProfile::SpamFarm => format!(
                "Best {} restaurants near you. {} {} deals, coupons, {} menu, reservations.",
                facts.cuisine, facts.name, facts.city, facts.cuisine
            ),
            AdversarialProfile::MangledClone => format!(
                "Reviews, menus and photos for {} in {}.",
                facts.name, facts.city
            ),
            AdversarialProfile::StaleMirror => format!(
                "Archived listing for {} in {}. Snapshot may not reflect recent changes.",
                facts.name, facts.city
            ),
            AdversarialProfile::ConflictingFacts => {
                format!("Verified facts for {} in {}.", facts.name, facts.city)
            }
        };
        let content = vec![
            style.headline(&facts.name),
            style.para(&pitch),
            style.field("addr", "Address", &addr_line),
            style.field("phone", "Phone", &show_phone(&facts.phone)),
            style.field("hours", "Hours", &facts.hours),
            style.field("cuisine", "Cuisine", &facts.cuisine),
            style.field("rating", "Rating", &facts.rating),
        ];

        let mut fields = vec![("name".into(), facts.name.clone())];
        if let Some(street) = &facts.street {
            fields.push(("street".into(), street.clone()));
        }
        fields.extend([
            ("city".into(), facts.city.clone()),
            ("state".into(), facts.state.clone()),
            ("zip".into(), facts.zip.clone()),
            ("phone".into(), show_phone(&facts.phone)),
            ("hours".into(), facts.hours.clone()),
            ("cuisine".into(), facts.cuisine.clone()),
        ]);

        pages.push(Page {
            url,
            site: site.host.clone(),
            title: format!("{} - {} - {}", facts.name, facts.city, site.host),
            dom: style.page(&facts.name, nav.clone(), content),
            truth: PageTruth {
                kind: PageKind::AdversarialBiz,
                about: Some(v.id),
                records: vec![TruthRecord {
                    concept: world.concepts.restaurant,
                    entity: v.id,
                    fields,
                }],
                mentions: vec![v.id],
            },
        });
    }

    let mut content = vec![
        style.headline("Local restaurant directory"),
        style.para("The most complete restaurant listings on the web."),
    ];
    let mut links = Node::elem("div").class(&style.class_for("listing"));
    for (text, href) in &home_links {
        links = links.child(style.link(text, href));
    }
    content.push(links);
    pages.push(Page {
        url: format!("{base}/"),
        site: site.host.clone(),
        title: format!("{} - restaurant directory", site.host),
        dom: style.page("Directory", nav, content),
        truth: PageTruth {
            kind: PageKind::AdversarialHome,
            about: None,
            records: Vec::new(),
            mentions: Vec::new(),
        },
    });

    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldConfig;
    use rand::SeedableRng;

    fn world() -> World {
        World::generate(WorldConfig::tiny(31))
    }

    #[test]
    fn plan_honors_ratio_and_cycles_profiles() {
        let w = world();
        let plan = plan_sites(&w, 30, &AdversarialConfig::at_ratio(0.3, 7));
        // 0.3/(0.7) * 30 ≈ 13 sites.
        assert_eq!(plan.len(), 13);
        assert_eq!(plan[0].profile, AdversarialProfile::SpamFarm);
        assert_eq!(plan[1].profile, AdversarialProfile::MangledClone);
        assert_eq!(plan[2].profile, AdversarialProfile::StaleMirror);
        assert_eq!(plan[3].profile, AdversarialProfile::ConflictingFacts);
        let hosts: std::collections::HashSet<&str> = plan.iter().map(|s| s.host.as_str()).collect();
        assert_eq!(hosts.len(), plan.len(), "hosts unique");
        assert!(plan_sites(&w, 30, &AdversarialConfig::at_ratio(0.0, 7)).is_empty());
    }

    #[test]
    fn perturbations_are_wrong_but_plausible() {
        let w = world();
        let v = &RestaurantView::all(&w)[0];
        for profile in [
            AdversarialProfile::SpamFarm,
            AdversarialProfile::MangledClone,
            AdversarialProfile::StaleMirror,
            AdversarialProfile::ConflictingFacts,
        ] {
            let f = facts_for(profile, 0, v);
            assert_eq!(f.name, v.name, "{profile:?} keeps the name honest");
            assert_eq!(f.city, v.city, "{profile:?} keeps the city honest");
            assert_ne!(f.zip, v.zip, "{profile:?} flips the zip");
            assert_eq!(f.zip.len(), 5, "flipped zip still looks like a zip");
            assert_ne!(
                f.phone,
                v.phones.first().cloned().unwrap_or_default(),
                "{profile:?} flips the phone"
            );
            assert_eq!(f.phone.len(), 10, "flipped phone is still 10 digits");
            assert_ne!(f.hours, v.hours, "{profile:?} flips the hours");
        }
    }

    #[test]
    fn sites_lie_consistently_but_do_not_collude() {
        // One site repeats its own lies verbatim (pure function of salt)…
        let w = world();
        let v = &RestaurantView::all(&w)[1];
        let a = facts_for(AdversarialProfile::SpamFarm, 0, v);
        let a2 = facts_for(AdversarialProfile::SpamFarm, 0, v);
        assert_eq!(a.phone, a2.phone);
        assert_eq!(a.zip, a2.zip);
        // …but two sites of the same profile fabricate independently: their
        // wrong values differ, so no spam bloc outnumbers the honest pair.
        let b = facts_for(AdversarialProfile::SpamFarm, 4, v);
        assert_ne!(a.phone, b.phone);
        assert_ne!(a.zip, b.zip);
        // …and different profiles assert *different* wrong facts too.
        let c = facts_for(AdversarialProfile::MangledClone, 1, v);
        assert_ne!(a.phone, c.phone);
        assert_ne!(a.zip, c.zip);
    }

    #[test]
    fn pages_render_the_asserted_facts() {
        let w = world();
        let plan = plan_sites(&w, 20, &AdversarialConfig::at_ratio(0.2, 9));
        let mut rng = StdRng::seed_from_u64(9);
        for site in &plan {
            for p in adversarial_pages(&w, site, &mut rng) {
                if p.truth.kind != PageKind::AdversarialBiz {
                    continue;
                }
                let text = p.text();
                for (k, val) in &p.truth.records[0].fields {
                    assert!(text.contains(val), "{k} value {val:?} must be rendered");
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let w = world();
        let plan = plan_sites(&w, 20, &AdversarialConfig::at_ratio(0.3, 5));
        let render = || {
            let mut rng = StdRng::seed_from_u64(5);
            plan.iter()
                .flat_map(|s| adversarial_pages(&w, s, &mut rng))
                .collect::<Vec<Page>>()
        };
        let (a, b) = (render(), render());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
