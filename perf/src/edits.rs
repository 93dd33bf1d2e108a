//! The seeded edit-trace generator: rounds of ground-truth edits over
//! *live* restaurants, each rendered to the crawl delta an operator would
//! hand over and the answer that must show once it is served.
//!
//! The repo's own `churn_restaurants` cannot drive a long trace (it panics
//! once a later round re-rolls a restaurant an earlier round closed — see
//! the README's defect list), so rounds are built directly on the world
//! store, skipping closed restaurants.

use crate::load::Rng;
use crate::sut::{Corpus, CrawlDelta, Fixture, Request, Server};

/// How much of the world one round touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditMix {
    /// One restaurant's phone or hours; every `CLOSE_EVERY`-th round closes
    /// a restaurant instead, so removed pages stay on the measured path.
    Small { closures: bool },
    /// Phone or hours of half the live, probe-able restaurants.
    Bulk,
}

/// A closure replaces every `CLOSE_EVERY`-th small round.
pub const CLOSE_EVERY: usize = 32;

/// What the probe's answer must show for a round to count as visible.
#[derive(Debug)]
pub enum Expect {
    /// A concept-box line carrying the new ground-truth value.
    Line { label: &'static str, value: String },
    /// The whole answer, as a from-scratch build of the round's crawl
    /// renders it (closures: no single line says "closed").
    Bytes(String),
}

impl Expect {
    pub fn met_by(&self, reply: &crate::sut::Reply) -> bool {
        match self {
            Expect::Line { label, value } => reply.shows(label, value),
            Expect::Bytes(bytes) => reply.render() == *bytes,
        }
    }
}

/// One round: the crawl delta handed over, and the probe that proves it
/// arrived.
#[derive(Debug)]
pub struct Round {
    pub delta: CrawlDelta,
    pub probe: Request,
    pub expect: Expect,
}

/// Restaurants whose concept box, at baseline, shows exactly the ground
/// truth phone and hours under a name no other restaurant shares: only
/// those can prove an edit became visible.
pub fn probeable(fixture: &Fixture, oracle: &Server) -> Vec<usize> {
    let names: Vec<String> = (0..fixture.restaurants())
        .map(|i| fixture.name(i))
        .collect();
    (0..fixture.restaurants())
        .filter(|&i| names.iter().filter(|n| **n == names[i]).count() == 1)
        .filter(|&i| fixture.has_one_phone(i))
        .filter(|&i| {
            let reply = oracle.execute(&Request::concept_box(&names[i]));
            reply.shows("Phone", &fixture.phone(i)) && reply.shows("Hours", &fixture.hours(i))
        })
        .collect()
}

fn edit_one(fixture: &mut Fixture, i: usize, rng: &mut Rng) -> Expect {
    if rng.below(2) == 0 {
        let shown = loop {
            let area = ["408", "650", "415", "312"][rng.below(4)];
            let digits = format!("{area}555{:04}", rng.below(10_000));
            let before = fixture.phone(i);
            let shown = fixture.set_phone(i, &digits);
            if shown != before {
                break shown;
            }
        };
        Expect::Line {
            label: "Phone",
            value: shown,
        }
    } else {
        let hours = loop {
            let hours = format!("{}am - {}pm", 7 + rng.below(5), 8 + rng.below(4));
            if hours != fixture.hours(i) {
                break hours;
            }
        };
        fixture.set_hours(i, &hours);
        Expect::Line {
            label: "Hours",
            value: hours,
        }
    }
}

/// Generate `rounds` rounds over `pool` (indices from [`probeable`]),
/// starting from crawl `base` of `fixture`; returns them with the crawl
/// after the last one. The fixture is left at that crawl's ground truth.
/// With `streamed`, round *k* targets the *k*-th open pool member, so no
/// restaurant is edited twice (coalescing could hide the first value
/// before a probe saw it), and a round's edit is re-rolled until its delta
/// streams as exactly one micro-epoch: otherwise the number of passes a
/// trace costs, and with it every stream metric, would swing with the seed.
pub fn generate(
    fixture: &mut Fixture,
    base: &Corpus,
    pool: &[usize],
    mix: EditMix,
    rounds: usize,
    streamed: bool,
    rng: &mut Rng,
) -> (Vec<Round>, Corpus) {
    let mut prev = base.clone();
    let mut out = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let open: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&i| fixture.is_open(i))
            .collect();
        assert!(
            open.len() > if streamed { round } else { 1 },
            "too few probe-able restaurants for round {round}: {}",
            open.len()
        );
        let close = matches!(mix, EditMix::Small { closures: true })
            && round % CLOSE_EVERY == CLOSE_EVERY - 1
            && open.len() > pool.len() / 2;
        let target = if streamed {
            open[round]
        } else {
            open[rng.below(open.len())]
        };
        let probe = Request::concept_box(&fixture.name(target));
        let mut expect = None;
        let mut tries = 0;
        let (next, delta) = loop {
            match mix {
                _ if close => fixture.close(target),
                EditMix::Small { .. } => expect = Some(edit_one(fixture, target, rng)),
                EditMix::Bulk => {
                    let mut half = open.clone();
                    rng.shuffle(&mut half);
                    half.truncate(open.len() / 2);
                    for i in half {
                        if i != target {
                            edit_one(fixture, i, rng);
                        }
                    }
                    expect = Some(edit_one(fixture, target, rng));
                }
            }
            let next = fixture.crawl();
            let mut delta = prev.delta_to(&next);
            tries += 1;
            if !streamed || delta.order_for_stream() == 1 || tries == 64 {
                break (next, delta);
            }
        };
        let expect =
            expect.unwrap_or_else(|| Expect::Bytes(Server::oracle(&next).execute(&probe).render()));
        out.push(Round {
            delta,
            probe,
            expect,
        });
        prev = next;
    }
    (out, prev)
}
