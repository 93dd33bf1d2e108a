//! Property tests for store invariants (DESIGN.md §8): id uniqueness,
//! version monotonicity, merge-resolution acyclicity, absorb idempotence,
//! and copy-on-write isolation of record clones.

use proptest::prelude::*;
use serde::Serialize;
use woc_lrec::{AttrValue, ConceptId, Lrec, LrecId, Provenance, Store, Tick};

fn prov(c: f64) -> Provenance {
    Provenance::derived("prop", c, Tick(0))
}

/// A random store operation.
#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Update(u8, String),
    Merge(u8, u8),
    Retract(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4).prop_map(Op::Create),
        ((0u8..16), "[a-z]{1,8}").prop_map(|(i, v)| Op::Update(i, v)),
        ((0u8..16), (0u8..16)).prop_map(|(a, b)| Op::Merge(a, b)),
        (0u8..16).prop_map(Op::Retract),
    ]
}

/// A random record mutation. Keys and values come from tiny alphabets —
/// values differing only in case denote the same thing — so sequences hit
/// existing keys, duplicates and higher-confidence replacements often.
#[derive(Debug, Clone)]
enum Edit {
    Add(String, String, u8),
    Set(String, String, u8),
    Remove(String),
    Absorb(Vec<(String, String, u8)>),
}

fn entry_strategy() -> impl Strategy<Value = (String, String, u8)> {
    ("[a-d]", "[abAB]{1,2}", 0u8..10)
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        entry_strategy().prop_map(|(k, v, c)| Edit::Add(k, v, c)),
        entry_strategy().prop_map(|(k, v, c)| Edit::Set(k, v, c)),
        "[a-d]".prop_map(Edit::Remove),
        prop::collection::vec(entry_strategy(), 0..6).prop_map(Edit::Absorb),
    ]
}

/// A record built entry by entry — it shares no allocation with any other.
fn record_of(id: u64, entries: &[(String, String, u8)]) -> Lrec {
    let mut r = Lrec::new(LrecId(id), ConceptId(0));
    for (k, v, c) in entries {
        r.add(k, AttrValue::Text(v.clone()), prov(f64::from(*c) / 10.0));
    }
    r
}

/// The entry-by-entry merge `Lrec::absorb` implemented before attribute
/// lists were shared, through the public API: its reference.
fn absorb_entry_by_entry(this: &mut Lrec, other: &Lrec) {
    for (key, entries) in other.iter() {
        for e in entries {
            let mut existing = this.remove(key);
            if let Some(dup) = existing
                .iter_mut()
                .find(|x| x.value.same_denotation(&e.value))
            {
                if e.provenance.confidence > dup.provenance.confidence {
                    *dup = e.clone();
                }
            } else {
                existing.push(e.clone());
            }
            for x in existing {
                this.add(key, x.value, x.provenance);
            }
        }
    }
}

proptest! {
    /// Copy-on-write isolation: edits to a clone never reach the original,
    /// and the clone ends up exactly where an unshared record would.
    #[test]
    fn clone_edits_are_isolated_and_exact(
        base in prop::collection::vec(entry_strategy(), 0..8),
        edits in prop::collection::vec(edit_strategy(), 0..12),
    ) {
        let original = record_of(0, &base);
        let pristine = record_of(0, &base);
        let mut clone = original.clone();
        let mut scratch = record_of(0, &base);
        for edit in &edits {
            match edit {
                Edit::Add(k, v, c) => {
                    let conf = f64::from(*c) / 10.0;
                    clone.add(k, AttrValue::Text(v.clone()), prov(conf));
                    scratch.add(k, AttrValue::Text(v.clone()), prov(conf));
                }
                Edit::Set(k, v, c) => {
                    let conf = f64::from(*c) / 10.0;
                    clone.set(k, AttrValue::Text(v.clone()), prov(conf));
                    scratch.set(k, AttrValue::Text(v.clone()), prov(conf));
                }
                Edit::Remove(k) => {
                    prop_assert_eq!(clone.remove(k), scratch.remove(k));
                }
                Edit::Absorb(entries) => {
                    // The absorbed record stays shared with the clone
                    // afterwards; it must come through unchanged too.
                    let other = record_of(1, entries);
                    clone.absorb(&other);
                    absorb_entry_by_entry(&mut scratch, &other);
                    prop_assert_eq!(&other, &record_of(1, entries));
                }
            }
        }
        prop_assert_eq!(&original, &pristine);
        prop_assert_eq!(original.to_value(), pristine.to_value());
        prop_assert_eq!(&clone, &scratch);
        prop_assert_eq!(clone.to_value(), scratch.to_value());
    }

    /// Run arbitrary op sequences; invariants must hold at the end.
    #[test]
    fn store_invariants(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let mut store = Store::new();
        let mut ids: Vec<LrecId> = Vec::new();
        let mut tick = Tick(0);
        for op in ops {
            tick = tick.next();
            match op {
                Op::Create(c) => {
                    let id = store.create(ConceptId(c as u32 % 3), tick);
                    // Id uniqueness.
                    prop_assert!(!ids.contains(&id));
                    ids.push(id);
                }
                Op::Update(i, v) => {
                    if let Some(&id) = ids.get(i as usize) {
                        // Updates may legitimately fail on tombstones only.
                        let _ = store.update(id, tick, |r| r.add("k", v.as_str().into(), prov(0.5)));
                    }
                }
                Op::Merge(a, b) => {
                    if let (Some(&wa), Some(&wb)) = (ids.get(a as usize), ids.get(b as usize)) {
                        let _ = store.merge(wa, wb, tick);
                    }
                }
                Op::Retract(i) => {
                    if let Some(&id) = ids.get(i as usize) {
                        let _ = store.retract(id);
                    }
                }
            }
        }
        // Invariant: every id resolves without cycling (resolve terminates and
        // returns either None (retracted) or a live id).
        for &id in &ids {
            if let Some(surv) = store.resolve(id) {
                // Survivor is a fixpoint of resolution.
                prop_assert_eq!(store.resolve(surv), Some(surv));
            }
        }
        // Invariant: live count equals distinct resolution targets of live chains.
        prop_assert!(store.live_count() <= store.total_created());
        // Invariant: by_concept returns only live records.
        for c in 0..3u32 {
            for id in store.by_concept(ConceptId(c)) {
                prop_assert_eq!(store.resolve(id), Some(id));
            }
        }
    }

    /// Ticks along each chain strictly increase, so as_of is well-defined:
    /// asking "as of latest tick" returns the latest version.
    #[test]
    fn version_monotonicity(updates in prop::collection::vec("[a-z]{1,6}", 1..20)) {
        let mut store = Store::new();
        let id = store.create(ConceptId(0), Tick(0));
        let mut tick = Tick(0);
        for (i, v) in updates.iter().enumerate() {
            tick = tick.next();
            store.update(id, tick, |r| r.set("v", v.as_str().into(), prov(1.0))).unwrap();
            prop_assert_eq!(store.num_versions(id), i + 2);
            // Stale tick rejected.
            let stale = store.update(id, tick, |_r| ()).is_err();
            prop_assert!(stale);
        }
        let latest = store.latest(id).unwrap().best_text("v").map(str::to_string);
        let as_of = store.as_of(id, tick).unwrap().best_text("v").map(str::to_string);
        prop_assert_eq!(latest, as_of);
    }

    /// absorb is idempotent: absorbing the same record twice adds nothing new.
    #[test]
    fn absorb_idempotent(pairs in prop::collection::vec(("[a-k]{1,3}", "[a-z]{1,6}"), 0..12)) {
        let mut a = Lrec::new(LrecId(0), ConceptId(0));
        let mut b = Lrec::new(LrecId(1), ConceptId(0));
        for (k, v) in &pairs {
            b.add(k, AttrValue::Text(v.clone()), prov(0.7));
        }
        a.absorb(&b);
        let after_one = a.clone();
        a.absorb(&b);
        prop_assert_eq!(a.num_values(), after_one.num_values());
    }
}
