//! The versioned record store.
//!
//! The store enforces stipulation 1 (unique ids), keeps an append-only
//! version chain per record ("maintain versions of important concept
//! instances over windows of time", §2.3), and maintains a by-concept
//! secondary index.
//!
//! ## Sharing between copies
//!
//! Every stored version is an `Arc<Lrec>`, so cloning a store — or building
//! the next epoch's store from records the previous one already holds
//! ([`Store::insert_shared`], [`Store::latest_shared`]) — copies pointers,
//! not records. Versions are immutable once stored: [`Store::update`] and
//! [`Store::merge`] clone the latest record (itself copy-on-write, see
//! [`crate::record`]), mutate the clone and append it as a new version, so
//! nothing a holder of an older `Arc` can observe ever changes.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::ids::{ConceptId, LrecId, Tick};
use crate::record::Lrec;

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreError {
    /// The record id does not exist.
    NotFound(LrecId),
    /// An update supplied a record whose id does not match the target.
    IdMismatch {
        /// Id the caller addressed.
        expected: LrecId,
        /// Id inside the supplied record.
        got: LrecId,
    },
    /// An update supplied a tick not greater than the latest version's tick.
    NonMonotonicTick {
        /// Latest stored tick.
        latest: Tick,
        /// Offending tick.
        got: Tick,
    },
    /// The record was tombstoned (merged away or retracted).
    Tombstoned(LrecId),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NotFound(id) => write!(f, "record {id} not found"),
            StoreError::IdMismatch { expected, got } => {
                write!(f, "id mismatch: expected {expected}, got {got}")
            }
            StoreError::NonMonotonicTick { latest, got } => {
                write!(f, "non-monotonic tick: latest {latest}, got {got}")
            }
            StoreError::Tombstoned(id) => write!(f, "record {id} is tombstoned"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One stored version of a record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Version {
    tick: Tick,
    rec: Arc<Lrec>,
}

/// The version chain of a record plus its liveness.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Chain {
    versions: Vec<Version>,
    /// If merged away, the surviving id.
    merged_into: Option<LrecId>,
    /// True if retracted entirely.
    retracted: bool,
}

impl Chain {
    fn is_tombstoned(&self) -> bool {
        self.merged_into.is_some() || self.retracted
    }
}

/// A single-writer versioned record store.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Store {
    chains: HashMap<LrecId, Chain>,
    by_concept: HashMap<ConceptId, Vec<LrecId>>,
    next_id: u64,
}

impl Store {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`Store::create`], [`Store::insert`] or
    /// [`Store::insert_shared`] will allocate.
    pub fn next_id(&self) -> LrecId {
        LrecId(self.next_id)
    }

    /// Allocate a fresh id and create an empty record for `concept` at `tick`.
    pub fn create(&mut self, concept: ConceptId, tick: Tick) -> LrecId {
        self.insert(concept, tick, |_| {})
    }

    /// Insert a fully built record, allocating its id. Returns the id.
    pub fn insert(
        &mut self,
        concept: ConceptId,
        tick: Tick,
        build: impl FnOnce(&mut Lrec),
    ) -> LrecId {
        let mut rec = Lrec::new(self.next_id(), concept);
        build(&mut rec);
        self.insert_shared(tick, Arc::new(rec))
    }

    /// Insert an already built, possibly shared record as the first version
    /// of a new chain — the one insertion path. The record must carry the
    /// id this store allocates next ([`Store::next_id`]).
    ///
    /// # Panics
    ///
    /// When `rec.id()` is not [`Store::next_id`].
    pub fn insert_shared(&mut self, tick: Tick, rec: Arc<Lrec>) -> LrecId {
        let id = self.next_id();
        assert_eq!(rec.id(), id, "a record is inserted under the next free id");
        self.next_id += 1;
        self.by_concept.entry(rec.concept()).or_default().push(id);
        self.chains.insert(
            id,
            Chain {
                versions: vec![Version { tick, rec }],
                merged_into: None,
                retracted: false,
            },
        );
        id
    }

    /// Latest live version of a record. `None` if the id is unknown;
    /// tombstoned records still return their last version (their data was
    /// merged elsewhere but the history remains queryable).
    pub fn latest(&self, id: LrecId) -> Option<&Lrec> {
        self.latest_shared(id).map(|rec| &**rec)
    }

    /// [`Store::latest`] as the stored allocation itself — what another
    /// store, a memo or an index cache holds on to instead of a copy.
    pub fn latest_shared(&self, id: LrecId) -> Option<&Arc<Lrec>> {
        self.chains.get(&id).map(|c| {
            &c.versions
                .last()
                .expect("invariant: chains hold at least one version")
                .rec
        })
    }

    /// Resolve an id through merge tombstones to the surviving record id.
    pub fn resolve(&self, mut id: LrecId) -> Option<LrecId> {
        let mut hops = 0;
        loop {
            let chain = self.chains.get(&id)?;
            match chain.merged_into {
                Some(next) => {
                    id = next;
                    hops += 1;
                    // Merge chains are short; a cycle would be a bug.
                    debug_assert!(hops <= self.chains.len(), "merge cycle");
                    if hops > self.chains.len() {
                        return None;
                    }
                }
                None => return (!chain.retracted).then_some(id),
            }
        }
    }

    /// The version of a record as of `tick` (latest version with
    /// `version.tick <= tick`).
    pub fn as_of(&self, id: LrecId, tick: Tick) -> Option<&Lrec> {
        let chain = self.chains.get(&id)?;
        chain
            .versions
            .iter()
            .rev()
            .find(|v| v.tick <= tick)
            .map(|v| &*v.rec)
    }

    /// Number of stored versions of a record.
    pub fn num_versions(&self, id: LrecId) -> usize {
        self.chains.get(&id).map(|c| c.versions.len()).unwrap_or(0)
    }

    /// Append a new version produced by mutating the latest one.
    ///
    /// Ticks must strictly increase along a chain (version monotonicity —
    /// property-tested).
    pub fn update(
        &mut self,
        id: LrecId,
        tick: Tick,
        mutate: impl FnOnce(&mut Lrec),
    ) -> Result<(), StoreError> {
        let chain = self.chains.get_mut(&id).ok_or(StoreError::NotFound(id))?;
        if chain.is_tombstoned() {
            return Err(StoreError::Tombstoned(id));
        }
        let latest_tick = chain
            .versions
            .last()
            .expect("invariant: chains hold at least one version")
            .tick;
        if tick <= latest_tick {
            return Err(StoreError::NonMonotonicTick {
                latest: latest_tick,
                got: tick,
            });
        }
        let mut rec = Lrec::clone(
            &chain
                .versions
                .last()
                .expect("invariant: chains hold at least one version")
                .rec,
        );
        mutate(&mut rec);
        chain.versions.push(Version {
            tick,
            rec: Arc::new(rec),
        });
        Ok(())
    }

    /// Merge record `loser` into `winner` at `tick`: the winner absorbs the
    /// loser's values as a new version; the loser is tombstoned and resolves
    /// to the winner thereafter.
    pub fn merge(&mut self, winner: LrecId, loser: LrecId, tick: Tick) -> Result<(), StoreError> {
        if winner == loser {
            return Ok(());
        }
        let loser_rec = Arc::clone(
            self.latest_shared(loser)
                .ok_or(StoreError::NotFound(loser))?,
        );
        if self
            .chains
            .get(&loser)
            .expect("invariant: latest(loser) succeeded above")
            .is_tombstoned()
        {
            return Err(StoreError::Tombstoned(loser));
        }
        self.update(winner, tick, |w| w.absorb(&loser_rec))?;
        self.chains
            .get_mut(&loser)
            .expect("invariant: latest(loser) succeeded above")
            .merged_into = Some(winner);
        Ok(())
    }

    /// Retract a record entirely (e.g. discovered to be spam) at `tick`.
    pub fn retract(&mut self, id: LrecId) -> Result<(), StoreError> {
        let chain = self.chains.get_mut(&id).ok_or(StoreError::NotFound(id))?;
        if chain.is_tombstoned() {
            return Err(StoreError::Tombstoned(id));
        }
        chain.retracted = true;
        Ok(())
    }

    /// Ids of live records of a concept (excludes tombstoned).
    pub fn by_concept(&self, concept: ConceptId) -> Vec<LrecId> {
        self.by_concept
            .get(&concept)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|id| !self.chains[id].is_tombstoned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All live record ids.
    pub fn live_ids(&self) -> Vec<LrecId> {
        let mut ids: Vec<LrecId> = self
            .chains
            .iter()
            .filter(|(_, c)| !c.is_tombstoned())
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Total number of records ever created.
    pub fn total_created(&self) -> usize {
        self.chains.len()
    }

    /// The largest tick recorded across all version chains (`Tick(0)` for an
    /// empty store). Maintenance passes start their clock after this.
    pub fn max_tick(&self) -> Tick {
        self.chains
            .values()
            .flat_map(|c| c.versions.iter().map(|v| v.tick))
            .max()
            .unwrap_or(Tick(0))
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.chains.values().filter(|c| !c.is_tombstoned()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Provenance;
    use crate::value::AttrValue;

    const C: ConceptId = ConceptId(0);

    fn prov() -> Provenance {
        Provenance::ground_truth(Tick(0))
    }

    #[test]
    fn create_allocates_unique_ids() {
        let mut s = Store::new();
        let a = s.create(C, Tick(0));
        let b = s.create(C, Tick(0));
        assert_ne!(a, b);
        assert_eq!(s.total_created(), 2);
        assert_eq!(s.live_count(), 2);
    }

    #[test]
    fn insert_and_latest() {
        let mut s = Store::new();
        let id = s.insert(C, Tick(0), |r| r.add("name", "Gochi".into(), prov()));
        assert_eq!(s.latest(id).unwrap().best_text("name"), Some("Gochi"));
    }

    #[test]
    fn insert_shared_stores_the_allocation_it_is_given() {
        let mut first = Store::new();
        let id = first.insert(C, Tick(0), |r| r.add("name", "Gochi".into(), prov()));
        let shared = Arc::clone(first.latest_shared(id).unwrap());

        // A second store takes the same record under the same id: one
        // allocation, two holders.
        let mut second = Store::new();
        assert_eq!(second.next_id(), id);
        assert_eq!(second.insert_shared(Tick(0), Arc::clone(&shared)), id);
        assert!(Arc::ptr_eq(second.latest_shared(id).unwrap(), &shared));
        assert_eq!(second.by_concept(C), vec![id]);
        assert_eq!(second.next_id(), LrecId(id.0 + 1));

        // An update in one store appends a version there and leaves the
        // shared first version — and the other store — as they were.
        second
            .update(id, Tick(1), |r| r.set("name", "Gochi Tapas".into(), prov()))
            .unwrap();
        assert_eq!(shared.best_text("name"), Some("Gochi"));
        assert_eq!(first.latest(id).unwrap().best_text("name"), Some("Gochi"));
        assert!(std::ptr::eq(second.as_of(id, Tick(0)).unwrap(), &*shared));
        assert_eq!(
            second.latest(id).unwrap().best_text("name"),
            Some("Gochi Tapas")
        );
    }

    #[test]
    #[should_panic(expected = "next free id")]
    fn insert_shared_rejects_a_record_with_another_id() {
        let mut s = Store::new();
        s.insert_shared(Tick(0), Arc::new(Lrec::new(LrecId(3), C)));
    }

    #[test]
    fn clones_and_merges_leave_other_holders_untouched() {
        let mut s = Store::new();
        let a = s.insert(C, Tick(0), |r| r.add("name", "Gochi".into(), prov()));
        let b = s.insert(C, Tick(0), |r| {
            r.add("phone", AttrValue::Phone("4085550134".into()), prov())
        });
        let frozen = s.clone();
        assert!(Arc::ptr_eq(
            frozen.latest_shared(a).unwrap(),
            s.latest_shared(a).unwrap()
        ));
        s.merge(a, b, Tick(1)).unwrap();
        assert_eq!(frozen.live_count(), 2);
        assert_eq!(frozen.num_versions(a), 1);
        assert!(frozen.latest(a).unwrap().best("phone").is_none());
        assert_eq!(frozen.resolve(b), Some(b));
        assert!(s.latest(a).unwrap().best("phone").is_some());
    }

    #[test]
    fn update_appends_version() {
        let mut s = Store::new();
        let id = s.insert(C, Tick(0), |r| r.add("name", "Gochi".into(), prov()));
        s.update(id, Tick(1), |r| r.set("name", "Gochi Tapas".into(), prov()))
            .unwrap();
        assert_eq!(s.num_versions(id), 2);
        assert_eq!(s.latest(id).unwrap().best_text("name"), Some("Gochi Tapas"));
        // Time travel.
        assert_eq!(
            s.as_of(id, Tick(0)).unwrap().best_text("name"),
            Some("Gochi")
        );
    }

    #[test]
    fn update_rejects_stale_tick() {
        let mut s = Store::new();
        let id = s.insert(C, Tick(5), |_| {});
        let err = s.update(id, Tick(5), |_| {}).unwrap_err();
        assert!(matches!(err, StoreError::NonMonotonicTick { .. }));
        assert!(matches!(
            s.update(LrecId(999), Tick(9), |_| {}),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn merge_tombstones_and_resolves() {
        let mut s = Store::new();
        let a = s.insert(C, Tick(0), |r| r.add("name", "Gochi".into(), prov()));
        let b = s.insert(C, Tick(0), |r| {
            r.add("phone", AttrValue::Phone("4085550134".into()), prov())
        });
        s.merge(a, b, Tick(1)).unwrap();
        assert_eq!(s.resolve(b), Some(a));
        assert_eq!(s.resolve(a), Some(a));
        assert_eq!(s.live_count(), 1);
        let w = s.latest(a).unwrap();
        assert!(w.best("phone").is_some(), "winner absorbed loser's values");
        // Further updates to the loser fail.
        assert!(matches!(
            s.update(b, Tick(2), |_| {}),
            Err(StoreError::Tombstoned(_))
        ));
        // Merging the same loser twice fails.
        assert!(matches!(
            s.merge(a, b, Tick(3)),
            Err(StoreError::Tombstoned(_))
        ));
    }

    #[test]
    fn merge_chains_resolve_transitively() {
        let mut s = Store::new();
        let a = s.create(C, Tick(0));
        let b = s.create(C, Tick(0));
        let c = s.create(C, Tick(0));
        s.merge(b, c, Tick(1)).unwrap();
        s.merge(a, b, Tick(2)).unwrap();
        assert_eq!(s.resolve(c), Some(a));
    }

    #[test]
    fn merge_self_is_noop() {
        let mut s = Store::new();
        let a = s.create(C, Tick(0));
        s.merge(a, a, Tick(1)).unwrap();
        assert_eq!(s.num_versions(a), 1);
    }

    #[test]
    fn retract_hides_from_queries() {
        let mut s = Store::new();
        let a = s.create(C, Tick(0));
        let b = s.create(C, Tick(0));
        s.retract(a).unwrap();
        assert_eq!(s.by_concept(C), vec![b]);
        assert_eq!(s.resolve(a), None);
        assert_eq!(s.live_ids(), vec![b]);
    }

    #[test]
    fn by_concept_partitions() {
        let mut s = Store::new();
        let c1 = ConceptId(1);
        let a = s.create(C, Tick(0));
        let b = s.create(c1, Tick(0));
        assert_eq!(s.by_concept(C), vec![a]);
        assert_eq!(s.by_concept(c1), vec![b]);
        assert!(s.by_concept(ConceptId(9)).is_empty());
    }
}
