//! The versioned record store.
//!
//! The store enforces stipulation 1 (unique ids), keeps an append-only
//! version chain per record ("maintain versions of important concept
//! instances over windows of time", §2.3), and maintains a by-concept
//! secondary index.

use std::collections::HashMap;

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
    rec: Lrec,
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

    /// Allocate a fresh id and create an empty record for `concept` at `tick`.
    pub fn create(&mut self, concept: ConceptId, tick: Tick) -> LrecId {
        let id = LrecId(self.next_id);
        self.next_id += 1;
        let rec = Lrec::new(id, concept);
        self.chains.insert(
            id,
            Chain {
                versions: vec![Version { tick, rec }],
                merged_into: None,
                retracted: false,
            },
        );
        self.by_concept.entry(concept).or_default().push(id);
        id
    }

    /// Insert a fully built record, allocating its id. Returns the id.
    pub fn insert(
        &mut self,
        concept: ConceptId,
        tick: Tick,
        build: impl FnOnce(&mut Lrec),
    ) -> LrecId {
        let id = self.create(concept, tick);
        let mut rec = self
            .latest(id)
            .expect("invariant: id was created on the previous line")
            .clone();
        build(&mut rec);
        self.chains
            .get_mut(&id)
            .expect("invariant: id was created on the previous line")
            .versions
            .last_mut()
            .expect("invariant: chains hold at least one version")
            .rec = rec;
        id
    }

    /// Latest live version of a record. `None` if the id is unknown;
    /// tombstoned records still return their last version (their data was
    /// merged elsewhere but the history remains queryable).
    pub fn latest(&self, id: LrecId) -> Option<&Lrec> {
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
            .map(|v| &v.rec)
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
        let mut rec = chain
            .versions
            .last()
            .expect("invariant: chains hold at least one version")
            .rec
            .clone();
        mutate(&mut rec);
        chain.versions.push(Version { tick, rec });
        Ok(())
    }

    /// Merge record `loser` into `winner` at `tick`: the winner absorbs the
    /// loser's values as a new version; the loser is tombstoned and resolves
    /// to the winner thereafter.
    pub fn merge(&mut self, winner: LrecId, loser: LrecId, tick: Tick) -> Result<(), StoreError> {
        if winner == loser {
            return Ok(());
        }
        let loser_rec = self
            .latest(loser)
            .ok_or(StoreError::NotFound(loser))?
            .clone();
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
