//! The shared serving runtime: one long-lived [`Engine`] plus one
//! [`SnapshotStore`], safe to share by reference across any number of
//! reader threads.
//!
//! The repo's evaluators historically treated [`Engine`] as per-call
//! state — each caller built its own interner and QE cache, so two
//! concurrent queries either cloned whole relations or serialized
//! behind a lock. A [`Runtime`] is the "millions of users" shape
//! (ROADMAP item 3): the interner and QE cache are sharded and
//! lock-striped internally (they always were thread-safe), the plan
//! and atom caches inside the writer's
//! [`MaterializedView`](crate::MaterializedView) are keyed
//! by relation content version — the same ids that define snapshot
//! epochs — and readers evaluate against pinned [`Snapshot`]s, so the
//! whole read path is race-free by construction: no reader ever
//! observes a partially applied commit, and concurrent readers share
//! every cache without invalidating each other.
//!
//! ```text
//! writers ──▶ SnapshotStore::insert/retract          (serialized)
//!                │  incremental delta propagation
//!                ▼
//!            publish(epoch n+1)      ── Arc swap ──▶ published
//!                                                      │
//! readers ──▶ Runtime::pin() ── O(1) Arc clone ────────┘
//!                │
//!                ▼
//!            query / contains_point against the pinned epoch
//!                │  query's candidates: the epoch's read index of the
//!                │  relation (built once per relation version, shared
//!                │  by every reader; see `snapshot`)
//!                ▼
//!            conjoin candidates only
//!            (shared interner + QE cache + executor)
//! ```

use crate::algebra;
use crate::datalog::{FixpointOptions, Program};
use crate::snapshot::{Snapshot, SnapshotStore};
use crate::trace::UpdateStats;
use crate::Engine;
use cql_core::error::Result;
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::Theory;

/// A long-lived evaluation context shared by every tenant and thread:
/// the engine (executor, interner, QE cache) plus the epoch-versioned
/// snapshot store. See the module docs.
pub struct Runtime<T: Theory> {
    engine: Engine<T>,
    store: SnapshotStore<T>,
}

impl<T: Theory> Runtime<T> {
    /// Materialize `program` over `edb` under `opts` and publish the
    /// initial epoch. The runtime's shared engine uses the options'
    /// thread count and policy.
    ///
    /// # Errors
    /// As [`SnapshotStore::new`].
    pub fn new(program: Program<T>, edb: &Database<T>, opts: FixpointOptions) -> Result<Self> {
        let engine = opts.engine();
        let store = SnapshotStore::new(program, edb, opts)?;
        Ok(Runtime { engine, store })
    }

    /// The shared engine (interner, QE cache, executor).
    #[must_use]
    pub fn engine(&self) -> &Engine<T> {
        &self.engine
    }

    /// The snapshot store.
    #[must_use]
    pub fn store(&self) -> &SnapshotStore<T> {
        &self.store
    }

    /// Pin the current epoch (O(1)).
    pub fn pin(&self) -> Snapshot<T> {
        self.store.pin()
    }

    /// Assert one EDB tuple and publish the resulting epoch.
    ///
    /// # Errors
    /// As [`SnapshotStore::insert`].
    pub fn insert(&self, relation: &str, tuple: GenTuple<T>) -> Result<UpdateStats> {
        self.store.insert(relation, tuple)
    }

    /// Retract one EDB tuple and publish the resulting epoch.
    ///
    /// # Errors
    /// As [`SnapshotStore::retract`].
    pub fn retract(&self, relation: &str, tuple: &GenTuple<T>) -> Result<UpdateStats> {
        self.store.retract(relation, tuple)
    }

    /// Select from one relation of a pinned snapshot: the tuples
    /// jointly satisfiable with `constraints`, canonicalized through
    /// the shared interner. Candidates come from the epoch's shared
    /// read index (see the [`snapshot`](crate::snapshot) docs), so only
    /// tuples whose summaries meet the selection's are conjoined; the
    /// answer, tuple order included, is [`algebra::select_with`]'s.
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if the relation is absent.
    pub fn query(
        &self,
        snapshot: &Snapshot<T>,
        relation: &str,
        constraints: &[T::Constraint],
    ) -> Result<GenRelation<T>> {
        let rel = snapshot.relation(relation)?;
        let index = snapshot.index(relation)?;
        Ok(algebra::select_indexed(&self.engine, rel, index, constraints))
    }

    /// Point-membership against a pinned snapshot (no solver work).
    ///
    /// # Errors
    /// `CqlError::UnknownRelation` if the relation is absent.
    pub fn contains_point(
        &self,
        snapshot: &Snapshot<T>,
        relation: &str,
        point: &[T::Value],
    ) -> Result<bool> {
        Ok(snapshot.relation(relation)?.satisfied_by(point))
    }

    /// All runtime gauges: the engine rows ([`Engine::gauges`] —
    /// interner/QE-cache occupancy plus flight-recorder rings) followed
    /// by the snapshot rows ([`SnapshotStore::gauges`] — epoch, commit
    /// count, live epochs, pinned readers per epoch). Feed them to a
    /// [`crate::trace::TelemetryRegistry`] for Prometheus exposition.
    #[must_use]
    pub fn gauges(&self) -> Vec<(String, u64)> {
        let mut rows = self.engine.gauges();
        rows.extend(self.store.gauges());
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::{Atom, Literal, Rule};
    use cql_dense::{Dense, DenseConstraint};
    use std::sync::Arc;

    fn runtime() -> Runtime<Dense> {
        let program = Program::new(vec![
            Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
            Rule::new(
                Atom::new("T", vec![0, 1]),
                vec![
                    Literal::Pos(Atom::new("T", vec![0, 2])),
                    Literal::Pos(Atom::new("E", vec![2, 1])),
                ],
            ),
        ]);
        let mut db = Database::new();
        let mut e = GenRelation::empty(2);
        for i in 0..4 {
            e.insert(edge(i, i + 1));
        }
        db.insert("E", e);
        Runtime::new(program, &db, FixpointOptions::default()).unwrap()
    }

    fn edge(a: i64, b: i64) -> GenTuple<Dense> {
        GenTuple::new(vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)])
            .unwrap()
    }

    #[test]
    fn concurrent_readers_share_the_runtime() {
        let rt = Arc::new(runtime());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    let snap = rt.pin();
                    let hits = rt
                        .query(
                            &snap,
                            "T",
                            &[DenseConstraint::eq_const(0, 0), DenseConstraint::eq_const(1, 4)],
                        )
                        .unwrap();
                    assert_eq!(hits.len(), 1);
                    let point = [cql_arith::Rat::from(0), cql_arith::Rat::from(3)];
                    assert!(rt.contains_point(&snap, "T", &point).unwrap());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn gauges_cover_engine_and_snapshot_rows() {
        let rt = runtime();
        let _pin = rt.pin();
        let names: Vec<String> = rt.gauges().into_iter().map(|(n, _)| n).collect();
        assert!(names.iter().any(|n| n == "interner_entries"));
        assert!(names.iter().any(|n| n == "snapshot_epoch"));
        assert!(names.iter().any(|n| n == "snapshot_pinned_readers"));
    }
}
