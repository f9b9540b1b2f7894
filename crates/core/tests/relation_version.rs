//! Regression tests for `GenRelation::version()`: every mutation path
//! must assign a fresh version, and every non-mutation must keep it.
//!
//! PR 4's `PlanCache` keys renamed tuples and summary tries by
//! `(version, atom vars)` — a missed bump would silently serve a stale
//! `SummaryTrie` for the mutated relation. These tests enumerate the
//! mutation paths (plain insert, evicting insert, removal) and the
//! non-mutations (duplicate insert, subsumed insert, failed removal,
//! clone) against a minimal point-equality theory.

use cql_core::error::Result;
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::summary::NoSummary;
use cql_core::theory::{Theory, Var};
use cql_core::{EnginePolicy, SubsumptionMode};
use std::fmt;

/// `x_v = c` over the integers: the smallest constraint language with a
/// non-trivial entailment order (more constraints = fewer points), enough
/// to drive subsumption, eviction and the signature buckets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct VarEq {
    var: Var,
    value: i64,
}

impl fmt::Display for VarEq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} = {}", self.var, self.value)
    }
}

struct PointEq;

impl Theory for PointEq {
    type Constraint = VarEq;
    type Value = i64;
    type Summary = NoSummary;

    fn name() -> &'static str {
        "point equality (test)"
    }

    fn summary(_conj: &[VarEq]) -> NoSummary {
        NoSummary
    }

    fn canonicalize(conj: &[VarEq]) -> Option<Vec<VarEq>> {
        let mut out = conj.to_vec();
        out.sort_unstable_by_key(|c| (c.var, c.value));
        out.dedup();
        for w in out.windows(2) {
            if w[0].var == w[1].var {
                return None; // two distinct constants for one variable
            }
        }
        Some(out)
    }

    fn eliminate(conj: &[VarEq], var: Var) -> Result<Vec<Vec<VarEq>>> {
        Ok(vec![conj.iter().copied().filter(|c| c.var != var).collect()])
    }

    fn negate(_c: &VarEq) -> Vec<VarEq> {
        unimplemented!("negation is not used by these tests")
    }

    fn var_eq(_a: Var, _b: Var) -> VarEq {
        unimplemented!("variable equality is not used by these tests")
    }

    fn var_const_eq(v: Var, value: &i64) -> VarEq {
        VarEq { var: v, value: *value }
    }

    fn eval(c: &VarEq, point: &[i64]) -> bool {
        point[c.var] == c.value
    }

    fn rename(c: &VarEq, map: &dyn Fn(Var) -> Var) -> VarEq {
        VarEq { var: map(c.var), value: c.value }
    }

    fn vars(c: &VarEq) -> Vec<Var> {
        vec![c.var]
    }

    fn constants(c: &VarEq) -> Vec<i64> {
        vec![c.value]
    }

    // points(a) ⊆ points(b) iff b's constraints are a subset of a's.
    fn entails(a: &[VarEq], b: &[VarEq]) -> bool {
        match (Self::canonicalize(a), Self::canonicalize(b)) {
            (Some(ca), Some(cb)) => cb.iter().all(|c| ca.contains(c)),
            _ => false,
        }
    }

    fn sample(conj: &[VarEq], arity: usize) -> Option<Vec<i64>> {
        let mut point = vec![0i64; arity];
        for c in conj {
            point[c.var] = c.value;
        }
        Some(point)
    }

    fn signature(conj: &[VarEq]) -> u64 {
        conj.iter().fold(0, |acc, c| acc | 1u64 << (c.var % 64))
    }
}

fn tuple(constraints: &[(Var, i64)]) -> GenTuple<PointEq> {
    GenTuple::new(constraints.iter().map(|&(var, value)| VarEq { var, value }).collect()).unwrap()
}

#[test]
fn plain_insert_bumps_version() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    let v0 = rel.version();
    assert!(rel.insert(tuple(&[(0, 1), (1, 2)])));
    assert_ne!(rel.version(), v0);
}

#[test]
fn duplicate_insert_keeps_version() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    rel.insert(tuple(&[(0, 1), (1, 2)]));
    let v = rel.version();
    assert!(!rel.insert(tuple(&[(0, 1), (1, 2)])));
    assert_eq!(rel.version(), v);
}

#[test]
fn subsumed_insert_keeps_version() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    rel.insert(tuple(&[(0, 1)])); // all points with x0 = 1
    let v = rel.version();
    // x0 = 1 ∧ x1 = 2 is a subset: rejected, no mutation.
    assert!(!rel.insert(tuple(&[(0, 1), (1, 2)])));
    assert_eq!(rel.version(), v);
    assert_eq!(rel.len(), 1);
}

#[test]
fn evicting_insert_bumps_version() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    rel.insert(tuple(&[(0, 1), (1, 2)]));
    let v = rel.version();
    // The more general tuple evicts the stored one — two mutations in
    // one insert, still a fresh version.
    assert!(rel.insert(tuple(&[(0, 1)])));
    assert_ne!(rel.version(), v);
    assert_eq!(rel.len(), 1);
}

#[test]
fn remove_bumps_version_only_when_present() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    let t = tuple(&[(0, 1), (1, 2)]);
    rel.insert(t.clone());
    let v = rel.version();
    assert!(!rel.remove(&tuple(&[(0, 7)])));
    assert_eq!(rel.version(), v);
    assert!(rel.remove(&t));
    assert_ne!(rel.version(), v);
    assert!(rel.is_empty());
    assert!(!rel.remove(&t));
}

#[test]
fn batch_remove_compacts_once_and_keeps_subsumption_working() {
    for mode in [SubsumptionMode::Indexed, SubsumptionMode::DedupOnly] {
        let mut rel: GenRelation<PointEq> =
            GenRelation::with_policy(2, EnginePolicy::with_subsumption(mode));
        let ts: Vec<_> = (0..5).map(|i| tuple(&[(0, i), (1, i)])).collect();
        for t in &ts {
            rel.insert(t.clone());
        }
        let v = rel.version();
        let batch = [ts[3].clone(), tuple(&[(0, 9)]), ts[1].clone()];
        assert_eq!(rel.remove_all(&batch), 2, "absent tuples are skipped");
        assert_ne!(rel.version(), v);
        assert_eq!(rel.tuples(), [ts[0].clone(), ts[2].clone(), ts[4].clone()]);
        // `x0 = 2` entails away `x0 = 2 ∧ x1 = 2` only when compressing:
        // the signature index must survive the compaction.
        assert!(rel.insert(tuple(&[(0, 2)])));
        let expected = if mode == SubsumptionMode::Indexed { 3 } else { 4 };
        assert_eq!(rel.len(), expected, "{mode:?}");
    }
}

#[test]
fn removed_tuple_can_be_reinserted() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    let t = tuple(&[(0, 1), (1, 2)]);
    rel.insert(t.clone());
    assert!(rel.remove(&t));
    let v = rel.version();
    // The duplicate-hash bookkeeping must forget removed tuples.
    assert!(rel.insert(t.clone()));
    assert_ne!(rel.version(), v);
    assert!(rel.contains(&t));
}

#[test]
fn clone_preserves_version_and_diverges_on_mutation() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    rel.insert(tuple(&[(0, 1)]));
    let mut copy = rel.clone();
    assert_eq!(rel.version(), copy.version());
    copy.insert(tuple(&[(0, 2)]));
    assert_ne!(rel.version(), copy.version());
}

#[test]
fn clone_shares_storage_until_either_side_mutates() {
    // The copy-on-write contract behind O(1) snapshots: a clone is an
    // `Arc` bump sharing the tuple store, and the *first* mutation on
    // either side copies the segment, leaving the other side untouched.
    let mut rel: GenRelation<PointEq> = GenRelation::empty(2);
    rel.insert(tuple(&[(0, 1), (1, 2)]));
    let snapshot = rel.clone();
    assert!(rel.shares_store(&snapshot), "clone must share the COW segment");
    rel.insert(tuple(&[(0, 3), (1, 4)]));
    assert!(!rel.shares_store(&snapshot), "mutation must copy the shared segment");
    assert_eq!(snapshot.len(), 1, "the snapshot never observes the writer's insert");
    assert_eq!(rel.len(), 2);
    // A second clone of the mutated side shares again.
    let again = rel.clone();
    assert!(rel.shares_store(&again));
}

#[test]
fn chained_clones_all_share_one_segment() {
    let mut rel: GenRelation<PointEq> = GenRelation::empty(1);
    rel.insert(tuple(&[(0, 5)]));
    let a = rel.clone();
    let b = a.clone();
    let c = b.clone();
    assert!(a.shares_store(&c) && rel.shares_store(&b));
    drop(rel);
    drop(a);
    // Survivors still read the shared segment after the others drop.
    assert_eq!(c.len(), 1);
    assert!(b.shares_store(&c));
}

#[test]
fn equal_contents_built_separately_have_distinct_versions() {
    // Versions are globally unique per mutation: equal versions must
    // imply equal contents, but equal contents never force equal
    // versions — two independently built relations always differ.
    let mut a: GenRelation<PointEq> = GenRelation::empty(1);
    let mut b: GenRelation<PointEq> = GenRelation::empty(1);
    a.insert(tuple(&[(0, 3)]));
    b.insert(tuple(&[(0, 3)]));
    assert_eq!(a, b);
    assert_ne!(a.version(), b.version());
}
