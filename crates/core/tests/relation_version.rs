//! Regression tests for `GenRelation::version()`: every mutation path
//! must assign a fresh version, and every non-mutation must keep it.
//!
//! PR 4's `PlanCache` keys renamed tuples and summary tries by
//! `(version, atom vars)` — a missed bump would silently serve a stale
//! `SummaryTrie` for the mutated relation. These tests enumerate the
//! mutation paths (plain insert, evicting insert, removal) and the
//! non-mutations (duplicate insert, subsumed insert, failed removal,
//! clone) against a minimal point-equality theory. The tests at the
//! bottom check duplicate detection (`insert`, `contains`, `remove_all`)
//! against a linear scan, also when every tuple hash collides.

use cql_core::error::Result;
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::summary::NoSummary;
use cql_core::theory::{Theory, Var};
use cql_core::{EnginePolicy, SubsumptionMode};
use std::fmt;

/// `x_v = c` over the integers: the smallest constraint language with a
/// non-trivial entailment order (more constraints = fewer points), enough
/// to drive subsumption, eviction and the signature buckets.
///
/// With `CLASH` set the hash ignores the value, so tuples over the same
/// variables collide on their tuple hash — the path a genuine collision
/// takes through the relation's duplicate detection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct VarEq<const CLASH: bool> {
    var: Var,
    value: i64,
}

impl<const CLASH: bool> std::hash::Hash for VarEq<CLASH> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.var.hash(state);
        if !CLASH {
            self.value.hash(state);
        }
    }
}

impl<const CLASH: bool> fmt::Display for VarEq<CLASH> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{} = {}", self.var, self.value)
    }
}

struct Points<const CLASH: bool>;

type PointEq = Points<false>;

impl<const CLASH: bool> Theory for Points<CLASH> {
    type Constraint = VarEq<CLASH>;
    type Value = i64;
    type Summary = NoSummary;

    fn name() -> &'static str {
        "point equality (test)"
    }

    fn summary(_conj: &[VarEq<CLASH>]) -> NoSummary {
        NoSummary
    }

    fn canonicalize(conj: &[VarEq<CLASH>]) -> Option<Vec<VarEq<CLASH>>> {
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

    fn eliminate(conj: &[VarEq<CLASH>], var: Var) -> Result<Vec<Vec<VarEq<CLASH>>>> {
        Ok(vec![conj.iter().copied().filter(|c| c.var != var).collect()])
    }

    fn negate(_c: &VarEq<CLASH>) -> Vec<VarEq<CLASH>> {
        unimplemented!("negation is not used by these tests")
    }

    fn var_eq(_a: Var, _b: Var) -> VarEq<CLASH> {
        unimplemented!("variable equality is not used by these tests")
    }

    fn var_const_eq(v: Var, value: &i64) -> VarEq<CLASH> {
        VarEq { var: v, value: *value }
    }

    fn eval(c: &VarEq<CLASH>, point: &[i64]) -> bool {
        point[c.var] == c.value
    }

    fn rename(c: &VarEq<CLASH>, map: &dyn Fn(Var) -> Var) -> VarEq<CLASH> {
        VarEq { var: map(c.var), value: c.value }
    }

    fn vars(c: &VarEq<CLASH>) -> Vec<Var> {
        vec![c.var]
    }

    fn constants(c: &VarEq<CLASH>) -> Vec<i64> {
        vec![c.value]
    }

    // points(a) ⊆ points(b) iff b's constraints are a subset of a's.
    fn entails(a: &[VarEq<CLASH>], b: &[VarEq<CLASH>]) -> bool {
        match (Self::canonicalize(a), Self::canonicalize(b)) {
            (Some(ca), Some(cb)) => cb.iter().all(|c| ca.contains(c)),
            _ => false,
        }
    }

    fn sample(conj: &[VarEq<CLASH>], arity: usize) -> Option<Vec<i64>> {
        let mut point = vec![0i64; arity];
        for c in conj {
            point[c.var] = c.value;
        }
        Some(point)
    }

    fn signature(conj: &[VarEq<CLASH>]) -> u64 {
        conj.iter().fold(0, |acc, c| acc | 1u64 << (c.var % 64))
    }
}

fn tuple(constraints: &[(Var, i64)]) -> GenTuple<PointEq> {
    tuple_of(constraints)
}

fn tuple_of<const CLASH: bool>(constraints: &[(Var, i64)]) -> GenTuple<Points<CLASH>> {
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

/// Drive a dedup-only relation through a seeded mix of inserts, batch
/// removals and membership tests, mirroring it in a plain vector, and
/// require `contains`, `insert` and `remove_all` to agree with a linear
/// scan of the mirror. With `CLASH` every tuple over the same variables
/// shares one hash, so equality alone tells the stored tuples apart.
fn assert_dedup_matches_scan<const CLASH: bool>() {
    let policy = EnginePolicy::with_subsumption(SubsumptionMode::DedupOnly);
    let mut rel: GenRelation<Points<CLASH>> = GenRelation::with_policy(2, policy);
    let mut mirror: Vec<GenTuple<Points<CLASH>>> = Vec::new();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = |bound: u64| {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) % bound
    };
    for _ in 0..2_000 {
        let t = tuple_of::<CLASH>(&[(0, next(6) as i64), (1, next(6) as i64)]);
        match next(3) {
            0 => {
                let fresh = !mirror.contains(&t);
                assert_eq!(rel.insert(t.clone()), fresh, "insert of {t}");
                if fresh {
                    mirror.push(t);
                }
            }
            1 => {
                let batch = [t, tuple_of::<CLASH>(&[(0, next(6) as i64), (1, next(6) as i64)])];
                let batch: &[_] = if batch[0] == batch[1] { &batch[..1] } else { &batch };
                let present = batch.iter().filter(|b| mirror.contains(b)).count();
                assert_eq!(rel.remove_all(batch), present, "remove_all of {batch:?}");
                mirror.retain(|m| !batch.contains(m));
            }
            _ => assert_eq!(rel.contains(&t), mirror.contains(&t), "contains of {t}"),
        }
        assert_eq!(rel.tuples(), mirror.as_slice());
    }
}

#[test]
fn dedup_membership_agrees_with_a_linear_scan() {
    assert_dedup_matches_scan::<false>();
}

#[test]
fn dedup_membership_survives_hash_collisions() {
    assert_dedup_matches_scan::<true>();
}
