//! Reference baselines for the engine's A/B experiments (E13, E16, E17,
//! the `engine` and `join_pruning` benches) and an independent oracle
//! for the equivalence suites. The engine always filters before it
//! solves; these are the unfiltered sides, built only on its public API
//! and sharing no fixpoint loop with it:
//!
//! * [`quadratic_insert`] — subsumption by scanning every stored tuple;
//! * [`naive`] / [`seminaive`] — fixpoints that fold rule bodies left to
//!   right, canonicalizing every intermediate conjunction ([`Fold`]);
//! * [`join`] — the algebra's equi-join without its summary index.

use cql_core::error::{CqlError, Result};
use cql_core::relation::{Database, GenRelation, GenTuple};
use cql_core::theory::{Theory, Var};
use cql_engine::algebra;
use cql_engine::datalog::{FixpointOptions, FixpointResult, Literal, Program, Rule};
use cql_engine::summary_index::SummaryIndex;
use cql_engine::Engine;
use cql_trace::{count, Counter};
use std::collections::HashSet;

/// Subsumption by scanning every stored tuple: insert `tuple` into the
/// antichain `store` unless it is a duplicate or entailed by a stored
/// tuple, and evict every stored tuple it entails. O(n)
/// [`Theory::entails`] calls per insert, each counted as
/// [`Counter::EntailmentChecks`]; keeps the same antichain, in the same
/// order, as the engine's indexed store. Returns `true` if added.
pub fn quadratic_insert<T: Theory>(store: &mut Vec<GenTuple<T>>, tuple: GenTuple<T>) -> bool {
    if store.contains(&tuple)
        || store.iter().any(|t| {
            count(Counter::EntailmentChecks, 1);
            T::entails(tuple.constraints(), t.constraints())
        })
    {
        return false;
    }
    store.retain(|t| {
        count(Counter::EntailmentChecks, 1);
        !T::entails(t.constraints(), tuple.constraints())
    });
    store.push(tuple);
    true
}

/// How the reference fold enumerates a rule body's join pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fold {
    /// Conjoin every partial with every atom tuple; QE calls the theory
    /// directly, with no memo cache.
    Exhaustive,
    /// Conjoin only the pairs the atom's summary index admits; QE goes
    /// through the engine's memo cache.
    Pruned,
}

/// Naive bottom-up evaluation of a positive program with the reference
/// fold: every round fires every rule against the stage fixed at the
/// round's start.
///
/// # Errors
/// Validation and theory errors, or `NotClosed` past the budget.
pub fn naive<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    fold: Fold,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    program.validate(edb, false)?;
    let mut idb = empty_idb(engine, program)?;
    let mut iterations = 0;
    loop {
        check_budget(iterations, opts)?;
        let mut staged = Vec::new();
        for rule in &program.rules {
            let fired = fire(engine, fold, rule, |_, name| instance(name, edb, &idb))?;
            staged.extend(fired.into_iter().map(|t| (&rule.head.relation, t)));
        }
        iterations += 1;
        let mut changed = false;
        for (name, t) in staged {
            changed |= idb.get_mut(name).expect("initialized").insert(t);
        }
        if !changed {
            return Ok(FixpointResult { idb, iterations });
        }
    }
}

/// Semi-naive evaluation with the reference fold: after the first round,
/// a rule re-fires once per IDB body atom, with that atom bound to the
/// previous round's new tuples.
///
/// # Errors
/// As [`naive`].
pub fn seminaive<T: Theory>(
    engine: &Engine<T>,
    program: &Program<T>,
    edb: &Database<T>,
    fold: Fold,
    opts: &FixpointOptions,
) -> Result<FixpointResult<T>> {
    program.validate(edb, false)?;
    let idb_preds = program.idb_predicates();
    let mut idb = empty_idb(engine, program)?;
    let mut delta = empty_idb(engine, program)?;
    for rule in &program.rules {
        for t in fire(engine, fold, rule, |_, name| instance(name, edb, &idb))? {
            if idb.get_mut(&rule.head.relation).expect("initialized").insert(t.clone()) {
                delta.get_mut(&rule.head.relation).expect("initialized").insert(t);
            }
        }
    }
    let mut iterations = 1;
    while delta.size() > 0 {
        check_budget(iterations, opts)?;
        let mut next = empty_idb(engine, program)?;
        for rule in &program.rules {
            for (at, lit) in rule.body.iter().enumerate() {
                let Literal::Pos(a) = lit else { continue };
                if !idb_preds.contains(&a.relation) || delta.require(&a.relation)?.is_empty() {
                    continue;
                }
                let fired = fire(engine, fold, rule, |li, name| {
                    if li == at {
                        delta.require(name)
                    } else {
                        instance(name, edb, &idb)
                    }
                })?;
                for t in fired {
                    if idb.get_mut(&rule.head.relation).expect("initialized").insert(t.clone()) {
                        next.get_mut(&rule.head.relation).expect("initialized").insert(t);
                    }
                }
            }
        }
        delta = next;
        iterations += 1;
    }
    Ok(FixpointResult { idb, iterations })
}

/// ⋈ without the summary index: every pair of the product is conjoined
/// with the join equalities (`select ∘ product`).
#[must_use]
pub fn join<T: Theory>(
    engine: &Engine<T>,
    a: &GenRelation<T>,
    b: &GenRelation<T>,
    on: &[(usize, usize)],
) -> GenRelation<T> {
    let shift = a.arity();
    let eqs: Vec<T::Constraint> = on.iter().map(|&(l, r)| T::var_eq(l, r + shift)).collect();
    let eqs = GenRelation::from_conjunctions(shift + b.arity(), [eqs]);
    algebra::product_with(engine, a, b).intersect(&eqs)
}

fn empty_idb<T: Theory>(engine: &Engine<T>, program: &Program<T>) -> Result<Database<T>> {
    let arities = program.arities()?;
    let mut idb = Database::new();
    for name in program.idb_predicates() {
        idb.insert(name.clone(), engine.relation(arities[&name]));
    }
    Ok(idb)
}

fn instance<'a, T: Theory>(
    name: &str,
    edb: &'a Database<T>,
    idb: &'a Database<T>,
) -> Result<&'a GenRelation<T>> {
    idb.get(name).map_or_else(|| edb.require(name), Ok)
}

fn check_budget(iterations: usize, opts: &FixpointOptions) -> Result<()> {
    if iterations >= opts.max_iterations {
        return Err(CqlError::NotClosed {
            reason: "reference fixpoint exhausted its iteration budget".into(),
            iterations,
        });
    }
    Ok(())
}

/// Fire one rule: fold the body literals left to right, then quantify
/// away the non-head variables and rename the head variables to output
/// columns. `relation(li, name)` is the relation positive literal `li`
/// reads.
fn fire<'a, T: Theory>(
    engine: &Engine<T>,
    fold: Fold,
    rule: &Rule<T>,
    relation: impl Fn(usize, &str) -> Result<&'a GenRelation<T>>,
) -> Result<Vec<GenTuple<T>>> {
    let mut acc = vec![GenTuple::top()];
    for (li, lit) in rule.body.iter().enumerate() {
        acc = match lit {
            Literal::Constraint(c) => {
                acc.iter().filter_map(|t| engine.conjoin(t, std::slice::from_ref(c))).collect()
            }
            Literal::Pos(a) => {
                conjoin_atom(engine, fold, &acc, relation(li, &a.relation)?, &a.vars)
            }
            Literal::Neg(_) => unreachable!("validated as a positive program"),
        };
        if acc.is_empty() {
            return Ok(Vec::new());
        }
    }
    let mut conjs: Vec<Vec<T::Constraint>> =
        acc.into_iter().map(|t| t.constraints().to_vec()).collect();
    for v in (0..rule.var_count()).filter(|v| !rule.head.vars.contains(v)) {
        let mut next = Vec::new();
        for conj in conjs {
            if !conj.iter().any(|c| T::vars(c).contains(&v)) {
                next.push(conj);
            } else if fold == Fold::Exhaustive {
                next.extend(T::eliminate(&conj, v)?);
            } else {
                next.extend(engine.eliminate_cached(&conj, v)?);
            }
        }
        conjs = next;
    }
    let mut position = vec![usize::MAX; rule.var_count().max(1)];
    for (i, &v) in rule.head.vars.iter().enumerate() {
        position[v] = i;
    }
    Ok(conjs
        .into_iter()
        .filter_map(|conj| {
            engine.intern(conj.iter().map(|c| T::rename(c, &|v| position[v])).collect())
        })
        .collect())
}

/// One step of the fold: conjoin every partial with the atom's tuples
/// renamed into rule variables, keeping the first copy of each result.
fn conjoin_atom<T: Theory>(
    engine: &Engine<T>,
    fold: Fold,
    acc: &[GenTuple<T>],
    rel: &GenRelation<T>,
    vars: &[Var],
) -> Vec<GenTuple<T>> {
    let renamed: Vec<Vec<T::Constraint>> =
        rel.tuples().iter().map(|u| u.rename(&|j| vars[j])).collect();
    let index =
        (fold == Fold::Pruned).then(|| SummaryIndex::<T>::build(renamed.iter().map(Vec::as_slice)));
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for partial in acc {
        let candidates = match &index {
            Some(index) => index.matches(&T::summary(partial.constraints())),
            None => (0..renamed.len()).collect(),
        };
        for i in candidates {
            if let Some(t) = engine.conjoin(partial, &renamed[i]) {
                if seen.insert(t.clone()) {
                    out.push(t);
                }
            }
        }
    }
    out
}
