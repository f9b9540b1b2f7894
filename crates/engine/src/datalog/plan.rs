//! Per-rule multiway join planning for symbolic rule firing.
//!
//! A binary left-to-right fold over the body atoms pays a solver call
//! (an interner canonicalization) per *intermediate* pair that survives
//! summary pruning; with three or more relational body atoms the
//! intermediate products are the quadratic wall. The multiway join
//! instead picks a **variable elimination order** per rule (join
//! variables first, frequency-weighted, deterministic on ties), builds
//! one [`SummaryLevel`](crate::summary_index::SummaryLevel) per
//! (atom, variable) from the per-variable summary projections — interval
//! spans for the dense/poly box summaries, partition point-ranges for
//! equality, degenerate catch-all levels for the boolean masks — and
//! backtracks over atoms, leapfrog-intersecting the levels: a candidate
//! binding survives only if *every* body atom's summary admits it, and
//! the solver is called once per surviving **full** combination.
//!
//! Soundness is the summary soundness law plus interval-hull reasoning:
//! every filter only discards combinations whose conjunction is provably
//! unsatisfiable, so the multiway result equals the binary fold's (the
//! property tests in `cql-bench`'s `pruning_equivalence.rs` pin this
//! against its reference fold for all four theories). For box summaries
//! the per-variable hull intersection is also *exact* on the hulls
//! (Helly's theorem in one dimension: pairwise interval intersection at
//! each variable implies a common point per variable), which is why the
//! accumulated-bounds probe loses nothing against the pairwise
//! `may_intersect` checks it complements.
//!
//! `PlanCache` memoizes, per fixpoint run: the per-rule [`JoinPlan`]
//! (rule structure never changes mid-run), and the per-atom renamed
//! tuples / summaries / levels keyed by the source relation's content
//! version — so unchanged EDB relations are renamed and bucketed once
//! for the whole run, not once per round (the reuse is visible as
//! [`Counter::SummaryIndexReuses`]).

use crate::datalog::ast::{Literal, Program, Rule};
use crate::summary_index::SummaryTrie;
use cql_arith::Rat;
use cql_core::relation::{GenRelation, GenTuple};
use cql_core::summary::ConstraintSummary;
use cql_core::theory::{Theory, Var};
use cql_trace::{count, span, Counter, PlanStats};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The cached, rule-structure-only part of a multiway join: the variable
/// elimination order and the order in which body atoms are probed.
/// Depends only on the rule (never on the data or the executor width),
/// so it is deterministic across runs and thread counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Variable elimination order: every variable occurring in a
    /// relational body atom, most-shared first (ties: smaller variable
    /// index first). Join variables — those shared by several atoms —
    /// therefore lead.
    pub var_order: Vec<Var>,
    /// Body-literal indices of the relational (positive or negated)
    /// atoms, ordered by the earliest `var_order` position they cover
    /// (ties: body order). The backtracking search binds atoms in this
    /// order.
    pub atom_order: Vec<usize>,
}

impl JoinPlan {
    /// Plan one rule. Pure function of the rule's body shape.
    #[must_use]
    pub fn build<T: Theory>(rule: &Rule<T>) -> JoinPlan {
        let mut sp = span("join_plan.build", "engine");
        let n = rule.var_count();
        let mut freq = vec![0usize; n.max(1)];
        let mut rel_lits: Vec<usize> = Vec::new();
        for (li, lit) in rule.body.iter().enumerate() {
            let atom = match lit {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Constraint(_) => continue,
            };
            rel_lits.push(li);
            for &v in &distinct_vars(&atom.vars) {
                freq[v] += 1;
            }
        }
        let mut var_order: Vec<Var> = (0..n).filter(|&v| freq[v] > 0).collect();
        var_order.sort_by_key(|&v| (std::cmp::Reverse(freq[v]), v));
        let mut position = vec![usize::MAX; n.max(1)];
        for (i, &v) in var_order.iter().enumerate() {
            position[v] = i;
        }
        let mut atom_order = rel_lits;
        atom_order.sort_by_key(|&li| {
            let atom = match &rule.body[li] {
                Literal::Pos(a) | Literal::Neg(a) => a,
                Literal::Constraint(_) => unreachable!("rel_lits holds relational literals"),
            };
            let earliest = atom.vars.iter().map(|&v| position[v]).min().unwrap_or(usize::MAX);
            (earliest, li)
        });
        sp.arg("var_order", var_order.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","));
        JoinPlan { var_order, atom_order }
    }
}

fn distinct_vars(vars: &[Var]) -> Vec<Var> {
    let mut out = vars.to_vec();
    out.sort_unstable();
    out.dedup();
    out
}

/// One body atom's data for the join, renamed into the rule's variable
/// space and summarized once per (relation version, variable map). The
/// per-variable levels are built lazily, on the first probe.
pub(crate) struct AtomData<T: Theory> {
    /// Tuple conjunctions renamed into rule variables.
    pub renamed: Vec<Vec<T::Constraint>>,
    /// One summary per renamed conjunction.
    pub summaries: Vec<T::Summary>,
    /// Distinct rule variables the atom binds.
    pub vars: Vec<Var>,
    trie: OnceLock<SummaryTrie>,
}

impl<T: Theory> AtomData<T> {
    fn build(rel: &GenRelation<T>, atom_vars: &[Var]) -> AtomData<T> {
        let renamed: Vec<Vec<T::Constraint>> =
            rel.tuples().iter().map(|u| u.rename(&|j| atom_vars[j])).collect();
        let summaries: Vec<T::Summary> = renamed.iter().map(|c| T::summary(c)).collect();
        AtomData { renamed, summaries, vars: distinct_vars(atom_vars), trie: OnceLock::new() }
    }

    /// Per-variable summary levels.
    pub fn trie(&self) -> &SummaryTrie {
        self.trie.get_or_init(|| SummaryTrie::build(&self.summaries, &self.vars))
    }
}

/// Per-rule probe/survivor telemetry accumulated over a fixpoint run
/// (the source of the EXPLAIN `plans` section).
#[derive(Clone, Copy, Debug, Default)]
struct RuleTelemetry {
    probes: u64,
    survivors: u64,
}

/// Backstop against unbounded growth: IDB and delta relations get a new
/// content version every round, so their stale entries accumulate. The
/// cap bounds *each* generation of the segmented cache, so at most
/// `2 × ATOM_CACHE_MAX` entries are retained.
const ATOM_CACHE_MAX: usize = 512;

/// Per-fixpoint-run cache of join plans and per-atom join structures.
///
/// Plans are keyed by rule index (rule structure is immutable for a
/// run); atom data is keyed by the source relation's content version
/// plus the atom's variable map — a [`GenRelation::version`] is renewed
/// on every mutation, so version equality proves the cached renamed
/// tuples and levels are still exact.
///
/// Atom entries are held in two generations (`hot` / `cold`) with
/// segmented eviction: overflow rotates hot into cold (dropping the old
/// cold generation) instead of clearing everything, and a cold hit
/// promotes the entry back to hot. A steadily re-probed working set
/// therefore survives unbounded churn from one-shot versions — under
/// the previous clear-on-overflow policy a long-lived runtime dropped
/// every hot plan each time the cap was reached.
pub(crate) struct PlanCache<T: Theory> {
    plans: Vec<Option<Arc<JoinPlan>>>,
    telemetry: Vec<RuleTelemetry>,
    hot: HashMap<(u64, Vec<Var>), Arc<AtomData<T>>>,
    cold: HashMap<(u64, Vec<Var>), Arc<AtomData<T>>>,
}

impl<T: Theory> PlanCache<T> {
    pub fn new(rules: usize) -> PlanCache<T> {
        PlanCache {
            plans: vec![None; rules],
            telemetry: vec![RuleTelemetry::default(); rules],
            hot: HashMap::new(),
            cold: HashMap::new(),
        }
    }

    /// The rule's plan, building it on first use. Reuse counts
    /// [`Counter::PlanCacheHits`].
    pub fn plan(&mut self, rule_idx: usize, rule: &Rule<T>) -> Arc<JoinPlan> {
        if let Some(plan) = &self.plans[rule_idx] {
            count(Counter::PlanCacheHits, 1);
            return Arc::clone(plan);
        }
        let plan = Arc::new(JoinPlan::build(rule));
        self.plans[rule_idx] = Some(Arc::clone(&plan));
        plan
    }

    /// The atom's renamed tuples / summaries / levels, rebuilt only when
    /// the source relation's content changed. Reuse counts
    /// [`Counter::SummaryIndexReuses`].
    pub fn atom_data(&mut self, rel: &GenRelation<T>, atom_vars: &[Var]) -> Arc<AtomData<T>> {
        let key = (rel.version(), atom_vars.to_vec());
        if let Some(data) = self.hot.get(&key) {
            // Version equality must prove content equality: a mutation
            // path that forgot to bump the version would serve a stale
            // trie here. Tuple count is a cheap necessary condition.
            debug_assert_eq!(
                rel.len(),
                data.renamed.len(),
                "GenRelation content changed without a version bump"
            );
            count(Counter::SummaryIndexReuses, 1);
            return Arc::clone(data);
        }
        let data = match self.cold.remove(&key) {
            Some(data) => {
                debug_assert_eq!(rel.len(), data.renamed.len());
                count(Counter::SummaryIndexReuses, 1);
                data
            }
            None => Arc::new(AtomData::build(rel, atom_vars)),
        };
        if self.hot.len() >= ATOM_CACHE_MAX {
            // Segmented eviction: the hot generation becomes cold (the old
            // cold generation is dropped); live entries are promoted back
            // out of cold on their next hit.
            self.cold = std::mem::take(&mut self.hot);
        }
        self.hot.insert(key, Arc::clone(&data));
        data
    }

    /// Fold one firing's probe/survivor counts into the rule's totals.
    pub fn record(&mut self, rule_idx: usize, probes: u64, survivors: u64) {
        self.telemetry[rule_idx].probes += probes;
        self.telemetry[rule_idx].survivors += survivors;
    }

    /// EXPLAIN rows for every rule fired this run (every firing is
    /// planned).
    pub fn plan_stats(&self, program: &Program<T>) -> Vec<PlanStats> {
        self.plans
            .iter()
            .enumerate()
            .filter_map(|(i, plan)| {
                let plan = plan.as_ref()?;
                Some(PlanStats {
                    rule: program.rules[i].to_string(),
                    var_order: plan.var_order.iter().map(|&v| v as u64).collect(),
                    atoms: plan.atom_order.len() as u64,
                    probes: self.telemetry[i].probes,
                    survivors: self.telemetry[i].survivors,
                })
            })
            .collect()
    }
}

/// Closed-interval intersection of accumulated per-variable bounds with
/// one summary's ranged dimensions; `false` means the candidate is
/// jointly infeasible with the bounds and must be rejected.
fn tighten<S: ConstraintSummary>(bounds: &mut [Option<(Rat, Rat)>], summary: &S) -> bool {
    for v in summary.ranged_dims() {
        if v >= bounds.len() {
            continue;
        }
        let Some((rlo, rhi)) = summary.range(v) else { continue };
        bounds[v] = match bounds[v].take() {
            None => Some((rlo, rhi)),
            Some((lo, hi)) => {
                let lo = if rlo > lo { rlo } else { lo };
                let hi = if rhi < hi { rhi } else { hi };
                if lo > hi {
                    return false;
                }
                Some((lo, hi))
            }
        };
    }
    true
}

/// Ascending-sorted intersection of two candidate id lists.
fn intersect_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The backtracking state of one multiway join execution.
struct Search<'a, T: Theory> {
    atoms: &'a [Arc<AtomData<T>>],
    base: &'a GenTuple<T>,
    base_summary: T::Summary,
    chosen: Vec<usize>,
    out: Vec<Vec<T::Constraint>>,
    probes: u64,
}

impl<T: Theory> Search<'_, T> {
    fn descend(&mut self, depth: usize, bounds: &[Option<(Rat, Rat)>]) {
        if depth == self.atoms.len() {
            let mut conj = self.base.constraints().to_vec();
            for (atom, &i) in self.atoms.iter().zip(&self.chosen) {
                conj.extend_from_slice(&atom.renamed[i]);
            }
            self.out.push(conj);
            return;
        }
        let atom = &self.atoms[depth];
        // Leapfrog step: intersect the candidate sets of every level the
        // accumulated bounds can probe. Candidates are kept in ascending
        // tuple order so enumeration is deterministic regardless of
        // bucket layout.
        let mut cand: Option<Vec<usize>> = None;
        for &v in &atom.vars {
            if bounds[v].is_none() {
                continue;
            }
            let Some(level) = atom.trie().level(v) else { continue };
            let mut ids = level.candidates(bounds[v].clone());
            ids.sort_unstable();
            cand = Some(match cand {
                None => ids,
                Some(prev) => intersect_sorted(&prev, &ids),
            });
            if cand.as_ref().is_some_and(Vec::is_empty) {
                return;
            }
        }
        let cand = cand.unwrap_or_else(|| (0..atom.renamed.len()).collect());
        for i in cand {
            self.probes += 1;
            let s = &atom.summaries[i];
            if !s.may_intersect(&self.base_summary) {
                continue;
            }
            if !self
                .chosen
                .iter()
                .enumerate()
                .all(|(d, &j)| s.may_intersect(&self.atoms[d].summaries[j]))
            {
                continue;
            }
            let mut next_bounds = bounds.to_vec();
            if !tighten(&mut next_bounds, s) {
                continue;
            }
            self.chosen.push(i);
            self.descend(depth + 1, &next_bounds);
            self.chosen.pop();
        }
    }
}

/// Execute a multiway join: backtrack over `atoms` (already in plan
/// order), handing the solver one conjunction per surviving full
/// combination. Returns the surviving raw conjunctions plus the probe
/// and survivor counts. The summary search itself is serial (it is
/// cheap interval arithmetic); the surviving canonicalizations — the
/// actual solver calls — are batched through the engine's executor by
/// the caller.
pub(crate) fn multiway_join<T: Theory>(
    atoms: &[Arc<AtomData<T>>],
    base: &GenTuple<T>,
    var_count: usize,
) -> (Vec<Vec<T::Constraint>>, u64, u64) {
    let mut sp = span("multiway.join", "engine");
    let base_summary = T::summary(base.constraints());
    let mut bounds: Vec<Option<(Rat, Rat)>> = vec![None; var_count.max(1)];
    if !tighten(&mut bounds, &base_summary) {
        return (Vec::new(), 0, 0);
    }
    let mut search = Search {
        atoms,
        base,
        base_summary,
        chosen: Vec::with_capacity(atoms.len()),
        out: Vec::new(),
        probes: 0,
    };
    search.descend(0, &bounds);
    let survivors = search.out.len() as u64;
    sp.arg("probes", search.probes);
    sp.arg("survivors", survivors);
    (search.out, search.probes, survivors)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::ast::Atom;
    use cql_dense::Dense;

    /// T(x0,x3) ← E(x0,x1), E(x1,x2), E(x2,x3): the E17 path-join shape.
    fn path_rule() -> Rule<Dense> {
        Rule::new(
            Atom::new("T", vec![0, 3]),
            vec![
                Literal::Pos(Atom::new("E", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
            ],
        )
    }

    #[test]
    fn plan_puts_join_variables_first_deterministically() {
        let plan = JoinPlan::build(&path_rule());
        // x1 and x2 occur in two atoms each; x0 and x3 in one. Ties break
        // toward the smaller variable index.
        assert_eq!(plan.var_order, vec![1, 2, 0, 3]);
        assert_eq!(plan.atom_order, vec![0, 1, 2]);
    }

    #[test]
    fn plan_is_identical_across_thread_counts() {
        // Planning is a pure function of the rule: rebuilding it from
        // any number of concurrent threads (the executor-width analogue)
        // yields the identical order, so EXPLAIN output is stable across
        // CQL_ENGINE_THREADS settings.
        let baseline = JoinPlan::build(&path_rule());
        let plans: Vec<JoinPlan> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| JoinPlan::build(&path_rule()))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for plan in plans {
            assert_eq!(plan, baseline);
        }
    }

    #[test]
    fn constraint_literals_do_not_join() {
        use cql_dense::DenseConstraint;
        let rule: Rule<Dense> = Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Constraint(DenseConstraint::lt(0, 1)),
                Literal::Pos(Atom::new("E", vec![0, 1])),
            ],
        );
        let plan = JoinPlan::build(&rule);
        assert_eq!(plan.atom_order, vec![1]);
        assert_eq!(plan.var_order, vec![0, 1]);
    }

    #[test]
    fn sorted_intersection_is_exact() {
        assert_eq!(intersect_sorted(&[0, 2, 4, 6], &[1, 2, 3, 6]), vec![2, 6]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<usize>::new());
    }

    #[test]
    fn atom_cache_never_serves_stale_data_across_mutations() {
        use cql_core::relation::{GenRelation, GenTuple};
        use cql_dense::DenseConstraint;
        let tup = |a: i64, b: i64| {
            GenTuple::<Dense>::new(vec![
                DenseConstraint::eq_const(0, a),
                DenseConstraint::eq_const(1, b),
            ])
            .unwrap()
        };
        let mut cache: PlanCache<Dense> = PlanCache::new(0);
        let mut rel: GenRelation<Dense> = GenRelation::empty(2);
        rel.insert(tup(1, 2));
        let vars = vec![0, 1];
        let first = cache.atom_data(&rel, &vars);
        assert_eq!(first.renamed.len(), 1);
        // Every mutation path (insert, eviction, removal) must renew the
        // version, so the cache key changes and fresh data is built — a
        // stale SummaryTrie would echo the old tuple count.
        rel.insert(tup(3, 4));
        let second = cache.atom_data(&rel, &vars);
        assert_eq!(second.renamed.len(), 2);
        assert!(rel.remove(&tup(1, 2)));
        let third = cache.atom_data(&rel, &vars);
        assert_eq!(third.renamed.len(), 1);
        // An unchanged relation reuses the cached entry (same Arc).
        let fourth = cache.atom_data(&rel, &vars);
        assert!(Arc::ptr_eq(&third, &fourth));
    }

    #[test]
    fn hot_working_set_survives_cache_churn() {
        use cql_core::relation::{GenRelation, GenTuple};
        use cql_dense::DenseConstraint;
        let tup = |a: i64, b: i64| {
            GenTuple::<Dense>::new(vec![
                DenseConstraint::eq_const(0, a),
                DenseConstraint::eq_const(1, b),
            ])
            .unwrap()
        };
        let vars = vec![0, 1];
        let mut cache: PlanCache<Dense> = PlanCache::new(0);
        // A stable working set of relations, re-probed every round — the
        // EDB atoms of a long-lived runtime.
        let stable: Vec<GenRelation<Dense>> = (0..4)
            .map(|i| {
                let mut r = GenRelation::empty(2);
                r.insert(tup(i, i + 1));
                r
            })
            .collect();
        let first: Vec<_> = stable.iter().map(|r| cache.atom_data(r, &vars)).collect();
        // A churning relation whose version changes every round — the
        // delta/IDB atoms that flood the cache with one-shot keys. Run
        // well past the cap so several generation rotations happen.
        let mut churner: GenRelation<Dense> = GenRelation::empty(2);
        let mut hits = 0usize;
        let mut probes = 0usize;
        for round in 0..(3 * ATOM_CACHE_MAX as i64) {
            churner.insert(tup(round + 100, round + 101));
            cache.atom_data(&churner, &vars);
            for (r, old) in stable.iter().zip(&first) {
                probes += 1;
                if Arc::ptr_eq(&cache.atom_data(r, &vars), old) {
                    hits += 1;
                }
            }
        }
        // Segmented eviction pins a 100% hit rate for the working set:
        // rotation demotes it to the cold generation at worst, and the
        // next probe promotes it back. (The previous clear-on-overflow
        // policy rebuilt every entry each time the cap was reached.)
        assert_eq!(hits, probes, "working set must survive churn without rebuilds");
    }
}
