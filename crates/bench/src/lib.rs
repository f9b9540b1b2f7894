//! Shared workload builders and measurement helpers for the benchmark
//! suite and the `repro` harness (see EXPERIMENTS.md for the experiment
//! index).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod emitter;
pub mod gate;
pub mod reference;

pub use emitter::Emitter;

/// Every live `repro` section: canonical experiment id plus the legacy
/// names that select it. This is the single source of truth shared by
/// the `repro` argument parser (unknown ids are rejected against it)
/// and the snapshot test (every committed `BENCH_*.json` experiment id
/// must still have a live section to regenerate it).
pub const SECTIONS: &[(&str, &[&str])] = &[
    ("f1", &["fig1", "e1"]),
    ("t1", &["table1", "e2"]),
    ("f2", &["fig2", "e3"]),
    ("f3", &["fig3"]),
    ("e4", &["containment"]),
    ("e5", &["containment"]),
    ("e6", &["hull"]),
    ("e7", &["voronoi"]),
    ("e8", &["datalog"]),
    ("e9", &["equality"]),
    ("e10", &["boolean"]),
    ("e11", &["qbf"]),
    ("e12", &["index"]),
    ("e13", &["engine"]),
    ("e14", &["engine"]),
    ("e15", &["overhead"]),
    ("e16", &["filtering", "pruning"]),
    ("e17", &["multiway"]),
    ("e18", &["incremental"]),
    ("e19", &["telemetry"]),
    ("e20", &["recorder"]),
    ("e21", &["server"]),
    ("a1", &["ablation"]),
    ("a2", &["ablation"]),
    ("a3", &["ablation"]),
];

/// Is `id` a live section id (canonical or legacy, or `all`)?
#[must_use]
pub fn is_live_section(id: &str) -> bool {
    id == "all" || SECTIONS.iter().any(|(canon, aliases)| *canon == id || aliases.contains(&id))
}

use cql_arith::Rat;
use cql_core::{CalculusQuery, Database, Formula, GenRelation};
use cql_dense::{Dense, DenseConstraint};
use cql_engine::datalog::{Atom, Literal, Program, Rule};
use cql_equality::{EqConstraint, Equality};
use std::time::{Duration, Instant};

/// Time a closure, returning its result and the wall-clock duration.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Least-squares slope of `log y` against `log x` — the measured
/// polynomial degree of a scaling series.
#[must_use]
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// The transitive-closure program over theory-agnostic atoms,
/// instantiated for the dense theory.
#[must_use]
pub fn tc_program_dense() -> Program<Dense> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("E", vec![2, 1])),
            ],
        ),
    ])
}

/// The E17 path-join workload: wide rule bodies with real join
/// variables, so the multiway planner has something to order. The
/// binary fold pays one canonicalization per surviving intermediate
/// prefix (so `k−1` per result for a `k`-atom body); the multiway join
/// pays one per result — the wider the body, the bigger the gap.
///
/// * `T(x,w) ← T(x,y), E(y,z), E(z,w)` — recursive 3-atom body (odd-
///   distance reachability over a chain);
/// * `Q(x,v) ← E(x,y), E(y,z), E(z,w), E(w,v)` — non-recursive 4-atom
///   path join (distance-4 pairs);
/// * `P(x,u) ← E(x,y), T(y,z), E(z,w), T(w,v), E(v,u)` — 5-atom body
///   mixing EDB and IDB atoms;
/// * `W(x,z) ← R(x,y), S(y,z), C(z,x)` — triangle-closing rule over the
///   [`wedge_edb_dense`] relations, the canonical case where any
///   pairwise fold materializes far more intermediates than results.
#[must_use]
pub fn path_join_program_dense() -> Program<Dense> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 3]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
            ],
        ),
        Rule::new(
            Atom::new("Q", vec![0, 4]),
            vec![
                Literal::Pos(Atom::new("E", vec![0, 1])),
                Literal::Pos(Atom::new("E", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
                Literal::Pos(Atom::new("E", vec![3, 4])),
            ],
        ),
        Rule::new(
            Atom::new("P", vec![0, 5]),
            vec![
                Literal::Pos(Atom::new("E", vec![0, 1])),
                Literal::Pos(Atom::new("T", vec![1, 2])),
                Literal::Pos(Atom::new("E", vec![2, 3])),
                Literal::Pos(Atom::new("T", vec![3, 4])),
                Literal::Pos(Atom::new("E", vec![4, 5])),
            ],
        ),
        Rule::new(
            Atom::new("W", vec![0, 2]),
            vec![
                Literal::Pos(Atom::new("R", vec![0, 1])),
                Literal::Pos(Atom::new("S", vec![1, 2])),
                Literal::Pos(Atom::new("C", vec![2, 0])),
            ],
        ),
    ])
}

/// EDB for the E17 triangle-closing rule `W(x,z) ← R(x,y), S(y,z),
/// C(z,x)`: `R` and `S` are complete bipartite over `0..m` (`m²` pinned
/// pairs each) while `C` closes only the diagonal (`m` pairs). Every
/// `R` tuple joins every compatible `S` tuple, so a left-to-right fold
/// must canonicalize all `m³` wedges before `C` filters them down to
/// `m²` full matches; the multiway join intersects the `C` summary
/// levels up front and never materializes the wedges.
pub fn wedge_edb_dense(db: &mut Database<Dense>, m: i64) {
    let pairs = || {
        (0..m).flat_map(move |a| {
            (0..m).map(move |b| {
                vec![DenseConstraint::eq_const(0, a), DenseConstraint::eq_const(1, b)]
            })
        })
    };
    db.insert("R", GenRelation::from_conjunctions(2, pairs()));
    db.insert("S", GenRelation::from_conjunctions(2, pairs()));
    db.insert(
        "C",
        GenRelation::from_conjunctions(
            2,
            (0..m).map(|i| vec![DenseConstraint::eq_const(0, i), DenseConstraint::eq_const(1, i)]),
        ),
    );
}

/// Same program for the equality theory.
#[must_use]
pub fn tc_program_equality() -> Program<Equality> {
    Program::new(vec![
        Rule::new(Atom::new("T", vec![0, 1]), vec![Literal::Pos(Atom::new("E", vec![0, 1]))]),
        Rule::new(
            Atom::new("T", vec![0, 1]),
            vec![
                Literal::Pos(Atom::new("T", vec![0, 2])),
                Literal::Pos(Atom::new("E", vec![2, 1])),
            ],
        ),
    ])
}

/// A chain `E(i, i+1)` of pinned dense-order tuples.
#[must_use]
pub fn chain_edb_dense(n: i64) -> Database<Dense> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            (0..n).map(|i| {
                vec![DenseConstraint::eq_const(0, i), DenseConstraint::eq_const(1, i + 1)]
            }),
        ),
    );
    db
}

/// A chain over the equality theory.
#[must_use]
pub fn chain_edb_equality(n: i64) -> Database<Equality> {
    let mut db = Database::new();
    db.insert(
        "E",
        GenRelation::from_conjunctions(
            2,
            (0..n).map(|i| vec![EqConstraint::eq_const(0, i), EqConstraint::eq_const(1, i + 1)]),
        ),
    );
    db
}

/// The fixed composition query `∃z (E(x,z) ∧ E(z,y))` used for the
/// relational-calculus cells of Table 1.
#[must_use]
pub fn compose_query_dense() -> CalculusQuery<Dense> {
    CalculusQuery::new(
        Formula::atom("E", vec![0, 2]).and(Formula::atom("E", vec![2, 1])).exists(2),
        vec![0, 1],
    )
    .expect("well-formed")
}

/// The same composition query over the equality theory.
#[must_use]
pub fn compose_query_equality() -> CalculusQuery<Equality> {
    CalculusQuery::new(
        Formula::atom("E", vec![0, 2]).and(Formula::atom("E", vec![2, 1])).exists(2),
        vec![0, 1],
    )
    .expect("well-formed")
}

/// An interval relation `S(x) = ⋃ᵢ [3i, 3i+2]` of `n` generalized tuples.
#[must_use]
pub fn interval_relation(n: i64) -> GenRelation<Dense> {
    GenRelation::from_conjunctions(
        1,
        (0..n).map(|i| {
            vec![DenseConstraint::ge_const(0, 3 * i), DenseConstraint::le_const(0, 3 * i + 2)]
        }),
    )
}

/// Convenience: rational from integer.
#[must_use]
pub fn rat(v: i64) -> Rat {
    Rat::from(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_quadratic_series() {
        let pts: Vec<(f64, f64)> = (1..=6)
            .map(|i| {
                let x = f64::from(i) * 10.0;
                (x, 3.0 * x * x)
            })
            .collect();
        let s = loglog_slope(&pts);
        assert!((s - 2.0).abs() < 1e-9, "slope {s}");
    }

    #[test]
    fn workloads_build() {
        assert_eq!(chain_edb_dense(5).get("E").unwrap().len(), 5);
        assert_eq!(chain_edb_equality(5).get("E").unwrap().len(), 5);
        assert_eq!(interval_relation(4).len(), 4);
    }
}
