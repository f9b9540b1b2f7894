//! `tc-chain` and `tc-boxes`: one-shot semi-naive transitive closure,
//! a fresh `Engine` per evaluation (the cold cost a one-shot user pays).

use crate::spans::Tracer;
use crate::stats::{median, ratio, Rng, Samples};
use crate::Outcome;
use cql_core::{Database, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint as C};
use cql_engine::datalog::{self, FixpointOptions, FixpointResult, Program};
use cql_engine::trace::{hist, Counter, MetricsScope, MetricsSnapshot};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nodes of the `tc-chain` chain minus one: edges `(i, i+1)`, `0 ≤ i < 64`.
const CHAIN_EDGES: i64 = 64;
/// Overlapping boxes of `tc-boxes`.
const BOXES: i64 = 32;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 51;
/// Evaluations a run makes at least, however short `--seconds` is.
const MIN_EVALS: usize = 1;

#[derive(Clone, Copy)]
pub enum Shape {
    /// A 64-edge chain of pinned points, `E(i, i+1)`.
    Chain,
    /// 32 overlapping non-point edges
    /// `{2i ≤ x ≤ 2i+3, x < y, 2i+1 ≤ y ≤ 2i+5}`.
    Boxes,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Chain => "tc-chain",
            Shape::Boxes => "tc-boxes",
        }
    }

    fn threads(self) -> usize {
        match self {
            Shape::Chain => 1,
            Shape::Boxes => 2,
        }
    }

    /// The EDB, in an order the seed permutes.
    fn edb(self, seed: u64) -> Database<Dense> {
        let mut edges: Vec<Vec<C>> = match self {
            Shape::Chain => {
                (0..CHAIN_EDGES).map(|i| vec![C::eq_const(0, i), C::eq_const(1, i + 1)]).collect()
            }
            Shape::Boxes => (0..BOXES)
                .map(|i| {
                    vec![
                        C::ge_const(0, 2 * i),
                        C::le_const(0, 2 * i + 3),
                        C::lt(0, 1),
                        C::ge_const(1, 2 * i + 1),
                        C::le_const(1, 2 * i + 5),
                    ]
                })
                .collect(),
        };
        Rng::new(seed).shuffle(&mut edges);
        let mut db = Database::new();
        db.insert("E", GenRelation::from_conjunctions(2, edges));
        db
    }
}

/// `T` rendered tuple by tuple, sorted: the form the oracle compares.
fn render(result: &FixpointResult<Dense>) -> Vec<String> {
    let mut out: Vec<String> = result
        .idb
        .get("T")
        .map_or_else(Vec::new, |t| t.tuples().iter().map(ToString::to_string).collect());
    out.sort_unstable();
    out
}

/// The expected closure, computed outside every timed region: the closed
/// form `{(i, j) : 0 ≤ i < j ≤ 64}` for the chain, the naive `T_P`
/// fixpoint for the boxes.
fn expected(shape: Shape, program: &Program<Dense>, edb: &Database<Dense>) -> Vec<String> {
    match shape {
        Shape::Chain => {
            let mut out: Vec<String> = (0..CHAIN_EDGES)
                .flat_map(|i| (i + 1..=CHAIN_EDGES).map(move |j| (i, j)))
                .map(|(i, j)| {
                    GenTuple::<Dense>::new(vec![C::eq_const(0, i), C::eq_const(1, j)])
                        .expect("a point is satisfiable")
                        .to_string()
                })
                .collect();
            out.sort_unstable();
            out
        }
        Shape::Boxes => datalog::naive(program, edb, &FixpointOptions::default())
            .map(|r| render(&r))
            .unwrap_or_default(),
    }
}

pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let program = cql_bench::tc_program_dense();
    let opts = FixpointOptions { threads: shape.threads(), ..Default::default() };

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut edb = Database::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        edb = black_box(shape.edb(seed));
        black_box(opts.engine::<Dense>());
        setups.push(started.elapsed().as_secs_f64());
    }
    let want = expected(shape, &program, &edb);

    let mut out = Outcome::new(median(&setups));
    let budget = if trace { seconds / 2.0 } else { seconds };
    let (plain, _) = measure(&program, &edb, &opts, &want, budget, None, &mut out);
    let ops = if trace {
        let tracer = Tracer::new();
        let scope = MetricsScope::enter("perfbench.traced");
        let (timed, last) = measure(&program, &edb, &opts, &want, budget, Some(&tracer), &mut out);
        let metrics = scope.snapshot();
        drop(scope);
        let traced = Traced { evals: timed.len() as f64, metrics, last };
        layers(&mut out, &opts, &plain, &timed, &traced, &tracer);
        crate::write_spans(&mut out, &tracer, shape.name(), seed);
        timed
    } else {
        plain
    };
    out.ops(&ops, ops.sum_ns() as f64 / 1e9);
    out.note(format!(
        "eval_s {:.6} s (median of {} evaluations); |T| = {} tuples; threads = {}",
        ops.median_ms() / 1e3,
        ops.len(),
        want.len(),
        opts.threads
    ));
    out
}

/// The last evaluation's closure and its engine's interner size.
type Last = Option<(GenRelation<Dense>, usize)>;

/// Evaluate repeatedly for `budget` seconds, checking every result;
/// with a tracer, span each evaluation's steps.
fn measure(
    program: &Program<Dense>,
    edb: &Database<Dense>,
    opts: &FixpointOptions,
    want: &[String],
    budget: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> (Samples, Last) {
    let mut samples = Samples::default();
    let mut last = None;
    let deadline = Instant::now() + Duration::from_secs_f64(budget);
    while samples.len() < MIN_EVALS || Instant::now() < deadline {
        let request = samples.len() as u64 + 1;
        let root = tracer.map(|t| t.open("tc.evaluation", 0, request));
        let parent = root.as_ref().map_or(0, |r| r.id);
        let step = |name: &'static str, f: &mut dyn FnMut()| match tracer {
            Some(t) => t.run(name, parent, request, f),
            None => f(),
        };
        let mut engine = None;
        step("engine.new", &mut || engine = Some(opts.engine::<Dense>()));
        let engine = engine.expect("engine built");
        let mut result = None;
        let mut elapsed = Duration::ZERO;
        step("datalog.seminaive_with", &mut || {
            let started = Instant::now();
            result = Some(black_box(datalog::seminaive_with(&engine, program, edb, opts)));
            elapsed = started.elapsed();
        });
        let result = result.expect("evaluated");
        samples.push(elapsed);
        let mut ok = false;
        step("oracle.compare", &mut || ok = result.as_ref().is_ok_and(|r| render(r) == want));
        out.attempt(ok);
        if tracer.is_some() {
            last = result
                .ok()
                .and_then(|r| r.idb.get("T").cloned())
                .map(|t| (t, engine.interner().len()));
        }
        if let (Some(t), Some(root)) = (tracer, root) {
            t.close(root);
        }
    }
    (samples, last)
}

/// What the traced evaluations recorded.
struct Traced {
    evals: f64,
    metrics: MetricsSnapshot,
    last: Last,
}

/// The per-layer numbers of a traced run; counts are per evaluation.
fn layers(
    out: &mut Outcome,
    opts: &FixpointOptions,
    plain: &Samples,
    timed: &Samples,
    traced: &Traced,
    tracer: &Tracer,
) {
    let l = &mut out.layers;
    let per = |c| ratio(traced.metrics.get(c) as f64, traced.evals);
    let histogram = |name| traced.metrics.hists.get(name);
    let inserts = per(Counter::TuplesInserted);
    let subsumed = per(Counter::TuplesSubsumed);
    let entails = per(Counter::EntailmentChecks);
    l.set("relation.inserts", inserts);
    l.set("relation.subsumed", subsumed);
    l.set("relation.entailment_checks", entails);
    l.set(
        "relation.sample_checks_per_insert",
        ratio(per(Counter::SampleSkips) + entails, inserts + subsumed),
    );
    l.set("dense.qe_calls", per(Counter::QeCalls));
    let qe_ns = histogram(hist::QE_CALL_NS).map_or(0, |h| h.sum());
    l.set("dense.qe_ms", ratio(qe_ns as f64 / 1e6, traced.evals));
    let (hits, calls) = (per(Counter::QeCacheHits), per(Counter::QeCalls));
    l.set("qe_cache.hit_ratio", ratio(hits, hits + calls));
    let (ih, im) = (per(Counter::InternHits), per(Counter::InternMisses));
    l.set("interner.hit_ratio", ratio(ih, ih + im));
    let probes = per(Counter::MultiwayProbes);
    l.set("plan.probes", probes);
    l.set("plan.yield", ratio(per(Counter::MultiwaySurvivors), probes));
    let rounds = per(Counter::FixpointRounds);
    l.set("symbolic.rounds", rounds);
    if let Some(h) = histogram(hist::FIXPOINT_ROUND_NS) {
        l.set("symbolic.round_ms.p50", h.quantile(0.5).unwrap_or(0) as f64 / 1e6);
        l.set("symbolic.round_ms.max", h.max().unwrap_or(0) as f64 / 1e6);
    }
    if let Some((t, interned)) = &traced.last {
        crate::replay(l, t);
        l.set("interner.entries", *interned as f64);
        let mean_delta = ratio(t.len() as f64, rounds).round() as usize;
        l.set("executor.map_us.p50", crate::executor_map_us(opts.threads, mean_delta.max(1)));
    }
    l.set("trace.overhead_p50_ms", timed.median_ms() - plain.median_ms());
    l.set("trace.spans", tracer.len() as f64);
}
