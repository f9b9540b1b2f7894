//! `serve-read` and `serve-commit`: one mixed serving run, reported from
//! either side. A `Runtime` maintains the 64-chain closure behind a
//! two-worker `QueryServer`; two closed-loop clients share it:
//!
//! * the reader issues seeded point selects `T(a, b)` and range selects
//!   `T(a, y), lo ≤ y ≤ lo + 8`, each pinning an epoch;
//! * the writer replays a fixed seeded script of insert-then-retract edge
//!   pairs in four shapes (`island`, `tail`, `head`, `shortcut`) in whole
//!   cycles until the run's time is up.
//!
//! Each client submits to a `QueryServer` with one worker of its own, so
//! the two workers (one per core) never run more than two requests at
//! once, and the writer's commits always run on the same thread. With
//! one shared two-worker queue the commits land on either worker, and
//! the allocator's per-thread arenas then make the peak RSS of identical
//! runs range from 120 to 225 MiB.
//!
//! Both workloads run this same traffic. `serve-read` reports the
//! reader's round trips as its operations, `serve-commit` the writer's.

use crate::spans::Tracer;
use crate::stats::{median, ratio, Rng, Samples};
use crate::{Outcome, OPS, SHAPES};
use cql_core::{Database, GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint as C};
use cql_engine::datalog::FixpointOptions;
use cql_engine::trace::{Counter, MetricsSnapshot, TelemetryRegistry, UpdateStats};
use cql_engine::{QueryServer, Runtime, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chain edges `(i, i+1)`, `0 ≤ i < 64`: 2,080 closure tuples.
const CHAIN: i64 = 64;
const BASE_T: u64 = (CHAIN * (CHAIN + 1) / 2) as u64;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Distinct seeded reads, replayed cyclically.
const READS: usize = 4096;
/// The shortcut edge `(SHORTCUT, SHORTCUT + 5)` sits mid-chain: its
/// retract over-deletes every closure pair spanning it. Its cost depends
/// on the position, so the position is fixed rather than seeded.
const SHORTCUT: i64 = 29;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Read,
    Commit,
}

#[derive(Clone, Copy)]
enum Read {
    /// `T(a, b)`, `0 ≤ a < b ≤ 64`: exactly one hit.
    Point { a: i64, b: i64 },
    /// `T(a, y), lo ≤ y ≤ lo + 8` with `0 ≤ a < 64`, `lo + 8 ≤ 64`.
    Range { a: i64, lo: i64 },
}

impl Read {
    fn constraints(self) -> Vec<C> {
        match self {
            Read::Point { a, b } => vec![C::eq_const(0, a), C::eq_const(1, b)],
            Read::Range { a, lo } => {
                vec![C::eq_const(0, a), C::ge_const(1, lo), C::le_const(1, lo + 8)]
            }
        }
    }

    /// The closed-form hit count. No commit shape changes it: pendant
    /// and island edges only add tuples outside the queried window, and
    /// a shortcut adds none.
    fn expected_hits(self) -> u64 {
        match self {
            Read::Point { .. } => 1,
            Read::Range { a, lo } => (lo + 8 - lo.max(a + 1) + 1).max(0) as u64,
        }
    }
}

/// One step of the writer script.
#[derive(Clone, Copy)]
struct Step {
    shape: usize,
    insert: bool,
    edge: (i64, i64),
}

impl Step {
    /// `T` after this commit, with `E` one edge larger after an insert
    /// and back at the chain after a retract.
    fn expected(self) -> (u64, u64) {
        if self.insert {
            (CHAIN as u64 + 1, BASE_T + added(self.shape))
        } else {
            (CHAIN as u64, BASE_T)
        }
    }
}

/// Closure tuples one edge of each shape adds to the chain's closure.
fn added(shape: usize) -> u64 {
    [1, CHAIN as u64 + 1, CHAIN as u64 + 1, 0][shape]
}

/// The `(|E|, |T|)` pairs a reader may observe: the chain, or the chain
/// plus exactly one scripted edge.
fn allowed(e: u64, t: u64) -> bool {
    (e == CHAIN as u64 && t == BASE_T)
        || (e == CHAIN as u64 + 1 && (0..SHAPES.len()).any(|s| t == BASE_T + added(s)))
}

fn edge(a: i64, b: i64) -> GenTuple<Dense> {
    GenTuple::new(vec![C::eq_const(0, a), C::eq_const(1, b)]).expect("an edge is satisfiable")
}

/// The seeded inputs: the chain (edge order permuted), the writer
/// script (one insert-then-retract pair per shape, shape order and edge
/// positions from the seed) and the reader's queries.
struct Inputs {
    edb: Database<Dense>,
    script: Vec<Step>,
    reads: Vec<Read>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut edges: Vec<Vec<C>> =
        (0..CHAIN).map(|i| vec![C::eq_const(0, i), C::eq_const(1, i + 1)]).collect();
    rng.shuffle(&mut edges);
    let mut edb = Database::new();
    edb.insert("E", GenRelation::from_conjunctions(2, edges));

    let island = 1_000 + 2 * rng.below(1_000) as i64;
    let shape_edges = [(island, island + 1), (CHAIN, CHAIN + 1), (-1, 0), (SHORTCUT, SHORTCUT + 5)];
    let mut order: Vec<usize> = (0..SHAPES.len()).collect();
    rng.shuffle(&mut order);
    let script = order
        .into_iter()
        .flat_map(|shape| {
            let edge = shape_edges[shape];
            [Step { shape, insert: true, edge }, Step { shape, insert: false, edge }]
        })
        .collect();

    let reads = (0..READS)
        .map(|i| {
            let a = rng.below(CHAIN as u64) as i64;
            if i % 2 == 0 {
                Read::Point { a, b: a + 1 + rng.below((CHAIN - a) as u64) as i64 }
            } else {
                Read::Range { a, lo: rng.below((CHAIN - 8 + 1) as u64) as i64 }
            }
        })
        .collect();
    Inputs { edb, script, reads }
}

enum Req {
    Read(Read),
    Commit(Step),
}

/// A traced request carries its client span, so the handler's spans
/// nest under it.
struct Request {
    req: Req,
    trace: Option<(u32, u64)>,
}

#[derive(Default)]
struct Resp {
    epoch: u64,
    e_len: u64,
    t_len: u64,
    hits: u64,
    error: bool,
    handler_ns: u64,
    pin_ns: u64,
    query_ns: u64,
    commit_ns: u64,
    update: Option<UpdateStats>,
}

type Server = QueryServer<Request, Resp>;

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The reader's and the writer's servers, one worker each, reporting
/// into one registry (tenants `reader` and `writer`).
struct Servers {
    read: Server,
    write: Server,
    registry: Arc<TelemetryRegistry>,
}

impl Servers {
    fn start(runtime: &Arc<Runtime<Dense>>, tracer: &Arc<Tracer>) -> Servers {
        let registry = Arc::new(TelemetryRegistry::new());
        Servers {
            read: start_server(runtime, tracer, &registry),
            write: start_server(runtime, tracer, &registry),
            registry,
        }
    }

    fn shutdown(self) {
        self.read.shutdown();
        self.write.shutdown();
    }
}

fn start_server(
    runtime: &Arc<Runtime<Dense>>,
    tracer: &Arc<Tracer>,
    registry: &Arc<TelemetryRegistry>,
) -> Server {
    let runtime = Arc::clone(runtime);
    let tracer = Arc::clone(tracer);
    QueryServer::start(
        ServerConfig { workers: 1, queue_capacity: 64 },
        Arc::clone(registry),
        move |_tenant, request: Request| {
            let Some((parent, id)) = request.trace else {
                return handle(&runtime, request.req, None);
            };
            let open = tracer.open("server.handler", parent, id);
            let handler = open.id;
            let mut resp = handle(&runtime, request.req, Some((&tracer, handler, id)));
            resp.handler_ns = tracer.close(open);
            resp
        },
    )
}

/// Serve one request; with a tracer, time and span each layer call.
fn handle(runtime: &Runtime<Dense>, req: Req, trace: Option<(&Tracer, u32, u64)>) -> Resp {
    let mut resp = Resp::default();
    let timed = |name: &'static str, ns: &mut u64, f: &mut dyn FnMut()| match trace {
        Some((tracer, parent, id)) => {
            *ns = tracer.run(name, parent, id, || {
                let started = Instant::now();
                f();
                elapsed_ns(started)
            })
        }
        None => f(),
    };
    match req {
        Req::Read(read) => {
            let mut snap = None;
            timed("snapshot.pin", &mut resp.pin_ns, &mut || snap = Some(runtime.pin()));
            let snap = snap.expect("pinned");
            resp.epoch = snap.epoch();
            resp.e_len = snap.relation("E").map_or(0, |r| r.len() as u64);
            resp.t_len = snap.relation("T").map_or(0, |r| r.len() as u64);
            let mut hits = None;
            timed("runtime.query", &mut resp.query_ns, &mut || {
                hits = Some(runtime.query(&snap, "T", &read.constraints()));
            });
            match hits.expect("queried") {
                Ok(rel) => resp.hits = rel.len() as u64,
                Err(_) => resp.error = true,
            }
        }
        Req::Commit(step) => {
            let tuple = edge(step.edge.0, step.edge.1);
            let mut result = None;
            let name = if step.insert { "runtime.insert" } else { "runtime.retract" };
            timed(name, &mut resp.commit_ns, &mut || {
                result = Some(if step.insert {
                    runtime.insert("E", tuple.clone())
                } else {
                    runtime.retract("E", &tuple)
                });
            });
            match result.expect("committed") {
                Ok(stats) => resp.update = Some(stats),
                Err(_) => resp.error = true,
            }
            let snap = runtime.pin();
            resp.epoch = snap.epoch();
            resp.e_len = snap.relation("E").map_or(0, |r| r.len() as u64);
            resp.t_len = snap.relation("T").map_or(0, |r| r.len() as u64);
        }
    }
    resp
}

/// One client round trip: submit, then wait. `None` if the request was
/// shed. The round trip is spanned when `tracer` is given.
fn round_trip(
    server: &Server,
    tenant: &str,
    req: Req,
    tracer: Option<&Tracer>,
    id: u64,
) -> (Option<Resp>, u64) {
    let open = tracer.map(|t| t.open("client.request", 0, id));
    let trace = open.as_ref().map(|o| (o.id, id));
    let started = Instant::now();
    let resp = server.submit(tenant, Request { req, trace }).ticket().map(|t| t.wait());
    let ns = elapsed_ns(started);
    if let (Some(t), Some(o)) = (tracer, open) {
        t.close(o);
    }
    (resp, ns)
}

/// What one measured phase observed.
#[derive(Default)]
struct Phase {
    wall_s: f64,
    cycles: u64,
    reads: Samples,
    commits: Samples,
    read_attempts: u64,
    read_failures: u64,
    commit_attempts: u64,
    commit_failures: u64,
    shed: u64,
    hits: u64,
    queue_wait: Samples,
    query: Samples,
    pin: Samples,
    per_step: BTreeMap<(usize, bool), Vec<(u64, UpdateStats)>>,
}

/// Run the mixed traffic until `budget` seconds have passed and the
/// writer has finished its current script cycle.
fn phase(servers: &Servers, inputs: &Inputs, budget: f64, tracer: Option<&Tracer>) -> Phase {
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(budget);
    let (reader, writer) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut p = Phase::default();
            let mut last_epoch = 0;
            let mut i = 0usize;
            while !stop.load(Ordering::Acquire) {
                let read = inputs.reads[i % inputs.reads.len()];
                i += 1;
                let (resp, ns) =
                    round_trip(&servers.read, "reader", Req::Read(read), tracer, i as u64);
                p.read_attempts += 1;
                let Some(resp) = resp else {
                    p.shed += 1;
                    p.read_failures += 1;
                    continue;
                };
                let ok = !resp.error
                    && resp.hits == read.expected_hits()
                    && allowed(resp.e_len, resp.t_len)
                    && resp.epoch >= last_epoch;
                last_epoch = resp.epoch;
                p.read_failures += u64::from(!ok);
                p.hits += resp.hits;
                p.reads.push_ns(ns);
                if tracer.is_some() {
                    p.queue_wait.push_ns(ns.saturating_sub(resp.handler_ns));
                    p.query.push_ns(resp.query_ns);
                    p.pin.push_ns(resp.pin_ns);
                }
            }
            p
        });
        let writer = scope.spawn(|| {
            let mut p = Phase::default();
            let mut last_epoch = 0;
            let mut id = 1u64 << 40;
            while p.cycles == 0 || Instant::now() < deadline {
                for &step in &inputs.script {
                    id += 1;
                    let (resp, ns) =
                        round_trip(&servers.write, "writer", Req::Commit(step), tracer, id);
                    p.commit_attempts += 1;
                    let Some(resp) = resp else {
                        p.shed += 1;
                        p.commit_failures += 1;
                        continue;
                    };
                    let ok = !resp.error
                        && (resp.e_len, resp.t_len) == step.expected()
                        && resp.epoch > last_epoch;
                    last_epoch = resp.epoch;
                    p.commit_failures += u64::from(!ok);
                    p.commits.push_ns(ns);
                    if let Some(stats) = resp.update.filter(|_| tracer.is_some()) {
                        p.per_step
                            .entry((step.shape, step.insert))
                            .or_default()
                            .push((resp.commit_ns, stats));
                    }
                }
                p.cycles += 1;
            }
            stop.store(true, Ordering::Release);
            p
        });
        let writer = writer.join().expect("writer client panicked");
        let reader = reader.join().expect("reader client panicked");
        (reader, writer)
    });
    Phase {
        wall_s: started.elapsed().as_secs_f64(),
        cycles: writer.cycles,
        commits: writer.commits,
        commit_attempts: writer.commit_attempts,
        commit_failures: writer.commit_failures,
        per_step: writer.per_step,
        shed: reader.shed + writer.shed,
        ..reader
    }
}

pub fn run(side: Side, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let opts = FixpointOptions { threads: 1, ..Default::default() };
    let tracer = Arc::new(Tracer::new());
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let inputs = inputs(seed);
        let runtime = Runtime::new(cql_bench::tc_program_dense(), &inputs.edb, opts)
            .expect("the chain closure materializes");
        let runtime = Arc::new(runtime);
        let servers = Servers::start(&runtime, &tracer);
        setups.push(started.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            built = Some((inputs, runtime, servers));
        } else {
            servers.shutdown();
        }
    }
    let (inputs, runtime, servers) = built.expect("at least one set-up");
    let mut out = Outcome::new(median(&setups));
    out.note(format!("peak RSS after set-up {:.1} MiB", crate::stats::peak_rss_mb()));

    let budget = if trace { seconds / 2.0 } else { seconds };
    let plain = phase(&servers, &inputs, budget, None);
    let mut issued = plain.commits.len() as u64;
    let measured = if trace {
        let before = tenants(&servers.registry);
        let traced = phase(&servers, &inputs, budget, Some(&tracer));
        let after = tenants(&servers.registry);
        layers(&mut out, side, &runtime, &plain, &traced, &before, &after, &tracer);
        crate::write_spans(&mut out, &tracer, side.name(), seed);
        account(&mut out, &plain);
        issued += traced.commits.len() as u64;
        traced
    } else {
        plain
    };
    account(&mut out, &measured);
    servers.shutdown();

    // After whole script cycles every insert was retracted: the final
    // epoch is the chain and its closure again, and every commit landed.
    let end = runtime.pin();
    let end_ok = end.relation("E").map_or(0, GenRelation::len) as u64 == CHAIN as u64
        && end.relation("T").map_or(0, GenRelation::len) as u64 == BASE_T
        && runtime.store().commits() == issued;
    out.attempt(end_ok);

    let (ops, what) = match side {
        Side::Read => (&measured.reads, "read"),
        Side::Commit => (&measured.commits, "commit"),
    };
    out.ops(ops, measured.wall_s);
    out.note(format!(
        "read_qps {:.3} 1/s, read_p50_ms {:.4} ms, read_p99_ms {:.4} ms ({} reads)",
        ratio(measured.reads.len() as f64, measured.wall_s),
        measured.reads.median_ms(),
        measured.reads.quantile_ms(0.99),
        measured.reads.len()
    ));
    out.note(format!(
        "commits_per_s {:.3} 1/s, commit_p50_ms {:.4} ms, commit_p95_ms {:.4} ms ({} commits in {} script cycles)",
        ratio(measured.commits.len() as f64, measured.wall_s),
        measured.commits.median_ms(),
        measured.commits.quantile_ms(0.95),
        measured.commits.len(),
        measured.cycles
    ));
    out.note(format!("operation reported by this workload: {what} round trip"));
    out
}

impl Side {
    fn name(self) -> &'static str {
        match self {
            Side::Read => "serve-read",
            Side::Commit => "serve-commit",
        }
    }
}

/// Fold one phase's checks into the outcome.
fn account(out: &mut Outcome, p: &Phase) {
    out.attempted += p.read_attempts + p.commit_attempts;
    out.failed += p.read_failures + p.commit_failures;
}

fn tenants(registry: &TelemetryRegistry) -> [MetricsSnapshot; 2] {
    ["reader", "writer"].map(|t| registry.snapshot_scope(t).map(|r| r.metrics).unwrap_or_default())
}

/// The per-layer numbers of a traced serving phase.
#[allow(clippy::too_many_arguments)]
fn layers(
    out: &mut Outcome,
    side: Side,
    runtime: &Runtime<Dense>,
    plain: &Phase,
    traced: &Phase,
    before: &[MetricsSnapshot; 2],
    after: &[MetricsSnapshot; 2],
    tracer: &Tracer,
) {
    let reader = after[0].since(&before[0]);
    let writer = after[1].since(&before[1]);
    let cycles = traced.cycles as f64;
    let l = &mut out.layers;
    let per_cycle = |c: Counter| ratio(writer.get(c) as f64, cycles);
    let both = |c: Counter| (reader.get(c) + writer.get(c)) as f64;

    let inserts = per_cycle(Counter::TuplesInserted);
    let subsumed = per_cycle(Counter::TuplesSubsumed);
    let entails = per_cycle(Counter::EntailmentChecks);
    l.set("relation.inserts", inserts);
    l.set("relation.subsumed", subsumed);
    l.set("relation.entailment_checks", entails);
    l.set(
        "relation.sample_checks_per_insert",
        ratio(per_cycle(Counter::SampleSkips) + entails, inserts + subsumed),
    );
    if let Ok(t) = runtime.pin().relation("T") {
        crate::replay(l, t);
    }
    l.set("dense.qe_calls", per_cycle(Counter::QeCalls));
    let qe_ns = writer.hists.get(cql_engine::trace::hist::QE_CALL_NS).map_or(0, |h| h.sum());
    l.set("dense.qe_ms", ratio(qe_ns as f64 / 1e6, cycles));
    let (hits, calls) = (both(Counter::QeCacheHits), both(Counter::QeCalls));
    l.set("qe_cache.hit_ratio", ratio(hits, hits + calls));
    let (ih, im) = (both(Counter::InternHits), both(Counter::InternMisses));
    l.set("interner.hit_ratio", ratio(ih, ih + im));
    l.set("interner.entries", runtime.engine().interner().len() as f64);
    let probes = per_cycle(Counter::MultiwayProbes);
    l.set("plan.probes", probes);
    l.set("plan.yield", ratio(per_cycle(Counter::MultiwaySurvivors), probes));
    l.set("symbolic.rounds", per_cycle(Counter::FixpointRounds));
    if let Some(h) = writer.hists.get(cql_engine::trace::hist::FIXPOINT_ROUND_NS) {
        l.set("symbolic.round_ms.p50", h.quantile(0.5).unwrap_or(0) as f64 / 1e6);
        l.set("symbolic.round_ms.max", h.max().unwrap_or(0) as f64 / 1e6);
    }

    let updates: Vec<&UpdateStats> = traced.per_step.values().flatten().map(|(_, s)| s).collect();
    let rounds: u64 = updates.iter().map(|s| s.delta_rounds).sum();
    let adjust: u64 = updates.iter().map(|s| s.support_adjust).sum();
    let mean_delta = ratio(adjust as f64, rounds as f64).round() as usize;
    l.set("executor.map_us.p50", crate::executor_map_us(1, mean_delta.max(1)));

    l.set("runtime.query_ms.p50", traced.query.median_ms());
    l.set("runtime.query_ms.p99", traced.query.quantile_ms(0.99));
    l.set(
        "runtime.rows_examined_per_result",
        ratio(reader.get(Counter::PruneCandidates) as f64, traced.hits as f64),
    );
    l.set("runtime.read_qe_calls", reader.get(Counter::QeCalls) as f64);
    l.set("server.queue_wait_ms.p50", traced.queue_wait.median_ms());
    l.set("server.queue_wait_ms.p99", traced.queue_wait.quantile_ms(0.99));
    l.set("server.shed", traced.shed as f64);
    l.set("snapshot.pin_us.p50", traced.pin.median_ms() * 1e3);
    l.set("snapshot.pin_us.p99", traced.pin.quantile_ms(0.99) * 1e3);

    for (shape, shape_name) in SHAPES.iter().enumerate() {
        for (insert, op) in [(true, OPS[0]), (false, OPS[1])] {
            let Some(rows) = traced.per_step.get(&(shape, insert)) else { continue };
            let ms = |f: &dyn Fn(&(u64, UpdateStats)) -> u64| {
                let mut s = Samples::default();
                rows.iter().for_each(|r| s.push_ns(f(r)));
                s.median_ms()
            };
            l.set(&format!("snapshot.commit_ms.{shape_name}.{op}"), ms(&|r| r.0));
            l.set(
                &format!("snapshot.publish_ms.{shape_name}.{op}"),
                ms(&|r| r.0.saturating_sub(r.1.wall_ns)),
            );
            l.set(&format!("incremental.update_ms.{shape_name}.{op}"), ms(&|r| r.1.wall_ns));
            let solver: u64 = rows.iter().map(|r| r.1.qe_calls + r.1.entailment_checks).sum();
            l.set(
                &format!("incremental.solver_calls.{shape_name}.{op}"),
                ratio(solver as f64, rows.len() as f64),
            );
        }
    }
    l.set("incremental.delta_rounds", ratio(rounds as f64, cycles));
    l.set(
        "incremental.rederivations",
        ratio(updates.iter().map(|s| s.rederivations).sum::<u64>() as f64, cycles),
    );

    let (plain_ops, traced_ops) = match side {
        Side::Read => (&plain.reads, &traced.reads),
        Side::Commit => (&plain.commits, &traced.commits),
    };
    l.set("trace.overhead_p50_ms", traced_ops.median_ms() - plain_ops.median_ms());
    l.set("trace.spans", tracer.len() as f64);
}
