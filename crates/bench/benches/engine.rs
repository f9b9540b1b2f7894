//! Engine microbenchmarks: the indexed subsumption store against the
//! quadratic reference store on the E8 transitive-closure insert stream,
//! and symbolic semi-naive under different executor thread counts.
//!
//! The companion acceptance check (`repro engine`) additionally reports
//! the entailment-check *counts* via `cql_trace` scoped metrics, which
//! are deterministic and hardware-independent.

use cql_bench::reference::quadratic_insert;
use cql_bench::{chain_edb_dense, tc_program_dense};
use cql_core::relation::{GenRelation, GenTuple};
use cql_dense::{Dense, DenseConstraint as C};
use cql_engine::datalog::{self, FixpointOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// Transitive-closure tuples of a chain, in ascending path length,
/// truncated to `n_tuples`.
fn tc_stream(nodes: i64, n_tuples: usize) -> Vec<Vec<C>> {
    let mut stream = Vec::with_capacity(n_tuples);
    'fill: for dist in 1..nodes {
        for i in 0..nodes - dist {
            stream.push(vec![C::eq_const(0, i), C::eq_const(1, i + dist)]);
            if stream.len() == n_tuples {
                break 'fill;
            }
        }
    }
    stream
}

fn insert_indexed(stream: &[Vec<C>]) -> usize {
    let mut rel = GenRelation::<Dense>::empty(2);
    for t in stream.iter().filter_map(|conj| GenTuple::new(conj.clone())) {
        rel.insert(t);
    }
    rel.len()
}

fn insert_quadratic(stream: &[Vec<C>]) -> usize {
    let mut store = Vec::new();
    for t in stream.iter().filter_map(|conj| GenTuple::<Dense>::new(conj.clone())) {
        quadratic_insert(&mut store, t);
    }
    store.len()
}

fn bench_subsumption(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/subsumption");
    group.sample_size(3);
    for &n in &[256usize, 1024] {
        let stream = tc_stream(64, n);
        group.bench_with_input(BenchmarkId::new("quadratic", n), &stream, |b, s| {
            b.iter(|| insert_quadratic(s));
        });
        group.bench_with_input(BenchmarkId::new("indexed", n), &stream, |b, s| {
            b.iter(|| insert_indexed(s));
        });
    }
    group.finish();
}

fn bench_parallel_seminaive(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/seminaive");
    group.sample_size(3);
    let db = chain_edb_dense(48);
    let program = tc_program_dense();
    for &threads in &[1usize, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            let opts = FixpointOptions { threads: t, ..Default::default() };
            b.iter(|| datalog::seminaive(&program, &db, &opts).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_subsumption, bench_parallel_seminaive);
criterion_main!(benches);
