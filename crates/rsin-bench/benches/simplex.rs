//! Bench: the from-scratch simplex solver on assignment-problem LPs
//! (the structure multicommodity scheduling produces), checking the
//! paper's "empirically linear" claim qualitatively.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rsin_lp::{standard, tableau, Cmp, Problem, Sense};
use std::hint::black_box;

fn assignment_lp(k: usize) -> Problem {
    let mut p = Problem::new(Sense::Minimize);
    let mut vars = Vec::with_capacity(k * k);
    for i in 0..k {
        for j in 0..k {
            // Deterministic pseudo-random costs.
            let cost = ((i * 31 + j * 17) % 13) as f64;
            vars.push(p.add_var(format!("x{i}_{j}"), 0.0, 1.0, cost));
        }
    }
    for i in 0..k {
        let row: Vec<_> = (0..k).map(|j| (vars[i * k + j], 1.0)).collect();
        p.add_constraint(row, Cmp::Eq, 1.0);
        let col: Vec<_> = (0..k).map(|j| (vars[j * k + i], 1.0)).collect();
        p.add_constraint(col, Cmp::Eq, 1.0);
    }
    p
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_assignment");
    group.sample_size(20);
    for k in [4usize, 6, 8, 10] {
        let p = assignment_lp(k);
        group.bench_with_input(BenchmarkId::new("tableau", k), &p, |b, p| {
            b.iter(|| {
                let sf = standard::standardize(p);
                let r = tableau::solve_standard(&sf.a, &sf.b, &sf.c).unwrap();
                black_box(sf.objective(r.objective))
            })
        });
        group.bench_with_input(BenchmarkId::new("revised", k), &p, |b, p| {
            b.iter(|| black_box(p.solve().unwrap().objective))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simplex);
criterion_main!(benches);
