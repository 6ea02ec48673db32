//! ANALYTIC — Patel's closed-form banyan model vs. simulated routing.
//!
//! The paper cites Patel \[37\] and Dias & Jump \[11\] for the performance
//! of address-mapped interconnection networks. This experiment pits
//! Patel's per-stage recurrence against this workspace's own simulation:
//! every processor issues a request with probability `p0` toward a
//! uniformly random destination; requests are served in random order by
//! destination-tag routing (the conventional discipline). The measured
//! acceptance rate should track the analytic curve — a calibration check
//! that the rebuilt simulator behaves like the published models — and the
//! RSIN's flow-based scheduler (free to pick *any* free resource) should
//! beat both.

use rand::seq::SliceRandom;
use rand::Rng;
use rsin_bench::{emit_table, parse_or_exit};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{MaxFlowScheduler, Scheduler};
use rsin_sim::analytic::patel_acceptance;
use rsin_sim::metrics::Sample;
use rsin_sim::workload::trial_rng;
use rsin_topology::builders::omega;
use rsin_topology::CircuitState;

fn main() {
    let trials = std::env::args()
        .nth(1)
        .map_or(2000u64, |a| parse_or_exit("trials", &a));
    let n = 16usize;
    let stages = 4usize;
    let net = omega(n).unwrap();
    println!(
        "ANALYTIC — acceptance on omega-{n} under uniform random destinations \
         ({trials} trials/row)\n"
    );
    let mut rows = Vec::new();
    for p0 in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        let model = patel_acceptance(p0, 2, stages);
        let mut tag = Sample::new();
        let mut rsin = Sample::new();
        for trial in 0..trials {
            let mut rng = trial_rng(4_000 + (p0 * 10.0) as u64, trial);
            // Offered load: each processor requests with probability p0.
            let requesting: Vec<usize> =
                (0..n).filter(|_| rng.random_range(0.0..1.0) < p0).collect();
            if requesting.is_empty() {
                continue;
            }
            // Conventional: uniform random destination per request, tag
            // routing, random service order, blocked on conflict.
            let mut order = requesting.clone();
            order.shuffle(&mut rng);
            let mut cs = CircuitState::new(&net);
            let mut accepted = 0usize;
            let mut taken = vec![false; n];
            for &p in &order {
                let dest = rng.random_range(0..n);
                if taken[dest] {
                    continue; // destination conflict: output busy
                }
                if let Some(path) = cs.find_path(p, dest) {
                    cs.establish(&path).unwrap();
                    taken[dest] = true;
                    accepted += 1;
                }
            }
            tag.push(accepted as f64 / requesting.len() as f64);
            // RSIN: the same offered requests, but any free resource will
            // do and the mapping is the optimal flow.
            let free_cs = CircuitState::new(&net);
            let all: Vec<usize> = (0..n).collect();
            let problem = ScheduleProblem::homogeneous(&free_cs, &requesting, &all);
            let out = MaxFlowScheduler::default().schedule(&problem);
            rsin.push(out.allocated() as f64 / requesting.len() as f64);
        }
        rows.push(vec![
            format!("{p0:.1}"),
            format!("{:.3}", model),
            format!("{:.3} ±{:.3}", tag.mean(), tag.ci95_half_width()),
            format!("{:.3} ±{:.3}", rsin.mean(), rsin.ci95_half_width()),
        ]);
    }
    emit_table(
        "analytic",
        &[
            "input load p0",
            "Patel model",
            "simulated tag routing",
            "RSIN optimal",
        ],
        &rows,
    );
    println!(
        "\nshape: the simulated conventional discipline tracks Patel's closed form \
         (same declining curve; the model's synchronous single-pass arbitration \
         differs slightly from sequential circuit establishment), while the RSIN's \
         destination-free optimal mapping accepts essentially everything — the \
         paper's case for resource sharing without address mapping."
    );
}
