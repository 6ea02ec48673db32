//! SPEEDUP — distributed token propagation vs the monitor architecture.
//!
//! Section IV-B: "the token-propagation architecture has two factors that
//! contribute to a significant speedup … 1) the augmenting paths are
//! searched in parallel, and 2) the time complexity is measured in gate
//! delays instead of instruction cycles. As a result, the scheduling
//! algorithm will run at a much higher speed than a software implementation
//! of the network flow algorithm."
//!
//! For network sizes 8–64, runs the same random scheduling instances
//! through the software max-flow (instruction-counted) and the token
//! engine (clock-counted), and prices both with the mid-1980s cost model.
//! Self-checking: every instance must allocate the same count both ways
//! (Theorem 4), and the mean speedup must reach 100× on every size and
//! grow with it (the paper's shape); the binary panics otherwise.

use rsin_bench::{emit_table, parse_or_exit};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{MaxFlowScheduler, Scheduler};
use rsin_distrib::TokenEngine;
use rsin_sim::cost::CostModel;
use rsin_sim::metrics::Sample;
use rsin_sim::workload::{random_snapshot, trial_rng};
use rsin_topology::builders::omega;

fn main() {
    let trials = std::env::args()
        .nth(1)
        .map_or(300u64, |a| parse_or_exit("trials", &a));
    let model = CostModel::default();
    println!(
        "SPEEDUP — monitor ({} ns/instruction) vs token propagation ({} ns/clock), {trials} trials\n",
        model.instruction_ns, model.clock_ns
    );
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    for n in [8usize, 16, 32, 64] {
        let net = omega(n).unwrap();
        let mut instr = Sample::new();
        let mut clocks = Sample::new();
        let mut speed = Sample::new();
        for trial in 0..trials {
            let mut rng = trial_rng(500 + n as u64, trial);
            let snap = random_snapshot(&net, n / 2, n / 2, n / 8, &mut rng);
            let problem =
                ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
            let sw = MaxFlowScheduler::default().schedule(&problem);
            let hw = TokenEngine::run(&problem);
            assert_eq!(sw.allocated(), hw.outcome.assignments.len(), "Theorem 4");
            instr.push(sw.estimated_instructions as f64);
            clocks.push(hw.clocks as f64);
            speed.push(model.speedup(sw.estimated_instructions, hw.clocks));
        }
        speedups.push((n, speed.mean()));
        rows.push(vec![
            format!("omega-{n}"),
            format!("{:.0}", instr.mean()),
            format!("{:.0}", clocks.mean()),
            format!("{:.1} us", model.monitor_us(instr.mean() as u64)),
            format!("{:.2} us", model.distributed_us(clocks.mean() as u64)),
            format!("{:.0}x", speed.mean()),
        ]);
    }
    emit_table(
        "speedup",
        &[
            "network",
            "instructions",
            "clock periods",
            "monitor",
            "distributed",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\npaper shape: orders-of-magnitude speedup, growing with network size \
         (parallel path search + gate-delay cycles). allocation counts verified equal."
    );
    for &(n, x) in &speedups {
        assert!(x >= 100.0, "omega-{n}: speedup {x:.0}x is below 100x");
    }
    for w in speedups.windows(2) {
        assert!(
            w[1].1 > w[0].1,
            "speedup must grow with n: omega-{} {:.0}x <= omega-{} {:.0}x",
            w[1].0,
            w[1].1,
            w[0].0,
            w[0].1
        );
    }
}
