//! OVERHEAD — total scheduling overhead of the two architectures over a
//! whole workload (Fig. 6 monitor vs Fig. 9 distributed engine).
//!
//! The SPEEDUP experiment prices a *single* scheduling cycle; this one
//! drives the same request/release workload through two scheduling shells
//! (`rsin_sim::monitor::Monitor`, deferred-event cycle semantics), one
//! running the max-flow monitor and one the distributed token engine, each
//! maintaining its own circuit state, and compares the accumulated
//! scheduling time.

use rand::Rng;
use rsin_bench::{emit_table, parse_or_exit};
use rsin_core::model::ScheduleRequest;
use rsin_core::scheduler::MaxFlowScheduler;
use rsin_sim::cost::CostModel;
use rsin_sim::monitor::Monitor;
use rsin_sim::workload::trial_rng;
use rsin_topology::builders::omega;

/// One architecture's run: its shell, the (processor, resource) pairs it
/// holds, and how many it allocated.
struct Run<'n> {
    shell: Monitor<'n>,
    token: bool,
    served: Vec<(usize, usize)>,
    alloc: u64,
}

fn main() {
    let rounds = std::env::args()
        .nth(1)
        .map_or(500u64, |a| parse_or_exit("rounds", &a));
    let model = CostModel::default();
    println!(
        "OVERHEAD — {rounds} request/release rounds, monitor vs distributed\n\
         ({} ns/instruction, {} ns/clock)\n",
        model.instruction_ns, model.clock_ns
    );
    let mut rows = Vec::new();
    for n in [8usize, 16, 32] {
        let net = omega(n).unwrap();
        let mut runs = [false, true].map(|token| Run {
            shell: Monitor::new(&net, model),
            token,
            served: Vec::new(),
            alloc: 0,
        });
        let mut rng = trial_rng(88, n as u64);
        // Both architectures receive the identical arrival/release stream:
        // tasks finish when the monitor holds more than n/2 of them.
        for _ in 0..rounds {
            for _ in 0..2 {
                let p = rng.random_range(0..n);
                for run in &mut runs {
                    run.shell
                        .submit(ScheduleRequest {
                            processor: p,
                            priority: 1,
                            resource_type: 0,
                        })
                        .expect("drawn processor is on the network");
                }
            }
            let teardown = runs[0].served.len() > n / 2;
            for run in &mut runs {
                if teardown {
                    for (p, r) in run.served.drain(..) {
                        run.shell.transmission_done(p).expect("served processor");
                        run.shell.release_resource(r).expect("served resource");
                    }
                }
                let cycle = if run.token {
                    run.shell.token_cycle()
                } else {
                    run.shell.cycle(&MaxFlowScheduler::default())
                };
                if let Some(cycle) = cycle.expect("scheduling cycle") {
                    run.alloc += cycle.outcome.allocated() as u64;
                    let pairs = cycle.outcome.assignments.iter();
                    run.served.extend(pairs.map(|a| (a.processor, a.resource)));
                }
            }
        }
        let [monitor, token] = &runs;
        let (mon_us, dist_us) = (monitor.shell.scheduling_us(), token.shell.scheduling_us());
        rows.push(vec![
            format!("omega-{n}"),
            format!("{} ({} alloc)", monitor.shell.cycles, monitor.alloc),
            format!("{:.0} us", mon_us),
            format!("{} ({} alloc)", token.shell.cycles, token.alloc),
            format!("{:.1} us", dist_us),
            format!("{:.0}x", mon_us / dist_us.max(1e-9)),
        ]);
        // Sanity: both architectures serve the same workload volume.
        assert!(
            monitor.alloc.abs_diff(token.alloc) <= n as u64,
            "architectures diverged: {} vs {}",
            monitor.alloc,
            token.alloc
        );
    }
    emit_table(
        "overhead",
        &[
            "network",
            "monitor cycles",
            "monitor time",
            "token cycles",
            "token time",
            "speedup",
        ],
        &rows,
    );
    println!(
        "\nshape: over a full workload the monitor spends milliseconds scheduling\n\
         where the token network spends microseconds — Section IV's conclusion."
    );
}
