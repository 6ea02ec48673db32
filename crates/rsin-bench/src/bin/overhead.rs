//! OVERHEAD — total scheduling overhead of the two architectures over a
//! whole workload (Fig. 6 monitor vs Fig. 9 distributed engine).
//!
//! The SPEEDUP experiment prices a *single* scheduling cycle; this one
//! drives the same request/release workload through the explicit monitor
//! (`rsin_sim::monitor::Monitor`, deferred-event cycle semantics) and
//! through the live distributed system
//! (`rsin_distrib::system::DistributedSystem`), each maintaining its own
//! circuit state, and compares the accumulated scheduling time.

use rand::Rng;
use rsin_bench::{emit_table, parse_or_exit};
use rsin_core::model::ScheduleRequest;
use rsin_core::scheduler::MaxFlowScheduler;
use rsin_distrib::DistributedSystem;
use rsin_sim::cost::CostModel;
use rsin_sim::monitor::Monitor;
use rsin_sim::workload::trial_rng;
use rsin_topology::builders::omega;

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
        let mut monitor = Monitor::new(&net, model);
        let mut distributed = DistributedSystem::new(&net);
        let mut rng = trial_rng(88, n as u64);
        // Both architectures receive the identical arrival/release stream.
        let mut mon_served: Vec<(usize, usize)> = Vec::new();
        let mut dist_served: Vec<(usize, usize)> = Vec::new();
        let mut mon_alloc = 0u64;
        let mut dist_alloc = 0u64;
        for _ in 0..rounds {
            for _ in 0..2 {
                let p = rng.random_range(0..n);
                monitor
                    .submit(ScheduleRequest {
                        processor: p,
                        priority: 1,
                        resource_type: 0,
                    })
                    .expect("drawn processor is on the network");
                distributed.submit(p);
            }
            if mon_served.len() > n / 2 {
                for (p, r) in mon_served.drain(..) {
                    monitor.transmission_done(p);
                    monitor.release_resource(r);
                }
                for (p, r) in dist_served.drain(..) {
                    distributed.transmission_done(p);
                    distributed.release_resource(r);
                }
            }
            if let Some(cycle) = monitor
                .cycle(&MaxFlowScheduler::default())
                .expect("monitor cycle")
            {
                mon_alloc += cycle.outcome.allocated() as u64;
                for a in &cycle.outcome.assignments {
                    mon_served.push((a.processor, a.resource));
                }
            }
            if let Some(out) = distributed.cycle() {
                dist_alloc += out.allocated() as u64;
                for a in &out.assignments {
                    dist_served.push((a.processor, a.resource));
                }
            }
        }
        let dist_us = model.distributed_us(distributed.clocks);
        rows.push(vec![
            format!("omega-{n}"),
            format!("{} ({} alloc)", monitor.cycles, mon_alloc),
            format!("{:.0} us", monitor.scheduling_us),
            format!("{} ({} alloc)", distributed.cycles, dist_alloc),
            format!("{:.1} us", dist_us),
            format!("{:.0}x", monitor.scheduling_us / dist_us.max(1e-9)),
        ]);
        // Sanity: both architectures serve the same workload volume.
        assert!(
            (mon_alloc as i64 - dist_alloc as i64).abs() <= (n as i64),
            "architectures diverged: {mon_alloc} vs {dist_alloc}"
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
