//! Dataflow computer: cell blocks feeding processing units through an RSIN.
//!
//! The paper's Fig. 1(b): in Dennis' dataflow architecture, active
//! instructions produced by *cell blocks* are routed to any free
//! *processing unit*; the units are the shared resource pool. Instruction
//! packets arrive in bursts whenever a block's dependencies fire, so the
//! schedule quality under bursty load is what matters — measured here with
//! the dynamic discrete-event simulation, comparing optimal flow-based
//! scheduling against greedy routing.
//!
//! ```text
//! cargo run -p rsin-examples --bin dataflow
//! ```

use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler, RequestOrder, Scheduler};
use rsin_sim::system::{DynamicConfig, SystemSim};
use rsin_topology::builders::baseline;

fn main() {
    // 16 cell blocks feed 16 processing units through a baseline MIN.
    let net = baseline(16).unwrap();
    println!("dataflow machine: {}", net.summary());
    println!("cell blocks emit instruction packets; processing units execute them.\n");

    let schedulers: Vec<(&str, &dyn Scheduler)> = vec![
        (
            "optimal (max-flow RSIN)",
            &MaxFlowScheduler {
                algorithm: rsin_flow::Algorithm::Dinic,
            },
        ),
        (
            "greedy routing",
            &GreedyScheduler {
                order: RequestOrder::Shuffled(11),
            },
        ),
    ];

    println!(
        "{:<12} {:<26} {:>11} {:>10} {:>9} {:>10}",
        "firing rate", "scheduler", "utilization", "response", "queue", "completed"
    );
    for rate in [0.2, 0.5, 0.8] {
        for (name, s) in &schedulers {
            let cfg = DynamicConfig {
                arrival_rate: rate,
                mean_transmission: 0.05, // instruction packets are small
                mean_service: 1.0,       // execution dominates
                sim_time: 2000.0,
                warmup: 200.0,
                seed: 8,
                types: 1,
                priority_levels: 1,
                ..DynamicConfig::default()
            };
            let stats = SystemSim::new(&net, cfg).run(*s).unwrap();
            println!(
                "{:<12} {:<26} {:>11.3} {:>10.3} {:>9.2} {:>10}",
                format!("{rate:.1}/block"),
                name,
                stats.utilization,
                stats.mean_response,
                stats.mean_queue,
                stats.completed
            );
        }
    }
    println!(
        "\nthe RSIN keeps the processing units busy without any cell block ever\n\
         naming a destination unit — requests enter untagged and the network\n\
         routes the maximum number of instructions to free units each cycle."
    );
}
