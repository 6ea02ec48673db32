//! OCCUP — blocking vs. network load.
//!
//! "If the network is not completely free, then there will be fewer paths
//! available for resource allocation. In this case, a heuristic routing
//! algorithm may have poor performance. An optimal scheduling algorithm
//! will be able to better utilize these paths, and result in a low blocking
//! probability (although it will be higher than that of the case when the
//! network is completely free)."
//!
//! Sweeps the number of pre-established circuits and reports blocking for
//! the optimal and heuristic schedulers.

use rsin_bench::{emit_table, network_by_name, parse_or_exit, pct};
use rsin_core::scheduler::{GreedyScheduler, MaxFlowScheduler, RequestOrder, Scheduler};
use rsin_sim::blocking::{run_blocking, BlockingConfig};

fn main() {
    let trials = std::env::args()
        .nth(1)
        .map_or(2000u64, |a| parse_or_exit("trials", &a));
    let optimal = MaxFlowScheduler::default();
    let greedy = GreedyScheduler::new(RequestOrder::Shuffled(3));
    let schedulers: Vec<&dyn Scheduler> = vec![&optimal, &greedy];

    println!("OCCUP — blocking vs pre-established circuits (omega-8 / cube-8, {trials} trials)\n");
    let mut rows = Vec::new();
    for name in ["omega-8", "cube-8"] {
        let net = network_by_name(name).unwrap();
        for occupied in 0..=4usize {
            let mut cells = vec![name.to_string(), occupied.to_string()];
            for s in &schedulers {
                let cfg = BlockingConfig {
                    trials,
                    requests: 4,
                    resources: 4,
                    occupied_circuits: occupied,
                    seed: 7_000 + occupied as u64,
                };
                let st = run_blocking(&net, *s, &cfg).expect("blocking trials");
                cells.push(pct(st.blocking.mean, st.blocking.ci95));
            }
            rows.push(cells);
        }
        rows.push(vec![String::new(); 4]);
    }
    emit_table(
        "occupancy",
        &["network", "occupied circuits", "optimal", "greedy"],
        &rows,
    );
    println!(
        "\npaper shape: blocking grows with load for both; the optimal scheduler \
         degrades far more gracefully than the heuristic.\n\
         (note: at 4 occupied circuits half the 8×8 network is held by a routable \
         4-matching; the surviving 4×4 complement is so constrained that the drawn \
         requests always route — a conditioning effect of sequential circuit \
         placement, not a scheduler property.)"
    );
}
