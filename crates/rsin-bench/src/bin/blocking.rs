//! BLOCK — the paper's headline blocking-probability comparison.
//!
//! "Simulation results showed that the average blocking probability can be
//! as low as 2 percent for an MRSIN embedded in an 8×8 cube network …
//! If a heuristic routing algorithm is used, then the average blocking
//! probability increases to around 20 percent." And for "a typical
//! interconnection structure, such as the Omega network, network blockages
//! can be reduced to less than 5 percent."
//!
//! This experiment sweeps request/resource counts on a free network and
//! reports the mean blocking fraction per scheduler per topology. Absolute
//! values depend on the (unavailable) original workload mix; the *shape* —
//! optimal in the low single digits, heuristics an order of magnitude
//! worse — is the reproduction target.

use rsin_bench::{emit_table, parse_or_exit, pct, standard_networks, usage_error};
use rsin_core::scheduler::{
    AddressMappedScheduler, GreedyScheduler, MaxFlowScheduler, RequestOrder, Scheduler,
};
use rsin_distrib::engine::DistributedScheduler;
use rsin_sim::blocking::{run_blocking_threads, trials_fit, BlockingConfig};
use rsin_sim::metrics::Sample;

fn main() {
    let trials = std::env::args()
        .nth(1)
        .map_or(2000u64, |a| parse_or_exit("trials", &a));
    // Worker threads for each Monte-Carlo batch (arg 2). The statistics are
    // bit-identical for any value; default to the host's parallelism.
    let threads = std::env::args().nth(2).map_or_else(
        || std::thread::available_parallelism().map_or(1, |n| n.get()),
        |a| parse_or_exit("threads", &a),
    );
    // Each of the seven cells per row (k = 2..=8) runs `trials / 7` trials
    // and keeps one result per trial until it reduces them.
    if trials < 7 {
        usage_error(&format!(
            "{trials} trials: each of the 7 cells per row runs trials / 7 of them, \
             so at least 7 are needed"
        ));
    }
    if !trials_fit(trials / 7) {
        usage_error(&format!(
            "{trials} trials: the per-cell table of {} results does not fit in memory",
            trials / 7
        ));
    }
    let optimal = MaxFlowScheduler::default();
    let distributed = DistributedScheduler;
    let greedy = GreedyScheduler::new(RequestOrder::Shuffled(7));
    let address = AddressMappedScheduler::new(7);
    let schedulers: Vec<&dyn Scheduler> = vec![&optimal, &distributed, &greedy, &address];

    println!(
        "BLOCK — mean blocking fraction, free network, {trials} trials per cell, \
         {threads} worker thread(s)"
    );
    println!("(requests = resources = k, drawn uniformly; denominator = min(x, y))\n");
    let mut rows = Vec::new();
    for net in standard_networks() {
        for s in &schedulers {
            // Average over k = 2..=8 with per-k trials.
            let mut all = Sample::new();
            let mut per_k = Vec::new();
            for k in 2..=8usize {
                let cfg = BlockingConfig {
                    trials: trials / 7,
                    requests: k,
                    resources: k,
                    occupied_circuits: 0,
                    seed: 100 + k as u64,
                };
                let st = run_blocking_threads(&net, *s, &cfg, threads).expect("blocking trials");
                all.push(st.blocking.mean);
                per_k.push(format!("{:.1}", 100.0 * st.blocking.mean));
            }
            rows.push(vec![
                net.name().to_string(),
                s.name().to_string(),
                pct(all.mean(), all.ci95_half_width()),
                per_k.join("/"),
            ]);
        }
        rows.push(vec![String::new(); 4]);
    }
    emit_table(
        "blocking",
        &["network", "scheduler", "mean blocking", "per-k% (k=2..8)"],
        &rows,
    );
    println!(
        "\npaper targets: optimal ≈2% (8×8 cube), <5% (Omega); heuristic ≈20%. \
         distributed(token) must equal max-flow(dinic) exactly."
    );
}
