//! SWITCH — circuit vs. packet switching for resource tasks.
//!
//! Section II, point 1: the RSIN model adopts circuit switching because a
//! resource "cannot process a task until it is completely received", so
//! packetization delay hurts, and rerouting a blocked circuit request is
//! cheaper than rerouting packets. This ablation sweeps task length and
//! fabric load and reports mean delivery times under both disciplines
//! (discrete-time model documented in `rsin_sim::packet`).

use rsin_bench::{emit_table, parse_or_exit};
use rsin_sim::packet::{compare_mean, SwitchingConfig};
use rsin_sim::workload::trial_rng;

fn main() {
    let trials = std::env::args()
        .nth(1)
        .map_or(4000u64, |a| parse_or_exit("trials", &a));
    println!("SWITCH — mean task delivery time (slots), 4-stage fabric, {trials} trials/cell\n");
    let mut rows = Vec::new();
    for &task_len in &[2u64, 10, 50] {
        for &load in &[0.0f64, 0.2, 0.4] {
            let cfg = SwitchingConfig {
                task_len,
                stages: 4,
                background: load,
                circuit_block_prob: load,
            };
            let mut rng = trial_rng(6_000 + task_len, (load * 10.0) as u64);
            let (c, p) = compare_mean(&cfg, trials, &mut rng);
            rows.push(vec![
                task_len.to_string(),
                format!("{load:.1}"),
                format!("{c:.1}"),
                format!("{p:.1}"),
                if c <= p {
                    "circuit".into()
                } else {
                    "packet".to_string()
                },
            ]);
        }
    }
    emit_table(
        "switching",
        &["task length", "load", "circuit", "packet", "winner"],
        &rows,
    );
    println!(
        "\nshape: at zero load the disciplines tie; as load and task length grow, \
         the reserved circuit (immune to per-hop queueing, one cheap setup wait) \
         pulls ahead — the paper's justification for a circuit-switched RSIN."
    );
}
