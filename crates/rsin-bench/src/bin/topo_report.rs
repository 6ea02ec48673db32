//! TOPO — survey report over the implemented topologies.
//!
//! The comparison table a designer would build from Feng's survey (the
//! paper's reference for network classification): hardware cost, control
//! state, path structure, and blocking classification, computed — not
//! quoted — from the actual structures.

use rsin_bench::{emit_table, parse_or_exit};
use rsin_topology::analysis::{analyze, BlockingClass};
use rsin_topology::builders;

fn main() {
    let samples = std::env::args()
        .nth(1)
        .map_or(40usize, |a| parse_or_exit("samples", &a));
    let nets = vec![
        builders::omega(8).unwrap(),
        builders::baseline(8).unwrap(),
        builders::generalized_cube(8).unwrap(),
        builders::indirect_cube(8).unwrap(),
        builders::flip(8).unwrap(),
        builders::omega_extra_stage(8, 1).unwrap(),
        builders::omega_dilated(8, 2).unwrap(),
        builders::benes(8).unwrap(),
        builders::clos(3, 2, 4).unwrap(),
        builders::crossbar(8, 8).unwrap(),
        builders::gamma(8).unwrap(),
        builders::data_manipulator(8).unwrap(),
        builders::delta(2, 3).unwrap(),
    ];
    println!("TOPO — survey metrics ({samples} permutation samples per network)\n");
    let mut rows = Vec::new();
    for net in &nets {
        let r = analyze(net, samples, 7);
        rows.push(vec![
            r.name.clone(),
            format!("{}x{}", r.ports.0, r.ports.1),
            r.boxes.to_string(),
            r.stages.to_string(),
            r.links.to_string(),
            r.crosspoints.to_string(),
            format!("{:.0}", r.control_bits),
            format!("{}-{}", r.path_length.0, r.path_length.1),
            format!("{}-{}", r.path_multiplicity.0, r.path_multiplicity.1),
            format!("{:.0}%", 100.0 * r.admissibility),
            match r.class {
                BlockingClass::ApparentlyNonblocking => "nonblocking".into(),
                BlockingClass::ApparentlyRearrangeable => "rearrangeable".into(),
                BlockingClass::Blocking => "blocking".to_string(),
            },
        ]);
    }
    emit_table(
        "topo_report",
        &[
            "network",
            "ports",
            "boxes",
            "stages",
            "links",
            "xpoints",
            "ctrl bits",
            "path len",
            "paths/pair",
            "perm adm.",
            "class",
        ],
        &rows,
    );
    println!(
        "\nreading: single-path banyans (omega/cube/baseline/delta) are blocking with \
         one path per pair; extra stages, dilation, gamma/ADM redundancy, and the \
         Benes/Clos/crossbar families buy alternate paths with more crosspoints — \
         which is exactly the trade-off the paper's scheduling intelligence exists \
         to avoid paying in hardware."
    );
}
