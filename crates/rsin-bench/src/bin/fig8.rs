//! FIG8 — layered-network construction on a 4×4 MRSIN.
//!
//! Fig. 8(a): processors p1, p2, p4 request; resources r1, r3, r4 are
//! available; an initial flow maps p1→r4 and p4→r1, blocking p2. The
//! layered network (Fig. 8(b)) exposes a flow-augmenting path for p2 that
//! *cancels* the flow on the arc between the two middle switchboxes, after
//! which all three resources are allocated (p4 reallocated to r3, p2 to
//! r1).

use rsin_flow::graph::FlowNetworkBuilder;
use rsin_flow::max_flow::{solve, Algorithm, LayeredNetwork};
use rsin_flow::path::decompose_unit_flow;
use rsin_flow::stats::OpStats;

fn main() {
    // The flow network of Fig. 8(a): a 2-stage 4x4 MRSIN with boxes 4,5
    // (stage 0) and 6,7 (stage 1).
    let mut g = FlowNetworkBuilder::new();
    let s = g.add_node("s");
    let p1 = g.add_node("p1");
    let p2 = g.add_node("p2");
    let p4 = g.add_node("p4");
    let n4 = g.add_node("4");
    let n5 = g.add_node("5");
    let n6 = g.add_node("6");
    let n7 = g.add_node("7");
    let r1 = g.add_node("r1");
    let r3 = g.add_node("r3");
    let r4 = g.add_node("r4");
    let t = g.add_node("t");
    let s_p1 = g.add_arc(s, p1, 1, 0);
    g.add_arc(s, p2, 1, 0);
    let s_p4 = g.add_arc(s, p4, 1, 0);
    let a_p1_4 = g.add_arc(p1, n4, 1, 0);
    g.add_arc(p2, n4, 1, 0);
    let a_p4_5 = g.add_arc(p4, n5, 1, 0);
    g.add_arc(n4, n6, 1, 0);
    let a_4_7 = g.add_arc(n4, n7, 1, 0);
    let a_5_6 = g.add_arc(n5, n6, 1, 0);
    g.add_arc(n5, n7, 1, 0);
    let a_6_r1 = g.add_arc(n6, r1, 1, 0);
    g.add_arc(n6, r3, 1, 0);
    let a_7_r4 = g.add_arc(n7, r4, 1, 0);
    g.add_arc(n7, r3, 1, 0);
    let r1_t = g.add_arc(r1, t, 1, 0);
    g.add_arc(r3, t, 1, 0);
    let r4_t = g.add_arc(r4, t, 1, 0);
    let mut g = g.build();

    // Initial flow: p1 -> 4 -> 7 -> r4 and p4 -> 5 -> 6 -> r1 (dashed in the figure).
    for arc in [
        s_p1, a_p1_4, a_4_7, a_7_r4, r4_t, s_p4, a_p4_5, a_5_6, a_6_r1, r1_t,
    ] {
        g.push(arc, 1);
    }
    println!(
        "FIG8(a): initial flow value {} — (p1,r4), (p4,r1); p2 blocked",
        g.flow_value(s)
    );

    // Fig. 8(b): the layered network.
    let mut st = OpStats::new();
    let ln = LayeredNetwork::build(&g, s, t, &mut st);
    println!("\nFIG8(b): layered network ({} layers):", ln.depth());
    for (i, layer) in ln.layers().iter().enumerate() {
        let names: Vec<&str> = layer.iter().map(|n| g.name(*n)).collect();
        println!("  V{i}: {}", names.join(", "));
    }
    assert!(ln.reaches_sink());
    assert!(
        ln.contains_arc(&g, a_5_6.twin()),
        "the cancellation arc 6->5 is a useful link of the layered network"
    );
    println!("  includes the arc 6 -> 5 (cancelling the flow 5 -> 6), as in the paper");

    let add = solve(&mut g, s, t, Algorithm::Dinic);
    println!(
        "\naugmented by {}: final value {}",
        add.value,
        g.flow_value(s)
    );
    assert_eq!(g.flow_value(s), 3);
    println!("final mapping:");
    for p in decompose_unit_flow(&g, s, t, None) {
        let names: Vec<&str> = p.nodes(&g).iter().map(|n| g.name(*n)).collect();
        println!("  {}", names.join("-"));
    }
    println!(
        "\npaper: \"all three resources can be allocated if p4 is reallocated to r3 \
         and p2 is reallocated to r1\". reproduced."
    );
}
