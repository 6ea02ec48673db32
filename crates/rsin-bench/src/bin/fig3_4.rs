//! FIG3_4 — Figs. 3 and 4: flow augmentation is resource reallocation.
//!
//! The 4-processor example: an initial flow `s-a-d-t` (mapping
//! {(pa, rd)}) blocks pc's request for rb; the augmenting path
//! `s-c-d-a-b-t` cancels the arc `a→d` and yields the mapping
//! {(pa, rb), (pc, rd)} with both resources allocated.

use rsin_flow::graph::FlowNetworkBuilder;
use rsin_flow::max_flow::{solve, Algorithm};
use rsin_flow::path::decompose_unit_flow;

fn main() {
    let mut g = FlowNetworkBuilder::new();
    let s = g.add_node("s");
    let a = g.add_node("a");
    let b = g.add_node("b");
    let c = g.add_node("c");
    let d = g.add_node("d");
    let t = g.add_node("t");
    let sa = g.add_arc(s, a, 1, 0);
    let sc = g.add_arc(s, c, 1, 0);
    let ab = g.add_arc(a, b, 1, 0);
    let ad = g.add_arc(a, d, 1, 0);
    let cd = g.add_arc(c, d, 1, 0);
    let bt = g.add_arc(b, t, 1, 0);
    let dt = g.add_arc(d, t, 1, 0);
    let mut g = g.build();

    // Initial (suboptimal-order) flow: s-a-d-t, i.e. (pa, rd).
    g.push(sa, 1);
    g.push(ad, 1);
    g.push(dt, 1);
    println!("FIG3(a): initial flow s-a-d-t, value {}", g.flow_value(s));
    println!("         mapping: (pa, rd); pc blocked");

    // Fig. 3(b): the augmenting path s-c-d-a-b-t exists; Dinic finds it.
    let r = solve(&mut g, s, t, Algorithm::Dinic);
    println!("\nFIG3(b): augmenting path s-c-d-a-b-t advanced (cancels a->d)");
    println!(
        "FIG3(c): final flow value {} (+{} from augmentation)",
        g.flow_value(s),
        r.value
    );
    assert_eq!(g.flow_value(s), 2);
    // a->d must have been cancelled.
    assert_eq!(g.arc(ad).flow, 0, "arc a->d cancelled");
    let _ = (sc, ab, cd, bt);

    println!("\nFIG4: resulting reallocation:");
    for p in decompose_unit_flow(&g, s, t, None) {
        let names: Vec<&str> = p.nodes(&g).iter().map(|n| g.name(*n)).collect();
        println!("  path {}", names.join("-"));
    }
    println!("mapping: (pa, rb), (pc, rd) — both resources allocated, as in the paper");
}
