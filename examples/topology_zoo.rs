//! Topology zoo: build any implemented network, print its survey card and
//! a Graphviz DOT rendering. A network is named as `Network::name` prints
//! it (`rsin_topology::builders::by_name`); a name no builder prints, or an
//! unusable size, exits with code 2.
//!
//! ```text
//! cargo run -p rsin-examples --bin topology_zoo -- omega-8
//! cargo run -p rsin-examples --bin topology_zoo -- benes-8 --dot > benes.dot
//! ```

use rsin_topology::analysis::analyze;
use rsin_topology::builders;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "omega-8".into());
    let want_dot = args.any(|a| a == "--dot");
    let net = match builders::by_name(&name) {
        Ok(net) => net,
        Err(e) => {
            eprintln!(
                "error: {e}; try omega-8, omega-8x2, omega-8+1, 3dp-omega-8, flip-8, \
                 baseline-8, cube-8, indirect-cube-8, benes-8, crossbar-8x8, clos-2-2-4, \
                 delta-2^3, gamma-8, adm-8"
            );
            std::process::exit(2);
        }
    };
    if want_dot {
        print!("{}", net.to_dot());
        return;
    }
    println!("{}", net.summary());
    let r = analyze(&net, 30, 1);
    println!("  crosspoints        : {}", r.crosspoints);
    println!("  control state      : {:.0} bits", r.control_bits);
    println!(
        "  path length        : {}..{} links",
        r.path_length.0, r.path_length.1
    );
    println!(
        "  paths per pair     : {}..{}",
        r.path_multiplicity.0, r.path_multiplicity.1
    );
    println!("  perm admissibility : {:.0}%", 100.0 * r.admissibility);
    println!("  blocking class     : {:?}", r.class);
    println!("\n(run with --dot for a Graphviz rendering)");
}
