//! The whole paper as one narrative test — each section's central claim
//! exercised in order, end to end, through the public API.

use rsin_core::mapping::verify;
use rsin_core::model::{FreeResource, ScheduleProblem, ScheduleRequest};
use rsin_core::scheduler::{
    AddressMappedScheduler, MaxFlowScheduler, MinCostScheduler, MultiCommodityScheduler, Scheduler,
};
use rsin_distrib::TokenEngine;
use rsin_sim::blocking::{run_blocking, BlockingConfig};
use rsin_sim::cost::CostModel;
use rsin_sim::monitor::Monitor;
use rsin_topology::builders::{generalized_cube, omega};
use rsin_topology::CircuitState;

#[test]
fn the_paper_in_one_test() {
    // ------------------------------------------------------------------
    // §I–II  The model: a circuit-switched MIN where requests enter
    //        without destination tags. Build the paper's own example
    //        fabric (8×8 Omega) with the Fig. 2 pre-established circuits.
    // ------------------------------------------------------------------
    let net = omega(8).expect("the canonical 8x8 Omega");
    assert_eq!(net.num_stages(), 3);
    let mut fabric = CircuitState::new(&net);
    fabric.connect(1, 5).unwrap(); // p2 -> r6
    fabric.connect(3, 3).unwrap(); // p4 -> r4

    // ------------------------------------------------------------------
    // §II   "The necessity for a proper scheduler": an arbitrary fixed
    //       mapping blocks, the optimal mapping does not.
    // ------------------------------------------------------------------
    let mut arbitrary = fabric.clone();
    let mut placed = 0;
    for (p, r) in [(0, 0), (2, 4), (4, 2), (6, 6), (7, 7)] {
        if arbitrary.connect(p, r).is_ok() {
            placed += 1;
        }
    }
    assert!(placed < 5, "the fixed mapping must block somewhere");

    // ------------------------------------------------------------------
    // §III-B  Transformation 1 + maximum flow: all five allocated
    //         (Theorems 1-2).
    // ------------------------------------------------------------------
    let problem = ScheduleProblem::homogeneous(&fabric, &[0, 2, 4, 6, 7], &[0, 2, 4, 6, 7]);
    let optimal = MaxFlowScheduler::default().schedule(&problem);
    assert_eq!(optimal.allocated(), 5);
    verify(&optimal.assignments, &problem).unwrap();

    // ------------------------------------------------------------------
    // §III-C  Transformation 2: priorities and preferences honoured
    //         without sacrificing cardinality (Theorem 3).
    // ------------------------------------------------------------------
    let priced = ScheduleProblem::with_priorities(
        &fabric,
        &[(0, 9), (2, 1), (4, 5), (6, 7), (7, 3)],
        &[(0, 2), (2, 8), (4, 4), (6, 6), (7, 1)],
    );
    let with_cost = MinCostScheduler::default().schedule(&priced);
    assert_eq!(
        with_cost.allocated(),
        5,
        "priority scheduling keeps cardinality"
    );
    verify(&with_cost.assignments, &priced).unwrap();

    // ------------------------------------------------------------------
    // §III-D  Heterogeneous resources: one commodity per type, solved by
    //         the from-scratch simplex; types never cross.
    // ------------------------------------------------------------------
    let hetero = ScheduleProblem {
        circuits: &fabric,
        requests: vec![
            ScheduleRequest {
                processor: 0,
                priority: 1,
                resource_type: 0,
            },
            ScheduleRequest {
                processor: 4,
                priority: 1,
                resource_type: 1,
            },
        ],
        free: vec![
            FreeResource {
                resource: 2,
                preference: 1,
                resource_type: 1,
            },
            FreeResource {
                resource: 6,
                preference: 1,
                resource_type: 0,
            },
        ],
    };
    let multi = MultiCommodityScheduler::default().schedule(&hetero);
    assert_eq!(multi.allocated(), 2);
    verify(&multi.assignments, &hetero).unwrap();
    for a in &multi.assignments {
        let ty_req = hetero
            .requests
            .iter()
            .find(|r| r.processor == a.processor)
            .unwrap();
        let ty_res = hetero
            .free
            .iter()
            .find(|f| f.resource == a.resource)
            .unwrap();
        assert_eq!(ty_req.resource_type, ty_res.resource_type);
    }

    // ------------------------------------------------------------------
    // §IV   The distributed architecture computes the same optimum by
    //       token propagation (Theorem 4), walking Fig. 10's bus states.
    // ------------------------------------------------------------------
    let report = TokenEngine::run(&problem);
    assert_eq!(report.outcome.assignments.len(), optimal.allocated());
    let vectors: Vec<&str> = report.trace.iter().map(|t| t.vector.as_str()).collect();
    for v in ["111000x", "111001x", "110100x", "110110x"] {
        assert!(vectors.contains(&v), "Fig. 10 vector {v} missing");
    }
    // ... and keeps doing so across a multi-cycle lifetime.
    let req = |processor| ScheduleRequest {
        processor,
        priority: 1,
        resource_type: 0,
    };
    let mut sys = Monitor::new(&net, CostModel::default());
    sys.submit(req(0)).unwrap();
    sys.submit(req(5)).unwrap();
    let first = sys.token_cycle().unwrap().unwrap().outcome;
    assert_eq!(first.allocated(), 2);
    let a = &first.assignments[0];
    sys.transmission_done(a.processor).unwrap();
    sys.release_resource(a.resource).unwrap();
    sys.submit(req(a.processor)).unwrap();
    assert!(sys.token_cycle().unwrap().is_some());
    assert!(sys.clocks > 0);

    // ------------------------------------------------------------------
    // §II/V  The quantitative claim, in miniature: optimal scheduling in
    //        the low single digits of blocking, the conventional
    //        discipline an order of magnitude worse (2% vs 20%).
    // ------------------------------------------------------------------
    let cube = generalized_cube(8).unwrap();
    let cfg = BlockingConfig {
        trials: 300,
        requests: 5,
        resources: 5,
        occupied_circuits: 0,
        seed: 1986, // the year
    };
    let opt = run_blocking(&cube, &MaxFlowScheduler::default(), &cfg).unwrap();
    let conv = run_blocking(&cube, &AddressMappedScheduler::new(1986), &cfg).unwrap();
    assert!(
        opt.blocking.mean < 0.05,
        "optimal ≈2%: got {}",
        opt.blocking.mean
    );
    assert!(
        conv.blocking.mean > 3.0 * opt.blocking.mean,
        "conventional ≈20%: got {} vs {}",
        conv.blocking.mean,
        opt.blocking.mean
    );
}
