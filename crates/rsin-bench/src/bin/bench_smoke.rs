//! BENCH_SMOKE — exact op-count ledger plus in-process contracts for CI.
//!
//! Usage: `bench_smoke [--telemetry <path>] [out.tsv]` (default
//! `OPS_ledger.tsv`). Any other argument is a usage error (exit 2).
//!
//! The ledger counts work, as the paper does: instructions for the monitor,
//! clock periods for the token engine (§IV). It runs CI-scale versions of
//! the benchmark's four workloads (same topologies, schedulers and
//! policies), a `serve_queue` stream on a crossbar with fewer resources
//! than processors (the one workload that queues and promotes), and the
//! 64-snapshot reset batch under a live
//! `rsin_obs::Telemetry` sink, and writes one tab-separated line per
//! `(workload, layer, unit)`: `workload layer unit total ops`, where `ops`
//! is what the total is counted over (cycles, decisions, trials or
//! shards). The `extract` rows of the three Theorem-2 workloads
//! (`dynamic_heavy`, `sharded_cycle`, the reset batch's max-flow half)
//! count how their solved flows were decomposed: read off a one-pass Dinic
//! solve's augmenting paths, or walked; their `graded_phases` rows count
//! the Dinic solves whose first phase took the network's grading instead
//! of a search, and `sharded_cycle`'s `stage1` rows count the inter-shard
//! stage's free-link searches and the links they reached. Every value is
//! an integer and repeats exactly from run to run, so CI `cmp`s the file
//! against `ci/op-ledger.tsv`; any change to a count needs a deliberate
//! baseline bump. Before writing, every row that names work a path must do
//! is checked non-zero (solves and arc scans on every solver path, faults
//! and degraded cycles on the faulted workload, queues and promotions on
//! `serve_queue`, recorded decompositions on the `extract` rows, graded
//! phases and stage-1 searches on `sharded_cycle`) and every
//! transformation must have been built exactly once per owner, so an empty
//! or bypassed path cannot become a baseline. Allocation counts stay out:
//! they move with the standard library's allocation pattern.
//!
//! The contracts, asserted first: blocking statistics bit-identical at
//! 1/2/4/8 threads; replicated dynamic statistics bit-identical at 1/2/8
//! threads; the heavy-traffic regime sheds at ρ 1.5 and not at ρ 0.7;
//! incremental ≡ batch allocation counts on every stream prefix; sharded
//! statistics thread-invariant with one transformation build per shard and
//! hierarchical ≤ flat on every trial. The sharded ledger workload also
//! runs a plain hierarchical scheduler beside its observed one and exits 1
//! on the first cycle whose outcomes differ.
//!
//! Four paired-ratio gates follow, each timing both sides back to back in
//! every repetition and taking the best ratio, so machine speed and load
//! spikes cancel: the `NoopProbe` observed batch and the flight-recorded
//! stream replay stay within 1.25× of their plain twins, the incremental
//! stream beats per-event batch re-solves by 2×, and (on ≥ 4 cores) the
//! 4-thread blocking batch beats 1 thread by 1.5×.
//!
//! `--telemetry <path>` writes the reset batch's telemetry report as JSON.

use rsin_bench::{take_flag, usage_error};
use rsin_core::model::ScheduleProblem;
use rsin_core::scheduler::{
    HierarchicalScheduler, IncrementalBackend, IncrementalScheduler, InterShardPolicy,
    MaxFlowScheduler, MinCostScheduler, ScheduleScratch, Scheduler, StreamDecision,
};
use rsin_obs::telemetry::SolverReport;
use rsin_obs::{Counter, FlightRecorder, NoopProbe, Probe, Telemetry, TelemetryReport};
use rsin_sim::blocking::{run_blocking_threads, BlockingConfig};
use rsin_sim::replicate::{merge_faulted, run_trials, ReplicatedStats, TrialGrid};
use rsin_sim::sharded::{
    run_paired_trials, run_sharded_trials, sharded_snapshot, ShardedTrialConfig,
};
use rsin_sim::stream::{generate_commands, replay_batch, replay_incremental, StreamCommand};
use rsin_sim::system::{
    fault_plan_seed, plan_for_model, DegradedPolicy, DynamicConfig, FaultModel, SystemSim,
};
use rsin_sim::workload::{random_snapshot, trial_rng};
use rsin_topology::builders::{crossbar, omega, omega_3dp};
use rsin_topology::{
    CircuitState, FaultPlan, FaultPlanConfig, GlobalTopology, Network, ShardedNetwork, ShardedSpec,
};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 41;
const REPS: usize = 5;
const BATCH_TRIALS: u64 = 64;
const REPLICAS: usize = 4;
/// Ceiling on observed / plain time for the two observation-overhead gates.
const OVERHEAD_LIMIT: f64 = 1.25;
/// Floor on batch re-solve / incremental time for the same stream.
const MIN_STREAM_SPEEDUP: f64 = 2.0;
/// Floor on 1-thread / 4-thread time for the blocking batch (≥ 4 cores).
const MIN_PARALLEL_SPEEDUP: f64 = 1.5;
/// Trials per sim ledger workload: enough cycles to reach every unit.
const SIM_TRIALS: u64 = 4;
const STREAM_EVENTS: usize = 20_000;
const SHARD_CYCLES: u64 = 256;

/// What a ledger row must show before the ledger may be written.
#[derive(Clone, Copy)]
enum Need {
    Any,
    NonZero,
    /// Exactly one per op: one transformation build per trial, scheduler
    /// or shard.
    OnePerOp,
}

/// `(workload, layer, unit)`.
type Key = (&'static str, &'static str, &'static str);

struct Row {
    key: Key,
    total: u64,
    ops: u64,
    need: Need,
}

#[derive(Default)]
struct Ledger(Vec<Row>);

impl Ledger {
    fn put(&mut self, key: Key, total: u64, ops: u64, need: Need) {
        self.0.push(Row {
            key,
            total,
            ops,
            need,
        });
    }

    /// The solver-work units of `r`, summed over solvers (the benchmark's
    /// `flow.*` vocabulary), counted over `ops`.
    fn flow(&mut self, workload: &'static str, layer: &'static str, r: &TelemetryReport, ops: u64) {
        let sum = |f: fn(&SolverReport) -> u64| r.solvers.iter().map(f).sum();
        let level = r.counters[Counter::DinicLevelArcScans.index()];
        let blocking = r.counters[Counter::DinicBlockingArcScans.index()];
        for (unit, total, need) in [
            ("solves", sum(|s| s.solves), Need::NonZero),
            ("node_visits", sum(|s| s.counts.node_visits), Need::Any),
            ("arc_scans", sum(|s| s.counts.arc_scans), Need::NonZero),
            ("augmentations", sum(|s| s.counts.augmentations), Need::Any),
            ("phases", sum(|s| s.counts.phases), Need::Any),
            ("dinic_level_arc_scans", level, Need::Any),
            ("dinic_blocking_arc_scans", blocking, Need::Any),
        ] {
            self.put((workload, layer, unit), total, ops, need);
        }
    }

    /// How the Theorem-2 solves of `r` were decomposed, counted over
    /// `ops`: read off a one-pass Dinic solve's augmenting paths, or walked.
    fn extract(&mut self, workload: &'static str, r: &TelemetryReport, ops: u64) {
        for (unit, c, need) in [
            ("recorded", Counter::RecordedDecompositions, Need::NonZero),
            ("walked", Counter::WalkedDecompositions, Need::Any),
        ] {
            self.put(
                (workload, "extract", unit),
                r.counters[c.index()],
                ops,
                need,
            );
        }
    }

    /// Solves of `r` whose first Dinic phase took the network's grading,
    /// as the `graded_phases` row of `layer`, counted over `ops`.
    fn graded(
        &mut self,
        workload: &'static str,
        layer: &'static str,
        r: &TelemetryReport,
        ops: u64,
        need: Need,
    ) {
        let total = r.counters[Counter::GradedPhases.index()];
        self.put((workload, layer, "graded_phases"), total, ops, need);
    }

    /// Raise the requirement on an existing row.
    fn need(&mut self, key: Key, need: Need) {
        let row = self.0.iter_mut().find(|r| r.key == key);
        row.expect("ledger row exists").need = need;
    }

    fn violations(&self) -> Vec<String> {
        self.0
            .iter()
            .filter(|r| match r.need {
                Need::Any => false,
                Need::NonZero => r.total == 0,
                Need::OnePerOp => r.total != r.ops,
            })
            .map(|r| format!("{:?}: {} over {}", r.key, r.total, r.ops))
            .collect()
    }

    fn to_tsv(&self) -> String {
        let mut s = String::from("workload\tlayer\tunit\ttotal\tops\n");
        for Row {
            key, total, ops, ..
        } in &self.0
        {
            s += &format!("{}\t{}\t{}\t{total}\t{ops}\n", key.0, key.1, key.2);
        }
        s
    }
}

/// The 64-snapshot reset-per-trial batch on omega-16 through a reused
/// scratch: the observed scheduling entry point when `probe` is set, the
/// plain one otherwise.
fn reset_batch(
    net: &Network,
    scheduler: &dyn Scheduler,
    scratch: &mut ScheduleScratch,
    probe: Option<&dyn Probe>,
) -> usize {
    let mut total = 0;
    for trial in 0..BATCH_TRIALS {
        let snap = random_snapshot(net, 8, 8, 2, &mut trial_rng(SEED, trial));
        let problem = ScheduleProblem::homogeneous(&snap.circuits, &snap.requesting, &snap.free);
        total += match probe {
            Some(p) => scheduler
                .try_schedule_observed(&problem, scratch, p)
                .expect("well-formed snapshot"),
            None => scheduler.schedule_reusing(&problem, scratch),
        }
        .allocated();
    }
    total
}

/// A command stream through the observed incremental entry points.
fn replay_observed(
    net: &Network,
    commands: &[StreamCommand],
    probe: &dyn Probe,
) -> IncrementalScheduler {
    let mut inc = IncrementalScheduler::new(net, IncrementalBackend::MaxFlow);
    for c in commands {
        match *c {
            StreamCommand::Request { processor } => inc.request_observed(processor, probe),
            StreamCommand::Release { processor } => inc.release_observed(processor, probe),
            StreamCommand::Stats => continue,
        }
        .expect("valid stream");
    }
    inc
}

/// Gate `time(candidate) / time(reference) <= limit`. Both sides run back
/// to back in each of [`REPS`] repetitions and the best ratio counts, so
/// machine speed and load spikes cancel. Returns whether the gate held.
fn gate<A, B>(
    name: &str,
    limit: f64,
    mut candidate: impl FnMut() -> A,
    mut reference: impl FnMut() -> B,
) -> bool {
    let ratio = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            black_box(reference());
            let reference = start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(candidate());
            start.elapsed().as_secs_f64() / reference
        })
        .fold(f64::INFINITY, f64::min);
    let verdict = if ratio <= limit { "ok" } else { "FAILED" };
    println!("  {name}: x{ratio:.3} of the reference time (limit x{limit:.3}) {verdict}");
    ratio <= limit
}

fn check_blocking_threads(net: &Network, cfg: &BlockingConfig) {
    let reference =
        run_blocking_threads(net, &MaxFlowScheduler::default(), cfg, 1).expect("blocking batch");
    for t in [2, 4, 8] {
        let r = run_blocking_threads(net, &MaxFlowScheduler::default(), cfg, t)
            .expect("blocking batch");
        assert_eq!(
            reference.blocking.mean.to_bits(),
            r.blocking.mean.to_bits(),
            "thread count {t} changed the statistics"
        );
    }
}

fn check_replicated(net: &Network) {
    let cfg = DynamicConfig {
        arrival_rate: 0.5,
        sim_time: 150.0,
        warmup: 15.0,
        seed: SEED,
        ..DynamicConfig::default()
    };
    let grid = TrialGrid {
        configs: &[cfg],
        trials: REPLICAS,
        faults: None,
        policy: DegradedPolicy::Bfs,
    };
    let replicated = |threads| -> ReplicatedStats {
        let rows =
            run_trials(net, &MaxFlowScheduler::default(), &grid, threads).expect("replicated run");
        merge_faulted(&rows[0]).stats
    };
    let reference = replicated(1);
    for t in [2usize, 8] {
        let r = replicated(t);
        assert_eq!(
            reference.completed, r.completed,
            "completed drifted at {t} threads"
        );
        assert_eq!(reference.cycles, r.cycles, "cycles drifted at {t} threads");
        for (name, a, b) in [
            ("response.mean", reference.response.mean, r.response.mean),
            ("response.ci95", reference.response.ci95, r.response.ci95),
            ("response.p99", reference.response.p99, r.response.p99),
            (
                "utilization.mean",
                reference.utilization.mean,
                r.utilization.mean,
            ),
            (
                "mean_queue.mean",
                reference.mean_queue.mean,
                r.mean_queue.mean,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "replicated {name} drifted at {t} threads"
            );
        }
    }
}

/// Past saturation (ρ 1.5, batch-4 arrivals, 32-deep queues) the bound
/// overflows and a backlog reaches the horizon; at ρ 0.7 nothing sheds.
fn check_heavy_traffic(net: &Network) {
    let cfg = DynamicConfig {
        rho: 1.5,
        batch_size: 4,
        queue_capacity: 32,
        sim_time: 120.0,
        warmup: 12.0,
        seed: SEED,
        ..DynamicConfig::default()
    };
    let run = |rho| {
        SystemSim::new(net, DynamicConfig { rho, ..cfg })
            .run(&MaxFlowScheduler::default())
            .expect("heavy-traffic run")
    };
    assert_eq!(run(0.7).shed_arrivals, 0, "sub-critical run must not shed");
    let hot = run(1.5);
    assert!(hot.shed_arrivals > 0, "rho 1.5 must overflow the bound");
    assert!(hot.final_queue > 0, "rho 1.5 must carry a backlog");
}

fn check_stream_equivalence(net: &Network, cmds: &[StreamCommand]) {
    let decisions =
        replay_incremental(net, IncrementalBackend::MaxFlow, cmds).expect("valid stream");
    let batch_counts = replay_batch(net, cmds).expect("batch replays");
    let mut allocated = 0usize;
    for (d, &want) in decisions.iter().zip(&batch_counts) {
        match d {
            StreamDecision::Allocated { .. } => allocated += 1,
            StreamDecision::Released { promoted, .. } => {
                allocated -= 1;
                if promoted.is_some() {
                    allocated += 1;
                }
            }
            StreamDecision::Queued { .. } | StreamDecision::Withdrawn { .. } => {}
        }
        assert_eq!(allocated, want, "incremental diverged from batch re-solve");
    }
}

/// The two-stage scheduler on 4 shards × omega-16 under a crossbar:
/// thread-invariant statistics, one transformation build per shard, and
/// never more allocations than the flat Theorem-2 oracle.
fn check_sharded() {
    let net = ShardedNetwork::new(ShardedSpec::new(4, 16, GlobalTopology::Crossbar))
        .expect("4x16 crossbar composition is well-formed");
    let flat = net.flatten().expect("composition flattens");
    let cfg = ShardedTrialConfig {
        trials: 128,
        requests: 32,
        free: 32,
        seed: SEED,
    };
    let reference =
        run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, 1).expect("sharded trials");
    assert!(
        reference.rebuilds_ok,
        "a shard rebuilt its transformation graph"
    );
    for t in [4, 1, 8] {
        let r =
            run_sharded_trials(&net, InterShardPolicy::TokenRing, &cfg, t).expect("sharded trials");
        for (name, a, b) in [
            ("blocking.mean", reference.blocking.mean, r.blocking.mean),
            ("allocated.mean", reference.allocated.mean, r.allocated.mean),
            ("remote.mean", reference.remote.mean, r.remote.mean),
            (
                "stage1_blocked.mean",
                reference.stage1_blocked.mean,
                r.stage1_blocked.mean,
            ),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "sharded {name} drifted at {t} threads"
            );
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let paired = run_paired_trials(&net, &flat, InterShardPolicy::TokenRing, &cfg, threads)
        .expect("paired trials");
    for (trial, (hier, flat)) in paired.iter().enumerate() {
        assert!(
            hier <= flat,
            "trial {trial}: hierarchical {hier} above flat {flat}"
        );
    }
}

/// One stream workload at CI scale: [`STREAM_EVENTS`] commands at load 0.8
/// over every processor of `net`, through the observed incremental
/// scheduler. `queue_need` is what the `queued` and `promoted` rows must
/// show.
fn ledger_stream(ledger: &mut Ledger, workload: &'static str, net: &Network, queue_need: Need) {
    let cmds = generate_commands(net.num_processors(), STREAM_EVENTS, 0.8, SEED, 0);
    let telemetry = Telemetry::new();
    let inc = replay_observed(net, &cmds, &telemetry);
    let n = cmds.len() as u64;
    for (unit, c, need) in [
        ("decisions", Counter::StreamDecisions, Need::NonZero),
        ("allocated", Counter::StreamAllocated, Need::NonZero),
        ("queued", Counter::StreamQueued, queue_need),
        ("released", Counter::StreamReleased, Need::NonZero),
        ("promoted", Counter::StreamPromoted, queue_need),
    ] {
        ledger.put((workload, "stream", unit), telemetry.counter(c), n, need);
    }
    let key = (workload, "transform", "rebuilds");
    ledger.put(key, inc.rebuilds(), 1, Need::OnePerOp);
}

/// One sim workload at CI scale: [`SIM_TRIALS`] trials of the observed
/// faulted-trial entry point under the priced degraded policy, with
/// correlated stage-power-domain faults when `faults` is set. Returns the
/// workload's telemetry.
fn ledger_sim(
    ledger: &mut Ledger,
    workload: &'static str,
    net: &Network,
    scheduler: &dyn Scheduler,
    cfg: DynamicConfig,
    faults: Option<FaultPlanConfig>,
) -> TelemetryReport {
    let telemetry = Telemetry::new();
    let mut rebuilds = 0;
    for trial in 0..SIM_TRIALS {
        let plan = faults.as_ref().map_or_else(FaultPlan::empty, |f| {
            let model = FaultModel::Correlated { domain_boxes: 2 };
            plan_for_model(net, f, model, fault_plan_seed(cfg.seed, trial))
        });
        let stats = SystemSim::new(net, cfg)
            .try_run_faulted_trial_policy_probed(
                scheduler,
                &plan,
                trial,
                DegradedPolicy::Priced,
                &telemetry,
            )
            .expect("sim trial");
        rebuilds += stats.transform_rebuilds;
    }
    let r = telemetry.report();
    let counter = |c: Counter| r.counters[c.index()];
    let cycles = counter(Counter::Cycles);
    for (unit, c, ops, need) in [
        ("cycles", Counter::Cycles, SIM_TRIALS, Need::NonZero),
        (
            "degraded_cycles",
            Counter::DegradedCycles,
            cycles,
            Need::Any,
        ),
        ("recovered", Counter::Recovered, cycles, Need::Any),
        ("shed", Counter::Shed, cycles, Need::Any),
        ("faults", Counter::Faults, SIM_TRIALS, Need::Any),
        ("repairs", Counter::Repairs, SIM_TRIALS, Need::Any),
    ] {
        ledger.put((workload, "sim", unit), counter(c), ops, need);
    }
    ledger.flow(workload, "flow", &r, cycles);
    let key = (workload, "transform", "transform_rebuilds");
    ledger.put(key, rebuilds, SIM_TRIALS, Need::OnePerOp);
    r
}

/// `sharded_cycle` at CI scale: 8 shards × omega-16 under a global omega,
/// token ring, load 0.9, plus the flat Theorem-2 oracle on the same
/// snapshots. A plain scheduler runs beside the observed one, and the first
/// cycle whose outcomes differ exits 1: sinks must only record.
fn ledger_sharded(ledger: &mut Ledger) {
    const W: &str = "sharded_cycle";
    let net = ShardedNetwork::new(ShardedSpec::new(8, 16, GlobalTopology::Omega))
        .expect("8x16 omega composition is well-formed");
    let flat_net = net.flatten().expect("composition flattens");
    let h = HierarchicalScheduler::observed(&net, InterShardPolicy::TokenRing);
    let plain = HierarchicalScheduler::new(&net, InterShardPolicy::TokenRing);
    let flat = Telemetry::new();
    let mut flat_scratch = ScheduleScratch::new();
    let mut flat_allocated = 0;
    let total = net.num_ports();
    let k = ((total as f64 * 0.9).round() as usize).max(1);
    for c in 0..SHARD_CYCLES {
        let (req, free) = sharded_snapshot(total, k, k, &mut trial_rng(SEED, c));
        let observed = h.schedule(&req, &free).expect("hierarchical cycle");
        if plain.schedule(&req, &free) != Ok(observed) {
            eprintln!("bench_smoke: sharded cycle {c}: the plain and observed schedulers differ");
            std::process::exit(1);
        }
        let cs = CircuitState::new(&flat_net);
        let problem = ScheduleProblem::homogeneous(&cs, &req, &free);
        flat_allocated += MaxFlowScheduler::default()
            .try_schedule_observed(&problem, &mut flat_scratch, &flat)
            .expect("flat oracle")
            .allocated() as u64;
    }
    let merged = h.shard_report().expect("observed scheduler").merged;
    let counter = |c: Counter| merged.counters[c.index()];
    for (layer, unit, c) in [
        ("place", "home_placed", Counter::ShardHomePlaced),
        ("place", "remote_in", Counter::ShardRemoteIn),
        ("shards", "allocated", Counter::ShardAllocated),
    ] {
        ledger.put((W, layer, unit), counter(c), SHARD_CYCLES, Need::NonZero);
    }
    let rebuilds = h.rebuilds_per_shard();
    let shards = rebuilds.len() as u64;
    let key = (W, "shards", "rebuilds_per_shard");
    ledger.put(key, rebuilds.iter().sum(), shards, Need::OnePerOp);
    ledger.flow(W, "flow", &merged, SHARD_CYCLES);
    ledger.extract(W, &merged, SHARD_CYCLES);
    // Shards hold no circuits between cycles: every solve that has a cut
    // to fill starts on an idle, graded fabric.
    ledger.graded(W, "flow", &merged, SHARD_CYCLES, Need::NonZero);
    for (unit, c) in [
        ("searches", Counter::RemoteSearches),
        ("links_reached", Counter::RemoteLinksReached),
    ] {
        ledger.put((W, "stage1", unit), counter(c), SHARD_CYCLES, Need::NonZero);
    }
    let key = (W, "flat", "allocated");
    ledger.put(key, flat_allocated, SHARD_CYCLES, Need::NonZero);
    ledger.flow(W, "flat", &flat.report(), SHARD_CYCLES);
}

/// The reset batch for both schedulers; returns their telemetry merged.
fn ledger_reset_batch(ledger: &mut Ledger, net: &Network) -> TelemetryReport {
    let mut scratch = ScheduleScratch::new();
    let max_flow = Telemetry::new();
    reset_batch(
        net,
        &MaxFlowScheduler::default(),
        &mut scratch,
        Some(&max_flow),
    );
    let min_cost = Telemetry::new();
    reset_batch(
        net,
        &MinCostScheduler::default(),
        &mut scratch,
        Some(&min_cost),
    );
    let mut merged = max_flow.report();
    ledger.flow("reset_batch", "max_flow", &merged, BATCH_TRIALS);
    ledger.extract("reset_batch", &merged, BATCH_TRIALS);
    ledger.graded("reset_batch", "max_flow", &merged, BATCH_TRIALS, Need::Any);
    let min_cost = min_cost.report();
    ledger.flow("reset_batch", "min_cost", &min_cost, BATCH_TRIALS);
    merged.merge(&min_cost);
    merged
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let telemetry_path = take_flag(&mut args, "--telemetry");
    if let Some(stray) = args.iter().find(|a| a.starts_with('-')).or(args.get(1)) {
        usage_error(&format!("unknown argument {stray:?}"));
    }
    let out_path = args.pop().unwrap_or_else(|| "OPS_ledger.tsv".into());

    let net = omega(16).expect("omega-16");
    let blocking_cfg = BlockingConfig {
        trials: 1024,
        requests: 8,
        resources: 8,
        occupied_circuits: 2,
        seed: SEED,
    };
    let stream_cmds = generate_commands(net.num_processors(), 384, 0.8, SEED, 0);

    println!("bench_smoke: contracts");
    check_blocking_threads(&net, &blocking_cfg);
    check_replicated(&net);
    check_heavy_traffic(&net);
    check_stream_equivalence(&net, &stream_cmds);
    check_sharded();

    println!("bench_smoke: op-count ledger");
    let mut ledger = Ledger::default();
    let omega64 = omega(64).expect("omega-64");
    ledger_stream(&mut ledger, "serve_stream", &omega64, Need::Any);
    // Omega has one resource per processor and never queues; half as many
    // resources as processors makes the queue and promote paths run.
    let undersized = crossbar(16, 8).expect("crossbar-16x8");
    ledger_stream(&mut ledger, "serve_queue", &undersized, Need::NonZero);
    let heavy = DynamicConfig {
        rho: 0.99,
        queue_capacity: 32,
        sim_time: 30.0,
        warmup: 3.0,
        seed: SEED,
        ..DynamicConfig::default()
    };
    let dinic = MaxFlowScheduler::default();
    let r = ledger_sim(&mut ledger, "dynamic_heavy", &omega64, &dinic, heavy, None);
    let cycles = r.counters[Counter::Cycles.index()];
    ledger.extract("dynamic_heavy", &r, cycles);
    ledger.graded("dynamic_heavy", "flow", &r, cycles, Need::Any);
    let faulted = DynamicConfig {
        rho: 0.9,
        priority_levels: 4,
        sim_time: 200.0,
        warmup: 20.0,
        seed: SEED,
        ..DynamicConfig::default()
    };
    let faults = FaultPlanConfig::links(0.0005, 25.0, faulted.sim_time);
    let net3dp = omega_3dp(16).expect("3dp-omega-16");
    let ssp = MinCostScheduler::default();
    let w = "faulted_correlated";
    ledger_sim(&mut ledger, w, &net3dp, &ssp, faulted, Some(faults));
    ledger_sharded(&mut ledger);
    let telemetry = ledger_reset_batch(&mut ledger, &net);

    // The faulted workload must have injected faults and degraded cycles.
    for unit in ["faults", "degraded_cycles"] {
        ledger.need((w, "sim", unit), Need::NonZero);
    }
    let violations = ledger.violations();
    if !violations.is_empty() {
        eprintln!("bench_smoke: ledger rows show a path that did no work:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
    let tsv = ledger.to_tsv();
    print!("{tsv}");
    if let Err(e) = std::fs::write(&out_path, tsv) {
        usage_error(&format!("could not write {out_path}: {e}"));
    }
    println!("ledger written to {out_path}");
    if let Some(path) = &telemetry_path {
        if let Err(e) = std::fs::write(path, telemetry.to_json("bench_smoke")) {
            usage_error(&format!("could not write telemetry {path}: {e}"));
        }
        println!("telemetry written to {path}");
    }

    println!("bench_smoke: paired-ratio gates");
    let max_flow = MaxFlowScheduler::default();
    let (mut observed, mut plain) = (ScheduleScratch::new(), ScheduleScratch::new());
    let mut ok = gate(
        "noop_probe_overhead",
        OVERHEAD_LIMIT,
        || reset_batch(&net, &max_flow, &mut observed, Some(&NoopProbe)),
        || reset_batch(&net, &max_flow, &mut plain, None),
    );
    let incremental = || replay_incremental(&net, IncrementalBackend::MaxFlow, &stream_cmds);
    // One replay is tens of microseconds: each side times a 64-replay loop.
    let recorder = FlightRecorder::new(1 << 16);
    ok &= gate(
        "trace_overhead",
        OVERHEAD_LIMIT,
        || (0..64).for_each(|_| drop(black_box(replay_observed(&net, &stream_cmds, &recorder)))),
        || (0..64).for_each(|_| drop(black_box(incremental()))),
    );
    ok &= gate(
        "incremental_vs_batch",
        MIN_STREAM_SPEEDUP.recip(),
        incremental,
        || replay_batch(&net, &stream_cmds),
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        let blocking =
            |t| run_blocking_threads(&net, &max_flow, &blocking_cfg, t).expect("blocking batch");
        ok &= gate(
            "threads_4_vs_1",
            MIN_PARALLEL_SPEEDUP.recip(),
            || blocking(4),
            || blocking(1),
        );
    } else {
        println!("  threads_4_vs_1: skipped ({cores} core(s), gate needs >= 4)");
    }
    if !ok {
        eprintln!("bench_smoke: a paired-ratio gate failed");
        std::process::exit(1);
    }
}
