//! `sharded_cycle`: `HierarchicalScheduler` over 8 shards × omega-16
//! locals under a global omega, `InterShardPolicy::TokenRing`, stage 2
//! serial (`shard_pool` 1). Each cycle is a fresh `sharded_snapshot` at load
//! 0.9 and starts only after the previous one ends (one caller, closed
//! loop). A run repeats one pool of snapshots as passes; the flat Theorem-2
//! solve on the same snapshots runs once, untimed, as the conformance
//! oracle.

use crate::cli::Args;
use crate::report::{best, ratio, rss_peak_mb, FastestPass, LatencyHist, Tally};
use crate::spans::SpanLog;
use crate::{alloc, Budget, Run, MIN_PASSES};
use rsin_core::model::{ScheduleOutcome, ScheduleProblem};
use rsin_core::scheduler::{
    HierarchicalOutcome, HierarchicalScheduler, InterShardPolicy, MaxFlowScheduler,
    ScheduleScratch, Scheduler,
};
use rsin_sim::sharded::sharded_snapshot;
use rsin_sim::workload::trial_rng;
use rsin_topology::{CircuitState, GlobalTopology, Network, ShardedNetwork, ShardedSpec};
use std::time::Instant;

const SHARDS: usize = 8;
const LOCAL: usize = 16;
const LOAD: f64 = 0.9;
const POLICY: InterShardPolicy = InterShardPolicy::TokenRing;
/// Snapshots per pass (about 0.4 s of cycles).
const POOL: usize = 4096;

fn build_net() -> Result<ShardedNetwork, String> {
    ShardedNetwork::new(ShardedSpec::new(SHARDS, LOCAL, GlobalTopology::Omega))
        .map_err(|e| format!("sharded network: {e}"))
}

/// A cycle's `(requests, free)` global ports.
type Snapshot = (Vec<usize>, Vec<usize>);

/// The pool: cycle `c`'s snapshot is drawn from the `(seed, c)` stream.
fn snapshots(seed: u64) -> Vec<Snapshot> {
    let total = SHARDS * LOCAL;
    let k = ((total as f64 * LOAD).round() as usize).max(1);
    (0..POOL as u64)
        .map(|c| sharded_snapshot(total, k, k, &mut trial_rng(seed, c)))
        .collect()
}

/// The flat Theorem-2 oracle on the flattened composition.
struct Flat {
    net: Network,
    scratch: ScheduleScratch,
}

impl Flat {
    fn new(net: &ShardedNetwork) -> Result<Self, String> {
        Ok(Flat {
            net: net.flatten().map_err(|e| format!("flatten: {e}"))?,
            scratch: ScheduleScratch::new(),
        })
    }

    fn allocated(&mut self, (req, free): &Snapshot) -> Result<usize, String> {
        let cs = CircuitState::new(&self.net);
        let problem = ScheduleProblem::homogeneous(&cs, req, free);
        MaxFlowScheduler::default()
            .try_schedule_reusing(&problem, &mut self.scratch)
            .map(|o| o.allocated())
            .map_err(|e| format!("flat oracle: {e}"))
    }
}

fn rebuilds_ok(h: &HierarchicalScheduler<'_>) -> bool {
    h.rebuilds_per_shard() == vec![1; SHARDS]
}

pub fn run(args: &Args) -> Result<Run, String> {
    if args.trace {
        traced(args)
    } else {
        timed(args)
    }
}

fn timed(args: &Args) -> Result<Run, String> {
    let pool = snapshots(args.seed);
    let mut flat = Flat::new(&build_net()?)?;
    let flat_alloc = pool
        .iter()
        .map(|s| flat.allocated(s))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tally = Tally::default();
    let window = Budget::new(args.seconds as f64);
    let mut cycles = FastestPass::default();
    let mut setups = Vec::new();
    let mut reference: Option<Vec<Option<usize>>> = None;
    while setups.len() < MIN_PASSES || window.left() {
        // A fresh set-up (network build + scheduler + first cycle, which
        // builds every shard's transformation graph), then the rest of the
        // pool timed cycle by cycle.
        let mut allocated = Vec::with_capacity(POOL);
        let (req, free) = &pool[0];
        let t0 = Instant::now();
        let net = build_net()?;
        let h = HierarchicalScheduler::new(&net, POLICY);
        let first = h.schedule(req, free);
        setups.push(t0.elapsed().as_secs_f64());
        allocated.push(first.ok().map(|o| o.allocated()));
        let mut cycle_ns = Vec::with_capacity(POOL);
        for (req, free) in &pool[1..] {
            let t0 = Instant::now();
            let out = h.schedule(req, free);
            cycle_ns.push(t0.elapsed().as_nanos() as u64);
            allocated.push(out.ok().map(|o| o.allocated()));
        }
        cycles.push(&cycle_ns);
        // A cycle passes its check when it succeeded on a scheduler that
        // built each shard's transform once, never beat the flat optimum,
        // and reproduced the first pass.
        let rebuilt_once = rebuilds_ok(&h);
        let first = reference.get_or_insert_with(|| allocated.clone());
        for ((a, r), &f) in allocated.iter().zip(first.iter()).zip(&flat_alloc) {
            tally.record(1, rebuilt_once && a == r && a.is_some_and(|a| a <= f));
        }
    }
    let hier: usize = reference.unwrap_or_default().iter().flatten().sum();
    let flat: usize = flat_alloc.iter().sum();
    Ok(Run {
        tally,
        values: vec![
            ("setup_s", best(&setups, false)),
            ("rss_peak_mb", rss_peak_mb().ok_or("no /proc/self/status")?),
            (
                "ops_per_s",
                ratio((POOL - 1) as f64 * 1e9, cycles.total_ns() as f64),
            ),
            ("op_mean_us", cycles.mean_us()),
            ("op_p99_us", cycles.p99_us()),
            ("model_quality", ratio(hier as f64, flat as f64)),
        ],
    })
}

/// One cycle through the stage entry points individually, each in its own
/// span: `place`, every `solve_shard`, `reduce`.
fn staged_cycle(
    h: &HierarchicalScheduler<'_>,
    spans: &SpanLog,
    op: u64,
    (req, free): &Snapshot,
    stage_ns: &mut [u64; 3],
    shard_hist: &mut LatencyHist,
) -> Result<HierarchicalOutcome, String> {
    let _s = spans.enter("rsin-core::scheduler::hierarchical.cycle", op);
    let t0 = Instant::now();
    let placement = {
        let _p = spans.enter("rsin-core::scheduler::hierarchical.place", op);
        h.place(req, free).map_err(|e| format!("place: {e}"))?
    };
    let t1 = Instant::now();
    let mut outcomes: Vec<ScheduleOutcome> = Vec::with_capacity(SHARDS);
    for s in 0..h.shards() {
        let _p = spans.enter("rsin-core::scheduler::hierarchical.solve_shard", op);
        let ts = Instant::now();
        outcomes.push(
            h.solve_shard(&placement, s)
                .map_err(|e| format!("solve_shard {s}: {e}"))?,
        );
        shard_hist.record(ts.elapsed().as_nanos() as u64);
    }
    let t2 = Instant::now();
    let out = {
        let _p = spans.enter("rsin-core::scheduler::hierarchical.reduce", op);
        h.reduce(&placement, &outcomes)
            .map_err(|e| format!("reduce: {e}"))?
    };
    let t3 = Instant::now();
    stage_ns[0] += (t1 - t0).as_nanos() as u64;
    stage_ns[1] += (t2 - t1).as_nanos() as u64;
    stage_ns[2] += (t3 - t2).as_nanos() as u64;
    Ok(out)
}

fn traced(args: &Args) -> Result<Run, String> {
    let pool = snapshots(args.seed);
    let net = &build_net()?;
    let mut tally = Tally::default();
    let spans = SpanLog::new();
    let plain = HierarchicalScheduler::new(net, POLICY);
    let observed = HierarchicalScheduler::observed(net, POLICY);
    let mut flat = Flat::new(net)?;
    let (mut hier_sum, mut flat_sum, mut flat_ns) = (0, 0, 0u64);
    for (c, snap) in pool.iter().enumerate() {
        let _s = spans.enter("rsin-flow.flat_oracle", c as u64);
        let t0 = Instant::now();
        let f = flat.allocated(snap)?;
        flat_ns += t0.elapsed().as_nanos() as u64;
        let h = plain
            .schedule(&snap.0, &snap.1)
            .map_err(|e| format!("cycle {c}: {e}"))?
            .allocated();
        tally.record(1, h <= f);
        hier_sum += h;
        flat_sum += f;
    }
    let window = Budget::new(args.seconds as f64);
    let (mut network_s, mut rates) = (Vec::new(), Vec::new());
    let (mut untraced, mut shard_hist) = (LatencyHist::default(), LatencyHist::default());
    let mut stage_ns = [0u64; 3];
    let (mut plain_ns, mut traced_ns) = (0u64, 0u64);
    let (mut allocs, mut bytes) = (0u64, 0u64);
    let (mut remote, mut stage1) = (0, 0);
    let mut op = 0u64;
    while network_s.len() < MIN_PASSES || window.left() {
        let t0 = Instant::now();
        std::hint::black_box(build_net()?);
        network_s.push(t0.elapsed().as_secs_f64());
        let mut pass_ns = 0;
        for (c, snap) in pool.iter().enumerate() {
            let t0 = Instant::now();
            let out = plain.schedule(&snap.0, &snap.1);
            let ns = t0.elapsed().as_nanos() as u64;
            untraced.record(ns);
            pass_ns += ns;
            let out = out.map_err(|e| format!("cycle {c}: {e}"))?;

            let before = alloc::snapshot();
            alloc::enable(true);
            let t0 = Instant::now();
            let staged = staged_cycle(&observed, &spans, op, snap, &mut stage_ns, &mut shard_hist);
            traced_ns += t0.elapsed().as_nanos() as u64;
            alloc::enable(false);
            let after = alloc::snapshot();
            allocs += after.0 - before.0;
            bytes += after.1 - before.1;
            let staged = staged?;
            remote += staged.remote_placed;
            stage1 += staged.stage1_blocked;
            tally.record(1, staged == out);
            op += 1;
        }
        plain_ns += pass_ns;
        rates.push(POOL as f64 * 1e9 / pass_ns as f64);
    }
    if !(rebuilds_ok(&plain) && rebuilds_ok(&observed)) {
        tally.failed = tally.attempted;
    }
    spans
        .write_json(
            &std::path::Path::new(crate::TRACE_DIR).join("trace-sharded_cycle.json"),
            "sharded_cycle",
        )
        .map_err(|e| format!("writing spans: {e}"))?;
    let cycles = op as f64;
    let report = observed
        .shard_report()
        .ok_or("observed scheduler carries no sinks")?
        .merged;
    let rebuilds = observed.rebuilds_per_shard().into_iter().max().unwrap_or(0);
    let mut values = vec![
        ("failed_frac", tally.failed_frac()),
        ("shard.cycles_per_s", best(&rates, true)),
        ("shard.cycle_p50_us", untraced.quantile(0.5) / 1e3),
        ("shard.cycle_p99_us", untraced.quantile(0.99) / 1e3),
        (
            "shard.alloc_vs_flat",
            ratio(hier_sum as f64, flat_sum as f64),
        ),
        ("transform.rebuilds", rebuilds as f64),
        ("setup.network_build_s", best(&network_s, false)),
        ("hier.place_ns_mean", stage_ns[0] as f64 / cycles),
        ("hier.solve_shards_ns_mean", stage_ns[1] as f64 / cycles),
        ("hier.solve_shard_ns_p99", shard_hist.quantile(0.99)),
        ("hier.reduce_ns_mean", stage_ns[2] as f64 / cycles),
        ("hier.remote_per_cycle", remote as f64 / cycles),
        ("hier.stage1_blocked_per_cycle", stage1 as f64 / cycles),
        ("hier.flat_oracle_ns_mean", flat_ns as f64 / POOL as f64),
        ("alloc.count_per_op", allocs as f64 / cycles),
        ("alloc.bytes_per_op", bytes as f64 / cycles),
        (
            "trace.overhead_ratio",
            ratio(traced_ns as f64, plain_ns as f64),
        ),
    ];
    values.extend(crate::sim::flow_metrics(&report, op));
    Ok(Run { tally, values })
}
