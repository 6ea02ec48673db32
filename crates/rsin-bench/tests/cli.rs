//! The sweep and benchmark binaries reject numeric arguments that do not
//! parse (exit code 2) instead of silently running with a default or
//! panicking.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    Command::new(bin)
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
}

#[test]
fn unparseable_numbers_are_usage_errors() {
    let dynamic = env!("CARGO_BIN_EXE_dynamic");
    let faults = env!("CARGO_BIN_EXE_faults");
    assert_eq!(exit_code(dynamic, &["--replicas", "four"]), Some(2));
    assert_eq!(exit_code(dynamic, &["--threads", "1x"]), Some(2));
    assert_eq!(exit_code(dynamic, &["soon"]), Some(2));
    assert_eq!(exit_code(faults, &["--replicas", "-1"]), Some(2));
    assert_eq!(exit_code(faults, &["--replicas", "0"]), Some(2));
    assert_eq!(exit_code(faults, &["4", "many"]), Some(2));
    assert_eq!(exit_code(faults, &["--json"]), Some(2));
    let sharded = env!("CARGO_BIN_EXE_sharded");
    for flag in ["--local", "--trials", "--threads", "--seed", "--shards"] {
        assert_eq!(exit_code(sharded, &[flag, "x"]), Some(2), "sharded {flag}");
    }
    assert_eq!(exit_code(sharded, &["--shards", "2,four"]), Some(2));
    // A removed flag is an unknown argument.
    assert_eq!(exit_code(sharded, &["--shard-pool", "1"]), Some(2));
    let smoke = env!("CARGO_BIN_EXE_bench_smoke");
    assert_eq!(exit_code(smoke, &["--replicas", "1.5"]), Some(2));
}

#[test]
fn positional_count_bins_reject_bad_numbers() {
    // Each bin's first positional argument is a trial/round/sample count;
    // a bad one exits 2 before any work starts.
    for bin in [
        env!("CARGO_BIN_EXE_analytic"),
        env!("CARGO_BIN_EXE_blocking"),
        env!("CARGO_BIN_EXE_extra_stage"),
        env!("CARGO_BIN_EXE_hetero"),
        env!("CARGO_BIN_EXE_occupancy"),
        env!("CARGO_BIN_EXE_overhead"),
        env!("CARGO_BIN_EXE_speedup"),
        env!("CARGO_BIN_EXE_switching"),
        env!("CARGO_BIN_EXE_topo_report"),
    ] {
        assert_eq!(exit_code(bin, &["many"]), Some(2), "{bin}");
        assert_eq!(exit_code(bin, &["-5"]), Some(2), "{bin}");
    }
    // `blocking`'s second positional is the worker-thread count.
    let blocking = env!("CARGO_BIN_EXE_blocking");
    assert_eq!(exit_code(blocking, &["1", "eight"]), Some(2));
    // A missing argument still means the default; a good one still runs.
    assert_eq!(exit_code(env!("CARGO_BIN_EXE_topo_report"), &[]), Some(0));
    assert_eq!(exit_code(env!("CARGO_BIN_EXE_analytic"), &["3"]), Some(0));
}
