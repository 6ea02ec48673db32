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
    for flag in [
        "--local",
        "--trials",
        "--threads",
        "--shard-pool",
        "--seed",
        "--shards",
    ] {
        assert_eq!(exit_code(sharded, &[flag, "x"]), Some(2), "sharded {flag}");
    }
    assert_eq!(exit_code(sharded, &["--shards", "2,four"]), Some(2));
    let smoke = env!("CARGO_BIN_EXE_bench_smoke");
    assert_eq!(exit_code(smoke, &["--replicas", "1.5"]), Some(2));
}
