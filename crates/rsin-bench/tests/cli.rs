//! The sweep and benchmark binaries reject numeric arguments that do not
//! parse (exit code 2) instead of silently running with a default or
//! panicking.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> Option<i32> {
    run(bin, args).0
}

/// Exit code and stderr of one run.
fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
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
    // `bench_smoke` takes `--telemetry <path>` and one output path; a stray
    // flag is not an output path, and `--replicas` is gone.
    let smoke = env!("CARGO_BIN_EXE_bench_smoke");
    assert_eq!(exit_code(smoke, &["--bogus"]), Some(2));
    assert_eq!(exit_code(smoke, &["--replicas", "4"]), Some(2));
    assert_eq!(exit_code(smoke, &["a.tsv", "b.tsv"]), Some(2));
}

#[test]
fn leftover_arguments_are_usage_errors() {
    // `dynamic` takes one positional, the horizon; `faults` takes none. The
    // thread count, trial count and report path are flags only, and an
    // argument no flag took exits 2 before any work starts.
    let dynamic = env!("CARGO_BIN_EXE_dynamic");
    let faults = env!("CARGO_BIN_EXE_faults");
    for (bin, args) in [
        (dynamic, &["400", "8"][..]),
        (dynamic, &["--bogus", "400"]),
        (dynamic, &["--replicas", "4", "400", "1"]),
        (faults, &["8"]),
        (faults, &["8", "4", "faults_report.json"]),
        (faults, &["--replicas", "4", "--bogus"]),
    ] {
        let (code, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains("unknown argument"),
            "{bin} {args:?}: {stderr}"
        );
    }
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

#[test]
fn unusable_sharded_compositions_print_the_builder_error() {
    // Zero shards, and a local size that is no omega size, both parse;
    // `ShardedNetwork::new` rejects them.
    let sharded = env!("CARGO_BIN_EXE_sharded");
    for (args, reason) in [
        (&["--shards", "0"][..], "shards must be >= 1"),
        (&["--local", "3"], "must be a power of two"),
        (&["--shards", "2,0", "--trials", "1"], "shards must be >= 1"),
    ] {
        let (code, stderr) = run(sharded, args);
        assert_eq!(code, Some(2), "sharded {args:?}: {stderr}");
        assert!(stderr.contains(reason), "sharded {args:?}: {stderr}");
    }
}

#[test]
fn unusable_counts_are_usage_errors() {
    // Each count parses but cannot run: a per-trial table too large to
    // allocate, or zero trials behind a self-check. Both exit 2 with a
    // message before any work starts.
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_blocking"),
        &["18446744073709551615", "1"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("does not fit in memory"), "{stderr}");
    let (code, stderr) = run(env!("CARGO_BIN_EXE_speedup"), &["0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("at least 1"), "{stderr}");
}

#[test]
fn trial_counts_that_run_nothing_are_usage_errors() {
    // `blocking` splits its trials over 7 cells per row, so 6 would run
    // none and print a table of 0% blocking; `sharded --trials 0` would
    // write an all-zero report. Both exit 2 with a message instead.
    let (code, stderr) = run(env!("CARGO_BIN_EXE_blocking"), &["6", "1"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("at least 7"), "{stderr}");
    let (code, stderr) = run(
        env!("CARGO_BIN_EXE_sharded"),
        &["--trials", "0", "--threads", "1"],
    );
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("at least 1 trial"), "{stderr}");
}
