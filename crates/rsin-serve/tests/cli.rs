//! The `serve` binary rejects bad command-line input (exit code 2) instead
//! of panicking or silently serving a degenerate stream.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
}

#[test]
fn bad_arguments_are_usage_errors() {
    for args in [
        &["--load", "nan"][..],
        &["--load", "-1"],
        &["--load", "inf"],
        &["--events", "x"],
        // A removed flag is an unknown argument.
        &["--workers", "8"],
    ] {
        assert_eq!(exit_code(args), Some(2), "serve {args:?}");
    }
}

#[test]
fn loads_past_saturation_stay_legal() {
    // The `--heavy` ladder drives the generator at rho > 1.
    assert_eq!(
        exit_code(&["--net", "omega8", "--events", "16", "--load", "1.05"]),
        Some(0)
    );
}
