//! The `serve` binary rejects bad command-line input and unreadable replay
//! files (exit code 2) instead of panicking or silently serving a
//! degenerate stream.

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
fn numeric_flag_errors_name_the_flag_and_the_value() {
    for flag in ["--seed", "--trial", "--events", "--stats-every", "--load"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([flag, "x"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("serve: {flag} \"x\": ")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn an_event_count_too_large_to_hold_is_a_usage_error() {
    // The generated stream is held in memory; a count it cannot hold exits
    // 2 with a message before any work starts, not with a capacity panic.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--events", "18446744073709551615", "--load", "0"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("does not fit in memory"), "{stderr}");
}

#[test]
fn loads_past_saturation_stay_legal() {
    // The `--heavy` ladder drives the generator at rho > 1.
    assert_eq!(
        exit_code(&["--net", "omega8", "--events", "16", "--load", "1.05"]),
        Some(0)
    );
}

/// Run `serve --net omega8 --replay <file>` on `contents` written to a
/// fresh file (or on a missing one for `None`), returning the exit code and
/// stdout.
fn replay(dir: &std::path::Path, name: &str, contents: Option<&[u8]>) -> (Option<i32>, String) {
    let path = dir.join(name);
    if let Some(bytes) = contents {
        std::fs::write(&path, bytes).expect("write replay file");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--net", "omega8", "--replay"])
        .arg(&path)
        .output()
        .expect("binary runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    )
}

#[test]
fn replay_reader_rejects_bad_files_without_panicking() {
    let dir = std::env::temp_dir().join(format!("rsin-serve-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (name, contents) in [
        ("non-utf8.cmds", Some(&b"R \xff\xfe\n"[..])),
        ("unknown-op.cmds", Some(b"Q 3\n")),
        ("overflow.cmds", Some(b"R 99999999999999999999\n")),
        ("missing.cmds", None),
    ] {
        assert_eq!(replay(&dir, name, contents).0, Some(2), "{name}");
    }
    assert_eq!(replay(&dir, "empty.cmds", Some(b"")).0, Some(0));
    // Processors the network lacks are per-command errors, not failures.
    let (code, stdout) = replay(
        &dir,
        "unknown-ids.cmds",
        Some(b"R 99\nR 4000000000\nF 99\nR 1\n"),
    );
    assert_eq!(code, Some(0));
    let lines: Vec<&str> = stdout.lines().collect();
    let count = |what: &str| lines.iter().filter(|l| l.contains(what)).count();
    assert_eq!(count("error unknown processor"), 3, "{stdout}");
    assert_eq!(count(" alloc "), 1, "{stdout}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}
