//! Shared helpers for the experiment binaries (one binary per paper
//! figure/claim; see EXPERIMENTS.md at the workspace root for the index).

use rsin_obs::{Hist, TelemetryReport};
use rsin_topology::{builders, Network};
use std::fmt::Display;
use std::io::Write;

/// Print a result table and, when `RSIN_CSV_DIR` is set, also write it as
/// `<dir>/<name>.csv` so experiment outputs can be archived/diffed.
pub fn emit_table(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    print_table(headers, rows);
    if let Ok(dir) = std::env::var("RSIN_CSV_DIR") {
        if let Err(e) = write_csv(&dir, name, headers, rows) {
            eprintln!("warning: could not write {name}.csv: {e}");
        }
    }
}

fn write_csv(dir: &str, name: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = std::path::Path::new(dir).join(format!("{name}.csv"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let quote = |s: &str| {
        if s.contains([',', '"', '\n']) {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    writeln!(
        f,
        "{}",
        headers
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for row in rows {
        if row.iter().all(|c| c.is_empty()) {
            continue; // visual spacer rows
        }
        writeln!(
            f,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        )?;
    }
    f.flush()
}

/// Print where a telemetry capture's cycles spent their time: one row each
/// for the flow cycle's solve, configure and extract stages (sample count,
/// mean and p99 in ns), then the finish stage and the simulation's event,
/// snapshot and commit stages, each only where it has samples. `name` is
/// the table's CSV name (see [`emit_table`]).
pub fn emit_stage_table(name: &str, report: &TelemetryReport) {
    let sampled = [
        Hist::FinishNs,
        Hist::EventNs,
        Hist::SnapshotNs,
        Hist::CommitNs,
    ]
    .into_iter()
    .filter(|h| report.hists[h.index()].count > 0);
    let rows: Vec<Vec<String>> = [Hist::SolveLatencyNs, Hist::ConfigureNs, Hist::ExtractNs]
        .into_iter()
        .chain(sampled)
        .map(|h| {
            let hist = &report.hists[h.index()];
            vec![
                h.name().to_string(),
                hist.count.to_string(),
                format!("{:.0}", hist.mean()),
                hist.quantile(0.99).to_string(),
            ]
        })
        .collect();
    emit_table(name, &["stage", "count", "mean ns", "p99 ns"], &rows);
}

/// Fixed-width plain-text table printer for experiment output.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Build a network by the name [`Network::name`] prints
/// ([`builders::by_name`]): `omega-8`, `cube-8`, `crossbar-8x8`, the
/// path-diverse `omega-8+1` and `3dp-omega-8`, …; `None` for a name no
/// builder prints or an unusable size.
pub fn network_by_name(name: &str) -> Option<Network> {
    builders::by_name(name).ok()
}

/// The standard set of 8×8 topologies the experiments sweep over.
pub fn standard_networks() -> Vec<Network> {
    ["omega-8", "cube-8", "baseline-8", "benes-8", "crossbar-8x8"]
        .iter()
        .map(|n| network_by_name(n).expect("registry"))
        .collect()
}

/// Pop `--flag value` out of `args`; returns the value. A flag with no
/// value after it is a usage error: print it and exit with code 2.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    pop_flag(args, flag).unwrap_or_else(|e| usage_error(&e))
}

/// Exit with code 2 on an argument no flag took: one that starts with `-`,
/// or a positional past the first `positional`.
pub fn reject_stray(args: &[String], positional: usize) {
    if let Some(stray) = args
        .iter()
        .find(|a| a.starts_with('-'))
        .or(args.get(positional))
    {
        usage_error(&format!("unknown argument {stray:?}"));
    }
}

/// Parse `value` (named `what` in the message), exiting with code 2 when it
/// does not parse instead of falling back to a default.
pub fn parse_or_exit<T: std::str::FromStr>(what: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage_error(&format!("{what} wants a number, got {value:?}")))
}

/// Print a usage error and exit with code 2.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

fn pop_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// A JSON string literal: `s` in quotes, with quotes and backslashes
/// escaped.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// One report row: a JSON object on one indented line. Each value is
/// written in its `Display` form: a number, a bool, or a [`json_str`].
pub fn json_row(fields: &[(&str, &dyn Display)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("    {{{}}}", fields.join(", "))
}

/// A JSON report: the `header` fields one per line, then each nonempty
/// array of [`json_row`]s under its key. Values as in [`json_row`].
pub fn json_report(header: &[(&str, &dyn Display)], arrays: &[(&str, &[String])]) -> String {
    let mut lines: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    for (key, rows) in arrays.iter().filter(|(_, rows)| !rows.is_empty()) {
        lines.push(format!("  \"{key}\": [\n{}\n  ]", rows.join(",\n")));
    }
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Write a report file and name it on stdout (`<what> written to <path>`).
/// A report that cannot be written is an error: print it and exit with
/// code 2.
pub fn write_report(path: &str, what: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        usage_error(&format!("could not write {path}: {e}"));
    }
    println!("\n{what} written to {path}");
}

/// Format a mean ± CI pair as a percentage.
pub fn pct(mean: f64, ci: f64) -> String {
    format!("{:5.2}% ±{:.2}", 100.0 * mean, 100.0 * ci)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_lays_out_header_and_rows() {
        let rows = [
            json_row(&[("a", &1), ("name", &json_str("x\"y"))]),
            json_row(&[("a", &0.5), ("ok", &true)]),
        ];
        let report = json_report(
            &[("source", &json_str("t")), ("seed", &7)],
            &[("rows", &rows), ("empty", &[])],
        );
        assert_eq!(
            report,
            "{\n  \"source\": \"t\",\n  \"seed\": 7,\n  \"rows\": [\n    \
             {\"a\": 1, \"name\": \"x\\\"y\"},\n    {\"a\": 0.5, \"ok\": true}\n  ]\n}\n"
        );
    }

    #[test]
    fn registry_resolves_known_names() {
        assert!(network_by_name("omega-8").is_some());
        assert!(network_by_name("cube-16").is_some());
        assert!(network_by_name("benes-4").is_some());
        assert!(network_by_name("nonsense-8").is_none());
        assert!(network_by_name("omega").is_none());
    }

    #[test]
    fn registry_resolves_path_diverse_variants() {
        let extra = network_by_name("omega-8+1").unwrap();
        assert_eq!(extra.num_stages(), 4);
        let plain = network_by_name("omega-8+0").unwrap();
        assert_eq!(plain.num_stages(), 3);
        let tdp = network_by_name("3dp-omega-8").unwrap();
        assert_eq!(tdp.num_processors(), 8);
        assert!(network_by_name("benes-8+1").is_none());
        assert!(network_by_name("omega-8+x").is_none());
        assert!(network_by_name("3dp-omega-7").is_none());
    }

    #[test]
    fn standard_networks_are_five() {
        let nets = standard_networks();
        assert_eq!(nets.len(), 5);
        assert!(nets.iter().all(|n| n.num_processors() == 8));
    }

    #[test]
    fn take_flag_pops_the_flag_and_its_value() {
        let mut args: Vec<String> = ["400", "--replicas", "4", "--json", "out.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(take_flag(&mut args, "--replicas").as_deref(), Some("4"));
        assert_eq!(take_flag(&mut args, "--threads"), None);
        assert_eq!(take_flag(&mut args, "--json").as_deref(), Some("out.json"));
        assert_eq!(args, ["400"]);
        let mut dangling = vec!["--json".to_string()];
        assert_eq!(
            pop_flag(&mut dangling, "--json"),
            Err("--json needs a value".to_string())
        );
        assert_eq!(parse_or_exit::<usize>("--threads", "8"), 8);
        assert_eq!(parse_or_exit::<f64>("horizon", "400"), 400.0);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0213, 0.001), " 2.13% ±0.10");
    }
}
