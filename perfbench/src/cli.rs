//! Strict command-line parsing: every flag is required exactly once, every
//! value must parse, and anything else is a typed error (never a silent
//! default).

use std::fmt;

/// The benchmark's workloads (see `LAYERS.md` for what each one loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeStream,
    DynamicHeavy,
    FaultedCorrelated,
    ShardedCycle,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeStream,
        Workload::DynamicHeavy,
        Workload::FaultedCorrelated,
        Workload::ShardedCycle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeStream => "serve_stream",
            Workload::DynamicHeavy => "dynamic_heavy",
            Workload::FaultedCorrelated => "faulted_correlated",
            Workload::ShardedCycle => "sharded_cycle",
        }
    }
}

/// Longest measurement window accepted; the run must finish well inside the
/// harness's per-run limit.
pub const MAX_SECONDS: u64 = 60;

#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    UnknownFlag(String),
    MissingValue(&'static str),
    DuplicateFlag(&'static str),
    MissingFlag(&'static str),
    UnknownWorkload(String),
    BadSeed(String),
    BadSeconds(String),
    BadTrace(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(a) => write!(f, "unknown argument {a:?}"),
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::DuplicateFlag(flag) => write!(f, "{flag} given more than once"),
            CliError::MissingFlag(flag) => write!(f, "{flag} is required"),
            CliError::UnknownWorkload(w) => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                write!(
                    f,
                    "unknown workload {w:?} (expected one of {})",
                    names.join("|")
                )
            }
            CliError::BadSeed(s) => write!(f, "--seed wants a decimal u64, got {s:?}"),
            CliError::BadSeconds(s) => {
                write!(
                    f,
                    "--seconds wants an integer in 1..={MAX_SECONDS}, got {s:?}"
                )
            }
            CliError::BadTrace(s) => write!(f, "--trace wants 0 or 1, got {s:?}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Strict decimal: `u64::from_str` accepts a leading `+`, which would let a
/// malformed value through.
fn decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
    const FLAGS: [&str; 4] = ["--workload", "--seed", "--seconds", "--trace"];
    let mut values: [Option<String>; 4] = Default::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let slot = FLAGS
            .iter()
            .position(|f| *f == arg)
            .ok_or_else(|| CliError::UnknownFlag(arg.clone()))?;
        let flag = FLAGS[slot];
        let value = it.next().ok_or(CliError::MissingValue(flag))?;
        if values[slot].replace(value).is_some() {
            return Err(CliError::DuplicateFlag(flag));
        }
    }
    let [workload, seed, seconds, trace] = values;
    let workload = workload.ok_or(CliError::MissingFlag("--workload"))?;
    let seed = seed.ok_or(CliError::MissingFlag("--seed"))?;
    let seconds = seconds.ok_or(CliError::MissingFlag("--seconds"))?;
    let trace = trace.ok_or(CliError::MissingFlag("--trace"))?;
    Ok(Args {
        workload: Workload::ALL
            .into_iter()
            .find(|w| w.name() == workload)
            .ok_or(CliError::UnknownWorkload(workload))?,
        seed: decimal(&seed).ok_or(CliError::BadSeed(seed))?,
        seconds: decimal(&seconds)
            .filter(|s| (1..=MAX_SECONDS).contains(s))
            .ok_or(CliError::BadSeconds(seconds))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(CliError::BadTrace(trace)),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn accepts_the_full_flag_set_in_any_order() {
        let a = parse(argv(
            "--trace 1 --seconds 5 --seed 7 --workload sharded_cycle",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ShardedCycle);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 5, true));
    }

    #[test]
    fn rejects_every_malformed_input() {
        let ok = "--workload serve_stream --seed 1 --seconds 3 --trace 0";
        assert!(parse(argv(ok)).is_ok());
        let cases = [
            (
                "--workload nope --seed 1 --seconds 3 --trace 0",
                "unknown workload",
            ),
            (
                "--workload serve_stream --seed +1 --seconds 3 --trace 0",
                "--seed",
            ),
            (
                "--workload serve_stream --seed -1 --seconds 3 --trace 0",
                "--seed",
            ),
            (
                "--workload serve_stream --seed 1 --seconds 0 --trace 0",
                "--seconds",
            ),
            (
                "--workload serve_stream --seed 1 --seconds 3 --trace 2",
                "--trace",
            ),
            (
                "--workload serve_stream --seed 1 --seconds 3",
                "--trace is required",
            ),
            (
                "--workload serve_stream --seed 1 --seconds 3 --trace",
                "needs a value",
            ),
            (
                "--workload serve_stream --seed 1 --seed 2 --seconds 3 --trace 0",
                "more than once",
            ),
            (
                "--workload serve_stream --seed 1 --seconds 3 --trace 0 --x 1",
                "unknown argument",
            ),
        ];
        for (line, want) in cases {
            let err = parse(argv(line)).unwrap_err().to_string();
            assert!(err.contains(want), "{line}: {err}");
        }
    }
}
