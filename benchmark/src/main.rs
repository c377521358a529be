//! `elsc-benchmark`: the host-clock benchmark of the simulator.
//!
//! Three ways in, all through `benchmark/run.sh`:
//!
//! * **one workload for the driver** —
//!   `--workload W --seed N --seconds S --trace 0|1` runs reps of `W`
//!   for `S` seconds and prints, as the last line, one JSON object with
//!   the `BENCHMARK.json` metrics (`--trace 0`: end to end; `--trace 1`:
//!   per layer, and the span file `out/trace-W.json`);
//! * **the whole suite for a person** — `[--seed N] [--reps R] [--trace]`
//!   interleaves `R` reps of all six workloads and prints every metric;
//!   `--write-expected`, `--selftest-slowdown` and `--check-repeat` are
//!   its maintenance modes;
//! * **one rep** — `--child W ...`, what the first two spawn. Each rep
//!   is a fresh process with every `ELSC_*` variable removed.

mod metrics;
mod probes;
mod rep;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use rep::RepArgs;
use workloads::{Variant, Workload, DEFAULT_SEED};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// `--child W`: run one rep in this process.
    pub child: Option<Workload>,
    /// `--noop`: exit at once (prices a child spawn).
    pub noop: bool,
    /// `--workload W`: driver mode.
    pub workload: Option<Workload>,
    /// `--seed N`.
    pub seed: u64,
    /// `--seconds S`: how long driver mode measures.
    pub seconds: f64,
    /// `--reps R`: reps per workload in suite mode.
    pub reps: usize,
    /// `--trace` / `--trace 0|1`.
    pub trace: bool,
    /// `--traced` (child): record fine spans.
    pub traced: bool,
    /// `--makespan C` (child).
    pub makespan: Option<u64>,
    /// `--slowdown F` (child).
    pub slowdown: u64,
    /// `--variant V` (child).
    pub variant: Variant,
    /// `--dir D`: the benchmark directory.
    pub dir: PathBuf,
    /// `--write-expected`.
    pub write_expected: bool,
    /// `--selftest-slowdown`.
    pub selftest_slowdown: bool,
    /// `--check-repeat`.
    pub check_repeat: bool,
    /// `--glossary`: print the workload and metric tables.
    pub glossary: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        child: None,
        noop: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        reps: 5,
        trace: false,
        traced: false,
        makespan: None,
        slowdown: 1,
        variant: Variant::Default,
        dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        write_expected: false,
        selftest_slowdown: false,
        check_repeat: false,
        glossary: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        let workload = |s: String| {
            Workload::parse(&s).ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{s}' ({})", names.join("|"))
            })
        };
        fn number<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
            s.parse().map_err(|_| format!("{flag}: bad number '{s}'"))
        }
        match arg.as_str() {
            "--child" => cli.child = Some(workload(value("a workload")?)?),
            "--workload" => cli.workload = Some(workload(value("a workload")?)?),
            "--noop" => cli.noop = true,
            "--seed" => cli.seed = number(arg, value("a number")?)?,
            "--seconds" => cli.seconds = number(arg, value("a number")?)?,
            "--reps" => cli.reps = number::<usize>(arg, value("a number")?)?.max(1),
            "--trace" => {
                // `--trace` alone (suite mode) or `--trace 0|1` (driver).
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--traced" => cli.traced = true,
            "--makespan" => cli.makespan = Some(number(arg, value("cycles")?)?),
            "--slowdown" => cli.slowdown = number::<u64>(arg, value("a factor")?)?.max(1),
            "--variant" => {
                let v = value("a variant")?;
                cli.variant = Variant::parse(&v).ok_or_else(|| format!("unknown variant '{v}'"))?;
            }
            "--dir" => cli.dir = PathBuf::from(value("a directory")?),
            "--write-expected" => cli.write_expected = true,
            "--selftest-slowdown" => cli.selftest_slowdown = true,
            "--check-repeat" => cli.check_repeat = true,
            "--glossary" => cli.glossary = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.noop {
        return ExitCode::SUCCESS;
    }
    if cli.glossary {
        print!("{}", metrics::glossary());
        return ExitCode::SUCCESS;
    }
    if let Some(workload) = cli.child {
        let out = rep::run_rep(&RepArgs {
            workload,
            seed: cli.seed,
            traced: cli.traced,
            makespan: cli.makespan,
            slowdown: cli.slowdown,
            variant: cli.variant,
            dir: cli.dir.clone(),
        });
        println!("{}", out.to_json());
        return ExitCode::SUCCESS;
    }
    let result = match cli.workload {
        Some(w) => suite::driver(&cli, w),
        None if cli.write_expected => suite::write_expected(&cli),
        None if cli.selftest_slowdown => suite::selftest_slowdown(&cli),
        None if cli.check_repeat => suite::check_repeat(&cli),
        None => suite::full(&cli).map(|_| ()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "cluster-4n",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::Cluster4n));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, false));
        assert!(cli(&["--workload", "x", "--trace", "1"]).is_err());
        assert!(cli(&["--trace", "1"]).unwrap().trace);
        // Suite mode: a bare flag.
        let c = cli(&["--trace", "--reps", "3"]).unwrap();
        assert!(c.trace && c.reps == 3 && c.seed == DEFAULT_SEED);
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }
}
