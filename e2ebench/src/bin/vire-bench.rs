//! `vire-bench`: the socket-to-fix benchmark. See the library docs for
//! the workloads, metrics and layer map.
//!
//! ```text
//! vire-bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! vire-bench compare BASE NEW
//! ```
//!
//! Without `--workload` every workload runs in turn. Each run prints a
//! report, writes its files under `target/vire-bench/`, and ends with a
//! one-line JSON result. The exit code is 0 only when every run passed
//! every correctness gate. Run from the repository root.

use std::path::Path;
use std::process::ExitCode;
use vire_bench::{compare, run, RunConfig, Workload};

const USAGE: &str = "usage: vire-bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n       vire-bench compare BASE NEW   (run files or directories of them)";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workloads = vec![Workload::parse(&name).ok_or_else(|| {
                    let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?];
            }
            "--seed" => {
                let v = value("a number")?;
                out.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                out.trace = match it.peek().map(|s| s.as_str()) {
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
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(Path::new("BENCHMARK.json"), Path::new(base), Path::new(new))
        {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("vire-bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vire-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = RunConfig::benchmark(args.seconds, args.trace);
    let out_dir = Path::new("target").join("vire-bench");
    let mut all_correct = true;
    for workload in args.workloads {
        let outcome = match run::run(workload, args.seed, &config) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("vire-bench: {}: {e}", workload.name());
                return ExitCode::from(2);
            }
        };
        outcome.print();
        match outcome.write_files(&out_dir) {
            Ok(paths) => {
                for p in paths {
                    println!("  wrote {}", p.display());
                }
            }
            Err(e) => {
                eprintln!("vire-bench: {e}");
                return ExitCode::from(2);
            }
        }
        all_correct &= outcome.correct();
        println!("{}", outcome.result_line());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
