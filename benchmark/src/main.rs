//! The repo benchmark. See README.md; `run.sh` builds and starts it.
//!
//! ```text
//! rvm_benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of stdout is the result
//! rvm_benchmark [--seed N] [--seconds S] [--trace 0|1] [--repeat]
//!     every workload, one fresh process each, one at a time;
//!     --repeat does it twice and tables run A against run B
//! ```

mod harness;
mod layers;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{bounds, compare, parse_result, Json};
use run::{run_traced, run_untraced, Params};
use workloads::Kind;

const USAGE: &str =
    "usage: rvm_benchmark [--workload disjoint|refault|shared_remap|superpage|metis] \
[--seed N] [--seconds S] [--trace 0|1] [--threads T] [--quick] [--repeat]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    quick: bool,
    repeat: bool,
}

/// T = min(host cores, 4).
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: default_threads(),
        quick: false,
        repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.2 && a.seconds <= 60.0) {
                    return Err("--seconds must be between 0.2 and 60".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--threads" => {
                a.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?;
                if !(1..=host_cores()).contains(&a.threads) {
                    return Err(format!("--threads must be 1..={}", host_cores()));
                }
            }
            "--quick" => a.quick = true,
            "--repeat" => a.repeat = true,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if a.quick {
        a.seconds = a.seconds.min(1.0);
    }
    Ok(a)
}

/// Directory records and span files go to (`run.sh` sets it).
fn out_dir() -> Option<PathBuf> {
    std::env::var_os("RVM_BENCH_OUT").map(PathBuf::from)
}

fn context(a: &Args, kind: Kind) -> String {
    format!(
        "workload={} seed={} seconds={} trace={} threads={} host_cores={} commit={}",
        kind.name(),
        a.seed,
        a.seconds,
        a.trace as u8,
        a.threads,
        host_cores(),
        std::env::var("RVM_BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
    )
}

/// Runs one workload in this process and prints its metrics, the
/// violated checks, and the result line last.
fn run_one(a: &Args, kind: Kind) -> ExitCode {
    let p = Params {
        seed: a.seed,
        seconds: a.seconds,
        threads: a.threads,
        quick: a.quick,
        out_dir: if a.quick { None } else { out_dir() },
    };
    let ctx = context(a, kind);
    println!("# rvm_benchmark {ctx}");
    if a.quick {
        println!("# --quick: NOT COMPARABLE with full runs, not recorded");
    }
    let (out, violations) = if a.trace {
        run_traced(kind, &p)
    } else {
        run_untraced(kind, &p)
    };
    for m in &out.metrics {
        println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<44} {:>18.6} fraction ({} of {} calls)",
        "failed_op_share",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    println!("{:<44} {:>18} count", "check_failures", violations.len());
    for v in &violations {
        println!("CHECK FAILED: {v}");
    }
    let line = out.to_json();
    if let Some(dir) = &p.out_dir {
        let path = dir.join(format!("{}-trace{}.json", kind.name(), a.trace as u8));
        let record = format!("{{\"context\": \"{ctx}\", \"result\": {line}}}\n");
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, record)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    println!("{line}");
    if out.correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A run's metrics as `(name, value)`.
type NamedValues = Vec<(String, f64)>;

/// Runs every workload, each in a fresh process, one at a time. Returns
/// each workload's parsed metrics, or `None` where the run failed.
fn run_set(a: &Args) -> Vec<(Kind, Option<NamedValues>)> {
    let exe = std::env::current_exe().expect("own executable path");
    Kind::ALL
        .into_iter()
        .map(|kind| {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", kind.name()])
                .args(["--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .args(["--threads", &a.threads.to_string()])
                .stdout(Stdio::piped());
            if a.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().expect("starting a workload process");
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let parsed = text
                .lines()
                .last()
                .and_then(|l| parse_result(l).ok())
                .filter(|(correct, _)| *correct && out.status.success())
                .map(|(_, metrics)| metrics);
            if parsed.is_none() {
                println!("FAILED: workload {} ({})", kind.name(), out.status);
            }
            println!();
            (kind, parsed)
        })
        .collect()
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(kind) = a.workload {
        harness::keep_freed_memory();
        return run_one(&a, kind);
    }
    let first = run_set(&a);
    let mut failed = first.iter().filter(|(_, m)| m.is_none()).count();
    if a.repeat {
        let spec_path = std::env::var("RVM_BENCH_SPEC").unwrap_or("BENCHMARK.json".to_string());
        let spec = std::fs::read_to_string(&spec_path)
            .map_err(|e| e.to_string())
            .and_then(|t| Json::parse(&t));
        let bounds = match spec {
            Ok(spec) => bounds(&spec),
            Err(e) => {
                eprintln!("cannot read {spec_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let second = run_set(&a);
        failed += second.iter().filter(|(_, m)| m.is_none()).count();
        println!("# run A against run B (same commit, same seed)");
        for ((kind, ma), (_, mb)) in first.iter().zip(&second) {
            if let (Some(ma), Some(mb)) = (ma, mb) {
                failed += compare(kind.name(), ma, mb, &bounds);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{failed} failures");
        ExitCode::FAILURE
    }
}
