//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--commit <id>]`
//!
//! Runs one workload, prints human-readable notes, writes the full report
//! (spec, host facts, commit, samples, floors, spans) to
//! `.bench_out/<workload>-seed<n>-trace<t>.json`, and prints the result as
//! one JSON object on the last line of standard output.

use std::process::ExitCode;

use powerburst_perfbench::report::{end_to_end, per_layer};
use powerburst_perfbench::workload::{Spec, Workload};

const USAGE: &str =
    "usage: perfbench --workload <paper-grid|tcp-faulted|city-live> --seed <n> --seconds <s> --trace <0|1> [--commit <id>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::full(args.workload, args.seed, args.seconds);
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("spec {}", spec.to_json());
    println!("host available_parallelism={host} commit={}", args.commit);
    let report = if args.trace { per_layer(&spec) } else { end_to_end(&spec) };

    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        spec.workload.name(),
        spec.seed,
        u8::from(args.trace)
    ));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, report.file_json(&spec, &args.commit, args.trace)));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    for n in &report.notes {
        println!("{n}");
    }
    println!("report {}", file.display());
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
