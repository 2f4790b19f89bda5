//! `run --trace-out FILE` writes the raw radio capture of the same run
//! whose report it prints.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_powerburst")).args(args).output().expect("spawn");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

#[test]
fn trace_out_keeps_the_report_and_writes_the_reported_frames() {
    let args = ["run", "--clients", "3", "--pattern", "256k", "--secs", "10", "--seed", "7"];
    let path = std::env::temp_dir().join(format!("pb-trace-out-{}.jsonl", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let plain = run(&args);
    let traced = run(&[&args[..], &["--trace-out", path_arg]].concat());
    let written = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        String::from_utf8_lossy(&traced.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "--trace-out changed the report"
    );
    let stderr = String::from_utf8_lossy(&traced.stderr);
    let frames: usize = stderr
        .lines()
        .find_map(|l| l.strip_prefix("trace: "))
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("stderr reports the frame count: {stderr}"));
    assert!(frames > 0, "the run put frames on the air");
    assert_eq!(written.lines().count(), frames, "one JSONL row per reported frame");
}
