//! CLI usage errors: every malformed value, unknown flag or missing
//! argument prints a message naming the flag and exits with code 2,
//! before any simulation runs.

use std::process::Command;

/// Run the CLI with `args`, assert it failed as a usage error, and return
/// its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_powerburst")).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?} exited {:?}: {stderr}", out.status);
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    stderr
}

fn assert_usage_error(args: &[&str], message: &str) {
    let stderr = usage_error(args);
    assert!(stderr.contains(message), "{args:?}: expected `{message}`, got: {stderr}");
}

#[test]
fn malformed_values_are_rejected_naming_the_flag() {
    for (args, flag, value) in [
        (&["run", "--secs", "3.5"][..], "--secs", "3.5"),
        (&["run", "--seed", "x"], "--seed", "x"),
        (&["run", "--threads", "two"], "--threads", "two"),
        (&["run", "--threads", "0"], "--threads", "0"),
        (&["run", "--clients", "4", "--cells", "0"], "--cells", "0"),
        (&["run", "--coord-pool", "-1"], "--coord-pool", "-1"),
        (&["run", "--stagger-ms", "1e3"], "--stagger-ms", "1e3"),
        (&["run", "--fault-loss", "half"], "--fault-loss", "half"),
        // Fault probabilities lie in [0, 1]; NaN is not one.
        (&["run", "--fault-loss", "1.5"], "--fault-loss", "1.5"),
        (&["run", "--fault-loss", "-0.2"], "--fault-loss", "-0.2"),
        (&["run", "--fault-loss", "nan"], "--fault-loss", "nan"),
        (&["run", "--fault-dup", "3"], "--fault-dup", "3"),
        (&["run", "--fault-reorder", "1.01"], "--fault-reorder", "1.01"),
        (&["run", "--fault-sched-drop", "-1"], "--fault-sched-drop", "-1"),
        (
            &["run", "--fault-jitter-prob", "2", "--fault-jitter-ms", "5"],
            "--fault-jitter-prob",
            "2",
        ),
        (&["experiment", "all", "--secs", "ten"], "--secs", "ten"),
        (&["calibrate", "--seed", "x"], "--seed", "x"),
        // Client clocks must keep running forward: |skew| < 100 000 ppm.
        (&["run", "--fault-skew-ppm", "nan"], "--fault-skew-ppm", "nan"),
        (&["run", "--live", "--fault-skew-ppm", "inf"], "--fault-skew-ppm", "inf"),
        (&["run", "--fault-skew-ppm", "2000000"], "--fault-skew-ppm", "2000000"),
        (&["run", "--fault-skew-ppm", "-100000"], "--fault-skew-ppm", "-100000"),
        // Durations must fit the simulator's u64 microsecond clock.
        (&["run", "--secs", "18446744073710"], "--secs", "18446744073710"),
        (&["run", "--stagger-ms", "18446744073709552"], "--stagger-ms", "18446744073709552"),
        (
            &["run", "--fault-reorder-ms", "18446744073709552"],
            "--fault-reorder-ms",
            "18446744073709552",
        ),
        (
            &["run", "--fault-jitter-ms", "18446744073709552"],
            "--fault-jitter-ms",
            "18446744073709552",
        ),
        (&["experiment", "all", "--secs", "18446744073710"], "--secs", "18446744073710"),
        // A burst interval of at least 1 ms.
        (&["run", "--interval", "0"], "--interval", "0"),
        (&["run", "--interval", "18446744073709552"], "--interval", "18446744073709552"),
    ] {
        assert_usage_error(args, &format!("invalid value `{value}` for {flag}"));
    }
}

#[test]
fn more_occupied_cells_than_the_switch_has_ports_are_rejected() {
    // Round-robin placement occupies min(cells, clients) cells; the
    // switch's u8 interface space holds 253.
    assert_usage_error(
        &["run", "--clients", "300", "--cells", "300"],
        "--cells 300 puts 300 clients in 300 cells; at most 253 fit",
    );
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_error(&["run", "--bogus", "5"], "unknown flag `--bogus`");
    // `--policy static|psm` replaced these switches.
    assert_usage_error(&["run", "--static"], "unknown flag `--static`");
    assert_usage_error(&["run", "--psm"], "unknown flag `--psm`");
    assert_usage_error(&["experiment", "all", "--live"], "unknown flag `--live`");
    assert_usage_error(&["calibrate", "--secs", "3"], "unknown flag `--secs`");
}

#[test]
fn a_valued_flag_needs_a_value() {
    assert_usage_error(&["run", "--clients", "4", "--secs"], "--secs needs a value");
}

#[test]
fn unknown_pattern_is_rejected() {
    assert_usage_error(&["run", "--pattern", "1m"], "unknown --pattern");
}

#[test]
fn unknown_interval_is_rejected() {
    assert_usage_error(&["run", "--interval", "soon"], "unknown --interval");
    // `--policy variable` replaced `--interval var`.
    assert_usage_error(&["run", "--interval", "var"], "unknown --interval");
}

#[test]
fn the_variable_policy_takes_no_interval() {
    assert_usage_error(
        &["run", "--policy", "variable", "--interval", "100"],
        "--interval does not apply to --policy variable",
    );
}

#[test]
fn unknown_policy_is_rejected() {
    assert_usage_error(&["run", "--policy", "greedy"], "unknown --policy");
}

#[test]
fn experiment_needs_a_known_name() {
    assert_usage_error(&["experiment"], "experiment name required");
    assert_usage_error(&["experiment", "fig9"], "unknown experiment `fig9`");
}

#[test]
fn unknown_command_is_rejected() {
    assert_usage_error(&["bench"], "unknown command `bench`");
}
