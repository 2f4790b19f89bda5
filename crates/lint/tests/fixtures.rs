//! Fixture trees exercising every rule, the scope exemptions, and the
//! allowlist (suppression + staleness).

use std::path::PathBuf;

use powerburst_lint::{lint_workspace, Report, Rule, Violation};

fn fixture(name: &str) -> Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    lint_workspace(&root).expect("fixture tree readable")
}

fn fired(report: &Report, file: &str) -> Vec<(usize, Rule)> {
    report.violations.iter().filter(|v| v.file == file).map(|v| (v.line, v.rule)).collect()
}

#[test]
fn d001_wall_clock_fires_in_every_scanned_file() {
    let r = fixture("bad");
    assert_eq!(
        fired(&r, "crates/energy/src/meter.rs"),
        vec![(2, Rule::D001), (4, Rule::D001), (5, Rule::D001)]
    );
    // No file is exempt, `obs` included.
    assert_eq!(
        fired(&r, "crates/obs/src/profile.rs"),
        vec![(3, Rule::D001), (5, Rule::D001), (6, Rule::D001)]
    );
}

#[test]
fn d002_hash_iteration_fires_on_values_and_for_loops() {
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/core/src/proxy.rs"), vec![(10, Rule::D002), (18, Rule::D002)]);
}

#[test]
fn d003_unseeded_rng_fires_outside_sim_rng() {
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/traffic/src/web.rs"), vec![(3, Rule::D003), (4, Rule::D003)]);
    // sim::rng is the sanctioned home.
    assert_eq!(fired(&r, "crates/sim/src/rng.rs"), vec![]);
}

#[test]
fn d003_covers_the_channel_model() {
    // The Markov channel model draws exclusively from an RNG injected at
    // construction (derived from the master seed); a model that reaches
    // for ambient randomness instead is a D003 violation — net/channel
    // gets no scope exemption.
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/net/src/channel.rs"), vec![(9, Rule::D003), (16, Rule::D003)]);
}

#[test]
fn d004_env_and_sleep_fire_in_sim_crates() {
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/sim/src/clock.rs"), vec![(3, Rule::D004), (7, Rule::D004)]);
}

#[test]
fn d005_floats_fire_in_marked_modules_including_tests() {
    let r = fixture("bad");
    assert_eq!(
        fired(&r, "crates/core/src/wire.rs"),
        vec![(3, Rule::D005), (4, Rule::D005), (11, Rule::D005)]
    );
}

#[test]
fn d006_unwrap_and_undocumented_expect_fire_outside_tests() {
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/transport/src/tcp.rs"), vec![(3, Rule::D006), (7, Rule::D006)]);
}

#[test]
fn d007_console_output_fires_outside_the_cli() {
    let r = fixture("bad");
    assert_eq!(fired(&r, "crates/scenario/src/report.rs"), vec![(3, Rule::D007), (4, Rule::D007)]);
    assert_eq!(fired(&r, "src/bin/cli.rs"), vec![]);
}

#[test]
fn d008_shared_mutable_statics_fire_in_sim_path_crates() {
    let r = fixture("bad");
    // `static mut` (2), a mutable `thread_local!` (reported at the macro,
    // 4), and a lazy-init cell (8). The `const`-initialized thread-local
    // at 10 is immutable per-thread data and stays legal.
    let hits = fired(&r, "crates/net/src/pattern.rs");
    assert_eq!(
        hits.iter().filter(|(_, r)| *r == Rule::D008).cloned().collect::<Vec<_>>(),
        vec![(2, Rule::D008), (4, Rule::D008), (8, Rule::D008)]
    );
}

#[test]
fn d009_atomics_fire_in_sim_path_crates() {
    let r = fixture("bad");
    let hits = fired(&r, "crates/sim/src/sweep.rs");
    assert_eq!(
        hits.iter().filter(|(_, r)| *r == Rule::D009).cloned().collect::<Vec<_>>(),
        vec![(2, Rule::D009), (4, Rule::D009)]
    );
}

#[test]
fn d010_float_accumulation_fires_on_chains_and_loops() {
    let r = fixture("bad");
    // The `.sum::<f64>()` chain over `.values()` (10) and the `+=` float
    // accumulation inside a `for` loop over the map (17); the integer
    // `.sum::<u64>()` at 23 is order-safe and stays legal.
    assert_eq!(fired(&r, "crates/client/src/summary.rs"), vec![(10, Rule::D010), (17, Rule::D010)]);
}

#[test]
fn d011_unsafe_requires_sim_plus_safety_comment() {
    let r = fixture("bad");
    // In `sim`: undocumented unsafe (6) fires, the `// SAFETY:`-annotated
    // one (10) is exempt.
    let hits = fired(&r, "crates/sim/src/sweep.rs");
    assert_eq!(
        hits.iter().filter(|(_, r)| *r == Rule::D011).cloned().collect::<Vec<_>>(),
        vec![(6, Rule::D011)]
    );
    // Outside `sim` a SAFETY comment does not help.
    assert_eq!(fired(&r, "crates/transport/src/loopback.rs"), vec![(4, Rule::D011)]);
}

#[test]
fn d012_interior_mutability_fires_in_sim_path_crates() {
    let r = fixture("bad");
    let hits = fired(&r, "crates/net/src/pattern.rs");
    assert_eq!(
        hits.iter().filter(|(_, r)| *r == Rule::D012).cloned().collect::<Vec<_>>(),
        vec![(5, Rule::D012)]
    );
}

#[test]
fn bad_tree_has_no_surprise_violations() {
    let r = fixture("bad");
    let expected = (6 + 2 + 2 + 2 + 2 + 3 + 2 + 2) + 4 + 3 + 1 + 2;
    assert_eq!(r.violations.len(), expected, "unexpected: {:#?}", r.violations);
    assert!(!r.is_clean());
}

#[test]
fn violations_render_as_file_line_rule_message() {
    let v = Violation { file: "crates/core/src/proxy.rs".into(), line: 10, rule: Rule::D002 };
    let s = v.to_string();
    assert!(s.starts_with("crates/core/src/proxy.rs:10 D002 "), "{s}");
    assert!(s.contains("nondeterministic"), "{s}");
}

#[test]
fn allowlist_suppresses_grandfathered_violations() {
    let r = fixture("allowed");
    assert!(r.is_clean(), "violations: {:?}, stale: {:?}", r.violations, r.stale);
    assert_eq!(r.suppressed, 2); // the D006 unwrap and the D009 atomic
}

#[test]
fn stale_allowlist_entry_fails_the_lint() {
    let r = fixture("stale");
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    assert_eq!(r.stale.len(), 2);
    assert_eq!(r.stale[0].file, "crates/core/src/marking.rs");
    assert_eq!(r.stale[0].rule, Rule::D006);
    assert_eq!(r.stale[1].file, "crates/net/src/pattern.rs");
    assert_eq!(r.stale[1].rule, Rule::D012);
    assert!(!r.is_clean());
}
