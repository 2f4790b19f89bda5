//! Golden-trace regression harness.
//!
//! A scenario run under a fixed master seed is bit-reproducible: every
//! random stream derives from the seed, and the event queue breaks time
//! ties deterministically. That makes the *rendered summary of a run* a
//! regression artifact — snapshot it once, and any code change that
//! perturbs scheduling, energy accounting, or loss behaviour shows up as
//! a textual diff against the checked-in golden file.
//!
//! The renderer here is deliberately canonical: fixed field order, fixed
//! float precision, integer microseconds for durations. Tests compose
//! these lines into a snapshot and call [`check_golden`], which compares
//! against a file on disk and — when the drift is intentional — rewrites
//! it under `PB_UPDATE_GOLDEN=1`.
//!
//! It is test-harness code, so it lives in this facade rather than in
//! `powerburst-trace`: reading the environment is forbidden on the sim
//! path (DESIGN.md §11).

use std::fmt::Write as _;
use std::path::Path;

use powerburst_trace::PostmortemReport;

/// Environment variable that switches [`check_golden`] from compare to
/// regenerate.
pub const UPDATE_ENV: &str = "PB_UPDATE_GOLDEN";

/// Render one client's postmortem report as canonical golden lines.
///
/// Floats are printed with six decimals (stable well past any physical
/// meaning); durations as integer microseconds. The `label` keys the
/// block inside a multi-client snapshot.
pub fn render_postmortem(label: &str, r: &PostmortemReport) -> String {
    let mut s = String::with_capacity(512);
    let _ = writeln!(s, "[{label}]");
    let _ = writeln!(s, "energy_mj = {:.6}", r.energy_mj);
    let _ = writeln!(s, "naive_mj = {:.6}", r.naive_mj);
    let _ = writeln!(s, "saved = {:.6}", r.saved);
    let _ = writeln!(s, "sleep_us = {}", r.sleep.as_us());
    let _ = writeln!(s, "awake_us = {}", r.awake.as_us());
    let _ = writeln!(s, "transitions = {}", r.transitions);
    let _ = writeln!(s, "delivered = {}", r.delivered);
    let _ = writeln!(s, "missed = {}", r.missed);
    let _ = writeln!(s, "ap_drops = {}", r.ap_drops);
    let _ = writeln!(s, "schedules_seen = {}", r.schedules_seen);
    let _ = writeln!(s, "schedules_missed = {}", r.schedules_missed);
    let _ = writeln!(s, "skipped_srp_wakes = {}", r.skipped_srp_wakes);
    let _ = writeln!(s, "early_wait_us = {}", r.early_wait.as_us());
    let _ = writeln!(s, "missed_sched_wait_us = {}", r.missed_sched_wait.as_us());
    let _ = writeln!(s, "bytes_delivered = {}", r.bytes_delivered);
    s
}

/// First line where two renderings differ, with both sides.
fn first_diff(expected: &str, actual: &str) -> String {
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!("line {}: expected `{e}`, got `{a}`", i + 1);
        }
    }
    let (el, al) = (expected.lines().count(), actual.lines().count());
    format!("line counts differ: expected {el}, got {al}")
}

/// Compare `actual` against the golden file at `path`.
///
/// * On match: `Ok(())`.
/// * On drift: `Err` naming the first differing line and how to refresh.
/// * With `PB_UPDATE_GOLDEN=1` in the environment: the file is rewritten
///   (creating parent directories) and the check passes.
/// * Missing file without the env var: `Err` telling the caller to
///   generate it.
pub fn check_golden(path: &Path, actual: &str) -> Result<(), String> {
    let update = std::env::var(UPDATE_ENV).is_ok_and(|v| !v.is_empty() && v != "0");
    if update {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, actual)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "golden file {} unreadable ({e}); run with {UPDATE_ENV}=1 to generate it",
            path.display()
        )
    })?;
    if expected == actual {
        return Ok(());
    }
    Err(format!(
        "golden drift against {}: {}\nif intentional, refresh with {UPDATE_ENV}=1",
        path.display(),
        first_diff(&expected, actual),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerburst_sim::SimDuration;

    fn report() -> PostmortemReport {
        PostmortemReport {
            energy_mj: 1234.5678901,
            naive_mj: 5678.0,
            saved: 0.782_654_3,
            sleep: SimDuration::from_ms(90_000),
            awake: SimDuration::from_ms(29_000),
            transitions: 42,
            delivered: 1_000,
            missed: 3,
            ap_drops: 1,
            schedules_seen: 199,
            schedules_missed: 1,
            skipped_srp_wakes: 0,
            early_wait: SimDuration::from_ms(1_200),
            missed_sched_wait: SimDuration::from_ms(15),
            bytes_delivered: 1_234_567,
        }
    }

    #[test]
    fn rendering_is_deterministic_and_complete() {
        let a = render_postmortem("client-0", &report());
        let b = render_postmortem("client-0", &report());
        assert_eq!(a, b);
        // One line per report field plus the header.
        assert_eq!(a.lines().count(), 16);
        assert!(a.starts_with("[client-0]\n"));
        assert!(a.contains("saved = 0.782654\n"));
        assert!(a.contains("sleep_us = 90000000\n"));
    }

    #[test]
    fn check_golden_matches_and_reports_drift() {
        let dir = std::env::temp_dir().join(format!("pb-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txt");
        let text = render_postmortem("c", &report());
        std::fs::write(&path, &text).unwrap();
        assert!(check_golden(&path, &text).is_ok());

        let mut drifted = report();
        drifted.delivered += 1;
        let err = check_golden(&path, &render_postmortem("c", &drifted)).unwrap_err();
        assert!(err.contains("delivered"), "drift names the field: {err}");
        assert!(err.contains(UPDATE_ENV), "hint mentions the refresh knob");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_golden_file_explains_itself() {
        let err = check_golden(Path::new("/nonexistent/pb/golden.txt"), "x").unwrap_err();
        assert!(err.contains(UPDATE_ENV));
    }
}
