//! Experiment-registry regression test: every paper experiment, run at
//! seed 7 for 10 simulated seconds, rendered exactly as
//! `powerburst experiment all --secs 10 --seed 7` prints it and
//! snapshotted under `tests/golden/`.
//!
//! Refresh an intentionally-changed snapshot with
//! `PB_UPDATE_GOLDEN=1 cargo test --test experiments_golden`.

use std::path::PathBuf;

use powerburst::golden::check_golden;
use powerburst::scenario::experiments::{run_all, ExpOptions};
use powerburst::sim::SimDuration;

#[test]
fn every_experiment_matches_golden_snapshot() {
    let opt = ExpOptions { seed: 7, duration: SimDuration::from_secs(10), threads: 2 };
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("experiments_10s_seed7.txt");
    if let Err(e) = check_golden(&path, &run_all(&opt)) {
        panic!("{e}");
    }
}
