//! Tests of the benchmark itself: the metric catalog, that a tiny run of
//! each workload emits every metric, digest determinism, and failure
//! accounting. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml` (debug builds work but are slow).

use std::collections::BTreeSet;

use powerburst_core::{InvariantKind, Violation};
use powerburst_perfbench::report::{end_to_end, per_layer, valid_name, END_TO_END, PER_LAYER};
use powerburst_perfbench::workload::{batch_outcome, run_untraced, Spec, Tally, Workload};
use powerburst_scenario::run_scenario;
use powerburst_sim::SimTime;

/// `(name, unit)` pairs of one `BENCHMARK.json` section, in file order.
fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, f: &str| {
        let tag = format!("\"{f}\": \"");
        entry.find(&tag).map(|i| {
            let rest = &entry[i + tag.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name").expect("every entry has a name"), field(entry, "unit")))
        .collect()
}

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root")
}

fn pairs(catalog: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
    catalog.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit} for {name}");
        assert!(seen.insert(*name), "duplicate metric name {name}");
    }
    let json = benchmark_json();
    assert_eq!(section(&json, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(section(&json, "per_layer"), pairs(&PER_LAYER));
    let workloads: Vec<String> = section(&json, "workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

fn names(catalog: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    catalog.iter().map(|(n, _)| *n).collect()
}

#[test]
fn tiny_runs_emit_every_metric() {
    for w in Workload::ALL {
        let spec = Spec::tiny(w, 5);
        let e2e = end_to_end(&spec);
        assert!(e2e.correct, "{}: {:?}", w.name(), e2e.notes);
        assert_eq!(e2e.metrics.iter().map(|m| m.0).collect::<Vec<_>>(), names(&END_TO_END));
        assert_eq!(e2e.attempted, spec.runs);
        let layers = per_layer(&spec);
        assert!(layers.correct, "{}: {:?}", w.name(), layers.notes);
        assert_eq!(layers.metrics.iter().map(|m| m.0).collect::<Vec<_>>(), names(&PER_LAYER));
        let line = layers.result_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for w in Workload::ALL {
        let digest = |seed| {
            let spec = Spec::tiny(w, seed);
            let mut t = Tally::default();
            for i in 0..spec.runs {
                t.add(&run_untraced(&spec, i));
            }
            t.digest()
        };
        assert_eq!(digest(3), digest(3), "{}: same seed", w.name());
        assert_ne!(digest(3), digest(4), "{}: different seeds", w.name());
    }
}

#[test]
fn dirty_invariant_log_counts_as_failed() {
    let spec = Spec::tiny(Workload::PaperGrid, 1);
    let cfg = spec.config(0);
    let clean = run_scenario(&cfg);
    assert!(clean.invariants.is_clean());
    let mut dirty = clean.clone();
    dirty.invariants.record(Violation {
        kind: InvariantKind::SlotOverrun,
        t: SimTime::ZERO,
        client: None,
        detail: "injected by the test".into(),
    });
    let mut t = Tally::default();
    t.add(&batch_outcome(&cfg, &clean, 0.1, 0.01, 1));
    t.add(&batch_outcome(&cfg, &dirty, 0.1, 0.01, 1));
    assert_eq!((t.attempted, t.failed), (2, 1));
    assert_eq!(t.fail_pct(), 50.0);
}
