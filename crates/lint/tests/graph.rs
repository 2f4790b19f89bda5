//! Import-graph analysis over synthetic fixture trees: layering, the
//! module quarantines, re-export resolution, wire vocabulary, and the
//! deliberate same-layer cycle that layering alone cannot reject.

use std::path::PathBuf;

use powerburst_lint::graph::{Contract, GraphViolation, ImportGraph};

fn tree(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn check(name: &str) -> Vec<GraphViolation> {
    let g = ImportGraph::build(&tree(name)).expect("fixture tree readable");
    g.check(&Contract::powerburst())
}

#[test]
fn builder_discovers_crates_modules_and_edges() {
    let g = ImportGraph::build(&tree("graph_bad")).expect("readable");
    assert_eq!(g.crates, vec!["core", "energy", "obs", "sim", "trace", "widget"]);
    assert!(g.modules["sim"].contains("clock"));
    assert!(g.modules["sim"].contains("time"));
    assert!(g.modules["core"].contains("wire"));

    let edges = g.crate_edges();
    assert!(edges.contains(&("energy".into(), "core".into())));
    assert!(edges.contains(&("core".into(), "sim".into())));
    assert!(edges.contains(&("trace".into(), "obs".into())));

    // Re-export resolution: `use powerburst_sim::ClockModel` is attributed
    // to sim::clock through the `pub use clock::ClockModel` surface.
    let quarantined = g
        .edges
        .iter()
        .find(|e| e.file == "crates/core/src/lib.rs" && e.to == "sim")
        .expect("core -> sim edge present in lib.rs");
    assert_eq!(quarantined.to_module.as_deref(), Some("clock"));
    assert_eq!(quarantined.line, 3);

    // The wire-marked file is recorded.
    assert!(g.wire_files.contains(&"crates/core/src/wire.rs".to_string()));
}

#[test]
fn graph_bad_tree_reports_every_contract_clause() {
    let v = check("graph_bad");
    let messages: Vec<String> = v.iter().map(|x| x.to_string()).collect();
    assert_eq!(v.len(), 5, "{messages:#?}");

    // Clause 0: undeclared crate.
    assert!(messages.iter().any(|m| m.contains("`widget` has no declared layer")), "{messages:#?}");
    // Clause 1: upward edge, with the offending file:line.
    assert!(
        messages.iter().any(|m| m.starts_with("crates/energy/src/lib.rs:3 ")
            && m.contains("`energy` (layer 2) may not import `core` (layer 6)")),
        "{messages:#?}"
    );
    // Clause 3: sim::clock quarantine reached through a re-export.
    assert!(
        messages.iter().any(|m| m.starts_with("crates/core/src/lib.rs:3 ")
            && m.contains("forbidden edge `core` -> `sim::clock`")),
        "{messages:#?}"
    );
    // Clause 3: trace may not import obs at all.
    assert!(
        messages.iter().any(|m| m.starts_with("crates/trace/src/lib.rs:2 ")
            && m.contains("forbidden edge `trace` -> `obs`")),
        "{messages:#?}"
    );
    // Clause 4: wire vocabulary — the sim::time import passes, the
    // net::Packet import does not.
    assert!(
        messages.iter().any(|m| m.starts_with("crates/core/src/wire.rs:5 ")
            && m.contains("wire-encoding module imports `net`")),
        "{messages:#?}"
    );
    assert!(!messages.iter().any(|m| m.contains("wire.rs:4 ")), "{messages:#?}");
}

#[test]
fn same_layer_cycle_is_rejected_by_cycle_detection() {
    // coord and trace share layer 7, so both edges pass the layering
    // check individually — only cycle detection catches the loop.
    let v = check("graph_cycle");
    assert_eq!(v.len(), 1, "{v:#?}");
    assert!(v[0].file.is_empty());
    assert!(v[0].message.contains("crate import cycle"), "{}", v[0].message);
    assert!(
        v[0].message.contains("coord -> trace -> coord")
            || v[0].message.contains("trace -> coord -> trace"),
        "{}",
        v[0].message
    );
}

#[test]
fn dot_output_is_deterministic_and_lists_all_crates() {
    let g = ImportGraph::build(&tree("graph_cycle")).expect("readable");
    let c = Contract::powerburst();
    let dot = g.to_dot(&c);
    assert_eq!(dot, g.to_dot(&c), "DOT emission must be deterministic");
    assert!(dot.contains("\"coord\" [label=\"coord (L7)\"]"), "{dot}");
    assert!(dot.contains("\"coord\" -> \"trace\";"), "{dot}");
    assert!(dot.contains("\"trace\" -> \"coord\";"), "{dot}");
    assert!(dot.starts_with("// Workspace crate import DAG"), "{dot}");
    assert!(dot.ends_with("}\n"), "{dot}");
}

#[test]
fn the_real_workspace_satisfies_its_own_contract() {
    // CARGO_MANIFEST_DIR is crates/lint; the workspace root is two up.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let g = ImportGraph::build(&root).expect("workspace readable");
    let v = g.check(&Contract::powerburst());
    assert!(v.is_empty(), "contract violations: {v:#?}");
    // And the committed DOT golden matches the tree.
    let golden = std::fs::read_to_string(root.join("docs/crate-graph.dot"))
        .expect("docs/crate-graph.dot committed");
    assert_eq!(
        g.to_dot(&Contract::powerburst()),
        golden,
        "docs/crate-graph.dot is stale — regenerate with \
         `cargo run -p powerburst-lint -- graph --dot > docs/crate-graph.dot`"
    );
}
