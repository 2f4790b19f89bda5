//! CLI for the sim-purity lint. Run from anywhere inside the workspace:
//!
//! ```text
//! cargo run -p powerburst-lint                      # rules + graph check
//! cargo run -p powerburst-lint -- --json            # machine-readable report
//! cargo run -p powerburst-lint -- --annotate        # GitHub ::error lines
//! cargo run -p powerburst-lint -- graph             # graph check only
//! cargo run -p powerburst-lint -- graph --dot       # print the crate DAG
//! cargo run -p powerburst-lint -- <root>            # lint an explicit tree
//! ```
//!
//! Exit codes: 0 clean, 1 violations or stale allowlist entries, 2 usage
//! or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use powerburst_lint::graph::{check_workspace_graph, Contract, GraphViolation, ImportGraph};
use powerburst_lint::{lint_workspace, Report, ALLOWLIST_FILE};

enum Mode {
    Human,
    Json,
    Annotate,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let graph_only = args.peek().is_some_and(|a| a == "graph");
    if graph_only {
        args.next();
    }
    let mut mode = Mode::Human;
    let mut dot = false;
    let mut root_arg: Option<PathBuf> = None;
    for a in args {
        match a.as_str() {
            "--json" => mode = Mode::Json,
            "--annotate" => mode = Mode::Annotate,
            "--dot" if graph_only => dot = true,
            "--help" | "-h" => {
                eprintln!("usage: powerburst-lint [--json|--annotate] [root]");
                eprintln!("       powerburst-lint graph [--dot] [root]");
                return ExitCode::SUCCESS;
            }
            _ if !a.starts_with('-') && root_arg.is_none() => root_arg = Some(PathBuf::from(a)),
            _ => {
                eprintln!("powerburst-lint: unknown argument `{a}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root_arg {
        Some(p) => p,
        None => match std::env::current_dir().map(|d| find_workspace_root(&d)) {
            Ok(Some(r)) => r,
            Ok(None) => {
                eprintln!("powerburst-lint: no workspace root (crates/ dir) above cwd");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("powerburst-lint: {e}");
                return ExitCode::from(2);
            }
        },
    };

    if graph_only && dot {
        return match ImportGraph::build(&root) {
            Ok(g) => {
                print!("{}", g.to_dot(&Contract::powerburst()));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("powerburst-lint: {e}");
                ExitCode::from(2)
            }
        };
    }
    let graph_violations = match check_workspace_graph(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("powerburst-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let report = if graph_only {
        Report::default()
    } else {
        match lint_workspace(&root) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("powerburst-lint: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let clean = report.is_clean() && graph_violations.is_empty();
    match mode {
        Mode::Human => print_human(&report, &graph_violations, graph_only),
        Mode::Json => print_json(&report, &graph_violations, clean),
        Mode::Annotate => print_annotations(&report, &graph_violations),
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn print_human(report: &Report, graph: &[GraphViolation], graph_only: bool) {
    for v in &report.violations {
        println!("{v}");
    }
    for s in &report.stale {
        println!(
            "{ALLOWLIST_FILE}:{} stale allowlist entry: {} {} no longer fires — remove it",
            s.line, s.file, s.rule
        );
    }
    for g in graph {
        println!("{g}");
    }
    if graph_only {
        eprintln!("powerburst-lint: graph check, {} violation(s)", graph.len());
    } else {
        eprintln!(
            "powerburst-lint: {} files, {} violation(s), {} suppressed, {} stale, {} graph",
            report.files_scanned,
            report.violations.len(),
            report.suppressed,
            report.stale.len(),
            graph.len()
        );
    }
}

/// One JSON report object on stdout. All text fields pass through
/// `json_str`, so rule summaries containing quotes stay well-formed.
fn print_json(report: &Report, graph: &[GraphViolation], clean: bool) {
    let mut items: Vec<String> = Vec::new();
    for v in &report.violations {
        items.push(format!(
            "{{\"kind\":\"rule\",\"file\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
            json_str(&v.file),
            v.line,
            v.rule.id(),
            json_str(v.rule.summary())
        ));
    }
    for s in &report.stale {
        items.push(format!(
            "{{\"kind\":\"stale\",\"file\":{},\"line\":{},\"rule\":\"{}\",\"message\":{}}}",
            json_str(ALLOWLIST_FILE),
            s.line,
            s.rule.id(),
            json_str(&format!("stale allowlist entry: {} {} no longer fires", s.file, s.rule))
        ));
    }
    for g in graph {
        items.push(format!(
            "{{\"kind\":\"graph\",\"file\":{},\"line\":{},\"rule\":\"graph\",\"message\":{}}}",
            json_str(&g.file),
            g.line,
            json_str(&g.message)
        ));
    }
    println!(
        "{{\"clean\":{clean},\"files_scanned\":{},\"suppressed\":{},\"violations\":[{}]}}",
        report.files_scanned,
        report.suppressed,
        items.join(",")
    );
}

/// GitHub Actions workflow annotations: one `::error` per violation, so
/// findings surface inline on the PR diff.
fn print_annotations(report: &Report, graph: &[GraphViolation]) {
    for v in &report.violations {
        println!(
            "::error file={},line={},title=powerburst-lint {}::{}",
            v.file,
            v.line,
            v.rule.id(),
            v.rule.summary()
        );
    }
    for s in &report.stale {
        println!(
            "::error file={ALLOWLIST_FILE},line={},title=powerburst-lint stale::stale allowlist \
             entry: {} {} no longer fires — remove it",
            s.line, s.file, s.rule
        );
    }
    for g in graph {
        let file = if g.file.is_empty() { ALLOWLIST_FILE } else { &g.file };
        println!(
            "::error file={file},line={},title=powerburst-lint graph::{}",
            g.line.max(1),
            g.message
        );
    }
}

/// Minimal JSON string encoder (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Walk up from `start` to the first directory containing `crates/`.
fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start.ancestors().find(|d| d.join("crates").is_dir()).map(Path::to_path_buf)
}
