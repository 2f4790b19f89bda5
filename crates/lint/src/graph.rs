//! Crate/module import-graph analysis: the workspace layering contract.
//!
//! The scanner in the crate root polices individual lines; this module
//! polices the *shape* of the workspace. It parses `use` / `pub use` /
//! `mod` declarations across every crate (plus the root `src/`, treated as
//! the `cli` crate), resolves one level of re-exports (so
//! `use powerburst_sim::ClockModel` is attributed to `sim::clock`), and
//! checks the resulting import DAG against a declared contract:
//!
//! 1. **Layering** — every crate has a declared layer; an import edge may
//!    only point at the same or a lower layer. A new upward edge fails the
//!    build with the offending `file:line` and edge printed.
//! 2. **Acyclicity** — the crate-level graph must be a DAG. (Cargo already
//!    refuses crate cycles, but same-layer edges — e.g. `coord` ↔ `trace`
//!    — would pass layering, and the checker also runs on synthetic
//!    fixture trees.)
//! 3. **Module quarantines** — targeted deny rules below crate
//!    granularity: `core` is pure policy (no sim engine, no net topology),
//!    `trace` may not import `obs` at all (export passivity), and
//!    `lint: wire-encoding` marked modules may import only the
//!    `net::addr` / `sim::time` vocabulary. A deny rule must name a
//!    module its target crate has: [`check_workspace_graph`] reports a
//!    rule that names none, like a stale allowlist entry, because it can
//!    never fire.
//!
//! The analysis is text-level, like the rest of this crate: it sees import
//! paths as written, resolved through the target crate's top-level
//! re-export list. It does not chase multi-hop re-exports or glob
//! contents; the contract names module boundaries coarse enough that this
//! never matters in practice, and the fixture suite pins the semantics.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::{collect_rs, rel_path, source_trees, strip_code, WIRE_MARKER};

/// Crate-name prefix that marks a workspace-internal import.
const CRATE_PREFIX: &str = "powerburst_";

/// The pseudo-crate name for the workspace root `src/` tree.
pub const ROOT_CRATE: &str = "cli";

/// One cross-crate import edge, at the declaration that created it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Importing crate (`"core"`, `"cli"`, …).
    pub from: String,
    /// Workspace-relative file containing the `use`.
    pub file: String,
    /// 1-based line of the `use` declaration.
    pub line: usize,
    /// Imported crate.
    pub to: String,
    /// Module of the imported crate the path resolves to, when the first
    /// path segment is a module or the item is found in the target's
    /// top-level re-export list. `None` for whole-crate imports
    /// (`use powerburst_obs as obs`) and unresolved names.
    pub to_module: Option<String>,
}

/// The parsed workspace import graph.
#[derive(Debug, Default)]
pub struct ImportGraph {
    /// Crates discovered on disk, sorted.
    pub crates: Vec<String>,
    /// Top-level modules per crate (from `mod x;` declarations).
    pub modules: BTreeMap<String, BTreeSet<String>>,
    /// Cross-crate edges, in file order.
    pub edges: Vec<Edge>,
    /// Files carrying the wire-encoding marker, with their cross-crate
    /// edges indexed into `edges`.
    pub wire_files: Vec<String>,
}

/// A violated contract clause, anchored at the offending declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphViolation {
    /// Workspace-relative file (empty for whole-graph findings: cycles).
    pub file: String,
    /// 1-based line (0 for whole-graph findings).
    pub line: usize,
    /// Human-readable statement of the broken clause and the edge.
    pub message: String,
}

impl fmt::Display for GraphViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "graph: {}", self.message)
        } else {
            write!(f, "{}:{} graph: {}", self.file, self.line, self.message)
        }
    }
}

/// A module-level deny rule: `from` crates may not import `to_module` of
/// crate `to` (`to_module == None` denies the whole crate).
#[derive(Debug, Clone)]
pub struct DenyRule {
    /// Importing crates the rule applies to; `None` = every crate except
    /// those in `except`.
    pub from: Option<Vec<&'static str>>,
    /// Exempted importers when `from` is `None`.
    pub except: Vec<&'static str>,
    /// Target crate.
    pub to: &'static str,
    /// Target module; `None` denies any import of the crate.
    pub to_module: Option<&'static str>,
    /// Why the edge is forbidden (printed with violations).
    pub why: &'static str,
}

impl DenyRule {
    fn applies_from(&self, from: &str) -> bool {
        match &self.from {
            Some(list) => list.contains(&from),
            None => !self.except.contains(&from),
        }
    }
}

/// The declared layering contract.
#[derive(Debug, Clone)]
pub struct Contract {
    /// Crate → layer. An edge may only point at an equal or lower layer.
    pub layers: BTreeMap<&'static str, u32>,
    /// Module-level deny rules.
    pub deny: Vec<DenyRule>,
    /// Cross-crate targets a wire-marked module may import.
    pub wire_allowed: Vec<(&'static str, &'static str)>,
}

impl Contract {
    /// The powerburst workspace contract. Layers (0 = bottom):
    ///
    /// ```text
    /// 0 obs | 1 sim | 2 energy | 3 net | 4 transport | 5 traffic
    /// 6 core | 7 coord, trace | 8 client | 9 scenario | 10 lint, cli
    /// ```
    pub fn powerburst() -> Contract {
        let layers = BTreeMap::from([
            ("obs", 0),
            ("sim", 1),
            ("energy", 2),
            ("net", 3),
            ("transport", 4),
            ("traffic", 5),
            ("core", 6),
            ("coord", 7),
            ("trace", 7),
            ("client", 8),
            ("scenario", 9),
            ("lint", 10),
            (ROOT_CRATE, 10),
        ]);
        let deny = vec![
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "sim",
                to_module: Some("events"),
                why: "core is pure policy: it never drives the event queue",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "sim",
                to_module: Some("sweep"),
                why: "core is pure policy: the sweep harness is above it",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "sim",
                to_module: Some("rng"),
                why: "core is pure policy: randomness is injected, never drawn",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "sim",
                to_module: Some("clock"),
                why: "core is pure policy: clock models belong to the world",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("world"),
                why: "core is pure policy: topology assembly is above it",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("medium"),
                why: "core is pure policy: it sees the radio only through Ctx",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("ap"),
                why: "core is pure policy: the AP is a peer node, not a dependency",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("sniffer"),
                why: "core is pure policy: observation taps are above it",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("faults"),
                why: "core is pure policy: fault injection wraps it from outside",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("forward"),
                why: "core is pure policy: switching/routing is topology, not policy",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("link"),
                why: "core is pure policy: link emulation is topology, not policy",
            },
            DenyRule {
                from: Some(vec!["core"]),
                except: vec![],
                to: "net",
                to_module: Some("shaper"),
                why: "core is pure policy: pipes are topology, not policy",
            },
            DenyRule {
                from: Some(vec!["trace"]),
                except: vec![],
                to: "obs",
                to_module: None,
                why: "export passivity: traces must be identical with obs on or off",
            },
        ];
        Contract { layers, deny, wire_allowed: vec![("net", "addr"), ("sim", "time")] }
    }
}

impl ImportGraph {
    /// Parse the workspace rooted at `root`: the root `src/` tree (as the
    /// `cli` pseudo-crate) and every `crates/*/src` tree.
    pub fn build(root: &Path) -> io::Result<ImportGraph> {
        let mut g = ImportGraph::default();
        let trees = source_trees(root)?;
        g.crates = trees.iter().map(|(n, _)| n.clone()).collect();
        g.crates.sort();

        // Pass 1: module lists and top-level re-export maps.
        let mut reexports: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
        for (name, src) in &trees {
            let (mods, re) = crate_surface(src)?;
            g.modules.insert(name.clone(), mods);
            reexports.insert(name.clone(), re);
        }

        // Pass 2: edges.
        for (name, src) in &trees {
            let mut files = Vec::new();
            collect_rs(src, &mut files)?;
            for path in &files {
                let rel = rel_path(root, path);
                let raw = fs::read_to_string(path)?;
                let code = strip_code(&raw);
                let is_wire = raw
                    .lines()
                    .any(|l| l.trim_start().starts_with("//") && l.contains(WIRE_MARKER));
                if is_wire {
                    g.wire_files.push(rel.clone());
                }
                for (line, path_str) in use_decls(&code) {
                    for target in split_use_targets(&path_str) {
                        if let Some(rest) = target.strip_prefix(CRATE_PREFIX) {
                            let mut segs = rest.splitn(2, "::");
                            // `powerburst_net as net` → crate segment `net`.
                            let seg = segs.next().unwrap_or("");
                            let to = seg.split_whitespace().next().unwrap_or("").to_string();
                            let tail = segs.next().unwrap_or("");
                            if to == *name {
                                continue; // a bin importing its own lib
                            }
                            let to_module = resolve_module(&to, tail, &g.modules, &reexports);
                            g.edges.push(Edge {
                                from: name.clone(),
                                file: rel.clone(),
                                line,
                                to,
                                to_module,
                            });
                        }
                    }
                }
            }
        }
        Ok(g)
    }

    /// Crate-level edges, deduplicated: (from, to).
    pub fn crate_edges(&self) -> BTreeSet<(String, String)> {
        self.edges.iter().map(|e| (e.from.clone(), e.to.clone())).collect()
    }

    /// Check the graph against a contract. Violations are sorted by
    /// (file, line, message).
    pub fn check(&self, contract: &Contract) -> Vec<GraphViolation> {
        let mut out = Vec::new();

        // Clause 0: every crate must have a declared layer.
        for c in &self.crates {
            if !contract.layers.contains_key(c.as_str()) {
                out.push(GraphViolation {
                    file: String::new(),
                    line: 0,
                    message: format!(
                        "crate `{c}` has no declared layer — add it to the layering \
                         contract in crates/lint/src/graph.rs"
                    ),
                });
            }
        }

        // Clause 1: layering — edges may not point upward.
        for e in &self.edges {
            let (Some(&lf), Some(&lt)) =
                (contract.layers.get(e.from.as_str()), contract.layers.get(e.to.as_str()))
            else {
                continue; // undeclared crates already reported above
            };
            if lt > lf {
                out.push(GraphViolation {
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "layering: `{}` (layer {lf}) may not import `{}` (layer {lt}) — \
                         edges must point at the same or a lower layer",
                        e.from, e.to
                    ),
                });
            }
        }

        // Clause 2: the crate graph must be acyclic.
        if let Some(cycle) = find_cycle(&self.crate_edges()) {
            out.push(GraphViolation {
                file: String::new(),
                line: 0,
                message: format!("crate import cycle: {}", cycle.join(" -> ")),
            });
        }

        // Clause 3: module quarantines.
        for e in &self.edges {
            for rule in &contract.deny {
                if e.to != rule.to || !rule.applies_from(&e.from) {
                    continue;
                }
                let hit = match rule.to_module {
                    None => true,
                    Some(m) => e.to_module.as_deref() == Some(m),
                };
                if hit {
                    let target = match rule.to_module {
                        Some(m) => format!("{}::{m}", e.to),
                        None => e.to.clone(),
                    };
                    out.push(GraphViolation {
                        file: e.file.clone(),
                        line: e.line,
                        message: format!("forbidden edge `{}` -> `{target}`: {}", e.from, rule.why),
                    });
                }
            }
        }

        // Clause 4: wire-marked modules import only the declared vocabulary.
        for wf in &self.wire_files {
            for e in self.edges.iter().filter(|e| &e.file == wf) {
                let ok = contract
                    .wire_allowed
                    .iter()
                    .any(|(c, m)| e.to == *c && e.to_module.as_deref() == Some(*m));
                if !ok {
                    out.push(GraphViolation {
                        file: e.file.clone(),
                        line: e.line,
                        message: format!(
                            "wire-encoding module imports `{}{}` — wire modules are \
                             leaf-level: only the addr/time vocabulary is allowed",
                            e.to,
                            e.to_module.as_deref().map(|m| format!("::{m}")).unwrap_or_default()
                        ),
                    });
                }
            }
        }

        out.sort_by(|a, b| (&a.file, a.line, &a.message).cmp(&(&b.file, b.line, &b.message)));
        out.dedup();
        out
    }

    /// Deny rules naming a module their target crate does not declare.
    /// Such a rule can never fire, so it fails the lint the way a stale
    /// allowlist entry does. Checked against the real workspace only: a
    /// fixture tree declares just the modules its cases need.
    fn stale_rules(&self, contract: &Contract) -> Vec<GraphViolation> {
        contract
            .deny
            .iter()
            .filter_map(|rule| {
                let m = rule.to_module?;
                let exists = self.modules.get(rule.to).is_some_and(|mods| mods.contains(m));
                (!exists).then(|| GraphViolation {
                    file: String::new(),
                    line: 0,
                    message: format!(
                        "stale deny rule: `{0}::{m}` is not a module of `{0}` — remove the \
                         rule from crates/lint/src/graph.rs",
                        rule.to
                    ),
                })
            })
            .collect()
    }

    /// Render the crate DAG as deterministic Graphviz DOT, one node per
    /// crate (labelled with its layer) and one edge per deduplicated
    /// crate-level import. Committed as a golden: a new edge changes this
    /// text and fails the diff.
    pub fn to_dot(&self, contract: &Contract) -> String {
        let mut s = String::from(
            "// Workspace crate import DAG — generated by `powerburst-lint graph --dot`.\n\
             // Committed as a golden; regenerate after intentional layering changes.\n\
             digraph powerburst {\n    rankdir = BT;\n    node [shape=box];\n",
        );
        for c in &self.crates {
            let layer =
                contract.layers.get(c.as_str()).map(|l| format!(" (L{l})")).unwrap_or_default();
            s.push_str(&format!("    \"{c}\" [label=\"{c}{layer}\"];\n"));
        }
        for (from, to) in self.crate_edges() {
            s.push_str(&format!("    \"{from}\" -> \"{to}\";\n"));
        }
        s.push_str("}\n");
        s
    }
}

/// Build and check the workspace graph in one call (the full-pass entry
/// point used by the CLI and the tier-1 tests): [`ImportGraph::check`]'s
/// violations, then every deny rule that names a module its target crate
/// does not declare — a rule that can never fire, reported the way a
/// stale allowlist entry is.
pub fn check_workspace_graph(root: &Path) -> io::Result<Vec<GraphViolation>> {
    let g = ImportGraph::build(root)?;
    let contract = Contract::powerburst();
    let mut out = g.check(&contract);
    out.extend(g.stale_rules(&contract));
    Ok(out)
}

/// Find one cycle in a directed graph, as the node path `a -> b -> a`.
pub fn find_cycle(edges: &BTreeSet<(String, String)>) -> Option<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (f, t) in edges {
        adj.entry(f).or_default().push(t);
    }
    let mut state: BTreeMap<&str, u8> = BTreeMap::new(); // 1 = on stack, 2 = done
    let mut stack: Vec<&str> = Vec::new();

    fn dfs<'a>(
        n: &'a str,
        adj: &BTreeMap<&'a str, Vec<&'a str>>,
        state: &mut BTreeMap<&'a str, u8>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        state.insert(n, 1);
        stack.push(n);
        for &m in adj.get(n).map(Vec::as_slice).unwrap_or_default() {
            match state.get(m) {
                Some(1) => {
                    let pos = stack.iter().position(|&x| x == m).unwrap_or(0);
                    let mut cycle: Vec<String> =
                        stack[pos..].iter().map(|s| s.to_string()).collect();
                    cycle.push(m.to_string());
                    return Some(cycle);
                }
                Some(_) => {}
                None => {
                    if let Some(c) = dfs(m, adj, state, stack) {
                        return Some(c);
                    }
                }
            }
        }
        stack.pop();
        state.insert(n, 2);
        None
    }

    let nodes: Vec<&str> = adj.keys().copied().collect();
    for n in nodes {
        if !state.contains_key(n) {
            if let Some(c) = dfs(n, &adj, &mut state, &mut stack) {
                return Some(c);
            }
        }
    }
    None
}

/// Parse a crate's `lib.rs`/`main.rs` for its top-level `mod` list and a
/// one-level re-export map (`pub use module::{A, B as C}` → A/C ↦ module).
fn crate_surface(src: &Path) -> io::Result<(BTreeSet<String>, BTreeMap<String, String>)> {
    let mut mods = BTreeSet::new();
    let mut re = BTreeMap::new();
    for entry in ["lib.rs", "main.rs"] {
        let p = src.join(entry);
        let Ok(raw) = fs::read_to_string(&p) else { continue };
        let code = strip_code(&raw);
        for line in code.lines() {
            let t = line.trim();
            let after_mod = t
                .strip_prefix("pub mod ")
                .or_else(|| t.strip_prefix("mod "))
                .or_else(|| t.strip_prefix("pub(crate) mod "));
            if let Some(rest) = after_mod {
                let name: String =
                    rest.chars().take_while(|c| *c == '_' || c.is_ascii_alphanumeric()).collect();
                if !name.is_empty() {
                    mods.insert(name);
                }
            }
        }
        for (_, path_str) in use_decls(&code) {
            // Only `pub use <module>::…` shapes contribute to the surface;
            // use_decls keeps the `pub ` prefix for this distinction.
            let Some(p) = path_str.strip_prefix("pub ") else { continue };
            for target in split_use_targets(p) {
                let mut segs = target.split("::");
                let first = segs.next().unwrap_or("");
                let first = first.strip_prefix("self::").unwrap_or(first);
                if !mods.contains(first) {
                    continue;
                }
                if let Some(leaf) = target.rsplit("::").next() {
                    // `X as Y` exports Y; plain paths export the leaf.
                    let name = leaf.rsplit(" as ").next().unwrap_or(leaf).trim();
                    if !name.is_empty() && name != "*" {
                        re.insert(name.to_string(), first.to_string());
                    }
                }
            }
        }
    }
    Ok((mods, re))
}

/// Resolve an imported path's module within the target crate: the first
/// path segment when it is a module, else the re-export map entry for the
/// first imported item.
fn resolve_module(
    to: &str,
    tail: &str,
    modules: &BTreeMap<String, BTreeSet<String>>,
    reexports: &BTreeMap<String, BTreeMap<String, String>>,
) -> Option<String> {
    if tail.is_empty() {
        return None; // whole-crate import (`use powerburst_obs as obs`)
    }
    let first = tail.split("::").next().unwrap_or("");
    if modules.get(to).is_some_and(|m| m.contains(first)) {
        return Some(first.to_string());
    }
    let item = first.rsplit(" as ").next().unwrap_or(first).trim();
    reexports.get(to).and_then(|re| re.get(item)).cloned()
}

/// Extract `use` declarations from a stripped code view: `(line, text)`
/// where text is the joined declaration without the `use ` keyword but
/// *with* a `pub ` prefix preserved when present. Multi-line declarations
/// are joined up to the terminating `;`.
fn use_decls(code: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = code.lines().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let t = lines[i].trim();
        let (is_pub, rest) = match t.strip_prefix("pub use ") {
            Some(r) => (true, Some(r)),
            None => (
                false,
                t.strip_prefix("use ").or_else(|| {
                    t.strip_prefix("pub(crate) use ").or_else(|| t.strip_prefix("pub(super) use "))
                }),
            ),
        };
        let Some(rest) = rest else {
            i += 1;
            continue;
        };
        let start = i;
        let mut decl = String::from(rest);
        while !decl.contains(';') && i + 1 < lines.len() {
            i += 1;
            decl.push(' ');
            decl.push_str(lines[i].trim());
        }
        let decl = decl.split(';').next().unwrap_or("").trim().to_string();
        let decl = if is_pub { format!("pub {decl}") } else { decl };
        out.push((start + 1, decl));
        i += 1;
    }
    out
}

/// Split a use-declaration body into independent path targets, expanding
/// one level of braces: `a::{b::C, d}` → `["a::b::C", "a::d"]`. Nested
/// groups are flattened segment-wise; `self` inside a group maps to the
/// prefix itself.
fn split_use_targets(decl: &str) -> Vec<String> {
    let decl = decl.strip_prefix("pub ").unwrap_or(decl);
    let decl = decl.trim().trim_start_matches("::");
    match decl.find('{') {
        None => vec![decl.trim().to_string()],
        Some(b) => {
            let prefix = decl[..b].trim().trim_end_matches("::").to_string();
            let inner = decl[b + 1..].rsplit_once('}').map(|(i, _)| i).unwrap_or(&decl[b + 1..]);
            let mut out = Vec::new();
            let mut depth = 0usize;
            let mut cur = String::new();
            for c in inner.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        cur.push(c);
                    }
                    '}' => {
                        depth = depth.saturating_sub(1);
                        cur.push(c);
                    }
                    ',' if depth == 0 => {
                        push_target(&prefix, &cur, &mut out);
                        cur.clear();
                    }
                    _ => cur.push(c),
                }
            }
            push_target(&prefix, &cur, &mut out);
            out
        }
    }
}

fn push_target(prefix: &str, elem: &str, out: &mut Vec<String>) {
    let e = elem.trim();
    if e.is_empty() {
        return;
    }
    // Flatten one nested group level: `b::{C, D}` → first path only; the
    // module attribution needs only the leading segment.
    let e = e.split('{').next().unwrap_or(e).trim_end_matches("::").trim();
    if e.is_empty() || e == "self" {
        if !prefix.is_empty() {
            out.push(prefix.to_string());
        }
        return;
    }
    if prefix.is_empty() {
        out.push(e.to_string());
    } else {
        out.push(format!("{prefix}::{e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_use_targets_expands_braces() {
        assert_eq!(
            split_use_targets("powerburst_sim::SimDuration"),
            vec!["powerburst_sim::SimDuration"]
        );
        assert_eq!(
            split_use_targets("powerburst_net::{Ctx, addr::ports, world::World}"),
            vec![
                "powerburst_net::Ctx",
                "powerburst_net::addr::ports",
                "powerburst_net::world::World"
            ]
        );
        assert_eq!(
            split_use_targets("powerburst_sim::{clock::{ClockModel, Skew}, SimTime}"),
            vec!["powerburst_sim::clock", "powerburst_sim::SimTime"]
        );
        assert_eq!(split_use_targets("powerburst_obs as obs"), vec!["powerburst_obs as obs"]);
    }

    #[test]
    fn use_decls_joins_multiline_and_keeps_pub() {
        let code = "use powerburst_net::{\n    Ctx, Node,\n};\npub use schedule::Schedule;\n";
        let decls = use_decls(code);
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].0, 1);
        assert_eq!(decls[0].1, "powerburst_net::{ Ctx, Node, }");
        assert_eq!(decls[1].1, "pub schedule::Schedule");
    }

    #[test]
    fn a_rule_naming_a_missing_module_is_reported() {
        let g = ImportGraph {
            modules: BTreeMap::from([("sim".to_string(), BTreeSet::from(["clock".to_string()]))]),
            ..ImportGraph::default()
        };
        let rule = |to, to_module| DenyRule {
            from: Some(vec!["core"]),
            except: vec![],
            to,
            to_module,
            why: "test",
        };
        let contract = Contract {
            layers: BTreeMap::new(),
            deny: vec![
                rule("sim", Some("clock")),
                rule("sim", Some("events")),
                rule("obs", None),
                rule("gone", Some("anything")),
            ],
            wire_allowed: vec![],
        };
        let stale: Vec<String> = g.stale_rules(&contract).iter().map(|v| v.to_string()).collect();
        assert_eq!(stale.len(), 2, "{stale:#?}");
        assert!(stale[0].contains("`sim::events` is not a module of `sim`"), "{stale:#?}");
        assert!(stale[1].contains("`gone::anything` is not a module of `gone`"), "{stale:#?}");
    }

    #[test]
    fn find_cycle_reports_a_path_and_passes_dags() {
        let dag: BTreeSet<(String, String)> =
            [("a", "b"), ("b", "c"), ("a", "c")].map(|(f, t)| (f.into(), t.into())).into();
        assert_eq!(find_cycle(&dag), None);
        let cyc: BTreeSet<(String, String)> =
            [("a", "b"), ("b", "c"), ("c", "a")].map(|(f, t)| (f.into(), t.into())).into();
        let path = find_cycle(&cyc).expect("cycle detected");
        assert!(path.len() == 4 && path.first() == path.last(), "{path:?}");
    }
}
