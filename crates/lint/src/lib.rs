//! # powerburst-lint
//!
//! A tidy-style sim-purity lint: plain file/line scanning (no AST, no
//! dependencies) that enforces the determinism invariants the simulator's
//! results rest on. Every rule has a stable ID so violations can be
//! grandfathered in `lint-allow.txt` and tracked down over time.
//!
//! | ID   | Rule |
//! |------|------|
//! | D001 | no wall-clock types (`Instant`, `SystemTime`) in any scanned file |
//! | D002 | no `HashMap`/`HashSet` iteration in sim-path crates (order is nondeterministic) |
//! | D003 | no `thread_rng`/`rand::random` outside the seeded `sim::rng` module |
//! | D004 | no `thread::sleep` or environment access (`env::var`, …) in sim-path crates |
//! | D005 | no floating-point in wire-encoding modules (marked `lint: wire-encoding`) |
//! | D006 | no `unwrap()`/undocumented `expect()` in non-test core/net/transport code |
//! | D007 | no `println!`/`eprintln!` outside the CLI (`src/bin/`) and this crate |
//! | D008 | no shared mutable statics (`static mut`, mutable `thread_local!`, `lazy_static`/`OnceLock`) in sim-path crates |
//! | D009 | no atomics in sim-path crates (atomics are legal only in `obs`, whose passivity is proven) |
//! | D010 | no float accumulation over hash-container iteration outside sim-path crates (order-unstable sums) |
//! | D011 | no `unsafe` outside `sim`; in `sim`, every `unsafe` needs an adjacent `// SAFETY:` line |
//! | D012 | no interior mutability (`RefCell`/`Cell`/`Rc`) in sim-path crates (shard state must be owned) |
//!
//! D001–D007 police single-thread purity line by line; D008–D012 police
//! *shardability* — the preconditions for running per-cell shards on
//! threads with byte-identical exports (see DESIGN.md §16). They are
//! backed by the crate-graph layering analysis in [`graph`], which
//! enforces the workspace's declared import contract.
//!
//! The scanner works on a *code view* of each file: comments, string
//! literal contents, and char literal contents are blanked out (preserving
//! line structure), so a rule needle inside a doc comment or a log message
//! never fires. `#[cfg(test)]` / `#[test]` regions are tracked by brace
//! counting and exempt from every rule except D005 (a wire-encoding
//! module is integer-only *including* its tests — the tests are the
//! contract's witnesses).
//!
//! Sim-path crates are `core`, `net`, `transport`, `sim`, `energy`, and
//! `trace` — everything on the deterministic result path. The scanner
//! walks `src/` and `crates/*/src/`; integration tests, benches, and
//! examples are reporting harnesses, not sim path, and are not scanned.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Crates on the deterministic result path (everything that runs between
/// a seed and an exported metric).
pub const SIM_PATH_CRATES: [&str; 6] = ["core", "net", "transport", "sim", "energy", "trace"];

/// Marker comment that opts a module into rule D005. Spelled as a concat
/// so this file never contains the literal marker itself.
pub const WIRE_MARKER: &str = concat!("lint: wire", "-encoding");

/// Name of the allowlist file at the workspace root.
pub const ALLOWLIST_FILE: &str = "lint-allow.txt";

/// A sim-purity rule, identified by its stable ID.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Rule {
    D001,
    D002,
    D003,
    D004,
    D005,
    D006,
    D007,
    D008,
    D009,
    D010,
    D011,
    D012,
}

impl Rule {
    /// All rules, in ID order.
    pub const ALL: [Rule; 12] = [
        Rule::D001,
        Rule::D002,
        Rule::D003,
        Rule::D004,
        Rule::D005,
        Rule::D006,
        Rule::D007,
        Rule::D008,
        Rule::D009,
        Rule::D010,
        Rule::D011,
        Rule::D012,
    ];

    /// The stable ID string (`"D001"`, …).
    pub fn id(self) -> &'static str {
        match self {
            Rule::D001 => "D001",
            Rule::D002 => "D002",
            Rule::D003 => "D003",
            Rule::D004 => "D004",
            Rule::D005 => "D005",
            Rule::D006 => "D006",
            Rule::D007 => "D007",
            Rule::D008 => "D008",
            Rule::D009 => "D009",
            Rule::D010 => "D010",
            Rule::D011 => "D011",
            Rule::D012 => "D012",
        }
    }

    /// Parse an ID string.
    pub fn parse(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }

    /// One-line statement of the rule, shown next to violations.
    pub fn summary(self) -> &'static str {
        match self {
            Rule::D001 => "wall-clock time in workspace code (Instant/SystemTime belong in perfbench, which the lint does not scan)",
            Rule::D002 => "hash-container iteration in sim-path code (order is nondeterministic; use BTreeMap/BTreeSet or sort first)",
            Rule::D003 => "unseeded randomness (derive a seeded RNG from sim::rng instead)",
            Rule::D004 => "host-environment dependence in sim code (thread::sleep / env access)",
            Rule::D005 => "floating-point in a wire-encoding module (integer-only by contract)",
            Rule::D006 => "unwrap()/undocumented expect() in sim-path code (use typed errors or expect(\"invariant: ...\"))",
            Rule::D007 => "console output outside the CLI (route through obs events instead)",
            Rule::D008 => "shared mutable static in sim-path code (static mut / mutable thread_local / lazy init cell — shard state must be owned)",
            Rule::D009 => "atomic in sim-path code (sim results must never flow through cross-thread cells; atomics are legal only in obs)",
            Rule::D010 => "float accumulation over hash-container iteration (order-unstable sum; iterate a BTreeMap or sort first)",
            Rule::D011 => "unsafe outside the sim crate, or unsafe in sim without an adjacent // SAFETY: justification",
            Rule::D012 => "interior mutability (RefCell/Cell/Rc) in sim-path code (aliased shard state defeats conservative-lookahead sharding)",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{} {} {}", self.file, self.line, self.rule, self.rule.summary())
    }
}

/// One grandfathered `(file, rule)` pair from `lint-allow.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Workspace-relative path the entry suppresses.
    pub file: String,
    /// Rule suppressed in that file.
    pub rule: Rule,
    /// Mandatory justification (text after `#`).
    pub reason: String,
    /// 1-based line in `lint-allow.txt`, for error reporting.
    pub line: usize,
}

/// Result of a lint pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations not covered by the allowlist, sorted by (file, line).
    pub violations: Vec<Violation>,
    /// Allowlist entries that suppressed nothing — stale entries fail the
    /// lint so the allowlist can only shrink.
    pub stale: Vec<AllowEntry>,
    /// Violations suppressed by the allowlist.
    pub suppressed: usize,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree passes: no violations and no stale entries.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale.is_empty()
    }
}

/// Parse `lint-allow.txt`: one `path RULE # reason` per line; blank lines
/// and lines starting with `#` are comments. The reason is mandatory.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let t = raw.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let (spec, reason) = match t.split_once('#') {
            Some((s, r)) if !r.trim().is_empty() => (s.trim(), r.trim().to_string()),
            _ => return Err(format!("{ALLOWLIST_FILE}:{line}: entry needs a `# reason`")),
        };
        let mut parts = spec.split_whitespace();
        let (Some(file), Some(id), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{ALLOWLIST_FILE}:{line}: expected `path RULE # reason`"));
        };
        let Some(rule) = Rule::parse(id) else {
            return Err(format!("{ALLOWLIST_FILE}:{line}: unknown rule id {id:?}"));
        };
        entries.push(AllowEntry { file: file.to_string(), rule, reason, line });
    }
    Ok(entries)
}

/// Lint a whole workspace rooted at `root`: scans `src/` and
/// `crates/*/src/`, applies `lint-allow.txt` if present, and reports
/// stale allowlist entries.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let allow = match fs::read_to_string(root.join(ALLOWLIST_FILE)) {
        Ok(text) => parse_allowlist(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };

    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files)?;
        }
    }

    let mut report = Report::default();
    let mut used = vec![0usize; allow.len()];
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(path)?;
        report.files_scanned += 1;
        for v in lint_source(&rel, &src) {
            match allow.iter().position(|a| a.file == v.file && a.rule == v.rule) {
                Some(i) => {
                    used[i] += 1;
                    report.suppressed += 1;
                }
                None => report.violations.push(v),
            }
        }
    }
    report.stale =
        allow.iter().zip(&used).filter(|&(_, &n)| n == 0).map(|(a, _)| a.clone()).collect();
    report.violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// What a file's path says about which rules apply to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileScope<'a> {
    /// `Some("core")` for `crates/core/src/...`, `None` for root `src/`.
    crate_name: Option<&'a str>,
    rel: &'a str,
}

impl<'a> FileScope<'a> {
    fn of(rel: &'a str) -> FileScope<'a> {
        let crate_name =
            rel.strip_prefix("crates/").and_then(|r| r.split_once('/')).map(|(name, _)| name);
        FileScope { crate_name, rel }
    }

    fn is_sim_path(&self) -> bool {
        self.crate_name.is_some_and(|c| SIM_PATH_CRATES.contains(&c))
    }

    fn applies(&self, rule: Rule) -> bool {
        match rule {
            Rule::D001 => true,
            Rule::D002 | Rule::D004 => self.is_sim_path(),
            Rule::D003 => self.rel != "crates/sim/src/rng.rs",
            Rule::D005 => true, // gated by the in-file marker instead
            Rule::D006 => {
                matches!(self.crate_name, Some("core") | Some("net") | Some("transport"))
            }
            Rule::D007 => !self.rel.starts_with("src/bin/") && self.crate_name != Some("lint"),
            Rule::D008 | Rule::D009 | Rule::D012 => self.is_sim_path(),
            // D002 already bans hash iteration wholesale on the sim path;
            // D010 extends the float-accumulation case to the reporting
            // crates whose aggregates feed exports (scenario, client,
            // coord, obs, the CLI). The lint itself is a harness, not a
            // result path.
            Rule::D010 => !self.is_sim_path() && self.crate_name != Some("lint"),
            Rule::D011 => true, // scoping is inside the rule: sim may, with SAFETY
        }
    }
}

/// Lint one file's source text. `rel` is the workspace-relative path with
/// forward slashes (it decides which rules apply).
pub fn lint_source(rel: &str, src: &str) -> Vec<Violation> {
    let scope = FileScope::of(rel);
    let code = strip_code(src);
    let code_lines: Vec<&str> = code.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let in_test = test_mask(&code_lines);
    let is_wire_module =
        raw_lines.iter().any(|l| l.trim_start().starts_with("//") && l.contains(WIRE_MARKER));
    let hash_idents = if scope.applies(Rule::D002) || scope.applies(Rule::D010) {
        hash_container_idents(&code_lines)
    } else {
        Vec::new()
    };
    let tls_violations = if scope.applies(Rule::D008) {
        mutable_thread_local_lines(&code_lines)
    } else {
        Vec::new()
    };
    let d010_loop_lines = if scope.applies(Rule::D010) {
        float_accum_loop_lines(&code_lines, &hash_idents)
    } else {
        Vec::new()
    };

    let mut out = Vec::new();
    let mut push = |rule: Rule, line: usize| {
        out.push(Violation { file: rel.to_string(), line, rule });
    };

    for (i, &line) in code_lines.iter().enumerate() {
        let lineno = i + 1;
        let test = in_test.get(i).copied().unwrap_or(false);

        if is_wire_module
            && scope.applies(Rule::D005)
            && (line.contains("f32") || line.contains("f64") || has_float_literal(line))
        {
            push(Rule::D005, lineno);
        }
        if test {
            continue; // every other rule exempts test code
        }

        if scope.applies(Rule::D001)
            && (find_word(line, "Instant").is_some() || find_word(line, "SystemTime").is_some())
        {
            push(Rule::D001, lineno);
        }
        if scope.applies(Rule::D002) && iterates_hash_container(line, &hash_idents) {
            push(Rule::D002, lineno);
        }
        if scope.applies(Rule::D003)
            && (find_word(line, "thread_rng").is_some() || line.contains("rand::random"))
        {
            push(Rule::D003, lineno);
        }
        if scope.applies(Rule::D004)
            && ["thread::sleep", "env::var", "env::vars", "env::temp_dir", "env::args"]
                .iter()
                .any(|n| line.contains(n))
        {
            push(Rule::D004, lineno);
        }
        if scope.applies(Rule::D006) {
            if line.contains(".unwrap()") {
                push(Rule::D006, lineno);
            }
            if let Some(p) = line.find(".expect(") {
                if !expect_is_documented(&raw_lines, i, p) {
                    push(Rule::D006, lineno);
                }
            }
        }
        if scope.applies(Rule::D007)
            && ["println!", "eprintln!", "print!", "eprint!"]
                .iter()
                .any(|n| find_word(line, n).is_some())
        {
            push(Rule::D007, lineno);
        }
        if scope.applies(Rule::D008)
            && (line.contains("static mut ")
                || find_word(line, "lazy_static").is_some()
                || find_word(line, "OnceLock").is_some()
                || find_word(line, "OnceCell").is_some()
                || tls_violations.contains(&lineno))
        {
            push(Rule::D008, lineno);
        }
        if scope.applies(Rule::D009)
            && (line.contains("sync::atomic")
                || ATOMIC_TYPES.iter().any(|t| find_word(line, t).is_some()))
        {
            push(Rule::D009, lineno);
        }
        if scope.applies(Rule::D010)
            && (d010_loop_lines.contains(&lineno)
                || (iterates_hash_container(line, &hash_idents)
                    && has_float_accum(line, code_lines.get(i + 1).copied().unwrap_or(""))))
        {
            push(Rule::D010, lineno);
        }
        if find_word(line, "unsafe").is_some() {
            let documented = scope.crate_name == Some("sim")
                && raw_lines[i.saturating_sub(3)..=i].iter().any(|l| l.contains("SAFETY:"));
            if !documented {
                push(Rule::D011, lineno);
            }
        }
        // `Cell` alone is a legitimate domain name (radio cells); require
        // a shape that can only be `std::cell::Cell`.
        if scope.applies(Rule::D012)
            && (["RefCell", "Rc"].iter().any(|t| find_word(line, t).is_some()) || is_std_cell(line))
        {
            push(Rule::D012, lineno);
        }
    }
    out
}

/// Atomic cell type names (rule D009).
const ATOMIC_TYPES: [&str; 12] = [
    "AtomicBool",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicUsize",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicIsize",
    "AtomicPtr",
];

/// Float-accumulation idioms chained onto an iterator (rule D010). The
/// window is the match line plus its continuation (rustfmt splits chains).
fn has_float_accum(line: &str, next: &str) -> bool {
    const NEEDLES: [&str; 7] = [
        ".sum::<f32",
        ".sum::<f64",
        ".product::<f32",
        ".product::<f64",
        ".fold(0.0",
        ".fold(0f32",
        ".fold(0f64",
    ];
    NEEDLES.iter().any(|n| line.contains(n) || next.contains(n))
}

/// Lines of `+=`-style float accumulation inside a `for` loop over a hash
/// container (rule D010's loop form; the chained form is handled inline).
fn float_accum_loop_lines(code_lines: &[&str], idents: &[String]) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, &line) in code_lines.iter().enumerate() {
        if find_word(line, "for").is_none() || !iterates_hash_container(line, idents) {
            continue;
        }
        // Walk the loop body by brace counting.
        let mut depth = 0i64;
        let mut started = false;
        for (j, &body) in code_lines.iter().enumerate().skip(i) {
            if started
                && depth > 0
                && (body.contains("+=") || body.contains("-=") || body.contains("*="))
                && (body.contains("as f64")
                    || body.contains("as f32")
                    || find_word(body, "f64").is_some()
                    || find_word(body, "f32").is_some()
                    || has_float_literal(body))
            {
                out.push(j + 1);
            }
            for c in body.bytes() {
                match c {
                    b'{' => {
                        depth += 1;
                        started = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
        }
    }
    out
}

/// Lines where a `thread_local!` block declares mutable per-thread state
/// (rule D008): an interior-mutability cell in the body, or a non-`const`
/// initializer. A `const` thread-local of immutable data is fine.
fn mutable_thread_local_lines(code_lines: &[&str]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code_lines.len() {
        if find_word(code_lines[i], "thread_local").is_none() {
            i += 1;
            continue;
        }
        let mut depth = 0i64;
        let mut started = false;
        let mut bad = false;
        let mut j = i;
        while j < code_lines.len() {
            let body = code_lines[j];
            if ["RefCell", "Cell", "UnsafeCell"].iter().any(|t| find_word(body, t).is_some())
                || body.contains("Atomic")
            {
                bad = true;
            }
            if find_word(body, "static").is_some() {
                // A static declaration inside the macro body: its
                // initializer must be `const { .. }`. Look ahead to the
                // terminating `;`.
                let mut const_init = false;
                for &k in code_lines.iter().skip(j).take(4) {
                    if find_word(k, "const").is_some() {
                        const_init = true;
                    }
                    if k.trim_end().ends_with(';') {
                        break;
                    }
                }
                if !const_init {
                    bad = true;
                }
            }
            for c in body.bytes() {
                match c {
                    b'{' => {
                        depth += 1;
                        started = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            j += 1;
        }
        if bad {
            out.push(i + 1);
        }
        i = j + 1;
    }
    out
}

/// An `.expect(` call is documented when its message is a string literal
/// starting with `invariant:` — a statement of why the value cannot be
/// absent, not a description of the crash. The literal may sit on the
/// next line (rustfmt splits long chains).
fn expect_is_documented(raw_lines: &[&str], line_idx: usize, col: usize) -> bool {
    let mut window = String::new();
    window.push_str(&raw_lines[line_idx][col + ".expect(".len()..]);
    for next in raw_lines.iter().skip(line_idx + 1).take(2) {
        window.push(' ');
        window.push_str(next);
    }
    match window.find('"') {
        Some(q) => window[q + 1..].starts_with("invariant:"),
        None => false, // non-literal message: cannot be audited, rewrite it
    }
}

/// Collect identifiers declared as `HashMap`/`HashSet` in this file
/// (fields `name: HashMap<..>` and bindings `let name = HashMap::new()`).
fn hash_container_idents(code_lines: &[&str]) -> Vec<String> {
    let mut idents = Vec::new();
    for line in code_lines {
        for ty in ["HashMap", "HashSet"] {
            let Some(p) = find_word(line, ty) else { continue };
            let before = line[..p].trim_end();
            let ident = if let Some(b) = before.strip_suffix(':') {
                // `name: HashMap<..>` — but not a `path::HashMap` segment.
                if b.ends_with(':') {
                    continue;
                }
                last_ident(b)
            } else if let Some(b) = before.strip_suffix('=') {
                // `let name = HashMap::new()`
                last_ident(b.trim_end())
            } else {
                None
            };
            if let Some(id) = ident {
                if !idents.contains(&id) {
                    idents.push(id);
                }
            }
        }
    }
    idents
}

fn last_ident(s: &str) -> Option<String> {
    let end = s.trim_end();
    let tail: String = end
        .chars()
        .rev()
        .take_while(|&c| c == '_' || c.is_ascii_alphanumeric())
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    (!tail.is_empty() && !tail.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(tail)
}

/// Ordering-sensitive operations on a hash container.
const ITER_SUFFIXES: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
    ".into_iter()",
    ".into_values()",
];

fn iterates_hash_container(line: &str, idents: &[String]) -> bool {
    for ident in idents {
        let mut from = 0;
        while let Some(p) = find_word_from(line, ident, from) {
            let rest = &line[p + ident.len()..];
            if ITER_SUFFIXES.iter().any(|s| rest.starts_with(s)) {
                return true;
            }
            // `for x in &map {` — the loop desugars to IntoIterator.
            if rest.trim_start().starts_with('{') {
                if let Some(in_pos) = line[..p].rfind(" in ") {
                    let between = &line[in_pos + 4..p];
                    if between
                        .split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
                        .all(|tok| matches!(tok, "" | "mut" | "self"))
                    {
                        return true;
                    }
                }
            }
            from = p + 1;
        }
    }
    false
}

fn is_ident_byte(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

fn find_word(line: &str, needle: &str) -> Option<usize> {
    find_word_from(line, needle, 0)
}

/// A `std::cell::Cell` usage, as opposed to a domain type named `Cell`
/// (rule D012): the word `Cell` qualified by `cell::`, instantiated with
/// `::new`, or carrying a type parameter. `RefCell`/`UnsafeCell` never
/// match here — `Cell` is not at a word boundary inside them.
fn is_std_cell(line: &str) -> bool {
    let mut from = 0;
    while let Some(p) = find_word_from(line, "Cell", from) {
        let after = &line[p + "Cell".len()..];
        if after.starts_with('<') || after.starts_with("::new") || line[..p].ends_with("cell::") {
            return true;
        }
        from = p + 1;
    }
    false
}

fn find_word_from(line: &str, needle: &str, from: usize) -> Option<usize> {
    let lb = line.as_bytes();
    let mut start = from;
    while let Some(p) = line.get(start..).and_then(|s| s.find(needle)) {
        let p = start + p;
        let before_ok = p == 0 || !is_ident_byte(lb[p - 1]);
        let after = p + needle.len();
        let after_ok = after >= lb.len() || !is_ident_byte(lb[after]);
        if before_ok && after_ok {
            return Some(p);
        }
        start = p + 1;
    }
    None
}

/// A float literal: digit, dot, digit (`1.5`, `1_000.25`). Range syntax
/// (`0..8`) and field access (`x.0`) do not match.
fn has_float_literal(line: &str) -> bool {
    let b = line.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|i| b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit())
}

/// Mark lines belonging to `#[cfg(test)]` / `#[test]` items by brace
/// counting on the code view (comments and strings already blanked).
fn test_mask(code_lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; code_lines.len()];
    let mut i = 0;
    while i < code_lines.len() {
        let t = code_lines[i].trim();
        if !(t.contains(concat!("#[cfg(", "test)]")) || t == concat!("#[", "test]")) {
            i += 1;
            continue;
        }
        let mut depth: i64 = 0;
        let mut started = false;
        let mut j = i;
        while j < code_lines.len() {
            mask[j] = true;
            for c in code_lines[j].bytes() {
                match c {
                    b'{' => {
                        depth += 1;
                        started = true;
                    }
                    b'}' => depth -= 1,
                    _ => {}
                }
            }
            if started && depth <= 0 {
                break;
            }
            // `#[cfg(test)] use foo;` / `mod tests;` — no braces to track.
            if !started && code_lines[j].trim_end().ends_with(';') {
                break;
            }
            j += 1;
        }
        i = j + 1;
    }
    mask
}

/// Blank out comments, string literal contents, and char literal contents,
/// preserving line structure and quote/comment delimiters' columns.
pub fn strip_code(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    let blank = |c: u8| if c == b'\n' { b'\n' } else { b' ' };
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend([b' ', b' ']);
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend([b' ', b' ']);
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            b'"' => {
                // Raw string? Count preceding #s, then look for r / br.
                let mut hashes = 0;
                let mut j = i;
                while j > 0 && b[j - 1] == b'#' {
                    hashes += 1;
                    j -= 1;
                }
                let raw = j > 0
                    && b[j - 1] == b'r'
                    && (j < 2 || !is_ident_byte(b[j - 2]) || b[j - 2] == b'b');
                out.push(b'"');
                i += 1;
                if raw {
                    while i < b.len() {
                        if b[i] == b'"' && (1..=hashes).all(|k| b.get(i + k) == Some(&b'#')) {
                            out.push(b'"');
                            out.extend(std::iter::repeat_n(b'#', hashes));
                            i += 1 + hashes;
                            break;
                        }
                        out.push(blank(b[i]));
                        i += 1;
                    }
                } else {
                    while i < b.len() {
                        match b[i] {
                            b'\\' if i + 1 < b.len() => {
                                out.push(b' ');
                                out.push(blank(b[i + 1]));
                                i += 2;
                            }
                            b'"' => {
                                out.push(b'"');
                                i += 1;
                                break;
                            }
                            c => {
                                out.push(blank(c));
                                i += 1;
                            }
                        }
                    }
                }
            }
            b'\'' => {
                if b.get(i + 1) == Some(&b'\\') {
                    // Escaped char literal: blank to the closing quote.
                    out.push(b'\'');
                    i += 1;
                    while i < b.len() && b[i] != b'\'' {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    if i < b.len() {
                        out.push(b'\'');
                        i += 1;
                    }
                } else if b.get(i + 2) == Some(&b'\'') {
                    // One-byte char literal 'x'.
                    out.extend([b'\'', b' ', b'\'']);
                    i += 3;
                } else {
                    out.push(b'\''); // lifetime
                    i += 1;
                }
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_blanks_comments_strings_and_chars() {
        let src = "let a = \"Instant\"; // Instant\nlet b = 'x'; /* thread_rng */ let c = 1;\n";
        let code = strip_code(src);
        assert!(!code.contains("Instant"));
        assert!(!code.contains("thread_rng"));
        assert!(code.contains("let a = \"       \";"));
        assert!(code.contains("let c = 1;"));
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn strip_handles_raw_strings_and_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let r = r#\"println!(\"hi\")\"#; }";
        let code = strip_code(src);
        assert!(!code.contains("println"));
        assert!(code.contains("fn f<'a>(x: &'a str)"));
        // The raw string's outer delimiters survive, so braces still balance.
        assert_eq!(code.matches('{').count(), code.matches('}').count());
    }

    #[test]
    fn test_mask_covers_cfg_test_modules_by_brace_counting() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {\n  }\n}\nfn c() {}\n";
        let code = strip_code(src);
        let lines: Vec<&str> = code.lines().collect();
        let mask = test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, true, false]);
    }

    #[test]
    fn expect_message_may_wrap_to_the_next_line() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    v.expect(\n        \"invariant: checked\",\n    )\n}\n";
        assert!(lint_source("crates/core/src/x.rs", src).is_empty());
        let bad = src.replace("invariant: checked", "oops");
        let vs = lint_source("crates/core/src/x.rs", &bad);
        assert_eq!(vs.len(), 1);
        assert_eq!((vs[0].line, vs[0].rule), (2, Rule::D006));
    }

    #[test]
    fn allowlist_rejects_malformed_entries() {
        assert!(parse_allowlist("src/a.rs D001 # ok\n").is_ok());
        assert!(parse_allowlist("src/a.rs D001\n").is_err(), "reason is mandatory");
        assert!(parse_allowlist("src/a.rs D999 # x\n").is_err(), "unknown rule");
        assert!(parse_allowlist("src/a.rs # x\n").is_err(), "missing rule");
        assert!(parse_allowlist("# comment\n\n").unwrap().is_empty());
    }

    #[test]
    fn keyed_hash_access_is_not_iteration() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S {\n    fn get(&self, k: u32) -> Option<&u32> { self.m.get(&k) }\n    fn put(&mut self, k: u32) { self.m.insert(k, 0); }\n}\n";
        assert!(lint_source("crates/net/src/x.rs", src).is_empty());
    }
}
