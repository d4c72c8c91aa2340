//! Source-level lock-order audit.
//!
//! A deliberately *syntactic* pass: it never builds or runs the code. The
//! blessed lock classes and their partial order live in a fenced
//! ` ```lock-order ` block in `docs/LOCK_ORDER.md`:
//!
//! ```text
//! class registry-shard .slots.read() .slots.write()
//! class stable-store   .stable.load( .stable.store(
//! order registry-shard < stable-store
//! ```
//!
//! A **class** names one lock level and the textual patterns that acquire
//! it (call-site substrings, matched against whitespace-collapsed
//! statements, so multi-line builder chains still match). The scanner
//! walks every `.rs` file under the configured roots, tracks which
//! classes are plausibly held at each acquisition site, and records a
//! directed edge `A → B` whenever `B` is acquired with `A` held. Held
//! state comes from two sources:
//!
//! * a `let` binding whose initializer matches a *guard-returning*
//!   pattern (one ending in `()`, like `.slots.write()`) holds that class
//!   until its block closes or the guard is `drop`ped — patterns with
//!   open arguments (`.stable.load(`) are methods that release their
//!   internal lock before returning and count only for their statement;
//! * an `if let` / `while let` pattern binding or a `match` scrutinee
//!   whose initializer matches a guard-returning pattern holds the class
//!   for the block it opens (the if/loop body, or every arm of the
//!   match) — the scrutinee temporary keeps the guard alive there;
//! * a `// eden-lint: holds(class)` annotation directly above a `fn`
//!   declares that the whole function runs with that class held (for
//!   callees like `Kernel::reactivate` that receive a guard from their
//!   caller).
//!
//! The audit then fails on (a) any cycle in the acquisition graph and
//! (b) any observed edge not derivable from the blessed partial order —
//! so *every* nesting must be documented, and the documentation must stay
//! acyclic. Everything else is reported, ranked by how many sites induce
//! the edge.
//!
//! Known limits (accepted for a lint that must not depend on rustc):
//! braces inside string literals are skipped per line but multi-line
//! string literals are not tracked, and a guard stored into a struct
//! outlives what the scanner assumes. The classes are chosen so both
//! cases stay far from the patterns.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use eden_core::{EdenError, Result};

use crate::scan::{collapse_ws, collect_rs, strip_noise};

/// One lock level: a name plus the call-site substrings that acquire it.
#[derive(Debug, Clone)]
pub(crate) struct LockClass {
    /// The level's name, as used in `order` lines and annotations.
    pub(crate) name: String,
    /// Substrings (whitespace-collapsed) that mark an acquisition.
    pub(crate) patterns: Vec<String>,
}

/// The blessed specification: classes plus a partial order.
#[derive(Debug, Clone, Default)]
pub struct LockSpec {
    /// Declared lock levels.
    pub(crate) classes: Vec<LockClass>,
    /// Blessed `a < b` pairs (a may be held while acquiring b).
    pub(crate) order: Vec<(String, String)>,
}

impl LockSpec {
    fn class_of(&self, name: &str) -> bool {
        self.classes.iter().any(|c| c.name == name)
    }

    /// Transitive closure of the blessed order.
    fn reachable(&self) -> BTreeSet<(String, String)> {
        let mut closure: BTreeSet<(String, String)> = self.order.iter().cloned().collect();
        loop {
            let mut grew = false;
            let snapshot: Vec<(String, String)> = closure.iter().cloned().collect();
            for (a, b) in &snapshot {
                for (c, d) in &snapshot {
                    if b == c && !closure.contains(&(a.clone(), d.clone())) {
                        closure.insert((a.clone(), d.clone()));
                        grew = true;
                    }
                }
            }
            if !grew {
                return closure;
            }
        }
    }
}

/// Parse the ` ```lock-order ` fenced block out of a markdown document.
pub fn parse_blessed(markdown: &str) -> Result<LockSpec> {
    let mut spec = LockSpec::default();
    let mut in_block = false;
    for (i, raw) in markdown.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("```") {
            in_block = line == "```lock-order";
            continue;
        }
        if !in_block || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["class", name, patterns @ ..] if !patterns.is_empty() => {
                spec.classes.push(LockClass {
                    name: (*name).to_owned(),
                    patterns: patterns.iter().map(|p| (*p).to_owned()).collect(),
                });
            }
            ["order", a, "<", b] => {
                spec.order.push(((*a).to_owned(), (*b).to_owned()));
            }
            _ => {
                return Err(EdenError::BadParameter(format!(
                    "LOCK_ORDER line {}: unparseable `{line}`",
                    i + 1
                )))
            }
        }
    }
    for (a, b) in &spec.order {
        for side in [a, b] {
            if !spec.class_of(side) {
                return Err(EdenError::BadParameter(format!(
                    "LOCK_ORDER: `order` names undeclared class `{side}`"
                )));
            }
        }
    }
    if spec.classes.is_empty() {
        return Err(EdenError::BadParameter(
            "LOCK_ORDER: no ```lock-order block with class declarations found".into(),
        ));
    }
    Ok(spec)
}

/// One observed nesting: `from` held while `to` was acquired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// The class already held.
    pub from: String,
    /// The class acquired under it.
    pub to: String,
    /// `file:line` sites inducing the edge.
    pub sites: Vec<String>,
}

/// The audit's outcome.
#[derive(Debug, Default)]
pub struct LockReport {
    /// Observed edges, ranked by site count (descending).
    pub edges: Vec<LockEdge>,
    /// Classes involved in acquisition cycles (each set is one cycle's
    /// members; a single-element set is a self-nesting).
    pub cycles: Vec<Vec<String>>,
    /// Observed edges the blessed order does not derive.
    pub deviations: Vec<String>,
    /// Files scanned.
    pub files: usize,
    /// Acquisition sites seen.
    pub sites: usize,
}

impl LockReport {
    /// Whether the audit passed.
    pub(crate) fn clean(&self) -> bool {
        self.cycles.is_empty() && self.deviations.is_empty()
    }

    /// Render the ranked human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lock-order audit: {} file(s), {} acquisition site(s), {} distinct edge(s)",
            self.files,
            self.sites,
            self.edges.len()
        );
        if self.edges.is_empty() {
            let _ = writeln!(out, "  (no nested acquisitions observed)");
        }
        for edge in &self.edges {
            let _ = writeln!(
                out,
                "  {} -> {}  [{} site(s)]",
                edge.from,
                edge.to,
                edge.sites.len()
            );
            for site in &edge.sites {
                let _ = writeln!(out, "      {site}");
            }
        }
        for cycle in &self.cycles {
            let _ = writeln!(out, "CYCLE: {}", cycle.join(" -> "));
        }
        for deviation in &self.deviations {
            let _ = writeln!(out, "DEVIATION: {deviation}");
        }
        if self.clean() {
            let _ = writeln!(out, "ok: acquisition graph is acyclic and blessed");
        }
        out
    }
}

/// A guard (or annotation) currently counted as held.
#[derive(Debug)]
struct Held {
    class: String,
    /// Guard variable name; `None` for `holds(...)` annotations.
    ident: Option<String>,
    /// Brace depth at acquisition; released when depth drops below it.
    depth: usize,
    /// Whether `depth` has been reached yet. An annotation on a multi-line
    /// `fn` signature points at a body that has not opened; it must not be
    /// released before the body's brace arrives.
    armed: bool,
}

/// How a statement binds a value whose lifetime we must track.
#[derive(Debug, PartialEq, Eq)]
enum Binding {
    /// `let g = ...;` — held in the current block, droppable by name.
    Let(String),
    /// `if let P = ... {`, `while let P = ... {`, or `match ... {` — the
    /// scrutinee temporary holds the guard for the block being opened.
    Scoped,
}

/// Classify a whitespace-collapsed statement's binding form.
fn binding_of(stmt: &str) -> Option<Binding> {
    // `} else if let ...` closes one block before opening the next; the
    // binding logic only cares about what opens.
    let s = stmt.trim_start().trim_start_matches('}').trim_start();
    let s = s.strip_prefix("else ").unwrap_or(s).trim_start();
    if s.starts_with("if let ") || s.starts_with("while let ") {
        return stmt.trim_end().ends_with('{').then_some(Binding::Scoped);
    }
    if s.starts_with("match ") {
        return stmt.trim_end().ends_with('{').then_some(Binding::Scoped);
    }
    let rest = s.strip_prefix("let ")?;
    let rest = rest
        .trim_start()
        .strip_prefix("mut ")
        .unwrap_or(rest.trim_start());
    let ident: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!ident.is_empty()).then_some(Binding::Let(ident))
}

/// Scan one file's text, appending observed edges and counting sites.
fn scan_text(
    spec: &LockSpec,
    file: &str,
    text: &str,
    edges: &mut BTreeMap<(String, String), Vec<String>>,
    sites: &mut usize,
) {
    let mut depth: usize = 0;
    let mut held: Vec<Held> = Vec::new();
    let mut pending_holds: Vec<String> = Vec::new();
    let mut stmt = String::new();
    let mut stmt_line = 0usize;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        // Annotations live in comments, so read them before stripping.
        if let Some(idx) = raw.find("eden-lint: holds(") {
            let rest = &raw[idx + "eden-lint: holds(".len()..];
            if let Some(end) = rest.find(')') {
                for name in rest[..end].split(',') {
                    pending_holds.push(name.trim().to_owned());
                }
            }
        }
        let code = strip_noise(raw);
        if code.trim().is_empty() {
            continue;
        }

        // A `fn` header: attach pending annotations at the body's depth.
        if (code.trim_start().starts_with("fn ") || code.contains(" fn ")) && code.contains('(') {
            for class in pending_holds.drain(..) {
                held.push(Held {
                    class,
                    ident: None,
                    depth: depth + 1,
                    armed: false,
                });
            }
        }

        if stmt.is_empty() {
            stmt_line = lineno;
        }
        stmt.push(' ');
        stmt.push_str(&code);

        let opens = code.matches('{').count();
        let closes = code.matches('}').count();
        let trimmed = code.trim_end();
        let terminated = trimmed.ends_with(';')
            || trimmed.ends_with('{')
            || trimmed.ends_with('}')
            || trimmed.ends_with(',');
        if terminated {
            let flat = collapse_ws(&stmt);
            // Statement-local holds: classes matched earlier in this same
            // statement order before later matches.
            let mut matches: Vec<(usize, String)> = Vec::new();
            for class in &spec.classes {
                for pattern in &class.patterns {
                    let mut start = 0;
                    while let Some(pos) = flat[start..].find(pattern.as_str()) {
                        matches.push((start + pos, class.name.clone()));
                        start += pos + pattern.len();
                    }
                }
            }
            matches.sort();
            matches.dedup();
            if !matches.is_empty() {
                let site = format!("{file}:{stmt_line}");
                let binding = binding_of(&flat);
                let mut stmt_held: Vec<String> = Vec::new();
                for (_, class) in &matches {
                    *sites += 1;
                    for h in held.iter().map(|h| &h.class).chain(stmt_held.iter()) {
                        edges
                            .entry((h.clone(), class.clone()))
                            .or_default()
                            .push(site.clone());
                    }
                    stmt_held.push(class.clone());
                }
                // A guard bound by `let` stays held until its block ends
                // (or `drop(ident)`); an `if let`/`while let` binding or
                // a `match` scrutinee holds for the block the statement
                // opens (the scrutinee temporary lives that long).
                // Everything else was a temporary. Only guard-returning
                // patterns (ending in `()`) bind: a call-site pattern
                // with open arguments — `.stable.load(` — names a method
                // that releases its internal lock before returning, so
                // its result is not a guard.
                if let Some(binding) = binding {
                    let (pos, class) = matches.last().expect("non-empty");
                    let returns_guard = spec
                        .classes
                        .iter()
                        .filter(|c| c.name == *class)
                        .flat_map(|c| &c.patterns)
                        .any(|p| p.ends_with("()") && flat[*pos..].starts_with(p.as_str()));
                    if returns_guard {
                        match binding {
                            Binding::Let(ident) => held.push(Held {
                                class: class.clone(),
                                ident: Some(ident),
                                depth,
                                armed: true,
                            }),
                            Binding::Scoped => held.push(Held {
                                class: class.clone(),
                                ident: None,
                                // Held inside the block this statement
                                // opens: net depth after this line's own
                                // braces land.
                                depth: (depth + opens).saturating_sub(closes),
                                armed: false,
                            }),
                        }
                    }
                }
            }
            // Explicit early release.
            if let Some(idx) = flat.find("drop(") {
                let dropped: String = flat[idx + "drop(".len()..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                held.retain(|h| h.ident.as_deref() != Some(dropped.as_str()));
            }
            stmt.clear();
        }

        depth += opens;
        depth = depth.saturating_sub(closes);
        for h in &mut held {
            if depth >= h.depth {
                h.armed = true;
            }
        }
        held.retain(|h| !(h.armed && depth < h.depth));
    }
}

/// Walk `roots`, scan every `.rs` file, and evaluate the blessed order.
pub fn audit(spec: &LockSpec, roots: &[PathBuf]) -> Result<LockReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        collect_rs(root, &mut files)
            .map_err(|e| EdenError::Application(format!("scan {}: {e}", root.display())))?;
    }
    files.sort();

    let mut edges: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    let mut sites = 0usize;
    for file in &files {
        let text = std::fs::read_to_string(file)
            .map_err(|e| EdenError::Application(format!("read {}: {e}", file.display())))?;
        scan_text(
            spec,
            &file.display().to_string(),
            &text,
            &mut edges,
            &mut sites,
        );
    }

    let mut report = LockReport {
        files: files.len(),
        sites,
        ..LockReport::default()
    };
    report.edges = edges
        .into_iter()
        .map(|((from, to), sites)| LockEdge { from, to, sites })
        .collect();
    report.edges.sort_by(|a, b| {
        b.sites
            .len()
            .cmp(&a.sites.len())
            .then_with(|| (&a.from, &a.to).cmp(&(&b.from, &b.to)))
    });

    report.cycles = find_cycles(&report.edges);
    let blessed = spec.reachable();
    for edge in &report.edges {
        if edge.from == edge.to {
            continue; // already reported as a cycle
        }
        if !blessed.contains(&(edge.from.clone(), edge.to.clone())) {
            let contradicts = blessed.contains(&(edge.to.clone(), edge.from.clone()));
            report.deviations.push(format!(
                "{} held while acquiring {} ({} site(s), first at {}) {}",
                edge.from,
                edge.to,
                edge.sites.len(),
                edge.sites.first().map(String::as_str).unwrap_or("?"),
                if contradicts {
                    "— contradicts the blessed order"
                } else {
                    "— not blessed in docs/LOCK_ORDER.md"
                }
            ));
        }
    }
    Ok(report)
}

/// Every elementary cycle's member set (via DFS over the distinct edges);
/// self-loops count.
fn find_cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut adjacency: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adjacency.entry(&e.from).or_default().insert(&e.to);
    }
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let nodes: Vec<&str> = adjacency.keys().copied().collect();
    for &start in &nodes {
        // DFS from each node; a path returning to `start` is a cycle.
        // Deduplicated by the sorted member set.
        let mut stack: Vec<(Vec<&str>, &str)> = vec![(vec![start], start)];
        while let Some((path, node)) = stack.pop() {
            if let Some(nexts) = adjacency.get(node) {
                for &next in nexts {
                    if next == start {
                        let mut members: Vec<String> =
                            path.iter().map(|s| (*s).to_owned()).collect();
                        members.push(start.to_owned());
                        let mut key = members.clone();
                        key.sort();
                        key.dedup();
                        if !cycles.iter().any(|c| {
                            let mut k = c.clone();
                            k.sort();
                            k.dedup();
                            k == key
                        }) {
                            cycles.push(members);
                        }
                    } else if !path.contains(&next) {
                        let mut p = path.clone();
                        p.push(next);
                        stack.push((p, next));
                    }
                }
            }
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_class_spec() -> LockSpec {
        parse_blessed(
            "```lock-order\n\
             class alpha .alpha.lock()\n\
             class beta .beta.lock()\n\
             order alpha < beta\n\
             ```\n",
        )
        .unwrap()
    }

    fn run(spec: &LockSpec, source: &str) -> LockReport {
        let mut edges = BTreeMap::new();
        let mut sites = 0;
        scan_text(spec, "mem.rs", source, &mut edges, &mut sites);
        let mut report = LockReport {
            files: 1,
            sites,
            ..LockReport::default()
        };
        report.edges = edges
            .into_iter()
            .map(|((from, to), sites)| LockEdge { from, to, sites })
            .collect();
        report.cycles = find_cycles(&report.edges);
        let blessed = spec.reachable();
        for edge in &report.edges {
            if edge.from != edge.to && !blessed.contains(&(edge.from.clone(), edge.to.clone())) {
                report
                    .deviations
                    .push(format!("{} -> {}", edge.from, edge.to));
            }
        }
        report
    }

    #[test]
    fn nested_let_guards_make_an_edge() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\n",
        );
        assert_eq!(report.edges.len(), 1);
        assert_eq!(report.edges[0].from, "alpha");
        assert_eq!(report.edges[0].to, "beta");
        assert!(report.clean());
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    {\n        let a = self.alpha.lock();\n    }\n    let b = self.beta.lock();\n}\n",
        );
        assert!(report.edges.is_empty(), "{:?}", report.edges);
    }

    #[test]
    fn drop_releases_the_guard() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\n",
        );
        assert!(report.edges.is_empty(), "{:?}", report.edges);
    }

    #[test]
    fn holds_annotation_applies_to_next_fn() {
        let report = run(
            &two_class_spec(),
            "// eden-lint: holds(alpha)\nfn callee(&self) {\n    let b = self.beta.lock();\n}\n\nfn other(&self) {\n    let b = self.beta.lock();\n}\n",
        );
        assert_eq!(report.edges.len(), 1, "{:?}", report.edges);
        assert_eq!(report.sites, 2);
    }

    #[test]
    fn inverted_order_is_a_deviation_and_a_cycle_when_both_exist() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        assert_eq!(report.cycles.len(), 1);
        assert_eq!(report.deviations.len(), 1);
        assert!(!report.clean());
    }

    #[test]
    fn multiline_chains_and_comments_are_handled() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    self.inner // comment with \"{ brace\n        .alpha\n        .lock()\n        .push(1);\n    let b = self.beta.lock();\n}\n",
        );
        // The alpha acquisition was a temporary: no edge.
        assert!(report.edges.is_empty(), "{:?}", report.edges);
        assert_eq!(report.sites, 2);
    }

    #[test]
    fn if_let_guard_is_held_for_its_block() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    if let Some(a) = self.alpha.lock() {\n        let b = self.beta.lock();\n    }\n    let b = self.beta.lock();\n}\n",
        );
        // One edge from inside the if-block only.
        assert_eq!(report.edges.len(), 1, "{:?}", report.edges);
        assert_eq!(report.edges[0].sites.len(), 1);
        assert!(report.clean());
    }

    #[test]
    fn while_let_guard_is_held_for_its_block() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    while let Some(a) = self.alpha.lock() {\n        let b = self.beta.lock();\n    }\n}\nfn g(&self) {\n    let b = self.beta.lock();\n    let a = self.alpha.lock();\n}\n",
        );
        // The while-let edge alpha->beta plus g's inverted beta->alpha:
        // the guard tracking must see both, making a cycle.
        assert_eq!(report.edges.len(), 2, "{:?}", report.edges);
        assert_eq!(report.cycles.len(), 1);
    }

    #[test]
    fn match_scrutinee_guard_covers_every_arm() {
        let report = run(
            &two_class_spec(),
            "fn f(&self) {\n    match self.alpha.lock() {\n        Some(_) => {\n            let b = self.beta.lock();\n        }\n        None => {}\n    }\n    let b = self.beta.lock();\n}\n",
        );
        assert_eq!(report.edges.len(), 1, "{:?}", report.edges);
        assert_eq!(report.edges[0].from, "alpha");
        assert_eq!(report.edges[0].sites.len(), 1);
    }

    #[test]
    fn else_if_let_guard_scopes_to_its_own_block() {
        let report = run(
            &two_class_spec(),
            "fn f(&self, c: bool) {\n    if c {\n        let x = 1;\n    } else if let Some(a) = self.alpha.lock() {\n        let b = self.beta.lock();\n    }\n    let b = self.beta.lock();\n}\n",
        );
        assert_eq!(report.edges.len(), 1, "{:?}", report.edges);
        assert_eq!(report.edges[0].sites.len(), 1);
    }

    #[test]
    fn blessed_block_rejects_unknown_classes_and_noise() {
        assert!(parse_blessed("```lock-order\norder a < b\n```\n").is_err());
        assert!(parse_blessed("```lock-order\nwhatever\n```\n").is_err());
        assert!(parse_blessed("no block at all\n").is_err());
    }

    #[test]
    fn transitive_blessing_covers_indirect_edges() {
        let spec = parse_blessed(
            "```lock-order\n\
             class a .a.lock()\n\
             class b .b.lock()\n\
             class c .c.lock()\n\
             order a < b\n\
             order b < c\n\
             ```\n",
        )
        .unwrap();
        assert!(spec.reachable().contains(&("a".into(), "c".into())));
    }
}
