//! Atomics-ordering audit.
//!
//! Every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` token in the
//! scanned tree must belong to a site the blessed catalog in
//! `docs/ATOMICS.md` describes. The catalog lives in a fenced
//! ` ```atomics ` block, one line per (file, atomic) pair:
//!
//! ```text
//! atomic eden-kernel/src/mailbox.rs park_state role=park-state-machine annotated load=Acquire cas=AcqRel/Acquire
//! atomic eden-kernel/src/sched.rs idle_count role=dekker-flag load=Relaxed|SeqCst fetch_add=SeqCst fetch_sub=SeqCst
//! ```
//!
//! * `role=` names what the atomic *is* (publish/consume pair, counter,
//!   flag, state machine) — the reviewer-facing contract.
//! * `annotated` requires at least one site of the entry to carry a
//!   `// eden-lint: ordering(role)` annotation whose role matches — the
//!   load-bearing sites advertise themselves in the source.
//! * Each `method=orderings` token lists the blessed orderings for that
//!   method: alternatives separated by `|`, CAS success/failure pairs
//!   joined by `/` (`compare_exchange=AcqRel/Acquire`). `cas` is
//!   shorthand for `compare_exchange`.
//!
//! The audit fails on: a site with no catalog entry, a method the entry
//! does not list, an ordering outside the blessed set (the "silent
//! downgrade" this pass exists for), a stale entry matching no site, a
//! missing required annotation, an annotation whose role disagrees
//! with the catalog, or a `store` of a value `load`ed from the same atomic
//! (`x.store(x.load(..) + 1, ..)`) outside the `owner-store` role: that
//! read-modify-write loses a concurrent add unless one thread owns `x`. Unknown sites print ready-to-paste catalog lines so
//! growing the tree is mechanical. As a belt-and-braces check the pass
//! also proves every `Ordering::` token in non-test code landed in
//! exactly one parsed site — zero unaudited sites, loudly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use eden_core::{EdenError, Result};

use crate::scan::{self, FileScan};

/// The five memory orderings (anything else after `Ordering::` — `Less`,
/// `Equal`, `Greater` — is `cmp::Ordering` and not ours).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// One blessed catalog entry.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// Path suffix the site's file must end with.
    pub(crate) file: String,
    /// The atomic's name at the call site (field, local, or `fence`).
    pub(crate) name: String,
    /// What the atomic is for.
    pub(crate) role: String,
    /// Whether at least one site must carry an `ordering(role)` marker.
    pub(crate) annotated: bool,
    /// Blessed orderings per method, e.g. `load` → `["Acquire","Relaxed"]`,
    /// `compare_exchange` → `["AcqRel/Acquire"]`.
    pub(crate) methods: BTreeMap<String, Vec<String>>,
}

/// Parse the ` ```atomics ` fenced block out of a markdown document.
pub fn parse_blessed(markdown: &str) -> Result<Vec<CatalogEntry>> {
    let mut entries = Vec::new();
    let mut in_block = false;
    for (i, raw) in markdown.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("```") {
            in_block = line == "```atomics";
            continue;
        }
        if !in_block || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let bad =
            |msg: &str| EdenError::BadParameter(format!("ATOMICS line {}: {msg}: `{line}`", i + 1));
        if tokens.next() != Some("atomic") {
            return Err(bad("expected `atomic <file> <name> role=... <method>=...`"));
        }
        let file = tokens.next().ok_or_else(|| bad("missing file"))?.to_owned();
        let name = tokens.next().ok_or_else(|| bad("missing name"))?.to_owned();
        let mut entry = CatalogEntry {
            file,
            name,
            role: String::new(),
            annotated: false,
            methods: BTreeMap::new(),
        };
        for token in tokens {
            if token == "annotated" {
                entry.annotated = true;
            } else if let Some(role) = token.strip_prefix("role=") {
                entry.role = role.to_owned();
            } else if let Some((method, orderings)) = token.split_once('=') {
                let method = if method == "cas" {
                    "compare_exchange"
                } else {
                    method
                };
                entry.methods.insert(
                    method.to_owned(),
                    orderings.split('|').map(str::to_owned).collect(),
                );
            } else {
                return Err(bad("unparseable token"));
            }
        }
        if entry.role.is_empty() {
            return Err(bad("missing role="));
        }
        if entry.methods.is_empty() {
            return Err(bad("no method=orderings tokens"));
        }
        entries.push(entry);
    }
    if entries.is_empty() {
        return Err(EdenError::BadParameter(
            "ATOMICS: no ```atomics block with atomic declarations found".into(),
        ));
    }
    Ok(entries)
}

/// One extracted source site: a method call consuming `Ordering` tokens.
#[derive(Debug)]
pub(crate) struct AtomicSite {
    /// The scanned file.
    pub(crate) file: String,
    /// 1-based line of the call.
    pub(crate) line: usize,
    /// Receiver name (`park_state`, `bit`, `fence`, ...).
    pub(crate) name: String,
    /// Method name (`load`, `store`, `compare_exchange`, `fence`, ...).
    pub(crate) method: String,
    /// Orderings in argument order (`["AcqRel","Acquire"]` for a CAS).
    pub(crate) orderings: Vec<String>,
    /// Role from an `ordering(role)` annotation bound to this site.
    pub(crate) annotation: Option<String>,
    /// A `store` whose value reads the same atomic: a load-store add.
    pub(crate) reloads: bool,
}

impl AtomicSite {
    /// Render the orderings as the catalog writes them.
    fn ordering_key(&self) -> String {
        self.orderings.join("/")
    }

    /// A ready-to-paste catalog line for an unknown site.
    fn suggest(&self) -> String {
        let file = workspace_suffix(&self.file);
        format!(
            "atomic {file} {} role=? {}={}",
            self.name,
            self.method,
            self.ordering_key()
        )
    }
}

/// Trim a path down to its workspace-relative `crates/...` suffix.
fn workspace_suffix(path: &str) -> String {
    match path.find("crates/") {
        Some(idx) => path[idx + "crates/".len()..].to_owned(),
        None => path.to_owned(),
    }
}

/// The audit's outcome.
#[derive(Debug, Default)]
pub struct AtomicsReport {
    /// Files scanned.
    pub files: usize,
    /// Call sites parsed (a CAS with two orderings is one site).
    pub sites: usize,
    /// `Ordering::` tokens audited (equals the token count in non-test
    /// code when the parse is complete).
    pub tokens: usize,
    /// Audit failures, human-readable.
    pub findings: Vec<String>,
    /// Ready-to-paste catalog lines for unknown sites.
    pub suggestions: Vec<String>,
}

impl AtomicsReport {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "atomics audit: {} file(s), {} site(s), {} Ordering token(s)",
            self.files, self.sites, self.tokens
        );
        for finding in &self.findings {
            let _ = writeln!(out, "FINDING: {finding}");
        }
        if !self.suggestions.is_empty() {
            let _ = writeln!(out, "  suggested catalog lines (fill in role=):");
            for s in &self.suggestions {
                let _ = writeln!(out, "    {s}");
            }
        }
        if self.clean() {
            let _ = writeln!(out, "ok: every Ordering site matches docs/ATOMICS.md");
        }
        out
    }
}

/// Extract every atomic call site from one pre-scanned file.
pub(crate) fn extract_sites(scan: &FileScan) -> (Vec<AtomicSite>, usize, Vec<String>) {
    let joined = scan.joined_code();
    let bytes = joined.as_bytes();
    let mut tokens = 0usize;
    // Opener byte offset -> orderings + method/name, in argument order.
    let mut calls: BTreeMap<usize, AtomicSite> = BTreeMap::new();
    let mut errors = Vec::new();

    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("Ordering::") {
        let at = search + rel;
        search = at + "Ordering::".len();
        let rest = &joined[search..];
        let Some(ord) = ORDERINGS.iter().find(|o| {
            rest.starts_with(**o)
                && !rest[o.len()..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
        }) else {
            continue; // cmp::Ordering or a path fragment; not ours
        };
        tokens += 1;
        // Innermost unmatched `(` walking backward from the token.
        let mut depth = 0usize;
        let mut open = None;
        let mut i = at;
        while i > 0 {
            i -= 1;
            match bytes[i] {
                b')' => depth += 1,
                b'(' => {
                    if depth == 0 {
                        open = Some(i);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        let line = scan.line_of(&joined, at);
        let Some(open) = open else {
            errors.push(format!(
                "{}:{line}: Ordering::{ord} outside any call — unparseable site",
                scan.path
            ));
            continue;
        };
        if let Some(site) = calls.get_mut(&open) {
            site.orderings.push((*ord).to_owned());
            continue;
        }
        let Some((method, name)) = scan::call_chain(bytes, open) else {
            errors.push(format!(
                "{}:{line}: cannot resolve the call taking Ordering::{ord}",
                scan.path
            ));
            continue;
        };
        let reloads = method == "store" && stores_own_load(&joined, open, &name);
        calls.insert(
            open,
            AtomicSite {
                file: scan.path.clone(),
                line: scan.line_of(&joined, open),
                name,
                method,
                orderings: vec![(*ord).to_owned()],
                annotation: None,
                reloads,
            },
        );
    }

    let mut sites: Vec<AtomicSite> = calls.into_values().collect();
    // Bind `ordering(role)` annotations to the next site within 10 lines.
    for ann in scan.annotations_of("ordering") {
        let target = sites
            .iter_mut()
            .filter(|s| s.line >= ann.line && s.line <= ann.line + 10)
            .min_by_key(|s| s.line);
        match target {
            Some(site) => site.annotation = Some(ann.body.clone()),
            None => errors.push(format!(
                "{}:{}: ordering({}) annotation binds to no atomic site",
                scan.path, ann.line, ann.body
            )),
        }
    }
    (sites, tokens, errors)
}

/// Whether the arguments of the call opened at `open` load `name`.
fn stores_own_load(code: &str, open: usize, name: &str) -> bool {
    let mut depth = 0usize;
    let close = code[open..].char_indices().find(|&(_, c)| {
        depth = match c {
            '(' => depth + 1,
            ')' => depth - 1,
            _ => depth,
        };
        depth == 0
    });
    close.is_some_and(|(end, _)| code[open..open + end].contains(&format!("{name}.load(")))
}

/// Walk `roots`, extract every atomic site, and evaluate the catalog.
pub fn audit(catalog: &[CatalogEntry], roots: &[PathBuf]) -> Result<AtomicsReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        scan::collect_rs(root, &mut files)
            .map_err(|e| EdenError::Application(format!("scan {}: {e}", root.display())))?;
    }
    files.sort();

    let mut report = AtomicsReport {
        files: files.len(),
        ..AtomicsReport::default()
    };
    let mut used = vec![false; catalog.len()];
    let mut annotated_ok = vec![false; catalog.len()];

    for file in &files {
        let scan = scan::scan_file(file)
            .map_err(|e| EdenError::Application(format!("read {}: {e}", file.display())))?;
        let (sites, tokens, errors) = extract_sites(&scan);
        report.tokens += tokens;
        report.findings.extend(errors);
        let mut audited = 0usize;
        for site in &sites {
            report.sites += 1;
            audited += site.orderings.len();
            let entry = catalog.iter().position(|e| {
                site.name == e.name
                    && (workspace_suffix(&site.file).ends_with(&e.file)
                        || site.file.ends_with(&e.file))
            });
            let Some(idx) = entry else {
                report.findings.push(format!(
                    "{}:{}: unknown atomic site `{}.{}({})` — not in docs/ATOMICS.md",
                    site.file,
                    site.line,
                    site.name,
                    site.method,
                    site.ordering_key()
                ));
                report.suggestions.push(site.suggest());
                continue;
            };
            used[idx] = true;
            let entry = &catalog[idx];
            match entry.methods.get(&site.method) {
                None => report.findings.push(format!(
                    "{}:{}: `{}` has no blessed `{}` method in docs/ATOMICS.md",
                    site.file, site.line, site.name, site.method
                )),
                Some(allowed) if !allowed.iter().any(|a| *a == site.ordering_key()) => {
                    report.findings.push(format!(
                        "{}:{}: `{}.{}` uses {} but docs/ATOMICS.md blesses {} — downgraded or changed ordering",
                        site.file,
                        site.line,
                        site.name,
                        site.method,
                        site.ordering_key(),
                        allowed.join("|")
                    ));
                }
                Some(_) => {}
            }
            if site.reloads && entry.role != "owner-store" {
                report.findings.push(format!(
                    "{}:{}: `{}.store` writes back its own load, which loses a concurrent add: only an atomic one thread owns (role=owner-store) may",
                    site.file, site.line, site.name
                ));
            }
            if let Some(role) = &site.annotation {
                if *role != entry.role {
                    report.findings.push(format!(
                        "{}:{}: ordering({role}) disagrees with catalog role `{}` for `{}`",
                        site.file, site.line, entry.role, site.name
                    ));
                } else {
                    annotated_ok[idx] = true;
                }
            }
        }
        if audited != tokens {
            report.findings.push(format!(
                "{}: {} Ordering token(s) but only {} audited — unparsed sites remain",
                scan.path, tokens, audited
            ));
        }
    }

    for (idx, entry) in catalog.iter().enumerate() {
        if !used[idx] {
            report.findings.push(format!(
                "docs/ATOMICS.md: stale entry `{} {}` matches no site",
                entry.file, entry.name
            ));
        } else if entry.annotated && !annotated_ok[idx] {
            report.findings.push(format!(
                "docs/ATOMICS.md: `{} {}` requires an `// eden-lint: ordering({})` annotation at a load-bearing site, none found",
                entry.file, entry.name, entry.role
            ));
        }
    }
    report.findings.sort();
    report.suggestions.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(text: &str) -> Vec<CatalogEntry> {
        parse_blessed(&format!("```atomics\n{text}```\n")).unwrap()
    }

    fn run(cat: &[CatalogEntry], source: &str) -> AtomicsReport {
        let dir = std::env::temp_dir().join(format!(
            "eden-lint-atomics-{}-{:p}",
            std::process::id(),
            &cat
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mem.rs");
        std::fs::write(&path, source).unwrap();
        let report = audit(cat, &[path]).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        report
    }

    #[test]
    fn blessed_site_is_clean() {
        let cat = catalog("atomic mem.rs flag role=flag load=Acquire store=Release\n");
        let report = run(
            &cat,
            "fn f(&self) {\n    self.flag.store(true, Ordering::Release);\n    self.flag.load(Ordering::Acquire);\n}\n",
        );
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.sites, 2);
        assert_eq!(report.tokens, 2);
    }

    #[test]
    fn downgraded_ordering_is_a_finding() {
        let cat = catalog("atomic mem.rs flag role=flag load=Acquire\n");
        let report = run(
            &cat,
            "fn f(&self) {\n    self.flag.load(Ordering::Relaxed);\n}\n",
        );
        assert_eq!(report.findings.len(), 1);
        assert!(
            report.findings[0].contains("downgraded"),
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn unknown_site_suggests_a_catalog_line() {
        let cat = catalog("atomic mem.rs other role=flag load=Acquire\n");
        let report = run(
            &cat,
            "fn f(&self) {\n    self.other.load(Ordering::Acquire);\n    self.novel.swap(1, Ordering::AcqRel);\n}\n",
        );
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].contains("unknown atomic site"));
        assert_eq!(report.suggestions.len(), 1);
        assert!(
            report.suggestions[0].contains("novel"),
            "{:?}",
            report.suggestions
        );
        assert!(report.suggestions[0].contains("swap=AcqRel"));
    }

    #[test]
    fn cas_orderings_pair_up() {
        let cat = catalog("atomic mem.rs state role=machine cas=AcqRel/Acquire\n");
        let report = run(
            &cat,
            "fn f(&self) {\n    self.state.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire).ok();\n}\n",
        );
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.sites, 1);
        assert_eq!(report.tokens, 2);
    }

    #[test]
    fn stale_entry_and_missing_annotation_fail() {
        let cat = catalog(
            "atomic mem.rs flag role=flag annotated load=Acquire\natomic mem.rs ghost role=flag load=Acquire\n",
        );
        let report = run(
            &cat,
            "fn f(&self) {\n    self.flag.load(Ordering::Acquire);\n}\n",
        );
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert!(report.findings.iter().any(|f| f.contains("stale")));
        assert!(report.findings.iter().any(|f| f.contains("annotation")));
    }

    #[test]
    fn annotation_role_must_match() {
        let cat = catalog("atomic mem.rs flag role=flag annotated load=Acquire\n");
        let clean = run(
            &cat,
            "fn f(&self) {\n    // eden-lint: ordering(flag)\n    self.flag.load(Ordering::Acquire);\n}\n",
        );
        assert!(clean.clean(), "{:?}", clean.findings);
        let wrong = run(
            &cat,
            "fn f(&self) {\n    // eden-lint: ordering(counter)\n    self.flag.load(Ordering::Acquire);\n}\n",
        );
        assert!(!wrong.clean());
    }

    #[test]
    fn test_code_and_cmp_ordering_are_ignored() {
        let cat = catalog("atomic mem.rs flag role=flag load=Acquire\n");
        let report = run(
            &cat,
            "fn f(&self) {\n    self.flag.load(Ordering::Acquire);\n    x.cmp(&y) == Ordering::Less;\n}\n#[cfg(test)]\nmod tests {\n    fn t() { FLAG.load(Ordering::Relaxed); }\n}\n",
        );
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.tokens, 1);
    }

    #[test]
    fn a_store_of_its_own_load_is_blessed_only_for_an_owner() {
        let source = "fn f(&self) {\n    self.n.store(self.n.load(Ordering::Relaxed) + 1, Ordering::Relaxed);\n    self.n.store(0, Ordering::Relaxed);\n}\n";
        let counter = catalog("atomic mem.rs n role=stat-counter load=Relaxed store=Relaxed\n");
        let report = run(&counter, source);
        assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
        assert!(report.findings[0].contains("writes back its own load"));
        let owner = catalog("atomic mem.rs n role=owner-store load=Relaxed store=Relaxed\n");
        assert!(run(&owner, source).clean());
    }

    #[test]
    fn fence_sites_parse() {
        let cat = catalog("atomic mem.rs fence role=dekker fence=SeqCst\n");
        let report = run(&cat, "fn f() {\n    fence(Ordering::SeqCst);\n}\n");
        assert!(report.clean(), "{:?}", report.findings);
    }
}
