//! Mailbox protocol conformance.
//!
//! The parking-bit state machine has one source of truth:
//! [`eden_kernel::mailbox::spec::TRANSITIONS`]. The loom models drive
//! their interleavings through `spec::assert_transition` (dynamic side);
//! this pass is the static side. It extracts every transition the code
//! performs on a parking bit and round-trips the two sets:
//!
//! * every `compare_exchange(park::A, park::B, ..)` must be a blessed
//!   CAS edge `A -> B`;
//! * every `transition(bit, Op::K, &[park::A, ..], park::X)` call — the
//!   scheduler's one park-state writer, which debug-asserts the same
//!   table at run time — must name blessed `K` edges `A -> X`: the from
//!   list is the call's proof obligation (a plain store proves nothing
//!   about the prior state, so the list says which states are possible
//!   at that site);
//! * a raw `.store(park::X, ..)` / `.swap(park::X, ..)` is a finding: it
//!   bypasses that writer and its run-time check;
//! * every edge in the spec table must be witnessed by at least one code
//!   site with the matching op — a spec entry nothing implements is as
//!   wrong as a code transition the spec omits.

use std::fmt::Write as _;
use std::path::PathBuf;

use eden_core::{EdenError, Result};
use eden_kernel::mailbox::spec::{self, Op};

use crate::scan::{self, FileScan};

/// One transition the code performs on a parking bit.
#[derive(Debug)]
pub struct CodeTransition {
    /// The scanned file.
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// States the machine may be in before the edge (CAS: exactly one;
    /// `transition(..)`: the call's from list).
    pub from: Vec<u8>,
    /// State the edge moves the bit to.
    pub to: u8,
    /// CAS or store.
    pub op: Op,
}

/// The audit's outcome.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Files scanned.
    pub files: usize,
    /// Code transition sites extracted.
    pub sites: usize,
    /// Spec edges witnessed in code.
    pub witnessed: usize,
    /// Audit failures, human-readable.
    pub findings: Vec<String>,
}

impl ProtocolReport {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "protocol audit: {} file(s), {} transition site(s), {}/{} spec edges witnessed",
            self.files,
            self.sites,
            self.witnessed,
            spec::TRANSITIONS.len()
        );
        for finding in &self.findings {
            let _ = writeln!(out, "FINDING: {finding}");
        }
        if self.clean() {
            let _ = writeln!(
                out,
                "ok: code transitions and mailbox::spec::TRANSITIONS describe the same machine"
            );
        }
        out
    }
}

/// Parse the arguments of a `transition(bit, Op::K, &[park::A, ..],
/// park::X)` call from `Op::` on (the bit expression may be anything).
fn parse_transition_args(args: &str) -> Option<(Op, Vec<u8>, u8)> {
    let rest = &args[args.find("Op::")?..];
    let (op, rest) = if let Some(rest) = rest.strip_prefix("Op::Cas") {
        (Op::Cas, rest)
    } else {
        (Op::Store, rest.strip_prefix("Op::Store")?)
    };
    let rest = rest.trim_start().strip_prefix(',')?;
    let rest = rest.trim_start().strip_prefix("&[")?;
    let (list, rest) = rest.split_once(']')?;
    let mut from = Vec::new();
    for item in list.split(',').filter(|item| !item.trim().is_empty()) {
        from.push(park_arg(item)?.0);
    }
    let (to, _) = park_arg(rest.trim_start().strip_prefix(',')?)?;
    (!from.is_empty()).then_some((op, from, to))
}

/// Pull the park state out of `park::NAME` at the start of an arg list.
fn park_arg(args: &str) -> Option<(u8, &str)> {
    let rest = args.trim_start().strip_prefix("park::")?;
    let end = rest
        .find(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    Some((spec::state_by_name(&rest[..end])?, &rest[end..]))
}

/// Extract every parking-bit transition site from one pre-scanned file.
pub fn extract_sites(scan: &FileScan) -> (Vec<CodeTransition>, Vec<String>) {
    let joined = scan.joined_code();
    let bytes = joined.as_bytes();
    let mut sites = Vec::new();
    let mut errors = Vec::new();

    // CAS sites: the from-state is proven by the exchange itself.
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("compare_exchange(") {
        let at = search + rel;
        let open = at + "compare_exchange".len();
        search = open + 1;
        let Some(close) = scan::matching_paren(bytes, open) else {
            continue;
        };
        let args = &joined[open + 1..close];
        let Some((from, rest)) = park_arg(args) else {
            continue; // a CAS on something other than a parking bit
        };
        let Some((to, _)) = park_arg(rest.trim_start().strip_prefix(',').unwrap_or("")) else {
            errors.push(format!(
                "{}:{}: compare_exchange mixes park:: and non-park:: operands",
                scan.path,
                scan.line_of(&joined, at)
            ));
            continue;
        };
        sites.push(CodeTransition {
            file: scan.path.clone(),
            line: scan.line_of(&joined, at),
            from: vec![from],
            to,
            op: Op::Cas,
        });
    }

    // Calls of the scheduler's one park-state writer: the from list is
    // the claim.
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("transition(") {
        let at = search + rel;
        let open = at + "transition".len();
        search = open + 1;
        let longer_name = joined[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        if longer_name || joined[..at].trim_end().ends_with("fn") {
            continue; // `assert_transition(`, or the writer's own definition
        }
        let Some(close) = scan::matching_paren(bytes, open) else {
            continue;
        };
        let line = scan.line_of(&joined, at);
        let Some((op, from, to)) = parse_transition_args(&joined[open + 1..close]) else {
            errors.push(format!(
                "{}:{line}: transition(..) call is not `(bit, Op::K, &[park::A, ..], park::X)`",
                scan.path
            ));
            continue;
        };
        sites.push(CodeTransition {
            file: scan.path.clone(),
            line,
            from,
            to,
            op,
        });
    }

    // Raw stores and swaps of a park state bypass the writer.
    for pat in [".store(", ".swap("] {
        let mut search = 0usize;
        while let Some(rel) = joined[search..].find(pat) {
            let at = search + rel;
            let open = at + pat.len() - 1;
            search = open + 1;
            let Some(close) = scan::matching_paren(bytes, open) else {
                continue;
            };
            let Some((to, _)) = park_arg(&joined[open + 1..close]) else {
                continue; // a store to something other than a parking bit
            };
            errors.push(format!(
                "{}:{}: raw store of park::{} — write the bit through `transition(..)`",
                scan.path,
                scan.line_of(&joined, at),
                spec::state_name(to)
            ));
        }
    }
    sites.sort_by_key(|s| s.line);
    (sites, errors)
}

/// Audit `roots` (the mailbox + scheduler sources) against the spec table.
pub fn audit(roots: &[PathBuf]) -> Result<ProtocolReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        scan::collect_rs(root, &mut files)
            .map_err(|e| EdenError::Application(format!("scan {}: {e}", root.display())))?;
    }
    files.sort();

    let mut report = ProtocolReport {
        files: files.len(),
        ..ProtocolReport::default()
    };
    let mut all_sites = Vec::new();
    for file in &files {
        let scan = scan::scan_file(file)
            .map_err(|e| EdenError::Application(format!("read {}: {e}", file.display())))?;
        let (sites, errors) = extract_sites(&scan);
        report.findings.extend(errors);
        all_sites.extend(sites);
    }
    report.sites = all_sites.len();

    // Direction 1: every code edge is in the spec under the right op.
    for site in &all_sites {
        for &from in &site.from {
            if !spec::allows_op(from, site.to, site.op) {
                report.findings.push(format!(
                    "{}:{}: transition {} -> {} via {:?} is not in mailbox::spec::TRANSITIONS",
                    site.file,
                    site.line,
                    spec::state_name(from),
                    spec::state_name(site.to),
                    site.op
                ));
            }
        }
    }

    // Direction 2: every spec edge is witnessed by at least one site.
    for t in spec::TRANSITIONS {
        let hit = all_sites
            .iter()
            .any(|s| s.op == t.op && s.to == t.to && s.from.contains(&t.from));
        if hit {
            report.witnessed += 1;
        } else {
            report.findings.push(format!(
                "mailbox::spec: edge {} -> {} ({:?}, {}) is witnessed by no code site",
                spec::state_name(t.from),
                spec::state_name(t.to),
                t.op,
                t.role
            ));
        }
    }
    report.findings.sort();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_text;

    #[test]
    fn cas_site_extracts_both_states() {
        let scan = scan_text(
            "m.rs",
            "fn f(&self) {\n    self.bit.compare_exchange(\n        park::PARKED,\n        park::QUEUED,\n        Ordering::AcqRel,\n        Ordering::Acquire,\n    ).ok();\n}\n",
        );
        let (sites, errors) = extract_sites(&scan);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].op, Op::Cas);
        assert_eq!(sites[0].from, vec![eden_kernel::mailbox::park::PARKED]);
        assert_eq!(sites[0].to, eden_kernel::mailbox::park::QUEUED);
    }

    #[test]
    fn raw_store_is_an_error() {
        let scan = scan_text("m.rs", "fn f(&self) {\n    bit.store(park::DEAD, Ordering::Release);\n}\n");
        let (sites, errors) = extract_sites(&scan);
        assert!(sites.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("raw store of park::DEAD"), "{errors:?}");
    }

    #[test]
    fn transition_call_parses_op_and_multi_from() {
        let scan = scan_text(
            "m.rs",
            "fn f(&self) {\n    transition(\n        task.core.park_bit(),\n        Op::Store,\n        &[park::RUNNING, park::DIRTY],\n        park::QUEUED,\n    );\n    if transition(bit, Op::Cas, &[park::RUNNING], park::PARKED) {}\n}\n",
        );
        let (sites, errors) = extract_sites(&scan);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].op, Op::Store);
        assert_eq!(sites[0].from.len(), 2);
        assert_eq!(sites[0].to, eden_kernel::mailbox::park::QUEUED);
        assert_eq!(sites[1].op, Op::Cas);
        assert_eq!(sites[1].to, eden_kernel::mailbox::park::PARKED);
    }

    #[test]
    fn the_writers_definition_and_assert_transition_are_not_sites() {
        let scan = scan_text(
            "m.rs",
            "fn transition(bit: &AtomicU8, op: Op, from: &[u8], to: u8) -> bool {\n    spec::assert_transition(a, b);\n    true\n}\n",
        );
        let (sites, errors) = extract_sites(&scan);
        assert!(sites.is_empty(), "{sites:?}");
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn malformed_transition_call_is_an_error() {
        let scan = scan_text("m.rs", "fn f(&self) {\n    transition(bit, park::QUEUED);\n}\n");
        let (sites, errors) = extract_sites(&scan);
        assert!(sites.is_empty());
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("is not `(bit, Op::K"), "{errors:?}");
    }

    #[test]
    fn non_park_stores_are_ignored() {
        let scan = scan_text(
            "m.rs",
            "fn f(&self) {\n    self.len.store(0, Ordering::Release);\n    self.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).ok();\n}\n",
        );
        let (sites, errors) = extract_sites(&scan);
        assert!(sites.is_empty());
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn real_tree_round_trips() {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../eden-kernel/src");
        let report = audit(&[root.join("mailbox.rs"), root.join("sched.rs")]).unwrap();
        assert!(report.clean(), "{:#?}", report.findings);
        assert_eq!(report.witnessed, spec::TRANSITIONS.len());
    }
}
