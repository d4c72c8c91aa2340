//! Blocking-site audit.
//!
//! A pool worker that parks inside a rendezvous call — a condvar wait, a
//! channel `recv`, a `join`, a sleep, an fsync — silently shrinks the
//! worker set and starves every runnable stream behind it. The scheduler
//! exposes `eden_kernel::blocking(..)` exactly so those sites can
//! compensate the pool; this pass makes the wrap non-optional.
//!
//! Every rendezvous call in the scanned tree must either
//!
//! * execute inside a `blocking(..)` closure (the call site sits within
//!   the parenthesized region of a `blocking(` call), or
//! * carry a `// eden-lint: nonblocking(reason)` annotation within three
//!   lines above it, stating why the site can never run on a pool worker
//!   (dedicated thread, teardown path, cold start, threads-mode only).
//!
//! Plain `Mutex::lock` acquisitions are *not* findings: the lock-order
//! plane already governs them (bounded critical sections under a proven
//! acyclic order), so this pass only counts them for the report.

use std::fmt::Write as _;
use std::path::PathBuf;

use eden_core::{EdenError, Result};

use crate::scan::{self, FileScan};

/// Substrings that mark a rendezvous call — the callee can sleep until
/// another thread acts.
const RENDEZVOUS: [(&str, &str); 9] = [
    (".wait(&mut", "condvar wait"),
    (".wait_for(&mut", "condvar wait_for"),
    (".wait_while(&mut", "condvar wait_while"),
    (".recv()", "channel recv"),
    (".recv_timeout(", "channel recv_timeout"),
    (".join()", "thread join"),
    ("thread::sleep", "sleep"),
    ("thread::park", "thread park"),
    (".sync(", "fsync"),
];

/// One rendezvous call site and how it is excused.
#[derive(Debug)]
pub struct BlockingSite {
    /// The scanned file.
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// What kind of rendezvous (`condvar wait`, `channel recv`, ...).
    pub kind: &'static str,
    /// Inside a `blocking(..)` region.
    pub wrapped: bool,
    /// `nonblocking(reason)` annotation bound to this site, if any.
    pub excuse: Option<String>,
}

/// The audit's outcome.
#[derive(Debug, Default)]
pub struct BlockingReport {
    /// Files scanned.
    pub files: usize,
    /// Rendezvous sites found.
    pub sites: usize,
    /// Sites wrapped in `blocking(..)`.
    pub wrapped: usize,
    /// Sites excused by a `nonblocking(..)` annotation.
    pub excused: usize,
    /// `Mutex/RwLock` acquisitions counted informationally (the
    /// lock-order plane governs these, not this pass).
    pub governed_locks: usize,
    /// Audit failures, human-readable.
    pub findings: Vec<String>,
}

impl BlockingReport {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "blocking audit: {} file(s), {} rendezvous site(s) ({} wrapped, {} annotated), {} lock-order-governed lock site(s)",
            self.files, self.sites, self.wrapped, self.excused, self.governed_locks
        );
        for finding in &self.findings {
            let _ = writeln!(out, "FINDING: {finding}");
        }
        if self.clean() {
            let _ = writeln!(
                out,
                "ok: every rendezvous call is blocking(..)-wrapped or nonblocking-annotated"
            );
        }
        out
    }
}

/// Byte ranges of `blocking(..)` regions in the joined code.
fn blocking_regions(joined: &str) -> Vec<(usize, usize)> {
    let bytes = joined.as_bytes();
    let mut regions = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("blocking(") {
        let at = search + rel;
        search = at + "blocking(".len();
        // Word boundary: `nonblocking(` contains `blocking(`.
        if at > 0 {
            let prev = bytes[at - 1];
            if prev.is_ascii_alphanumeric() || prev == b'_' {
                continue;
            }
        }
        let open = at + "blocking".len();
        if let Some(close) = scan::matching_paren(bytes, open) {
            regions.push((open, close));
        }
    }
    regions
}

/// Extract every rendezvous site from one pre-scanned file.
pub fn extract_sites(scan: &FileScan) -> (Vec<BlockingSite>, usize) {
    let joined = scan.joined_code();
    let regions = blocking_regions(&joined);
    let mut sites = Vec::new();
    let mut governed = 0usize;

    let mut search = 0usize;
    while let Some(rel) = joined[search..].find(".lock()") {
        search += rel + ".lock()".len();
        governed += 1;
    }

    for (pat, kind) in RENDEZVOUS {
        let mut search = 0usize;
        while let Some(rel) = joined[search..].find(pat) {
            let at = search + rel;
            search = at + pat.len();
            let line = scan.line_of(&joined, at);
            let wrapped = regions.iter().any(|(open, close)| at > *open && at < *close);
            let excuse = scan
                .annotations_of("nonblocking")
                .into_iter()
                .filter(|a| a.line <= line && line <= a.line + 3)
                .map(|a| a.body.clone())
                .next_back();
            sites.push(BlockingSite {
                file: scan.path.clone(),
                line,
                kind,
                wrapped,
                excuse,
            });
        }
    }
    sites.sort_by_key(|s| s.line);
    (sites, governed)
}

/// Walk `roots` and audit every rendezvous site.
pub fn audit(roots: &[PathBuf]) -> Result<BlockingReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        scan::collect_rs(root, &mut files)
            .map_err(|e| EdenError::Application(format!("scan {}: {e}", root.display())))?;
    }
    files.sort();

    let mut report = BlockingReport {
        files: files.len(),
        ..BlockingReport::default()
    };
    for file in &files {
        let scan = scan::scan_file(file)
            .map_err(|e| EdenError::Application(format!("read {}: {e}", file.display())))?;
        let (sites, governed) = extract_sites(&scan);
        report.governed_locks += governed;
        for site in sites {
            report.sites += 1;
            if site.wrapped {
                report.wrapped += 1;
            } else if site.excuse.is_some() {
                report.excused += 1;
            } else {
                report.findings.push(format!(
                    "{}:{}: {} neither wrapped in blocking(..) nor annotated nonblocking(reason)",
                    site.file, site.line, site.kind
                ));
            }
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
    fn unwrapped_wait_is_a_finding() {
        let scan = scan_text("w.rs", "fn f(&self) {\n    let g = self.cv.wait(&mut guard).unwrap();\n}\n");
        let (sites, _) = extract_sites(&scan);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].wrapped);
        assert!(sites[0].excuse.is_none());
    }

    #[test]
    fn blocking_wrap_is_detected() {
        let scan = scan_text(
            "w.rs",
            "fn f(&self) {\n    eden_kernel::blocking(|| self.cv.wait(&mut guard));\n}\n",
        );
        let (sites, _) = extract_sites(&scan);
        assert_eq!(sites.len(), 1);
        assert!(sites[0].wrapped);
    }

    #[test]
    fn nonblocking_annotation_excuses() {
        let scan = scan_text(
            "w.rs",
            "fn f(&self) {\n    // eden-lint: nonblocking(dedicated thread)\n    let x = rx.recv().unwrap();\n}\n",
        );
        let (sites, _) = extract_sites(&scan);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].excuse.as_deref(), Some("dedicated thread"));
    }

    #[test]
    fn nonblocking_does_not_open_a_region() {
        // `nonblocking(...)` contains the substring `blocking(` — the word
        // boundary check must keep it from excusing a later call.
        let scan = scan_text(
            "w.rs",
            "fn f(&self) {\n    self.nonblocking(arg);\n    rx.recv().unwrap();\n}\n",
        );
        let (sites, _) = extract_sites(&scan);
        assert_eq!(sites.len(), 1);
        assert!(!sites[0].wrapped);
    }

    #[test]
    fn multiline_blocking_region_covers_inner_lines() {
        let scan = scan_text(
            "w.rs",
            "fn f(&self) {\n    blocking(|| {\n        let x = rx.recv().unwrap();\n        handle.join().unwrap();\n    });\n}\n",
        );
        let (sites, _) = extract_sites(&scan);
        assert_eq!(sites.len(), 2);
        assert!(sites.iter().all(|s| s.wrapped));
    }

    #[test]
    fn lock_sites_count_but_never_fail() {
        let scan = scan_text("w.rs", "fn f(&self) {\n    let g = self.state.lock().unwrap();\n}\n");
        let (sites, governed) = extract_sites(&scan);
        assert!(sites.is_empty());
        assert_eq!(governed, 1);
    }

    #[test]
    fn test_code_is_skipped() {
        let scan = scan_text(
            "w.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { rx.recv().unwrap(); }\n}\n",
        );
        let (sites, _) = extract_sites(&scan);
        assert!(sites.is_empty());
    }
}
