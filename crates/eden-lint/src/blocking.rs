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
//!   (dedicated thread, teardown path, cold start).
//!
//! Plain `Mutex::lock` acquisitions are *not* findings: the lock-order
//! plane already governs them (bounded critical sections under a proven
//! acyclic order), so this pass only counts them for the report.
//!
//! One rule more, about *where* a wait may sit rather than how it is
//! wrapped: a behaviour whose `replies_last` does not simply return `false`
//! has promised that its reply is its handlers' last act (the scheduler runs
//! it as a call on its caller's stack on the strength of that), so inside its
//! `impl EjectBehavior` no wait may follow a `.reply(` lexically in the same
//! `handle` or `internal` body — and a `call` is a wait, with a send in
//! front. Debug builds catch the same lie when it runs; this catches it
//! when it is written.
//!
//! And [`timers`]: a wait for an event waits on the event, so a timed wait must be a
//! timer, `// eden-lint: timer(reason)` within three lines above it ([`TIMER_REASONS`]).

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

/// What a behaviour that declares `replies_last` may not do after `.reply(`.
const WAITS: [&str; 7] = [
    ".wait(",
    ".wait_timeout(",
    ".call(",
    ".call_routed(",
    "blocking(",
    "thread::sleep",
    "thread::park",
];

/// Substrings that mark a timed wait: a rendezvous that a clock also ends.
const TIMED: [&str; 5] = [
    "thread::sleep",
    ".wait_for(&mut",
    "::park_timeout(",
    ".recv_timeout(",
    ".wait_timeout(",
];

/// The timers the design needs (DESIGN §4), space-separated: the reasons a `timer(..)` may give.
pub const TIMER_REASONS: &str = "deadline fsync-interval backoff stall-monitor sched-stride injected-latency watch recovery-poll";

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
    /// Timed waits per reason, in [`TIMER_REASONS`] order, once [`timers`] ran.
    pub timers: Vec<(&'static str, usize)>,
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
        let timers = self.timers.iter().map(|(r, n)| format!("{r} {n}"));
        let timers = timers.collect::<Vec<_>>().join(", ");
        let _ = writeln!(out, "timed waits by reason: {timers}");
        for finding in &self.findings {
            let _ = writeln!(out, "FINDING: {finding}");
        }
        if self.clean() {
            let _ = writeln!(
                out,
                "ok: every rendezvous call is blocking(..)-wrapped or nonblocking-annotated, every timed wait a timer"
            );
        }
        out
    }
}

/// Whether what starts at `at` does not continue an identifier:
/// `nonblocking(` contains `blocking(`.
fn starts_word(code: &[u8], at: usize) -> bool {
    at == 0 || !(code[at - 1].is_ascii_alphanumeric() || code[at - 1] == b'_')
}

/// Byte ranges of `blocking(..)` regions in the joined code.
fn blocking_regions(joined: &str) -> Vec<(usize, usize)> {
    let bytes = joined.as_bytes();
    let mut regions = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("blocking(") {
        let at = search + rel;
        search = at + "blocking(".len();
        if !starts_word(bytes, at) {
            continue;
        }
        let open = at + "blocking".len();
        if let Some(close) = scan::matching_paren(bytes, open) {
            regions.push((open, close));
        }
    }
    regions
}

/// The `{..}` body of the first `fn name` in `code[from..to]`, as offsets
/// into `code`.
fn fn_body(code: &str, from: usize, to: usize, name: &str) -> Option<(usize, usize)> {
    let at = from + code[from..to].find(&format!("fn {name}("))?;
    let open = at + code[at..to].find('{')?;
    let close = scan::matching_brace(code.as_bytes(), open)?;
    Some((open, close))
}

/// Waits that lexically follow a reply inside the handlers of a behaviour
/// that declares `replies_last`: one finding a handler body, at its first
/// such wait.
pub fn waits_after_reply(scan: &FileScan) -> Vec<String> {
    let joined = scan.joined_code();
    let mut findings = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = joined[search..].find("impl EjectBehavior for") {
        let at = search + rel;
        search = at + 1;
        let Some(open) = joined[at..].find('{').map(|rel| at + rel) else {
            continue;
        };
        let Some(close) = scan::matching_brace(joined.as_bytes(), open) else {
            continue;
        };
        let declares = fn_body(&joined, open, close, "replies_last")
            .is_some_and(|(from, to)| joined[from + 1..to].trim() != "false");
        if !declares {
            continue;
        }
        for handler in ["handle", "internal"] {
            let Some((from, to)) = fn_body(&joined, open, close, handler) else {
                continue;
            };
            let Some(replied) = joined[from..to].find(".reply(").map(|rel| from + rel) else {
                continue;
            };
            let wait = WAITS
                .iter()
                .filter_map(|pat| {
                    joined[replied..to]
                        .match_indices(pat)
                        .map(|(rel, _)| replied + rel)
                        .find(|&at| pat.starts_with('.') || starts_word(joined.as_bytes(), at))
                })
                .min();
            if let Some(wait) = wait {
                findings.push(format!(
                    "{}:{}: `{handler}` of a behaviour that declares replies_last waits after the reply on line {}",
                    scan.path,
                    scan.line_of(&joined, wait),
                    scan.line_of(&joined, replied),
                ));
            }
        }
    }
    findings
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
            let excuse = bound_annotation(scan, "nonblocking", line).map(str::to_owned);
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

/// Every `.rs` file under `roots`, scanned, in path order.
fn scan_roots(roots: &[PathBuf]) -> Result<Vec<FileScan>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for root in roots {
        scan::collect_rs(root, &mut files)
            .map_err(|e| EdenError::Application(format!("scan {}: {e}", root.display())))?;
    }
    files.sort();
    let read = |file: &PathBuf| {
        scan::scan_file(file)
            .map_err(|e| EdenError::Application(format!("read {}: {e}", file.display())))
    };
    files.iter().map(read).collect()
}

/// The body of the last `kind(..)` annotation within three lines above `line`.
fn bound_annotation<'a>(scan: &'a FileScan, kind: &str, line: usize) -> Option<&'a str> {
    let near = |a: &&scan::Annotation| a.line <= line && line <= a.line + 3;
    let found = scan.annotations_of(kind).into_iter().rfind(near)?;
    Some(found.body.as_str())
}

/// Count every timed wait outside tests under `roots` into `report` by its
/// `timer(..)` reason; one without a known reason is a finding.
pub fn timers(roots: &[PathBuf], report: &mut BlockingReport) -> Result<()> {
    report.timers = TIMER_REASONS.split_whitespace().map(|r| (r, 0)).collect();
    for scan in &scan_roots(roots)? {
        let joined = scan.joined_code();
        for pat in TIMED {
            for (at, _) in joined.match_indices(pat) {
                let line = scan.line_of(&joined, at);
                let reason = bound_annotation(scan, "timer", line);
                let counted = report.timers.iter_mut().find(|(r, _)| reason == Some(*r));
                match counted {
                    Some((_, n)) => *n += 1,
                    None => report.findings.push(format!(
                        "{}:{line}: timed wait `{pat}` is no timer: reason {}",
                        scan.path,
                        reason.unwrap_or("missing")
                    )),
                }
            }
        }
    }
    report.findings.sort();
    Ok(())
}

/// Walk `roots` and audit every rendezvous site.
pub fn audit(roots: &[PathBuf]) -> Result<BlockingReport> {
    let scans = scan_roots(roots)?;
    let mut report = BlockingReport {
        files: scans.len(),
        ..BlockingReport::default()
    };
    for scan in &scans {
        let (sites, governed) = extract_sites(scan);
        report.governed_locks += governed;
        report.findings.extend(waits_after_reply(scan));
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
    fn wait_after_reply_is_a_finding_only_for_a_declared_behaviour() {
        let lingers = |declares: &str| {
            format!(
                "impl EjectBehavior for L {{\n    fn replies_last(&self) -> bool {{\n        {declares}\n    }}\n    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {{\n        reply.reply(Ok(Value::Unit));\n        let _ = ctx.invoke(self.next, inv.op, inv.arg).wait();\n    }}\n}}\n"
            )
        };
        let findings = waits_after_reply(&scan_text("l.rs", &lingers("true")));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("l.rs:7:"), "{findings:?}");
        assert!(waits_after_reply(&scan_text("l.rs", &lingers("false"))).is_empty());
        // A call is a wait, whichever way it is spelled.
        for call in ["ctx.call(self.next, inv.op, inv.arg)", "ctx.call_routed(&mut self.cache, self.next, inv.op, inv.arg)"] {
            let calls = lingers("true").replace("ctx.invoke(self.next, inv.op, inv.arg).wait()", call);
            let findings = waits_after_reply(&scan_text("c.rs", &calls));
            assert_eq!(findings.len(), 1, "{call}: {findings:?}");
            assert!(findings[0].starts_with("c.rs:7:"), "{findings:?}");
        }
        // A wait before the reply is what a call is.
        let relay = "impl EjectBehavior for R {\n    fn replies_last(&self) -> bool { true }\n    fn handle(&mut self, ctx: &EjectContext, inv: Invocation, reply: ReplyHandle) {\n        let out = ctx.invoke(self.next, inv.op, inv.arg).wait();\n        reply.reply(out);\n        self.nonblocking(out);\n    }\n}\n";
        assert!(waits_after_reply(&scan_text("r.rs", relay)).is_empty());
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
