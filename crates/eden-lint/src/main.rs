//! `eden-lint` — static analysis for the Eden reproduction.
//!
//! ```text
//! cargo run -p eden-lint -- --all [--json PATH]
//!     Run every pass over the real tree; exit 1 on any finding.
//! cargo run -p eden-lint -- --discipline [--fixture PATH]
//!     Discipline conformance: the in-repo wiring catalog, or the given
//!     fixture file / directory of `.graph` files.
//! cargo run -p eden-lint -- --lock-order [--root DIR]... [--blessed FILE]
//!     Lock-order audit over the given roots (default: eden-kernel,
//!     eden-transput and eden-fs sources) against the blessed partial order.
//! cargo run -p eden-lint -- --atomics [--root DIR]... [--blessed FILE]
//!     Atomics-ordering audit: every `Ordering::` site in the roots
//!     (default: every crate's src/) must match `docs/ATOMICS.md`.
//! cargo run -p eden-lint -- --blocking [--root DIR]...
//!     Blocking-site audit: every rendezvous call in the roots (default:
//!     eden-kernel, eden-transput and eden-fs sources) must be
//!     `blocking(..)`-wrapped or `nonblocking(..)`-annotated, and no wait
//!     (a `call` is one) may follow a reply in a behaviour that declares
//!     `replies_last`; every timed wait (all crates but eden-bench) is a `timer(reason)`.
//! cargo run -p eden-lint -- --protocol [--root PATH]...
//!     Mailbox protocol conformance: parking-bit transitions in the
//!     roots (default: mailbox.rs and sched.rs) round-trip against
//!     `eden_kernel::mailbox::spec::TRANSITIONS`.
//! ```
//!
//! `--blessed` names the catalog for whichever single pass is enabled;
//! with `--all` every pass uses its default. `--json PATH` additionally
//! writes a machine-readable report for CI artifacts.
//!
//! Exit status: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use eden_lint::report::PassReport;
use eden_lint::{atomics, blocking, catalog, fixture, lockorder, protocol, report};

fn workspace_root() -> PathBuf {
    // crates/eden-lint -> crates -> workspace root. Compile-time constant,
    // so the binary works whatever the invocation directory.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    root.canonicalize().unwrap_or(root)
}

struct Args {
    discipline: bool,
    lock_order: bool,
    atomics: bool,
    blocking: bool,
    protocol: bool,
    fixtures: Vec<PathBuf>,
    roots: Vec<PathBuf>,
    blessed: Option<PathBuf>,
    json: Option<PathBuf>,
    quiet: bool,
}

impl Args {
    fn any_pass(&self) -> bool {
        self.discipline || self.lock_order || self.atomics || self.blocking || self.protocol
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        discipline: false,
        lock_order: false,
        atomics: false,
        blocking: false,
        protocol: false,
        fixtures: Vec::new(),
        roots: Vec::new(),
        blessed: None,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                args.discipline = true;
                args.lock_order = true;
                args.atomics = true;
                args.blocking = true;
                args.protocol = true;
            }
            "--discipline" => args.discipline = true,
            "--lock-order" => args.lock_order = true,
            "--atomics" => args.atomics = true,
            "--blocking" => args.blocking = true,
            "--protocol" => args.protocol = true,
            "--fixture" => args
                .fixtures
                .push(PathBuf::from(it.next().ok_or("--fixture needs a path")?)),
            "--root" => args
                .roots
                .push(PathBuf::from(it.next().ok_or("--root needs a path")?)),
            "--blessed" => {
                args.blessed = Some(PathBuf::from(it.next().ok_or("--blessed needs a path")?))
            }
            "--json" => args.json = Some(PathBuf::from(it.next().ok_or("--json needs a path")?)),
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !args.any_pass() {
        return Err(
            "pass --discipline, --lock-order, --atomics, --blocking, --protocol, or --all".into(),
        );
    }
    Ok(args)
}

/// The default audit roots: the crates whose code runs on pool workers.
fn runtime_roots(args: &Args) -> Vec<PathBuf> {
    if args.roots.is_empty() {
        let root = workspace_root();
        ["eden-kernel", "eden-transput", "eden-fs"]
            .map(|name| root.join("crates").join(name).join("src"))
            .to_vec()
    } else {
        args.roots.clone()
    }
}

/// Every crate's `src/` — the atomics audit covers the whole workspace.
fn workspace_src_roots(args: &Args) -> Result<Vec<PathBuf>, String> {
    if !args.roots.is_empty() {
        return Ok(args.roots.clone());
    }
    let crates = workspace_root().join("crates");
    let mut roots = Vec::new();
    let entries =
        std::fs::read_dir(&crates).map_err(|e| format!("read {}: {e}", crates.display()))?;
    for entry in entries {
        let dir = entry.map_err(|e| e.to_string())?.path();
        // The linter's own source spells the annotation grammar inside doc
        // comments and test strings (and holds no atomics); scanning it
        // would only audit its own documentation.
        if dir.file_name().is_some_and(|n| n == "eden-lint") {
            continue;
        }
        let src = dir.join("src");
        if src.is_dir() {
            roots.push(src);
        }
    }
    roots.sort();
    Ok(roots)
}

fn run_discipline(args: &Args) -> Result<PassReport, String> {
    let mut findings = Vec::new();
    let mut graphs = 0usize;
    if args.fixtures.is_empty() {
        let checked = catalog::catalog().map_err(|e| e.to_string())?;
        for (name, graph) in checked {
            graphs += 1;
            let violations = graph.check();
            if violations.is_empty() {
                if !args.quiet {
                    println!("discipline ok: {name}");
                }
            } else {
                for v in violations {
                    let line = format!("{name}: {v}");
                    println!("discipline FAIL: {line}");
                    findings.push(line);
                }
            }
        }
    } else {
        for path in &args.fixtures {
            let loaded = if path.is_dir() {
                fixture::load_dir(path).map_err(|e| e.to_string())?
            } else {
                vec![fixture::load(path).map_err(|e| e.to_string())?]
            };
            for f in loaded {
                graphs += 1;
                let violations = f.check();
                let expected = f.verdict_matches(&violations);
                if violations.is_empty() {
                    if !args.quiet {
                        println!("fixture clean: {}", f.name);
                    }
                } else {
                    for v in &violations {
                        let line = format!("{}: {v}", f.name);
                        println!("fixture {line}");
                        findings.push(line);
                    }
                }
                if !expected {
                    let line = format!(
                        "{}: raised rules do not match its `# expect:` headers",
                        f.name
                    );
                    println!("fixture {line}");
                    findings.push(line);
                }
            }
        }
    }
    Ok(PassReport {
        name: "discipline",
        clean: findings.is_empty(),
        counts: vec![("graphs", graphs)],
        findings,
    })
}

fn run_lock_order(args: &Args) -> Result<PassReport, String> {
    let blessed_path = args
        .blessed
        .clone()
        .unwrap_or_else(|| workspace_root().join("docs").join("LOCK_ORDER.md"));
    let markdown = std::fs::read_to_string(&blessed_path)
        .map_err(|e| format!("read {}: {e}", blessed_path.display()))?;
    let spec = lockorder::parse_blessed(&markdown).map_err(|e| e.to_string())?;
    let report = lockorder::audit(&spec, &runtime_roots(args)).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    let mut findings: Vec<String> = report
        .cycles
        .iter()
        .map(|c| format!("cycle: {}", c.join(" -> ")))
        .collect();
    findings.extend(report.deviations.iter().cloned());
    findings.extend(
        report
            .unused
            .iter()
            .map(|c| format!("class {c} has no site")),
    );
    Ok(PassReport {
        name: "lock-order",
        clean: findings.is_empty(),
        counts: vec![("files", report.files), ("acquisitions", report.sites)],
        findings,
    })
}

fn run_atomics(args: &Args) -> Result<PassReport, String> {
    let blessed_path = args
        .blessed
        .clone()
        .unwrap_or_else(|| workspace_root().join("docs").join("ATOMICS.md"));
    let markdown = std::fs::read_to_string(&blessed_path)
        .map_err(|e| format!("read {}: {e}", blessed_path.display()))?;
    let cat = atomics::parse_blessed(&markdown).map_err(|e| e.to_string())?;
    let report = atomics::audit(&cat, &workspace_src_roots(args)?).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(PassReport {
        name: "atomics",
        clean: report.clean(),
        counts: vec![
            ("files", report.files),
            ("sites", report.sites),
            ("tokens", report.tokens),
        ],
        findings: report.findings,
    })
}

fn run_blocking(args: &Args) -> Result<PassReport, String> {
    let mut report = blocking::audit(&runtime_roots(args)).map_err(|e| e.to_string())?;
    let mut timer_roots = workspace_src_roots(args)?;
    timer_roots.retain(|root| !args.roots.is_empty() || !root.ends_with("eden-bench/src"));
    blocking::timers(&timer_roots, &mut report).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    let mut counts = vec![
        ("files", report.files),
        ("rendezvous_sites", report.sites),
        ("wrapped", report.wrapped),
        ("annotated", report.excused),
        ("governed_locks", report.governed_locks),
    ];
    counts.extend(report.timers.iter().copied());
    Ok(PassReport {
        name: "blocking",
        clean: report.clean(),
        counts,
        findings: report.findings,
    })
}

fn run_protocol(args: &Args) -> Result<PassReport, String> {
    let roots = if args.roots.is_empty() {
        let src = workspace_root()
            .join("crates")
            .join("eden-kernel")
            .join("src");
        vec![src.join("mailbox.rs"), src.join("sched.rs")]
    } else {
        args.roots.clone()
    };
    let report = protocol::audit(&roots).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    Ok(PassReport {
        name: "protocol",
        clean: report.clean(),
        counts: vec![
            ("files", report.files),
            ("transition_sites", report.sites),
            ("spec_edges_witnessed", report.witnessed),
        ],
        findings: report.findings,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("eden-lint: {msg}");
            eprintln!(
                "usage: eden-lint [--all] [--discipline [--fixture PATH]...] \
                 [--lock-order] [--atomics] [--blocking] [--protocol] \
                 [--root DIR]... [--blessed FILE] [--json PATH] [--quiet]"
            );
            return ExitCode::from(2);
        }
    };
    type Pass = fn(&Args) -> Result<PassReport, String>;
    let passes: [(bool, Pass); 5] = [
        (args.discipline, run_discipline),
        (args.lock_order, run_lock_order),
        (args.atomics, run_atomics),
        (args.blocking, run_blocking),
        (args.protocol, run_protocol),
    ];
    let mut reports = Vec::new();
    for (enabled, pass) in passes {
        if !enabled {
            continue;
        }
        match pass(&args) {
            Ok(report) => reports.push(report),
            Err(msg) => {
                eprintln!("eden-lint: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report::render(&reports)) {
            eprintln!("eden-lint: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    let findings: usize = reports.iter().map(|r| r.findings.len()).sum();
    if findings == 0 {
        println!("eden-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("eden-lint: {findings} finding(s)");
        ExitCode::FAILURE
    }
}
