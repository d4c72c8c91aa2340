//! The `#[should_fail]`-style corpus: every pass has a seeded fixture
//! that must make the linter fire (and exit non-zero) — discipline
//! violations per rule, a lock-order cycle (including scoped-guard
//! forms), an atomics downgrade plus unknown site, naked rendezvous
//! calls, a timed wait that is no timer, and an off-spec parking-bit
//! transition. The legal twins stay
//! clean, and the real tree must pass every pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use eden_lint::{atomics, blocking, fixture, lockorder, protocol};
use eden_transput::conform::Rule;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eden-lint"))
}

#[test]
fn every_discipline_rule_has_a_firing_fixture() {
    let fixtures = fixture::load_dir(&fixtures_dir().join("discipline")).unwrap();
    let mut fired: Vec<Rule> = Vec::new();
    for f in &fixtures {
        let violations = f.check();
        assert!(
            f.verdict_matches(&violations),
            "{}: expected {:?}, raised {:?}",
            f.name,
            f.expect,
            violations
        );
        fired.extend(violations.iter().map(|v| v.rule));
    }
    for rule in [
        Rule::FanOutUnderReadOnly,
        Rule::FanInUnderWriteOnly,
        Rule::UnbufferedFilterEdge,
        Rule::ChannelForgery,
        Rule::UnknownNode,
    ] {
        assert!(fired.contains(&rule), "no fixture fires {rule}");
    }
}

#[test]
fn merge_workaround_fixture_is_clean() {
    let f = fixture::load(
        &fixtures_dir()
            .join("discipline")
            .join("merge_workaround_clean.graph"),
    )
    .unwrap();
    assert!(f.expect.is_empty());
    assert_eq!(f.check(), Vec::new());
}

#[test]
fn binary_exits_nonzero_on_each_seeded_violation() {
    for entry in std::fs::read_dir(fixtures_dir().join("discipline")).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "graph") {
            continue;
        }
        let f = fixture::load(&path).unwrap();
        let status = bin()
            .args(["--discipline", "--fixture"])
            .arg(&path)
            .status()
            .unwrap();
        if f.expect.is_empty() {
            assert!(status.success(), "{} should be clean", f.name);
        } else {
            assert_eq!(status.code(), Some(1), "{} should fail", f.name);
        }
    }
}

#[test]
fn lock_order_fixture_cycle_is_detected() {
    let spec = lockorder::parse_blessed(
        &std::fs::read_to_string(fixtures_dir().join("lock_order").join("blessed.md")).unwrap(),
    )
    .unwrap();
    let report = lockorder::audit(&spec, &[fixtures_dir().join("lock_order").join("cycle")])
        .unwrap();
    assert_eq!(report.cycles.len(), 1, "{}", report.render());
    assert!(!report.deviations.is_empty(), "{}", report.render());

    let status = bin()
        .args(["--lock-order", "--root"])
        .arg(fixtures_dir().join("lock_order").join("cycle"))
        .arg("--blessed")
        .arg(fixtures_dir().join("lock_order").join("blessed.md"))
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn scoped_guard_fixture_inversions_are_detected() {
    let spec = lockorder::parse_blessed(
        &std::fs::read_to_string(fixtures_dir().join("lock_order").join("blessed.md")).unwrap(),
    )
    .unwrap();
    let report = lockorder::audit(&spec, &[fixtures_dir().join("lock_order").join("scopes")])
        .unwrap();
    // All three scoped forms induce the same inverted edge; the trailing
    // alpha -> beta nesting after the `if let` block must stay blessed.
    let inverted = report
        .edges
        .iter()
        .find(|e| e.from == "beta" && e.to == "alpha")
        .expect("inverted edge missing");
    assert_eq!(inverted.sites.len(), 3, "{}", report.render());
    assert_eq!(report.cycles.len(), 1, "{}", report.render());

    let status = bin()
        .args(["--lock-order", "--root"])
        .arg(fixtures_dir().join("lock_order").join("scopes"))
        .arg("--blessed")
        .arg(fixtures_dir().join("lock_order").join("blessed.md"))
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn atomics_fixture_downgrade_and_unknown_site_fail() {
    let dir = fixtures_dir().join("atomics");
    let cat = atomics::parse_blessed(&std::fs::read_to_string(dir.join("blessed.md")).unwrap())
        .unwrap();
    let report = atomics::audit(&cat, &[dir.join("src")]).unwrap();
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    assert!(report.findings.iter().any(|f| f.contains("downgraded")));
    assert!(report.findings.iter().any(|f| f.contains("unknown atomic site")));
    assert_eq!(report.suggestions.len(), 1, "{}", report.render());
    assert!(report.suggestions[0].contains("other"));

    let status = bin()
        .args(["--atomics", "--root"])
        .arg(dir.join("src"))
        .arg("--blessed")
        .arg(dir.join("blessed.md"))
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn blocking_fixture_naked_calls_fail_and_wrapped_twin_passes() {
    let dir = fixtures_dir().join("blocking");
    let report = blocking::audit(&[dir.join("unwrapped")]).unwrap();
    assert_eq!(report.findings.len(), 2, "{}", report.render());

    // Two handlers that wait after their reply, and two that `call` after it.
    let report = blocking::audit(&[dir.join("lingers")]).unwrap();
    assert_eq!(report.findings.len(), 4, "{}", report.render());
    assert!(
        report.findings.iter().all(|f| f.contains("declares replies_last waits after the reply")),
        "{}",
        report.render()
    );

    for bad in ["unwrapped", "lingers"] {
        let status = bin()
            .args(["--blocking", "--root"])
            .arg(dir.join(bad))
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(1), "{bad}");
    }

    let status = bin()
        .args(["--blocking", "--root"])
        .arg(dir.join("clean"))
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(0));
}

#[test]
fn timer_fixture_unannotated_and_unknown_waits_fail() {
    let dir = fixtures_dir().join("blocking").join("untimed");
    // The rendezvous audit has nothing against it: every wait is wrapped.
    let mut report = blocking::audit(std::slice::from_ref(&dir)).unwrap();
    assert!(report.clean(), "{}", report.render());
    blocking::timers(std::slice::from_ref(&dir), &mut report).unwrap();
    assert_eq!(report.findings.len(), 2, "{}", report.render());
    let said = |what: &str| report.findings.iter().any(|f| f.contains(what));
    assert!(said("`thread::sleep` is no timer: reason missing"));
    assert!(said("is no timer: reason patience"));
    let render = report.render();
    assert!(report.timers.contains(&("deadline", 1)), "{render}");

    let status = bin().args(["--blocking", "--root"]).arg(&dir).status();
    assert_eq!(status.unwrap().code(), Some(1));
}

#[test]
fn the_real_tree_has_two_recovery_polls_and_no_untimed_wait() {
    let output = bin().args(["--blocking"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains("every timed wait a timer"), "{stdout}");
    assert!(stdout.contains("recovery-poll 2"), "{stdout}");
}

#[test]
fn protocol_fixture_offspec_transitions_fail() {
    let dir = fixtures_dir().join("protocol").join("illegal");
    let report = protocol::audit(std::slice::from_ref(&dir)).unwrap();
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.contains("QUEUED -> DEAD") && f.contains("not in mailbox::spec")),
        "{}",
        report.render()
    );
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.contains("raw store of park::QUEUED")),
        "{}",
        report.render()
    );

    let status = bin()
        .args(["--protocol", "--root"])
        .arg(&dir)
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(1));
}

#[test]
fn real_tree_is_clean_under_every_pass() {
    let json_path = std::env::temp_dir().join(format!("eden-lint-{}.json", std::process::id()));
    let output = bin()
        .args(["--all", "--quiet", "--json"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("acyclic and blessed"), "{stdout}");
    assert!(stdout.contains("every Ordering site"), "{stdout}");
    assert!(stdout.contains("every rendezvous call"), "{stdout}");
    assert!(stdout.contains("describe the same machine"), "{stdout}");

    let json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_file(&json_path);
    assert!(json.contains("\"clean\": true"), "{json}");
    for pass in ["discipline", "lock-order", "atomics", "blocking", "protocol"] {
        assert!(json.contains(&format!("\"name\": \"{pass}\"")), "{json}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(bin().status().unwrap().code(), Some(2));
    assert_eq!(bin().arg("--frobnicate").status().unwrap().code(), Some(2));
}
