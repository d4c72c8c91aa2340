//! A tiny text format for wiring-graph fixtures.
//!
//! Each `.graph` file under `tests/fixtures/discipline/` describes one
//! [`WiringGraph`] plus the violations it is *expected* to raise — the
//! static-analysis equivalent of a `#[should_panic]` test. The grammar is
//! line-oriented, whitespace-separated:
//!
//! ```text
//! # expect: fan-out-under-read-only
//! discipline read-only
//! policy integer
//! node src source
//! node a filter
//! node b filter
//! edge src Output a
//! edge src Output b push
//! grant a src Output
//! ```
//!
//! `# expect: <rule>` headers name the rules that must fire (a fixture
//! with none is expected to be clean); other `#` lines are comments. An
//! `edge` line's optional fourth token overrides the discipline's native
//! mode with `pull`, `push`, or `rendezvous`.

use eden_core::{EdenError, Result};
use eden_transput::conform::{EdgeMode, GrantPolicy, NodeRole, Rule};
use eden_transput::{DisciplineKind, Violation, WiringGraph};

/// One parsed fixture: the graph and the rules it should trip.
#[derive(Debug)]
pub struct Fixture {
    /// Fixture name (the file stem, or whatever the caller passes).
    pub name: String,
    /// Rules the graph is expected to violate; empty means "must be clean".
    pub expect: Vec<Rule>,
    /// The described wiring.
    pub(crate) graph: WiringGraph,
}

impl Fixture {
    /// Run [`WiringGraph::check`] on the fixture's graph.
    pub fn check(&self) -> Vec<Violation> {
        self.graph.check()
    }

    /// Whether the violations raised are exactly the expected rule set
    /// (by rule, ignoring multiplicity and message text).
    pub fn verdict_matches(&self, violations: &[Violation]) -> bool {
        let mut want: Vec<Rule> = self.expect.clone();
        let mut got: Vec<Rule> = violations.iter().map(|v| v.rule).collect();
        want.sort_by_key(|r| r.to_string());
        want.dedup();
        got.sort_by_key(|r| r.to_string());
        got.dedup();
        want == got
    }
}

fn bad(name: &str, line: usize, msg: &str) -> EdenError {
    EdenError::BadParameter(format!("fixture {name}:{line}: {msg}"))
}

fn rule_from_slug(slug: &str) -> Option<Rule> {
    match slug {
        "fan-out-under-read-only" => Some(Rule::FanOutUnderReadOnly),
        "fan-in-under-write-only" => Some(Rule::FanInUnderWriteOnly),
        "unbuffered-filter-edge" => Some(Rule::UnbufferedFilterEdge),
        "channel-forgery" => Some(Rule::ChannelForgery),
        "unknown-node" => Some(Rule::UnknownNode),
        _ => None,
    }
}

/// Parse one fixture from its text.
pub(crate) fn parse(name: &str, text: &str) -> Result<Fixture> {
    let mut expect = Vec::new();
    let mut discipline: Option<DisciplineKind> = None;
    let mut policy = GrantPolicy::Integer;
    let mut nodes: Vec<(String, NodeRole)> = Vec::new();
    let mut edges: Vec<(String, String, String, Option<EdgeMode>)> = Vec::new();
    let mut grants: Vec<(String, String, String)> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(slug) = rest.trim().strip_prefix("expect:") {
                let slug = slug.trim();
                expect.push(
                    rule_from_slug(slug)
                        .ok_or_else(|| bad(name, lineno, &format!("unknown rule `{slug}`")))?,
                );
            }
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["discipline", d] => {
                discipline = Some(match *d {
                    "read-only" => DisciplineKind::ReadOnly,
                    "write-only" => DisciplineKind::WriteOnly,
                    "conventional" => DisciplineKind::Conventional,
                    other => {
                        return Err(bad(name, lineno, &format!("unknown discipline `{other}`")))
                    }
                });
            }
            ["policy", p] => {
                policy = match *p {
                    "integer" => GrantPolicy::Integer,
                    "capability" => GrantPolicy::Capability,
                    other => return Err(bad(name, lineno, &format!("unknown policy `{other}`"))),
                };
            }
            ["node", n, role] => {
                let role = match *role {
                    "source" => NodeRole::Source,
                    "filter" => NodeRole::Filter,
                    "buffer" => NodeRole::Buffer,
                    "sink" => NodeRole::Sink,
                    other => return Err(bad(name, lineno, &format!("unknown role `{other}`"))),
                };
                nodes.push(((*n).to_owned(), role));
            }
            ["edge", p, ch, c] => {
                edges.push(((*p).to_owned(), (*ch).to_owned(), (*c).to_owned(), None));
            }
            ["edge", p, ch, c, mode] => {
                let mode = match *mode {
                    "pull" => EdgeMode::Pull,
                    "push" => EdgeMode::Push,
                    "rendezvous" => EdgeMode::Rendezvous,
                    other => return Err(bad(name, lineno, &format!("unknown mode `{other}`"))),
                };
                edges.push((
                    (*p).to_owned(),
                    (*ch).to_owned(),
                    (*c).to_owned(),
                    Some(mode),
                ));
            }
            ["grant", c, p, ch] => {
                grants.push(((*c).to_owned(), (*p).to_owned(), (*ch).to_owned()));
            }
            _ => return Err(bad(name, lineno, &format!("unparseable line `{line}`"))),
        }
    }

    let discipline = discipline.ok_or_else(|| bad(name, 0, "missing `discipline` declaration"))?;
    let mut graph = WiringGraph::new(discipline).policy(policy);
    for (n, role) in nodes {
        graph.node(n, role);
    }
    for (p, ch, c, mode) in edges {
        match mode {
            None => graph.edge(p, ch, c),
            Some(m) => graph.edge_mode(p, ch, c, m),
        };
    }
    for (c, p, ch) in grants {
        graph.grant(c, p, ch);
    }
    Ok(Fixture {
        name: name.to_owned(),
        expect,
        graph,
    })
}

/// Load a fixture from a `.graph` file.
pub fn load(path: &std::path::Path) -> Result<Fixture> {
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let text = std::fs::read_to_string(path)
        .map_err(|e| EdenError::Application(format!("read {}: {e}", path.display())))?;
    parse(&name, &text)
}

/// Load every `.graph` fixture under `dir` (sorted by name).
pub fn load_dir(dir: &std::path::Path) -> Result<Vec<Fixture>> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| EdenError::Application(format!("read {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "graph"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_minimal_violating_fixture() {
        let f = parse(
            "t",
            "# expect: fan-out-under-read-only\n\
             discipline read-only\n\
             node s source\nnode a sink\nnode b sink\n\
             edge s Output a\nedge s Output b\n",
        )
        .unwrap();
        let violations = f.check();
        assert!(f.verdict_matches(&violations), "{violations:?}");
    }

    #[test]
    fn mode_override_and_grants_parse() {
        let f = parse(
            "t",
            "discipline write-only\npolicy capability\n\
             node s source\nnode k sink\n\
             edge s Output k push\ngrant k s Output\n",
        )
        .unwrap();
        assert!(f.check().is_empty());
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        assert!(parse("t", "discipline sideways\n").is_err());
        assert!(parse("t", "discipline read-only\nnode a gizmo\n").is_err());
        assert!(parse("t", "frobnicate\n").is_err());
        assert!(parse("t", "# expect: no-such-rule\ndiscipline read-only\n").is_err());
        assert!(parse("t", "node a source\n").is_err(), "missing discipline");
    }
}
