//! `--repeat N [--sets K]`: judge the benchmark's own steadiness the way the
//! repository's driver does. Each run is a child process with its own seed
//! (a fresh process matters: CPU placement sticks to a process, and
//! `rss_bytes_per_eject` reads zero the second time). Per metric that has a
//! bound the report gives the median, the quartiles, the spread
//! (interquartile distance over the median) and the worst single deviation
//! from the median; a set fails when a spread exceeds its bound, and a later
//! set fails when its median is worse than the first set's by more than the
//! bound.

use std::collections::BTreeMap;
use std::process::Command;

use crate::decl::{self, Better, Metric, Workload};
use crate::stats;

/// What one child run printed: metric name to value.
type Values = BTreeMap<&'static str, f64>;

/// The arguments that make a child run `workload` once.
pub fn child_args(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Vec<String> {
    let mut args = vec![
        "--workload".to_owned(),
        workload.name().to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
        "--seconds".to_owned(),
        seconds.to_string(),
        "--trace".to_owned(),
        u8::from(traced).to_string(),
    ];
    if smoke {
        args.push("--smoke".to_owned());
    }
    args
}

/// Run one workload once in a child process and read its metric lines.
fn child_values(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(child_args(workload, seed, seconds, false, smoke))
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed ({}):\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(parse_metric_lines(&String::from_utf8_lossy(&output.stdout)))
}

/// The `name unit value` lines of a run's output.
pub fn parse_metric_lines(stdout: &str) -> Values {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split(' ');
            let metric = decl::metric(words.next()?)?;
            let value = words.nth(1)?.parse().ok()?;
            words.next().is_none().then_some((metric.name, value))
        })
        .collect()
}

/// One metric over one set of runs.
#[derive(Debug, Clone, Copy)]
struct Summary {
    q1: f64,
    median: f64,
    q3: f64,
    /// Interquartile distance over the median (absolute when the median is 0).
    spread: f64,
    /// Largest distance of one run from the median, on the same scale.
    worst: f64,
}

fn summarise(values: &[f64]) -> Option<Summary> {
    let (q1, median, q3) = stats::quartiles(values)?;
    let scale = if median == 0.0 { 1.0 } else { median.abs() };
    let worst = values
        .iter()
        .map(|v| (v - median).abs())
        .fold(0.0, f64::max);
    Some(Summary {
        q1,
        median,
        q3,
        spread: (q3 - q1) / scale,
        worst: worst / scale,
    })
}

/// By how much `later` is worse than `first`, as a share of `first`.
fn worsening(metric: &Metric, first: f64, later: f64) -> f64 {
    let scale = if first == 0.0 { 1.0 } else { first.abs() };
    match metric.better {
        Better::Higher => (first - later) / scale,
        Better::Lower => (later - first) / scale,
    }
}

/// Run `sets` sets of `runs` runs of each workload and print the report.
/// Returns whether every bound held.
pub fn repeat(
    workloads: &[Workload],
    runs: usize,
    sets: usize,
    seed: u64,
    seconds: f64,
    smoke: bool,
) -> bool {
    let mut ok = true;
    for &workload in workloads {
        let mut first_medians: BTreeMap<&'static str, f64> = BTreeMap::new();
        for set in 0..sets {
            let seeds: Vec<u64> = (0..runs as u64)
                .map(|r| seed + (set * runs) as u64 + r)
                .collect();
            let mut collected: Vec<Values> = Vec::new();
            for &s in &seeds {
                match child_values(workload, s, seconds, smoke) {
                    Ok(values) => collected.push(values),
                    Err(e) => {
                        eprintln!("error: {e}");
                        ok = false;
                    }
                }
            }
            println!(
                "\n### {workload}, set {} of {sets}: {} runs of {seconds} s, seeds {}..={}\n",
                set + 1,
                collected.len(),
                seeds[0],
                seeds[seeds.len() - 1]
            );
            println!("| metric | unit | bound | q1 | median | q3 | spread | worst run | vs set 1 | verdict |");
            println!("|---|---|---|---|---|---|---|---|---|---|");
            for m in decl::METRICS.iter().filter(|m| m.applies_to(workload)) {
                let Some(bound) = m.bound() else { continue };
                let values: Vec<f64> = collected
                    .iter()
                    .filter_map(|v| v.get(m.name).copied())
                    .collect();
                let Some(s) = summarise(&values) else {
                    println!(
                        "| `{}` | {} | {bound} | | | | | | | MISSING |",
                        m.name, m.unit
                    );
                    ok = false;
                    continue;
                };
                let drift = first_medians
                    .get(m.name)
                    .map(|first| worsening(m, *first, s.median));
                first_medians.entry(m.name).or_insert(s.median);
                // setup_s is judged on its median alone, as the driver does.
                let spread_ok = s.spread <= bound || m.name == "setup_s";
                let drift_ok = drift.is_none_or(|d| d <= bound);
                let verdict = match (spread_ok, drift_ok) {
                    (true, true) if s.spread <= bound / 3.0 => "steady",
                    (true, true) => "within bound",
                    (false, _) => "SPREAD OVER BOUND",
                    (_, false) => "MEDIAN WORSE THAN SET 1",
                };
                ok &= spread_ok && drift_ok;
                println!(
                    "| `{}` | {} | {bound} | {:.6} | {:.6} | {:.6} | {:.4} | {:.4} | {} | {verdict} |",
                    m.name,
                    m.unit,
                    s.q1,
                    s.median,
                    s.q3,
                    s.spread,
                    s.worst,
                    drift.map_or("-".to_owned(), |d| format!("{d:+.4}")),
                );
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_are_found_among_the_rest() {
        let out = "workload pipe-hop\nenv nproc 2\nnote records_per_s over 3 repetitions\n\
                   records_per_s rec/s 123.5\nsetup_s s 0.25\nunknown_thing x 1\n{\"correct\": true}\n";
        let v = parse_metric_lines(out);
        assert_eq!(v.len(), 2);
        assert_eq!(v["records_per_s"], 123.5);
        assert_eq!(v["setup_s"], 0.25);
    }

    #[test]
    fn summary_and_worsening() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarise(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.spread, 1.0);
        assert_eq!(s.worst, 4.5 / 5.5);
        let rate = decl::metric("records_per_s").unwrap();
        let cost = decl::metric("cpu_us_per_record").unwrap();
        assert_eq!(worsening(rate, 100.0, 90.0), 0.1);
        assert_eq!(worsening(cost, 100.0, 90.0), -0.1);
    }
}
