//! `e2e compare A.json… -- B.json…`: per (workload, metric), the median
//! and quartiles of each side and a verdict against the bound that
//! `BENCHMARK.json` fixes for the metric.

use crate::stats::quartiles;
use plasticine::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How a metric is judged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the A median by which B may be worse; `None` for the
    /// per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Side B against side A for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse by at most the bound.
    Within,
    /// Worse by more than the bound.
    Regressed,
    /// Better by more than A's own spread, with every B run better than
    /// every A run and at least [`MIN_RUNS_FOR_GAIN`] runs per side.
    Improved,
    /// A side's spread is wider than the bound, and not every B run beats
    /// every A run.
    Unresolved,
    /// The metric has no bound.
    Unbounded,
}

impl Verdict {
    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// The rules `BENCHMARK.json` declares, by metric name.
///
/// # Errors
///
/// On malformed JSON or a metric without `name`/`better`.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let j = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in j.get(section).and_then(Json::as_arr).unwrap_or_default() {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let (Some(name), Some(better)) = (name, better) else {
                return Err(format!(
                    "BENCHMARK.json: {section} entry needs name and better"
                ));
            };
            let rule = Rule {
                lower_is_better: better == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            };
            out.insert(name.to_string(), rule);
        }
    }
    Ok(out)
}

/// Values per (workload, metric) over result files written with `--out`.
pub type Samples = BTreeMap<(String, String), Vec<f64>>;

/// Adds one `--out` result file to `samples`.
///
/// # Errors
///
/// On malformed JSON or a file without `workload` and `metrics`.
pub fn add_result(samples: &mut Samples, text: &str) -> Result<(), String> {
    let j = Json::parse(text).map_err(|e| e.to_string())?;
    let workload = j
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("result has no `workload`")?;
    let metrics = j
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no `metrics`")?;
    for (name, m) in metrics {
        if let Some(v) = m.get("value").and_then(Json::as_f64) {
            samples
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(())
}

/// Interquartile range over the median's magnitude; 0 for a zero median.
fn spread(v: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Fewest runs per side for an `improved` verdict.
pub const MIN_RUNS_FOR_GAIN: usize = 5;

/// Judges B against A.
pub fn verdict(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let Some(bound) = rule.bound else {
        return Verdict::Unbounded;
    };
    let (ma, mb) = (quartiles(a).1, quartiles(b).1);
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    // Positive when B is worse, as a share of A.
    let worse = if ma == 0.0 {
        sign * (mb - ma)
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let better = |x: f64, y: f64| sign * (x - y) < 0.0;
    // A gain needs enough runs on each side for the spread to mean
    // something, and every B run better than every A run.
    let all_better = a.len().min(b.len()) >= MIN_RUNS_FOR_GAIN
        && b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    if spread(a).max(spread(b)) > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > bound {
        Verdict::Regressed
    } else if -worse > spread(a) && all_better {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The comparison table, and whether any metric regressed.
pub fn table(a: &Samples, b: &Samples, rules: &BTreeMap<String, Rule>) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<30} {:>37} {:>37} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    let fmt = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:.4} [{q1:.4}, {q3:.4}] ({})", v.len())
    };
    for (key, va) in a {
        let Some(vb) = b.get(key) else { continue };
        let rule = rules.get(&key.1).copied().unwrap_or(Rule {
            lower_is_better: true,
            bound: None,
        });
        let v = verdict(va, vb, rule);
        regressed |= v == Verdict::Regressed;
        let (ma, mb) = (quartiles(va).1, quartiles(vb).1);
        let change = if ma == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (mb - ma) / ma.abs() * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<14} {:<30} {:>37} {:>37} {:>8}  {}",
            key.0,
            key.1,
            fmt(va),
            fmt(vb),
            change,
            v.name()
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower_is_better: true,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.00];
        assert_eq!(
            verdict(&a, &[1.05, 1.04, 1.06, 1.05, 1.05], LOWER),
            Verdict::Within
        );
        assert_eq!(
            verdict(&a, &[1.20, 1.21, 1.19, 1.20, 1.20], LOWER),
            Verdict::Regressed
        );
        let faster = [0.80, 0.81, 0.79, 0.80, 0.80];
        assert_eq!(verdict(&a, &faster, LOWER), Verdict::Improved);
        // One run a side says nothing about spread: no gain is claimed.
        assert_eq!(verdict(&[1.0], &[0.8], LOWER), Verdict::Within);
        let noisy = [0.5, 1.5, 1.0, 0.7, 1.4];
        assert_eq!(verdict(&a, &noisy, LOWER), Verdict::Unresolved);
        let higher = Rule {
            lower_is_better: false,
            ..LOWER
        };
        assert_eq!(verdict(&a, &faster, higher), Verdict::Regressed);
        let unbounded = Rule {
            bound: None,
            ..LOWER
        };
        assert_eq!(verdict(&a, &a, unbounded), Verdict::Unbounded);
    }

    #[test]
    fn table_reads_results_and_benchmark_rules() {
        let rules = rules(&std::fs::read_to_string(crate::BENCHMARK_JSON).unwrap()).unwrap();
        assert_eq!(rules["setup_s"].bound, Some(0.25));
        let result = |v: f64| {
            format!(
                "{{\"workload\": \"w\", \"metrics\": {{\"pass_wall_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}}}"
            )
        };
        let (mut a, mut b) = (Samples::new(), Samples::new());
        for v in [1.0, 1.01, 0.99] {
            add_result(&mut a, &result(v)).unwrap();
            add_result(&mut b, &result(v * 1.5)).unwrap();
        }
        let (text, regressed) = table(&a, &b, &rules);
        assert!(regressed, "{text}");
        assert!(
            text.contains("pass_wall_s") && text.contains("regressed"),
            "{text}"
        );
        assert!(add_result(&mut a, "{}").is_err());
    }
}
