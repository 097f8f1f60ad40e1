//! Metric declarations and the run result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] must list exactly the metrics that
//! `BENCHMARK.json` declares, with the same units (a unit test pins
//! this). A run prints every end-to-end metric, or with `--trace 1` every
//! per-layer metric, in declaration order.

use crate::check::Tally;
use crate::spans::{layer_totals, min_op_coverage, Span};
use crate::stats::{median, percentile, sorted};
use plasticine::json::Json;
use std::collections::BTreeMap;
use std::ops::Range;

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("pass_wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. Layers are named after the crates.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workloads.build_s", "s"),
    ("workloads.verify_s", "s"),
    ("compiler.compile_s", "s"),
    ("compiler.partition_s", "s"),
    ("compiler.place_s", "s"),
    ("compiler.route_s", "s"),
    ("ppir.load_s", "s"),
    ("ppir.interp_s", "s"),
    ("ppir.trace_leaves", "count"),
    ("ppir.trace_trips", "count"),
    ("ppir.interp_ns_per_trip", "ns"),
    ("sim.model_build_s", "s"),
    ("sim.tree_build_s", "s"),
    ("sim.kernel_new_s", "s"),
    ("sim.advance_s", "s"),
    ("sim.advance_mcps", "Mcycles/s"),
    ("sim.cycles", "count"),
    ("dram.requests", "count"),
    ("sim.finish_s", "s"),
    ("sim.stats_encode_s", "s"),
    ("sim.checkpoint_save_s", "s"),
    ("sim.checkpoint_bytes", "B"),
    ("sim.checkpoint_load_s", "s"),
    ("sim.resume_s", "s"),
    ("sim.resume_redo_ratio", "ratio"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.shed", "count"),
    ("service.client_overhead_ratio", "ratio"),
    ("trace.coverage_min_ratio", "ratio"),
];

/// Daemon-side numbers of the `serve_mix` workload (zero elsewhere).
#[derive(Debug, Clone, Default)]
pub struct Service {
    /// Compile-cache hits over lookups.
    pub cache_hit_ratio: f64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Client p50 latency minus the daemon's own p50, over the client p50.
    pub client_overhead_ratio: f64,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each timed pass.
    pub pass_s: Vec<f64>,
    /// Wall seconds of each timed operation or request.
    pub op_s: Vec<f64>,
    /// The same samples grouped by batch operation, one group each;
    /// empty for `serve_mix`.
    pub per_op_s: Vec<Vec<f64>>,
    /// Checked operations.
    pub tally: Tally,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
    /// The span range of each traced pass.
    pub pass_spans: Vec<Range<usize>>,
    /// Daemon-side numbers.
    pub service: Service,
    /// Peak resident set size, in MiB, after the warm-up pass: every
    /// operation (batch) or every served (bench, scale) (serve) has run
    /// once.
    pub peak_rss_mb: f64,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub n: usize,
}

/// `latency_tail_ms` in seconds, and the samples it summarizes.
///
/// `serve_mix`: the nearest-rank 95th percentile of all requests (a run
/// completes ~300, leaving ≥ 10 beyond it). Batch: a run makes a handful
/// of passes, too few samples for any high percentile to have 10 beyond
/// it, so the tail is the median of the slowest operation (the largest
/// per-operation median), which does not jump when a faster pass lets a
/// run make more passes.
fn tail(o: &Outcome, sorted_ops: &[f64]) -> (f64, usize) {
    o.per_op_s
        .iter()
        .map(|s| (median(s), s.len()))
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((percentile(sorted_ops, 0.95), sorted_ops.len()))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let ops = sorted(&o.op_s);
    let value = |name: &str| match name {
        "pass_wall_s" => (median(&o.pass_s), o.pass_s.len()),
        "latency_p50_ms" => (percentile(&ops, 0.50) * 1e3, ops.len()),
        "latency_tail_ms" => {
            let (s, n) = tail(o, &ops);
            (s * 1e3, n)
        }
        "setup_s" => (median(&o.setup_s), o.setup_s.len()),
        "peak_rss_mb" => (o.peak_rss_mb, 1),
        _ => unreachable!("undeclared end-to-end metric {name}"),
    };
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let (value, n) = value(name);
            Metric {
                name,
                value,
                unit,
                n,
            }
        })
        .collect()
}

/// Per-layer values of one traced pass.
fn pass_layers(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let (secs, counts) = layer_totals(spans);
    let s = |n: &str| secs.get(n).copied().unwrap_or(0.0);
    let c = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let uninterrupted = s("sim.kernel_new") + s("sim.advance") + s("sim.finish");
    BTreeMap::from([
        ("workloads.build_s", s("workloads.build")),
        ("workloads.verify_s", s("workloads.verify")),
        ("compiler.compile_s", s("compiler.compile")),
        (
            "compiler.partition_s",
            c("compiler.compile.partition_ns") * 1e-9,
        ),
        ("compiler.place_s", c("compiler.compile.place_ns") * 1e-9),
        ("compiler.route_s", c("compiler.compile.route_ns") * 1e-9),
        ("ppir.load_s", s("ppir.load")),
        ("ppir.interp_s", s("ppir.interp")),
        ("ppir.trace_leaves", c("ppir.interp.leaves")),
        ("ppir.trace_trips", c("ppir.interp.trips")),
        (
            "ppir.interp_ns_per_trip",
            ratio(s("ppir.interp") * 1e9, c("ppir.interp.trips")),
        ),
        ("sim.model_build_s", s("sim.model_build")),
        ("sim.tree_build_s", s("sim.tree_build")),
        ("sim.kernel_new_s", s("sim.kernel_new")),
        ("sim.advance_s", s("sim.advance")),
        (
            "sim.advance_mcps",
            ratio(c("sim.finish.cycles") * 1e-6, s("sim.advance")),
        ),
        ("sim.cycles", c("sim.finish.cycles")),
        ("dram.requests", c("sim.finish.dram_requests")),
        ("sim.finish_s", s("sim.finish")),
        ("sim.stats_encode_s", s("sim.stats_encode")),
        ("sim.checkpoint_save_s", s("sim.checkpoint_save")),
        ("sim.checkpoint_bytes", c("sim.checkpoint_save.bytes")),
        ("sim.checkpoint_load_s", s("sim.checkpoint_load")),
        ("sim.resume_s", s("sim.resume")),
        (
            "sim.resume_redo_ratio",
            ratio(s("sim.resume"), uninterrupted),
        ),
    ])
}

/// The per-layer metrics of a traced run: per-pass values, median over
/// the traced passes; the daemon's numbers; and the smallest share of any
/// operation span that its child spans cover.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let passes: Vec<_> = o
        .pass_spans
        .iter()
        .map(|r| pass_layers(&o.spans[r.clone()]))
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "service.cache_hit_ratio" => o.service.cache_hit_ratio,
                "service.shed" => o.service.shed as f64,
                "service.client_overhead_ratio" => o.service.client_overhead_ratio,
                "trace.coverage_min_ratio" => min_op_coverage(&o.spans),
                _ => {
                    let per_pass: Vec<f64> = passes
                        .iter()
                        .map(|p| *p.get(name).expect("every layer metric is computed"))
                        .collect();
                    median(&per_pass)
                }
            };
            Metric {
                name,
                value,
                unit,
                n: passes.len(),
            }
        })
        .collect()
}

/// The result object printed as the last line of a run.
pub fn result_json(metrics: &[Metric], tally: &Tally) -> Json {
    Json::obj([
        ("correct", Json::from(tally.failed == 0)),
        ("attempted", Json::from(tally.attempted)),
        ("failed", Json::from(tally.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ])
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;

    /// The declared metrics as `BENCHMARK.json` lists them.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(crate::BENCHMARK_JSON).expect("BENCHMARK.json");
        let j = Json::parse(&text).expect("BENCHMARK.json parses");
        j.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn outcome() -> Outcome {
        let mut tr = Tracer::new();
        let op = tr.enter("op");
        let id = tr.enter("ppir.interp");
        tr.count(id, "trips", 10);
        tr.exit(id);
        tr.exit(op);
        let pass = 0..tr.spans().len();
        Outcome {
            setup_s: vec![0.5, 0.7, 0.6],
            pass_s: vec![2.0, 1.0, 3.0],
            op_s: (1..=20).map(f64::from).collect(),
            pass_spans: vec![pass],
            spans: tr.spans().to_vec(),
            ..Outcome::default()
        }
    }

    #[test]
    fn printed_metrics_are_exactly_the_declared_ones() {
        let o = outcome();
        for (printed, section) in [(end_to_end(&o), "end_to_end"), (per_layer(&o), "per_layer")] {
            let printed: Vec<(String, String)> = printed
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert!(printed.iter().all(|(n, _)| valid_name(n)), "{printed:?}");
            assert_eq!(printed, declared(section), "{section}");
        }
    }

    #[test]
    fn end_to_end_values_summarize_samples() {
        let m = end_to_end(&outcome());
        let v = |n: &str| m.iter().find(|x| x.name == n).unwrap();
        assert_eq!(v("pass_wall_s").value, 2.0);
        assert_eq!(v("latency_p50_ms").value, 10_000.0);
        assert_eq!(v("latency_tail_ms").value, 19_000.0);
        assert_eq!(v("latency_tail_ms").n, 20);
        assert_eq!(v("setup_s").value, 0.6);
        let j = result_json(&m, &Tally::default());
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn batch_tail_is_the_slowest_operations_median() {
        let o = Outcome {
            per_op_s: vec![vec![0.1, 0.3, 0.2], vec![2.0, 9.0, 1.0, 3.0], vec![0.5]],
            ..outcome()
        };
        let m = end_to_end(&o);
        let tail = m.iter().find(|x| x.name == "latency_tail_ms").unwrap();
        assert_eq!((tail.value, tail.n), (2_500.0, 4));
    }
}
