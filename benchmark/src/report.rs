//! The names the benchmark speaks: workloads, end-to-end metrics with their
//! bounds, per-layer metrics, and the one-line JSON result the driver reads.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use crate::layers::Metrics;

/// `(name, why it was chosen)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "pipeline_paper",
        "the paper's campaign (2 304 000 samples) on Pool::new(2): kernels plus fork/join, chunking and skew; a runtime scheduling change must show here",
    ),
    (
        "pipeline_serial",
        "the same op on Pool::new(1), where every entry point is Pool::run_serial: bypasses runtime, so a fork/join change predicts no change while a kernel change moves both",
    ),
    (
        "serve_cold",
        "2 closed-loop clients submit never-seen 288-cell matrices: every cell misses, so queue, compute_cell, encode and cache inserts under steady S3-FIFO eviction do the work",
    ),
    (
        "serve_warm",
        "2 closed-loop clients cycle over 32 prefilled 288-cell matrices: zero compute, so parse, resolve, content keys, hot lookups and the per-row flushed writes do the work",
    ),
];

/// One end-to-end metric. All are costs: lower is better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen. `None`
    /// for a metric demoted to the layer table: still measured and printed
    /// by every run, gated by nothing (README, "Spread").
    pub bound: Option<f64>,
}

/// The four measured end-to-end metrics; the fifth, `fail_ratio`, travels
/// as the result's `attempted` / `failed` counts because it reads 0.
/// `BENCHMARK.json` lists the bounded ones under `end_to_end` and the
/// demoted ones, under the same names, at the top of `per_layer`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_wall_ms",
        unit: "ms",
        bound: None,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        bound: None,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: Some(0.25),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: Some(0.10),
    },
];

/// What an untraced run measured, in [`END_TO_END`] order.
pub struct Measured {
    pub op_wall_ms: f64,
    pub cpu_ms_per_op: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// `(name, unit, better)` of every per-layer metric, layer by layer. A
/// metric of the other workload family (a pipeline stage or a sort probe on
/// a serve workload, a server counter or a cache probe on a pipeline
/// workload) reads 0 there: that layer did no work in that run.
pub const PER_LAYER: [(&str, &str, &str); 55] = [
    // Demoted from the gated list: their run-to-run spread on this host is
    // wider than half the widest bound ISSUE 12 allows (README, "Spread").
    ("op_wall_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    // The measurement floor and each run's own noise.
    ("bench.timer_read_ns", "ns", "lower"),
    ("bench.ref_kernel_ms", "ms", "lower"),
    ("bench.loopback_rtt_us", "us", "lower"),
    ("bench.loopback_line_us", "us", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.block_spread_pct", "%", "lower"),
    ("bench.op_wall_hi_ms", "ms", "lower"),
    ("bench.op_wall_hi_pct", "%", "higher"),
    ("bench.samples", "count", "higher"),
    ("bench.work_per_s", "1/s", "higher"),
    // cluster
    ("cluster.generate_ms", "ms", "lower"),
    // analysis
    ("analysis.sweep_ms", "ms", "lower"),
    ("analysis.trace_scan_ms", "ms", "lower"),
    ("analysis.delivery_sweep_ms", "ms", "lower"),
    ("analysis.stage_sum_ratio", "ratio", "higher"),
    ("pipeline.samples_per_op", "count", "higher"),
    ("pipeline.groups_per_op", "count", "higher"),
    // stats
    ("stats.sort48_ns_per_elem", "ns", "lower"),
    ("stats.sort9600_ns_per_elem", "ns", "lower"),
    ("stats.merge_ns_per_elem", "ns", "lower"),
    ("stats.battery48_us", "us", "lower"),
    ("stats.battery9600_us", "us", "lower"),
    ("stats.phi_ns_per_elem", "ns", "lower"),
    ("stats.weights_hit_ratio", "ratio", "higher"),
    // partcomm
    ("partcomm.run_delivery_us", "us", "lower"),
    ("partcomm.run_delivery_fabric8_us", "us", "lower"),
    // runtime
    ("runtime.busy_ms", "ms", "lower"),
    ("runtime.overhead_ms", "ms", "lower"),
    ("runtime.skew", "ratio", "lower"),
    ("runtime.fork_us", "us", "lower"),
    // serve::protocol / scenario / coalesce
    ("serve.protocol.parse_us", "us", "lower"),
    ("serve.scenario.resolve_us", "us", "lower"),
    ("serve.scenario.key_ns_per_cell", "ns", "lower"),
    ("serve.coalesce.probe_ns_per_cell", "ns", "lower"),
    ("serve.scenario.compute_us_per_cell", "us", "lower"),
    ("serve.encode_row_ns", "ns", "lower"),
    // serve::cache / s3fifo
    ("serve.cache.lookup_hit_ns", "ns", "lower"),
    ("serve.cache.insert_ns", "ns", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions_per_op", "count", "lower"),
    ("serve.cache.cold_append_us", "us", "lower"),
    ("serve.cache.cold_read_us", "us", "lower"),
    // serve::server + runtime::queue, scraped over the `metrics` verb
    ("serve.queue.wait_mean_us", "us", "lower"),
    ("serve.job.run_mean_us", "us", "lower"),
    ("serve.worker.utilization", "ratio", "higher"),
    ("serve.request.server_mean_ms", "ms", "lower"),
    ("serve.bytes_written_per_op", "B", "lower"),
    ("serve.bytes_read_per_op", "B", "lower"),
    ("serve.cells_per_op", "count", "higher"),
    ("serve.cells.identity_ok", "count", "higher"),
    // serve::client + socket
    ("serve.client.residual_ms", "ms", "lower"),
    ("serve.client.submit_p99_ms", "ms", "lower"),
    ("serve.warm.stream_residual_us", "us", "lower"),
];

/// The two ratios that reconcile one workload with its sibling. No single
/// run can measure them, so `suite` forms them from the sibling runs' layer
/// tables: `(name, unit, what it divides)`.
pub const CROSS_WORKLOAD: [(&str, &str, &str); 2] = [
    (
        "runtime.scaling_efficiency",
        "ratio",
        "op_wall_ms of pipeline_serial / (2 x op_wall_ms of pipeline_paper)",
    ),
    (
        "serve.cold.cpu_explained_ratio",
        "ratio",
        "(cells x (compute + encode + insert probes) + cpu_ms_per_op of serve_warm) / cpu_ms_per_op of serve_cold",
    ),
];

/// `(name, unit, value)`.
type Value3 = (&'static str, &'static str, f64);

/// What one run hands back: the driver's four keys, and what the run
/// measured beyond them.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics `BENCHMARK.json` names for this kind of run, in its order.
    pub metrics: Vec<Value3>,
    /// The demoted end-to-end metrics of an untraced run.
    pub demoted: Vec<Value3>,
}

fn metrics_json(metrics: &[Value3]) -> String {
    // `{}` prints an `f64` with every digit needed to read it back exactly.
    let entries: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!("{{{}}}", entries.join(","))
}

/// What the `#` line that carries an untraced run's demoted metrics to
/// `suite` and `agree` starts with.
const DEMOTED_PREFIX: &str = "# demoted ";

impl RunResult {
    /// The end-to-end result of an untraced run.
    pub fn end_to_end(attempted: u64, failed: u64, m: &Measured) -> Self {
        let values = [m.op_wall_ms, m.cpu_ms_per_op, m.setup_s, m.peak_rss_mb];
        let of = |gated: bool| {
            END_TO_END
                .iter()
                .zip(values)
                .filter(|(e, _)| e.bound.is_some() == gated)
                .map(|(e, v)| (e.name, e.unit, v))
                .collect()
        };
        RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics: of(true),
            demoted: of(false),
        }
    }

    /// The layer table of a traced run: every name of [`PER_LAYER`], 0 for
    /// a layer this run did not exercise.
    pub fn per_layer(attempted: u64, failed: u64, values: &Metrics) -> Self {
        debug_assert!(
            values
                .keys()
                .all(|k| PER_LAYER.iter().any(|(n, _, _)| n == k)),
            "a probe reported a metric the table does not name"
        );
        RunResult {
            correct: failed == 0,
            attempted,
            failed,
            metrics: PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    let v = values.get(name).copied().unwrap_or(0.0);
                    (name, unit, if v.is_finite() { v } else { 0.0 })
                })
                .collect(),
            demoted: Vec::new(),
        }
    }

    /// The result as the single JSON line the driver parses.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The `#` line an untraced run prints above its result.
    pub fn demoted_line(&self) -> String {
        format!("{DEMOTED_PREFIX}{}", metrics_json(&self.demoted))
    }

    /// The value of metric `name`, if this result carries it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.demoted)
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }
}

/// Reads a result back from what a child run printed: the JSON object on
/// its last line, and the demoted metrics from the `#` line that has them.
pub fn parse_result(stdout: &str) -> Result<RunResult, String> {
    use serde::value::get_field;
    use serde::Value;
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let bad = |what: &str| format!("result line: {what}: `{line}`");
    let number = |v: &Value| match v {
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    };
    let metrics = |value: &Value| -> Result<Vec<Value3>, String> {
        let entries = value
            .as_object()
            .ok_or_else(|| bad("metrics is not an object"))?;
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, entry) in entries {
            let known = END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
                .find(|(n, _)| n == name)
                .ok_or_else(|| bad(&format!("unknown metric {name}")))?;
            let fields = entry.as_object().ok_or_else(|| bad("metric entry"))?;
            let v = get_field(fields, "value")
                .ok()
                .and_then(number)
                .ok_or_else(|| bad("metric value"))?;
            metrics.push((known.0, known.1, v));
        }
        Ok(metrics)
    };
    let value: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
    let top = value.as_object().ok_or_else(|| bad("not an object"))?;
    let field = |name: &str| get_field(top, name).map_err(|e| bad(&e.to_string()));
    let demoted = match stdout.lines().find_map(|l| l.strip_prefix(DEMOTED_PREFIX)) {
        Some(json) => metrics(&serde_json::from_str(json).map_err(|e| bad(&e.to_string()))?)?,
        None => Vec::new(),
    };
    Ok(RunResult {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: number(field("attempted")?).ok_or_else(|| bad("attempted"))? as u64,
        failed: number(field("failed")?).ok_or_else(|| bad("failed"))? as u64,
        metrics: metrics(field("metrics")?)?,
        demoted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::value::get_field;
    use serde::Value;

    #[test]
    fn result_round_trips_with_every_digit() {
        let result = RunResult::end_to_end(
            1234,
            0,
            &Measured {
                op_wall_ms: 0.1 + 0.2,
                cpu_ms_per_op: 2.5,
                setup_s: 1.0 / 3.0,
                peak_rss_mb: 66.0,
            },
        );
        // The driver's line carries the bounded metrics and only those.
        let line = result.json_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1234,\"failed\":0,"));
        assert!(line.contains("setup_s") && !line.contains("op_wall_ms"));
        let back = parse_result(&line).unwrap();
        assert!(back.correct);
        assert_eq!((back.attempted, back.failed), (1234, 0));
        assert_eq!(back.value("setup_s"), Some(1.0 / 3.0));
        assert_eq!(back.value("op_wall_ms"), None);
        // With the `#` line above it, a parent process reads the rest too.
        let stdout = format!("# x\n{}\n{line}\n", result.demoted_line());
        let back = parse_result(&stdout).unwrap();
        assert_eq!(back.value("op_wall_ms"), Some(0.1 + 0.2));
        assert_eq!(back.value("peak_rss_mb"), Some(66.0));
        assert_eq!(back.value("nope"), None);
        assert!(!RunResult::end_to_end(3, 1, &m()).correct);
    }

    fn m() -> Measured {
        Measured {
            op_wall_ms: 1.0,
            cpu_ms_per_op: 1.0,
            setup_s: 1.0,
            peak_rss_mb: 1.0,
        }
    }

    #[test]
    fn layer_table_prints_every_name_and_zero_for_idle_layers() {
        let mut values = Metrics::new();
        values.insert("runtime.skew", 1.25);
        let result = RunResult::per_layer(10, 0, &values);
        assert_eq!(result.metrics.len(), PER_LAYER.len());
        assert_eq!(result.value("runtime.skew"), Some(1.25));
        assert_eq!(result.value("serve.queue.wait_mean_us"), Some(0.0));
        let back = parse_result(&result.json_line()).unwrap();
        assert_eq!(back.metrics.len(), PER_LAYER.len());
    }

    fn names(list: &Value) -> Vec<Vec<(String, String)>> {
        let Value::Array(items) = list else {
            panic!("expected a list");
        };
        items
            .iter()
            .map(|item| {
                item.as_object()
                    .unwrap()
                    .iter()
                    .map(|(k, v)| {
                        let text = match v {
                            Value::String(s) => s.clone(),
                            Value::F64(f) => f.to_string(),
                            other => panic!("unexpected {other:?}"),
                        };
                        (k.clone(), text)
                    })
                    .collect()
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables above name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let top = value.as_object().unwrap();
        let pair = |k: &str, v: &str| (k.to_string(), v.to_string());

        let workloads = names(get_field(top, "workloads").unwrap());
        let expected: Vec<_> = WORKLOADS
            .iter()
            .map(|(n, w)| vec![pair("name", n), pair("why", w)])
            .collect();
        assert_eq!(workloads, expected);

        let gated = names(get_field(top, "end_to_end").unwrap());
        let expected: Vec<_> = END_TO_END
            .iter()
            .filter_map(|m| {
                Some(vec![
                    pair("name", m.name),
                    pair("unit", m.unit),
                    pair("better", "lower"),
                    pair("bound", &m.bound?.to_string()),
                ])
            })
            .collect();
        assert_eq!(gated, expected);

        let layers = names(get_field(top, "per_layer").unwrap());
        let expected: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u, b)| vec![pair("name", n), pair("unit", u), pair("better", b)])
            .collect();
        assert_eq!(layers, expected);
    }
}
