//! Metric names, units and the result line.

use std::fmt::Write as _;

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("fps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_us_per_frame", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Modules whose self time is reported, over every workload.
pub const MODULES: [&str; 8] = [
    "video_streaming",
    "pose_detection",
    "activity_recognition",
    "rep_counter",
    "display",
    "src",
    "work",
    "sink",
];

/// Services whose handle and wait times are reported, over every workload.
pub const SERVICES: [&str; 5] = [
    "pose_detector",
    "activity_classifier",
    "rep_counter",
    "display",
    "double",
];

/// Per-layer metrics other than the module and service times.
const LAYERS: [(&str, &str); 32] = [
    ("e2e.latency_p99_ms", "ms"),
    ("flow.admit_lag_us", "us"),
    ("flow.offered", "count"),
    ("flow.dropped", "count"),
    ("reactor.hop_us", "us"),
    ("reactor.tasks_run", "count"),
    ("reactor.unparks", "count"),
    ("reactor.steals_succeeded", "count"),
    ("reactor.timer_fires", "count"),
    ("reactor.queue_high_water", "count"),
    ("dispatch.requests", "count"),
    ("dispatch.batches", "count"),
    ("dispatch.max_queue_depth", "count"),
    ("media.send_us", "us"),
    ("media.decode_hop_us", "us"),
    ("media.encode_hits", "count"),
    ("media.encode_misses", "count"),
    ("net.hop_us", "us"),
    ("net.tx_frames", "count"),
    ("net.tx_vectored_writes", "count"),
    ("net.tx_iovecs", "count"),
    ("net.rx_zero_copy_frames", "count"),
    ("net.rx_payload_copies", "count"),
    ("net.pool_misses", "count"),
    ("trace.residual_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.frames", "count"),
    ("trace.spans", "count"),
    ("runner.nproc", "count"),
    ("runner.workers", "count"),
    ("runner.memcpy_gbps", "GB/s"),
    ("runner.pingpong_us", "us"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`), in
/// `BENCHMARK.json` order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    out.extend(
        MODULES
            .iter()
            .map(|m| (format!("module.{m}.self_us"), "us")),
    );
    for s in SERVICES {
        out.push((format!("service.{s}.handle_us"), "us"));
        out.push((format!("service.{s}.wait_us"), "us"));
    }
    out
}

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: String,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Samples behind a percentile or median, when it is one.
    pub samples: Option<usize>,
}

/// A run's result: correctness, operation counts and metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No output check failed.
    pub correct: bool,
    /// Frames admitted by flow control.
    pub attempted: u64,
    /// Faulted frames plus frames failing an output check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Human-readable table: one metric a line, with unit and sample count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {}{samples}",
                m.name, m.value, m.unit
            );
        }
        let _ = writeln!(
            out,
            "  operations attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        out
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A float as a JSON number with every digit (`Display` prints the
/// shortest representation that reads back to the same `f64`).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "fps".into(),
                unit: "1/s",
                value: 230.25,
                samples: Some(3),
            }],
        };
        assert_eq!(
            outcome.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"fps\": {\"value\": 230.25, \"unit\": \"1/s\"}}}"
        );
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let names_in = |section: &str| -> Vec<String> {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer"), layers);
    }
}
