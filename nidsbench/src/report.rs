//! Metric names, units and the result line.

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("accuracy", "ratio"),
    ("detect_fps", "flows/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rate_fps", "flows/s"),
    ("ok_frac", "ratio"),
    ("events_per_s", "events/s"),
    ("recover_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).  Every
/// workload trains at least one detector and scores flows with it, so
/// each of these is measured on all three workloads; the layers only some
/// workloads reach (serve, lanes, durability) are printed as report lines.
pub const PER_LAYER: [(&str, &str); 13] = [
    ("preprocess.fit_s", "s"),
    ("preprocess.transform_s", "s"),
    ("encoder.encode_s", "s"),
    ("trainer.fit_s", "s"),
    ("trainer.epochs", "count"),
    ("regeneration.dims_regenerated", "count"),
    ("trainer.effective_dim", "count"),
    ("detector.detect_view_s", "s"),
    ("memory.score_s", "s"),
    ("kernel.dot_ops", "count"),
    ("kernel.bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage", "ratio"),
];

/// What one run found: the output checks, the operation counts and the
/// metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Names of failed output checks (empty = every check passed).
    pub mismatches: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records an output check; a failure is kept and printed.
    pub fn check(&mut self, what: &str, ok: bool) {
        println!("check {what}: {}", if ok { "ok" } else { "MISMATCH" });
        if !ok {
            self.mismatches.push(what.to_string());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The result line: exactly the metrics of `names`, in their order.
    ///
    /// # Panics
    ///
    /// Panics if a workload did not set one of them, which is a bug in the
    /// workload.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value =
                    self.value(name).unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(value),
                    json_string(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.mismatches.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number with all its digits (`{:?}` prints the shortest exact
/// form); non-finite values are a bug in the workload.
fn json_number(value: f64) -> String {
    assert!(value.is_finite(), "metric value {value} is not finite");
    format!("{value:?}")
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units the binary prints are the ones `BENCHMARK.json`
    /// declares, in both directions.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let declared = include_str!("../../BENCHMARK.json");
        let mut all: Vec<(&str, &str)> = END_TO_END.to_vec();
        all.extend(PER_LAYER);
        for (name, unit) in &all {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = declared.matches("\"unit\":").count();
        assert_eq!(
            metric_entries,
            all.len(),
            "BENCHMARK.json declares metrics the binary does not print"
        );
    }

    #[test]
    fn result_line_has_exactly_the_named_metrics() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.set("a", 1.5);
        outcome.set("b", 2.0);
        outcome.set("a", 0.25);
        let line = outcome.result_line(&[("a", "s"), ("b", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 0.25, \
             \"unit\": \"s\"}, \"b\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
    }
}
