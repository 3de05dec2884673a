//! A run's result: the human-readable report and the one-line JSON the
//! last line of standard output carries.

use std::fmt::Write;

/// Problems listed individually before the rest are only counted.
const MAX_LISTED_PROBLEMS: usize = 20;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct RunResult {
    /// Requests sent (compile: `map_request` calls; serve: frames).
    pub attempted: u64,
    /// Requests that failed or were refused, or whose output check failed.
    pub failed: u64,
    /// Every failed check, request-level and run-level.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON line.
    pub report: Vec<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check that is not tied to one request.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records a request whose output check failed.
    pub fn failed_request(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.problem(what);
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.report.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Report lines, then the problems, then the JSON object.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.report {
            out.push_str(line);
            out.push('\n');
        }
        for p in self.problems.iter().take(MAX_LISTED_PROBLEMS) {
            let _ = writeln!(out, "CHECK FAILED: {p}");
        }
        if self.problems.len() > MAX_LISTED_PROBLEMS {
            let _ = writeln!(
                out,
                "CHECK FAILED: ... and {} more",
                self.problems.len() - MAX_LISTED_PROBLEMS
            );
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_the_four_keys_and_every_metric() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.metric("latency_ms_p50", 1.25, "ms");
        r.metric("ii_sum", 494.0, "II");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ii_sum\": {\"value\": 494, \"unit\": \"II\"}}}"
        );
        r.failed_request("bad mapping");
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(r.render().ends_with(&format!("{}\n", r.json())));
    }
}
