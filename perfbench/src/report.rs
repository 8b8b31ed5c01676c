//! A run's result: the metrics named in `BENCHMARK.json`, the
//! workload-specific metrics behind them, provenance, and the final
//! one-line JSON summary.

use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value rests on.
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, operations that failed: typed errors, wrong outputs,
    /// sheds and transport errors.
    pub failed: u64,
    /// Wrong outputs and typed errors anywhere in the run (sheds above
    /// the reference rate excluded); any makes the run incorrect.
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode (end-to-end, or
    /// per-layer when traced).
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics the listed ones are derived from.
    pub details: Vec<Metric>,
    /// Host, build and configuration facts.
    pub provenance: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let samples =
                if with_samples { format!(", \"samples\": {}", m.samples) } else { String::new() };
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Report {
    /// Record a listed metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Record a workload-specific metric.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.details.push(Metric { name: name.into(), value, unit, samples });
    }

    /// Record a provenance fact.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.into(), value.to_string()));
    }

    /// Record a wrong output or typed error.
    pub fn error(&mut self, what: String) {
        if self.errors.len() < 20 {
            eprintln!("perfbench: {what}");
        }
        self.errors.push(what);
    }

    /// Whether every output was right and every listed value finite.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The full report as JSON, with `spans` (already JSON) under
    /// `"spans"`.
    pub fn to_json(&self, spans: &str) -> String {
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {},\n\"provenance\": {{{}}},\n\"metrics\": {},\n\"details\": {},\n\"errors\": [{}],\n\"spans\": {}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            prov.join(", "),
            metrics_json(&self.metrics, true),
            metrics_json(&self.details, true),
            errors.join(", "),
            spans
        )
    }

    /// Print provenance and every metric with unit and sample count, then
    /// the one-line summary as the last line of standard output.
    pub fn print(&self) {
        for (k, v) in &self.provenance {
            println!("# {k}: {v}");
        }
        for m in self.details.iter().chain(&self.metrics) {
            println!("{:<34} {:>14} {:<6} n={}", m.name, json_num(m.value), m.unit, m.samples);
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics, false)
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.metric("latency_ms", 1.25, "ms", 3);
        let json = metrics_json(&r.metrics, false);
        assert_eq!(json, "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}");
        assert!(r.correct());
        r.metric("bad", f64::NAN, "ms", 0);
        assert!(!r.correct());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
