//! Samples, summary statistics and the result line.

/// A metric as reported: a value and its unit, plus the samples it
/// summarizes (empty when it is a single measurement).
#[derive(Clone, Debug)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: &'static str,
    /// Unit spelling.
    pub unit: &'static str,
    /// Reported value.
    pub value: f64,
    /// Samples behind `value`.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single measured value.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of `samples`.
    ///
    /// # Panics
    ///
    /// On an empty sample: every workload takes at least one.
    pub fn median(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric::quantile(name, unit, samples, 0.5)
    }

    /// Quantile `q` of `samples`.
    ///
    /// # Panics
    ///
    /// On an empty sample.
    pub fn quantile(name: &'static str, unit: &'static str, samples: Vec<f64>, q: f64) -> Metric {
        Metric {
            name,
            unit,
            value: quantile(&samples, q),
            samples,
        }
    }
}

/// Linear-interpolated quantile `q` of a non-empty sample.
///
/// # Panics
///
/// On an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything one run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Cells attempted.
    pub attempted: u64,
    /// Cells that errored, timed out or differed from the oracle.
    pub failed: u64,
    /// Why each failed cell failed, plus run-level check failures.
    pub errors: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one cell: attempted, and failed when `result` is an error.
    pub fn cell(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    /// Records a check that is not a cell (it makes the run incorrect
    /// without counting an operation).
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Whether every cell and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
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
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table: the reported value, then the median, p10
    /// and p90 of its samples and their count.
    pub fn table(&self) -> String {
        let mut s = format!(
            "{:<40} {:>13} {:>13} {:>13} {:>13} {:>4}  unit\n",
            "metric", "value", "median", "p10", "p90", "n"
        );
        for m in &self.metrics {
            let q = |p: f64| {
                if m.samples.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.6}", quantile(&m.samples, p))
                }
            };
            s.push_str(&format!(
                "{:<40} {:>13.6} {:>13} {:>13} {:>13} {:>4}  {}\n",
                m.name,
                m.value,
                q(0.5),
                q(0.1),
                q(0.9),
                m.samples.len().max(1),
                m.unit
            ));
        }
        s
    }
}

/// JSON has no NaN or infinity; a metric that cannot be computed is 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
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
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
    }

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::default();
        o.cell(Ok(()));
        o.metrics.push(Metric::single("wall_s", "s", 1.25));
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
