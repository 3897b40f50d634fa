//! The run's result: metrics by name with units, and the one-line JSON
//! summary the benchmark prints last.

use std::fmt::Write as _;

use crate::check::Tally;

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records `name = value unit`; each name is recorded once per run.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(self.0.iter().all(|(n, _, _)| n != name), "{name} twice");
        self.0.push((name.to_string(), value, unit));
    }

    /// The first metric whose value is not finite.
    pub fn non_finite(&self) -> Option<&str> {
        self.0
            .iter()
            .find(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let width = self.0.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<width$}  {value:>16.6}  {unit}");
        }
        out
    }

    /// The summary line: `correct`, `attempted`, `failed` and every metric
    /// with its unit, values with all their digits.
    pub fn summary_json(&self, tally: &Tally) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.failed() == 0 && tally.attempted() > 0,
            tally.attempted(),
            tally.failed()
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from a failed
            // measurement, which the run counts as a failure.
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_is_json_with_every_digit() {
        let mut m = Metrics::default();
        m.put("solve_ms.p50", 12.345678901234, "ms");
        m.put("core.packs", 7.0, "count");
        let mut tally = Tally::default();
        tally.record(Ok::<(), String>(()));
        let line = m.summary_json(&tally);
        let v = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let p50 = v.get("metrics").unwrap().get("solve_ms.p50").unwrap();
        assert_eq!(p50.get("value").unwrap().as_f64(), Some(12.345678901234));
        assert_eq!(p50.get("unit").unwrap().as_str(), Some("ms"));
    }
}
