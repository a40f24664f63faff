//! What a run prints: a table a person can read, then — as the last
//! line of standard output — the one JSON object the pipeline reads.

use crate::catalog::MetricDef;
use std::collections::BTreeMap;

/// The result of one run, ready to print.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Payments routed over all passes of the run.
    pub attempted: u64,
    /// Payments routed in passes that broke a law. A payment the router
    /// rejected for lack of capacity is a correct outcome, not a failed
    /// operation; it is counted by `success_ratio`.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Samples behind each value (passes, payments per pass, calls...).
    pub samples: BTreeMap<&'static str, String>,
    /// Laws the run broke; empty on a correct run.
    pub violations: Vec<String>,
    /// Lines printed above the table: what ran, and measures that are
    /// informative but not part of the contract.
    pub notes: Vec<String>,
}

/// A value with five significant digits (and no exponent), for tables.
pub fn fmt_value(value: f64) -> String {
    if value == 0.0 || !value.is_finite() {
        return format!("{value}");
    }
    let digits_before_point = value.abs().log10().floor() as i32 + 1;
    let decimals = (5 - digits_before_point).clamp(0, 12) as usize;
    format!("{value:.decimals$}")
}

impl RunResult {
    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a value; a value that is not a finite number is a
    /// violation, never printed as one.
    pub fn set(&mut self, name: &'static str, value: f64, samples: impl Into<String>) {
        if value.is_finite() {
            self.values.insert(name, value);
        } else {
            self.violations.push(format!("{name} is not a number"));
            self.values.insert(name, 0.0);
        }
        self.samples.insert(name, samples.into());
    }

    /// The table, one metric of `defs` per row.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{:<36} {:>16} {:<6} {:<7} {:<6} {}\n",
            "metric", "value", "unit", "better", "bound", "samples"
        );
        for def in defs {
            let value = self.values.get(def.name).copied().unwrap_or(0.0);
            let bound = def
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            out.push_str(&format!(
                "{:<36} {:>16} {:<6} {:<7} {:<6} {}\n",
                def.name,
                fmt_value(value),
                def.unit,
                def.better.as_str(),
                bound,
                self.samples.get(def.name).map_or("-", String::as_str),
            ));
        }
        out
    }

    /// The pipeline's line: exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`, with every metric of `defs`.
    pub fn json_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|def| {
                let value = self.values.get(def.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    def.name, value, def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Reads the metric values back out of a [`RunResult::json_line`] — the
/// orchestrating modes (`--workload all`, `--repeat`) parse their
/// children's last line with this. Returns `(correct, values)`.
pub fn parse_json_line(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let correct = line.contains("\"correct\": true");
    let metrics = &line[line.find("\"metrics\": {")? + "\"metrics\": {".len()..];
    let mut values = BTreeMap::new();
    let mut rest = metrics;
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        let name = &after[..close];
        let tail = &after[close + 1..];
        let marker = "{\"value\": ";
        let at = tail.find(marker)? + marker.len();
        let number = &tail[at..];
        let end = number.find(',')?;
        values.insert(name.to_string(), number[..end].trim().parse().ok()?);
        rest = &number[number.find('}')? + 1..];
    }
    Some((correct, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::END_TO_END;

    #[test]
    fn json_line_has_the_contract_shape_and_parses_back() {
        let mut r = RunResult {
            attempted: 1234,
            ..Default::default()
        };
        for (i, def) in END_TO_END.iter().enumerate() {
            r.set(def.name, 1.5 + i as f64, "3 passes");
        }
        let line = r.json_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1234, \"failed\": 0, \"metrics\": {"));
        assert!(line.ends_with("}}"));
        assert!(!line.contains('\n'));
        let (correct, values) = parse_json_line(&line).unwrap();
        assert!(correct);
        assert_eq!(values.len(), END_TO_END.len());
        assert_eq!(values["payments_per_s"], 1.5);
        assert_eq!(values["setup_s"], 1.5 + (END_TO_END.len() - 1) as f64);
        assert!(r.table(END_TO_END).lines().count() == END_TO_END.len() + 1);
    }

    #[test]
    fn table_values_keep_five_significant_digits() {
        assert_eq!(fmt_value(0.000123456), "0.00012346");
        assert_eq!(fmt_value(0.8111), "0.81110");
        assert_eq!(fmt_value(3054.8843), "3054.9");
        assert_eq!(fmt_value(329433.3671), "329433");
        assert_eq!(fmt_value(-2.06), "-2.0600");
        assert_eq!(fmt_value(0.0), "0");
    }

    #[test]
    fn a_value_that_is_not_a_number_makes_the_run_incorrect() {
        let mut r = RunResult::default();
        r.set("payments_per_s", f64::NAN, "");
        assert!(!r.correct());
        let line = r.json_line(END_TO_END);
        assert!(line.contains("\"correct\": false"));
        assert!(!line.contains("NaN"));
        assert!(!parse_json_line(&line).unwrap().0);
    }
}
