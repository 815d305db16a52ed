//! Named metric values of one run, and the result line that ends it.

use std::fmt::Write as _;

use crate::json::quote;
use crate::spec::MetricDef;

/// Metric values collected during a run, checked against the declared
/// table before anything is printed.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
    /// Metrics with no meaning on this workload or no samples in this run;
    /// they print as 0 and are listed beside the table.
    pub undefined: Vec<&'static str>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// `None` (an empty histogram, a ratio over zero) reads 0 and is listed
    /// as undefined.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.set(name, v),
            _ => {
                self.undefined.push(name);
                self.set(name, 0.0);
            }
        }
    }

    /// `num / den`, undefined when `den` is 0.
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set_opt(name, (den != 0.0).then(|| num / den));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Pairs every declared metric with its value, in declaration order.
    /// Errors name what was declared but not measured, measured but not
    /// declared, or measured twice: the names are a contract.
    pub fn finish(&self, defs: &[MetricDef]) -> Result<Vec<(MetricDef, f64)>, String> {
        let mut problems = String::new();
        for (name, _) in &self.values {
            match self.values.iter().filter(|(n, _)| n == name).count() {
                1 => {}
                n => write!(problems, " {name} set {n} times;").unwrap(),
            }
            if !defs.iter().any(|d| d.name == *name) {
                write!(problems, " {name} is not declared;").unwrap();
            }
        }
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            match self.get(d.name) {
                Some(v) if v.is_finite() => out.push((*d, v)),
                Some(v) => write!(problems, " {} is {v};", d.name).unwrap(),
                None => write!(problems, " {} was not measured;", d.name).unwrap(),
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(format!("metric contract broken:{problems}"))
        }
    }
}

/// What a run found, beyond its metrics.
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(verdict: &Verdict, metrics: &[(MetricDef, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.correct, verdict.attempted, verdict.failed
    );
    for (i, (def, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write!(
            s,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(def.name),
            quote(def.unit)
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

/// One aligned line per metric: name, value, unit, direction.
pub fn table(metrics: &[(MetricDef, f64)]) -> String {
    let mut s = String::new();
    for (def, value) in metrics {
        writeln!(
            s,
            "  {:<44} {:>16.4} {:<6} ({} is better)",
            def.name,
            value,
            def.unit,
            def.better.as_str()
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use crate::spec::Better;

    const DEFS: [MetricDef; 2] = [
        MetricDef {
            name: "a.x_us",
            unit: "us",
            better: Better::Lower,
        },
        MetricDef {
            name: "b.rate",
            unit: "1/s",
            better: Better::Higher,
        },
    ];

    #[test]
    fn finish_enforces_the_declared_names() {
        let mut m = Metrics::default();
        m.set("a.x_us", 1.5);
        assert!(m
            .finish(&DEFS)
            .unwrap_err()
            .contains("b.rate was not measured"));
        m.set_ratio("b.rate", 1.0, 0.0);
        assert_eq!(m.undefined, vec!["b.rate"]);
        let done = m.finish(&DEFS).unwrap();
        assert_eq!(done[1].1, 0.0);
        m.set("c.extra", 1.0);
        assert!(m
            .finish(&DEFS)
            .unwrap_err()
            .contains("c.extra is not declared"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_digits() {
        let mut m = Metrics::default();
        m.set("a.x_us", 1.203456789012);
        m.set("b.rate", 7.0);
        let line = result_json(
            &Verdict {
                correct: true,
                attempted: 10,
                failed: 0,
            },
            &m.finish(&DEFS).unwrap(),
        );
        assert!(!line.contains('\n'));
        let v = parse(&line).unwrap();
        let keys: Vec<_> = v.as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let x = v.get("metrics").unwrap().get("a.x_us").unwrap();
        assert_eq!(x.get("value"), Some(&Json::Num(1.203456789012)));
        assert_eq!(x.get("unit"), Some(&Json::Str("us".into())));
    }
}
