//! `--compare <a.jsonl> <b.jsonl>`: two sets of runs (the lines `--out`
//! appends) side by side, per workload and end-to-end metric, with a
//! verdict against the metric's bound.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{parse, Json};
use crate::spec::{Better, END_TO_END, WORKLOADS};

/// Timings that depend on the host and the latency profile, not on the
/// workload or on the code above the fabric: a pure-CPU loop in the
/// benchmark's own code, and the single-threaded fabric rungs. If they moved
/// between two sets, the host changed and nothing else in the comparison
/// can be trusted. (`fabric.call_all3_p50_us` and `fabric.fan_out6_p50_us`
/// are left out: three spinning legs on two vCPUs, and a 2 µs no-op, swing
/// by more than the tolerance between two runs of one binary.)
const CANARIES: [&str; 4] = [
    "workload.cpu_canary_us",
    "fabric.call_p50_us",
    "fabric.device_read_p50_us",
    "fabric.device_append_p50_us",
];
const CANARY_TOLERANCE: f64 = 0.10;

/// Metric values of one set: workload -> metric -> one value per run.
#[derive(Default)]
pub struct RunSet {
    by_workload: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl RunSet {
    pub fn parse(text: &str) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (n, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let workload = v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("line {}: no \"workload\"", n + 1))?;
            let metrics = v
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("line {}: no \"metrics\"", n + 1))?;
            let per_metric = set.by_workload.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    per_metric.entry(name.clone()).or_default().push(value);
                }
            }
        }
        Ok(set)
    }

    fn values(&self, workload: &str, metric: &str) -> &[f64] {
        self.by_workload
            .get(workload)
            .and_then(|m| m.get(metric))
            .map_or(&[], Vec::as_slice)
    }

    /// Values of `metric` over every workload's runs.
    fn pooled(&self, metric: &str) -> Vec<f64> {
        self.by_workload
            .values()
            .filter_map(|m| m.get(metric))
            .flatten()
            .copied()
            .collect()
    }
}

pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the median
/// (quartiles as Python's `statistics.quantiles(xs, n=4)` gives them).
/// `None` below four values.
pub fn spread(xs: &[f64]) -> Option<f64> {
    if xs.len() < 4 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: f64| {
        let pos = k * (v.len() + 1) as f64 / 4.0 - 1.0;
        let lo = (pos.floor().max(0.0) as usize).min(v.len() - 1);
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64).clamp(0.0, 1.0)
    };
    median(&v).map(|m| (q(3.0) - q(1.0)) / m)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Better,
    Unresolved,
}

/// `b` against `a`: how much worse `b`'s median is, as a share of `a`'s
/// (negative when better), and the verdict at `bound`. A spread of `a`'s
/// own runs wider than the bound cannot resolve a difference of that size.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<(f64, Verdict)> {
    let (ma, mb) = (median(a)?, median(b)?);
    let worse_by = match better {
        Better::Higher => (ma - mb) / ma,
        Better::Lower => (mb - ma) / ma,
    };
    let verdict = if spread(a).is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    Some((worse_by, verdict))
}

/// Renders the comparison; the flag says whether any metric is `worse`.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut host_moved = false;
    writeln!(
        out,
        "noise canaries (pooled over workloads, median a -> b):"
    )
    .unwrap();
    for name in CANARIES {
        match (median(&a.pooled(name)), median(&b.pooled(name))) {
            (Some(ma), Some(mb)) => {
                let rel = (mb - ma) / ma;
                let moved = rel.abs() > CANARY_TOLERANCE;
                host_moved |= moved;
                writeln!(
                    out,
                    "  {name:<30} {ma:>10.2} -> {mb:>10.2} us  {:+6.1}%{}",
                    rel * 100.0,
                    if moved { "  DISAGREE" } else { "" }
                )
                .unwrap();
            }
            _ => writeln!(out, "  {name:<30} no traced runs in both sets").unwrap(),
        }
    }
    if host_moved {
        writeln!(
            out,
            "canaries disagree by more than {:.0}%: every verdict below is unresolved",
            CANARY_TOLERANCE * 100.0
        )
        .unwrap();
    }
    let mut any_worse = false;
    for wl in &WORKLOADS {
        writeln!(out, "{}:", wl.name).unwrap();
        for (def, bound) in END_TO_END {
            let (va, vb) = (a.values(wl.name, def.name), b.values(wl.name, def.name));
            let Some((worse_by, mut verdict)) = judge(va, vb, def.better, *bound) else {
                writeln!(out, "  {:<12} missing from a set", def.name).unwrap();
                continue;
            };
            if host_moved {
                verdict = Verdict::Unresolved;
            }
            any_worse |= verdict == Verdict::Worse;
            let fmt_spread =
                |v: &[f64]| spread(v).map_or("n/a".into(), |s| format!("{:.1}%", s * 100.0));
            writeln!(
                out,
                "  {:<12} a={:>12.3} b={:>12.3} {:<4} ({} runs, spread {} / {} runs, spread {})  worse by {:+6.2}%  bound {:.0}%  {:?}",
                def.name,
                median(va).unwrap_or(f64::NAN),
                median(vb).unwrap_or(f64::NAN),
                def.unit,
                va.len(),
                fmt_spread(va),
                vb.len(),
                fmt_spread(vb),
                worse_by * 100.0,
                bound * 100.0,
                verdict
            )
            .unwrap();
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // quantiles([10, 11, 12, 13], n=4) == [10.25, 11.5, 12.75]
        assert!((spread(&[13.0, 10.0, 12.0, 11.0]).unwrap() - 2.5 / 11.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn judge_respects_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let j = |b: &[f64], better| judge(&steady, b, better, 0.07).unwrap().1;
        assert_eq!(j(&[90.0], Better::Higher), Verdict::Worse);
        assert_eq!(j(&[90.0], Better::Lower), Verdict::Better);
        assert_eq!(j(&[104.0], Better::Lower), Verdict::Within);
        assert_eq!(j(&[110.0], Better::Lower), Verdict::Worse);
        let noisy = [80.0, 120.0, 95.0, 105.0, 100.0];
        assert_eq!(
            judge(&noisy, &[150.0], Better::Lower, 0.07).unwrap().1,
            Verdict::Unresolved
        );
        assert!(judge(&[], &[1.0], Better::Lower, 0.07).is_none());
    }

    fn line(workload: &str, metric: &str, value: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"metrics\": \
             {{\"{metric}\": {{\"value\": {value}, \"unit\": \"x\"}}}}}}\n"
        )
    }

    #[test]
    fn compare_flags_a_regression_and_defers_to_the_canaries() {
        let a = line("write-cached", "txn_per_s", 2000.0)
            + &line("write-cached", "fabric.call_p50_us", 150.0);
        let slow = line("write-cached", "txn_per_s", 1500.0)
            + &line("write-cached", "fabric.call_p50_us", 152.0);
        let (text, worse) = compare(&RunSet::parse(&a).unwrap(), &RunSet::parse(&slow).unwrap());
        assert!(worse, "{text}");
        assert!(text.contains("Worse"));
        let other_host = line("write-cached", "txn_per_s", 1500.0)
            + &line("write-cached", "fabric.call_p50_us", 190.0);
        let (text, worse) = compare(
            &RunSet::parse(&a).unwrap(),
            &RunSet::parse(&other_host).unwrap(),
        );
        assert!(!worse, "{text}");
        assert!(text.contains("Unresolved") && text.contains("DISAGREE"));
    }
}
