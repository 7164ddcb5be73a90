//! `compare A.json B.json` — one row per (workload, metric) with both
//! medians, their quartiles, the ratio and its base, and a verdict
//! against the bound `BENCHMARK.json` fixes for the metric.

use crate::json::Value;

/// What `compare` concluded about one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B is worse than A by more than the bound.
    Worse,
    /// The run-to-run spread of A or B is wider than the bound, so
    /// neither "worse" nor "unchanged" can be said.
    Unresolved,
    /// A per-layer metric: reported, never gated.
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// `{value, median, q1, q3}` of one metric in one file.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The reported value.
    pub value: f64,
    /// Median of the per-pass samples behind it.
    pub median: f64,
    /// First quartile of the samples behind it.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Sample {
    fn from_json(v: &Value) -> Option<Sample> {
        Some(Sample {
            value: v.get("value")?.as_f64()?,
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
        })
    }

    /// Inter-quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Judges B against A for a metric with the given direction and bound.
/// `worse_by` is the share of A's median by which B is worse (negative
/// when B is better).
pub fn judge(a: Sample, b: Sample, higher_is_better: bool, bound: f64) -> (f64, Verdict) {
    let delta = if higher_is_better {
        a.value - b.value
    } else {
        b.value - a.value
    };
    let worse_by = if a.value == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / a.value.abs()
    };
    let verdict = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// `(name, higher_is_better, bound)` for every metric of one list of
/// `BENCHMARK.json`; per-layer metrics carry no bound.
fn metric_rules(benchmark: &Value, list: &str) -> Result<Vec<(String, bool, Option<f64>)>, String> {
    benchmark
        .get(list)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no {list} list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            match (name, better) {
                (Some(name), Some(better)) => Ok((
                    name.to_string(),
                    better == "higher",
                    m.get("bound").and_then(Value::as_f64),
                )),
                _ => Err(format!("a {list} entry lacks a name or a direction")),
            }
        })
        .collect()
}

/// The `workloads` object of a results file, or a single workload
/// record wrapped as one.
fn workloads_of(results: &Value) -> Vec<(String, &Value)> {
    if let Some(fields) = results.get("workloads").and_then(Value::as_object) {
        return fields.iter().map(|(k, v)| (k.clone(), v)).collect();
    }
    match results.get("workload").and_then(Value::as_str) {
        Some(name) => vec![(name.to_string(), results)],
        None => Vec::new(),
    }
}

/// Compares two results files. Prints the table and returns how many
/// rows were `worse` and how many `unresolved`.
///
/// # Errors
///
/// Returns a message when a file lacks what the comparison needs.
pub fn compare<'a>(
    a: &'a Value,
    b: &'a Value,
    benchmark: &Value,
) -> Result<(usize, usize), String> {
    let commit = |v: &Value| {
        v.get("git_commit")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string()
    };
    println!("A = {}   B = {}", commit(a), commit(b));
    println!(
        "{:<12} {:<32} {:>14} {:>14} {:>22} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "B/A (base A)", "worse by", "bound"
    );
    let workloads_b = workloads_of(b);
    let (mut worse, mut unresolved) = (0, 0);
    for (workload, record_a) in workloads_of(a) {
        let Some((_, record_b)) = workloads_b.iter().find(|(name, _)| *name == workload) else {
            println!("{workload:<12} only in A");
            continue;
        };
        for list in ["end_to_end", "per_layer"] {
            for (name, higher_is_better, bound) in metric_rules(benchmark, list)? {
                let metric = |record: &'a Value| record.get(list).and_then(|m| m.get(&name));
                let (ma, mb) = (metric(record_a), metric(record_b));
                let (Some(sa), Some(sb)) = (
                    ma.and_then(Sample::from_json),
                    mb.and_then(Sample::from_json),
                ) else {
                    continue;
                };
                let (worse_by, verdict) = match bound {
                    Some(bound) => judge(sa, sb, higher_is_better, bound),
                    None => (
                        judge(sa, sb, higher_is_better, f64::INFINITY).0,
                        Verdict::Info,
                    ),
                };
                worse += usize::from(verdict == Verdict::Worse);
                unresolved += usize::from(verdict == Verdict::Unresolved);
                let unit = ma
                    .and_then(|m| m.get("unit"))
                    .and_then(Value::as_str)
                    .unwrap_or("");
                println!(
                    "{workload:<12} {name:<32} {:>14.6} {:>14.6} {:>9.4} of {:>9.4} {unit:<6} {:>+8.2}% {:>7}  {}",
                    sa.value,
                    sb.value,
                    sb.value / sa.value,
                    sa.value,
                    worse_by * 100.0,
                    bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                    verdict.label(),
                );
                if verdict != Verdict::Info {
                    println!(
                        "{:<45} passes: A median {:.6} [{:.6}, {:.6}]  B median {:.6} [{:.6}, {:.6}]",
                        "", sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3
                    );
                }
            }
        }
    }
    println!("{worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(v: f64) -> Sample {
        Sample {
            value: v,
            median: v,
            q1: v,
            q3: v,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 8 % slower against a 7 % bound is worse.
        assert_eq!(judge(flat(1.0), flat(1.08), false, 0.07).1, Verdict::Worse);
        assert_eq!(judge(flat(1.0), flat(1.05), false, 0.07).1, Verdict::Ok);
        assert_eq!(judge(flat(1.0), flat(0.5), false, 0.07).1, Verdict::Ok);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(flat(1.0), flat(0.9), true, 0.07).1, Verdict::Worse);
        assert_eq!(judge(flat(1.0), flat(1.5), true, 0.07).1, Verdict::Ok);
        // A spread wider than the bound resolves nothing.
        let noisy = Sample {
            value: 1.0,
            median: 1.0,
            q1: 0.9,
            q3: 1.1,
        };
        assert_eq!(judge(noisy, flat(1.0), false, 0.07).1, Verdict::Unresolved);
        // Exact metrics: bound 0 tolerates equality only.
        assert_eq!(judge(flat(100.0), flat(100.0), false, 0.0).1, Verdict::Ok);
        assert_eq!(
            judge(flat(100.0), flat(101.0), false, 0.0).1,
            Verdict::Worse
        );
    }
}
