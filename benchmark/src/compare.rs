//! `cs-benchmark compare A.json B.json`: apply each end-to-end metric's
//! bound, workload by workload, to two result documents — A the
//! reference, B the candidate.

use std::fmt::Write as _;

use serde::Value;

use crate::report::{Better, EndToEnd, END_TO_END};

/// Median, min and max of one metric on one workload in one document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Sample {
    /// Run-to-run range as a share of the median.
    fn spread(&self) -> f64 {
        (self.max - self.min) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Unchanged,
    /// Within the bound, but either set's own range is wider than the
    /// bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate `b` against reference `a`. A move counts only when
/// it is strictly larger than both the metric's relative bound and its
/// absolute floor.
pub fn judge(metric: &EndToEnd, a: Sample, b: Sample) -> Verdict {
    let delta = b.median - a.median;
    let worse_by = match metric.better {
        Better::Lower => delta,
        Better::Higher => -delta,
    };
    let allowed = (metric.bound * a.median.abs()).max(metric.floor);
    if worse_by > allowed {
        Verdict::Regressed
    } else if -worse_by > allowed {
        Verdict::Improved
    } else if [a, b]
        .iter()
        .any(|s| s.spread() > metric.bound && s.max - s.min > metric.floor)
    {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `failed_share` has bound 0: any rise is a regression.
pub fn judge_failed_share(a: f64, b: f64) -> Verdict {
    if b > a {
        Verdict::Regressed
    } else if b < a {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn sample(workload: &Value, metric: &str) -> Option<Sample> {
    let m = field(field(workload, "end_to_end")?, metric)?;
    Some(Sample {
        median: number(field(m, "median")?)?,
        min: number(field(m, "min")?)?,
        max: number(field(m, "max")?)?,
    })
}

/// The comparison table and whether anything regressed.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let workloads = |doc: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        field(doc, "workloads")
            .and_then(Value::as_map)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a cs-benchmark result: no `workloads` object".to_string())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut regressed = false;
    let _ = writeln!(
        out,
        "{:<14} {:<18} {:>14} {:>14} {:>9}  verdict",
        "metric", "workload", "A median", "B median", "change"
    );
    for (name, doc_a) in &wa {
        let Some((_, doc_b)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{:<14} {name:<18} missing from B", "-");
            regressed = true;
            continue;
        };
        for metric in END_TO_END.iter() {
            let (Some(sa), Some(sb)) = (sample(doc_a, metric.name), sample(doc_b, metric.name))
            else {
                let _ = writeln!(out, "{:<14} {name:<18} no samples", metric.name);
                regressed = true;
                continue;
            };
            let verdict = judge(metric, sa, sb);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<14} {name:<18} {:>14.6} {:>14.6} {:>+8.2}%  {} (bound {:.0}%)",
                metric.name,
                sa.median,
                sb.median,
                100.0 * (sb.median - sa.median) / sa.median,
                verdict.as_str(),
                100.0 * metric.bound
            );
        }
        let share = |doc: &Value| field(doc, "failed_share").and_then(number).unwrap_or(1.0);
        let verdict = judge_failed_share(share(doc_a), share(doc_b));
        regressed |= verdict == Verdict::Regressed;
        let _ = writeln!(
            out,
            "{:<14} {name:<18} {:>14.6} {:>14.6} {:>9}  {} (bound 0)",
            "failed_share",
            share(doc_a),
            share(doc_b),
            "",
            verdict.as_str()
        );
        // Exact for a fixed seed: a speed-only change leaves them
        // bit-identical, a golden regeneration must argue each move.
        if field(a, "seed") == field(b, "seed") {
            let exact = if field(doc_a, "exact") == field(doc_b, "exact") {
                "identical"
            } else {
                "DIFFERS"
            };
            let _ = writeln!(out, "{:<14} {name:<18} {exact}", "exact+fidelity");
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(x: f64) -> Sample {
        Sample {
            median: x,
            min: x,
            max: x,
        }
    }

    /// Fixed metric definitions, so the edge cases below do not move
    /// when a bound in the production table is re-measured.
    const TIME: EndToEnd = EndToEnd {
        name: "pipeline_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    };
    const RATE: EndToEnd = EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    };
    const SETUP: EndToEnd = EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.01,
    };

    #[test]
    fn a_move_of_exactly_the_bound_is_not_a_regression() {
        assert_eq!(judge(&TIME, flat(100.0), flat(125.0)), Verdict::Unchanged);
        assert_eq!(judge(&TIME, flat(100.0), flat(125.1)), Verdict::Regressed);
        assert_eq!(judge(&TIME, flat(100.0), flat(75.0)), Verdict::Unchanged);
        assert_eq!(judge(&TIME, flat(100.0), flat(74.9)), Verdict::Improved);
        assert_eq!(judge(&RATE, flat(100.0), flat(74.9)), Verdict::Regressed);
        assert_eq!(judge(&RATE, flat(100.0), flat(75.0)), Verdict::Unchanged);
        assert_eq!(judge(&RATE, flat(100.0), flat(130.0)), Verdict::Improved);
    }

    #[test]
    fn setup_has_an_absolute_floor() {
        // +100 %, but only 4 ms: below the 10 ms floor.
        assert_eq!(judge(&SETUP, flat(0.004), flat(0.008)), Verdict::Unchanged);
        assert_eq!(judge(&SETUP, flat(0.004), flat(0.0141)), Verdict::Regressed);
        // Above the floor the relative bound rules.
        assert_eq!(judge(&SETUP, flat(1.0), flat(1.2)), Verdict::Unchanged);
        assert_eq!(judge(&SETUP, flat(1.0), flat(1.26)), Verdict::Regressed);
    }

    #[test]
    fn wide_ranges_are_unresolved_not_unchanged() {
        let noisy = Sample {
            median: 100.0,
            min: 85.0,
            max: 115.0,
        };
        assert_eq!(judge(&TIME, flat(100.0), noisy), Verdict::Unresolved);
        assert_eq!(judge(&TIME, noisy, flat(101.0)), Verdict::Unresolved);
        // A clear regression stays a regression however noisy.
        let worse = Sample {
            median: 140.0,
            min: 100.0,
            max: 180.0,
        };
        assert_eq!(judge(&TIME, flat(100.0), worse), Verdict::Regressed);
    }

    #[test]
    fn any_new_failure_regresses() {
        assert_eq!(judge_failed_share(0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge_failed_share(0.0, 0.2), Verdict::Regressed);
        assert_eq!(judge_failed_share(0.2, 0.0), Verdict::Improved);
    }

    #[test]
    fn documents_compare_row_by_row() {
        let doc = |pipeline: f64, failed: f64| -> Value {
            serde_json::from_str(&format!(
                r#"{{"seed": 1, "workloads": {{"w": {{"failed_share": {failed},
                    "exact": {{"events": 5}},
                    "end_to_end": {{
                      "setup_s": {{"median": 0.5, "min": 0.5, "max": 0.5}},
                      "pipeline_s": {{"median": {pipeline}, "min": {pipeline}, "max": {pipeline}}},
                      "work_per_s": {{"median": 9.0, "min": 9.0, "max": 9.0}},
                      "peak_rss_mb": {{"median": 50.0, "min": 50.0, "max": 50.0}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let (table, regressed) = compare(&doc(2.0, 0.0), &doc(2.1, 0.0)).unwrap();
        assert!(!regressed, "{table}");
        assert_eq!(table.matches("unchanged").count(), 5, "{table}");
        assert!(table.contains("identical"));
        let (table, regressed) = compare(&doc(2.0, 0.0), &doc(3.0, 0.0)).unwrap();
        assert!(regressed && table.contains("REGRESSED"), "{table}");
        assert!(compare(&doc(2.0, 0.0), &doc(2.0, 0.2)).unwrap().1);
        assert!(compare(&Value::Null, &doc(2.0, 0.0)).is_err());
    }
}
