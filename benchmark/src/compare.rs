//! `benchmark --compare A B`: one row per workload × end-to-end metric,
//! judged against the bounds in `BENCHMARK.json`.  `A` and `B` are result
//! files (`result.json` of a run with `--out`), or comma-separated lists
//! of them: then a side's value is the median of its runs' medians and its
//! spread runs from the smallest to the largest of those medians (a single
//! run's spread is that of its windows).

use std::collections::BTreeMap;

use serde::Value;

use crate::stats::Summary;

/// How `b` (the change) stands against `a` (the parent) on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the parent by more than the bound.
    Ok,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Either side's own min–max spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// By how much of `a`'s median `b` is worse (negative: better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs()
}

pub fn judge(a: Summary, b: Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if worse_by(a.median, b.median, higher_is_better) > bound {
        Verdict::Worse
    } else if a.rel_spread() > bound || b.rel_spread() > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// `(unit, higher_is_better, bound)` per end-to-end metric, in file order.
pub fn bounds(doc: &Value) -> Result<Vec<(String, String, bool, f64)>, String> {
    let list = doc
        .get_field("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get_field(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric lacks {k}"))
            };
            let bound = m
                .get_field("bound")
                .and_then(Value::as_num)
                .ok_or("metric lacks bound")?;
            Ok((
                s("name")?.to_string(),
                s("unit")?.to_string(),
                s("better")? == "higher",
                bound,
            ))
        })
        .collect()
}

/// One side of the comparison: per workload, per metric, the runs' values.
struct Side {
    metrics: BTreeMap<String, BTreeMap<String, Vec<Summary>>>,
    /// The first fingerprint seen per workload.
    fingerprints: BTreeMap<String, String>,
}

fn read_side(paths: &str) -> Result<Side, String> {
    let mut side = Side {
        metrics: BTreeMap::new(),
        fingerprints: BTreeMap::new(),
    };
    for path in paths.split(',') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e:?}"))?;
        let reports = doc
            .get_field("reports")
            .and_then(Value::as_array)
            .ok_or(format!("{path}: no reports"))?;
        for r in reports {
            let field = |k: &str| r.get_field(k).and_then(Value::as_str);
            let (Some(name), Some("end_to_end")) = (field("workload"), field("pass")) else {
                continue;
            };
            if let Some(f) = field("inputs_fingerprint") {
                side.fingerprints
                    .entry(name.to_string())
                    .or_insert_with(|| f.to_string());
            }
            let metrics = r
                .get_field("metrics")
                .and_then(Value::as_object)
                .ok_or(format!("{path}: no metrics"))?;
            for (metric, m) in metrics {
                let num = |k: &str| m.get_field(k).and_then(Value::as_num);
                let (Some(value), Some(min), Some(max)) = (num("value"), num("min"), num("max"))
                else {
                    return Err(format!("{path}: {name}.{metric} lacks value/min/max"));
                };
                side.metrics
                    .entry(name.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(Summary {
                        median: value,
                        min,
                        max,
                    });
            }
        }
    }
    Ok(side)
}

fn pooled(runs: &[Summary]) -> Summary {
    match runs {
        [only] => *only,
        _ => Summary::of(&runs.iter().map(|r| r.median).collect::<Vec<_>>()),
    }
}

/// Prints the table; `Ok(true)` when no row is `worse`.
pub fn run(a: &str, b: &str, bounds_path: &str) -> Result<bool, String> {
    let text = std::fs::read_to_string(bounds_path).map_err(|e| format!("{bounds_path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{bounds_path}: {e:?}"))?;
    let bounds = bounds(&doc)?;
    let (a, b) = (read_side(a)?, read_side(b)?);
    let mut clean = true;
    println!(
        "{:<18} {:<17} {:>13} {:>13} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (workload, a_metrics) in &a.metrics {
        let Some(b_metrics) = b.metrics.get(workload) else {
            continue;
        };
        if a.fingerprints.get(workload) != b.fingerprints.get(workload) {
            println!("{workload:<18} inputs_fingerprint differs: the two sides did not run the same inputs");
            clean = false;
        }
        for (metric, unit, higher, bound) in &bounds {
            let (Some(ra), Some(rb)) = (a_metrics.get(metric), b_metrics.get(metric)) else {
                continue;
            };
            let (sa, sb) = (pooled(ra), pooled(rb));
            let verdict = judge(sa, sb, *higher, *bound);
            clean &= verdict != Verdict::Worse;
            println!(
                "{workload:<18} {metric:<17} {:>13.4} {:>13.4} {:>+7.1}% {:>5.1}%  {} ({unit})",
                sa.median,
                sb.median,
                100.0 * worse_by(sa.median, sb.median, *higher),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                },
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary { median, min, max }
    }

    #[test]
    fn ok_worse_unresolved_on_hand_made_pairs() {
        // Lower is better, bound 10 %: +5 % is ok, +12 % is worse.
        assert_eq!(
            judge(s(100.0, 98.0, 102.0), s(105.0, 103.0, 106.0), false, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(s(100.0, 98.0, 102.0), s(112.0, 111.0, 113.0), false, 0.10),
            Verdict::Worse
        );
        // An improvement is never worse, whatever its size.
        assert_eq!(
            judge(s(100.0, 98.0, 102.0), s(50.0, 49.0, 51.0), false, 0.10),
            Verdict::Ok
        );
        // Higher is better: a drop of 12 % is worse, a rise is ok.
        assert_eq!(
            judge(s(1000.0, 990.0, 1010.0), s(880.0, 870.0, 890.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(
                s(1000.0, 990.0, 1010.0),
                s(1200.0, 1190.0, 1210.0),
                true,
                0.10
            ),
            Verdict::Ok
        );
        // Windows of one side spread over 30 %: a 10 % bound cannot be
        // resolved, so "no worse" is not claimed.
        assert_eq!(
            judge(s(100.0, 85.0, 115.0), s(103.0, 102.0, 104.0), false, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(s(100.0, 99.0, 101.0), s(103.0, 80.0, 120.0), false, 0.10),
            Verdict::Unresolved
        );
        // Clearly worse stays worse even when noisy.
        assert_eq!(
            judge(s(100.0, 85.0, 115.0), s(150.0, 140.0, 160.0), false, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn runs_pool_to_the_median_and_range_of_their_medians() {
        let p = pooled(&[s(10.0, 9.0, 11.0), s(12.0, 11.5, 14.0), s(11.0, 8.0, 12.0)]);
        assert_eq!(p, s(11.0, 10.0, 12.0));
        // One run keeps the spread of its own windows.
        assert_eq!(pooled(&[s(10.0, 9.0, 11.0)]), s(10.0, 9.0, 11.0));
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let doc: Value = serde_json::from_str(
            r#"{"end_to_end":[{"name":"p50_us","unit":"us","better":"lower","bound":0.1},
                              {"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.08}]}"#,
        )
        .unwrap();
        let b = bounds(&doc).unwrap();
        assert_eq!(b[0], ("p50_us".into(), "us".into(), false, 0.1));
        assert_eq!(b[1], ("ops_per_s".into(), "1/s".into(), true, 0.08));
    }
}
