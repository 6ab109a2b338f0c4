//! `compare <a.json> <b.json>`: one row per workload and end-to-end
//! metric, judged against the bound `BENCHMARK.json` fixes for it.

use crate::json::Json;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The runs of one side spread wider than the bound: the sets cannot
    /// resolve a change of that size.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a`; negative when
    /// it is better.
    pub worse_by: f64,
    /// The wider of the two sides' interquartile spreads, when either
    /// has at least two runs.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Values of `metric` on `workload` over the `--trace 0` runs of a
/// result file.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    results
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Option<f64>, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let spread = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (worse_by, spread, verdict)
}

/// Rows for every workload and end-to-end metric `spec` declares that
/// both result files have values for.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let workloads = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("spec has no workloads")?;
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("spec has no end_to_end")?;
    let mut rows = Vec::new();
    for w in workloads {
        let workload = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without name")?;
        for m in metrics {
            let metric = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (values(a, workload, metric), values(b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (worse_by, spread, verdict) = judge(&va, &vb, lower, bound);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.to_string(),
                a: median(&va),
                b: median(&vb),
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload and metric".into());
    }
    Ok(rows)
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<22} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a (median)", "b (median)", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<22} {:>12.4} {:>12.4} {:>8.1}% {:>8} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread
                .map_or("n=1".to_string(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            r.verdict.label()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: 120 is 20% worse, 80 is 20% better.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], true, 0.1).2,
            Verdict::Worse
        );
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0], true, 0.1).2, Verdict::Better);
        assert_eq!(
            judge(&steady, &[105.0, 104.0, 106.0], true, 0.1).2,
            Verdict::WithinBound
        );
        // Higher is better: the same numbers read the other way.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], false, 0.1).2,
            Verdict::Better
        );
        assert_eq!(judge(&steady, &[80.0, 81.0, 79.0], false, 0.1).2, Verdict::Worse);
        // A side that spreads wider than the bound resolves nothing.
        let noisy = [70.0, 100.0, 130.0, 100.0];
        assert_eq!(judge(&steady, &noisy, true, 0.1).2, Verdict::Unresolved);
        // Single runs have no spread to judge.
        let (worse_by, spread, verdict) = judge(&[100.0], &[103.0], true, 0.05);
        assert!((worse_by - 0.03).abs() < 1e-12);
        assert_eq!((spread, verdict), (None, Verdict::WithinBound));
    }

    #[test]
    fn rows_come_from_trace_zero_runs_only() {
        let spec = Json::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"lat","unit":"us","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        let file = |values: &[f64]| {
            let mut runs: Vec<Json> = values
                .iter()
                .map(|&v| {
                    Json::obj([
                        ("workload", Json::str("w")),
                        ("trace", Json::Num(0.0)),
                        (
                            "metrics",
                            Json::obj([("lat", Json::obj([("value", Json::Num(v))]))]),
                        ),
                    ])
                })
                .collect();
            runs.push(Json::obj([
                ("workload", Json::str("w")),
                ("trace", Json::Num(1.0)),
                (
                    "metrics",
                    Json::obj([("lat", Json::obj([("value", Json::Num(1e9))]))]),
                ),
            ]));
            Json::obj([("runs", Json::Arr(runs))])
        };
        let rows = compare(&spec, &file(&[10.0, 11.0, 10.0]), &file(&[13.0, 13.0, 14.0])).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].a, rows[0].b, rows[0].verdict),
            (10.0, 13.0, Verdict::Worse)
        );
        assert!(render(&rows).contains("worse"));
        assert!(compare(&spec, &file(&[]), &file(&[1.0])).is_err());
    }
}
