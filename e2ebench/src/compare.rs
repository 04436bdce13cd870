//! `vire-bench compare A B`: labels every end-to-end metric of every
//! workload as improved, worse, unchanged or unresolved between two sets
//! of run files, applying the bounds in `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, relative_spread};
use std::collections::BTreeMap;
use std::path::Path;

/// How a metric moved between a base set of runs and a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Worse,
    /// Within the bound either way.
    Unchanged,
    /// The run-to-run spread of a side is wider than the bound, and the
    /// new runs do not all beat the base runs.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Classifies one metric. `base` and `new` are the values of each run;
/// `bound` is the share of the base median the metric may worsen by.
/// Returns the verdict and the signed relative change of the medians.
pub fn classify(base: &[f64], new: &[f64], bound: f64, higher_is_better: bool) -> (Verdict, f64) {
    let (mb, mn) = (median(base), median(new));
    let change = (mn - mb) / mb.abs();
    let gain = if higher_is_better { change } else { -change };
    let spread = relative_spread(base).max(relative_spread(new));
    if spread > bound {
        let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
        let all_better = if higher_is_better {
            fold(new, f64::min, f64::INFINITY) > fold(base, f64::max, f64::NEG_INFINITY)
        } else {
            fold(new, f64::max, f64::NEG_INFINITY) < fold(base, f64::min, f64::INFINITY)
        };
        let verdict = if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
        return (verdict, change);
    }
    let verdict = if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, change)
}

/// A bounded metric from `BENCHMARK.json`.
struct Bound {
    name: String,
    bound: f64,
    higher_is_better: bool,
}

fn bounds(doc: &Json) -> Result<Vec<Bound>, String> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .into(),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
                higher_is_better: m.get("better").and_then(Json::as_str) == Some("higher"),
            })
        })
        .collect()
}

/// workload → metric → one value per run.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads a run file, or every `*.json` run file in a directory.
fn load(path: &Path) -> Result<Samples, String> {
    let files = if path.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        files
    } else {
        vec![path.to_path_buf()]
    };
    let mut out = Samples::new();
    for file in files {
        let doc = read_json(&file)?;
        // Span files and other JSON in the directory are not run files.
        let (Some(workload), Some(Json::Obj(metrics))) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("end_to_end"),
        ) else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no run files", path.display()));
    }
    Ok(out)
}

/// Runs the comparison and prints one row per workload. Returns whether
/// no metric got worse.
pub fn compare(benchmark: &Path, base: &Path, new: &Path) -> Result<bool, String> {
    let bounds = bounds(&read_json(benchmark)?)?;
    let (base, new) = (load(base)?, load(new)?);
    let mut ok = true;
    println!(
        "{:<16} {}",
        "workload",
        bounds
            .iter()
            .map(|b| format!("{:<24}", format!("{} (±{}%)", b.name, b.bound * 100.0)))
            .collect::<String>()
    );
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            println!("{workload:<16} (no new runs)");
            continue;
        };
        let mut row = format!("{workload:<16} ");
        for b in &bounds {
            let cell = match (base_metrics.get(&b.name), new_metrics.get(&b.name)) {
                (Some(x), Some(y)) => {
                    let (verdict, change) = classify(x, y, b.bound, b.higher_is_better);
                    ok &= verdict != Verdict::Worse;
                    format!("{} {:+.1}%", verdict.label(), change * 100.0)
                }
                _ => "missing".to_string(),
            };
            row.push_str(&format!("{cell:<24}"));
        }
        println!("{}", row.trim_end());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_apply_bound_direction_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        let faster = [80.0, 81.0, 79.0, 80.0, 80.5];
        let same = [101.0, 100.0, 102.0, 99.5, 100.0];
        assert_eq!(classify(&base, &slower, 0.1, false).0, Verdict::Worse);
        assert_eq!(classify(&base, &faster, 0.1, false).0, Verdict::Improved);
        assert_eq!(classify(&base, &slower, 0.1, true).0, Verdict::Improved);
        assert_eq!(classify(&base, &same, 0.1, false).0, Verdict::Unchanged);
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(classify(&noisy, &slower, 0.1, false).0, Verdict::Unresolved);
        // Every new run beats every base run: improved despite the spread.
        let far = [10.0, 12.0, 11.0, 10.5, 11.5];
        assert_eq!(classify(&noisy, &far, 0.1, false).0, Verdict::Improved);
    }
}
