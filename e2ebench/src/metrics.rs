//! The metric catalogue and one run's outcome: values, gates, the
//! result line, and the files a run leaves under `target/vire-bench/`.
//!
//! The names and units below are the ones `BENCHMARK.json` declares; a
//! unit test keeps the two in step. Bounds live only in
//! `BENCHMARK.json`.

use crate::json::{obj, Json};
use crate::run::RunConfig;
use crate::trace::{write_json, SpanLog};
use crate::workload::Workload;
use std::path::{Path, PathBuf};

/// End-to-end metrics, reported by every workload from the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ingest_ev_s", "ev/s"),
    ("fix_p50_us", "us"),
    ("fix_p90_us", "us"),
];

/// Per-layer metrics, reported by every workload from the traced run.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("codec.encode_ns_ev", "ns/ev"),
    ("codec.decode_ns_ev", "ns/ev"),
    ("codec.bytes_ev", "B/ev"),
    ("ingest.conn_ns_ev", "ns/ev"),
    ("ingest.ring_ns_ev", "ns/ev"),
    ("ingest.front_ns_ev", "ns/ev"),
    ("ingest.coalesced_ratio", "ratio"),
    ("route.ns_ev", "ns/ev"),
    ("bus.publish_ns_ev", "ns/ev"),
    ("middleware.pump_ns_ev", "ns/ev"),
    ("middleware.changed_ratio", "ratio"),
    ("middleware.export_us_drive", "us/drive"),
    ("middleware.dirty_cells_drive", "cells/drive"),
    ("sync.us_drive", "us/drive"),
    ("sync.reused", "count"),
    ("sync.patched", "count"),
    ("sync.rebuilt", "count"),
    ("sync.cells_patch", "cells/patch"),
    ("locate.us_tag", "us/tag"),
    ("locate.tags_drive", "tags/drive"),
    ("locate.err_ratio", "ratio"),
    ("kalman.us_tag", "us/tag"),
    ("query.inproc_ns", "ns"),
    ("server.undriven_ratio", "ratio"),
    ("server.transport_us", "us"),
    ("server.coalesced_ratio", "ratio"),
    ("server.frames", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.sum_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// How many samples it was computed from.
    pub samples: usize,
}

/// One correctness gate.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name.
    pub name: String,
    /// Whether it held.
    pub pass: bool,
    /// What was observed.
    pub detail: String,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The workload run.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Phase lengths.
    pub config: RunConfig,
    /// Fingerprint of the generated batch stream.
    pub inputs_fnv: u64,
    /// End-to-end metrics, in [`END_TO_END`] order once complete.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only), in [`PER_LAYER`] order.
    pub per_layer: Vec<Metric>,
    /// Values printed for context but not gated (tails, accuracy).
    pub diagnostics: Vec<Metric>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Client operations attempted.
    pub attempted: u64,
    /// Client operations that errored, plus tracked tags not `Fresh`
    /// at the end of a session.
    pub failed: u64,
    /// Replay self time per span name: `(name, seconds, spans)`.
    pub budget: Vec<(&'static str, f64, u64)>,
    /// Replay wall time `(untraced, traced)`, seconds.
    pub replay_wall_s: (f64, f64),
    /// Recorded spans `(socket, replay)` of a traced run.
    pub trace_doc: Option<(SpanLog, SpanLog)>,
}

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> (&'static str, &'static str) {
    *table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not in the metric catalogue"))
}

fn metric_json(m: &Metric, with_samples: bool) -> Json {
    let mut fields = vec![
        ("value", Json::Num(m.value)),
        ("unit", Json::Str(m.unit.into())),
    ];
    if with_samples {
        fields.push(("samples", Json::Num(m.samples as f64)));
    }
    obj(fields)
}

fn metrics_json(ms: &[Metric], with_samples: bool) -> Json {
    obj(ms.iter().map(|m| (m.name, metric_json(m, with_samples))))
}

impl Outcome {
    /// An empty outcome for one run.
    pub fn new(workload: Workload, seed: u64, config: &RunConfig, inputs_fnv: u64) -> Self {
        Outcome {
            workload,
            seed,
            config: *config,
            inputs_fnv,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            diagnostics: Vec::new(),
            gates: Vec::new(),
            attempted: 0,
            failed: 0,
            budget: Vec::new(),
            replay_wall_s: (0.0, 0.0),
            trace_doc: None,
        }
    }

    /// Records a gate.
    pub fn gate(&mut self, name: &str, pass: bool, detail: String) {
        self.gates.push(Gate {
            name: name.into(),
            pass,
            detail,
        });
    }

    /// Records an end-to-end metric from [`END_TO_END`].
    pub fn end_to_end(&mut self, name: &str, value: f64, samples: usize) {
        let (name, unit) = unit_of(&END_TO_END, name);
        self.end_to_end.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a per-layer metric from [`PER_LAYER`].
    pub fn per_layer(&mut self, name: &str, value: f64, samples: usize) {
        let (name, unit) = unit_of(&PER_LAYER, name);
        self.per_layer.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Records a diagnostic value.
    pub fn diagnostic(
        &mut self,
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.diagnostics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Every gate held and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.pass)
    }

    /// The one-line result: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    pub fn result_line(&self) -> Json {
        let metrics = if self.config.trace_seconds.is_some() {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(metrics, false)),
        ])
    }

    /// The full record of the run (the run file's contents).
    pub fn run_doc(&self) -> Json {
        let c = &self.config;
        obj([
            ("workload", Json::Str(self.workload.name().into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(c.seconds)),
            ("warmup_seconds", Json::Num(c.warmup)),
            ("standups", Json::Num(c.standups as f64)),
            (
                "trace_seconds",
                c.trace_seconds.map_or(Json::Null, Json::Num),
            ),
            ("inputs_fnv", Json::Str(format!("{:016x}", self.inputs_fnv))),
            (
                "threads",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("end_to_end", metrics_json(&self.end_to_end, true)),
            ("per_layer", metrics_json(&self.per_layer, true)),
            ("diagnostics", metrics_json(&self.diagnostics, true)),
            (
                "gates",
                obj(self.gates.iter().map(|g| {
                    (
                        g.name.clone(),
                        obj([
                            ("pass", Json::Bool(g.pass)),
                            ("detail", Json::Str(g.detail.clone())),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// Writes the run file and, for a traced run, the span file into
    /// `dir`. Returns the paths written.
    pub fn write_files(&self, dir: &Path) -> Result<Vec<PathBuf>, String> {
        let name = self.workload.name();
        let suffix = if self.trace_doc.is_some() {
            "-trace"
        } else {
            ""
        };
        let run = dir.join(format!("{name}-seed{}{suffix}.json", self.seed));
        write_json(&run, &self.run_doc())?;
        let mut written = vec![run];
        if let Some((socket, replay)) = &self.trace_doc {
            let path = dir.join(format!("trace-{name}.json"));
            let doc = obj([
                ("workload", Json::Str(name.into())),
                ("seed", Json::Num(self.seed as f64)),
                ("replay_wall_untraced_s", Json::Num(self.replay_wall_s.0)),
                ("replay_wall_traced_s", Json::Num(self.replay_wall_s.1)),
                (
                    "self_s_by_span",
                    obj(self.budget.iter().map(|&(n, s, _)| (n, Json::Num(s)))),
                ),
                ("socket", socket.to_json()),
                ("replay", replay.to_json()),
            ]);
            write_json(&path, &doc)?;
            written.push(path);
        }
        Ok(written)
    }

    /// Human-readable report.
    pub fn print(&self) {
        let c = &self.config;
        println!(
            "== {} (seed {}; {} s timed after {} s warm-up; median of {} stand-ups; inputs {:016x}; {} threads)",
            self.workload.name(),
            self.seed,
            c.seconds,
            c.warmup,
            c.standups,
            self.inputs_fnv,
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        let table = |title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            println!("  {title}");
            for m in ms {
                println!(
                    "    {:<30} {:>16.4} {:<12} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        };
        table("end-to-end", &self.end_to_end);
        table("diagnostics", &self.diagnostics);
        table("per-layer (traced replay and socket)", &self.per_layer);
        if !self.budget.is_empty() {
            let (untraced, traced) = self.replay_wall_s;
            println!(
                "  replay budget: self time per span, share of the untraced replay wall ({untraced:.3} s; traced {traced:.3} s)"
            );
            let mut budget = self.budget.clone();
            budget.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (name, s, n) in budget {
                println!(
                    "    {:<28} {:>10.3} ms {:>6.1}%  spans={n}",
                    name,
                    s * 1e3,
                    100.0 * s / untraced
                );
            }
        }
        println!("  gates");
        for g in &self.gates {
            println!(
                "    [{}] {}: {}",
                if g.pass { "pass" } else { "FAIL" },
                g.name,
                g.detail
            );
        }
        println!(
            "  {} (attempted {}, failed {})",
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            },
            self.attempted,
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the workloads and metrics the
    /// harness reports, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }
}
