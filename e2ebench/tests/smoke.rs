//! Smoke-runs every workload for a fraction of a second, traced, so
//! `cargo test` builds and exercises the whole harness: stand-up, paced
//! clients, gates, both replays, and the span attribution. No timing is
//! asserted; only correctness and that every metric was produced.

use vire_bench::metrics::{END_TO_END, PER_LAYER};
use vire_bench::{run, RunConfig, Workload};

#[test]
fn every_workload_runs_correctly_end_to_end() {
    let config = RunConfig {
        seconds: 0.3,
        warmup: 0.1,
        standups: 1,
        trace_seconds: Some(0.3),
    };
    for workload in Workload::ALL {
        let out =
            run::run(workload, 5, &config).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        for g in &out.gates {
            assert!(
                g.pass,
                "{}: gate {} failed: {}",
                workload.name(),
                g.name,
                g.detail
            );
        }
        assert!(
            out.correct(),
            "{}: {} failed operations",
            workload.name(),
            out.failed
        );
        let names =
            |ms: &[vire_bench::metrics::Metric]| ms.iter().map(|m| m.name).collect::<Vec<_>>();
        let want = |t: &[(&'static str, &str)]| t.iter().map(|(n, _)| *n).collect::<Vec<_>>();
        assert_eq!(
            names(&out.end_to_end),
            want(&END_TO_END),
            "{}",
            workload.name()
        );
        assert_eq!(
            names(&out.per_layer),
            want(&PER_LAYER),
            "{}",
            workload.name()
        );
        assert!(out.trace_doc.is_some());
    }
}
