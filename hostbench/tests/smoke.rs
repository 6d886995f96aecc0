//! Tiny-size runs of every workload, untraced and traced: every metric
//! `BENCHMARK.json` names is emitted with its unit, nothing fails, and the
//! counts that must repeat do repeat.
//!
//! One test function on purpose: the traced run switches `RAPID_THREADS`
//! for its 2-thread pass, and the environment is process-wide.

use rapid_hostbench::{run, Report, RunConfig, Scale, WORKLOADS};
use rapid_telemetry::json::Json;

fn listed(kind: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Report {
    let cfg = RunConfig {
        workload: workload.into(),
        seed,
        seconds: 0.05,
        trace,
        scale: Scale::Tiny,
        trace_path: None,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"))
}

#[test]
fn every_workload_emits_every_metric_and_repeats_its_counts() {
    std::env::set_var("RAPID_THREADS", "1");
    for w in WORKLOADS {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let rep = tiny(w, 7, trace);
            assert_eq!(rep.failed, 0, "{w} trace={trace}: {:?}", rep.notes);
            assert!(rep.attempted > 0);
            let names = listed(kind);
            assert_eq!(rep.metrics.len(), names.len(), "{w}: metric count");
            for (name, unit) in names {
                let m = rep
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert_eq!(m.unit, unit, "{w}: {name} unit");
                assert!(m.value.is_finite(), "{w}: {name} = {}", m.value);
            }
            if trace {
                let again = tiny(w, 7, true);
                for name in [
                    "numerics.macs",
                    "numerics.gated_frac",
                    "numerics.calls",
                    "sim.cycles",
                    "sim.weight_stalls",
                ] {
                    assert_eq!(
                        rep.get(name),
                        again.get(name),
                        "{w}: {name} must repeat exactly"
                    );
                }
                // At tiny sizes an item lasts microseconds, so one preemption
                // between spans moves coverage a lot; the ≥ 0.95 target is
                // checked on full-size traced runs.
                let coverage = rep.get("trace.coverage").unwrap_or(0.0);
                assert!(
                    coverage > 0.0 && coverage <= 1.0,
                    "{w}: trace coverage {coverage}"
                );
            }
        }
        // A second seed runs clean too.
        assert_eq!(tiny(w, 8, false).failed, 0, "{w}: seed 8");
    }
}
