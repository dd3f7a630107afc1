//! The benchmark's smoke test: every workload at its smallest size, with
//! the oracle on, tracing off and on. Each run must be correct, and the
//! metric names it prints must be exactly those `BENCHMARK.json` lists for
//! that mode. Two traced runs at one seed must repeat the deterministic
//! work counters exactly.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use ipcl_tracetool::json::Json;

const WORKLOADS: [&str; 3] = ["preset-matrix", "serve-hits", "serve-batch"];

/// Counters that must not move between runs at one seed.
const DETERMINISTIC: [&str; 11] = [
    "pdr.solve_calls",
    "pdr.obligations",
    "pdr.clauses",
    "pdr.generalization_drops",
    "sat.conflicts",
    "sat.propagations",
    "bmc.solve_calls",
    "cache.hits",
    "cache.misses",
    "unroll.gates",
    "bitsim.lane_violations",
];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn declared(section: &str) -> BTreeSet<String> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

/// Runs one smoke workload and returns its parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_ipcl-perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .output()
        .expect("benchmark runs");
    assert!(
        output.status.success(),
        "{workload}: exit {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    result
}

fn metric_names(result: &Json) -> BTreeSet<String> {
    result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, _)| name.clone())
        .collect()
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    let workloads: BTreeSet<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect();
    assert_eq!(workloads, WORKLOADS.iter().map(|w| w.to_string()).collect());
    for workload in WORKLOADS {
        let plain = run(workload, 7, false);
        assert_eq!(
            metric_names(&plain),
            end_to_end,
            "{workload} end-to-end names"
        );
        assert_eq!(value(&plain, "verdict_ok_frac"), 1.0);
        assert!(value(&plain, "props_per_s") > 0.0);
        let traced = run(workload, 7, true);
        assert_eq!(
            metric_names(&traced),
            per_layer,
            "{workload} per-layer names"
        );
    }
}

#[test]
fn work_counters_repeat_exactly_at_one_seed() {
    for workload in WORKLOADS {
        let first = run(workload, 11, true);
        let second = run(workload, 11, true);
        for name in DETERMINISTIC {
            assert_eq!(
                value(&first, name),
                value(&second, name),
                "{workload}: {name} differs between runs at one seed"
            );
        }
    }
}

#[test]
fn a_bad_command_line_fails_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_ipcl-perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
