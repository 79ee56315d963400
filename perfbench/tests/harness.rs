//! The benchmark's own tests: its catalogue matches `BENCHMARK.json`,
//! and known program defects come back as failed ops from a benchmark
//! that still exits normally and prints its result line.

use std::process::Command;

use perfbench::out::{END_TO_END, LAYER_METRICS};
use perfbench::workloads::WORKLOADS;

fn benchmark_json() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(v: &serde_json::Value, key: &str) -> Vec<(String, String)> {
    v.get(key)
        .and_then(|x| x.as_array())
        .expect("list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
    c.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_benchmark_prints() {
    let b = benchmark_json();
    assert_eq!(names(&b, "end_to_end"), catalogue(END_TO_END));
    assert_eq!(names(&b, "per_layer"), catalogue(LAYER_METRICS));
    let workloads: Vec<String> = names(&b, "workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}

/// Run the benchmark on `workload` and parse its last stdout line.
fn run(workload: &str) -> (std::process::ExitStatus, serde_json::Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    (
        out.status,
        serde_json::from_str(last).expect("result line is JSON"),
    )
}

fn assert_reported_as_failed_ops(workload: &str) {
    let (status, result) = run(workload);
    assert!(
        status.success(),
        "{workload}: the benchmark itself must not crash"
    );
    let attempted = result.get("attempted").and_then(|x| x.as_u64()).unwrap();
    let failed = result.get("failed").and_then(|x| x.as_u64()).unwrap();
    assert!(attempted > 0);
    assert_eq!(
        failed, attempted,
        "{workload}: every delivery of the pass fails"
    );
    assert_eq!(result.get("correct").and_then(|x| x.as_bool()), Some(false));
}

/// Defect (a): eight streaming groups on one node, window 2, staging
/// budget of three JAC frames: the runner's deadlock panic, then a
/// second panic while dropping the simulation aborts the process.
#[test]
fn defect_a_deadlock_abort_is_failed_ops() {
    assert_reported_as_failed_ops("defect_a1");
    assert_reported_as_failed_ops("defect_a4");
}

/// Defect (b): `stream_fanout4` with a 16-frame staging budget panics
/// with "funlock without flock" in the local filesystem.
#[test]
fn defect_b_funlock_panic_is_failed_ops() {
    assert_reported_as_failed_ops("defect_b");
}

/// Defect (c): a DYAD chaos row whose fault plan is drawn from another
/// seed than the fixed one deadlocks.
#[test]
fn defect_c_chaos_deadlock_is_failed_ops() {
    assert_reported_as_failed_ops("defect_c");
}
