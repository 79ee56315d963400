//! Same-seed determinism against pinned fixtures (PR 4).
//!
//! Two fixture files guard the hot-path overhaul:
//!
//! * `determinism_pr4.json` — captured on the code *before* the
//!   virtual-time bandwidth model and executor rework. DYAD and XFS
//!   makespans must match it bit-for-bit (the virtual-time model is
//!   algebraically identical for their flow patterns); Lustre is allowed
//!   a tiny relative drift because exact finish tags replace the old
//!   `FINISH_EPS` residual threshold in a float-sensitive interference
//!   mix. Staging lifecycle counters must match exactly everywhere.
//! * `determinism_pr4_pinned.json` — captured on the *current* model.
//!   Everything, including event counts, must match exactly; any change
//!   here means a code change silently altered trajectories.
//!
//! Run `hotpath --fixtures <path>` to regenerate after an intentional
//! trajectory change, and say so in the commit message.

use mdflow::prelude::*;

const BEFORE: &str = include_str!("fixtures/determinism_pr4.json");
const PINNED: &str = include_str!("fixtures/determinism_pr4_pinned.json");

/// Largest relative makespan drift tolerated for Lustre vs the
/// before-overhaul capture (observed ~1e-4 at 64 pairs).
const LUSTRE_TOL: f64 = 5e-4;

struct Fixture {
    solution: &'static str,
    pairs: u32,
    frames: u64,
    seed: u64,
    makespan_ns: u64,
    events: u64,
    staging: serde_json::Value,
}

fn parse(raw: &'static str) -> Vec<Fixture> {
    let v: serde_json::Value = serde_json::from_str(raw).expect("fixture json");
    v["fixtures"]
        .as_array()
        .expect("fixtures array")
        .iter()
        .map(|f| Fixture {
            solution: match f["solution"].as_str().expect("solution") {
                "dyad" => "dyad",
                "xfs" => "xfs",
                "lustre" => "lustre",
                other => panic!("unknown solution {other}"),
            },
            pairs: f["pairs"].as_u64().expect("pairs") as u32,
            frames: f["frames"].as_u64().expect("frames"),
            seed: f["seed"].as_u64().expect("seed"),
            makespan_ns: f["makespan_ns"].as_u64().expect("makespan_ns"),
            events: f["events"].as_u64().expect("events"),
            staging: f["staging"].clone(),
        })
        .collect()
}

fn run(f: &Fixture) -> RunMetrics {
    run_with_calibration(f, Calibration::corona())
}

fn run_with_calibration(f: &Fixture, cal: Calibration) -> RunMetrics {
    let wf = match f.solution {
        "dyad" => WorkflowConfig::new(
            Solution::Dyad,
            f.pairs,
            Placement::Split { pairs_per_node: 8 },
        ),
        "xfs" => WorkflowConfig::new(Solution::Xfs, f.pairs, Placement::SingleNode),
        "lustre" => WorkflowConfig::new(
            Solution::Lustre,
            f.pairs,
            Placement::Split { pairs_per_node: 8 },
        ),
        other => panic!("unknown solution {other}"),
    }
    .with_frames(f.frames);
    run_once(&wf, &cal, f.seed)
}

fn staging_value(m: &RunMetrics) -> serde_json::Value {
    serde_json::from_str(&serde_json::to_string(&m.staging).expect("staging json"))
        .expect("staging value")
}

/// DYAD and XFS reproduce the before-overhaul makespans bit-for-bit;
/// Lustre stays within a float-ulp-scale tolerance; staging counters
/// match exactly for every case.
#[test]
fn results_match_before_overhaul_fixtures() {
    for f in parse(BEFORE) {
        let m = run(&f);
        let got = m.makespan.nanos();
        match f.solution {
            "lustre" => {
                let rel = (got as f64 - f.makespan_ns as f64).abs() / f.makespan_ns as f64;
                assert!(
                    rel <= LUSTRE_TOL,
                    "lustre {}p makespan drifted: {} vs {} (rel {rel:.2e})",
                    f.pairs,
                    got,
                    f.makespan_ns
                );
            }
            _ => assert_eq!(
                got, f.makespan_ns,
                "{} {}p makespan changed vs before-overhaul capture",
                f.solution, f.pairs
            ),
        }
        assert_eq!(
            staging_value(&m),
            f.staging,
            "{} {}p staging counters changed",
            f.solution,
            f.pairs
        );
    }
}

/// The current model reproduces its own pinned capture exactly —
/// makespans, event counts and staging counters. A failure here means a
/// change altered simulation trajectories; re-pin deliberately or fix
/// the regression.
#[test]
fn results_match_pinned_fixtures_exactly() {
    for f in parse(PINNED) {
        let m = run(&f);
        assert_eq!(
            m.makespan.nanos(),
            f.makespan_ns,
            "{} {}p makespan changed vs pinned capture",
            f.solution,
            f.pairs
        );
        assert_eq!(
            m.events, f.events,
            "{} {}p event count changed vs pinned capture",
            f.solution, f.pairs
        );
        assert_eq!(
            staging_value(&m),
            f.staging,
            "{} {}p staging counters changed",
            f.solution,
            f.pairs
        );
    }
}

/// `TopologySpec::Flat` is the pinned-capture topology, and a leaf/spine
/// fabric that degenerates to a single leaf (radix ≥ node count,
/// oversubscription 1.0) builds no switch tiers at all — both must
/// replay the fig6 DYAD/XFS pinned schedules *bit-identically*:
/// makespans, event counts and staging counters. This is the PR 8
/// topology-plumbing guard: adding the topology axis must not perturb
/// any existing schedule.
#[test]
fn flat_and_degenerate_leaf_spine_replay_pinned_schedules() {
    let mut ls = Calibration::corona();
    ls.fabric = ls.fabric.with_topology(TopologySpec::LeafSpine {
        radix: 65_536,
        oversubscription: 1.0,
    });
    for f in parse(PINNED) {
        if f.solution == "lustre" {
            continue; // fig6 is DYAD vs XFS; lustre is covered above
        }
        for cal in [Calibration::corona(), ls.clone()] {
            let topo = cal.fabric.topology;
            let m = run_with_calibration(&f, cal);
            assert_eq!(
                m.makespan.nanos(),
                f.makespan_ns,
                "{} {}p makespan drifted under {topo:?}",
                f.solution,
                f.pairs
            );
            assert_eq!(
                m.events, f.events,
                "{} {}p event count drifted under {topo:?}",
                f.solution, f.pairs
            );
            assert_eq!(
                staging_value(&m),
                f.staging,
                "{} {}p staging counters drifted under {topo:?}",
                f.solution,
                f.pairs
            );
        }
    }
}

/// Same seed twice in one process ⇒ identical everything (guards against
/// accidental nondeterminism from map iteration order, interner state or
/// wake ordering).
#[test]
fn back_to_back_runs_are_identical() {
    let wf = WorkflowConfig::new(Solution::Dyad, 8, Placement::Split { pairs_per_node: 8 })
        .with_frames(6);
    let cal = Calibration::corona();
    let a = run_once(&wf, &cal, 7);
    let b = run_once(&wf, &cal, 7);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events, b.events);
    assert_eq!(staging_value(&a), staging_value(&b));
    // The default metadata plane is one unreplicated broker.
    assert_eq!(b.kvs.shards, 1);
    assert_eq!(
        b.kvs.deltas_sent, 0,
        "an unreplicated broker shipped deltas"
    );
}

/// Sharded and replicated schedules are byte-stable under parallel
/// campaign execution: a serial run and a `--jobs 8` run of the same
/// study produce byte-identical serialized reports, at 1 shard and at
/// 4 shards with replication.
#[test]
fn parallel_and_serial_mesh_campaigns_are_byte_identical() {
    let cal = Calibration::corona();
    for (shards, replication) in [(1u32, 1u32), (4, 2)] {
        let wf = WorkflowConfig::new(Solution::Dyad, 8, Placement::Split { pairs_per_node: 8 })
            .with_frames(6)
            .with_kvs_shards(shards)
            .with_kvs_replication(replication);
        let study = StudyConfig {
            workflow: wf,
            calibration: cal.clone(),
            repetitions: 4,
            seed: 42,
        };
        let serial = run_study_jobs(&study, 1).to_json();
        let parallel = run_study_jobs(&study, 8).to_json();
        assert_eq!(
            serial, parallel,
            "shards={shards} R={replication}: parallel execution drifted from serial"
        );
    }
}
