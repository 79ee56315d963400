//! Sharded-calendar determinism fixtures.
//!
//! The leaf-sharded calendar is required to be *behavior-invisible*:
//! shard placement is a locality hint, so for any shard count the
//! executor must replay the exact serial schedule. These tests pin that
//! guarantee at the workflow level:
//!
//! * the sharded executor replays freshly captured pinned schedules for
//!   both a `Flat` fabric (degenerate single shard) and a genuinely
//!   multi-leaf `LeafSpine` fabric (one calendar shard per leaf plus the
//!   cross-leaf/spine shard 0) — makespans and event counts exactly.
//! * the warm-start arena path replays the cold run on the multi-leaf
//!   calendar, and its per-shard load accounts for every event.
//!
//! Re-pin the constants deliberately (and say so in the commit message)
//! only after an intentional trajectory change.

use mdflow::prelude::*;

/// Fig6-sized scenario: 64 producer/consumer pairs, 12 frames, the
/// PR 4 fixture seed.
const PAIRS: u32 = 64;
const FRAMES: u64 = 12;
const SEED: u64 = 2024;

/// Radix-4 leaf/spine at 2:1 oversubscription: small enough that the
/// fig6 node count spans several leaves, so the calendar genuinely
/// shards (shard 0 plus one shard per leaf).
const MULTI_LEAF: TopologySpec = TopologySpec::LeafSpine {
    radix: 4,
    oversubscription: 2.0,
};

/// Pinned `(makespan_ns, events)` captures for the current model. The
/// `Flat` rows must equal `determinism_pr4_pinned.json` (the sharded
/// executor degenerates to the serial calendar); the `LeafSpine` rows
/// were captured fresh on the multi-leaf fabric above.
const PINS: &[(Solution, Topo, u64, u64)] = &[
    (Solution::Dyad, Topo::Flat, 11_554_585_966, 41_835),
    (Solution::Xfs, Topo::Flat, 20_615_097_294, 10_159),
    (Solution::Dyad, Topo::MultiLeaf, 11_554_618_858, 59_043),
    // XFS is pinned to one node (it cannot span leaves), so Lustre —
    // whose split placement and PFS traffic cross the spine — covers the
    // second multi-leaf workload instead.
    (Solution::Lustre, Topo::MultiLeaf, 20_644_484_762, 106_448),
];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Topo {
    Flat,
    MultiLeaf,
}

fn workflow(solution: Solution) -> WorkflowConfig {
    let placement = match solution {
        Solution::Xfs => Placement::SingleNode,
        _ => Placement::Split { pairs_per_node: 8 },
    };
    WorkflowConfig::new(solution, PAIRS, placement).with_frames(FRAMES)
}

fn calibration(topo: Topo) -> Calibration {
    let mut cal = Calibration::corona();
    if topo == Topo::MultiLeaf {
        cal.fabric = cal.fabric.with_topology(MULTI_LEAF);
    }
    cal
}

/// The sharded executor replays the pinned serial schedules exactly —
/// on the degenerate single-shard `Flat` fabric and on a genuinely
/// multi-leaf `LeafSpine` fabric alike.
#[test]
fn sharded_replays_pinned_schedules() {
    for &(solution, topo, makespan_ns, events) in PINS {
        let wf = workflow(solution);
        let cal = calibration(topo);
        let snap = ClusterSnapshot::prepare(&wf, &cal, SEED ^ 0x7E3A);
        let shards = snap.sim_config(SEED).shards;
        match topo {
            Topo::Flat => assert_eq!(shards, 1, "{solution:?}: Flat must not shard"),
            Topo::MultiLeaf => assert!(
                shards > 2,
                "{solution:?}: radix-4 leaf/spine should span several leaves, got {shards} shards"
            ),
        }
        let m = run_once(&wf, &cal, SEED);
        assert_eq!(
            (m.makespan.nanos(), m.events),
            (makespan_ns, events),
            "{solution:?} under {topo:?}: schedule drifted from pinned capture \
             (got makespan {} events {})",
            m.makespan.nanos(),
            m.events,
        );
    }
}

/// The warm-start arena path on the multi-leaf sharded calendar stays
/// trajectory-identical to the cold path across recycles, and its
/// per-shard load accounts for every fired event.
#[test]
fn warm_arena_on_sharded_calendar_matches_cold_run() {
    let wf = workflow(Solution::Dyad);
    let cal = calibration(Topo::MultiLeaf);
    let cold = run_once(&wf, &cal, SEED);
    let snap = ClusterSnapshot::prepare(&wf, &cal, SEED ^ 0x7E3A);
    assert!(
        snap.sim_config(SEED).shards > 2,
        "scenario must actually shard the calendar"
    );
    let mut arena = RunArena::default();
    for round in 0..2 {
        let (m, timings) = run_once_warm(&snap, SEED, &mut arena);
        assert_eq!(
            (m.makespan, m.events),
            (cold.makespan, cold.events),
            "round {round}: warm sharded run drifted from the cold run"
        );
        let load = timings.shard_load.expect("sharded run reports shard load");
        assert_eq!(load.fired_total, m.events);
        assert!(load.fired_max >= load.fired_total / u64::from(load.shards));
    }
}
