//! Experiment configuration: which data-management solution, which
//! molecular model, how many pairs, where they run.

use mdsim::Model;
use serde::Serialize;

/// The three data-management solutions of the paper, plus the ablation
/// variant that keeps DYAD's synchronization but stages data through the
/// shared parallel filesystem instead of node-local storage + RDMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Solution {
    /// DYAD middleware (node-local staging + KVS sync + RDMA).
    Dyad,
    /// Node-local XFS with manual synchronization (single node only).
    Xfs,
    /// Lustre-like parallel filesystem with manual synchronization.
    Lustre,
    /// Ablation: DYAD synchronization over Lustre storage (isolates the
    /// synchronization benefit from the node-local-storage benefit).
    DyadOnPfs,
    /// ADIOS2 SST-style streaming backend (the `streaming` crate):
    /// publisher-side step aggregation, subscriber groups, and a bounded
    /// in-flight window with ack-driven release, opening the M:N
    /// topology axis (`StreamingConfig`).
    Streaming,
}

impl Solution {
    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Solution::Dyad => "DYAD",
            Solution::Xfs => "XFS",
            Solution::Lustre => "Lustre",
            Solution::DyadOnPfs => "DYAD/PFS",
            Solution::Streaming => "SST",
        }
    }

    /// Does this solution need the parallel filesystem service nodes?
    pub fn needs_pfs(self) -> bool {
        matches!(self, Solution::Lustre | Solution::DyadOnPfs)
    }

    /// Does this solution need the KVS broker (rendezvous metadata)?
    pub fn needs_kvs(self) -> bool {
        matches!(
            self,
            Solution::Dyad | Solution::DyadOnPfs | Solution::Streaming
        )
    }
}

impl std::fmt::Display for Solution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where producers and consumers are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Placement {
    /// Every producer and consumer on one node (the paper's single-node
    /// DYAD/XFS configuration; pairs ≤ 4 because each pair needs 2 of
    /// the node's 8 GPUs).
    SingleNode,
    /// One process type per node (the paper's multi-node configuration):
    /// producers fill nodes at `pairs_per_node`, consumers fill an equal
    /// number of separate nodes.
    Split {
        /// Producers (or consumers) per node — 8 on Corona (one per
        /// GPU); the paper's model-scaling runs use 16 on 2 nodes.
        pairs_per_node: u32,
    },
}

/// Manual synchronization protocol for the XFS/Lustre baselines
/// (paper §III: MPI primitives, filesystem polling à la Pegasus, or
/// filesystem locks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ManualSync {
    /// The paper's coarse-grained barrier: producer and consumer fully
    /// serialize (the consumer's analytics completes before the next
    /// frame is computed).
    Coarse,
    /// Ablation: release the producer right after the read, overlapping
    /// analytics with the next frame's computation.
    Fine,
    /// Pegasus-style filesystem polling: the producer writes the frame
    /// plus a `.done` marker and never blocks; the consumer polls the
    /// marker's existence. Pipelined like DYAD, but every poll costs a
    /// metadata operation.
    Polling,
    /// Filesystem-lock synchronization (Lustre only): the producer
    /// writes under an exclusive DLM lock; the consumer takes a
    /// protected-read lock and probes for the frame, retrying until the
    /// write is visible. Pipelined, but every frame costs lock-service
    /// round trips.
    LockBased,
}

/// Staged-data lifecycle settings for the DYAD solution: how much
/// node-local NVMe the workflow may hold and what the evictor may do
/// when it fills (see the `staging` crate).
#[derive(Debug, Clone, Copy, Serialize, Default)]
pub struct StagingConfig {
    /// Per-node NVMe staging budget in bytes. `None` reproduces the
    /// paper's configuration: frames stay on NVMe for the whole run.
    pub budget_bytes: Option<u64>,
    /// What the background evictor may do with staged frames.
    #[serde(serialize_with = "retention_serde::serialize")]
    pub retention: staging::RetentionPolicy,
    /// Spill still-needed frames to the parallel filesystem under
    /// pressure instead of stalling the producer indefinitely. Adds the
    /// PFS service nodes to DYAD runs.
    pub spill_to_pfs: bool,
}

// RetentionPolicy is foreign; serialize via its stable name.
mod retention_serde {
    use serde::Serializer;
    pub fn serialize<S: Serializer>(r: &staging::RetentionPolicy, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(r.name())
    }
}

/// Topology axis of the streaming backend ([`Solution::Streaming`]):
/// each "pair" becomes a *group* of either 1 publisher → `fanout`
/// subscribers, or `fanin` publishers → 1 reducer (a binary reduction
/// tree). `fanout == fanin == 1` is the near-DYAD 1:1 shape.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct StreamingConfig {
    /// Subscribers per group (1 producer → K analytics consumers).
    pub fanout: u32,
    /// Publishers per group (K producers → 1 reducer). Mutually
    /// exclusive with `fanout > 1`.
    pub fanin: u32,
    /// Bounded in-flight window: max unacked steps per publisher.
    pub window: u32,
    /// Frames aggregated per published step (SST step aggregation;
    /// also the reducer's sliding in-situ analysis window).
    pub agg_frames: u64,
    /// How a fan-out group shares the step sequence.
    #[serde(serialize_with = "group_serde::serialize")]
    pub group: streaming::GroupMode,
    /// Under faults, reclaim window slots held by crashed subscribers
    /// instead of head-of-line stalling until the restart.
    pub reclaim_on_crash: bool,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            fanout: 1,
            fanin: 1,
            window: 4,
            agg_frames: 1,
            group: streaming::GroupMode::Broadcast,
            reclaim_on_crash: true,
        }
    }
}

// GroupMode is foreign; serialize via its stable name.
mod group_serde {
    use serde::Serializer;
    pub fn serialize<S: Serializer>(g: &streaming::GroupMode, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(g.name())
    }
}

/// Deterministic fault-injection settings for a run. The default is
/// fully disabled: no fault board is built, no timers are armed, and the
/// run is event-for-event identical to one without the fault layer.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FaultConfig {
    /// Events per fault class in the generated chaos plan; `0` generates
    /// nothing (injection is still enabled if `scheduled` is set).
    pub events_per_class: u32,
    /// Seed for the generated plan. Deliberately independent of the run
    /// seed so one fault schedule can be replayed across repetitions.
    pub seed: u64,
    /// Mean fault-window length as a fraction of the expected workload
    /// duration (see [`faults::ChaosSpec::mean_window_frac`]).
    pub mean_window_frac: f64,
    /// Explicit events appended to the generated plan (exact-schedule
    /// experiments and tests). Not serialized: reports describe the plan
    /// through its seed/class knobs.
    #[serde(skip)]
    pub scheduled: Vec<faults::FaultEvent>,
}

impl FaultConfig {
    /// A generated chaos plan: `events_per_class` events of every fault
    /// class, windows averaging 10% of the workload duration.
    pub fn chaos(seed: u64, events_per_class: u32) -> Self {
        FaultConfig {
            events_per_class,
            seed,
            mean_window_frac: 0.1,
            scheduled: Vec::new(),
        }
    }

    /// An exact schedule, no generated events.
    pub fn scheduled(events: Vec<faults::FaultEvent>) -> Self {
        FaultConfig {
            scheduled: events,
            ..FaultConfig::default()
        }
    }

    /// Whether the run should build and arm a fault board at all.
    pub fn enabled(&self) -> bool {
        self.events_per_class > 0 || !self.scheduled.is_empty()
    }

    /// Expand into the concrete plan for a topology and horizon.
    /// `n_kvs_shards = 0` (any run without a KVS mesh) generates no
    /// shard-crash events and leaves the plan byte-identical to the
    /// pre-mesh generator.
    pub fn build_plan(
        &self,
        horizon: simcore::SimDuration,
        n_nodes: u32,
        n_osts: u32,
        n_kvs_shards: u32,
    ) -> faults::FaultPlan {
        let mut plan = if self.events_per_class > 0 {
            faults::FaultPlan::generate(
                &faults::ChaosSpec {
                    horizon,
                    n_nodes,
                    n_osts,
                    n_kvs_shards,
                    events_per_class: self.events_per_class as f64,
                    mean_window_frac: self.mean_window_frac,
                },
                self.seed,
            )
        } else {
            faults::FaultPlan::empty()
        };
        for e in &self.scheduled {
            plan.push(e.at, e.kind.clone());
        }
        plan
    }
}

/// One workflow configuration (one bar/point of a figure).
#[derive(Debug, Clone, Serialize)]
pub struct WorkflowConfig {
    /// Data-management solution under test.
    pub solution: Solution,
    /// Molecular model.
    #[serde(serialize_with = "model_serde::serialize")]
    pub model: Model,
    /// Producer-consumer pairs.
    pub pairs: u32,
    /// Process placement.
    pub placement: Placement,
    /// Steps between frames.
    pub stride: u64,
    /// Frames per pair (the paper uses 128).
    pub frames: u64,
    /// Manual-sync granularity for the traditional baselines.
    pub manual_sync: ManualSync,
    /// Warm fast-path enabled for DYAD (ablation knob).
    pub dyad_warm_sync: bool,
    /// Staged-data lifecycle settings (DYAD/streaming only; ignored by
    /// the manual baselines, which manage their own storage).
    pub staging: StagingConfig,
    /// Streaming-backend topology settings (ignored by the other
    /// solutions).
    pub streaming: StreamingConfig,
    /// Deterministic fault-injection plan (disabled by default).
    pub faults: FaultConfig,
    /// KVS metadata-plane shards (`--kvs-shards N`). 1 = a single
    /// broker; >1 partitions the frame namespace across N
    /// brokers by rendezvous hash (DYAD solutions only).
    pub kvs_shards: u32,
    /// KVS replication factor (`--kvs-replication R`). 1 = unreplicated;
    /// R>1 synchronously replicates every commit to the key's top-R
    /// shards as causally-ordered deltas, enabling shard failover.
    pub kvs_replication: u32,
    /// Optional variable-rate frame schedule (overrides the fixed
    /// stride-based cadence; see [`crate::schedule::FrameSchedule`]).
    #[serde(skip)]
    pub schedule: Option<crate::schedule::FrameSchedule>,
}

// Model is foreign; serialize via its name.
mod model_serde {
    use super::*;
    use serde::Serializer;
    pub fn serialize<S: Serializer>(m: &Model, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(m.name())
    }
}

impl WorkflowConfig {
    /// The paper's defaults: JAC at stride 880, 128 frames, coarse sync.
    pub fn new(solution: Solution, pairs: u32, placement: Placement) -> Self {
        WorkflowConfig {
            solution,
            model: Model::Jac,
            pairs,
            placement,
            stride: Model::Jac.stride(),
            frames: 128,
            manual_sync: ManualSync::Coarse,
            dyad_warm_sync: true,
            staging: StagingConfig::default(),
            streaming: StreamingConfig::default(),
            faults: FaultConfig::default(),
            kvs_shards: 1,
            kvs_replication: 1,
            schedule: None,
        }
    }

    /// Set the model *and* its Table II stride.
    pub fn with_model(mut self, model: Model) -> Self {
        self.model = model;
        self.stride = model.stride();
        self
    }

    /// Override the stride (frequency-scaling experiments).
    pub fn with_stride(mut self, stride: u64) -> Self {
        self.stride = stride;
        self
    }

    /// Override the frame count.
    pub fn with_frames(mut self, frames: u64) -> Self {
        self.frames = frames;
        self
    }

    /// Use a variable-rate frame schedule instead of the fixed stride.
    pub fn with_schedule(mut self, schedule: crate::schedule::FrameSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Bound the per-node NVMe staging budget (DYAD only).
    pub fn with_staging_budget(mut self, bytes: u64) -> Self {
        self.staging.budget_bytes = Some(bytes);
        self
    }

    /// Choose the staging evictor's retention policy (DYAD only).
    pub fn with_retention(mut self, retention: staging::RetentionPolicy) -> Self {
        self.staging.retention = retention;
        self
    }

    /// Enable/disable spilling still-needed frames to the PFS under
    /// staging pressure (DYAD only).
    pub fn with_spill(mut self, spill_to_pfs: bool) -> Self {
        self.staging.spill_to_pfs = spill_to_pfs;
        self
    }

    /// Attach a fault-injection plan (see [`FaultConfig`]).
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Shard the KVS metadata plane across `shards` brokers
    /// (`--kvs-shards N`; DYAD solutions only).
    pub fn with_kvs_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "kvs_shards must be at least 1");
        self.kvs_shards = shards;
        self
    }

    /// Replicate every key to `r` shards with causal delta sync
    /// (`--kvs-replication R`; clamped to the shard count at run time).
    pub fn with_kvs_replication(mut self, r: u32) -> Self {
        assert!(r >= 1, "kvs_replication must be at least 1");
        self.kvs_replication = r;
        self
    }

    /// Set the streaming fan-out: 1 publisher → `k` subscribers per
    /// group ([`Solution::Streaming`] only).
    pub fn with_fanout(mut self, k: u32) -> Self {
        assert!(k >= 1, "fanout must be at least 1");
        self.streaming.fanout = k;
        self
    }

    /// Set the streaming fan-in: `k` publishers → 1 reducer per group
    /// with a binary reduction tree ([`Solution::Streaming`] only).
    pub fn with_fanin(mut self, k: u32) -> Self {
        assert!(k >= 1, "fanin must be at least 1");
        self.streaming.fanin = k;
        self
    }

    /// Bound the publisher's in-flight window to `w` unacked steps.
    pub fn with_stream_window(mut self, w: u32) -> Self {
        assert!(w >= 1, "window must admit at least 1 step");
        self.streaming.window = w;
        self
    }

    /// Aggregate `n` frames per published step.
    pub fn with_agg_frames(mut self, n: u64) -> Self {
        assert!(n >= 1, "steps must carry at least 1 frame");
        self.streaming.agg_frames = n;
        self
    }

    /// Choose how fan-out groups share the step sequence.
    pub fn with_group_mode(mut self, mode: streaming::GroupMode) -> Self {
        self.streaming.group = mode;
        self
    }

    /// Enable/disable window reclaim for crashed subscribers.
    pub fn with_window_reclaim(mut self, reclaim: bool) -> Self {
        self.streaming.reclaim_on_crash = reclaim;
        self
    }

    /// Whether the metadata plane is more than one unreplicated broker
    /// (any sharding or replication). Only such runs draw shard-crash
    /// events into generated fault plans; a single broker's plans keep
    /// their pre-mesh events.
    pub fn kvs_mesh_enabled(&self) -> bool {
        self.solution.needs_kvs() && (self.kvs_shards > 1 || self.kvs_replication > 1)
    }

    /// Mean seconds between frames for this configuration (the
    /// schedule's long-run mean when one is set).
    pub fn frame_period_secs(&self) -> f64 {
        match &self.schedule {
            Some(s) => s.mean_gap().as_secs_f64(),
            None => self.model.period_for_stride(self.stride),
        }
    }

    /// Number of compute nodes the placement needs, and the node indices
    /// of each pair's producer and consumer.
    pub fn placement_plan(&self) -> PlacementPlan {
        match self.placement {
            Placement::SingleNode => PlacementPlan {
                compute_nodes: 1,
                pair_nodes: (0..self.pairs).map(|_| (0, 0)).collect(),
            },
            Placement::Split { pairs_per_node } => {
                assert!(pairs_per_node >= 1);
                let per = pairs_per_node;
                let n_prod_nodes = self.pairs.div_ceil(per);
                let pair_nodes = (0..self.pairs)
                    .map(|p| {
                        let prod = p / per;
                        let cons = n_prod_nodes + p / per;
                        (prod, cons)
                    })
                    .collect();
                PlacementPlan {
                    compute_nodes: (2 * n_prod_nodes) as usize,
                    pair_nodes,
                }
            }
        }
    }

    /// Concrete M:N placement for [`Solution::Streaming`]: each of the
    /// `pairs` groups gets its publishers and subscribers, publishers
    /// filling the first nodes and subscribers the following ones (the
    /// same one-process-type-per-node discipline as
    /// [`WorkflowConfig::placement_plan`]).
    pub fn streaming_plan(&self) -> StreamPlacement {
        type NodeOf = Box<dyn Fn(u32) -> u32>;
        let s = &self.streaming;
        assert!(
            s.fanout == 1 || s.fanin == 1,
            "streaming groups are either 1→K (fanout) or K→1 (fanin), not K→K"
        );
        let pubs_per_group = s.fanin.max(1);
        let subs_per_group = if s.fanin > 1 { 1 } else { s.fanout.max(1) };
        let total_pubs = self.pairs * pubs_per_group;
        let total_subs = self.pairs * subs_per_group;
        let (pub_node, sub_node): (NodeOf, NodeOf) = match self.placement {
            Placement::SingleNode => (Box::new(|_| 0), Box::new(|_| 0)),
            Placement::Split { pairs_per_node } => {
                assert!(pairs_per_node >= 1);
                let per = pairs_per_node;
                let n_pub_nodes = total_pubs.div_ceil(per);
                (
                    Box::new(move |p| p / per),
                    Box::new(move |c| n_pub_nodes + c / per),
                )
            }
        };
        let mut groups = Vec::with_capacity(self.pairs as usize);
        for g in 0..self.pairs {
            let publishers = (0..pubs_per_group)
                .map(|l| pub_node(g * pubs_per_group + l))
                .collect();
            let subscribers = (0..subs_per_group)
                .map(|j| sub_node(g * subs_per_group + j))
                .collect();
            groups.push(StreamGroupPlacement {
                publishers,
                subscribers,
            });
        }
        let compute_nodes = match self.placement {
            Placement::SingleNode => 1,
            Placement::Split { pairs_per_node } => {
                (total_pubs.div_ceil(pairs_per_node) + total_subs.div_ceil(pairs_per_node)) as usize
            }
        };
        StreamPlacement {
            compute_nodes,
            groups,
        }
    }
}

/// Concrete placement: node indices are relative to the compute section
/// of the cluster (service nodes are appended after).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementPlan {
    /// Compute nodes required.
    pub compute_nodes: usize,
    /// `(producer_node, consumer_node)` per pair.
    pub pair_nodes: Vec<(u32, u32)>,
}

/// One streaming group's node assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamGroupPlacement {
    /// Node of each publisher (1 for fan-out groups, K for fan-in).
    pub publishers: Vec<u32>,
    /// Node of each subscriber (K for fan-out groups, 1 reducer for
    /// fan-in).
    pub subscribers: Vec<u32>,
}

/// Concrete M:N placement for the streaming backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamPlacement {
    /// Compute nodes required.
    pub compute_nodes: usize,
    /// Per-group publisher/subscriber nodes (`pairs` groups).
    pub groups: Vec<StreamGroupPlacement>,
}

/// A full study: one workflow configuration, repeated.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The workflow to run.
    pub workflow: WorkflowConfig,
    /// Repetitions (the paper runs every configuration 10 times).
    pub repetitions: u32,
    /// Base seed; repetition `r` runs with `seed + r`.
    pub seed: u64,
    /// Testbed parameters.
    pub calibration: crate::calibration::Calibration,
}

impl StudyConfig {
    /// Ten repetitions with the Corona calibration.
    pub fn paper(workflow: WorkflowConfig) -> Self {
        StudyConfig {
            workflow,
            repetitions: 10,
            seed: 0xD1AD,
            calibration: crate::calibration::Calibration::corona(),
        }
    }

    /// Fewer repetitions (for tests).
    pub fn with_repetitions(mut self, reps: u32) -> Self {
        self.repetitions = reps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_places_everyone_together() {
        let cfg = WorkflowConfig::new(Solution::Dyad, 4, Placement::SingleNode);
        let plan = cfg.placement_plan();
        assert_eq!(plan.compute_nodes, 1);
        assert!(plan.pair_nodes.iter().all(|&(p, c)| p == 0 && c == 0));
    }

    #[test]
    fn split_places_one_type_per_node() {
        let cfg = WorkflowConfig::new(Solution::Lustre, 16, Placement::Split { pairs_per_node: 8 });
        let plan = cfg.placement_plan();
        assert_eq!(plan.compute_nodes, 4); // 2 producer + 2 consumer nodes
        assert_eq!(plan.pair_nodes[0], (0, 2));
        assert_eq!(plan.pair_nodes[7], (0, 2));
        assert_eq!(plan.pair_nodes[8], (1, 3));
        assert_eq!(plan.pair_nodes[15], (1, 3));
        // Producers never share a node with consumers.
        for &(p, c) in &plan.pair_nodes {
            assert_ne!(p, c);
        }
    }

    #[test]
    fn fig7_largest_config_uses_64_nodes() {
        let cfg = WorkflowConfig::new(Solution::Dyad, 256, Placement::Split { pairs_per_node: 8 });
        assert_eq!(cfg.placement_plan().compute_nodes, 64);
    }

    #[test]
    fn with_model_updates_stride() {
        let cfg =
            WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode).with_model(Model::Stmv);
        assert_eq!(cfg.stride, 28);
        assert!((cfg.frame_period_secs() - 0.82).abs() < 0.01);
    }

    #[test]
    fn solution_capabilities() {
        assert!(Solution::Lustre.needs_pfs());
        assert!(!Solution::Lustre.needs_kvs());
        assert!(Solution::Dyad.needs_kvs());
        assert!(!Solution::Dyad.needs_pfs());
        assert!(Solution::DyadOnPfs.needs_pfs());
        assert!(Solution::DyadOnPfs.needs_kvs());
    }
}
