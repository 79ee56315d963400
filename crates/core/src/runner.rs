//! Builds a simulated testbed per run, spawns the ensemble, and collects
//! per-process profiles.

use std::rc::Rc;
use std::time::Instant;

use cluster::{Cluster, NodeId};
use dyad::DyadService;
use instrument::Profile;
use kvs::{KvsClient, KvsMesh};
use localfs::LocalFs;
use mdsim::StepClock;
use pfs::{LdlmClient, LdlmServer, LdlmSpec, ParallelFs};
use rayon::prelude::*;
use serde::Serialize;
use simcore::{Sim, SimDuration, SimTime};
use staging::{RetentionPolicy, StagingManager, StagingSpec, StagingStats};
use streaming::{StreamAcker, StreamService, StreamSpec, StreamStats};
use transport::Transport;

use crate::arena::{ClusterSnapshot, RunArena, RunTimings};
use crate::calibration::Calibration;
use crate::config::{Solution, StudyConfig, WorkflowConfig};
use crate::workflow::{
    consumer_dyad, consumer_dyad_on_pfs, consumer_manual, pair_sync, producer_dyad,
    producer_dyad_on_pfs, producer_manual, publisher_stream, reducer_stream, subscriber_stream,
    ConsumerArgs, ProducerArgs, Storage, StreamRole,
};

/// Staging-lifecycle counters summed over every node's
/// [`StagingManager`] (all zero for non-DYAD solutions and for the
/// unbounded default).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StagingTotals {
    /// Frames fully retired (unlinked after all consumer acks).
    pub evicted_frames: u64,
    /// Bytes those retirements freed.
    pub evicted_bytes: u64,
    /// Still-needed frames spilled from NVMe to the PFS.
    pub spilled_frames: u64,
    /// Bytes spilled to the PFS.
    pub spilled_bytes: u64,
    /// Consumer-side cache copies dropped under pressure.
    pub cache_evictions: u64,
    /// Times a producer blocked at the high watermark.
    pub backpressure_stalls: u64,
    /// Total simulated seconds producers spent blocked.
    pub backpressure_stall_secs: f64,
    /// Consumes that fetched a spilled frame from the PFS.
    pub pfs_fallbacks: u64,
    /// Consumption acknowledgements committed to the KVS.
    pub acks_published: u64,
    /// Largest staged footprint of any single node, bytes.
    pub peak_staged_bytes: u64,
}

impl StagingTotals {
    fn absorb(&mut self, s: &StagingStats) {
        self.evicted_frames += s.retired_frames;
        self.evicted_bytes += s.retired_bytes;
        self.spilled_frames += s.spilled_frames;
        self.spilled_bytes += s.spilled_bytes;
        self.cache_evictions += s.cache_evictions;
        self.backpressure_stalls += s.backpressure_stalls;
        self.backpressure_stall_secs += s.backpressure_wait.as_secs_f64();
        self.pfs_fallbacks += s.pfs_fallbacks;
        self.acks_published += s.acks_published;
        self.peak_staged_bytes = self.peak_staged_bytes.max(s.peak_staged_bytes);
    }
}

/// Streaming data-plane counters summed over every node's
/// [`StreamService`] (all zero for the other solutions).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StreamTotals {
    /// Steps published across all groups.
    pub steps_published: u64,
    /// Steps consumed across all subscriber sessions.
    pub steps_consumed: u64,
    /// Bytes published.
    pub bytes_published: u64,
    /// Bytes consumed.
    pub bytes_consumed: u64,
    /// Publishes that found the bounded in-flight window full.
    pub window_stalls: u64,
    /// Simulated seconds publishers spent stalled on a full window.
    pub window_stall_secs: f64,
    /// Outstanding-ack entries reclaimed from crashed subscribers.
    pub slots_reclaimed: u64,
    /// Window ack-refresh sweeps (KVS ack-key reads).
    pub ack_refreshes: u64,
    /// Remote step fetches served by owner nodes.
    pub fetches_served: u64,
    /// Consumptions that parked in a KVS watch (cold syncs).
    pub cold_syncs: u64,
    /// Consumptions satisfied by the warm lookup fast path.
    pub warm_syncs: u64,
    /// Consumptions that found the step already node-local.
    pub local_hits: u64,
}

impl StreamTotals {
    fn absorb(&mut self, s: &StreamStats) {
        self.steps_published += s.steps_published;
        self.steps_consumed += s.steps_consumed;
        self.bytes_published += s.bytes_published;
        self.bytes_consumed += s.bytes_consumed;
        self.window_stalls += s.window_stalls;
        self.window_stall_secs += SimDuration::from_nanos(s.window_stall_ns).as_secs_f64();
        self.slots_reclaimed += s.slots_reclaimed;
        self.ack_refreshes += s.ack_refreshes;
        self.fetches_served += s.fetches_served;
        self.cold_syncs += s.cold_syncs;
        self.warm_syncs += s.warm_syncs;
        self.local_hits += s.local_hits;
    }
}

/// Fault-injection and recovery counters for one repetition — the
/// "recovery time" half of the movement/recovery split. All zero when
/// the run's [`crate::config::FaultConfig`] is disabled.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct FaultTotals {
    /// Fault windows actually opened by the armed plan.
    pub injected: u64,
    /// Node crash windows.
    pub crashes: u64,
    /// Node restarts completed.
    pub restarts: u64,
    /// Transport-level RPC retry attempts (all clients).
    pub rpc_retries: u64,
    /// RPCs that exhausted their retry budget.
    pub rpc_giveups: u64,
    /// Simulated seconds spent in transport retry backoff — recovery
    /// time that would otherwise be misread as data-movement time.
    pub retry_backoff_secs: f64,
    /// Staged frames lost to node crashes before they could spill.
    pub frames_lost: u64,
    /// Spilled/lost frames re-published to the KVS by restart hooks.
    pub republished_frames: u64,
    /// Producer-side whole-produce retries after a typed error.
    pub produce_outer_retries: u64,
    /// Consumer-side whole-consume retries after a typed error.
    pub consume_outer_retries: u64,
    /// Frames a producer gave up on (tombstoned, typed).
    pub produce_failures: u64,
    /// Frames a consumer gave up on (typed, never a hang).
    pub consume_failures: u64,
    /// Lost-frame tombstones consumers observed (typed `FrameLost`).
    pub frames_lost_observed: u64,
    /// Permanent KVS shard crashes injected (mesh runs).
    pub kvs_shard_crashes: u64,
}

/// Metadata-plane counters for one repetition, summed over every KVS
/// broker shard (all zero for solutions without a KVS).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct KvsTotals {
    /// Broker shards the run used (1 = a single broker; 0 for solutions
    /// without a KVS).
    pub shards: u32,
    /// Replication factor (1 = unreplicated).
    pub replication: u32,
    /// Commits applied across all shards.
    pub commits: u64,
    /// Lookups served across all shards.
    pub lookups: u64,
    /// Server-side waits served across all shards.
    pub waits: u64,
    /// Replication deltas shipped between shards.
    pub deltas_sent: u64,
    /// Replication deltas applied at replicas.
    pub deltas_applied: u64,
    /// Deltas that arrived out of causal order and buffered.
    pub deltas_buffered: u64,
    /// Worst per-shard peak of requests queued or in service — the
    /// metadata-plane congestion signal the shard sweep gates on.
    pub peak_queue: u64,
}

impl KvsTotals {
    fn absorb(&mut self, s: &kvs::KvsStats) {
        self.commits += s.commits;
        self.lookups += s.lookups;
        self.waits += s.waits;
        self.deltas_sent += s.deltas_sent;
        self.deltas_applied += s.deltas_applied;
        self.deltas_buffered += s.deltas_buffered;
        self.peak_queue = self.peak_queue.max(s.peak_queue);
    }
}

/// Raw result of one repetition.
pub struct RunMetrics {
    /// One profile per producer process.
    pub producers: Vec<Profile>,
    /// One profile per consumer process.
    pub consumers: Vec<Profile>,
    /// Simulated makespan.
    pub makespan: SimTime,
    /// Discrete events processed (simulator health metric).
    pub events: u64,
    /// Staging-lifecycle counters (DYAD/streaming only).
    pub staging: StagingTotals,
    /// Streaming data-plane counters (zero for the other solutions).
    pub streaming: StreamTotals,
    /// Fault-injection and recovery counters (zero when disabled).
    pub faults: FaultTotals,
    /// Metadata-plane counters (zero for solutions without a KVS).
    pub kvs: KvsTotals,
}

/// Spawn a process on calendar shard `shard` and record the simulated
/// time at which it finished. Shard placement is a locality hint only
/// (see [`simcore::Ctx::spawn_on`]); the workload pins each producer and
/// consumer to its node's leaf shard.
fn spawn_timed(
    ctx: &simcore::Ctx,
    shard: u32,
    fut: impl std::future::Future<Output = Profile> + 'static,
) -> simcore::JoinHandle<(Profile, SimTime)> {
    let ctx2 = ctx.clone();
    ctx.spawn_on(shard, async move {
        let p = fut.await;
        (p, ctx2.now())
    })
}

/// Execute one repetition of `wf` with `seed`.
pub fn run_once(wf: &WorkflowConfig, cal: &Calibration, seed: u64) -> RunMetrics {
    let setup_started = Instant::now();
    let snap = ClusterSnapshot::prepare(wf, cal, seed ^ 0x7E3A);
    let sim = Sim::with_config(snap.sim_config(seed));
    run_prepared(
        &snap,
        simcore::trace::Tracer::disabled(),
        sim,
        setup_started,
    )
    .metrics
}

/// [`run_once`] with Chrome-trace capture: every producer/consumer
/// region lands on its own timeline track. Export the returned tracer
/// with [`simcore::trace::Tracer::to_chrome_json`].
pub fn run_once_traced(
    wf: &WorkflowConfig,
    cal: &Calibration,
    seed: u64,
) -> (RunMetrics, simcore::trace::Tracer) {
    let setup_started = Instant::now();
    let snap = ClusterSnapshot::prepare(wf, cal, seed ^ 0x7E3A);
    let (metrics, _, tracer) = run_once_traced_snap(&snap, seed, setup_started);
    (metrics, tracer)
}

/// [`run_once_traced`] against an already prepared snapshot, also
/// returning the run's wall-clock setup/sim split.
pub fn run_once_traced_snap(
    snap: &ClusterSnapshot,
    seed: u64,
    setup_started: Instant,
) -> (RunMetrics, RunTimings, simcore::trace::Tracer) {
    let tracer = simcore::trace::Tracer::enabled();
    let sim = Sim::with_config(snap.sim_config(seed));
    let out = run_prepared(snap, tracer.clone(), sim, setup_started);
    (out.metrics, out.timings, tracer)
}

/// Warm-start variant of [`run_once`]: execute one repetition against a
/// prepared [`ClusterSnapshot`], recycling the executor allocations in
/// `arena` between runs. Trajectory-identical to [`run_once`] with the
/// same seed (see the [`crate::arena`] module docs); this is what the
/// campaign executor drives, one arena per worker.
pub fn run_once_warm(
    snap: &ClusterSnapshot,
    seed: u64,
    arena: &mut RunArena,
) -> (RunMetrics, RunTimings) {
    let setup_started = Instant::now();
    let cfg = snap.sim_config(seed);
    let sim = match arena.sim.take() {
        Some(recycled) => Sim::with_config_arena(cfg, recycled),
        None => Sim::with_config(cfg),
    };
    let out = run_prepared(snap, simcore::trace::Tracer::disabled(), sim, setup_started);
    arena.sim = Some(out.arena);
    (out.metrics, out.timings)
}

/// What one simulated repetition hands back to its caller: the metrics,
/// the wall-clock setup/sim split, and the recovered executor arena.
struct RunOutput {
    metrics: RunMetrics,
    timings: RunTimings,
    arena: simcore::SimArena,
}

/// The shared run body: build the live substrates from the snapshot,
/// spawn the ensemble, advance the simulation, collect. Both the cold
/// path ([`run_once`], which prepares a throwaway snapshot) and the warm
/// path ([`run_once_warm`]) execute exactly this code, which is what
/// keeps their trajectories identical.
fn run_prepared(
    snap: &ClusterSnapshot,
    tracer: simcore::trace::Tracer,
    sim: Sim,
    setup_started: Instant,
) -> RunOutput {
    let wf = &snap.workflow;
    let cal = &snap.calibration;
    if wf.solution == Solution::Xfs {
        assert_eq!(
            wf.placement,
            crate::config::Placement::SingleNode,
            "XFS cannot move data between nodes (paper §III-B)"
        );
    }
    let ctx = sim.ctx();

    // ---- topology ------------------------------------------------------
    let plan = &snap.plan;
    let n_compute = snap.n_compute;
    let n_total = snap.n_total;
    let pfs_nodes = snap.pfs_nodes.clone();
    let cluster = Cluster::build(&ctx, &snap.spec);
    let tp = Transport::new(&ctx, cluster.fabric().clone(), cal.transport);
    // Calendar shard for node-local activity: the node's leaf shard
    // when the fabric topology shards the calendar, else shard 0.
    // Placement is a locality hint; it never changes the schedule.
    let fabric_spec = snap.spec.fabric;
    let node_shard = move |n: u32| fabric_spec.shard_of(NodeId(n), n_total);

    // ---- fault board -----------------------------------------------------
    // Built only when the plan is non-empty: a disabled FaultConfig arms
    // zero timers and leaves every substrate byte-identical to a build
    // without the fault layer (the determinism fixtures pin this). The
    // plan itself is part of the snapshot (pure data, seeded by the
    // FaultConfig, shared by every repetition of the point).
    let fault_board = snap.fault_plan.as_ref().map(|plan| {
        let board = faults::FaultBoard::new(&ctx, n_total, cal.n_osts);
        tp.set_faults(board.clone());
        (board, plan)
    });

    // ---- substrates ------------------------------------------------------
    let local_fs: Vec<LocalFs> = (0..n_compute as u32)
        .map(|i| {
            let mut nvme = cluster.node(NodeId(i)).nvme.clone();
            let mut fs_probe = None;
            if let Some((board, _)) = &fault_board {
                let b = board.clone();
                nvme.set_slow_probe(Rc::new(move || b.nvme_factor(i)));
                // Device-error injection only for DYAD, whose produce
                // and consume paths carry typed recovery; the manual
                // baselines model faults as slowdowns and freezes.
                if wf.solution == Solution::Dyad {
                    let b = board.clone();
                    fs_probe = Some(Rc::new(move || b.nvme_error(i)) as Rc<dyn Fn() -> bool>);
                }
            }
            let mut fs = ctx.with_shard(node_shard(i), || LocalFs::new(&ctx, nvme, cal.localfs));
            if let Some(p) = fs_probe {
                fs.set_io_error_probe(p);
            }
            fs
        })
        .collect();
    // Metadata plane: a mesh of `kvs_shards` brokers for every KVS
    // solution. Shard s is colocated on compute node (s % n_compute), so
    // the default single broker is shard 0 on node 0.
    let kvs_mesh = wf.solution.needs_kvs().then(|| {
        let shard_nodes: Vec<NodeId> = (0..wf.kvs_shards)
            .map(|s| NodeId(s % n_compute as u32))
            .collect();
        KvsMesh::start(&ctx, &tp, &shard_nodes, cal.kvs, wf.kvs_replication)
    });
    let kvs_client = |node: u32| -> KvsClient {
        let mesh = kvs_mesh.as_ref().expect("solution runs without a KVS");
        mesh.client(&ctx, &tp, NodeId(node))
    };
    let pfs = pfs_nodes.map(|(mds, osts)| ParallelFs::start(&ctx, &tp, mds, osts, cal.pfs));
    // One staging manager per compute node for the staged backends
    // (DYAD and streaming): tracks the staged-frame lifecycle and (when
    // the budget is finite) runs the evictor.
    let uses_staging = matches!(wf.solution, Solution::Dyad | Solution::Streaming);
    let staging_mgrs: Vec<Option<Rc<StagingManager>>> = if uses_staging {
        let spec = StagingSpec {
            budget_bytes: wf.staging.budget_bytes.unwrap_or(u64::MAX),
            low_watermark: cal.staging_low_watermark,
            high_watermark: cal.staging_high_watermark,
            evict_interval: cal.staging_evict_interval,
            retention: wf.staging.retention,
        };
        (0..n_compute as u32)
            .map(|i| {
                let pfs_client = if wf.staging.spill_to_pfs {
                    pfs.as_ref().map(|p| p.client(&ctx, NodeId(i)))
                } else {
                    None
                };
                let mgr = ctx.with_shard(node_shard(i), || {
                    let mgr = StagingManager::new(
                        &ctx,
                        NodeId(i),
                        local_fs[i as usize].clone(),
                        kvs_client(i),
                        pfs_client,
                        spec,
                    );
                    // Only burn evictor wake-ups when a pass can ever act.
                    if mgr.is_bounded() || wf.staging.retention == RetentionPolicy::EagerRetire {
                        mgr.spawn_evictor();
                    }
                    mgr
                });
                Some(mgr)
            })
            .collect()
    } else {
        vec![None; n_compute]
    };
    let dyad_services: Vec<Rc<DyadService>> = if wf.solution == Solution::Dyad {
        (0..n_compute as u32)
            .map(|i| {
                let mut spec = cal.dyad.clone();
                spec.warm_sync = wf.dyad_warm_sync;
                ctx.with_shard(node_shard(i), || {
                    DyadService::start_staged(
                        &ctx,
                        &tp,
                        NodeId(i),
                        local_fs[i as usize].clone(),
                        kvs_client(i),
                        spec,
                        staging_mgrs[i as usize].clone(),
                    )
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    // Per-node stream services: the SST-style peer of the DYAD service,
    // sharing the DYAD calibration constants so the fanout=1 shape is a
    // like-for-like comparison.
    let stream_services: Vec<Rc<StreamService>> = if wf.solution == Solution::Streaming {
        (0..n_compute as u32)
            .map(|i| {
                let spec = StreamSpec {
                    managed_dir: streaming::DEFAULT_MANAGED_DIR.to_string(),
                    window: wf.streaming.window.max(1),
                    publish_overhead: cal.dyad.produce_overhead,
                    service_threads: cal.dyad.service_threads,
                    service_time: cal.dyad.service_time,
                    warm_sync: wf.dyad_warm_sync,
                    reclaim_on_crash: wf.streaming.reclaim_on_crash,
                    stall_poll: StreamSpec::default().stall_poll,
                };
                ctx.with_shard(node_shard(i), || {
                    StreamService::start_staged(
                        &ctx,
                        &tp,
                        NodeId(i),
                        local_fs[i as usize].clone(),
                        kvs_client(i),
                        spec,
                        staging_mgrs[i as usize].clone(),
                    )
                })
            })
            .collect()
    } else {
        Vec::new()
    };
    // Crash/restart lifecycle: a node crash loses that node's staged
    // NVMe frames (spilled copies survive on the PFS); the restart hook
    // re-publishes what survived and tombstones what did not. Hooks are
    // registered before the plan is armed so the first event sees them.
    if let Some((board, plan)) = &fault_board {
        for (i, mgr) in staging_mgrs.iter().enumerate() {
            if let Some(mgr) = mgr {
                let m = mgr.clone();
                board.on_crash(move |n| {
                    if n == i as u32 {
                        m.on_node_crash();
                    }
                });
                let m = mgr.clone();
                let hctx = ctx.clone();
                board.on_restart(move |n| {
                    if n == i as u32 {
                        let m = m.clone();
                        hctx.spawn(async move { m.on_node_restart().await });
                    }
                });
            }
        }
        board.arm(plan);
    }
    // Lock service (lock-based manual sync only), colocated with the MDS
    // for Lustre or the KVS broker node otherwise.
    let ldlm_server: Option<std::rc::Rc<LdlmServer>> =
        if wf.manual_sync == crate::config::ManualSync::LockBased {
            let node = pfs.as_ref().map(|p| p.mds().node()).unwrap_or(NodeId(0));
            Some(LdlmServer::start(&ctx, &tp, node, LdlmSpec::default()))
        } else {
            None
        };
    let ldlm_client = |node: u32| {
        ldlm_server
            .as_ref()
            .map(|srv| LdlmClient::new(&ctx, &tp, NodeId(node), srv.node()))
    };

    // ---- workload --------------------------------------------------------
    let template = Rc::new(snap.template.clone());
    let clock = StepClock {
        ms_per_step: wf.model.ms_per_step(),
        jitter: cal.md_jitter,
    };
    let period = SimDuration::from_secs_f64(wf.frame_period_secs());

    let mut prod_handles = Vec::with_capacity(wf.pairs as usize);
    let mut cons_handles = Vec::with_capacity(wf.pairs as usize);
    for (pair, &(pn, cn)) in plan.pair_nodes.iter().enumerate() {
        let pair = pair as u32;
        // Low-discrepancy launch stagger across one frame period: real
        // ensembles never start in lockstep, and phase-locked pairs
        // would otherwise collide on every shared resource at once.
        let stagger = period.mul_f64((pair as f64 * 0.618_033_988_75).fract());
        let pargs = ProducerArgs {
            ctx: ctx.clone(),
            pair,
            frames: wf.frames,
            stride: wf.stride,
            clock,
            template: template.clone(),
            serialize_cpu: cal.serialize_cpu,
            start_offset: stagger,
            tracer: tracer.clone(),
            schedule: wf.schedule.clone(),
            faults: fault_board.as_ref().map(|(b, _)| b.clone()),
            node: pn,
        };
        let cargs = ConsumerArgs {
            ctx: ctx.clone(),
            pair,
            frames: wf.frames,
            analytics: period,
            jitter: cal.md_jitter,
            rng_stream: 0xC000 + pair as u64,
            start_offset: stagger + period.mul_f64(cal.consumer_launch_delay),
            tracer: tracer.clone(),
            template: template.clone(),
            deserialize_cpu: cal.deserialize_cpu,
            faults: fault_board.as_ref().map(|(b, _)| b.clone()),
            node: cn,
        };
        let rng_stream = 0x9000 + pair as u64;
        match wf.solution {
            Solution::Dyad => {
                let psvc = dyad_services[pn as usize].clone();
                let csvc = dyad_services[cn as usize].clone();
                // Retention contract: the producer node's evictor must
                // hold each of this pair's frames until consumer
                // `c{pair}` acknowledges it.
                if let Some(mgr) = &staging_mgrs[pn as usize] {
                    let (frame_dir, consumer_id) = &snap.registrations[pair as usize];
                    mgr.register_consumer(frame_dir, consumer_id);
                }
                prod_handles.push(spawn_timed(
                    &ctx,
                    node_shard(pn),
                    producer_dyad(pargs, psvc, rng_stream),
                ));
                cons_handles.push(spawn_timed(
                    &ctx,
                    node_shard(cn),
                    consumer_dyad(cargs, csvc),
                ));
            }
            Solution::Xfs => {
                let storage = Storage::Local(local_fs[pn as usize].clone());
                let s = pair_sync();
                prod_handles.push(spawn_timed(
                    &ctx,
                    node_shard(pn),
                    producer_manual(
                        pargs,
                        storage.clone(),
                        (s.ready_tx, s.done_rx),
                        wf.manual_sync,
                        ldlm_client(pn),
                        rng_stream,
                    ),
                ));
                cons_handles.push(spawn_timed(
                    &ctx,
                    node_shard(cn),
                    consumer_manual(
                        cargs,
                        storage,
                        (s.ready_rx, s.done_tx),
                        wf.manual_sync,
                        ldlm_client(cn),
                        cal.manual_poll_interval,
                    ),
                ));
            }
            Solution::Lustre => {
                let fs = pfs.as_ref().expect("pfs built");
                let pstore = Storage::Pfs(fs.client(&ctx, NodeId(pn)));
                let cstore = Storage::Pfs(fs.client(&ctx, NodeId(cn)));
                let s = pair_sync();
                prod_handles.push(spawn_timed(
                    &ctx,
                    node_shard(pn),
                    producer_manual(
                        pargs,
                        pstore,
                        (s.ready_tx, s.done_rx),
                        wf.manual_sync,
                        ldlm_client(pn),
                        rng_stream,
                    ),
                ));
                cons_handles.push(spawn_timed(
                    &ctx,
                    node_shard(cn),
                    consumer_manual(
                        cargs,
                        cstore,
                        (s.ready_rx, s.done_tx),
                        wf.manual_sync,
                        ldlm_client(cn),
                        cal.manual_poll_interval,
                    ),
                ));
            }
            Solution::DyadOnPfs => {
                let fs = pfs.as_ref().expect("pfs built");
                let pstore = Storage::Pfs(fs.client(&ctx, NodeId(pn)));
                let cstore = Storage::Pfs(fs.client(&ctx, NodeId(cn)));
                prod_handles.push(spawn_timed(
                    &ctx,
                    node_shard(pn),
                    producer_dyad_on_pfs(pargs, pstore, kvs_client(pn), NodeId(pn), rng_stream),
                ));
                cons_handles.push(spawn_timed(
                    &ctx,
                    node_shard(cn),
                    consumer_dyad_on_pfs(cargs, cstore, kvs_client(cn), wf.dyad_warm_sync),
                ));
            }
            Solution::Streaming => {
                unreachable!("streaming placement has no pair_nodes (see stream_plan)")
            }
        }
    }

    // Streaming workload: M:N groups instead of pairs. Registrations
    // first (the retention contract must be in place before the first
    // step lands), then one publisher per group leaf and one subscriber
    // per group member (or the single fan-in reducer).
    if let Some(sp) = &snap.stream_plan {
        for (node, dir, consumer) in &snap.stream_regs {
            if let Some(mgr) = &staging_mgrs[*node as usize] {
                mgr.register_consumer(dir, consumer);
            }
        }
        let s = &wf.streaming;
        let mut pub_idx = 0u32;
        let mut sub_idx = 0u32;
        for (g, gp) in sp.groups.iter().enumerate() {
            let g = g as u32;
            // Same low-discrepancy launch stagger as the pair loop,
            // per group.
            let stagger = period.mul_f64((g as f64 * 0.618_033_988_75).fract());
            let role = StreamRole {
                group: g,
                mode: s.group,
                fanout: s.fanout.max(1),
                fanin: s.fanin.max(1),
                leaf: 0,
                agg_frames: s.agg_frames.max(1),
            };
            let group_ackers: Vec<StreamAcker> = if s.fanin > 1 {
                vec![StreamAcker {
                    consumer: format!("g{g}r"),
                    node: gp.subscribers[0],
                }]
            } else {
                gp.subscribers
                    .iter()
                    .enumerate()
                    .map(|(j, &n)| StreamAcker {
                        consumer: match s.group {
                            streaming::GroupMode::Broadcast => format!("g{g}s{j}"),
                            streaming::GroupMode::Partitioned => format!("g{g}p"),
                        },
                        node: n,
                    })
                    .collect()
            };
            for (l, &pn) in gp.publishers.iter().enumerate() {
                let pargs = ProducerArgs {
                    ctx: ctx.clone(),
                    pair: pub_idx,
                    frames: wf.frames,
                    stride: wf.stride,
                    clock,
                    template: template.clone(),
                    serialize_cpu: cal.serialize_cpu,
                    start_offset: stagger,
                    tracer: tracer.clone(),
                    schedule: wf.schedule.clone(),
                    faults: fault_board.as_ref().map(|(b, _)| b.clone()),
                    node: pn,
                };
                let leaf_role = StreamRole {
                    leaf: l as u32,
                    ..role
                };
                prod_handles.push(spawn_timed(
                    &ctx,
                    node_shard(pn),
                    publisher_stream(
                        pargs,
                        stream_services[pn as usize].clone(),
                        leaf_role,
                        group_ackers.clone(),
                        0x9000 + pub_idx as u64,
                    ),
                ));
                pub_idx += 1;
            }
            for (j, &cn) in gp.subscribers.iter().enumerate() {
                let cargs = ConsumerArgs {
                    ctx: ctx.clone(),
                    pair: sub_idx,
                    frames: wf.frames,
                    analytics: period,
                    jitter: cal.md_jitter,
                    rng_stream: 0xC000 + sub_idx as u64,
                    start_offset: stagger + period.mul_f64(cal.consumer_launch_delay),
                    tracer: tracer.clone(),
                    template: template.clone(),
                    deserialize_cpu: cal.deserialize_cpu,
                    faults: fault_board.as_ref().map(|(b, _)| b.clone()),
                    node: cn,
                };
                let svc = stream_services[cn as usize].clone();
                if s.fanin > 1 {
                    cons_handles.push(spawn_timed(
                        &ctx,
                        node_shard(cn),
                        reducer_stream(cargs, svc, role),
                    ));
                } else {
                    cons_handles.push(spawn_timed(
                        &ctx,
                        node_shard(cn),
                        subscriber_stream(cargs, svc, role, j as u32),
                    ));
                }
                sub_idx += 1;
            }
        }
    }

    // Everything up to here is setup; everything after is simulation.
    let setup_secs = setup_started.elapsed().as_secs_f64();
    let sim_started = Instant::now();

    // The PFS interference processes never terminate, so advance the
    // clock in slices and stop as soon as every workload process has
    // finished (the workload, not the background noise, defines the run).
    let slice =
        SimDuration::from_secs_f64((wf.frames as f64 * period.as_secs_f64()).max(1.0) / 4.0);
    let hard_stop = SimTime::from_nanos(
        ((wf.frames + 16) as f64 * period.as_secs_f64().max(0.001) * 400.0 * 1e9) as u64,
    );
    let mut deadline = SimTime::ZERO + slice;
    let report = loop {
        let report = sim.run_until(deadline);
        let done = prod_handles.iter().all(|h| h.is_finished())
            && cons_handles.iter().all(|h| h.is_finished());
        if done {
            break report;
        }
        assert!(
            deadline < hard_stop,
            "workload failed to finish by the hard stop — deadlock?"
        );
        deadline += slice;
    };
    // Makespan = when the workload finished, not when the horizon cut
    // off the (never-terminating) background-interference processes.
    let mut makespan = SimTime::ZERO;
    let mut take = |h: simcore::JoinHandle<(Profile, SimTime)>| {
        let (p, done) = h.try_take().expect("process finished");
        makespan = makespan.max(done);
        p
    };
    let producers: Vec<Profile> = prod_handles.into_iter().map(&mut take).collect();
    let consumers: Vec<Profile> = cons_handles.into_iter().map(&mut take).collect();
    let mut staging_totals = StagingTotals::default();
    let mut stream_totals = StreamTotals::default();
    for svc in &stream_services {
        stream_totals.absorb(&svc.stats());
    }
    let mut fault_totals = FaultTotals::default();
    for mgr in staging_mgrs.iter().flatten() {
        let s = mgr.stats();
        staging_totals.absorb(&s);
        fault_totals.frames_lost += s.frames_lost;
        fault_totals.republished_frames += s.republished_frames;
        // Retention invariant: nothing retires before every registered
        // consumer acknowledged it (cheap; guards every study we run).
        for r in mgr.retire_log() {
            assert_eq!(
                r.acks_seen, r.required_acks,
                "frame {} retired before all acks",
                r.path
            );
        }
    }
    if let Some((board, _)) = &fault_board {
        let s = board.stats();
        fault_totals.injected = s.injected;
        fault_totals.crashes = s.crashes;
        fault_totals.restarts = s.restarts;
        fault_totals.kvs_shard_crashes = s.kvs_shard_crashes;
        let t = tp.stats();
        fault_totals.rpc_retries = t.rpc_retries;
        fault_totals.rpc_giveups = t.rpc_giveups;
        fault_totals.retry_backoff_secs = SimDuration::from_nanos(t.retry_backoff_ns).as_secs_f64();
        let sum = |key: &str| -> u64 {
            producers
                .iter()
                .chain(consumers.iter())
                .map(|p| p.sum_metric(key))
                .sum::<f64>()
                .round() as u64
        };
        fault_totals.produce_outer_retries = sum("produce_outer_retries");
        fault_totals.consume_outer_retries = sum("consume_outer_retries");
        fault_totals.produce_failures = sum("produce_failures");
        fault_totals.consume_failures = sum("consume_failures");
        fault_totals.frames_lost_observed = sum("frames_lost_observed");
    }
    let mut kvs_totals = KvsTotals::default();
    if let Some(mesh) = &kvs_mesh {
        kvs_totals.shards = mesh.shards();
        kvs_totals.replication = mesh.topology().replication();
        for s in 0..mesh.shards() {
            kvs_totals.absorb(&mesh.shard_stats(s));
        }
    }
    drop(kvs_mesh);
    // Worker-invariant per-shard load summary, read out before the
    // arena teardown clears the counters.
    let shard_load = instrument::ShardLoad::from_stats(&sim.shard_stats());
    // Recover the executor allocations for the next warm run. Pending
    // background tasks and their timers drop here exactly as dropping
    // the Sim would drop them (the substrates hold weak Ctx handles, so
    // the core's strong count is already down to this one Sim).
    let arena = sim.into_arena();
    RunOutput {
        metrics: RunMetrics {
            producers,
            consumers,
            makespan,
            events: report.events_processed,
            staging: staging_totals,
            streaming: stream_totals,
            faults: fault_totals,
            kvs: kvs_totals,
        },
        timings: RunTimings {
            setup_secs,
            sim_secs: sim_started.elapsed().as_secs_f64(),
            shard_load: Some(shard_load),
        },
        arena,
    }
}

/// Execute a full study (all repetitions, rayon-parallel) and reduce it
/// to a [`crate::report::StudyReport`].
pub fn run_study(study: &StudyConfig) -> crate::report::StudyReport {
    let runs: Vec<RunMetrics> = (0..study.repetitions)
        .into_par_iter()
        .map(|rep| run_once(&study.workflow, &study.calibration, study.seed + rep as u64))
        .collect();
    crate::report::StudyReport::from_runs(&study.workflow, &runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use mdsim::Model;

    fn small(solution: Solution, pairs: u32, placement: Placement) -> WorkflowConfig {
        WorkflowConfig::new(solution, pairs, placement).with_frames(6)
    }

    #[test]
    fn dyad_single_node_completes() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::SingleNode);
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        assert_eq!(m.consumers.len(), 2);
        // 6 frames at ~0.82 s plus pipeline drain.
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn xfs_single_node_completes_serialized() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Xfs, 1, Placement::SingleNode);
        let m = run_once(&wf, &cal, 1);
        // Coarse sync serializes: ~2 periods per frame.
        let t = m.makespan.as_secs_f64();
        assert!(t > 9.0 && t < 12.0, "makespan {t}");
    }

    #[test]
    fn lustre_two_nodes_completes() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Lustre, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        let t = m.makespan.as_secs_f64();
        assert!(t > 9.0 && t < 13.0, "makespan {t}");
    }

    #[test]
    fn dyad_two_nodes_pipelines() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        // Pipelined: ~1 period per frame (plus one-frame drain).
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn dyad_on_pfs_ablation_completes() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::DyadOnPfs,
            2,
            Placement::Split { pairs_per_node: 8 },
        );
        let m = run_once(&wf, &cal, 1);
        let t = m.makespan.as_secs_f64();
        // DYAD sync pipelines even over PFS storage.
        assert!(t > 4.9 && t < 8.5, "makespan {t}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cal = Calibration::corona();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let a = run_once(&wf, &cal, 42);
        let b = run_once(&wf, &cal, 42);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn bounded_staging_is_deterministic_and_exercises_the_lifecycle() {
        // Satellite of the staging tentpole: same seed + same budget ⇒
        // identical makespans AND identical eviction/spill history; and
        // a ~3-frame budget must actually trigger the evictor.
        let cal = Calibration::quiet();
        let budget = 3 * Model::Jac.frame_bytes();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 })
            .with_frames(12)
            .with_staging_budget(budget)
            .with_spill(true);
        let a = run_once(&wf, &cal, 9);
        let b = run_once(&wf, &cal, 9);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.staging.evicted_frames, b.staging.evicted_frames);
        assert_eq!(a.staging.spilled_frames, b.staging.spilled_frames);
        assert_eq!(a.staging.backpressure_stalls, b.staging.backpressure_stalls);
        assert!(
            a.staging.evicted_frames > 0,
            "a 3-frame budget never retired anything: {:?}",
            a.staging
        );
        assert_eq!(a.staging.acks_published, 2 * 12);
    }

    #[test]
    fn unbounded_staging_matches_legacy_dyad_timing() {
        // The default (no budget) must reproduce the paper's DYAD
        // numbers: no evictions, no stalls, same makespan window as
        // `dyad_two_nodes_pipelines`.
        let cal = Calibration::quiet();
        let wf = small(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 });
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.staging.evicted_frames, 0);
        assert_eq!(m.staging.spilled_frames, 0);
        assert_eq!(m.staging.backpressure_stalls, 0);
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn different_models_work() {
        let cal = Calibration::quiet();
        for model in [Model::ApoA1, Model::Stmv] {
            let wf = small(Solution::Dyad, 1, Placement::Split { pairs_per_node: 8 })
                .with_model(model)
                .with_frames(3);
            let m = run_once(&wf, &cal, 7);
            assert_eq!(m.producers.len(), 1);
        }
    }

    #[test]
    fn streaming_one_to_one_pipelines_like_dyad() {
        // fanout = fanin = 1 is the near-DYAD shape: same staging, same
        // KVS rendezvous, bounded window never binds at depth 4.
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            2,
            Placement::Split { pairs_per_node: 8 },
        );
        let m = run_once(&wf, &cal, 1);
        assert_eq!(m.producers.len(), 2);
        assert_eq!(m.consumers.len(), 2);
        assert_eq!(m.streaming.steps_published, 2 * 6);
        assert_eq!(m.streaming.steps_consumed, 2 * 6);
        assert_eq!(m.streaming.bytes_published, m.streaming.bytes_consumed);
        let t = m.makespan.as_secs_f64();
        assert!(t > 4.9 && t < 8.0, "makespan {t}");
    }

    #[test]
    fn streaming_broadcast_fanout_delivers_to_every_subscriber() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_fanout(3);
        let m = run_once(&wf, &cal, 2);
        assert_eq!(m.producers.len(), 1);
        assert_eq!(m.consumers.len(), 3);
        // Every subscriber consumed every step.
        assert_eq!(m.streaming.steps_published, 6);
        assert_eq!(m.streaming.steps_consumed, 3 * 6);
        assert_eq!(m.streaming.bytes_consumed, 3 * m.streaming.bytes_published);
        // Staging retention honored the 3-ack contract (checked by the
        // retire-log assertion in run_prepared) and all acks landed.
        assert_eq!(m.staging.acks_published, 3 * 6);
    }

    #[test]
    fn streaming_partitioned_fanout_shares_the_step_sequence() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_fanout(3)
        .with_group_mode(streaming::GroupMode::Partitioned);
        let m = run_once(&wf, &cal, 3);
        // Each step consumed exactly once across the group.
        assert_eq!(m.streaming.steps_published, 6);
        assert_eq!(m.streaming.steps_consumed, 6);
        assert_eq!(m.streaming.bytes_consumed, m.streaming.bytes_published);
        assert_eq!(m.staging.acks_published, 6);
    }

    #[test]
    fn streaming_fanin_reduction_completes() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_fanin(4);
        let m = run_once(&wf, &cal, 4);
        assert_eq!(m.producers.len(), 4);
        assert_eq!(m.consumers.len(), 1);
        // The reducer consumed every leaf's steps; byte conservation
        // through the tree is asserted inside the reducer body.
        assert_eq!(m.streaming.steps_published, 4 * 6);
        assert_eq!(m.streaming.steps_consumed, 4 * 6);
        let reduced: f64 = m.consumers[0].sum_metric("reduced_steps");
        assert_eq!(reduced as u64, 6);
    }

    #[test]
    fn streaming_window_binds_and_is_deterministic() {
        // Window depth 1 with slow analytics forces publisher stalls;
        // the stall accounting must be seed-stable.
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            2,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_stream_window(1);
        let a = run_once(&wf, &cal, 5);
        let b = run_once(&wf, &cal, 5);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.events, b.events);
        assert_eq!(a.streaming.window_stalls, b.streaming.window_stalls);
        assert_eq!(a.streaming.window_stall_secs, b.streaming.window_stall_secs);
    }

    #[test]
    fn streaming_step_aggregation_publishes_fewer_larger_steps() {
        let cal = Calibration::quiet();
        let wf = small(
            Solution::Streaming,
            1,
            Placement::Split { pairs_per_node: 8 },
        )
        .with_agg_frames(3);
        let m = run_once(&wf, &cal, 6);
        // 6 frames at 3 per step = 2 steps, all bytes conserved.
        assert_eq!(m.streaming.steps_published, 2);
        assert_eq!(m.streaming.steps_consumed, 2);
        assert_eq!(m.streaming.bytes_consumed, m.streaming.bytes_published);
    }

    #[test]
    #[should_panic(expected = "XFS cannot move data between nodes")]
    fn xfs_multi_node_is_rejected() {
        let cal = Calibration::quiet();
        let wf = small(Solution::Xfs, 2, Placement::Split { pairs_per_node: 8 });
        let _ = run_once(&wf, &cal, 1);
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::config::Placement;

    #[test]
    fn seed_sweep_single_node_dyad_never_corrupts() {
        // Regression for a race where a same-node consumer could observe
        // a frame file between the producer's create() and its final
        // write, reading a partial payload. The consumer asserts frame
        // integrity, so any corruption panics.
        let cal = Calibration::corona();
        let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::SingleNode).with_frames(20);
        for seed in 0..200 {
            let m = run_once(&wf, &cal, seed);
            assert_eq!(m.consumers.len(), 2, "seed {seed}");
        }
    }
}
