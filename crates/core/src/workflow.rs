//! Producer and consumer process bodies — §IV-C's "point-to-point
//! MD-inspired workflow".
//!
//! A producer emulates an MD simulation: it sleeps for one stride of MD
//! steps (Table II durations, with jitter), serializes a frame, and
//! writes it through the configured data-management solution. A consumer
//! reads each frame, deserializes/validates it, and sleeps for its
//! analytics (the paper sets the analytics duration equal to the frame
//! period so producer and consumer are rate-matched).
//!
//! Region names match the paper's Caliper annotations so the Thicket
//! layer can reproduce Figures 9 and 10:
//!
//! * producers: `md_sim`, then `produce` → { `write_single_buf`,
//!   `explicit_sync` } for the manual baselines, or DYAD's
//!   `dyad_produce` tree;
//! * consumers: `consume` → { `explicit_sync`, `read_single_buf` } or
//!   DYAD's `dyad_consume` tree, then `analytics`.
//!
//! **Coarse-grained manual sync** (the paper's baseline protocol) fully
//! serializes each pair: the consumer waits for the write to complete
//! (its `explicit_sync` ≈ one frame period of idle time) and the
//! producer does not start the next stride until the consumer finished
//! its analytics. The producer's wait lives in the `serialized_wait`
//! region — *outside* `produce` — mirroring how the paper's production
//! time shows no significant idle while consumption idle dominates
//! (DESIGN.md §2 discusses this interpretation).

use std::rc::Rc;

use bytes::Bytes;
use dyad::{DyadConsumer, DyadError, DyadService, FrameLocation, FrameMeta};
use faults::FaultBoard;
use instrument::{Profile, Recorder};
use kvs::KvsClient;
use localfs::LocalFs;
use mdsim::{FrameHeader, FrameTemplate, StepClock};
use pfs::{LdlmClient, LockMode, PfsClient};
use simcore::sync::{channel, Receiver, Sender};
use simcore::trace::Tracer;
use simcore::{Ctx, SimDuration};
use streaming::StreamAcker;
use transport::Payload;

use crate::config::ManualSync;
use crate::schedule::FrameSchedule;

/// Storage backend for the manual (XFS/Lustre) baselines.
#[derive(Clone)]
pub enum Storage {
    /// Node-local XFS-like filesystem.
    Local(LocalFs),
    /// Lustre-like parallel filesystem client.
    Pfs(PfsClient),
}

impl Storage {
    /// Write a frame rope to `path` (create, write segments, close).
    pub async fn write_frame(&self, path: &str, frame: Payload) {
        match self {
            Storage::Local(fs) => {
                let fd = fs.create(path).await.expect("create");
                for seg in frame {
                    fs.write_bytes(fd, seg).await.expect("write");
                }
                fs.close(fd).await.expect("close");
            }
            Storage::Pfs(c) => {
                let fd = c.create(path).await.expect("create");
                c.write_segments(fd, frame).await.expect("write");
                c.close(fd).await.expect("close");
            }
        }
    }

    /// Read the whole frame at `path` as a rope.
    pub async fn read_frame(&self, path: &str) -> Payload {
        match self {
            Storage::Local(fs) => {
                let fd = fs.open(path).await.expect("open");
                let data = fs.read_segments(fd).await.expect("read");
                let _ = fs.close(fd).await;
                data
            }
            Storage::Pfs(c) => {
                let fd = c.open(path).await.expect("open");
                let data = c.read_segments(fd).await.expect("read");
                let _ = c.close(fd).await;
                data
            }
        }
    }

    /// Make sure the parent directory exists (local fs only; the PFS
    /// namespace is flat).
    pub async fn ensure_dir(&self, dir: &str) {
        if let Storage::Local(fs) = self {
            let _ = fs.mkdir_p(dir).await;
        }
    }

    /// Probe whether `path` exists, charging one metadata operation (a
    /// `stat`, as a polling workflow manager would issue).
    pub async fn probe(&self, path: &str) -> bool {
        match self {
            Storage::Local(fs) => fs.stat(path).await.is_ok(),
            Storage::Pfs(c) => c.stat(path).await.is_ok(),
        }
    }

    /// Write an empty `.done` marker next to a frame (the Pegasus-style
    /// completion convention for polling synchronization).
    pub async fn write_marker(&self, path: &str) {
        let marker = format!("{path}.done");
        match self {
            Storage::Local(fs) => {
                let fd = fs.create(&marker).await.expect("marker create");
                fs.close(fd).await.expect("marker close");
            }
            Storage::Pfs(c) => {
                let fd = c.create(&marker).await.expect("marker create");
                c.close(fd).await.expect("marker close");
            }
        }
    }
}

/// Per-pair rendezvous used by the manual baselines: `ready` announces a
/// written frame; `done` releases the producer for the next stride.
pub struct PairSync {
    /// Producer side.
    pub ready_tx: Sender<u64>,
    /// Producer side.
    pub done_rx: Receiver<u64>,
    /// Consumer side.
    pub ready_rx: Receiver<u64>,
    /// Consumer side.
    pub done_tx: Sender<u64>,
}

/// Build the two channels for one pair.
pub fn pair_sync() -> PairSync {
    let (ready_tx, ready_rx) = channel();
    let (done_tx, done_rx) = channel();
    PairSync {
        ready_tx,
        done_rx,
        ready_rx,
        done_tx,
    }
}

/// Everything a producer process needs.
pub struct ProducerArgs {
    /// Simulation handle.
    pub ctx: Ctx,
    /// Pair index (path namespace).
    pub pair: u32,
    /// Frames to produce.
    pub frames: u64,
    /// MD stride (steps per frame).
    pub stride: u64,
    /// Per-step timing.
    pub clock: StepClock,
    /// Shared frame template for this run.
    pub template: Rc<FrameTemplate>,
    /// CPU cost of serializing a frame.
    pub serialize_cpu: SimDuration,
    /// Launch offset (ensembles never start in lockstep; staggering
    /// reproduces the phase spread a real job launcher produces).
    pub start_offset: SimDuration,
    /// Optional Chrome-trace sink (disabled by default).
    pub tracer: Tracer,
    /// Optional variable-rate schedule (overrides `stride` × `clock`).
    pub schedule: Option<FrameSchedule>,
    /// Fault board when injection is armed for this run. `None` keeps
    /// the process body byte-identical to the fault-free build.
    pub faults: Option<FaultBoard>,
    /// The compute-node index this process runs on (fault freezes).
    pub node: u32,
}

/// The per-frame MD-phase duration: the variable-rate schedule when one
/// is set, otherwise one jittered stride of Table II steps.
fn md_phase(
    args: &ProducerArgs,
    gen: &mut Option<crate::schedule::ScheduleGen>,
    rng: &mut rand::rngs::StdRng,
) -> SimDuration {
    match gen {
        Some(g) => g.next_gap(),
        None => SimDuration::from_secs_f64(args.clock.stride_secs(args.stride, rng)),
    }
}

/// Frame path for `(pair, frame)` in a run's namespace.
pub fn frame_path(pair: u32, frame: u64) -> String {
    format!("frames/p{pair:04}/f{frame:05}")
}

/// DLM lock resource name for `(pair, frame)`.
pub fn lock_path(pair: u32, frame: u64) -> String {
    format!("locks/p{pair:04}/f{frame:05}")
}

/// DYAD producer process. Returns its Caliper-style profile.
pub async fn producer_dyad(args: ProducerArgs, svc: Rc<DyadService>, rng_stream: u64) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("producer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(rng_stream);
    let mut sched = args
        .schedule
        .as_ref()
        .map(|s| s.generator(args.ctx.rng(rng_stream ^ 0x5C4E)));
    args.ctx.sleep(args.start_offset).await;
    for frame in 0..args.frames {
        {
            let g = rec.region("md_sim");
            let d = md_phase(&args, &mut sched, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
        let payload = {
            let g = rec.region("serialize");
            args.ctx.sleep(args.serialize_cpu).await;
            let p = args.template.frame_segments(frame);
            g.end();
            p
        };
        match &args.faults {
            None => {
                svc.produce(&rec, &frame_path(args.pair, frame), payload)
                    .await;
            }
            Some(board) => {
                // Boxed so the (large, rarely-live) recovery state
                // machine doesn't inflate every fault-free producer task.
                Box::pin(produce_dyad_faulted(
                    &args, board, &svc, &rec, frame, payload, rng_stream,
                ))
                .await;
            }
        }
    }
    rec.finish()
}

/// One fault-tolerant DYAD produce. Device-error windows are absorbed
/// inside [`DyadService::try_produce`]; broker outages that outlast its
/// budget are absorbed here by re-running the (idempotent) produce with
/// backoff. Every fault window is finite by construction, so this
/// terminates; a frame that is truly unwritable is tombstoned by the
/// service and surfaces to consumers as a typed `FrameLost`.
async fn produce_dyad_faulted(
    args: &ProducerArgs,
    board: &FaultBoard,
    svc: &Rc<DyadService>,
    rec: &Recorder,
    frame: u64,
    payload: Payload,
    rng_stream: u64,
) {
    let policy = dyad::dyad_retry_policy();
    let mut frng = args.ctx.rng(rng_stream ^ 0xFA17);
    let mut outer = 0u32;
    loop {
        // A crashed node runs nothing: freeze until the restart.
        board.hold_until_up(args.node).await;
        match svc
            .try_produce(
                rec,
                &frame_path(args.pair, frame),
                payload.clone(),
                &policy,
                &mut frng,
            )
            .await
        {
            Ok(()) => break,
            Err(DyadError::Storage { .. }) => {
                // Retry budget exhausted and tombstone published.
                rec.annotate("produce_failures", 1.0);
                break;
            }
            Err(_) => {
                outer += 1;
                if outer >= 64 {
                    rec.annotate("produce_failures", 1.0);
                    break;
                }
                rec.annotate("produce_outer_retries", 1.0);
                let pause = policy.backoff(outer.min(9), &mut frng);
                args.ctx.sleep(pause).await;
            }
        }
    }
}

/// Manual-baseline producer process (XFS or Lustre).
///
/// `ldlm` must be provided when `mode` is [`ManualSync::LockBased`].
pub async fn producer_manual(
    args: ProducerArgs,
    storage: Storage,
    sync: (Sender<u64>, Receiver<u64>),
    mode: ManualSync,
    ldlm: Option<LdlmClient>,
    rng_stream: u64,
) -> Profile {
    let (ready_tx, mut done_rx) = sync;
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("producer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(rng_stream);
    let mut sched = args
        .schedule
        .as_ref()
        .map(|s| s.generator(args.ctx.rng(rng_stream ^ 0x5C4E)));
    args.ctx.sleep(args.start_offset).await;
    storage
        .ensure_dir(&format!("frames/p{:04}", args.pair))
        .await;
    for frame in 0..args.frames {
        if let Some(board) = &args.faults {
            // A crashed node runs nothing: freeze until the restart.
            board.hold_until_up(args.node).await;
        }
        {
            let g = rec.region("md_sim");
            let d = md_phase(&args, &mut sched, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
        let payload = {
            let g = rec.region("serialize");
            args.ctx.sleep(args.serialize_cpu).await;
            let p = args.template.frame_segments(frame);
            g.end();
            p
        };
        {
            let g = rec.region("produce");
            if mode == ManualSync::LockBased {
                let s = rec.region("explicit_sync");
                ldlm.as_ref()
                    .expect("LockBased needs an LDLM client")
                    .lock(&lock_path(args.pair, frame), LockMode::Exclusive)
                    .await;
                s.end();
            }
            {
                let w = rec.region("write_single_buf");
                storage
                    .write_frame(&frame_path(args.pair, frame), payload)
                    .await;
                w.end();
            }
            {
                // Announce availability. For the channel-based barrier
                // this is a cheap send; for polling it is the `.done`
                // marker write. The *wait* half (if any) is below.
                let s = rec.region("explicit_sync");
                match mode {
                    ManualSync::Polling => {
                        storage.write_marker(&frame_path(args.pair, frame)).await;
                    }
                    ManualSync::LockBased => {
                        ldlm.as_ref()
                            .expect("LockBased needs an LDLM client")
                            .unlock(&lock_path(args.pair, frame), LockMode::Exclusive)
                            .await;
                    }
                    ManualSync::Coarse | ManualSync::Fine => ready_tx.send(frame),
                }
                s.end();
            }
            g.end();
        }
        if matches!(mode, ManualSync::Coarse | ManualSync::Fine) {
            // Coarse/fine serialization: hold the next stride until the
            // consumer releases us. Deliberately not part of `produce`
            // (see module docs). Polling producers never block.
            let g = rec.region("serialized_wait");
            let released = done_rx.recv().await;
            assert_eq!(released, Some(frame), "pair sync out of step");
            g.end();
        }
    }
    rec.finish()
}

/// Everything a consumer process needs.
pub struct ConsumerArgs {
    /// Simulation handle.
    pub ctx: Ctx,
    /// Pair index.
    pub pair: u32,
    /// Frames to consume.
    pub frames: u64,
    /// Analytics duration per frame (the frame period).
    pub analytics: SimDuration,
    /// Relative jitter on the analytics duration.
    pub jitter: f64,
    /// RNG stream for the analytics jitter.
    pub rng_stream: u64,
    /// Launch offset (paired with the producer's).
    pub start_offset: SimDuration,
    /// Optional Chrome-trace sink (disabled by default).
    pub tracer: Tracer,
    /// Shared frame template (for validation).
    pub template: Rc<FrameTemplate>,
    /// CPU cost of deserializing a frame header.
    pub deserialize_cpu: SimDuration,
    /// Fault board when injection is armed for this run.
    pub faults: Option<FaultBoard>,
    /// The compute-node index this process runs on (fault freezes).
    pub node: u32,
}

/// One analytics-phase duration with jitter applied.
fn analytics_sleep(args: &ConsumerArgs, rng: &mut rand::rngs::StdRng) -> SimDuration {
    if args.jitter <= 0.0 {
        return args.analytics;
    }
    use rand::RngExt;
    let k: f64 = rng.random_range(1.0 - args.jitter..1.0 + args.jitter);
    args.analytics.mul_f64(k)
}

/// DYAD consumer process.
pub async fn consumer_dyad(args: ConsumerArgs, svc: Rc<DyadService>) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("consumer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(args.rng_stream);
    args.ctx.sleep(args.start_offset).await;
    // Ack id must match what the runner registered on the producer
    // node's staging manager, or frames would never become retireable.
    let mut session: DyadConsumer = svc.consumer_with_id(&format!("c{}", args.pair));
    for frame in 0..args.frames {
        let data = match &args.faults {
            None => Some(session.consume(&rec, &frame_path(args.pair, frame)).await),
            // Boxed for the same reason as the producer: keep the
            // recovery state machine out of fault-free consumer tasks.
            Some(board) => {
                Box::pin(consume_dyad_faulted(
                    &args,
                    board,
                    &mut session,
                    &rec,
                    frame,
                ))
                .await
            }
        };
        // A typed loss has nothing to analyze; move to the next frame.
        let Some(data) = data else { continue };
        deserialize_and_validate(&args, &rec, &data, frame).await;
        {
            let g = rec.region("analytics");
            let d = analytics_sleep(&args, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
    }
    rec.finish()
}

/// One fault-tolerant DYAD consume. Dead-owner and broker-outage errors
/// from [`DyadConsumer::try_consume`] are retried here with backoff
/// (fault windows are finite); a `FrameLost` tombstone is terminal and
/// yields `None`, counted in the `frames_lost_observed` metric.
async fn consume_dyad_faulted(
    args: &ConsumerArgs,
    board: &FaultBoard,
    session: &mut DyadConsumer,
    rec: &Recorder,
    frame: u64,
) -> Option<Payload> {
    let policy = dyad::dyad_retry_policy();
    let mut frng = args.ctx.rng(args.rng_stream ^ 0xFA17 ^ frame);
    let mut outer = 0u32;
    loop {
        board.hold_until_up(args.node).await;
        match session
            .try_consume(rec, &frame_path(args.pair, frame))
            .await
        {
            Ok(data) => return Some(data),
            Err(DyadError::FrameLost { .. }) => {
                rec.annotate("frames_lost_observed", 1.0);
                return None;
            }
            Err(_) => {
                outer += 1;
                if outer >= 64 {
                    rec.annotate("consume_failures", 1.0);
                    return None;
                }
                rec.annotate("consume_outer_retries", 1.0);
                let pause = policy.backoff(outer.min(9), &mut frng);
                args.ctx.sleep(pause).await;
            }
        }
    }
}

/// Manual-baseline consumer process (XFS or Lustre).
pub async fn consumer_manual(
    args: ConsumerArgs,
    storage: Storage,
    sync: (Receiver<u64>, Sender<u64>),
    mode: ManualSync,
    ldlm: Option<LdlmClient>,
    poll_interval: SimDuration,
) -> Profile {
    let (mut ready_rx, done_tx) = sync;
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("consumer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(args.rng_stream);
    args.ctx.sleep(args.start_offset).await;
    for frame in 0..args.frames {
        if let Some(board) = &args.faults {
            board.hold_until_up(args.node).await;
        }
        let data = {
            let g = rec.region("consume");
            {
                // The manual barrier: wait until the producer has
                // written this frame. This is the idle time the paper
                // measures for XFS/Lustre consumption.
                let s = rec.region("explicit_sync");
                match mode {
                    ManualSync::Polling => {
                        let marker = format!("{}.done", frame_path(args.pair, frame));
                        let mut polls = 0f64;
                        while !storage.probe(&marker).await {
                            polls += 1.0;
                            args.ctx.sleep(poll_interval).await;
                        }
                        rec.annotate("sync_polls", polls);
                    }
                    ManualSync::LockBased => {
                        // Take the read lock, check the frame landed; if
                        // the producer has not even locked yet, back off
                        // and retry (the startup race every lock-based
                        // protocol has to handle).
                        let ldlm = ldlm.as_ref().expect("LockBased needs an LDLM client");
                        let lock = lock_path(args.pair, frame);
                        let mut retries = 0f64;
                        loop {
                            ldlm.lock(&lock, LockMode::ProtectedRead).await;
                            let present = storage.probe(&frame_path(args.pair, frame)).await;
                            ldlm.unlock(&lock, LockMode::ProtectedRead).await;
                            if present {
                                break;
                            }
                            retries += 1.0;
                            args.ctx.sleep(poll_interval).await;
                        }
                        rec.annotate("lock_retries", retries);
                    }
                    ManualSync::Coarse | ManualSync::Fine => {
                        let ready = ready_rx.recv().await;
                        assert_eq!(ready, Some(frame), "pair sync out of step");
                    }
                }
                s.end();
            }
            let r = rec.region("read_single_buf");
            let data = storage.read_frame(&frame_path(args.pair, frame)).await;
            r.end();
            g.end();
            data
        };
        deserialize_and_validate(&args, &rec, &data, frame).await;
        if mode == ManualSync::Fine {
            // Fine-grained ablation: release the producer before the
            // analytics so the next stride overlaps with it.
            done_tx.send(frame);
        }
        {
            let g = rec.region("analytics");
            let d = analytics_sleep(&args, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
        if mode == ManualSync::Coarse {
            // The paper's coarse-grained barrier: the producer stays
            // blocked until the consumer has completely finished.
            done_tx.send(frame);
        }
    }
    // Polling mode never uses the channel; drop it silently.
    drop(done_tx);
    rec.finish()
}

/// DYAD-sync-over-PFS ablation: producer writes through Lustre but
/// publishes availability through the KVS (no manual barrier).
pub async fn producer_dyad_on_pfs(
    args: ProducerArgs,
    storage: Storage,
    kvs: KvsClient,
    owner: cluster::NodeId,
    rng_stream: u64,
) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("producer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(rng_stream);
    let mut sched = args
        .schedule
        .as_ref()
        .map(|s| s.generator(args.ctx.rng(rng_stream ^ 0x5C4E)));
    args.ctx.sleep(args.start_offset).await;
    for frame in 0..args.frames {
        if let Some(board) = &args.faults {
            board.hold_until_up(args.node).await;
        }
        {
            let g = rec.region("md_sim");
            let d = md_phase(&args, &mut sched, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
        let payload = {
            let g = rec.region("serialize");
            args.ctx.sleep(args.serialize_cpu).await;
            let p = args.template.frame_segments(frame);
            g.end();
            p
        };
        let size = transport::payload_len(&payload);
        {
            let g = rec.region("dyad_produce");
            {
                let w = rec.region("dyad_prod_write");
                storage
                    .write_frame(&frame_path(args.pair, frame), payload)
                    .await;
                w.end();
            }
            {
                let c = rec.region("dyad_commit");
                let meta = FrameMeta {
                    owner,
                    size,
                    location: FrameLocation::Pfs,
                };
                kvs.commit(&frame_path(args.pair, frame), meta.encode())
                    .await;
                c.end();
            }
            g.end();
        }
    }
    rec.finish()
}

/// DYAD-sync-over-PFS ablation consumer.
pub async fn consumer_dyad_on_pfs(
    args: ConsumerArgs,
    storage: Storage,
    kvs: KvsClient,
    warm_sync: bool,
) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("consumer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(args.rng_stream);
    args.ctx.sleep(args.start_offset).await;
    let mut warmed = false;
    for frame in 0..args.frames {
        if let Some(board) = &args.faults {
            board.hold_until_up(args.node).await;
        }
        let path = frame_path(args.pair, frame);
        let data = {
            let g = rec.region("dyad_consume");
            {
                let f = rec.region("dyad_fetch");
                if warmed && warm_sync {
                    if kvs.lookup(&path).await.is_none() {
                        kvs.wait_key(&path).await;
                    }
                } else {
                    kvs.wait_key(&path).await;
                }
                warmed = true;
                f.end();
            }
            let r = rec.region("read_single_buf");
            let data = storage.read_frame(&path).await;
            r.end();
            g.end();
            data
        };
        deserialize_and_validate(&args, &rec, &data, frame).await;
        {
            let g = rec.region("analytics");
            let d = analytics_sleep(&args, &mut rng);
            args.ctx.sleep(d).await;
            g.end();
        }
    }
    rec.finish()
}

// ---------------------------------------------------------------------------
// Streaming (SST-style) process bodies
// ---------------------------------------------------------------------------

/// Streaming-group role shared by the publisher/subscriber bodies:
/// which group, its topology shape, and the step aggregation factor.
#[derive(Clone, Copy)]
pub struct StreamRole {
    /// Group index (the streaming analogue of a pair).
    pub group: u32,
    /// Delivery mode of a fan-out group.
    pub mode: streaming::GroupMode,
    /// Subscribers per fan-out group.
    pub fanout: u32,
    /// Publishers per fan-in group.
    pub fanin: u32,
    /// This publisher's leaf index within a fan-in group (0 otherwise).
    pub leaf: u32,
    /// MD frames aggregated into one published step.
    pub agg_frames: u64,
}

impl StreamRole {
    /// Steps each publisher of this group emits for `frames` MD frames.
    pub fn steps(&self, frames: u64) -> u64 {
        frames.div_ceil(self.agg_frames.max(1))
    }

    /// Logical step name for `(leaf, step)`; fan-in groups get a
    /// per-leaf namespace so every publisher owns its own sequence.
    pub fn step_name(&self, leaf: u32, step: u64) -> String {
        if self.fanin > 1 {
            format!("steps/g{:04}/l{leaf:02}/s{step:05}", self.group)
        } else {
            format!("steps/g{:04}/s{step:05}", self.group)
        }
    }

    /// The ackers whose consumption releases `step`'s window slot:
    /// every broadcast subscriber, exactly the round-robin assignee of
    /// a partitioned group, or the fan-in group's single reducer.
    pub fn step_ackers(&self, step: u64, group_ackers: &[StreamAcker]) -> Vec<StreamAcker> {
        if self.fanin > 1 || self.mode == streaming::GroupMode::Broadcast {
            return group_ackers.to_vec();
        }
        let a = streaming::partition_assignee(step, self.fanout) as usize;
        vec![group_ackers[a].clone()]
    }
}

/// Streaming publisher process: the SST-style writer side of one group.
/// Each published step aggregates [`StreamRole::agg_frames`] MD frames;
/// the bounded in-flight window gates publication on subscriber acks.
pub async fn publisher_stream(
    args: ProducerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
    group_ackers: Vec<StreamAcker>,
    rng_stream: u64,
) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("producer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(rng_stream);
    let mut sched = args
        .schedule
        .as_ref()
        .map(|s| s.generator(args.ctx.rng(rng_stream ^ 0x5C4E)));
    args.ctx.sleep(args.start_offset).await;
    let mut publisher = match &args.faults {
        Some(board) => svc.publisher_faulted(board.clone()),
        None => svc.publisher(),
    };
    let agg = role.agg_frames.max(1);
    let steps = role.steps(args.frames);
    let mut frame = 0u64;
    for step in 0..steps {
        let in_step = agg.min(args.frames - frame);
        {
            let g = rec.region("md_sim");
            for _ in 0..in_step {
                let d = md_phase(&args, &mut sched, &mut rng);
                args.ctx.sleep(d).await;
            }
            g.end();
        }
        let payload = {
            let g = rec.region("serialize");
            args.ctx
                .sleep(args.serialize_cpu.mul_f64(in_step as f64))
                .await;
            let mut p = Payload::new();
            for k in 0..in_step {
                p.extend(args.template.frame_segments(frame + k));
            }
            g.end();
            p
        };
        frame += in_step;
        let ackers = role.step_ackers(step, &group_ackers);
        let name = role.step_name(role.leaf, step);
        match &args.faults {
            None => {
                publisher.publish(&rec, &name, step, payload, &ackers).await;
            }
            Some(board) => {
                // Boxed like the DYAD bodies: keep the recovery state
                // machine out of fault-free publisher tasks.
                Box::pin(publish_stream_faulted(
                    &args,
                    board,
                    &mut publisher,
                    &rec,
                    &name,
                    step,
                    payload,
                    &ackers,
                    rng_stream,
                ))
                .await;
            }
        }
    }
    rec.finish()
}

/// One fault-tolerant streaming publish. Window stalls poll with crash
/// reclaim and device/broker errors are absorbed inside
/// [`streaming::StreamPublisher::try_publish`]; whatever outlasts its
/// budget is re-run here with backoff. A step that is truly unwritable
/// is tombstoned by the service and surfaces to subscribers as a typed
/// `StepLost`.
#[allow(clippy::too_many_arguments)]
async fn publish_stream_faulted(
    args: &ProducerArgs,
    board: &FaultBoard,
    publisher: &mut streaming::StreamPublisher,
    rec: &Recorder,
    name: &str,
    step: u64,
    payload: Payload,
    ackers: &[StreamAcker],
    rng_stream: u64,
) {
    let policy = streaming::stream_retry_policy();
    let mut frng = args.ctx.rng(rng_stream ^ 0xFA17 ^ step);
    let mut outer = 0u32;
    loop {
        // A crashed node runs nothing: freeze until the restart.
        board.hold_until_up(args.node).await;
        match publisher
            .try_publish(rec, name, step, payload.clone(), ackers, &policy, &mut frng)
            .await
        {
            Ok(()) => break,
            Err(streaming::StreamError::Storage { .. }) => {
                // Retry budget exhausted and tombstone published.
                rec.annotate("produce_failures", 1.0);
                break;
            }
            Err(_) => {
                outer += 1;
                if outer >= 64 {
                    rec.annotate("produce_failures", 1.0);
                    break;
                }
                rec.annotate("produce_outer_retries", 1.0);
                let pause = policy.backoff(outer.min(9), &mut frng);
                args.ctx.sleep(pause).await;
            }
        }
    }
}

/// Streaming fan-out subscriber process: member `sub_idx` of a group of
/// [`StreamRole::fanout`]. Broadcast members consume every step;
/// partitioned members consume their round-robin share, acking under
/// the group's shared session id.
pub async fn subscriber_stream(
    args: ConsumerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
    sub_idx: u32,
) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("consumer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(args.rng_stream);
    args.ctx.sleep(args.start_offset).await;
    // Session id must match what the runner registered on the publisher
    // node's staging manager (and what the publisher's window waits on).
    let id = match role.mode {
        streaming::GroupMode::Broadcast => format!("g{}s{}", role.group, sub_idx),
        streaming::GroupMode::Partitioned => format!("g{}p", role.group),
    };
    let mut session = svc.subscriber(&id);
    let agg = role.agg_frames.max(1);
    let steps = role.steps(args.frames);
    for step in 0..steps {
        if !streaming::delivers_to(role.mode, step, sub_idx, role.fanout) {
            continue;
        }
        let name = role.step_name(0, step);
        let data = match &args.faults {
            None => Some(session.consume_step(&rec, &name).await),
            Some(board) => {
                Box::pin(consume_stream_faulted(
                    &args,
                    board,
                    &mut session,
                    &rec,
                    &name,
                    step,
                ))
                .await
            }
        };
        // A typed loss has nothing to analyze; move to the next step.
        let Some(data) = data else { continue };
        let first = step * agg;
        let in_step = agg.min(args.frames - first);
        deserialize_step(&args, &rec, &data, first, in_step).await;
        {
            let g = rec.region("analytics");
            let d = analytics_sleep(&args, &mut rng).mul_f64(in_step as f64);
            args.ctx.sleep(d).await;
            g.end();
        }
    }
    rec.finish()
}

/// One fault-tolerant streaming consume; `salt` keys the backoff-jitter
/// stream (step index, plus the leaf for reducers). A `StepLost`
/// tombstone is terminal and yields `None`, counted in the
/// `frames_lost_observed` metric.
async fn consume_stream_faulted(
    args: &ConsumerArgs,
    board: &FaultBoard,
    session: &mut streaming::StreamSubscriber,
    rec: &Recorder,
    name: &str,
    salt: u64,
) -> Option<Payload> {
    let policy = streaming::stream_retry_policy();
    let mut frng = args.ctx.rng(args.rng_stream ^ 0xFA17 ^ salt);
    let mut outer = 0u32;
    loop {
        board.hold_until_up(args.node).await;
        match session.try_consume_step(rec, name).await {
            Ok(data) => return Some(data),
            Err(streaming::StreamError::StepLost { .. }) => {
                rec.annotate("frames_lost_observed", 1.0);
                return None;
            }
            Err(_) => {
                outer += 1;
                if outer >= 64 {
                    rec.annotate("consume_failures", 1.0);
                    return None;
                }
                rec.annotate("consume_outer_retries", 1.0);
                let pause = policy.backoff(outer.min(9), &mut frng);
                args.ctx.sleep(pause).await;
            }
        }
    }
}

/// Streaming fan-in reducer: consumes one step from every leaf
/// publisher, folds the leaf payloads through the group's binary
/// reduction tree (one deserialize charge per pairwise merge, byte
/// conservation asserted at the root), then runs the analytics phase.
pub async fn reducer_stream(
    args: ConsumerArgs,
    svc: Rc<streaming::StreamService>,
    role: StreamRole,
) -> Profile {
    let rec = Recorder::traced(
        &args.ctx,
        args.tracer.clone(),
        &format!("consumer-{:03}", args.pair),
    );
    let mut rng = args.ctx.rng(args.rng_stream);
    args.ctx.sleep(args.start_offset).await;
    let mut session = svc.subscriber(&format!("g{}r", role.group));
    let tree = streaming::ReductionTree::new(role.fanin as usize);
    let agg = role.agg_frames.max(1);
    let steps = role.steps(args.frames);
    for step in 0..steps {
        let mut leaf_bytes: Vec<u64> = Vec::with_capacity(role.fanin as usize);
        let mut head: Option<Payload> = None;
        for leaf in 0..role.fanin {
            let name = role.step_name(leaf, step);
            let data = match &args.faults {
                None => Some(session.consume_step(&rec, &name).await),
                Some(board) => {
                    Box::pin(consume_stream_faulted(
                        &args,
                        board,
                        &mut session,
                        &rec,
                        &name,
                        step ^ (u64::from(leaf) << 32),
                    ))
                    .await
                }
            };
            let Some(data) = data else { continue };
            leaf_bytes.push(transport::payload_len(&data));
            if head.is_none() {
                head = Some(data);
            }
        }
        // Every leaf lost: nothing to reduce for this step index.
        let Some(head) = head else { continue };
        let first = step * agg;
        let in_step = agg.min(args.frames - first);
        deserialize_step(&args, &rec, &head, first, in_step).await;
        if leaf_bytes.len() == role.fanin as usize {
            let g = rec.region("stream_reduce");
            let total: u64 = leaf_bytes.iter().sum();
            assert_eq!(
                tree.combined_bytes(&leaf_bytes),
                total,
                "reduction dropped bytes (group {}, step {step})",
                role.group
            );
            args.ctx
                .sleep(args.deserialize_cpu.mul_f64(tree.merges() as f64))
                .await;
            rec.annotate("reduced_steps", 1.0);
            g.end();
        } else {
            // A lost leaf leaves a partial reduction — typed, visible.
            rec.annotate("partial_reductions", 1.0);
        }
        {
            let g = rec.region("analytics");
            let d = analytics_sleep(&args, &mut rng).mul_f64(in_step as f64);
            args.ctx.sleep(d).await;
            g.end();
        }
    }
    rec.finish()
}

/// Deserialize a step's leading frame header, charge the CPU cost, and
/// validate as strictly as the step shape allows: full payload equality
/// for single-frame steps, header identity for aggregated ones.
async fn deserialize_step(
    args: &ConsumerArgs,
    rec: &Recorder,
    data: &[Bytes],
    first_frame: u64,
    in_step: u64,
) {
    let g = rec.region("deserialize");
    args.ctx
        .sleep(args.deserialize_cpu.mul_f64(in_step as f64))
        .await;
    let header = FrameHeader::decode_segments(data).expect("valid step");
    assert_eq!(
        header.step, first_frame,
        "step head mismatch for group {}",
        args.pair
    );
    if in_step == 1 {
        assert!(
            args.template.validate(data, first_frame),
            "step payload corrupted in transit (frame {first_frame})"
        );
    }
    g.end();
}

/// Deserialize the header, charge the CPU cost, and assert the frame is
/// exactly what the producer serialized.
async fn deserialize_and_validate(args: &ConsumerArgs, rec: &Recorder, data: &[Bytes], frame: u64) {
    let g = rec.region("deserialize");
    args.ctx.sleep(args.deserialize_cpu).await;
    let header = FrameHeader::decode_segments(data).expect("valid frame");
    assert_eq!(header.step, frame, "frame mismatch for pair {}", args.pair);
    assert!(
        args.template.validate(data, frame),
        "frame payload corrupted in transit (pair {}, frame {frame})",
        args.pair
    );
    g.end();
}
