//! # streaming — an ADIOS2 SST-style streaming data plane
//!
//! The paper's workflows move frames through files (XFS, Lustre) or the
//! DYAD managed directory in a strict 1:1 producer→consumer shape.
//! ROADMAP item 3 points past that, following Poeschel et al.
//! (openPMD/ADIOS2 streaming) and Eisenhauer et al. (SST): a *streaming*
//! backend where producers publish **steps** and subscriber groups pull
//! them over the fabric, with flow control instead of unbounded staging.
//!
//! This crate is that backend, built as a peer of [`dyad`] on the same
//! substrates:
//!
//! * **Publishers** aggregate frames into steps, write them to
//!   node-local storage, and publish `(owner, size)` step metadata to
//!   the [`kvs`] — the same rendezvous path DYAD uses, so the two
//!   backends differ only in protocol, not in plumbing.
//! * A **bounded in-flight window** ([`StreamWindow`]) backpressures the
//!   publisher: at most `window` unacknowledged steps may be open.
//!   Release rides the *existing* staging consumption-ack keys
//!   ([`staging::ack_key`]): subscribers commit acks to the KVS for
//!   retention anyway, and the publisher watches those same keys, so
//!   there is no second ack channel to leak slots under faults.
//! * **Subscriber groups** ([`GroupMode`]) consume each step either
//!   broadcast (every subscriber gets every step) or partitioned (each
//!   step goes to exactly one subscriber, round-robin).
//! * **Reduction trees** ([`ReductionTree`]) give K→1 fan-in a
//!   deterministic pairwise combine schedule with byte conservation.
//! * Under a fault plan, a crashed subscriber's window slots can be
//!   **reclaimed** (`reclaim_on_crash`) instead of head-of-line
//!   stalling the publisher until the restart.
//!
//! Every phase is wrapped in [`instrument`] regions (`stream_publish`,
//! `stream_window_wait`, `stream_sync`, `stream_get_data`, ...) so the
//! report layer can split movement from idle time exactly as it does
//! for the other three backends.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::{FaultBoard, RetryPolicy};
use instrument::Recorder;
use kvs::KvsClient;
use localfs::{FsResult, LocalFs, LockKind};
use pfs::PfsClient;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::resource::FifoResource;
use simcore::{Ctx, SimDuration};
use staging::{ack_key, StagingManager};
use transport::{AmId, Endpoint, LocalBoxFuture, Payload, Transport, TransportError};

pub use staging::{FrameLocation, FrameMeta};

/// The AM id of the per-node stream data service ("ST").
pub const STREAM_AM: AmId = AmId(0x5354);

/// Root of the stream-managed directory on every node's local fs.
pub const DEFAULT_MANAGED_DIR: &str = "/stream";

// ---------------------------------------------------------------------------
// Subscriber groups
// ---------------------------------------------------------------------------

/// How a subscriber group shares the step sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupMode {
    /// Every subscriber receives every step (K-way in-situ analytics).
    Broadcast,
    /// Each step is delivered to exactly one subscriber, round-robin by
    /// step index (work sharing).
    Partitioned,
}

impl GroupMode {
    /// Stable lowercase name (CLI/serialization).
    pub fn name(self) -> &'static str {
        match self {
            GroupMode::Broadcast => "broadcast",
            GroupMode::Partitioned => "partitioned",
        }
    }

    /// Parse [`GroupMode::name`].
    pub fn parse(s: &str) -> Option<GroupMode> {
        match s {
            "broadcast" => Some(GroupMode::Broadcast),
            "partitioned" => Some(GroupMode::Partitioned),
            _ => None,
        }
    }
}

/// The subscriber index a partitioned step is assigned to.
pub fn partition_assignee(step: u64, fanout: u32) -> u32 {
    assert!(fanout >= 1, "empty subscriber group");
    (step % u64::from(fanout)) as u32
}

/// Whether `subscriber` (of `fanout` group members) receives `step`.
pub fn delivers_to(mode: GroupMode, step: u64, subscriber: u32, fanout: u32) -> bool {
    assert!(subscriber < fanout, "subscriber index out of group");
    match mode {
        GroupMode::Broadcast => true,
        GroupMode::Partitioned => partition_assignee(step, fanout) == subscriber,
    }
}

// ---------------------------------------------------------------------------
// Bounded in-flight window
// ---------------------------------------------------------------------------

/// One acknowledging subscriber of an open step: the staging consumer id
/// it acks with, and the node it runs on (for crash reclaim).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamAcker {
    /// Staging consumer id the subscriber publishes acks under.
    pub consumer: String,
    /// Node the subscriber runs on.
    pub node: u32,
}

/// Waiters of one open (published but not fully acked) step.
#[derive(Debug, Clone)]
struct PendingStep {
    /// Managed path the step was published under.
    path: String,
    /// consumer id → node, for every ack still outstanding.
    waiting: BTreeMap<String, u32>,
}

/// The publisher-side bounded in-flight window: at most `capacity`
/// steps may be open (published but not acknowledged by every assigned
/// subscriber) at once. Pure bookkeeping — the async machinery around
/// it lives in [`StreamPublisher`] — so the safety invariant
/// (`in_flight() <= capacity()` always) is property-testable without a
/// simulator.
#[derive(Debug, Clone)]
pub struct StreamWindow {
    capacity: usize,
    pending: BTreeMap<u64, PendingStep>,
    peak: usize,
}

impl StreamWindow {
    /// A window admitting `capacity >= 1` concurrent open steps.
    pub fn new(capacity: usize) -> StreamWindow {
        assert!(capacity >= 1, "window capacity must be at least 1");
        StreamWindow {
            capacity,
            pending: BTreeMap::new(),
            peak: 0,
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently open steps.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// High-water mark of open steps over the window's lifetime.
    pub fn peak_in_flight(&self) -> usize {
        self.peak
    }

    /// Whether another step may open without violating the bound.
    pub fn can_open(&self) -> bool {
        self.pending.len() < self.capacity
    }

    /// Open `step` (published under `path`), waiting on `ackers`.
    /// Panics if the window is full or the step is already open — the
    /// publisher must gate on [`StreamWindow::can_open`] first.
    pub fn open(&mut self, step: u64, path: &str, ackers: &[StreamAcker]) {
        assert!(
            self.can_open(),
            "window overflow: opening step {step} with {} already in flight",
            self.pending.len()
        );
        assert!(!ackers.is_empty(), "step {step} has no acking subscriber");
        let waiting: BTreeMap<String, u32> = ackers
            .iter()
            .map(|a| (a.consumer.clone(), a.node))
            .collect();
        let prev = self.pending.insert(
            step,
            PendingStep {
                path: path.to_string(),
                waiting,
            },
        );
        assert!(prev.is_none(), "step {step} opened twice");
        self.peak = self.peak.max(self.pending.len());
    }

    /// Record `consumer`'s ack of `step`. Returns `true` when this ack
    /// freed the step's slot. Unknown steps and duplicate acks are
    /// ignored (acks are idempotent KVS keys).
    pub fn ack(&mut self, step: u64, consumer: &str) -> bool {
        let Some(p) = self.pending.get_mut(&step) else {
            return false;
        };
        p.waiting.remove(consumer);
        if p.waiting.is_empty() {
            self.pending.remove(&step);
            true
        } else {
            false
        }
    }

    /// Forget `step` entirely: a fallible publish failed before the
    /// step became consumable, so no ack will ever arrive for it.
    /// Returns whether the step was open.
    pub fn abort(&mut self, step: u64) -> bool {
        self.pending.remove(&step).is_some()
    }

    /// Drop every outstanding ack whose node is reported down, freeing
    /// any step left with no waiters. Returns the number of waiter
    /// entries reclaimed (the subscriber-crash recovery path).
    pub fn reclaim_down(&mut self, down: impl Fn(u32) -> bool) -> u64 {
        let mut reclaimed = 0;
        let steps: Vec<u64> = self.pending.keys().copied().collect();
        for step in steps {
            let p = self.pending.get_mut(&step).expect("step present");
            let before = p.waiting.len();
            p.waiting.retain(|_, node| !down(*node));
            reclaimed += (before - p.waiting.len()) as u64;
            if p.waiting.is_empty() {
                self.pending.remove(&step);
            }
        }
        reclaimed
    }

    /// Every outstanding `(step, path, waiters)`, oldest step first.
    pub fn entries(&self) -> Vec<(u64, String, Vec<StreamAcker>)> {
        self.pending
            .iter()
            .map(|(step, p)| {
                let waiters = p
                    .waiting
                    .iter()
                    .map(|(c, n)| StreamAcker {
                        consumer: c.clone(),
                        node: *n,
                    })
                    .collect();
                (*step, p.path.clone(), waiters)
            })
            .collect()
    }

    /// The oldest step's first outstanding `(step, path, consumer)` —
    /// the head-of-line ack the publisher parks on when full.
    pub fn oldest_waiter(&self) -> Option<(u64, String, String)> {
        self.pending.iter().next().map(|(step, p)| {
            let consumer = p.waiting.keys().next().expect("open step has waiters");
            (*step, p.path.clone(), consumer.clone())
        })
    }
}

// ---------------------------------------------------------------------------
// Reduction tree
// ---------------------------------------------------------------------------

/// A deterministic pairwise (binary) reduction schedule over K leaves,
/// used by the K→1 fan-in reducer: stage s merges leaves `2^s` apart,
/// so leaf 0 accumulates everything in `ceil(log2 K)` stages.
#[derive(Debug, Clone)]
pub struct ReductionTree {
    leaves: usize,
    stages: Vec<Vec<(usize, usize)>>,
}

impl ReductionTree {
    /// The canonical binary tree over `leaves >= 1` inputs.
    pub fn new(leaves: usize) -> ReductionTree {
        assert!(leaves >= 1, "reduction over zero leaves");
        let mut stages = Vec::new();
        let mut stride = 1;
        while stride < leaves {
            let mut merges = Vec::new();
            let mut i = 0;
            while i + stride < leaves {
                merges.push((i, i + stride));
                i += 2 * stride;
            }
            stages.push(merges);
            stride *= 2;
        }
        ReductionTree { leaves, stages }
    }

    /// Number of leaf inputs.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// The merge schedule: `stages()[s]` is the list of `(dst, src)`
    /// merges of stage `s`; merges within a stage are independent.
    pub fn stages(&self) -> &[Vec<(usize, usize)>] {
        &self.stages
    }

    /// Tree depth (`ceil(log2 leaves)`).
    pub fn depth(&self) -> usize {
        self.stages.len()
    }

    /// Total pairwise merges (`leaves - 1`).
    pub fn merges(&self) -> usize {
        self.stages.iter().map(Vec::len).sum()
    }

    /// Fold leaf payload sizes through the schedule, asserting that
    /// every leaf is consumed exactly once, and return the root size.
    /// Byte conservation — the result always equals the sum of the
    /// inputs — is pinned by a proptest.
    pub fn combined_bytes(&self, leaf_bytes: &[u64]) -> u64 {
        assert_eq!(leaf_bytes.len(), self.leaves, "leaf count mismatch");
        let mut sizes = leaf_bytes.to_vec();
        let mut alive = vec![true; self.leaves];
        for stage in &self.stages {
            for &(dst, src) in stage {
                assert!(alive[dst] && alive[src], "merge of a consumed leaf");
                sizes[dst] += sizes[src];
                alive[src] = false;
            }
        }
        assert_eq!(
            alive.iter().filter(|a| **a).count(),
            1,
            "schedule left more than one root"
        );
        assert!(alive[0], "root must be leaf 0");
        sizes[0]
    }
}

// ---------------------------------------------------------------------------
// Errors and policy
// ---------------------------------------------------------------------------

/// Errors surfaced by the fallible publish/consume paths under a fault
/// plan. Without faults these paths cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Every copy of the step is gone (publisher node crashed before
    /// the step could be re-homed).
    StepLost {
        /// Managed path of the lost step.
        path: String,
    },
    /// A transport-level failure survived the retry budget.
    Transport(TransportError),
    /// Local storage kept failing while writing the step.
    Storage {
        /// Managed path of the step being written.
        path: String,
    },
    /// The step could not be resolved to a live copy within the
    /// retry budget.
    Unresolvable {
        /// Managed path of the step.
        path: String,
        /// Fetch attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::StepLost { path } => write!(f, "step {path} lost (no surviving copy)"),
            StreamError::Transport(e) => write!(f, "transport failure: {e}"),
            StreamError::Storage { path } => write!(f, "local storage failure writing {path}"),
            StreamError::Unresolvable { path, attempts } => {
                write!(f, "step {path} unresolvable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<TransportError> for StreamError {
    fn from(e: TransportError) -> Self {
        StreamError::Transport(e)
    }
}

/// Retry policy shaping the streaming recovery loops; same envelope as
/// DYAD's (outages last milliseconds-to-seconds).
pub fn stream_retry_policy() -> RetryPolicy {
    RetryPolicy {
        base: SimDuration::from_millis(1),
        cap: SimDuration::from_millis(500),
        max_attempts: 12,
        jitter_frac: 0.25,
        attempt_timeout: SimDuration::from_millis(100),
    }
}

// ---------------------------------------------------------------------------
// Spec + stats
// ---------------------------------------------------------------------------

/// Streaming tuning parameters.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Root of the stream-managed directory on every node's local fs.
    pub managed_dir: String,
    /// Bounded in-flight window: max unacked steps per publisher.
    pub window: u32,
    /// CPU overhead of step assembly + metadata publication per step
    /// (the SST marshaling cost).
    pub publish_overhead: SimDuration,
    /// Service threads in the per-node step service.
    pub service_threads: u64,
    /// Request-processing time in the step service (excluding I/O).
    pub service_time: SimDuration,
    /// Enable the warm lookup fast path (disable to force KVS waits on
    /// every access).
    pub warm_sync: bool,
    /// Under a fault plan, reclaim window slots held by subscribers on
    /// crashed nodes instead of head-of-line stalling until restart.
    pub reclaim_on_crash: bool,
    /// Poll interval of the faulted window-stall loop (the infallible
    /// path parks on a KVS watch instead and never polls).
    pub stall_poll: SimDuration,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            managed_dir: DEFAULT_MANAGED_DIR.to_string(),
            window: 4,
            publish_overhead: SimDuration::from_micros(40),
            service_threads: 4,
            service_time: SimDuration::from_micros(10),
            warm_sync: true,
            reclaim_on_crash: true,
            stall_poll: SimDuration::from_millis(2),
        }
    }
}

/// Operation counters for one node's stream service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Steps published through this service.
    pub steps_published: u64,
    /// Steps consumed through this service.
    pub steps_consumed: u64,
    /// Bytes published.
    pub bytes_published: u64,
    /// Bytes consumed.
    pub bytes_consumed: u64,
    /// Publishes that found the window full and had to wait.
    pub window_stalls: u64,
    /// Total nanoseconds spent stalled on a full window.
    pub window_stall_ns: u64,
    /// Outstanding-ack entries reclaimed from crashed subscribers.
    pub slots_reclaimed: u64,
    /// Window ack-refresh sweeps (KVS ack-key reads).
    pub ack_refreshes: u64,
    /// Remote step fetches served *by* this node (owner side).
    pub fetches_served: u64,
    /// Consumptions that parked in a KVS watch (cold syncs).
    pub cold_syncs: u64,
    /// Consumptions satisfied by the warm fast path.
    pub warm_syncs: u64,
    /// Consumptions that found the data already node-local.
    pub local_hits: u64,
}

struct ServiceInner {
    stats: StreamStats,
    dirs_made: std::collections::HashSet<String>,
}

// ---------------------------------------------------------------------------
// Per-node service
// ---------------------------------------------------------------------------

/// The per-node stream service: owns the node's managed directory,
/// serves remote step-fetch requests, and opens publisher/subscriber
/// sessions.
pub struct StreamService {
    ctx: Ctx,
    node: NodeId,
    fs: LocalFs,
    kvs: KvsClient,
    ep: Endpoint,
    spec: Rc<StreamSpec>,
    staging: Option<Rc<StagingManager>>,
    inner: Rc<RefCell<ServiceInner>>,
}

impl StreamService {
    /// Start the stream service on `node` without staging retention
    /// (unit tests; the runner always passes a staging manager).
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: StreamSpec,
    ) -> Rc<StreamService> {
        Self::start_staged(ctx, tp, node, fs, kvs, spec, None)
    }

    /// Start the stream service on `node` under a [`StagingManager`]:
    /// publishes pass admission control and register in the staged-frame
    /// lifecycle; subscribers publish consumption acks that drive both
    /// retention *and* window release. Registers the data-service
    /// handler answering `stream_get_data` requests from other nodes.
    pub fn start_staged(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: StreamSpec,
        staging: Option<Rc<StagingManager>>,
    ) -> Rc<StreamService> {
        let spec = Rc::new(spec);
        let inner = Rc::new(RefCell::new(ServiceInner {
            stats: StreamStats::default(),
            dirs_made: std::collections::HashSet::new(),
        }));
        let service = FifoResource::new(ctx, spec.service_threads);
        let svc = Rc::new(StreamService {
            ctx: ctx.clone(),
            node,
            fs: fs.clone(),
            kvs,
            ep: tp.endpoint(node),
            spec: spec.clone(),
            staging,
            inner: inner.clone(),
        });
        let hfs = fs;
        let hspec = spec;
        let hinner = inner;
        tp.register_bulk(
            node,
            STREAM_AM,
            Rc::new(move |hdr: Bytes, _payload: Payload| {
                let fs = hfs.clone();
                let spec = hspec.clone();
                let inner = hinner.clone();
                let service = service.clone();
                Box::pin(async move {
                    service.request(spec.service_time).await;
                    let path = String::from_utf8(hdr.to_vec()).expect("utf-8 path");
                    let data = match fs.open(&path).await {
                        Ok(fd) => {
                            let segs = fs.read_segments(fd).await.unwrap_or_default();
                            let _ = fs.close(fd).await;
                            segs
                        }
                        Err(_) => Vec::new(),
                    };
                    inner.borrow_mut().stats.fetches_served += 1;
                    (Bytes::new(), data)
                }) as LocalBoxFuture<(Bytes, Payload)>
            }),
        );
        svc
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Operation counters.
    pub fn stats(&self) -> StreamStats {
        self.inner.borrow().stats
    }

    /// The managed path for a logical step name.
    pub fn managed_path(&self, name: &str) -> String {
        format!("{}/{}", self.spec.managed_dir, name.trim_start_matches('/'))
    }

    async fn ensure_dirs(&self, path: &str) {
        let Some(dir) = path.rsplit_once('/').map(|(d, _)| d.to_string()) else {
            return;
        };
        let need = !self.inner.borrow().dirs_made.contains(&dir);
        if need {
            let _ = self.fs.mkdir_p(&dir).await;
            self.inner.borrow_mut().dirs_made.insert(dir);
        }
    }

    /// Write a step to the managed directory with atomic tmp+rename
    /// publication; on failure the tmp file is removed so a retry
    /// starts clean.
    async fn write_step(&self, path: &str, step: Payload) -> FsResult<()> {
        self.ensure_dirs(path).await;
        let tmp = format!("{path}.tmp");
        let res: FsResult<()> = async {
            let fd = self.fs.create(&tmp).await?;
            for seg in step {
                self.fs.write_bytes(fd, seg).await?;
            }
            self.fs.close(fd).await?;
            self.fs.rename(&tmp, path).await?;
            Ok(())
        }
        .await;
        if res.is_err() {
            let _ = self.fs.unlink(&tmp).await;
        }
        res
    }

    /// Open a publisher session (owns a bounded in-flight window).
    pub fn publisher(self: &Rc<Self>) -> StreamPublisher {
        StreamPublisher {
            svc: self.clone(),
            window: StreamWindow::new(self.spec.window as usize),
            faults: None,
        }
    }

    /// Open a publisher session that consults `board` for subscriber
    /// liveness (enables `reclaim_on_crash` window recovery).
    pub fn publisher_faulted(self: &Rc<Self>, board: FaultBoard) -> StreamPublisher {
        StreamPublisher {
            svc: self.clone(),
            window: StreamWindow::new(self.spec.window as usize),
            faults: Some(board),
        }
    }

    /// Open a subscriber session with an explicit consumption-ack id
    /// (the id the workflow registered on the publisher's staging
    /// manager — acks under this id drive retention and window release).
    pub fn subscriber(self: &Rc<Self>, id: &str) -> StreamSubscriber {
        // FNV-1a over the id gives each session its own deterministic
        // backoff-jitter stream (only drawn from under a fault plan).
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
        }
        let rng = StdRng::seed_from_u64(
            self.ctx
                .rng(0x5354_0000 ^ u64::from(self.node.0))
                .random::<u64>()
                ^ h,
        );
        StreamSubscriber {
            svc: self.clone(),
            id: id.to_string(),
            warmed: false,
            rng,
        }
    }
}

// ---------------------------------------------------------------------------
// Publisher
// ---------------------------------------------------------------------------

/// Publisher-side session: the bounded window plus the publish path.
pub struct StreamPublisher {
    svc: Rc<StreamService>,
    window: StreamWindow,
    faults: Option<FaultBoard>,
}

impl StreamPublisher {
    /// The window (inspection/tests).
    pub fn window(&self) -> &StreamWindow {
        &self.window
    }

    /// Sweep the KVS ack keys of every pending step and release the
    /// fully-acked ones. Lazy: only called when the window looks full,
    /// so steady-state publishes cost no extra metadata traffic.
    async fn refresh_acks(&mut self) {
        for (step, path, waiters) in self.window.entries() {
            for a in waiters {
                if self
                    .svc
                    .kvs
                    .lookup(&ack_key(&path, &a.consumer))
                    .await
                    .is_some()
                {
                    self.window.ack(step, &a.consumer);
                }
            }
        }
        self.svc.inner.borrow_mut().stats.ack_refreshes += 1;
    }

    /// Fallible [`StreamPublisher::refresh_acks`] for fault runs.
    async fn try_refresh_acks(&mut self) -> Result<(), TransportError> {
        for (step, path, waiters) in self.window.entries() {
            for a in waiters {
                if self
                    .svc
                    .kvs
                    .try_lookup(&ack_key(&path, &a.consumer))
                    .await?
                    .is_some()
                {
                    self.window.ack(step, &a.consumer);
                }
            }
        }
        self.svc.inner.borrow_mut().stats.ack_refreshes += 1;
        Ok(())
    }

    /// Drop outstanding acks owed by subscribers on crashed nodes.
    fn reclaim_crashed(&mut self) {
        let Some(board) = &self.faults else {
            return;
        };
        if !self.svc.spec.reclaim_on_crash {
            return;
        }
        let board = board.clone();
        let reclaimed = self.window.reclaim_down(|node| !board.node_up(node));
        if reclaimed > 0 {
            self.svc.inner.borrow_mut().stats.slots_reclaimed += reclaimed;
        }
    }

    /// Block until the window admits another step. The infallible path
    /// parks on the head-of-line ack's KVS watch (no polling); records
    /// a window stall if it actually waited.
    async fn await_window(&mut self, rec: &Recorder) {
        if self.window.can_open() {
            return;
        }
        let w = rec.region("stream_window_wait");
        let t0 = self.svc.ctx.now();
        let mut stalled = false;
        loop {
            self.refresh_acks().await;
            if self.window.can_open() {
                break;
            }
            stalled = true;
            let (_, path, consumer) = self
                .window
                .oldest_waiter()
                .expect("full window has a waiter");
            self.svc.kvs.wait_key(&ack_key(&path, &consumer)).await;
        }
        if stalled {
            let mut inner = self.svc.inner.borrow_mut();
            inner.stats.window_stalls += 1;
            inner.stats.window_stall_ns += (self.svc.ctx.now() - t0).nanos();
        }
        w.end();
    }

    /// Faulted window wait: polls (the watch could park on a key whose
    /// committer crashed), reclaiming crashed subscribers' slots each
    /// sweep when `reclaim_on_crash` is set.
    async fn try_await_window(&mut self, rec: &Recorder) -> Result<(), TransportError> {
        self.reclaim_crashed();
        if self.window.can_open() {
            return Ok(());
        }
        let w = rec.region("stream_window_wait");
        let t0 = self.svc.ctx.now();
        let mut stalled = false;
        let res: Result<(), TransportError> = async {
            loop {
                self.try_refresh_acks().await?;
                self.reclaim_crashed();
                if self.window.can_open() {
                    return Ok(());
                }
                stalled = true;
                self.svc.ctx.sleep(self.svc.spec.stall_poll).await;
            }
        }
        .await;
        if stalled {
            let mut inner = self.svc.inner.borrow_mut();
            inner.stats.window_stalls += 1;
            inner.stats.window_stall_ns += (self.svc.ctx.now() - t0).nanos();
        }
        w.end();
        res
    }

    /// Publish step `seq` under logical name `name`: wait for a window
    /// slot, write to node-local storage, then publish step metadata to
    /// the KVS. `ackers` are the subscribers whose acks release the
    /// slot (per-step, so partitioned groups pass only the assignee).
    ///
    /// Call tree: `stream_publish` → { `stream_window_wait`,
    /// `staging_backpressure`, `stream_write`, `stream_commit` }.
    pub async fn publish(
        &mut self,
        rec: &Recorder,
        name: &str,
        seq: u64,
        step: Payload,
        ackers: &[StreamAcker],
    ) {
        let path = self.svc.managed_path(name);
        let size = transport::payload_len(&step);
        let g = rec.region("stream_publish");
        self.await_window(rec).await;
        self.window.open(seq, &path, ackers);
        if let Some(st) = &self.svc.staging {
            if st.would_block(size) {
                let b = rec.region("staging_backpressure");
                st.admit(size).await;
                b.end();
            }
        }
        {
            let w = rec.region("stream_write");
            self.svc.write_step(&path, step).await.expect("local write");
            w.end();
        }
        if let Some(st) = &self.svc.staging {
            st.frame_written(&path, size);
        }
        {
            let c = rec.region("stream_commit");
            self.svc.ctx.sleep(self.svc.spec.publish_overhead).await;
            let meta = FrameMeta {
                owner: self.svc.node,
                size,
                location: FrameLocation::Nvme,
            };
            self.svc.kvs.commit(&path, meta.encode()).await;
            c.end();
        }
        if let Some(st) = &self.svc.staging {
            st.frame_published(&path);
        }
        g.end();
        let mut inner = self.svc.inner.borrow_mut();
        inner.stats.steps_published += 1;
        inner.stats.bytes_published += size;
    }

    /// Fallible [`StreamPublisher::publish`] for fault runs: the window
    /// wait polls with crash reclaim, local writes retry through NVMe
    /// device-error windows, and the metadata commit retries through
    /// broker outages. Fails typed once the budget is exhausted.
    #[allow(clippy::too_many_arguments)]
    pub async fn try_publish(
        &mut self,
        rec: &Recorder,
        name: &str,
        seq: u64,
        step: Payload,
        ackers: &[StreamAcker],
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<(), StreamError> {
        let path = self.svc.managed_path(name);
        let size = transport::payload_len(&step);
        let g = rec.region("stream_publish");
        // On any error below, `g` drops (closing the region) and the
        // aborted slot is recycled so the outer retry starts clean.
        self.try_await_window(rec).await?;
        self.window.open(seq, &path, ackers);
        if let Some(st) = &self.svc.staging {
            if st.would_block(size) {
                let b = rec.region("staging_backpressure");
                st.admit(size).await;
                b.end();
            }
        }
        let mut attempts = 0;
        loop {
            attempts += 1;
            let w = rec.region("stream_write");
            let res = self.svc.write_step(&path, step.clone()).await;
            w.end();
            match res {
                Ok(()) => break,
                Err(_) if attempts < policy.max_attempts => {
                    rec.annotate("produce_retries", 1.0);
                    let pause = policy.backoff(attempts - 1, rng);
                    self.svc.ctx.sleep(pause).await;
                }
                Err(_) => {
                    // The step can never appear: publish a Lost
                    // tombstone (best effort) so subscribers surface a
                    // typed StepLost instead of parking forever.
                    let meta = FrameMeta {
                        owner: self.svc.node,
                        size,
                        location: FrameLocation::Lost,
                    };
                    let _ = self.svc.kvs.try_commit(&path, meta.encode()).await;
                    // Nobody will ever ack a lost step; free its slot.
                    self.window.abort(seq);
                    g.end();
                    return Err(StreamError::Storage { path });
                }
            }
        }
        if let Some(st) = &self.svc.staging {
            st.frame_written(&path, size);
        }
        let commit_res = {
            let c = rec.region("stream_commit");
            self.svc.ctx.sleep(self.svc.spec.publish_overhead).await;
            let meta = FrameMeta {
                owner: self.svc.node,
                size,
                location: FrameLocation::Nvme,
            };
            let r = self.svc.kvs.try_commit(&path, meta.encode()).await;
            c.end();
            r
        };
        if let Err(e) = commit_res {
            // Uncommitted steps are invisible to subscribers: no ack
            // will ever arrive, so recycle the slot for the retry.
            self.window.abort(seq);
            g.end();
            return Err(e.into());
        }
        if let Some(st) = &self.svc.staging {
            st.frame_published(&path);
        }
        g.end();
        let mut inner = self.svc.inner.borrow_mut();
        inner.stats.steps_published += 1;
        inner.stats.bytes_published += size;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Subscriber
// ---------------------------------------------------------------------------

/// Subscriber-side session state (warm/cold synchronization plus the
/// consumption-ack identity).
pub struct StreamSubscriber {
    svc: Rc<StreamService>,
    id: String,
    warmed: bool,
    rng: StdRng,
}

impl StreamSubscriber {
    /// The consumption-ack id this session acks with.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether this session has completed its cold first sync.
    pub fn is_warm(&self) -> bool {
        self.warmed
    }

    /// Consume a step by logical name, returning its payload and
    /// asynchronously publishing the consumption ack that releases both
    /// staging retention and the publisher's window slot.
    ///
    /// Call tree: `stream_consume` → { `stream_sync`,
    /// `stream_get_data`, `stream_cons_store`, `read_single_buf` }.
    pub async fn consume_step(&mut self, rec: &Recorder, name: &str) -> Payload {
        let svc = self.svc.clone();
        let path = svc.managed_path(name);
        let g = rec.region("stream_consume");

        // --- Synchronization ------------------------------------------
        // Local presence first: a flock probe suffices once the
        // publisher shares our filesystem.
        let mut data: Option<Payload> = None;
        if svc.fs.exists(&path) {
            let f = rec.region("stream_sync");
            svc.fs
                .flock(&path, LockKind::Shared)
                .await
                .expect("flock on existing file");
            svc.fs
                .funlock(&path, LockKind::Shared)
                .await
                .expect("funlock");
            f.end();
            let r = rec.region("read_single_buf");
            data = try_read_local(&svc.fs, &path).await;
            r.end();
            if data.is_some() {
                svc.inner.borrow_mut().stats.local_hits += 1;
                self.warmed = true;
            }
        }

        if data.is_none() {
            // Remote (or evicted) step: resolve the owner through the
            // KVS rendezvous.
            let f = rec.region("stream_sync");
            let mut meta;
            if self.warmed && svc.spec.warm_sync {
                match svc.kvs.lookup(&path).await {
                    Some(v) => {
                        svc.inner.borrow_mut().stats.warm_syncs += 1;
                        meta = FrameMeta::decode(v.value);
                    }
                    None => {
                        rec.annotate("cold_fallbacks", 1.0);
                        svc.inner.borrow_mut().stats.cold_syncs += 1;
                        let v = svc.kvs.wait_key(&path).await;
                        meta = FrameMeta::decode(v.value);
                    }
                }
            } else {
                svc.inner.borrow_mut().stats.cold_syncs += 1;
                let v = svc.kvs.wait_key(&path).await;
                meta = FrameMeta::decode(v.value);
            }
            f.end();
            self.warmed = true;

            // --- Data movement ----------------------------------------
            let mut attempts = 0;
            let fetched = loop {
                attempts += 1;
                assert!(
                    attempts <= 8,
                    "step {path} unresolvable (evicted mid-consume?)"
                );
                match meta.location {
                    FrameLocation::Lost => {
                        panic!(
                            "step {path} lost to a node crash (use try_consume_step under faults)"
                        );
                    }
                    FrameLocation::Pfs => {
                        let pfs = svc
                            .staging
                            .as_ref()
                            .and_then(|st| st.pfs_client())
                            .expect("spilled step but no PFS client configured");
                        let r = rec.region("stream_pfs_fallback");
                        let got = read_pfs(pfs, &path).await;
                        r.end();
                        if let Some(got) = got {
                            if let Some(st) = &svc.staging {
                                st.note_pfs_fallback();
                            }
                            break got;
                        }
                    }
                    FrameLocation::Nvme if meta.owner == svc.node => {
                        let r = rec.region("read_single_buf");
                        let got = try_read_local(&svc.fs, &path).await;
                        r.end();
                        if let Some(got) = got {
                            break got;
                        }
                    }
                    FrameLocation::Nvme => {
                        // RMA fetch from the owner's node-local storage.
                        let r = rec.region("stream_get_data");
                        let (_, got) = svc
                            .ep
                            .bulk_rpc(
                                meta.owner,
                                STREAM_AM,
                                Bytes::copy_from_slice(path.as_bytes()),
                                Vec::new(),
                            )
                            .await;
                        r.end();
                        if transport::payload_len(&got) > 0 {
                            if let Some(got) = self.store_cache(rec, &path, got).await {
                                break got;
                            }
                        }
                    }
                }
                let v = svc
                    .kvs
                    .lookup(&path)
                    .await
                    .unwrap_or_else(|| panic!("step {path} retired before consume"));
                meta = FrameMeta::decode(v.value);
            };
            data = Some(fetched);
        }
        let data = data.expect("consume resolved a payload");
        g.end();

        self.spawn_ack(&path, false);

        let size = transport::payload_len(&data);
        let mut inner = svc.inner.borrow_mut();
        inner.stats.steps_consumed += 1;
        inner.stats.bytes_consumed += size;
        data
    }

    /// Fallible [`StreamSubscriber::consume_step`] for fault runs:
    /// metadata ops ride the retrying KVS client, the RMA fetch retries
    /// with backoff and falls back to a PFS spill copy when the owner
    /// is down, `Lost` tombstones surface as [`StreamError::StepLost`],
    /// and the resolve loop is bounded.
    pub async fn try_consume_step(
        &mut self,
        rec: &Recorder,
        name: &str,
    ) -> Result<Payload, StreamError> {
        let svc = self.svc.clone();
        let path = svc.managed_path(name);
        let policy = stream_retry_policy();
        let g = rec.region("stream_consume");

        let mut data: Option<Payload> = None;
        if svc.fs.exists(&path) {
            let f = rec.region("stream_sync");
            let locked = svc.fs.flock(&path, LockKind::Shared).await.is_ok();
            if locked {
                let _ = svc.fs.funlock(&path, LockKind::Shared).await;
            }
            f.end();
            if locked {
                let r = rec.region("read_single_buf");
                data = try_read_local(&svc.fs, &path).await;
                r.end();
                if data.is_some() {
                    svc.inner.borrow_mut().stats.local_hits += 1;
                    self.warmed = true;
                }
            }
        }

        if data.is_none() {
            let meta_res: Result<FrameMeta, StreamError> = {
                let f = rec.region("stream_sync");
                let r = if self.warmed && svc.spec.warm_sync {
                    match svc.kvs.try_lookup(&path).await {
                        Ok(Some(v)) => {
                            svc.inner.borrow_mut().stats.warm_syncs += 1;
                            Ok(FrameMeta::decode(v.value))
                        }
                        Ok(None) => {
                            rec.annotate("cold_fallbacks", 1.0);
                            svc.inner.borrow_mut().stats.cold_syncs += 1;
                            svc.kvs
                                .try_wait_key(&path)
                                .await
                                .map(|v| FrameMeta::decode(v.value))
                                .map_err(StreamError::from)
                        }
                        Err(e) => Err(e.into()),
                    }
                } else {
                    svc.inner.borrow_mut().stats.cold_syncs += 1;
                    svc.kvs
                        .try_wait_key(&path)
                        .await
                        .map(|v| FrameMeta::decode(v.value))
                        .map_err(StreamError::from)
                };
                f.end();
                r
            };
            let mut meta = meta_res?;
            self.warmed = true;

            let mut attempts = 0;
            let fetched = loop {
                attempts += 1;
                if attempts > policy.max_attempts {
                    return Err(StreamError::Unresolvable {
                        path,
                        attempts: attempts - 1,
                    });
                }
                match meta.location {
                    FrameLocation::Lost => {
                        return Err(StreamError::StepLost { path });
                    }
                    FrameLocation::Pfs => {
                        if let Some(pfs) = svc.staging.as_ref().and_then(|st| st.pfs_client()) {
                            let r = rec.region("stream_pfs_fallback");
                            let got = read_pfs(pfs, &path).await;
                            r.end();
                            if let Some(got) = got {
                                if let Some(st) = &svc.staging {
                                    st.note_pfs_fallback();
                                }
                                break got;
                            }
                        }
                    }
                    FrameLocation::Nvme if meta.owner == svc.node => {
                        let r = rec.region("read_single_buf");
                        let got = try_read_local(&svc.fs, &path).await;
                        r.end();
                        if let Some(got) = got {
                            break got;
                        }
                    }
                    FrameLocation::Nvme => {
                        let r = rec.region("stream_get_data");
                        let fetch = svc
                            .ep
                            .bulk_rpc_retrying(
                                meta.owner,
                                STREAM_AM,
                                Bytes::copy_from_slice(path.as_bytes()),
                                Vec::new(),
                                &policy,
                                &mut self.rng,
                            )
                            .await;
                        r.end();
                        match fetch {
                            Ok((_, got)) if transport::payload_len(&got) > 0 => {
                                if let Some(got) = self.try_store_cache(rec, &path, got).await {
                                    break got;
                                }
                            }
                            Ok(_) => {
                                // Owner answered but no longer holds the
                                // step: re-resolve through the KVS.
                            }
                            Err(_) => {
                                // Owner unreachable: try the PFS spill
                                // copy before waiting out the restart.
                                rec.annotate("dead_owner_fallbacks", 1.0);
                                if let Some(pfs) =
                                    svc.staging.as_ref().and_then(|st| st.pfs_client())
                                {
                                    let r = rec.region("stream_pfs_fallback");
                                    let got = read_pfs(pfs, &path).await;
                                    r.end();
                                    if let Some(got) = got {
                                        if let Some(st) = &svc.staging {
                                            st.note_pfs_fallback();
                                        }
                                        break got;
                                    }
                                }
                            }
                        }
                    }
                }
                let pause = policy.backoff(attempts - 1, &mut self.rng);
                svc.ctx.sleep(pause).await;
                match svc.kvs.try_lookup(&path).await {
                    Ok(Some(v)) => meta = FrameMeta::decode(v.value),
                    Ok(None) => return Err(StreamError::StepLost { path }),
                    Err(e) => return Err(e.into()),
                }
            };
            data = Some(fetched);
        }
        let data = data.expect("consume resolved a payload");
        g.end();

        self.spawn_ack(&path, true);

        let size = transport::payload_len(&data);
        let mut inner = svc.inner.borrow_mut();
        inner.stats.steps_consumed += 1;
        inner.stats.bytes_consumed += size;
        Ok(data)
    }

    /// Publish the consumption ack asynchronously: retention and window
    /// release care, the application does not, so the commit must not
    /// add to the consume latency. Without a staging manager (bare
    /// rigs) the ack key is still committed — the publisher's window
    /// watches it.
    fn spawn_ack(&self, path: &str, fallible: bool) {
        let svc = self.svc.clone();
        let p = path.to_string();
        let id = self.id.clone();
        self.svc.ctx.spawn(async move {
            match &svc.staging {
                Some(st) if fallible => {
                    let _ = st.try_publish_ack(&p, &id).await;
                }
                Some(st) => st.publish_ack(&p, &id).await,
                None if fallible => {
                    let _ = svc
                        .kvs
                        .try_commit(&ack_key(&p, &id), Bytes::from_static(b"1"))
                        .await;
                }
                None => {
                    svc.kvs
                        .commit(&ack_key(&p, &id), Bytes::from_static(b"1"))
                        .await;
                }
            }
        });
    }

    /// Stage a fetched remote step into the local cache and read it
    /// back (atomic rename publication).
    async fn store_cache(&self, rec: &Recorder, path: &str, got: Payload) -> Option<Payload> {
        let svc = &self.svc;
        let s = rec.region("stream_cons_store");
        svc.ensure_dirs(path).await;
        // Session-unique tmp name: same-node sessions of a broadcast
        // group can fetch the same step concurrently, and create()
        // truncates, so a shared tmp would interleave their writes.
        let tmp = format!("{path}.tmp-{}-{}", svc.node.0, self.id);
        let fd = svc.fs.create(&tmp).await.expect("managed dir");
        let size = transport::payload_len(&got);
        for seg in got {
            svc.fs.write_bytes(fd, seg).await.expect("store");
        }
        svc.fs.close(fd).await.expect("close");
        svc.fs.rename(&tmp, path).await.expect("cache rename");
        if let Some(st) = &svc.staging {
            st.cache_inserted(path, size);
        }
        s.end();
        let r = rec.region("read_single_buf");
        let got = try_read_local(&svc.fs, path).await;
        r.end();
        got
    }

    /// Fallible [`StreamSubscriber::store_cache`]: `None` when the
    /// cache write failed (device-error window) — the caller
    /// re-resolves rather than serving a partial step.
    async fn try_store_cache(&self, rec: &Recorder, path: &str, got: Payload) -> Option<Payload> {
        let svc = &self.svc;
        let s = rec.region("stream_cons_store");
        svc.ensure_dirs(path).await;
        // Session-unique tmp name: same-node sessions of a broadcast
        // group can fetch the same step concurrently, and create()
        // truncates, so a shared tmp would interleave their writes.
        let tmp = format!("{path}.tmp-{}-{}", svc.node.0, self.id);
        let size = transport::payload_len(&got);
        let write: FsResult<()> = async {
            let fd = svc.fs.create(&tmp).await?;
            for seg in got {
                svc.fs.write_bytes(fd, seg).await?;
            }
            svc.fs.close(fd).await?;
            svc.fs.rename(&tmp, path).await?;
            Ok(())
        }
        .await;
        if write.is_err() {
            let _ = svc.fs.unlink(&tmp).await;
            s.end();
            return None;
        }
        if let Some(st) = &svc.staging {
            st.cache_inserted(path, size);
        }
        s.end();
        let r = rec.region("read_single_buf");
        let got = try_read_local(&svc.fs, path).await;
        r.end();
        got
    }
}

/// Read a whole local file; `None` when it vanished (staging eviction
/// between probe and open).
async fn try_read_local(fs: &LocalFs, path: &str) -> Option<Payload> {
    let fd = fs.open(path).await.ok()?;
    let data = fs.read_segments(fd).await.ok()?;
    let _ = fs.close(fd).await;
    Some(data)
}

/// Read a spilled step's PFS copy; `None` when it is already retired.
async fn read_pfs(pfs: &PfsClient, path: &str) -> Option<Payload> {
    let fd = pfs.open(&staging::spill_path(path)).await.ok()?;
    let data = pfs.read_segments(fd).await.ok()?;
    let _ = pfs.close(fd).await;
    Some(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use kvs::{KvsClient, KvsServer, KvsSpec};
    use localfs::LocalFsSpec;
    use mdsim::{FrameTemplate, Model};
    use simcore::{Sim, SimTime};
    use transport::TransportSpec;

    struct Rig {
        services: Vec<Rc<StreamService>>,
        #[allow(dead_code)]
        kvs_server: Rc<KvsServer>,
    }

    /// n nodes; KVS broker on node 0; stream service + local fs on
    /// every node.
    fn setup(sim: &Sim, n: usize, spec: StreamSpec) -> Rig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(n));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let kvs_server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
        let services = (0..n as u32)
            .map(|i| {
                let fs = LocalFs::new(
                    &ctx,
                    cl.node(NodeId(i)).nvme.clone(),
                    LocalFsSpec::default(),
                );
                let kc = KvsClient::new(&ctx, &tp, NodeId(i), NodeId(0), KvsSpec::default());
                StreamService::start(&ctx, &tp, NodeId(i), fs, kc, spec.clone())
            })
            .collect();
        Rig {
            services,
            kvs_server,
        }
    }

    fn step_payload(step: u64) -> (FrameTemplate, Payload) {
        let t = FrameTemplate::generate(Model::Jac, 5);
        let f = t.frame_segments(step);
        (t, f)
    }

    fn acker(consumer: &str, node: u32) -> StreamAcker {
        StreamAcker {
            consumer: consumer.to_string(),
            node,
        }
    }

    #[test]
    fn publish_then_consume_same_node() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 1, StreamSpec::default());
        let svc = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (t, f) = step_payload(880);
            let mut pb = svc.publisher();
            pb.publish(&rec, "g0/s0", 0, f, &[acker("c0", 0)]).await;
            let mut sub = svc.subscriber("c0");
            let got = sub.consume_step(&rec, "g0/s0").await;
            (t.validate(&got, 880), rec.finish())
        });
        sim.run();
        let (ok, profile) = h.try_take().unwrap();
        assert!(ok, "step corrupted");
        assert!(profile.node(&["stream_consume", "stream_sync"]).is_some());
        assert!(profile
            .node(&["stream_consume", "stream_get_data"])
            .is_none());
        assert!(profile
            .node(&["stream_consume", "read_single_buf"])
            .is_some());
    }

    #[test]
    fn cross_node_consume_fetches_and_stages() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, StreamSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (t, f) = step_payload(1);
            let mut pb = prod.publisher();
            pb.publish(&rec, "s1", 0, f, &[acker("c0", 1)]).await;
            let mut sub = cons.subscriber("c0");
            let got = sub.consume_step(&rec, "s1").await;
            (t.validate(&got, 1), rec.finish())
        });
        sim.run();
        let (ok, profile) = h.try_take().unwrap();
        assert!(ok);
        for region in [
            "stream_sync",
            "stream_get_data",
            "stream_cons_store",
            "read_single_buf",
        ] {
            assert!(
                profile.node(&["stream_consume", region]).is_some(),
                "missing {region}"
            );
        }
        assert_eq!(rig.services[0].stats().fetches_served, 1);
        assert_eq!(rig.services[1].stats().steps_consumed, 1);
    }

    #[test]
    fn window_bounds_publisher_ahead_of_subscriber() {
        // window = 1: the second publish must wait for the first step's
        // ack, which the subscriber only sends at t ≈ 300 ms.
        let sim = Sim::new(0);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 2, spec);
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut pb = prod.publisher();
            let (_, f0) = step_payload(0);
            pb.publish(&rec, "w/0", 0, f0, &[acker("c0", 1)]).await;
            let (_, f1) = step_payload(1);
            pb.publish(&rec, "w/1", 1, f1, &[acker("c0", 1)]).await;
            (ctx.now().as_secs_f64(), pb.window().peak_in_flight())
        });
        let ctx2 = sim.ctx();
        let hc = sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(300)).await;
            let rec = Recorder::new(&ctx2);
            let mut sub = cons.subscriber("c0");
            let got = sub.consume_step(&rec, "w/0").await;
            transport::payload_len(&got)
        });
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let (t_second_publish, peak) = h.try_take().expect("publisher hung on the window");
        assert!(
            t_second_publish >= 0.3,
            "second publish at {t_second_publish}s beat the ack"
        );
        assert_eq!(peak, 1, "window bound violated");
        assert_eq!(hc.try_take().unwrap(), Model::Jac.frame_bytes());
        assert!(rig.services[0].stats().window_stalls >= 1);
        assert!(rig.services[0].stats().window_stall_ns > 0);
    }

    #[test]
    fn broadcast_slot_needs_every_subscriber_ack() {
        // window = 1, two subscribers: the slot frees only after BOTH
        // ack, so the second publish lands after the slower (500 ms)
        // subscriber.
        let sim = Sim::new(0);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 3, spec);
        let prod = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = {
            let prod = prod.clone();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let mut pb = prod.publisher();
                let ackers = [acker("c0", 1), acker("c1", 2)];
                let (_, f0) = step_payload(0);
                pb.publish(&rec, "b/0", 0, f0, &ackers).await;
                let (_, f1) = step_payload(1);
                pb.publish(&rec, "b/1", 1, f1, &ackers).await;
                ctx.now().as_secs_f64()
            })
        };
        for (i, delay_ms) in [(1u32, 100u64), (2, 500)] {
            let svc = rig.services[i as usize].clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(delay_ms)).await;
                let rec = Recorder::new(&ctx);
                let mut sub = svc.subscriber(&format!("c{}", i - 1));
                sub.consume_step(&rec, "b/0").await;
            });
        }
        sim.run_until(SimTime::from_nanos(5_000_000_000));
        let t = h.try_take().expect("publisher hung");
        assert!(t >= 0.5, "slot freed before the slow subscriber: {t}s");
    }

    #[test]
    fn reclaim_frees_window_held_by_crashed_subscriber() {
        // The only acker crashes without ever consuming; with
        // reclaim_on_crash the publisher recovers the slot during the
        // outage instead of head-of-line stalling until restart.
        let sim = Sim::new(1);
        let spec = StreamSpec {
            window: 1,
            ..StreamSpec::default()
        };
        let rig = setup(&sim, 2, spec);
        let ctx = sim.ctx();
        let board = FaultBoard::new(&ctx, 2, 1);
        let plan = faults::FaultPlan::scheduled(vec![faults::FaultEvent {
            at: SimDuration::from_millis(100),
            kind: faults::FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(30),
            },
        }]);
        board.arm(&plan);
        let prod = rig.services[0].clone();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut pb = prod.publisher_faulted(board);
            let policy = stream_retry_policy();
            let mut rng = StdRng::seed_from_u64(9);
            let (_, f0) = step_payload(0);
            pb.try_publish(&rec, "r/0", 0, f0, &[acker("c0", 1)], &policy, &mut rng)
                .await
                .expect("publish 0");
            ctx.sleep(SimDuration::from_millis(300)).await;
            let (_, f1) = step_payload(1);
            pb.try_publish(&rec, "r/1", 1, f1, &[acker("c0", 1)], &policy, &mut rng)
                .await
                .expect("publish 1");
            ctx.now().as_secs_f64()
        });
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let t = h.try_take().expect("reclaim never freed the window");
        assert!(t < 1.0, "reclaim took until {t}s");
        assert!(rig.services[0].stats().slots_reclaimed >= 1);
    }

    #[test]
    fn reduction_tree_shapes() {
        let t1 = ReductionTree::new(1);
        assert_eq!(t1.depth(), 0);
        assert_eq!(t1.merges(), 0);
        assert_eq!(t1.combined_bytes(&[7]), 7);
        let t4 = ReductionTree::new(4);
        assert_eq!(t4.depth(), 2);
        assert_eq!(t4.merges(), 3);
        assert_eq!(t4.stages()[0], vec![(0, 1), (2, 3)]);
        assert_eq!(t4.stages()[1], vec![(0, 2)]);
        assert_eq!(t4.combined_bytes(&[1, 2, 3, 4]), 10);
        let t5 = ReductionTree::new(5);
        assert_eq!(t5.depth(), 3);
        assert_eq!(t5.merges(), 4);
        assert_eq!(t5.combined_bytes(&[1, 1, 1, 1, 1]), 5);
    }

    #[test]
    fn partitioned_assignment_is_round_robin() {
        assert!(delivers_to(GroupMode::Partitioned, 0, 0, 4));
        assert!(delivers_to(GroupMode::Partitioned, 5, 1, 4));
        assert!(!delivers_to(GroupMode::Partitioned, 5, 2, 4));
        assert!(delivers_to(GroupMode::Broadcast, 5, 2, 4));
        assert_eq!(GroupMode::parse("broadcast"), Some(GroupMode::Broadcast));
        assert_eq!(
            GroupMode::parse("partitioned"),
            Some(GroupMode::Partitioned)
        );
        assert_eq!(GroupMode::parse("x"), None);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Bounded-window invariant: driving the window with any
        // interleaving of opens and (arbitrarily permuted, possibly
        // duplicated or bogus) acks never exceeds the capacity, and
        // acking everything drains it.
        #[test]
        fn window_never_exceeds_capacity(
            capacity in 1usize..6,
            ops in proptest::collection::vec((0u8..4, 0u64..32, 0u32..4), 1..200),
        ) {
            let mut w = StreamWindow::new(capacity);
            let ackers: Vec<StreamAcker> = (0..3)
                .map(|i| StreamAcker { consumer: format!("c{i}"), node: i })
                .collect();
            let mut next_step = 0u64;
            for (op, step, who) in ops {
                match op {
                    // Open when allowed (the publisher's gate).
                    0 => {
                        if w.can_open() {
                            let k = (who as usize % 3) + 1;
                            w.open(next_step, &format!("/s/{next_step}"), &ackers[..k]);
                            next_step += 1;
                        }
                    }
                    // Ack an arbitrary (step, consumer) — possibly
                    // unknown or duplicate.
                    1 | 2 => {
                        let _ = w.ack(step, &format!("c{}", who % 3));
                    }
                    // Reclaim an arbitrary node.
                    _ => {
                        let down = who % 3;
                        let _ = w.reclaim_down(|n| n == down);
                    }
                }
                prop_assert!(w.in_flight() <= w.capacity());
                prop_assert!(w.peak_in_flight() <= w.capacity());
            }
            // Drain: ack every outstanding waiter.
            for (step, _, waiters) in w.entries() {
                for a in waiters {
                    w.ack(step, &a.consumer);
                }
            }
            prop_assert_eq!(w.in_flight(), 0);
        }

        // Reduction-tree byte conservation: for any leaf sizes, the
        // combined root size equals the sum of the leaves, and the
        // schedule performs exactly `leaves - 1` merges.
        #[test]
        fn reduction_tree_conserves_bytes(
            leaf_bytes in proptest::collection::vec(0u64..1_000_000_000, 1..33),
        ) {
            let tree = ReductionTree::new(leaf_bytes.len());
            let total: u64 = leaf_bytes.iter().sum();
            prop_assert_eq!(tree.combined_bytes(&leaf_bytes), total);
            prop_assert_eq!(tree.merges(), leaf_bytes.len() - 1);
            // Depth is the information-theoretic minimum for pairwise
            // merges.
            let min_depth = usize::BITS - (leaf_bytes.len() - 1).leading_zeros();
            prop_assert_eq!(tree.depth(), min_depth as usize);
        }

        // Partitioned-group coverage: every step is delivered to
        // exactly one subscriber; broadcast delivers to all of them.
        #[test]
        fn partitioned_steps_have_exactly_one_assignee(
            step in 0u64..1_000_000,
            fanout in 1u32..9,
        ) {
            let assigned: Vec<u32> = (0..fanout)
                .filter(|s| delivers_to(GroupMode::Partitioned, step, *s, fanout))
                .collect();
            prop_assert_eq!(assigned.len(), 1);
            prop_assert_eq!(assigned[0], partition_assignee(step, fanout));
            let broadcast = (0..fanout)
                .filter(|s| delivers_to(GroupMode::Broadcast, step, *s, fanout))
                .count();
            prop_assert_eq!(broadcast, fanout as usize);
        }
    }
}
