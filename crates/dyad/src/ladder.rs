//! The managed-path data ladder: the one produce path and the one
//! consume path that DYAD and the streaming backend share.
//!
//! * **Produce:** staging backpressure → write (tmp file, then rename)
//!   with retry → `frame_written` → commit overhead + KVS commit →
//!   `frame_published`. A write that exhausts its retries publishes a
//!   [`FrameLocation::Lost`] tombstone, so consumers fail typed instead
//!   of parking forever.
//! * **Consume:** flock probe of a node-local copy → warm lookup or cold
//!   KVS wait → a resolve loop over the frame's home (local NVMe, RDMA
//!   fetch plus cache store, or the PFS spill copy) → asynchronous
//!   consumption ack.
//!
//! A backend is a [`LadderSpec`]: its [`Regions`] table (`dyad_*` or
//! `stream_*`), its AM id and managed directory, and its cost and
//! synchronization settings.
//!
//! Every step is fallible. What a failure costs is decided by one
//! observable input, the fault board attached to the transport
//! ([`Transport::faults`]): with a board, a failed step backs off per
//! [`RETRY_POLICY`] before retrying; with none, nothing can fail
//! transiently, so the pause is skipped outright (no zero-length sleep
//! and no RNG draw) and the trajectory is the fault-free one.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::{FaultBoard, RetryPolicy};
use instrument::Recorder;
use kvs::{KvsClient, VersionedValue};
use localfs::{FsResult, LocalFs, LockKind};
use pfs::PfsClient;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::resource::FifoResource;
use simcore::{Ctx, SimDuration};
use staging::{ack_key, FrameLocation, FrameMeta, StagingManager};
use transport::{AmId, Endpoint, LocalBoxFuture, Payload, Transport, TransportError};

/// Errors of the produce and consume ladders. Without a fault board
/// they surface only when a local write keeps failing (a full device)
/// or a frame's every copy is gone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Every copy of the frame is gone: the owner crashed before the
    /// frame could spill, or the spill copy itself was dropped.
    Lost {
        /// Managed path of the lost frame.
        path: String,
    },
    /// A transport-level failure survived the retry budget.
    Transport(TransportError),
    /// Local storage kept failing (an NVMe device-error window outlasted
    /// the retry budget); the frame was tombstoned.
    Storage {
        /// Managed path of the frame being written.
        path: String,
    },
    /// The frame could not be resolved to a live copy within the
    /// retry budget.
    Unresolvable {
        /// Managed path of the frame.
        path: String,
        /// Fetch attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Lost { path } => write!(f, "{path} lost (no surviving copy)"),
            Error::Transport(e) => write!(f, "transport failure: {e}"),
            Error::Storage { path } => write!(f, "local storage failure writing {path}"),
            Error::Unresolvable { path, attempts } => {
                write!(f, "{path} unresolvable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<TransportError> for Error {
    fn from(e: TransportError) -> Self {
        Error::Transport(e)
    }
}

/// Retry policy of the ladder's own recovery loops (write retry,
/// re-resolve) and of the workflow's outer retries. Wider than the
/// transport policy: node outages last milliseconds to seconds, so the
/// cap and budget stretch further.
pub const RETRY_POLICY: RetryPolicy = RetryPolicy {
    base: SimDuration::from_millis(1),
    cap: SimDuration::from_millis(500),
    max_attempts: 12,
    jitter_frac: 0.25,
    attempt_timeout: SimDuration::from_millis(100),
};

/// Sleep out the [`RETRY_POLICY`] backoff before retry `attempt`
/// (0-based) when a fault board is attached. Without one the pause is
/// skipped outright: no sleep is scheduled and `rng` is not drawn.
pub async fn retry_pause(ctx: &Ctx, board: Option<&FaultBoard>, attempt: u32, rng: &mut StdRng) {
    if board.is_some() {
        let pause = RETRY_POLICY.backoff(attempt, rng);
        ctx.sleep(pause).await;
    }
}

/// A backend's region names, so Thicket queries split movement from
/// synchronization per backend. `staging_backpressure` and
/// `read_single_buf` are shared by every backend.
#[derive(Debug)]
pub struct Regions {
    /// Whole produce call.
    pub produce: &'static str,
    /// Local write (tmp file + rename).
    pub write: &'static str,
    /// Commit overhead + metadata publication.
    pub commit: &'static str,
    /// Whole consume call.
    pub consume: &'static str,
    /// Flock probe of a node-local copy.
    pub probe: &'static str,
    /// Metadata synchronization (warm lookup or cold wait).
    pub sync: &'static str,
    /// RDMA fetch from the owner.
    pub get_data: &'static str,
    /// Staging a fetched copy into the local cache.
    pub cons_store: &'static str,
    /// Reading the PFS spill copy.
    pub pfs_fallback: &'static str,
}

/// One backend's configuration of the ladder.
#[derive(Debug, Clone)]
pub struct LadderSpec {
    /// Region names.
    pub regions: &'static Regions,
    /// AM id of the per-node data service.
    pub am: AmId,
    /// Root of the managed directory on every node's local fs.
    pub managed_dir: String,
    /// CPU overhead charged before each metadata commit.
    pub commit_overhead: SimDuration,
    /// Service threads in the per-node data service.
    pub service_threads: u64,
    /// Request-processing time in the data service (excluding I/O).
    pub service_time: SimDuration,
    /// Enable the warm lookup fast path.
    pub warm_sync: bool,
    /// Cold synchronization polls the KVS instead of parking a watch.
    pub cold_sync_poll: bool,
    /// Commit the consumption ack key even without a staging manager
    /// (the streaming window watches it).
    pub bare_acks: bool,
}

/// Operation counters of one node's ladder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Frames produced.
    pub produces: u64,
    /// Frames consumed.
    pub consumes: u64,
    /// Consumptions that parked in a KVS watch (cold syncs).
    pub cold_syncs: u64,
    /// Consumptions satisfied by the warm fast path.
    pub warm_syncs: u64,
    /// Consumptions that found the data already node-local.
    pub local_hits: u64,
    /// Remote fetches served *by* this node (owner side).
    pub fetches_served: u64,
    /// Bytes produced.
    pub bytes_produced: u64,
    /// Bytes consumed.
    pub bytes_consumed: u64,
}

struct State {
    stats: Stats,
    dirs_made: HashSet<String>,
}

/// One consumer session: its consumption-ack id, its warm/cold
/// synchronization state and its backoff-jitter stream.
pub struct Session {
    id: String,
    warmed: bool,
    rng: StdRng,
}

impl Session {
    /// The consumption-ack id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Whether the session has completed its cold first sync.
    pub fn is_warm(&self) -> bool {
        self.warmed
    }
}

/// One node's ladder: its managed directory, its data service (which
/// answers fetches from other nodes) and the produce/consume paths.
pub struct Ladder {
    ctx: Ctx,
    node: NodeId,
    fs: LocalFs,
    kvs: KvsClient,
    ep: Endpoint,
    staging: Option<Rc<StagingManager>>,
    board: Option<FaultBoard>,
    spec: LadderSpec,
    state: Rc<RefCell<State>>,
}

impl Ladder {
    /// Start the ladder on `node` and register its data-service handler
    /// under `spec.am`. The fault board is read from `tp` now, as
    /// [`KvsClient`] does, so attach it before starting.
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        staging: Option<Rc<StagingManager>>,
        spec: LadderSpec,
    ) -> Ladder {
        let state = Rc::new(RefCell::new(State {
            stats: Stats::default(),
            dirs_made: HashSet::new(),
        }));
        let service = FifoResource::new(ctx, spec.service_threads);
        let (hfs, hstate, service_time) = (fs.clone(), state.clone(), spec.service_time);
        tp.register_bulk(
            node,
            spec.am,
            Rc::new(move |hdr: Bytes, _payload: Payload| {
                let (fs, state, service) = (hfs.clone(), hstate.clone(), service.clone());
                Box::pin(async move {
                    service.request(service_time).await;
                    let path = String::from_utf8(hdr.to_vec()).expect("utf-8 path");
                    // An empty reply tells the consumer the file is gone
                    // (spilled or retired underneath it).
                    let data = match fs.open(&path).await {
                        Ok(fd) => {
                            let segs = fs.read_segments(fd).await.unwrap_or_default();
                            let _ = fs.close(fd).await;
                            segs
                        }
                        Err(_) => Vec::new(),
                    };
                    state.borrow_mut().stats.fetches_served += 1;
                    (Bytes::new(), data)
                }) as LocalBoxFuture<(Bytes, Payload)>
            }),
        );
        Ladder {
            ctx: ctx.clone(),
            node,
            fs,
            kvs,
            ep: tp.endpoint(node),
            staging,
            board: tp.faults(),
            spec,
            state,
        }
    }

    /// The node this ladder runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Simulation handle.
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// The node's KVS client.
    pub fn kvs(&self) -> &KvsClient {
        &self.kvs
    }

    /// The fault board attached when the ladder started, if any.
    pub fn board(&self) -> Option<&FaultBoard> {
        self.board.as_ref()
    }

    /// Operation counters.
    pub fn stats(&self) -> Stats {
        self.state.borrow().stats
    }

    /// The managed path for a logical name.
    pub fn managed_path(&self, name: &str) -> String {
        format!("{}/{}", self.spec.managed_dir, name.trim_start_matches('/'))
    }

    /// Open a consumer session acking under `id`. FNV-1a over the id,
    /// mixed with a per-node stream keyed by the AM id, gives each
    /// session its own deterministic backoff-jitter stream (drawn only
    /// under a fault board).
    pub fn session(&self, id: &str) -> Session {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
        }
        let stream = (u64::from(self.spec.am.0) << 16) ^ u64::from(self.node.0);
        Session {
            id: id.to_string(),
            warmed: false,
            rng: StdRng::seed_from_u64(self.ctx.rng(stream).random::<u64>() ^ h),
        }
    }

    async fn pause(&self, attempt: u32, rng: &mut StdRng) {
        retry_pause(&self.ctx, self.board.as_ref(), attempt, rng).await;
    }

    async fn ensure_dirs(&self, path: &str) {
        let Some((dir, _)) = path.rsplit_once('/') else {
            return;
        };
        let need = !self.state.borrow().dirs_made.contains(dir);
        if need {
            let _ = self.fs.mkdir_p(dir).await;
            self.state.borrow_mut().dirs_made.insert(dir.to_string());
        }
    }

    /// Write `data` to `tmp` and rename it onto `path`, so readers never
    /// see a partial file. On failure the tmp file is removed, so a
    /// retry starts clean.
    async fn write_atomic(&self, tmp: String, path: &str, data: &[Bytes]) -> FsResult<()> {
        self.ensure_dirs(path).await;
        let res: FsResult<()> = async {
            let fd = self.fs.create(&tmp).await?;
            for seg in data {
                self.fs.write_bytes(fd, seg.clone()).await?;
            }
            self.fs.close(fd).await?;
            self.fs.rename(&tmp, path).await
        }
        .await;
        if res.is_err() {
            let _ = self.fs.unlink(&tmp).await;
        }
        res
    }

    /// The produce ladder for the managed `path`: inside the produce
    /// region, `gate` (the streaming window; nothing for DYAD), then
    /// backpressure, write with retry, commit. `rng` feeds the
    /// write-retry backoff.
    pub async fn produce(
        &self,
        rec: &Recorder,
        path: String,
        frame: &[Bytes],
        rng: &mut StdRng,
        gate: impl AsyncFnOnce(&str) -> Result<(), Error>,
    ) -> Result<(), Error> {
        let r = self.spec.regions;
        let g = rec.region(r.produce);
        gate(&path).await?;
        let path = path.as_str();
        let size = transport::payload_len(frame);
        // Admission control: above the staging high watermark the
        // producer blocks until the evictor frees space. The stall is
        // its own region so reports count it as idle, not movement.
        if let Some(st) = &self.staging {
            if st.would_block(size) {
                let b = rec.region("staging_backpressure");
                st.admit(size).await;
                b.end();
            }
        }
        let mut attempts = 0;
        loop {
            attempts += 1;
            let w = rec.region(r.write);
            let res = self.write_atomic(format!("{path}.tmp"), path, frame).await;
            w.end();
            match res {
                Ok(()) => break,
                Err(_) if attempts < RETRY_POLICY.max_attempts => {
                    rec.annotate("produce_retries", 1.0);
                    self.pause(attempts - 1, rng).await;
                }
                Err(_) => {
                    // The frame can never appear: publish a Lost
                    // tombstone (best effort) so consumers fail typed
                    // instead of parking on a key never committed.
                    let meta = FrameMeta {
                        owner: self.node,
                        size,
                        location: FrameLocation::Lost,
                    };
                    let _ = self.kvs.try_commit(path, meta.encode()).await;
                    return Err(Error::Storage {
                        path: path.to_string(),
                    });
                }
            }
        }
        if let Some(st) = &self.staging {
            st.frame_written(path, size);
        }
        let c = rec.region(r.commit);
        // Global-namespace bookkeeping (hashing, path registration).
        self.ctx.sleep(self.spec.commit_overhead).await;
        let meta = FrameMeta {
            owner: self.node,
            size,
            location: FrameLocation::Nvme,
        };
        let committed = self.kvs.try_commit(path, meta.encode()).await;
        c.end();
        committed?;
        if let Some(st) = &self.staging {
            st.frame_published(path);
        }
        g.end();
        let mut state = self.state.borrow_mut();
        state.stats.produces += 1;
        state.stats.bytes_produced += size;
        Ok(())
    }

    /// The consume ladder for the managed `path`: flock probe, warm or
    /// cold metadata sync, resolve, then an asynchronous consumption
    /// ack. Call tree: `consume` → { `probe`, `read_single_buf`, `sync`,
    /// `get_data`, `cons_store`, `pfs_fallback` } in the backend's names
    /// (Figure 9 for DYAD).
    pub async fn consume(
        &self,
        rec: &Recorder,
        session: &mut Session,
        path: String,
    ) -> Result<Payload, Error> {
        let path = path.as_str();
        let g = rec.region(self.spec.regions.consume);
        let data = match self.probe_local(rec, path).await {
            Some(data) => {
                self.state.borrow_mut().stats.local_hits += 1;
                session.warmed = true;
                data
            }
            None => {
                let meta = self.sync(rec, session, path).await?;
                session.warmed = true;
                self.resolve(rec, session, path, meta).await?
            }
        };
        g.end();
        self.spawn_ack(path, &session.id);
        let mut state = self.state.borrow_mut();
        state.stats.consumes += 1;
        state.stats.bytes_consumed += transport::payload_len(&data);
        Ok(data)
    }

    /// Local presence first: once the producer shares our filesystem, a
    /// flock probe suffices. Under staging the evictor may retire or
    /// spill the frame between the probe and the read; a miss falls
    /// through to metadata resolution.
    async fn probe_local(&self, rec: &Recorder, path: &str) -> Option<Payload> {
        if !self.fs.exists(path) {
            return None;
        }
        let f = rec.region(self.spec.regions.probe);
        let locked = self.fs.flock(path, LockKind::Shared).await.is_ok();
        if locked {
            let _ = self.fs.funlock(path, LockKind::Shared).await;
        }
        f.end();
        if !locked {
            return None;
        }
        let r = rec.region("read_single_buf");
        let data = read_local(&self.fs, path).await;
        r.end();
        data
    }

    /// Resolve the frame's metadata: one cheap lookup once the session
    /// is warm (falling back to the blocking wait if the producer fell
    /// behind), else the cold wait.
    async fn sync(
        &self,
        rec: &Recorder,
        session: &Session,
        path: &str,
    ) -> Result<FrameMeta, Error> {
        let f = rec.region(self.spec.regions.sync);
        let found = if session.warmed && self.spec.warm_sync {
            match self.kvs.try_lookup(path).await {
                Ok(Some(v)) => {
                    self.state.borrow_mut().stats.warm_syncs += 1;
                    Ok(v)
                }
                Ok(None) => {
                    rec.annotate("cold_fallbacks", 1.0);
                    self.state.borrow_mut().stats.cold_syncs += 1;
                    self.cold_wait(rec, path).await
                }
                Err(e) => Err(e),
            }
        } else {
            self.state.borrow_mut().stats.cold_syncs += 1;
            self.cold_wait(rec, path).await
        };
        f.end();
        Ok(FrameMeta::decode(found?.value))
    }

    /// The cold synchronization: a parked server-side watch, or
    /// client-side polling under the `cold_sync_poll` ablation.
    async fn cold_wait(
        &self,
        rec: &Recorder,
        path: &str,
    ) -> Result<VersionedValue, TransportError> {
        if !self.spec.cold_sync_poll {
            return self.kvs.try_wait_key(path).await;
        }
        // Polls are reported on both exits: a wait that gave up after
        // 40 polls still sent 40 RPCs.
        let (res, polls) = self.kvs.try_wait_key_poll_counted(path).await;
        rec.annotate("kvs_polls", polls as f64);
        // Per-shard breakdown only on a sharded plane, so single-broker
        // profiles carry no extra key.
        if self.kvs.topology().shards() > 1 {
            let shard = self.kvs.shard_of(path);
            rec.annotate(&format!("kvs_polls_shard{shard}"), polls as f64);
        }
        res
    }

    /// Fetch the frame from wherever `meta` says it lives. A miss (the
    /// evictor moved it, its owner crashed, a cache write failed)
    /// re-reads the metadata and tries the new home; the spill
    /// republishes metadata before unlinking the NVMe copy, so one
    /// re-read normally finds it.
    async fn resolve(
        &self,
        rec: &Recorder,
        session: &mut Session,
        path: &str,
        mut meta: FrameMeta,
    ) -> Result<Payload, Error> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > RETRY_POLICY.max_attempts {
                return Err(Error::Unresolvable {
                    path: path.to_string(),
                    attempts: attempts - 1,
                });
            }
            let got = match meta.location {
                FrameLocation::Lost => {
                    return Err(Error::Lost {
                        path: path.to_string(),
                    })
                }
                FrameLocation::Pfs => self.read_spill(rec, path).await,
                FrameLocation::Nvme if meta.owner == self.node => {
                    // Published by a producer on our own node.
                    let r = rec.region("read_single_buf");
                    let got = read_local(&self.fs, path).await;
                    r.end();
                    got
                }
                FrameLocation::Nvme => self.fetch(rec, session, path, meta.owner).await,
            };
            if let Some(got) = got {
                return Ok(got);
            }
            self.pause(attempts - 1, &mut session.rng).await;
            // Metadata gone while we hold an unconsumed reference: the
            // frame is unrecoverable.
            meta = match self.kvs.try_lookup(path).await? {
                Some(v) => FrameMeta::decode(v.value),
                None => {
                    return Err(Error::Lost {
                        path: path.to_string(),
                    })
                }
            };
        }
    }

    /// RDMA fetch from the owner's node-local storage, staged into our
    /// cache. An empty reply means the owner no longer holds the file;
    /// an unreachable owner sends us to the PFS spill copy before we
    /// wait out its restart.
    async fn fetch(
        &self,
        rec: &Recorder,
        session: &mut Session,
        path: &str,
        owner: NodeId,
    ) -> Option<Payload> {
        let r = rec.region(self.spec.regions.get_data);
        let fetched = self
            .ep
            .bulk_rpc_retrying(
                owner,
                self.spec.am,
                Bytes::copy_from_slice(path.as_bytes()),
                Vec::new(),
                &RETRY_POLICY,
                &mut session.rng,
            )
            .await;
        r.end();
        match fetched {
            Ok((_, got)) if transport::payload_len(&got) > 0 => {
                self.store_cache(rec, &session.id, path, &got).await
            }
            Ok(_) => None,
            Err(_) => {
                rec.annotate("dead_owner_fallbacks", 1.0);
                self.read_spill(rec, path).await
            }
        }
    }

    /// Stage a fetched copy into the local cache and read it back.
    /// `None` when the cache write failed (device-error window): the
    /// caller re-resolves rather than serving a partial frame.
    async fn store_cache(
        &self,
        rec: &Recorder,
        id: &str,
        path: &str,
        got: &[Bytes],
    ) -> Option<Payload> {
        let s = rec.region(self.spec.regions.cons_store);
        // Session-unique tmp name: same-node sessions of a broadcast
        // group can fetch the same frame concurrently, and create()
        // truncates, so a shared tmp would interleave their writes.
        let tmp = format!("{path}.tmp-{}-{id}", self.node.0);
        let stored = self.write_atomic(tmp, path, got).await;
        if stored.is_ok() {
            if let Some(st) = &self.staging {
                st.cache_inserted(path, transport::payload_len(got));
            }
        }
        s.end();
        stored.ok()?;
        // Application read from the warm local cache.
        let r = rec.region("read_single_buf");
        let data = read_local(&self.fs, path).await;
        r.end();
        data
    }

    /// Read the PFS spill copy, if the frame has one and it still
    /// exists.
    async fn read_spill(&self, rec: &Recorder, path: &str) -> Option<Payload> {
        let st = self.staging.as_ref()?;
        let pfs = st.pfs_client()?;
        let r = rec.region(self.spec.regions.pfs_fallback);
        let got = read_pfs(pfs, path).await;
        r.end();
        if got.is_some() {
            st.note_pfs_fallback();
        }
        got
    }

    /// Publish the consumption ack asynchronously: retention (and the
    /// streaming window) care, the application does not, so the commit
    /// must not add to the consume latency. A lost ack only retains the
    /// frame longer.
    fn spawn_ack(&self, path: &str, id: &str) {
        let (path, id) = (path.to_string(), id.to_string());
        match &self.staging {
            Some(st) => {
                let st = st.clone();
                self.ctx.spawn(async move {
                    let _ = st.try_publish_ack(&path, &id).await;
                });
            }
            None if self.spec.bare_acks => {
                let kvs = self.kvs.clone();
                self.ctx.spawn(async move {
                    let _ = kvs
                        .try_commit(&ack_key(&path, &id), Bytes::from_static(b"1"))
                        .await;
                });
            }
            None => {}
        }
    }
}

/// Read a whole local file; `None` when it vanished (staging eviction
/// between probe and open — the orphaned-inode semantics in `localfs`
/// cover an unlink *after* the open).
async fn read_local(fs: &LocalFs, path: &str) -> Option<Payload> {
    let fd = fs.open(path).await.ok()?;
    let data = fs.read_segments(fd).await.ok()?;
    let _ = fs.close(fd).await;
    Some(data)
}

/// Read a spilled frame's PFS copy; `None` when it is already retired.
async fn read_pfs(pfs: &PfsClient, path: &str) -> Option<Payload> {
    let fd = pfs.open(&staging::spill_path(path)).await.ok()?;
    let data = pfs.read_segments(fd).await.ok()?;
    let _ = pfs.close(fd).await;
    Some(data)
}
