//! # dyad — the Dynamic and Asynchronous Data Streamliner
//!
//! A reimplementation of DYAD's runtime behaviour (flux-framework/dyad)
//! against the simulated substrates, following §III-A of the paper:
//!
//! * **Producers** write frames to *node-local storage* (the node's
//!   [`localfs::LocalFs`] managed directory) and publish
//!   `(owner, size)` metadata to the Flux-like [`kvs`] — the "global
//!   metadata management" of Figure 2.
//! * **Consumers** synchronize with *multi-protocol automatic
//!   synchronization*: the first access to a not-yet-produced frame
//!   parks in a KVS watch (the expensive, loosely coupled protocol);
//!   once the pipeline is warm, data is already published and the sync
//!   degrades to a cheap flock-style probe plus an immediate KVS
//!   answer.
//! * Remote data moves with **RDMA-style transfer** over the UCX-like
//!   [`transport`] (`dyad_get_data`), is staged into the consumer's
//!   node-local storage (`dyad_cons_store`), and is finally read by the
//!   application (`read_single_buf`) — the exact call tree Figure 9
//!   analyzes.
//!
//! Every phase is wrapped in [`instrument`] regions with the paper's
//! region names, so Thicket queries can split data-movement time from
//! synchronization (idle) time the same way the authors did.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::RetryPolicy;
use instrument::Recorder;
use kvs::KvsClient;
use localfs::{FsResult, LocalFs, LockKind};
use pfs::PfsClient;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::resource::FifoResource;
use simcore::{Ctx, SimDuration};
use staging::StagingManager;
use transport::{AmId, Endpoint, LocalBoxFuture, Payload, Transport, TransportError};

pub use staging::{FrameLocation, FrameMeta};

/// Errors surfaced by the fallible produce/consume paths under a fault
/// plan. Without faults these paths cannot fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DyadError {
    /// Every copy of the frame is gone: the owner crashed before the
    /// frame could spill, or the spill copy itself was dropped.
    FrameLost {
        /// Managed path of the lost frame.
        path: String,
    },
    /// A transport-level failure survived the retry budget.
    Transport(TransportError),
    /// Local storage kept failing (NVMe device-error window outlasted
    /// the retry budget).
    Storage {
        /// Managed path of the frame being written.
        path: String,
    },
    /// The frame could not be resolved to a live copy within the
    /// consume retry budget.
    Unresolvable {
        /// Managed path of the frame.
        path: String,
        /// Fetch attempts made.
        attempts: u32,
    },
}

impl std::fmt::Display for DyadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DyadError::FrameLost { path } => write!(f, "frame {path} lost (no surviving copy)"),
            DyadError::Transport(e) => write!(f, "transport failure: {e}"),
            DyadError::Storage { path } => write!(f, "local storage failure writing {path}"),
            DyadError::Unresolvable { path, attempts } => {
                write!(f, "frame {path} unresolvable after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for DyadError {}

impl From<TransportError> for DyadError {
    fn from(e: TransportError) -> Self {
        DyadError::Transport(e)
    }
}

/// Retry policy shaping DYAD's own recovery loops (consumer re-resolve,
/// producer write retry). Wider than the transport policy: node outages
/// last milliseconds-to-seconds, so the cap and budget stretch further.
pub fn dyad_retry_policy() -> RetryPolicy {
    RetryPolicy {
        base: SimDuration::from_millis(1),
        cap: SimDuration::from_millis(500),
        max_attempts: 12,
        jitter_frac: 0.25,
        attempt_timeout: SimDuration::from_millis(100),
    }
}

/// The AM id of the per-node DYAD data service.
pub const DYAD_AM: AmId = AmId(0x4459);

/// DYAD tuning parameters.
#[derive(Debug, Clone)]
pub struct DyadSpec {
    /// Root of the DYAD-managed directory on every node's local fs.
    pub managed_dir: String,
    /// CPU overhead of global-namespace management per produce (the
    /// metadata bookkeeping the paper blames for DYAD's 1.4× slower
    /// production).
    pub produce_overhead: SimDuration,
    /// Service threads in the per-node data service.
    pub service_threads: u64,
    /// Request-processing time in the data service (excluding I/O).
    pub service_time: SimDuration,
    /// Enable the warm flock-style fast path (disable to force KVS
    /// waits on every access — the synchronization ablation).
    pub warm_sync: bool,
    /// Use client-side polling for the cold synchronization instead of
    /// a server-side KVS watch (the naive protocol DYAD's automatic
    /// synchronization replaces; ablation knob).
    pub cold_sync_poll: bool,
}

impl Default for DyadSpec {
    fn default() -> Self {
        DyadSpec {
            managed_dir: "/dyad".to_string(),
            produce_overhead: SimDuration::from_micros(60),
            service_threads: 4,
            service_time: SimDuration::from_micros(10),
            warm_sync: true,
            cold_sync_poll: false,
        }
    }
}

/// Operation counters for one node's DYAD service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DyadStats {
    /// Frames produced through this service.
    pub produces: u64,
    /// Frames consumed through this service.
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

struct ServiceInner {
    stats: DyadStats,
    dirs_made: std::collections::HashSet<String>,
}

/// The per-node DYAD service: owns the node's managed directory, serves
/// remote fetch requests, and provides the produce/consume API.
pub struct DyadService {
    ctx: Ctx,
    node: NodeId,
    fs: LocalFs,
    kvs: KvsClient,
    ep: Endpoint,
    spec: Rc<DyadSpec>,
    staging: Option<Rc<StagingManager>>,
    inner: Rc<RefCell<ServiceInner>>,
}

impl DyadService {
    /// Start DYAD on `node` with unbounded staging (the paper's
    /// configuration: frames stay on NVMe forever).
    pub fn start(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: DyadSpec,
    ) -> Rc<DyadService> {
        Self::start_staged(ctx, tp, node, fs, kvs, spec, None)
    }

    /// Start DYAD on `node` under a [`StagingManager`]: produces pass
    /// admission control (backpressure) and register in the staged-frame
    /// lifecycle; consumes publish acknowledgements and fall back to the
    /// PFS copy when the evictor spilled a frame. Registers the
    /// data-service handler that answers `dyad_get_data` requests from
    /// consumers on other nodes.
    pub fn start_staged(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: DyadSpec,
        staging: Option<Rc<StagingManager>>,
    ) -> Rc<DyadService> {
        let spec = Rc::new(spec);
        let inner = Rc::new(RefCell::new(ServiceInner {
            stats: DyadStats::default(),
            dirs_made: std::collections::HashSet::new(),
        }));
        let service = FifoResource::new(ctx, spec.service_threads);
        let svc = Rc::new(DyadService {
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
            DYAD_AM,
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
    pub fn stats(&self) -> DyadStats {
        self.inner.borrow().stats
    }

    /// The managed path for a logical frame name.
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

    /// Write a frame to the managed directory with atomic tmp+rename
    /// publication. On failure (device-error window) the tmp file is
    /// removed so a retry starts clean.
    async fn write_frame(&self, path: &str, frame: Payload) -> FsResult<()> {
        self.ensure_dirs(path).await;
        let tmp = format!("{path}.tmp");
        let res: FsResult<()> = async {
            let fd = self.fs.create(&tmp).await?;
            for seg in frame {
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

    /// Produce a frame: write to node-local storage, then publish
    /// metadata to the KVS.
    ///
    /// Call tree: `dyad_produce` → { `dyad_prod_write`, `dyad_commit` }.
    pub async fn produce(&self, rec: &Recorder, name: &str, frame: Payload) {
        let path = self.managed_path(name);
        let size = transport::payload_len(&frame);
        let g = rec.region("dyad_produce");
        // Admission control: above the staging high watermark the
        // producer blocks here until the evictor frees space. The stall
        // is its own region so `report` can split it out of production
        // time as idle rather than movement.
        if let Some(st) = &self.staging {
            if st.would_block(size) {
                let b = rec.region("staging_backpressure");
                st.admit(size).await;
                b.end();
            }
        }
        {
            // Write to a temp name and rename: the frame becomes visible
            // atomically, so a same-node consumer can never observe a
            // partially written file.
            let w = rec.region("dyad_prod_write");
            self.write_frame(&path, frame).await.expect("local write");
            w.end();
        }
        if let Some(st) = &self.staging {
            st.frame_written(&path, size);
        }
        {
            let c = rec.region("dyad_commit");
            // Global-namespace bookkeeping (hashing, path registration).
            self.ctx.sleep(self.spec.produce_overhead).await;
            let meta = FrameMeta {
                owner: self.node,
                size,
                location: FrameLocation::Nvme,
            };
            self.kvs.commit(&path, meta.encode()).await;
            c.end();
        }
        if let Some(st) = &self.staging {
            st.frame_published(&path);
        }
        g.end();
        let mut inner = self.inner.borrow_mut();
        inner.stats.produces += 1;
        inner.stats.bytes_produced += size;
    }

    /// Fallible [`DyadService::produce`] for fault runs: local writes
    /// retry through NVMe device-error windows with backoff, and the
    /// metadata commit retries through broker outages. Fails typed once
    /// the retry budget is exhausted.
    pub async fn try_produce(
        &self,
        rec: &Recorder,
        name: &str,
        frame: Payload,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<(), DyadError> {
        let path = self.managed_path(name);
        let size = transport::payload_len(&frame);
        let g = rec.region("dyad_produce");
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
            let w = rec.region("dyad_prod_write");
            let res = self.write_frame(&path, frame.clone()).await;
            w.end();
            match res {
                Ok(()) => break,
                Err(_) if attempts < policy.max_attempts => {
                    rec.annotate("produce_retries", 1.0);
                    let pause = policy.backoff(attempts - 1, rng);
                    self.ctx.sleep(pause).await;
                }
                Err(_) => {
                    // The frame can never appear: publish a Lost
                    // tombstone (best effort) so consumers surface a
                    // typed FrameLost instead of parking forever on a
                    // key that will never be committed.
                    let meta = FrameMeta {
                        owner: self.node,
                        size,
                        location: FrameLocation::Lost,
                    };
                    let _ = self.kvs.try_commit(&path, meta.encode()).await;
                    g.end();
                    return Err(DyadError::Storage { path });
                }
            }
        }
        if let Some(st) = &self.staging {
            st.frame_written(&path, size);
        }
        let commit_res = {
            let c = rec.region("dyad_commit");
            self.ctx.sleep(self.spec.produce_overhead).await;
            let meta = FrameMeta {
                owner: self.node,
                size,
                location: FrameLocation::Nvme,
            };
            let r = self.kvs.try_commit(&path, meta.encode()).await;
            c.end();
            r
        };
        commit_res?;
        if let Some(st) = &self.staging {
            st.frame_published(&path);
        }
        g.end();
        let mut inner = self.inner.borrow_mut();
        inner.stats.produces += 1;
        inner.stats.bytes_produced += size;
        Ok(())
    }

    /// Open a consumer session (tracks warm/cold synchronization state,
    /// one per consumer process). The session id defaults to the node
    /// name; sessions whose acks feed staging retention should use
    /// [`DyadService::consumer_with_id`] with the id the workflow
    /// registered on the producer's staging manager.
    pub fn consumer(self: &Rc<Self>) -> DyadConsumer {
        self.consumer_with_id(&format!("n{}", self.node.0))
    }

    /// Open a consumer session with an explicit consumption-ack id.
    pub fn consumer_with_id(self: &Rc<Self>, id: &str) -> DyadConsumer {
        // FNV-1a over the id gives each session its own deterministic
        // backoff-jitter stream (only drawn from under a fault plan).
        let mut h: u64 = 0xcbf29ce484222325;
        for b in id.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(0x100000001b3);
        }
        let rng = StdRng::seed_from_u64(
            self.ctx
                .rng(0x4459_0000 ^ u64::from(self.node.0))
                .random::<u64>()
                ^ h,
        );
        DyadConsumer {
            svc: self.clone(),
            id: id.to_string(),
            warmed: false,
            rng,
        }
    }
}

/// Consumer-side session state for multi-protocol synchronization.
pub struct DyadConsumer {
    svc: Rc<DyadService>,
    id: String,
    warmed: bool,
    rng: StdRng,
}

impl DyadConsumer {
    /// Consume a frame by logical name, returning its payload.
    ///
    /// Call tree: `dyad_consume` → { `dyad_sync_flock` or `dyad_fetch`,
    /// `dyad_get_data`, `dyad_cons_store`, `read_single_buf` }, matching
    /// Figure 9.
    pub async fn consume(&mut self, rec: &Recorder, name: &str) -> Payload {
        let svc = self.svc.clone();
        let path = svc.managed_path(name);
        let g = rec.region("dyad_consume");

        // --- Synchronization ------------------------------------------
        // Local presence first (single-node deployments): a flock probe
        // suffices once the producer shares our filesystem.
        let mut data: Option<Payload> = None;
        if svc.fs.exists(&path) {
            let f = rec.region("dyad_sync_flock");
            svc.fs
                .flock(&path, LockKind::Shared)
                .await
                .expect("flock on existing file");
            svc.fs
                .funlock(&path, LockKind::Shared)
                .await
                .expect("funlock");
            f.end();
            // Node-local: direct read. Under staging, the evictor may
            // retire or spill the frame between the probe and the read;
            // a miss falls through to metadata resolution below.
            let r = rec.region("read_single_buf");
            data = try_read_local(&svc.fs, &path).await;
            r.end();
            if data.is_some() {
                svc.inner.borrow_mut().stats.local_hits += 1;
                self.warmed = true;
            }
        }

        if data.is_none() {
            // Remote (or evicted) data: resolve the owner through the
            // KVS.
            let f = rec.region("dyad_fetch");
            let mut meta;
            if self.warmed && svc.spec.warm_sync {
                // Warm path: data is normally already published — one
                // cheap, non-blocking lookup.
                match svc.kvs.lookup(&path).await {
                    Some(v) => {
                        svc.inner.borrow_mut().stats.warm_syncs += 1;
                        meta = FrameMeta::decode(v.value);
                    }
                    None => {
                        // Producer fell behind: fall back to the
                        // loosely coupled blocking watch.
                        rec.annotate("cold_fallbacks", 1.0);
                        svc.inner.borrow_mut().stats.cold_syncs += 1;
                        let v = cold_wait(&svc, rec, &path).await;
                        meta = FrameMeta::decode(v.value);
                    }
                }
            } else {
                // Cold path (first access): park in a KVS watch (or
                // poll, if the ablation knob says so).
                svc.inner.borrow_mut().stats.cold_syncs += 1;
                let v = cold_wait(&svc, rec, &path).await;
                meta = FrameMeta::decode(v.value);
            }
            f.end();
            self.warmed = true;

            // --- Data movement ----------------------------------------
            // The staging evictor can move a frame between our metadata
            // read and the data fetch (NVMe → PFS on spill). The spill
            // republishes metadata *before* unlinking the NVMe copy, so
            // one re-lookup always observes the new location; the bound
            // is a defensive backstop.
            let mut attempts = 0;
            let fetched = loop {
                attempts += 1;
                assert!(
                    attempts <= 8,
                    "frame {path} unresolvable (evicted mid-consume?)"
                );
                match meta.location {
                    FrameLocation::Lost => {
                        // Only fault runs mint Lost tombstones, and they
                        // consume through the fallible path.
                        panic!("frame {path} lost to a node crash (use try_consume under faults)");
                    }
                    FrameLocation::Pfs => {
                        // Spilled: fetch the PFS copy directly.
                        let pfs = svc
                            .staging
                            .as_ref()
                            .and_then(|st| st.pfs_client())
                            .expect("spilled frame but no PFS client configured");
                        let r = rec.region("dyad_pfs_fallback");
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
                        // Published by a producer on our own node.
                        let r = rec.region("read_single_buf");
                        let got = try_read_local(&svc.fs, &path).await;
                        r.end();
                        if let Some(got) = got {
                            break got;
                        }
                    }
                    FrameLocation::Nvme => {
                        // RDMA fetch from the owner's node-local
                        // storage. An empty payload means the owner no
                        // longer holds the file (spilled underneath us).
                        let r = rec.region("dyad_get_data");
                        let (_, got) = svc
                            .ep
                            .bulk_rpc(
                                meta.owner,
                                DYAD_AM,
                                Bytes::copy_from_slice(path.as_bytes()),
                                Vec::new(),
                            )
                            .await;
                        r.end();
                        if transport::payload_len(&got) > 0 {
                            // Stage into our node-local cache, with the
                            // same atomic rename publication (other
                            // consumer sessions on this node must never
                            // see a partial cache file).
                            let s = rec.region("dyad_cons_store");
                            svc.ensure_dirs(&path).await;
                            let tmp = format!("{path}.tmp-{}", svc.node.0);
                            let fd = svc.fs.create(&tmp).await.expect("managed dir");
                            let size = transport::payload_len(&got);
                            for seg in got {
                                svc.fs.write_bytes(fd, seg).await.expect("store");
                            }
                            svc.fs.close(fd).await.expect("close");
                            svc.fs.rename(&tmp, &path).await.expect("cache rename");
                            if let Some(st) = &svc.staging {
                                st.cache_inserted(&path, size);
                            }
                            s.end();
                            // Application read from the warm local cache.
                            let r = rec.region("read_single_buf");
                            let got = try_read_local(&svc.fs, &path).await;
                            r.end();
                            if let Some(got) = got {
                                break got;
                            }
                        }
                    }
                }
                // Re-read the metadata and try again at its new home.
                let v = svc
                    .kvs
                    .lookup(&path)
                    .await
                    .unwrap_or_else(|| panic!("frame {path} retired before consume"));
                meta = FrameMeta::decode(v.value);
            };
            data = Some(fetched);
        }
        let data = data.expect("consume resolved a payload");
        g.end();

        // Publish the consumption ack asynchronously: retention cares,
        // the application does not, so the commit must not add to the
        // consume latency.
        if let Some(st) = &svc.staging {
            let st = st.clone();
            let p = path.clone();
            let id = self.id.clone();
            svc.ctx.spawn(async move {
                st.publish_ack(&p, &id).await;
            });
        }

        let size = transport::payload_len(&data);
        let mut inner = svc.inner.borrow_mut();
        inner.stats.consumes += 1;
        inner.stats.bytes_consumed += size;
        data
    }

    /// Fallible [`DyadConsumer::consume`] for fault runs. Differences
    /// from the infallible path:
    ///
    /// * metadata ops ride the retrying KVS client (broker outages are
    ///   absorbed, then surface as [`DyadError::Transport`]);
    /// * the RDMA fetch retries with backoff; when the owner node is
    ///   down the consumer falls back to the frame's PFS spill copy
    ///   (re-fetching through the spill path) instead of waiting for
    ///   the restart;
    /// * a [`FrameLocation::Lost`] tombstone (owner crashed before the
    ///   frame could spill) surfaces as [`DyadError::FrameLost`] instead
    ///   of blocking forever;
    /// * the resolve loop is bounded by the policy's attempt budget and
    ///   fails typed ([`DyadError::Unresolvable`]) instead of panicking.
    pub async fn try_consume(&mut self, rec: &Recorder, name: &str) -> Result<Payload, DyadError> {
        let svc = self.svc.clone();
        let path = svc.managed_path(name);
        let policy = dyad_retry_policy();
        let g = rec.region("dyad_consume");

        // --- Synchronization ------------------------------------------
        let mut data: Option<Payload> = None;
        if svc.fs.exists(&path) {
            let f = rec.region("dyad_sync_flock");
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
            let meta_res: Result<FrameMeta, DyadError> = {
                let f = rec.region("dyad_fetch");
                let r = if self.warmed && svc.spec.warm_sync {
                    match svc.kvs.try_lookup(&path).await {
                        Ok(Some(v)) => {
                            svc.inner.borrow_mut().stats.warm_syncs += 1;
                            Ok(FrameMeta::decode(v.value))
                        }
                        Ok(None) => {
                            rec.annotate("cold_fallbacks", 1.0);
                            svc.inner.borrow_mut().stats.cold_syncs += 1;
                            try_cold_wait(&svc, rec, &path)
                                .await
                                .map(|v| FrameMeta::decode(v.value))
                                .map_err(DyadError::from)
                        }
                        Err(e) => Err(e.into()),
                    }
                } else {
                    svc.inner.borrow_mut().stats.cold_syncs += 1;
                    try_cold_wait(&svc, rec, &path)
                        .await
                        .map(|v| FrameMeta::decode(v.value))
                        .map_err(DyadError::from)
                };
                f.end();
                r
            };
            let mut meta = meta_res?;
            self.warmed = true;

            // --- Data movement with recovery --------------------------
            let mut attempts = 0;
            let fetched = loop {
                attempts += 1;
                if attempts > policy.max_attempts {
                    return Err(DyadError::Unresolvable {
                        path,
                        attempts: attempts - 1,
                    });
                }
                match meta.location {
                    FrameLocation::Lost => {
                        return Err(DyadError::FrameLost { path });
                    }
                    FrameLocation::Pfs => {
                        if let Some(pfs) = svc.staging.as_ref().and_then(|st| st.pfs_client()) {
                            let r = rec.region("dyad_pfs_fallback");
                            let got = read_pfs(pfs, &path).await;
                            r.end();
                            if let Some(got) = got {
                                if let Some(st) = &svc.staging {
                                    st.note_pfs_fallback();
                                }
                                break got;
                            }
                            // Spill copy gone: the owner (or its
                            // restart hook) will tombstone or
                            // re-publish; re-resolve below.
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
                        let r = rec.region("dyad_get_data");
                        let fetch = svc
                            .ep
                            .bulk_rpc_retrying(
                                meta.owner,
                                DYAD_AM,
                                Bytes::copy_from_slice(path.as_bytes()),
                                Vec::new(),
                                &policy,
                                &mut self.rng,
                            )
                            .await;
                        r.end();
                        match fetch {
                            Ok((_, got)) if transport::payload_len(&got) > 0 => {
                                let stored = self.store_cache(rec, &path, got).await;
                                if let Some(got) = stored {
                                    break got;
                                }
                            }
                            Ok(_) => {
                                // Owner answered but no longer holds the
                                // file (spilled or lost underneath us):
                                // re-resolve through the KVS.
                            }
                            Err(_) => {
                                // Owner unreachable (crashed mid-window):
                                // try the PFS spill copy before waiting
                                // out the restart.
                                rec.annotate("dead_owner_fallbacks", 1.0);
                                if let Some(pfs) =
                                    svc.staging.as_ref().and_then(|st| st.pfs_client())
                                {
                                    let r = rec.region("dyad_pfs_fallback");
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
                // Back off, then re-read the metadata and retry at the
                // frame's (possibly new) home.
                let pause = policy.backoff(attempts - 1, &mut self.rng);
                svc.ctx.sleep(pause).await;
                match svc.kvs.try_lookup(&path).await {
                    Ok(Some(v)) => meta = FrameMeta::decode(v.value),
                    // Metadata gone while we hold an unconsumed
                    // reference: the frame is unrecoverable.
                    Ok(None) => return Err(DyadError::FrameLost { path }),
                    Err(e) => return Err(e.into()),
                }
            };
            data = Some(fetched);
        }
        let data = data.expect("consume resolved a payload");
        g.end();

        if let Some(st) = &svc.staging {
            let st = st.clone();
            let p = path.clone();
            let id = self.id.clone();
            svc.ctx.spawn(async move {
                let _ = st.try_publish_ack(&p, &id).await;
            });
        }

        let size = transport::payload_len(&data);
        let mut inner = svc.inner.borrow_mut();
        inner.stats.consumes += 1;
        inner.stats.bytes_consumed += size;
        Ok(data)
    }

    /// Stage a fetched remote frame into the local cache and read it
    /// back. `None` when the cache write failed (device-error window) —
    /// the caller re-resolves; meanwhile serve nothing rather than a
    /// partial frame.
    async fn store_cache(&self, rec: &Recorder, path: &str, got: Payload) -> Option<Payload> {
        let svc = &self.svc;
        let s = rec.region("dyad_cons_store");
        svc.ensure_dirs(path).await;
        let tmp = format!("{path}.tmp-{}", svc.node.0);
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

    /// Whether this session has completed its cold first sync.
    pub fn is_warm(&self) -> bool {
        self.warmed
    }
}

/// Fallible cold synchronization (see [`cold_wait`]).
async fn try_cold_wait(
    svc: &Rc<DyadService>,
    rec: &Recorder,
    path: &str,
) -> Result<kvs::VersionedValue, TransportError> {
    if svc.spec.cold_sync_poll {
        // The counted variant reports polls on *both* exits: a consumer
        // that gave up after 40 polls still sent 40 RPCs, and dropping
        // them undercounted metadata load exactly on the runs (faulty
        // ones) where the poll pressure is most interesting.
        let (res, polls) = svc.kvs.try_wait_key_poll_counted(path).await;
        annotate_polls(svc, rec, path, polls);
        res
    } else {
        svc.kvs.try_wait_key(path).await
    }
}

/// The cold synchronization: a parked server-side watch by default, or
/// client-side polling under the `cold_sync_poll` ablation.
async fn cold_wait(svc: &Rc<DyadService>, rec: &Recorder, path: &str) -> kvs::VersionedValue {
    if svc.spec.cold_sync_poll {
        let (v, polls) = svc.kvs.wait_key_poll(path).await;
        annotate_polls(svc, rec, path, polls);
        v
    } else {
        svc.kvs.wait_key(path).await
    }
}

/// Record the poll count, plus a per-shard breakdown when the metadata
/// plane has more than one shard, so the metadata-plane sweep can
/// attribute poll load to individual broker shards.
fn annotate_polls(svc: &Rc<DyadService>, rec: &Recorder, path: &str, polls: u64) {
    rec.annotate("kvs_polls", polls as f64);
    if svc.kvs.topology().shards() > 1 {
        let shard = svc.kvs.shard_of(path);
        rec.annotate(&format!("kvs_polls_shard{shard}"), polls as f64);
    }
}

/// Read a whole local file; `None` when it vanished (staging eviction
/// between probe and open — the orphaned-inode semantics in `localfs`
/// cover an unlink *after* the open).
async fn try_read_local(fs: &LocalFs, path: &str) -> Option<Payload> {
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
        services: Vec<Rc<DyadService>>,
        #[allow(dead_code)]
        kvs_server: Rc<KvsServer>,
    }

    /// n nodes; KVS broker on node 0; DYAD service + local fs on every
    /// node.
    fn setup(sim: &Sim, n: usize, spec: DyadSpec) -> Rig {
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
                DyadService::start(&ctx, &tp, NodeId(i), fs, kc, spec.clone())
            })
            .collect();
        Rig {
            services,
            kvs_server,
        }
    }

    fn frame(step: u64) -> (FrameTemplate, Payload) {
        let t = FrameTemplate::generate(Model::Jac, 5);
        let f = t.frame_segments(step);
        (t, f)
    }

    #[test]
    fn produce_then_consume_same_node() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 1, DyadSpec::default());
        let svc = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (t, f) = frame(880);
            svc.produce(&rec, "run0/frame0", f).await;
            let mut consumer = svc.consumer();
            let got = consumer.consume(&rec, "run0/frame0").await;
            (t.validate(&got, 880), rec.finish())
        });
        sim.run();
        let (ok, profile) = h.try_take().unwrap();
        assert!(ok, "frame corrupted");
        // Local path: flock sync, no fetch/store regions.
        assert!(profile.node(&["dyad_consume", "dyad_sync_flock"]).is_some());
        assert!(profile.node(&["dyad_consume", "dyad_get_data"]).is_none());
        assert!(profile.node(&["dyad_consume", "read_single_buf"]).is_some());
    }

    #[test]
    fn cross_node_consume_fetches_and_stages() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (t, f) = frame(1);
            prod.produce(&rec, "f1", f).await;
            let mut consumer = cons.consumer();
            let got = consumer.consume(&rec, "f1").await;
            (t.validate(&got, 1), rec.finish())
        });
        sim.run();
        let (ok, profile) = h.try_take().unwrap();
        assert!(ok);
        for region in [
            "dyad_fetch",
            "dyad_get_data",
            "dyad_cons_store",
            "read_single_buf",
        ] {
            assert!(
                profile.node(&["dyad_consume", region]).is_some(),
                "missing {region}"
            );
        }
        assert_eq!(rig.services[0].stats().fetches_served, 1);
        assert_eq!(rig.services[1].stats().consumes, 1);
    }

    #[test]
    fn consumer_blocks_until_producer_publishes() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut consumer = cons.consumer();
            let got = consumer.consume(&rec, "late").await;
            (ctx.now().as_secs_f64(), transport::payload_len(&got))
        });
        let ctx = sim.ctx();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            ctx.sleep(SimDuration::from_millis(200)).await;
            let (_, f) = frame(0);
            prod.produce(&rec, "late", f).await;
        });
        sim.run();
        let (t, len) = h.try_take().unwrap();
        assert!(t >= 0.2, "consumed too early at {t}");
        assert_eq!(len, Model::Jac.frame_bytes());
        assert_eq!(rig.services[1].stats().cold_syncs, 1);
    }

    #[test]
    fn warm_path_after_first_frame() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (_, f0) = frame(0);
            let (_, f1) = frame(1);
            prod.produce(&rec, "a/0", f0).await;
            prod.produce(&rec, "a/1", f1).await;
            let mut consumer = cons.consumer();
            consumer.consume(&rec, "a/0").await;
            consumer.consume(&rec, "a/1").await;
            rec.finish()
        });
        sim.run();
        let profile = h.try_take().unwrap();
        let _ = profile;
        let st = rig.services[1].stats();
        assert_eq!(st.cold_syncs, 1);
        assert_eq!(st.warm_syncs, 1);
    }

    #[test]
    fn warm_sync_disabled_forces_cold_waits() {
        let sim = Sim::new(0);
        let spec = DyadSpec {
            warm_sync: false,
            ..DyadSpec::default()
        };
        let rig = setup(&sim, 2, spec);
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let ctx = sim.ctx();
        sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            for i in 0..3 {
                let (_, f) = frame(i);
                prod.produce(&rec, &format!("b/{i}"), f).await;
            }
            let mut consumer = cons.consumer();
            for i in 0..3 {
                consumer.consume(&rec, &format!("b/{i}")).await;
            }
        });
        sim.run();
        assert_eq!(rig.services[1].stats().cold_syncs, 3);
        assert_eq!(rig.services[1].stats().warm_syncs, 0);
    }

    #[test]
    fn produce_is_slower_than_raw_write_by_commit_overhead() {
        // The paper's Finding 1: DYAD production pays a metadata-
        // management premium over plain XFS writes.
        let sim = Sim::new(0);
        let rig = setup(&sim, 1, DyadSpec::default());
        let svc = rig.services[0].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let (_, f) = frame(0);
            svc.produce(&rec, "p/0", f).await;
            rec.finish()
        });
        sim.run();
        let p = h.try_take().unwrap();
        let total = p.inclusive(&["dyad_produce"]).as_secs_f64();
        let write = p
            .inclusive(&["dyad_produce", "dyad_prod_write"])
            .as_secs_f64();
        let commit = p.inclusive(&["dyad_produce", "dyad_commit"]).as_secs_f64();
        assert!(commit > 0.0);
        assert!((write + commit - total).abs() < 1e-9);
        let ratio = total / write;
        assert!(
            ratio > 1.1 && ratio < 2.0,
            "produce/write ratio {ratio} out of the paper's ballpark"
        );
    }

    #[test]
    fn consumed_bytes_are_bit_identical_across_nodes() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3, DyadSpec::default());
        let prod = rig.services[1].clone();
        let cons = rig.services[2].clone();
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let t = FrameTemplate::generate(Model::ApoA1, 9);
            let f = t.frame_segments(42);
            let flat_in = transport::flatten_payload(f.clone());
            prod.produce(&rec, "x", f).await;
            let mut consumer = cons.consumer();
            let got = consumer.consume(&rec, "x").await;
            let flat_out = transport::flatten_payload(got);
            flat_in == flat_out
        });
        sim.run();
        assert!(h.try_take().unwrap());
    }

    #[test]
    fn consume_falls_back_to_pfs_after_spill() {
        // Tight staging budget on the producer node: the evictor spills
        // unconsumed frames to the PFS; a cross-node consumer must still
        // get every frame bit-identical, via the KVS → RDMA → PFS
        // fallback chain, and its acks must let frames retire.
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(4));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let _kvs_server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
        let pfs = pfs::ParallelFs::start(
            &ctx,
            &tp,
            NodeId(2),
            vec![NodeId(3)],
            pfs::PfsSpec::default(),
        );
        let frame_bytes = Model::Jac.frame_bytes();
        let mk = |i: u32, budget: u64| {
            let fs = LocalFs::new(
                &ctx,
                cl.node(NodeId(i)).nvme.clone(),
                LocalFsSpec::default(),
            );
            let kc = KvsClient::new(&ctx, &tp, NodeId(i), NodeId(0), KvsSpec::default());
            let sspec = staging::StagingSpec {
                budget_bytes: budget,
                low_watermark: 0.4,
                high_watermark: 0.8,
                ..staging::StagingSpec::default()
            };
            let mgr = staging::StagingManager::new(
                &ctx,
                NodeId(i),
                fs.clone(),
                kc.clone(),
                Some(pfs.client(&ctx, NodeId(i))),
                sspec,
            );
            mgr.spawn_evictor();
            let svc = DyadService::start_staged(
                &ctx,
                &tp,
                NodeId(i),
                fs,
                kc,
                DyadSpec::default(),
                Some(mgr.clone()),
            );
            (svc, mgr)
        };
        let (prod, pmgr) = mk(0, 2 * frame_bytes);
        let (cons, cmgr) = mk(1, u64::MAX);
        pmgr.register_consumer("/dyad/s", "c0");
        {
            let prod = prod.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..4u64 {
                    let (_, f) = frame(i);
                    prod.produce(&rec, &format!("s/{i}"), f).await;
                    ctx.sleep(SimDuration::from_millis(300)).await;
                }
            });
        }
        let ctx2 = sim.ctx();
        let h = sim.spawn(async move {
            // Start late so the evictor has had to spill.
            ctx2.sleep(SimDuration::from_secs_f64(2.0)).await;
            let rec = Recorder::new(&ctx2);
            let mut session = cons.consumer_with_id("c0");
            let mut all_ok = true;
            for i in 0..4u64 {
                let t = FrameTemplate::generate(Model::Jac, 5);
                let got = session.consume(&rec, &format!("s/{i}")).await;
                all_ok &= t.validate(&got, i);
            }
            all_ok
        });
        sim.run_until(SimTime::from_nanos(20_000_000_000));
        assert_eq!(h.try_take(), Some(true), "corrupted or missing frame");
        assert!(
            pmgr.stats().spilled_frames >= 1,
            "budget never forced a spill"
        );
        assert!(
            cmgr.stats().pfs_fallbacks >= 1,
            "no consume took the PFS fallback"
        );
        assert_eq!(cmgr.stats().acks_published, 4);
        for r in pmgr.retire_log() {
            assert_eq!(
                r.acks_seen, r.required_acks,
                "premature retire of {}",
                r.path
            );
        }
    }

    #[test]
    fn pipelined_steady_state_has_tiny_warm_sync_cost() {
        // Producer stays one frame ahead; consumer's per-frame sync cost
        // after the first frame must be microseconds, not the frame
        // period (the essence of Findings 1 and 5).
        let sim = Sim::new(0);
        let rig = setup(&sim, 2, DyadSpec::default());
        let prod = rig.services[0].clone();
        let cons = rig.services[1].clone();
        let period = SimDuration::from_millis(100);
        {
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..10 {
                    ctx.sleep(period).await;
                    let (_, f) = frame(i);
                    prod.produce(&rec, &format!("s/{i}"), f).await;
                }
            });
        }
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let rec = Recorder::new(&ctx);
            let mut consumer = cons.consumer();
            for i in 0..10 {
                consumer.consume(&rec, &format!("s/{i}")).await;
                ctx.sleep(period).await; // analytics
            }
            rec.finish()
        });
        let report = sim.run_until(SimTime::from_nanos(10_000_000_000));
        assert!(report.is_clean());
        let p = h.try_take().unwrap();
        let fetch = p.node(&["dyad_consume", "dyad_fetch"]).unwrap();
        // 10 fetches; the first ~one period (cold), the rest ~10 µs each.
        assert_eq!(fetch.count, 10);
        let total = fetch.inclusive.as_secs_f64();
        assert!(total < 0.12, "sync cost {total}s — warm path not engaging");
        assert!(total > 0.09, "even the cold sync vanished: {total}s");
    }

    /// Staged rig with a fault board: prod=0, cons=1, KVS broker=2,
    /// PFS MDS=3 + one OST=4 (broker and PFS survive a node-0 crash).
    struct FaultRig {
        board: faults::FaultBoard,
        prod: Rc<DyadService>,
        cons: Rc<DyadService>,
        pmgr: Rc<staging::StagingManager>,
        cmgr: Rc<staging::StagingManager>,
        tp: Transport,
    }

    fn fault_setup(sim: &Sim, producer_budget: u64) -> FaultRig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(5));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let board = faults::FaultBoard::new(&ctx, 5, 1);
        tp.set_faults(board.clone());
        let _kvs_server = KvsServer::start(&ctx, &tp, NodeId(2), KvsSpec::default());
        let pfs = pfs::ParallelFs::start(
            &ctx,
            &tp,
            NodeId(3),
            vec![NodeId(4)],
            pfs::PfsSpec::default(),
        );
        let mk = |i: u32, budget: u64| {
            let fs = LocalFs::new(
                &ctx,
                cl.node(NodeId(i)).nvme.clone(),
                LocalFsSpec::default(),
            );
            let kc = KvsClient::new(&ctx, &tp, NodeId(i), NodeId(2), KvsSpec::default());
            let sspec = staging::StagingSpec {
                budget_bytes: budget,
                // With a two-frame budget, drain only down to one frame:
                // the oldest spills, the newest stays NVMe-resident.
                low_watermark: 0.55,
                high_watermark: 0.8,
                ..staging::StagingSpec::default()
            };
            let mgr = staging::StagingManager::new(
                &ctx,
                NodeId(i),
                fs.clone(),
                kc.clone(),
                Some(pfs.client(&ctx, NodeId(i))),
                sspec,
            );
            mgr.spawn_evictor();
            let svc = DyadService::start_staged(
                &ctx,
                &tp,
                NodeId(i),
                fs,
                kc,
                DyadSpec::default(),
                Some(mgr.clone()),
            );
            (svc, mgr)
        };
        let (prod, pmgr) = mk(0, producer_budget);
        let (cons, cmgr) = mk(1, u64::MAX);
        // Wire the staging crash/restart lifecycle the way the runner
        // does.
        {
            let mgr = pmgr.clone();
            board.on_crash(move |n| {
                if n == 0 {
                    mgr.on_node_crash();
                }
            });
            let mgr = pmgr.clone();
            let hctx = ctx.clone();
            board.on_restart(move |n| {
                if n == 0 {
                    let mgr = mgr.clone();
                    hctx.spawn(async move { mgr.on_node_restart().await });
                }
            });
        }
        FaultRig {
            board,
            prod,
            cons,
            pmgr,
            cmgr,
            tp,
        }
    }

    #[test]
    fn try_consume_survives_producer_crash_via_pfs_and_tombstones() {
        // Producer writes two frames; the tight budget spills frame 0 to
        // the PFS. Node 0 then crashes with frame 1 still NVMe-resident.
        // The consumer must fetch frame 0 from the spill copy (dead
        // owner → PFS fallback) and get a typed FrameLost for frame 1
        // once the restart publishes its tombstone — never a hang.
        let sim = Sim::new(7);
        let frame_bytes = Model::Jac.frame_bytes();
        let rig = fault_setup(&sim, 2 * frame_bytes);
        rig.pmgr.register_consumer("/dyad/s", "c0");
        let plan = faults::FaultPlan::scheduled(vec![faults::FaultEvent {
            at: SimDuration::from_secs(1),
            kind: faults::FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_secs(2),
            },
        }]);
        rig.board.arm(&plan);
        {
            let prod = rig.prod.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for i in 0..2u64 {
                    let (_, f) = frame(i);
                    prod.produce(&rec, &format!("s/{i}"), f).await;
                    ctx.sleep(SimDuration::from_millis(200)).await;
                }
            });
        }
        let ctx2 = sim.ctx();
        let cons = rig.cons.clone();
        let h = sim.spawn(async move {
            // Start inside the outage window.
            ctx2.sleep(SimDuration::from_millis(1_200)).await;
            let rec = Recorder::new(&ctx2);
            let mut session = cons.consumer_with_id("c0");
            let t = FrameTemplate::generate(Model::Jac, 5);
            let spilled = session.try_consume(&rec, "s/0").await;
            let ok0 = matches!(&spilled, Ok(got) if t.validate(got, 0));
            let lost = session.try_consume(&rec, "s/1").await;
            (ok0, lost)
        });
        sim.run_until(SimTime::from_nanos(60_000_000_000));
        let (ok0, lost) = h.try_take().expect("chaos consume hung");
        assert!(ok0, "spilled frame did not survive the crash");
        assert_eq!(
            lost,
            Err(DyadError::FrameLost {
                path: "/dyad/s/1".to_string()
            })
        );
        assert!(rig.pmgr.stats().spilled_frames >= 1, "no spill happened");
        assert!(rig.pmgr.stats().frames_lost >= 1, "crash lost no frame");
        assert!(
            rig.pmgr.stats().republished_frames >= 1,
            "restart republished nothing"
        );
        assert!(
            rig.cmgr.stats().pfs_fallbacks >= 1,
            "no consume took the PFS fallback"
        );
        assert!(rig.tp.stats().rpc_retries > 0, "no retry was exercised");
        assert_eq!(rig.board.stats().crashes, 1);
    }

    #[test]
    fn dropped_spill_copy_surfaces_typed_frame_lost() {
        // A frame whose only remaining copy (the PFS spill) is dropped
        // must surface FrameLost to consumers instead of parking them
        // forever on a dangling metadata entry.
        let sim = Sim::new(3);
        let frame_bytes = Model::Jac.frame_bytes();
        let rig = fault_setup(&sim, frame_bytes);
        rig.pmgr.register_consumer("/dyad/s", "c0");
        {
            let prod = rig.prod.clone();
            let pmgr = rig.pmgr.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let (_, f) = frame(0);
                prod.produce(&rec, "s/0", f).await;
                // Wait out the evictor (budget of one frame forces the
                // spill), then lose the spill copy.
                ctx.sleep(SimDuration::from_secs(2)).await;
                assert!(
                    pmgr.stats().spilled_frames >= 1,
                    "budget never forced a spill"
                );
                pmgr.mark_spill_lost("/dyad/s/0").await;
            });
        }
        let ctx2 = sim.ctx();
        let cons = rig.cons.clone();
        let h = sim.spawn(async move {
            ctx2.sleep(SimDuration::from_secs(3)).await;
            let rec = Recorder::new(&ctx2);
            let mut session = cons.consumer_with_id("c0");
            session.try_consume(&rec, "s/0").await
        });
        sim.run_until(SimTime::from_nanos(30_000_000_000));
        let res = h.try_take().expect("consume of a lost frame hung");
        assert_eq!(
            res,
            Err(DyadError::FrameLost {
                path: "/dyad/s/0".to_string()
            })
        );
        assert_eq!(rig.pmgr.stats().frames_lost, 1);
    }
}
