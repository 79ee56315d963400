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
//! Both paths live in [`ladder`], which the streaming backend shares:
//! DYAD is the ladder configured with the `dyad_*` region names, so
//! Thicket queries can split data-movement time from synchronization
//! (idle) time the same way the authors did. There is one path per
//! direction; a fault board attached to the transport decides only
//! whether a failed step backs off before retrying.

#![warn(missing_docs)]

use std::future::Future;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use instrument::Recorder;
use kvs::KvsClient;
use localfs::LocalFs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simcore::SimDuration;
use staging::StagingManager;
use transport::{AmId, Payload, Transport};

pub mod ladder;

use ladder::{Ladder, LadderSpec, Regions, Session};
pub use staging::{FrameLocation, FrameMeta};

/// Operation counters for one node's DYAD service.
pub type DyadStats = ladder::Stats;

/// The AM id of the per-node DYAD data service.
pub const DYAD_AM: AmId = AmId(0x4459);

/// DYAD's region names (the paper's Caliper annotations).
pub static REGIONS: Regions = Regions {
    produce: "dyad_produce",
    write: "dyad_prod_write",
    commit: "dyad_commit",
    consume: "dyad_consume",
    probe: "dyad_sync_flock",
    sync: "dyad_fetch",
    get_data: "dyad_get_data",
    cons_store: "dyad_cons_store",
    pfs_fallback: "dyad_pfs_fallback",
};

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

/// The per-node DYAD service: owns the node's managed directory, serves
/// remote fetch requests, and provides the produce/consume API.
pub struct DyadService {
    ladder: Ladder,
}

impl DyadService {
    /// Start DYAD on `node` with unbounded staging (the paper's
    /// configuration: frames stay on NVMe forever).
    pub fn start(
        ctx: &simcore::Ctx,
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
        ctx: &simcore::Ctx,
        tp: &Transport,
        node: NodeId,
        fs: LocalFs,
        kvs: KvsClient,
        spec: DyadSpec,
        staging: Option<Rc<StagingManager>>,
    ) -> Rc<DyadService> {
        let spec = LadderSpec {
            regions: &REGIONS,
            am: DYAD_AM,
            managed_dir: spec.managed_dir,
            commit_overhead: spec.produce_overhead,
            service_threads: spec.service_threads,
            service_time: spec.service_time,
            warm_sync: spec.warm_sync,
            cold_sync_poll: spec.cold_sync_poll,
            bare_acks: false,
        };
        let ladder = Ladder::start(ctx, tp, node, fs, kvs, staging, spec);
        Rc::new(DyadService { ladder })
    }

    /// The node this service runs on.
    pub fn node(&self) -> NodeId {
        self.ladder.node()
    }

    /// Operation counters.
    pub fn stats(&self) -> DyadStats {
        self.ladder.stats()
    }

    /// The managed path for a logical frame name.
    pub fn managed_path(&self, name: &str) -> String {
        self.ladder.managed_path(name)
    }

    /// Produce a frame: write to node-local storage, then publish
    /// metadata to the KVS. `rng` feeds the write-retry backoff under a
    /// fault board.
    ///
    /// Call tree: `dyad_produce` → { `staging_backpressure`,
    /// `dyad_prod_write`, `dyad_commit` }.
    pub fn try_produce<'a>(
        &'a self,
        rec: &'a Recorder,
        name: &str,
        frame: &'a [Bytes],
        rng: &'a mut StdRng,
    ) -> impl Future<Output = Result<(), ladder::Error>> + 'a {
        let path = self.managed_path(name);
        self.ladder.produce(rec, path, frame, rng, async |_| Ok(()))
    }

    /// [`DyadService::try_produce`] for callers that treat a failure as
    /// a bug.
    pub async fn produce(&self, rec: &Recorder, name: &str, frame: Payload) {
        self.try_produce(rec, name, &frame, &mut StdRng::seed_from_u64(0))
            .await
            .expect("dyad produce");
    }

    /// Open a consumer session (tracks warm/cold synchronization state,
    /// one per consumer process). The session id defaults to the node
    /// name; sessions whose acks feed staging retention should use
    /// [`DyadService::consumer_with_id`] with the id the workflow
    /// registered on the producer's staging manager.
    pub fn consumer(self: &Rc<Self>) -> DyadConsumer {
        self.consumer_with_id(&format!("n{}", self.node().0))
    }

    /// Open a consumer session with an explicit consumption-ack id.
    pub fn consumer_with_id(self: &Rc<Self>, id: &str) -> DyadConsumer {
        DyadConsumer {
            session: self.ladder.session(id),
            svc: self.clone(),
        }
    }
}

/// Consumer-side session state for multi-protocol synchronization.
pub struct DyadConsumer {
    svc: Rc<DyadService>,
    session: Session,
}

impl DyadConsumer {
    /// Consume a frame by logical name, returning its payload. Fails
    /// typed: [`ladder::Error::Lost`] for a tombstoned frame, or a
    /// transport / resolve failure that outlasted the retry budget.
    ///
    /// Call tree: `dyad_consume` → { `dyad_sync_flock` or `dyad_fetch`,
    /// `dyad_get_data`, `dyad_cons_store`, `read_single_buf` }, matching
    /// Figure 9.
    pub fn try_consume<'a>(
        &'a mut self,
        rec: &'a Recorder,
        name: &str,
    ) -> impl Future<Output = Result<Payload, ladder::Error>> + 'a {
        let path = self.svc.managed_path(name);
        self.svc.ladder.consume(rec, &mut self.session, path)
    }

    /// [`DyadConsumer::try_consume`] for callers that treat a failure as
    /// a bug.
    pub async fn consume(&mut self, rec: &Recorder, name: &str) -> Payload {
        self.try_consume(rec, name).await.expect("dyad consume")
    }

    /// Whether this session has completed its cold first sync.
    pub fn is_warm(&self) -> bool {
        self.session.is_warm()
    }
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
            Err(ladder::Error::Lost {
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
            Err(ladder::Error::Lost {
                path: "/dyad/s/0".to_string()
            })
        );
        assert_eq!(rig.pmgr.stats().frames_lost, 1);
    }

    #[test]
    fn fault_free_refetch_after_mid_consume_spill_takes_no_backoff() {
        // No fault board. The consumer reads the frame's NVMe metadata;
        // then, while its fetch waits in the owner's (deliberately slow)
        // data service, the owner's evictor spills the frame to the PFS
        // and unlinks it. The fetch comes back empty and the consumer
        // re-resolves to the spill copy. The completion time and the
        // counters are pinned: a retry pause leaking into the no-board
        // path would move them.
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
        let spec = DyadSpec {
            service_threads: 1,
            service_time: SimDuration::from_millis(200),
            ..DyadSpec::default()
        };
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
            let svc = DyadService::start_staged(
                &ctx,
                &tp,
                NodeId(i),
                fs,
                kc,
                spec.clone(),
                Some(mgr.clone()),
            );
            (svc, mgr)
        };
        let (prod, pmgr) = mk(0, 2 * frame_bytes);
        let (cons, cmgr) = mk(1, u64::MAX);
        {
            let prod = prod.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                let (_, f) = frame(0);
                prod.produce(&rec, "m/0", f).await;
            });
        }
        {
            // One evictor pass at 150 ms: one staged frame is above the
            // low watermark, so it spills.
            let pmgr = pmgr.clone();
            let ctx = sim.ctx();
            sim.spawn(async move {
                ctx.sleep(SimDuration::from_millis(150)).await;
                pmgr.evict_pass().await;
            });
        }
        let ctx2 = sim.ctx();
        let session_svc = cons.clone();
        let h = sim.spawn(async move {
            ctx2.sleep(SimDuration::from_millis(100)).await;
            let rec = Recorder::new(&ctx2);
            let mut session = session_svc.consumer_with_id("c0");
            let got = session.consume(&rec, "m/0").await;
            let t = FrameTemplate::generate(Model::Jac, 5);
            (t.validate(&got, 0), ctx2.now().nanos(), rec.finish())
        });
        sim.run_until(SimTime::from_nanos(10_000_000_000));
        let (ok, done_ns, profile) = h.try_take().expect("consume hung");
        assert!(ok, "frame corrupted");
        let count = |region: &str| profile.node(&["dyad_consume", region]).map(|n| n.count);
        assert_eq!(count("dyad_get_data"), Some(1), "no fetch went out");
        assert_eq!(
            count("dyad_pfs_fallback"),
            Some(1),
            "no re-resolve to the PFS"
        );
        assert_eq!(count("dyad_cons_store"), None);
        // Values measured on the two-copy implementation this ladder
        // replaced, whose fault-free path never paused.
        assert_eq!(done_ns, 301_026_962, "consume completion moved");
        let frame = Model::Jac.frame_bytes();
        assert_eq!(
            prod.stats(),
            DyadStats {
                produces: 1,
                fetches_served: 1,
                bytes_produced: frame,
                ..DyadStats::default()
            }
        );
        assert_eq!(
            cons.stats(),
            DyadStats {
                consumes: 1,
                cold_syncs: 1,
                bytes_consumed: frame,
                ..DyadStats::default()
            }
        );
        assert_eq!(
            format!("{:?}", pmgr.stats()),
            "StagingStats { frames_tracked: 1, staged_bytes: 0, peak_staged_bytes: 659672, \
             retired_frames: 0, retired_bytes: 0, spilled_frames: 1, spilled_bytes: 659672, \
             cache_evictions: 0, backpressure_stalls: 0, backpressure_wait: 0ns, \
             pfs_fallbacks: 0, acks_published: 0, frames_lost: 0, lost_bytes: 0, \
             republished_frames: 0 }"
        );
        assert_eq!(
            format!("{:?}", cmgr.stats()),
            "StagingStats { frames_tracked: 0, staged_bytes: 0, peak_staged_bytes: 0, \
             retired_frames: 0, retired_bytes: 0, spilled_frames: 0, spilled_bytes: 0, \
             cache_evictions: 0, backpressure_stalls: 0, backpressure_wait: 0ns, \
             pfs_fallbacks: 1, acks_published: 1, frames_lost: 0, lost_bytes: 0, \
             republished_frames: 0 }"
        );
    }
}
