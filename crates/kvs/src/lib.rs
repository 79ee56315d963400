//! # kvs — a Flux-KVS-like distributed key-value store
//!
//! DYAD publishes frame metadata through the Flux key-value store and
//! consumers block on key availability (`flux_kvs_wait`-style). This crate
//! reimplements the parts DYAD needs:
//!
//! * **brokers** ([`KvsServer`]) hosted on cluster nodes, each with a
//!   versioned store (every commit bumps the shard's sequence number), a
//!   bounded pool of service threads, and **server-side watches** (a
//!   `WaitKey` RPC parks inside the broker until the key is committed).
//!   A single broker is shard 0 of a one-shard [`KvsMesh`]; [`mesh`]
//!   runs the same server as N sharded, replicated shards;
//! * one **client** ([`KvsClient`]) per node, issuing RPCs over the
//!   UCX-like [`transport`] layer. It routes each key to the first live
//!   shard of the key's preference list, fails over down that list on
//!   the fallible `try_*` paths, and offers a client-side polling
//!   fallback (used by the synchronization ablation).
//!
//! All costs are explicit: each operation pays the fabric round trip plus
//! broker service time on a FIFO server pool.

#![warn(missing_docs)]

mod codec;
pub mod mesh;

pub use codec::{Request, Response};
pub use mesh::{preference_list, shard_for, CausalBuffer, Delta, KvsMesh, MeshTopology};

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use cluster::NodeId;
use faults::{FaultBoard, RetryPolicy};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use simcore::intern::{intern, FxHashMap, Symbol};
use simcore::resource::FifoResource;
use simcore::sync::Notify;
use simcore::{Ctx, SimDuration};
use transport::{AmId, Endpoint, LocalBoxFuture, Transport, TransportError};

/// The AM id the broker listens on.
pub const KVS_AM: AmId = AmId(0x4B56);

/// Broker tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct KvsSpec {
    /// Service time per operation on the broker.
    pub service_time: SimDuration,
    /// Parallel service threads in the broker.
    pub server_threads: u64,
    /// Client polling interval for [`KvsClient::try_wait_key_poll_counted`].
    pub poll_interval: SimDuration,
}

impl Default for KvsSpec {
    /// Flux-broker-like costs: ~20 µs per op, 4 service threads, 1 ms
    /// polling interval.
    fn default() -> Self {
        KvsSpec {
            service_time: SimDuration::from_micros(20),
            server_threads: 4,
            poll_interval: SimDuration::from_millis(1),
        }
    }
}

/// A value with the global version at which it was committed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionedValue {
    /// Global KVS version of the commit.
    pub version: u64,
    /// Stored bytes.
    pub value: Bytes,
}

/// Counters exposed by the broker for tests and the Thicket analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvsStats {
    /// Commits applied.
    pub commits: u64,
    /// Lookup requests served (including misses).
    pub lookups: u64,
    /// WaitKey requests served.
    pub waits: u64,
    /// WaitKey requests that had to park (key absent on arrival).
    pub waits_parked: u64,
    /// Unlink requests served.
    pub unlinks: u64,
    /// Replication deltas shipped to peer shards (replicated meshes).
    pub deltas_sent: u64,
    /// Replication deltas applied to this shard's store.
    pub deltas_applied: u64,
    /// Deltas that arrived out of causal order and had to buffer until
    /// their parents applied.
    pub deltas_buffered: u64,
    /// Peak number of requests simultaneously queued or in service on
    /// this broker (the metadata-plane congestion signal).
    pub peak_queue: u64,
}

pub(crate) struct Store {
    // Keys are interned once per request; per-frame publishes and waits
    // then hash a 4-byte symbol instead of re-hashing the full path.
    pub(crate) map: FxHashMap<Symbol, VersionedValue>,
    pub(crate) version: u64,
    pub(crate) watches: FxHashMap<Symbol, Notify>,
    pub(crate) stats: KvsStats,
    /// Set once by a `KvsShardCrash` fault: the shard answers every
    /// request (including parked waits, which are flushed) with
    /// [`Response::ShardDown`] from then on.
    pub(crate) down: bool,
    /// Requests queued or in service right now (feeds `peak_queue`).
    in_flight: u64,
    /// Per-key version vectors + out-of-order delta buffer (idle unless
    /// the mesh replicates, R > 1).
    pub(crate) repl: mesh::CausalBuffer<Symbol>,
}

/// The broker: owns the store and services RPCs on its node.
pub struct KvsServer {
    node: NodeId,
    shard: u32,
    store: Rc<RefCell<Store>>,
}

impl KvsServer {
    /// Start a single broker on `node`, registering its AM handler.
    ///
    /// The single broker is shard 0 of a one-shard mesh: it listens on
    /// [`KVS_AM`], never replicates, and dies to a
    /// `KvsShardCrash { shard: 0 }` fault.
    pub fn start(ctx: &Ctx, tp: &Transport, node: NodeId, spec: KvsSpec) -> Rc<KvsServer> {
        let topo = Rc::new(MeshTopology::new(vec![node], 1));
        KvsServer::start_shard(ctx, tp, spec, 0, topo)
    }

    /// Start shard `shard` of the mesh `topo` on its node. The shard
    /// listens on `KVS_AM + shard` and, when the mesh replicates,
    /// synchronously replicates every commit/unlink to the key's live
    /// replica set.
    pub(crate) fn start_shard(
        ctx: &Ctx,
        tp: &Transport,
        spec: KvsSpec,
        shard: u32,
        topo: Rc<MeshTopology>,
    ) -> Rc<KvsServer> {
        let node = topo.node(shard);
        let store = Rc::new(RefCell::new(Store {
            map: FxHashMap::default(),
            version: 0,
            watches: FxHashMap::default(),
            stats: KvsStats::default(),
            down: false,
            in_flight: 0,
            repl: mesh::CausalBuffer::new(),
        }));
        let service = FifoResource::new(ctx, spec.server_threads);
        let server = Rc::new(KvsServer {
            node,
            shard,
            store: store.clone(),
        });
        // A permanent shard crash: mark the store down and flush every
        // parked watch so in-flight waits observe `ShardDown` instead of
        // parking forever on a dead broker.
        if let Some(board) = tp.faults() {
            let hook_store = store.clone();
            board.on_kvs_shard_crash(move |crashed| {
                if crashed == shard {
                    let watches = {
                        let mut st = hook_store.borrow_mut();
                        st.down = true;
                        std::mem::take(&mut st.watches)
                    };
                    for notify in watches.values() {
                        notify.notify_all();
                    }
                }
            });
        }
        let handler_store = store;
        // Weak: a strong clone would cycle through the handler table and
        // leak the store (see `Transport::downgrade`).
        let handler_tp = tp.downgrade();
        let handler_ctx = ctx.clone();
        tp.register_am(
            node,
            mesh::shard_am(shard),
            Rc::new(move |raw: Bytes| {
                let store = handler_store.clone();
                let service = service.clone();
                let tp = handler_tp.upgrade();
                let ctx = handler_ctx.clone();
                let topo = topo.clone();
                Box::pin(async move {
                    {
                        let mut st = store.borrow_mut();
                        st.in_flight += 1;
                        st.stats.peak_queue = st.stats.peak_queue.max(st.in_flight);
                    }
                    // Queue for a broker thread.
                    service.request(spec.service_time).await;
                    // Injected broker slowness (fault window): every op
                    // pays the extra delay while the window is open. With
                    // no board or no window this adds nothing.
                    if let Some(board) = tp.faults() {
                        if let Some(d) = board.kvs_delay_for(shard) {
                            ctx.sleep(d).await;
                        }
                    }
                    let req = Request::decode(raw);
                    let resp = if store.borrow().down {
                        Response::ShardDown
                    } else {
                        mesh::serve(&store, shard, &topo, &tp, req).await
                    };
                    store.borrow_mut().in_flight -= 1;
                    resp.encode()
                }) as LocalBoxFuture<Bytes>
            }),
        );
        server
    }

    /// The node the broker runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The shard id this broker serves (0 for a single broker).
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// True once a `KvsShardCrash` fault has killed this shard.
    pub fn is_down(&self) -> bool {
        self.store.borrow().down
    }

    /// Operation counters.
    pub fn stats(&self) -> KvsStats {
        self.store.borrow().stats
    }

    /// Current global version.
    pub fn version(&self) -> u64 {
        self.store.borrow().version
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.store.borrow().map.len()
    }

    /// True if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The KVS client bound to one node.
///
/// Every operation goes to the first *live* shard of the key's
/// preference list (the owner while it is up). The plain calls send one
/// RPC there; the fallible `try_*` calls retry through outages per the
/// retry policy and, when a shard is dead or exhausts its budget, fail
/// over down the preference list. A single broker is the one-shard case
/// of the same routing.
#[derive(Clone)]
pub struct KvsClient {
    ctx: Ctx,
    topo: Rc<MeshTopology>,
    shards: Rc<[ShardStub]>,
    board: Option<FaultBoard>,
    poll_interval: SimDuration,
}

impl KvsClient {
    /// Create a client on `node` talking to the single broker on
    /// `broker` (see [`KvsServer::start`]).
    pub fn new(ctx: &Ctx, tp: &Transport, node: NodeId, broker: NodeId, spec: KvsSpec) -> Self {
        let topo = Rc::new(MeshTopology::new(vec![broker], 1));
        KvsClient::on_mesh(ctx, tp, node, topo, spec)
    }

    /// Create a client on `node` for the mesh described by `topo`.
    pub(crate) fn on_mesh(
        ctx: &Ctx,
        tp: &Transport,
        node: NodeId,
        topo: Rc<MeshTopology>,
        spec: KvsSpec,
    ) -> Self {
        let shards = (0..topo.shards())
            .map(|s| ShardStub::new(ctx, tp, node, topo.node(s), mesh::shard_am(s)))
            .collect();
        KvsClient {
            ctx: ctx.clone(),
            topo,
            shards,
            board: tp.faults(),
            poll_interval: spec.poll_interval,
        }
    }

    /// The mesh topology this client routes over.
    pub fn topology(&self) -> &MeshTopology {
        &self.topo
    }

    /// The owner shard of `key` (where per-shard poll counts are
    /// attributed).
    pub fn shard_of(&self, key: &str) -> u32 {
        self.topo.owner(key)
    }

    fn live(&self, shard: u32) -> bool {
        match &self.board {
            Some(b) => b.kvs_shard_up(shard),
            None => true,
        }
    }

    /// The shard an operation on `key` is routed to: the first live
    /// member of the preference list (the owner when healthy), or the
    /// owner if the whole list is dead (the op then fails typed). At
    /// R = 1 the list is the owner alone.
    fn route(&self, key: &str) -> u32 {
        if self.topo.replication() == 1 {
            return self.topo.owner(key);
        }
        let pref = self.topo.preference(key);
        pref.iter()
            .copied()
            .find(|&s| self.live(s))
            .unwrap_or(pref[0])
    }

    /// A plain request: one RPC to the routed shard, whose response is
    /// returned as is (including `ShardDown`).
    async fn call(&self, key: &str, req: Request) -> Response {
        self.shards[self.route(key) as usize].send(req).await
    }

    /// A fallible request. Without a fault board nothing can fail, so
    /// it is the plain request; with one, the failover runs boxed, which
    /// keeps its state out of every fault-free caller's future (the
    /// data ladder awaits only `try_*` calls).
    async fn try_call(&self, key: &str, req: Request) -> Result<Response, TransportError> {
        if self.board.is_none() {
            return Ok(self.call(key, req).await);
        }
        Box::pin(self.failover(key, req)).await
    }

    /// Preference-list failover: each live replica is tried with its
    /// full retry budget; errors only when every replica is exhausted or
    /// down.
    async fn failover(&self, key: &str, req: Request) -> Result<Response, TransportError> {
        let mut last = Err(TransportError::Unreachable {
            node: self.topo.node(self.topo.owner(key)),
        });
        for s in self.topo.preference(key) {
            if !self.live(s) {
                continue;
            }
            match self.shards[s as usize].try_send(req.clone()).await {
                Ok(resp) => return Ok(resp),
                Err(e) => last = Err(e),
            }
        }
        last
    }

    /// Commit `value` under `key`; returns the shard's new version.
    pub async fn commit(&self, key: &str, value: Bytes) -> u64 {
        committed(self.call(key, commit_req(key, value)).await)
    }

    /// Read `key` (always a round trip).
    pub async fn lookup(&self, key: &str) -> Option<VersionedValue> {
        found(self.call(key, Request::Lookup { key: intern(key) }).await)
    }

    /// Block until `key` exists, using a **server-side watch**: one RPC
    /// that parks in the broker. This is DYAD's cold-path synchronization.
    pub async fn wait_key(&self, key: &str) -> VersionedValue {
        woken(self.call(key, Request::WaitKey { key: intern(key) }).await)
    }

    /// Remove `key`.
    pub async fn unlink(&self, key: &str) {
        self.call(key, Request::Unlink { key: intern(key) }).await;
    }

    /// Fallible [`KvsClient::commit`]. Commits are idempotent
    /// (last-writer-wins on the same key), so a retry after a lost reply
    /// is safe.
    pub async fn try_commit(&self, key: &str, value: Bytes) -> Result<u64, TransportError> {
        self.try_call(key, commit_req(key, value))
            .await
            .map(committed)
    }

    /// Fallible [`KvsClient::lookup`].
    pub async fn try_lookup(&self, key: &str) -> Result<Option<VersionedValue>, TransportError> {
        self.try_call(key, Request::Lookup { key: intern(key) })
            .await
            .map(found)
    }

    /// Fallible [`KvsClient::wait_key`]. Uses the wait policy (no
    /// per-attempt timeout): the RPC parks server-side until the key is
    /// committed, so only unreachability triggers a retry. A wait parked
    /// on a shard that then crashes is flushed with `ShardDown` and
    /// re-parked on the next live replica (which the synchronous
    /// replication protocol guarantees will see the commit).
    pub async fn try_wait_key(&self, key: &str) -> Result<VersionedValue, TransportError> {
        self.try_call(key, Request::WaitKey { key: intern(key) })
            .await
            .map(woken)
    }

    /// Block until `key` exists by **client-side polling** every
    /// [`KvsSpec::poll_interval`] (the synchronization ablation). Each
    /// probe is a [`KvsClient::try_lookup`], routed per poll; an error
    /// means every replica of the key failed. The poll count is
    /// reported on *both* exits, so callers can account for the RPCs a
    /// failed wait already issued.
    pub async fn try_wait_key_poll_counted(
        &self,
        key: &str,
    ) -> (Result<VersionedValue, TransportError>, u64) {
        let mut polls = 0;
        loop {
            polls += 1;
            match self.try_lookup(key).await {
                Ok(Some(v)) => return (Ok(v), polls),
                Ok(None) => {}
                Err(e) => return (Err(e), polls),
            }
            self.ctx.sleep(self.poll_interval).await;
        }
    }

    /// Fallible [`KvsClient::unlink`].
    pub async fn try_unlink(&self, key: &str) -> Result<(), TransportError> {
        self.try_call(key, Request::Unlink { key: intern(key) })
            .await
            .map(drop)
    }
}

/// The former name of [`KvsClient`], kept because the benchmark harness
/// in `perfbench/` still names it.
pub type KvsHandle = KvsClient;

fn commit_req(key: &str, value: Bytes) -> Request {
    Request::Commit {
        key: intern(key),
        value,
    }
}

fn committed(resp: Response) -> u64 {
    match resp {
        Response::Committed { version } => version,
        other => panic!("unexpected commit response {other:?}"),
    }
}

fn found(resp: Response) -> Option<VersionedValue> {
    match resp {
        Response::Value { version, value } => Some(VersionedValue { version, value }),
        Response::NotFound => None,
        other => panic!("unexpected lookup response {other:?}"),
    }
}

fn woken(resp: Response) -> VersionedValue {
    match resp {
        Response::Value { version, value } => VersionedValue { version, value },
        other => panic!("unexpected wait response {other:?}"),
    }
}

/// One node's line to one shard: sends a single request to the shard's
/// broker and returns the decoded response. Owns the fallible path's RNG
/// stream and retry policies.
struct ShardStub {
    ep: Endpoint,
    broker: NodeId,
    am: AmId,
    retry: RetryPolicy,
    /// Retry policy for server-side waits: same backoff, but no
    /// per-attempt timeout (the RPC legitimately parks in the broker
    /// until the key is committed).
    wait_retry: RetryPolicy,
    rng: RefCell<StdRng>,
}

impl ShardStub {
    /// Every stub of a node seeds the same RNG stream; jitter draws are
    /// per stub.
    fn new(ctx: &Ctx, tp: &Transport, node: NodeId, broker: NodeId, am: AmId) -> ShardStub {
        let retry = RetryPolicy::transport_default();
        ShardStub {
            ep: tp.endpoint(node),
            broker,
            am,
            retry,
            wait_retry: RetryPolicy {
                attempt_timeout: SimDuration::from_secs(86_400),
                ..retry
            },
            rng: RefCell::new(ctx.rng(0x4B56_0000u64 | u64::from(node.0))),
        }
    }

    /// One plain RPC: no retry and no draw from the RNG stream.
    async fn send(&self, req: Request) -> Response {
        Response::decode(self.ep.rpc(self.broker, self.am, req.encode()).await)
    }

    /// One request through the retry policy; a dead shard's `ShardDown`
    /// becomes `Unreachable`.
    async fn try_send(&self, req: Request) -> Result<Response, TransportError> {
        let policy = match req {
            Request::WaitKey { .. } => &self.wait_retry,
            _ => &self.retry,
        };
        // A per-call RNG forked from the stream, so no `RefCell` borrow
        // is held across the await (clients are shared between tasks).
        let mut rng = StdRng::seed_from_u64(self.rng.borrow_mut().random());
        let raw = self
            .ep
            .rpc_retrying(self.broker, self.am, req.encode(), policy, &mut rng)
            .await?;
        match Response::decode(raw) {
            Response::ShardDown => Err(TransportError::Unreachable { node: self.broker }),
            resp => Ok(resp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use simcore::Sim;
    use transport::TransportSpec;

    struct Rig {
        tp: Transport,
        server: Rc<KvsServer>,
    }

    fn setup(sim: &Sim, nodes: usize) -> Rig {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(nodes));
        let tp = Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default());
        let server = KvsServer::start(&ctx, &tp, NodeId(0), KvsSpec::default());
        Rig { tp, server }
    }

    fn client(sim: &Sim, rig: &Rig, node: u32) -> KvsClient {
        KvsClient::new(
            &sim.ctx(),
            &rig.tp,
            NodeId(node),
            NodeId(0),
            KvsSpec::default(),
        )
    }

    #[test]
    fn commit_then_lookup() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            let v1 = c.commit("a", Bytes::from_static(b"1")).await;
            let v2 = c.commit("b", Bytes::from_static(b"2")).await;
            let got = c.lookup("a").await.unwrap();
            (v1, v2, got)
        });
        sim.run();
        let (v1, v2, got) = h.try_take().unwrap();
        assert_eq!(v1, 1);
        assert_eq!(v2, 2);
        assert_eq!(got.version, 1);
        assert_eq!(got.value, Bytes::from_static(b"1"));
        assert_eq!(rig.server.stats().commits, 2);
        assert_eq!(rig.server.stats().lookups, 1);
    }

    #[test]
    fn lookup_miss_returns_none() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move { c.lookup("missing").await });
        sim.run();
        assert_eq!(h.try_take().unwrap(), None);
    }

    #[test]
    fn wait_key_parks_until_commit() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let consumer = client(&sim, &rig, 2);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let v = consumer.wait_key("frame0").await;
            (ctx.now().as_secs_f64(), v.value)
        });
        let producer = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(50)).await;
            producer.commit("frame0", Bytes::from_static(b"meta")).await;
        });
        sim.run();
        let (t, v) = h.try_take().unwrap();
        assert!(t >= 0.050, "woke at {t}");
        assert!(t < 0.051, "woke at {t}");
        assert_eq!(v, Bytes::from_static(b"meta"));
        assert_eq!(rig.server.stats().waits_parked, 1);
    }

    #[test]
    fn wait_key_returns_immediately_when_present() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            c.commit("k", Bytes::from_static(b"v")).await;
            let before = ctx.now();
            c.wait_key("k").await;
            (ctx.now() - before).micros()
        });
        sim.run();
        // One RPC round trip + service, no parking: well under 100 µs.
        let us = h.try_take().unwrap();
        assert!(us < 100, "took {us} µs");
        assert_eq!(rig.server.stats().waits_parked, 0);
    }

    #[test]
    fn polling_wait_counts_polls() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let consumer = client(&sim, &rig, 2);
        let h = sim.spawn(async move { consumer.try_wait_key_poll_counted("x").await });
        let producer = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(10)).await;
            producer.commit("x", Bytes::from_static(b"y")).await;
        });
        sim.run();
        let (v, polls) = h.try_take().unwrap();
        assert_eq!(v.unwrap().value, Bytes::from_static(b"y"));
        // ~10 ms at 1 ms poll interval: about 10 polls.
        assert!((8..=13).contains(&polls), "{polls} polls");
    }

    #[test]
    fn unlink_removes_key() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 2);
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            c.commit("k", Bytes::from_static(b"v")).await;
            c.unlink("k").await;
            c.lookup("k").await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), None);
        assert!(rig.server.is_empty());
    }

    #[test]
    fn versions_are_globally_monotone() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 3);
        let mut handles = Vec::new();
        for n in 1..3u32 {
            let c = client(&sim, &rig, n);
            handles.push(sim.spawn(async move {
                let mut versions = Vec::new();
                for i in 0..5 {
                    versions.push(c.commit(&format!("n{n}/k{i}"), Bytes::new()).await);
                }
                versions
            }));
        }
        sim.run();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.try_take().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (1..=10).collect::<Vec<u64>>());
        assert_eq!(rig.server.version(), 10);
    }

    #[test]
    fn multiple_waiters_released_by_one_commit() {
        let sim = Sim::new(0);
        let rig = setup(&sim, 4);
        let mut handles = Vec::new();
        for n in 1..4u32 {
            let c = client(&sim, &rig, n);
            handles.push(sim.spawn(async move { c.wait_key("shared").await.version }));
        }
        let p = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        sim.spawn(async move {
            ctx.sleep(SimDuration::from_millis(1)).await;
            p.commit("shared", Bytes::new()).await;
        });
        let report = sim.run();
        assert!(report.is_clean());
        for h in handles {
            assert_eq!(h.try_take().unwrap(), 1);
        }
    }

    #[test]
    fn kvs_delay_window_slows_lookups() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rig = setup(&sim, 2);
        let board = FaultBoard::new(&ctx, 2, 0);
        rig.tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::KvsDelay {
                delay: SimDuration::from_millis(5),
                duration: SimDuration::from_millis(50),
                broker: None,
            },
        }]));
        let c = client(&sim, &rig, 1);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let before = ctx.now();
            c.try_lookup("x").await.unwrap();
            let slow = ctx.now().since(before);
            ctx.sleep(SimDuration::from_millis(100)).await; // window over
            let before = ctx.now();
            c.try_lookup("x").await.unwrap();
            (slow, ctx.now().since(before))
        });
        assert!(sim.run().is_clean());
        let (slow, fast) = h.try_take().unwrap();
        assert!(slow >= SimDuration::from_millis(5), "slow={slow:?}");
        assert!(fast < SimDuration::from_millis(1), "fast={fast:?}");
    }

    #[test]
    fn commit_retries_through_broker_outage() {
        use faults::{FaultBoard, FaultEvent, FaultKind, FaultPlan};
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rig = setup(&sim, 2);
        let board = FaultBoard::new(&ctx, 2, 0);
        rig.tp.set_faults(board.clone());
        // Broker node down for 2 ms from t=0.
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 0,
                down_for: SimDuration::from_millis(2),
            },
        }]));
        let c = client(&sim, &rig, 1);
        let h = sim.spawn(async move {
            let v = c.try_commit("k", Bytes::from_static(b"v")).await?;
            let got = c.try_lookup("k").await?;
            Ok::<_, transport::TransportError>((v, got))
        });
        assert!(sim.run().is_clean());
        let (v, got) = h.try_take().unwrap().unwrap();
        assert_eq!(v, 1);
        assert_eq!(got.unwrap().value, Bytes::from_static(b"v"));
        assert!(rig.tp.stats().rpc_retries >= 1);
    }
}
