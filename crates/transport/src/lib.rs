//! # transport — UCX-like communication layer
//!
//! DYAD's data plane uses UCX; the repro hint notes that Rust UCX bindings
//! are thin and the paper's testbed is unavailable, so this crate models
//! the two request kinds the simulator's services issue over the
//! simulated [`cluster::Fabric`]:
//!
//! * **Control RPCs** ([`Endpoint::rpc`]) — active messages: a handler
//!   registered per `(node, am_id)` turns a small request into a small
//!   response (the KVS shards, the Lustre-like MDS and lock server).
//! * **Bulk RPCs** ([`Endpoint::bulk_rpc`]) — a small header plus an
//!   out-of-band payload rope in each direction. The wire charges the
//!   descriptor plus the payload length, as a Lustre `brw` or a UCX
//!   rendezvous transfer does (DYAD's RDMA fetch, OST reads and writes).
//!
//! Both kinds run one request/response attempt. Its fallible form checks
//! an attached [`FaultBoard`] for reachability at three points, and
//! [`Endpoint::rpc_retrying`] / [`Endpoint::bulk_rpc_retrying`] share one
//! retry loop around it. The plain calls never consult the board.
//!
//! Payloads are real `bytes::Bytes`, so data integrity can be asserted
//! end-to-end in tests and analytics runs on the actual frame contents.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;

use bytes::Bytes;
use cluster::{Fabric, NodeId};
use faults::{FaultBoard, RetryPolicy};
use rand::rngs::StdRng;
use simcore::intern::FxHashMap;
use simcore::{timeout, Ctx};

/// Errors surfaced by the retrying RPCs when a fault board is attached.
/// Without a board they cannot fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination node is down, or the link to it is flapped.
    Unreachable {
        /// The node that could not be reached.
        node: NodeId,
    },
    /// The per-attempt timeout expired before a response arrived.
    Timeout {
        /// The node the attempt targeted.
        node: NodeId,
    },
    /// Every retry attempt failed.
    Exhausted {
        /// The node the RPC targeted.
        node: NodeId,
        /// How many attempts were made before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Unreachable { node } => write!(f, "{node} unreachable"),
            TransportError::Timeout { node } => write!(f, "rpc to {node} timed out"),
            TransportError::Exhausted { node, attempts } => {
                write!(f, "rpc to {node} failed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Identifier of a registered active-message handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AmId(pub u32);

/// A boxed local (non-`Send`) future, the return type of AM handlers.
pub type LocalBoxFuture<T> = Pin<Box<dyn Future<Output = T>>>;

/// An active-message handler: request bytes in, response bytes out.
pub type AmHandler = Rc<dyn Fn(Bytes) -> LocalBoxFuture<Bytes>>;

/// A bulk payload: an ordered rope of zero-copy `Bytes` segments.
pub type Payload = Vec<Bytes>;

/// Total byte length of a payload rope.
pub fn payload_len(p: &[Bytes]) -> u64 {
    p.iter().map(|s| s.len() as u64).sum()
}

/// Flatten a payload rope into one contiguous `Bytes` (copies unless the
/// rope has a single segment). Convenience for tests and small data.
pub fn flatten_payload(p: Payload) -> Bytes {
    if p.len() == 1 {
        return p.into_iter().next().unwrap();
    }
    let total: usize = p.iter().map(|s| s.len()).sum();
    let mut out = bytes::BytesMut::with_capacity(total);
    for s in p {
        out.extend_from_slice(&s);
    }
    out.freeze()
}

/// A bulk active-message handler: `(header, payload)` in, `(header,
/// payload)` out. Payloads are passed zero-copy (`Bytes` clones); only
/// their *length* is charged on the wire, which models Lustre-style bulk
/// RDMA where a small RPC descriptor is followed by an RDMA transfer of
/// the data pages.
pub type BulkHandler = Rc<dyn Fn(Bytes, Payload) -> LocalBoxFuture<(Bytes, Payload)>>;

/// Protocol tuning parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransportSpec {
    /// Bytes of protocol header per message on the wire.
    pub header_bytes: u64,
}

impl Default for TransportSpec {
    /// UCX default on InfiniBand-class fabrics: 64-byte headers.
    fn default() -> Self {
        TransportSpec { header_bytes: 64 }
    }
}

#[derive(Default)]
struct WorkerState {
    handlers: FxHashMap<AmId, AmHandler>,
    bulk_handlers: FxHashMap<AmId, BulkHandler>,
}

/// A request kind one attempt carries: how it is counted, how many bytes
/// past the protocol header it puts on the wire, and which handler table
/// serves it. A control request is `Bytes`; a bulk request is a
/// `(header, payload)` pair.
trait Request {
    type Response;
    /// Count the outgoing request; returns its wire bytes past the header.
    fn count(&self, st: &mut TransportStats) -> u64;
    /// Look up the handler registered as `(dst, id)` and start it.
    fn serve(
        self,
        w: &RefCell<WorkerState>,
        dst: NodeId,
        id: AmId,
    ) -> LocalBoxFuture<Self::Response>;
    /// Count the response; returns its wire bytes past the header.
    fn count_response(resp: &Self::Response, st: &mut TransportStats) -> u64;
}

impl Request for Bytes {
    type Response = Bytes;
    fn count(&self, st: &mut TransportStats) -> u64 {
        st.rpcs += 1;
        self.len() as u64
    }
    fn serve(self, w: &RefCell<WorkerState>, dst: NodeId, id: AmId) -> LocalBoxFuture<Bytes> {
        let handler = w
            .borrow()
            .handlers
            .get(&id)
            .unwrap_or_else(|| panic!("no AM handler {id:?} on {dst}"))
            .clone();
        handler(self)
    }
    fn count_response(resp: &Bytes, _: &mut TransportStats) -> u64 {
        resp.len() as u64
    }
}

impl Request for (Bytes, Payload) {
    type Response = (Bytes, Payload);
    fn count(&self, st: &mut TransportStats) -> u64 {
        let n = payload_len(&self.1);
        st.bulk_rpcs += 1;
        st.bulk_bytes += n;
        self.0.len() as u64 + n
    }
    fn serve(
        self,
        w: &RefCell<WorkerState>,
        dst: NodeId,
        id: AmId,
    ) -> LocalBoxFuture<(Bytes, Payload)> {
        let handler = w
            .borrow()
            .bulk_handlers
            .get(&id)
            .unwrap_or_else(|| panic!("no bulk handler {id:?} on {dst}"))
            .clone();
        handler(self.0, self.1)
    }
    fn count_response((header, payload): &(Bytes, Payload), st: &mut TransportStats) -> u64 {
        let n = payload_len(payload);
        st.bulk_bytes += n;
        header.len() as u64 + n
    }
}

/// Message counters (whole-transport aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Control (non-bulk) RPCs issued.
    pub rpcs: u64,
    /// Bulk RPCs issued.
    pub bulk_rpcs: u64,
    /// Payload bytes moved by bulk RPCs (both directions).
    pub bulk_bytes: u64,
    /// RPC attempts that failed (unreachable or timed out) and were
    /// followed by another attempt.
    pub rpc_retries: u64,
    /// RPCs abandoned after exhausting their retry budget.
    pub rpc_giveups: u64,
    /// Nanoseconds spent sleeping in retry backoff — pure recovery time,
    /// not data movement.
    pub retry_backoff_ns: u64,
}

struct Inner {
    workers: Vec<RefCell<WorkerState>>,
    stats: RefCell<TransportStats>,
    faults: RefCell<Option<FaultBoard>>,
}

/// The transport context: one worker per cluster node.
#[derive(Clone)]
pub struct Transport {
    ctx: Ctx,
    fabric: Fabric,
    spec: TransportSpec,
    inner: Rc<Inner>,
}

impl Transport {
    /// Create a transport spanning every node of `fabric`.
    pub fn new(ctx: &Ctx, fabric: Fabric, spec: TransportSpec) -> Self {
        let workers = (0..fabric.n_nodes()).map(|_| RefCell::default()).collect();
        Transport {
            ctx: ctx.clone(),
            fabric,
            spec,
            inner: Rc::new(Inner {
                workers,
                stats: RefCell::new(TransportStats::default()),
                faults: RefCell::new(None),
            }),
        }
    }

    /// Aggregate message counters.
    pub fn stats(&self) -> TransportStats {
        *self.inner.stats.borrow()
    }

    /// Attach a fault board. The retrying RPCs consult it for
    /// reachability; the plain RPCs are unaffected. Without a board the
    /// retrying RPCs reduce to the plain ones.
    pub fn set_faults(&self, board: FaultBoard) {
        *self.inner.faults.borrow_mut() = Some(board);
    }

    /// The attached fault board, if any.
    pub fn faults(&self) -> Option<FaultBoard> {
        self.inner.faults.borrow().clone()
    }

    /// Protocol parameters.
    pub fn spec(&self) -> TransportSpec {
        self.spec
    }

    /// The underlying fabric.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Obtain the endpoint handle for a node.
    pub fn endpoint(&self, node: NodeId) -> Endpoint {
        assert!((node.0 as usize) < self.inner.workers.len());
        Endpoint {
            tp: self.clone(),
            node,
        }
    }

    /// A weak handle for use inside registered handlers.
    ///
    /// Handler closures live in the transport's own tables, so a closure
    /// that captured a strong `Transport` clone would form a reference
    /// cycle (`Inner → handler → Transport → Inner`) that keeps the
    /// transport — and everything every handler captured, such as OST
    /// object data or a staged-frame store — alive after the simulation
    /// is torn down. Handlers must capture `downgrade()` instead and
    /// [`WeakTransport::upgrade`] at call time; a handler only ever runs
    /// while the transport that dispatched it is alive.
    pub fn downgrade(&self) -> WeakTransport {
        WeakTransport {
            ctx: self.ctx.clone(),
            fabric: self.fabric.clone(),
            spec: self.spec,
            inner: Rc::downgrade(&self.inner),
        }
    }

    /// Register an active-message handler on `node`. Replaces any previous
    /// handler with the same id.
    pub fn register_am(&self, node: NodeId, id: AmId, handler: AmHandler) {
        self.inner.workers[node.0 as usize]
            .borrow_mut()
            .handlers
            .insert(id, handler);
    }

    /// Register a bulk handler on `node` (see [`BulkHandler`]).
    pub fn register_bulk(&self, node: NodeId, id: AmId, handler: BulkHandler) {
        self.inner.workers[node.0 as usize]
            .borrow_mut()
            .bulk_handlers
            .insert(id, handler);
    }
}

/// A non-owning [`Transport`] handle (see [`Transport::downgrade`]).
#[derive(Clone)]
pub struct WeakTransport {
    ctx: Ctx,
    fabric: Fabric,
    spec: TransportSpec,
    inner: std::rc::Weak<Inner>,
}

impl WeakTransport {
    /// Recover the strong handle. Panics if the transport has been torn
    /// down — valid inside handlers, which only run while it is alive.
    pub fn upgrade(&self) -> Transport {
        Transport {
            ctx: self.ctx.clone(),
            fabric: self.fabric.clone(),
            spec: self.spec,
            inner: self
                .inner
                .upgrade()
                .expect("WeakTransport used after the transport was dropped"),
        }
    }
}

/// A node-local communication endpoint.
#[derive(Clone)]
pub struct Endpoint {
    tp: Transport,
    node: NodeId,
}

impl Endpoint {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Issue a request/response RPC against the handler registered as
    /// `(dst, id)`. The handler runs on the destination node's worker.
    /// Control-plane requests are small; the wire charges header plus
    /// request bytes out and header plus response bytes back.
    pub async fn rpc(&self, dst: NodeId, id: AmId, request: Bytes) -> Bytes {
        self.attempt(dst, id, request, None)
            .await
            .expect("an attempt with no fault board cannot fail")
    }

    /// Issue a bulk request/response RPC: a small `header` plus a
    /// zero-copy `payload`. The wire charges descriptor + payload length
    /// in each direction (RPC descriptor followed by bulk RDMA, as in
    /// Lustre `brw` and UCX rendezvous).
    pub async fn bulk_rpc(
        &self,
        dst: NodeId,
        id: AmId,
        header: Bytes,
        payload: Payload,
    ) -> (Bytes, Payload) {
        self.attempt(dst, id, (header, payload), None)
            .await
            .expect("an attempt with no fault board cannot fail")
    }

    /// RPC with retry: exponential backoff with jitter between attempts
    /// and a per-attempt timeout, per `policy`. With no fault board
    /// attached this is a single plain [`Endpoint::rpc`] — no timer is
    /// armed and `rng` is not drawn, so healthy-path trajectories are
    /// unchanged.
    pub async fn rpc_retrying(
        &self,
        dst: NodeId,
        id: AmId,
        request: Bytes,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<Bytes, TransportError> {
        let Some(board) = self.tp.faults() else {
            return self.attempt(dst, id, request, None).await;
        };
        Box::pin(self.retry_loop(dst, id, request, board, policy, rng)).await
    }

    /// Bulk RPC with retry; see [`Endpoint::rpc_retrying`]. Payload
    /// segments are zero-copy `Bytes` clones, so re-sending is cheap.
    pub async fn bulk_rpc_retrying(
        &self,
        dst: NodeId,
        id: AmId,
        header: Bytes,
        payload: Payload,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<(Bytes, Payload), TransportError> {
        let Some(board) = self.tp.faults() else {
            return self.attempt(dst, id, (header, payload), None).await;
        };
        Box::pin(self.retry_loop(dst, id, (header, payload), board, policy, rng)).await
    }

    /// One request/response attempt, shared by control and bulk RPCs.
    /// With a `board`, the destination's reachability is checked before
    /// the request goes on the wire, after it lands (the node may crash
    /// mid-flight), and before the response is sent back (a reply lost
    /// to a crash still leaves the handler's side effects applied, as on
    /// real systems). With no board it cannot fail.
    async fn attempt<R: Request>(
        &self,
        dst: NodeId,
        id: AmId,
        request: R,
        board: Option<&FaultBoard>,
    ) -> Result<R::Response, TransportError> {
        let header = self.tp.spec.header_bytes;
        let lost = TransportError::Unreachable { node: dst };
        let out = request.count(&mut self.tp.inner.stats.borrow_mut());
        if board.is_some_and(|b| !b.reachable(self.node.0, dst.0)) {
            return Err(lost);
        }
        self.tp.fabric.send(self.node, dst, header + out).await;
        if board.is_some_and(|b| !b.node_up(dst.0)) {
            return Err(lost);
        }
        let response = request
            .serve(&self.tp.inner.workers[dst.0 as usize], dst, id)
            .await;
        let back = R::count_response(&response, &mut self.tp.inner.stats.borrow_mut());
        if board.is_some_and(|b| !b.reachable(dst.0, self.node.0)) {
            return Err(lost);
        }
        self.tp.fabric.send(dst, self.node, header + back).await;
        Ok(response)
    }

    /// The retry loop behind both retrying RPCs: attempts under a
    /// per-attempt timeout, with backoff between them, until one
    /// succeeds or `policy.max_attempts` have failed.
    async fn retry_loop<R: Request + Clone>(
        &self,
        dst: NodeId,
        id: AmId,
        request: R,
        board: FaultBoard,
        policy: &RetryPolicy,
        rng: &mut StdRng,
    ) -> Result<R::Response, TransportError> {
        let ctx = self.tp.ctx.clone();
        let mut attempts = 0;
        loop {
            let attempt = self.attempt(dst, id, request.clone(), Some(&board));
            if let Ok(Ok(response)) = timeout(&ctx, policy.attempt_timeout, attempt).await {
                return Ok(response);
            }
            attempts += 1;
            if attempts >= policy.max_attempts {
                self.tp.inner.stats.borrow_mut().rpc_giveups += 1;
                return Err(TransportError::Exhausted {
                    node: dst,
                    attempts,
                });
            }
            let pause = policy.backoff(attempts - 1, rng);
            {
                let mut st = self.tp.inner.stats.borrow_mut();
                st.rpc_retries += 1;
                st.retry_backoff_ns += pause.nanos();
            }
            ctx.sleep(pause).await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterSpec};
    use simcore::{Sim, SimDuration};

    fn setup(sim: &Sim, n: usize) -> Transport {
        let ctx = sim.ctx();
        let cl = Cluster::build(&ctx, &ClusterSpec::corona(n));
        Transport::new(&ctx, cl.fabric().clone(), TransportSpec::default())
    }

    #[test]
    fn rpc_invokes_remote_handler() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        // Handler on node 1 doubles each byte.
        tp.register_am(
            NodeId(1),
            AmId(1),
            Rc::new(|req: Bytes| {
                Box::pin(async move {
                    let out: Vec<u8> = req.iter().map(|b| b * 2).collect();
                    Bytes::from(out)
                }) as LocalBoxFuture<Bytes>
            }),
        );
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            ep.rpc(NodeId(1), AmId(1), Bytes::from_static(&[1, 2, 3]))
                .await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), Bytes::from_static(&[2, 4, 6]));
    }

    #[test]
    fn rpc_pays_round_trip_latency() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(1),
            AmId(2),
            Rc::new(|_req| Box::pin(async move { Bytes::new() }) as LocalBoxFuture<Bytes>),
        );
        let ep = tp.endpoint(NodeId(0));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ep.rpc(NodeId(1), AmId(2), Bytes::new()).await;
            ctx.now().nanos()
        });
        sim.run();
        // Two fabric messages, each 1 µs overhead + 3 µs wire + 64 B
        // payload streaming (16 ns at 4 GB/s each).
        let t = h.try_take().unwrap();
        assert!((8_000..9_000).contains(&t), "took {t} ns");
    }

    #[test]
    fn local_rpc_is_cheap() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(0),
            AmId(3),
            Rc::new(|_req| Box::pin(async move { Bytes::new() }) as LocalBoxFuture<Bytes>),
        );
        let ep = tp.endpoint(NodeId(0));
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            ep.rpc(NodeId(0), AmId(3), Bytes::new()).await;
            ctx.now().nanos()
        });
        sim.run();
        // Intra-node: memory-copy cost only (64 B headers at 20 GB/s).
        assert!(h.try_take().unwrap() < 100);
    }

    /// A bulk handler that records the payload it received and replies
    /// with an empty one.
    fn sink_handler(got: Rc<RefCell<Vec<Bytes>>>) -> BulkHandler {
        Rc::new(move |_h, p| {
            got.borrow_mut().push(flatten_payload(p));
            Box::pin(async move { (Bytes::new(), Payload::new()) })
                as LocalBoxFuture<(Bytes, Payload)>
        })
    }

    #[test]
    fn payload_integrity_through_bulk_rpc() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        let got: Rc<RefCell<Vec<Bytes>>> = Rc::default();
        tp.register_bulk(NodeId(1), AmId(9), sink_handler(got.clone()));
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let expect = Bytes::from(data);
        // A three-segment rope arrives as the same bytes, in order.
        let rope = vec![
            expect.slice(..10),
            expect.slice(10..60_000),
            expect.slice(60_000..),
        ];
        let ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            ep.bulk_rpc(NodeId(1), AmId(9), Bytes::new(), rope).await;
        });
        assert!(sim.run().is_clean());
        assert_eq!(*got.borrow(), vec![expect]);
    }

    #[test]
    fn stats_count_protocols_and_bytes() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(
            NodeId(1),
            AmId(9),
            Rc::new(|_req| Box::pin(async move { Bytes::new() }) as LocalBoxFuture<Bytes>),
        );
        tp.register_bulk(
            NodeId(1),
            AmId(10),
            Rc::new(|_h, p| {
                Box::pin(async move { (Bytes::new(), p) }) as LocalBoxFuture<(Bytes, Payload)>
            }),
        );
        let ep = tp.endpoint(NodeId(0));
        sim.spawn(async move {
            ep.rpc(NodeId(1), AmId(9), Bytes::new()).await;
            ep.bulk_rpc(
                NodeId(1),
                AmId(10),
                Bytes::new(),
                vec![Bytes::from(vec![1u8; 500])],
            )
            .await;
        });
        assert!(sim.run().is_clean());
        let st = tp.stats();
        assert_eq!(st.rpcs, 1);
        assert_eq!(st.bulk_rpcs, 1);
        // 500 request + 500 echoed response.
        assert_eq!(st.bulk_bytes, 1_000);
    }

    #[test]
    fn concurrent_bulk_transfers_share_links() {
        // Two large transfers from the same source node must take about
        // twice as long as one (tx port is the bottleneck).
        let sim = Sim::new(0);
        let tp = setup(&sim, 3);
        let mut hs = Vec::new();
        for dst in [1u32, 2u32] {
            tp.register_bulk(NodeId(dst), AmId(dst), sink_handler(Rc::default()));
            let ep = tp.endpoint(NodeId(0));
            let ctx = sim.ctx();
            hs.push(sim.spawn(async move {
                let payload = vec![Bytes::from(vec![0u8; 400_000_000])];
                ep.bulk_rpc(NodeId(dst), AmId(dst), Bytes::new(), payload)
                    .await;
                ctx.now().as_secs_f64()
            }));
        }
        sim.run();
        for h in hs {
            let t = h.try_take().unwrap();
            // 0.8 GB total over a 4 GB/s tx port ≈ 0.2 s.
            assert!((t - 0.2).abs() < 0.01, "took {t}");
        }
    }

    use faults::{FaultEvent, FaultKind, FaultPlan};
    use rand::SeedableRng;

    fn echo_handler() -> AmHandler {
        Rc::new(|req: Bytes| Box::pin(async move { req }) as LocalBoxFuture<Bytes>)
    }

    #[test]
    fn retrying_without_board_is_plain_rpc() {
        let sim = Sim::new(0);
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(1);
            ep.rpc_retrying(
                NodeId(1),
                AmId(1),
                Bytes::from_static(b"ping"),
                &RetryPolicy::transport_default(),
                &mut rng,
            )
            .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(h.try_take().unwrap().unwrap(), Bytes::from_static(b"ping"));
        let st = tp.stats();
        assert_eq!(st.rpcs, 1);
        assert_eq!(st.rpc_retries, 0);
        assert_eq!(st.retry_backoff_ns, 0);
    }

    #[test]
    fn rpc_retries_through_a_crash_window() {
        let sim = Sim::new(7);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        // Node 1 is down from t=0 for 2 ms; backoff must carry the
        // caller past the restart.
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_millis(2),
            },
        }]));
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(2);
            ep.rpc_retrying(
                NodeId(1),
                AmId(1),
                Bytes::from_static(b"hi"),
                &RetryPolicy::transport_default(),
                &mut rng,
            )
            .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(h.try_take().unwrap().unwrap(), Bytes::from_static(b"hi"));
        let st = tp.stats();
        assert!(st.rpc_retries >= 1, "expected retries, got {st:?}");
        assert_eq!(st.rpc_giveups, 0);
        assert!(st.retry_backoff_ns > 0);
    }

    #[test]
    fn rpc_exhausts_retries_when_node_stays_down() {
        let sim = Sim::new(3);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(3600),
            },
        }]));
        let policy = RetryPolicy::transport_default();
        let max = policy.max_attempts;
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let mut rng = StdRng::seed_from_u64(4);
            ep.rpc_retrying(NodeId(1), AmId(1), Bytes::new(), &policy, &mut rng)
                .await
        });
        assert!(sim.run().is_clean());
        assert_eq!(
            h.try_take().unwrap(),
            Err(TransportError::Exhausted {
                node: NodeId(1),
                attempts: max,
            })
        );
        assert_eq!(tp.stats().rpc_giveups, 1);
    }

    #[test]
    fn bulk_rpc_retries_are_deterministic_per_seed() {
        // Same seed → same completion time and stats; different seed →
        // (almost surely) different backoff jitter.
        let run = |seed: u64| -> (u64, TransportStats) {
            let sim = Sim::new(seed);
            let ctx = sim.ctx();
            let tp = setup(&sim, 2);
            tp.register_bulk(
                NodeId(1),
                AmId(10),
                Rc::new(|h, p| Box::pin(async move { (h, p) }) as LocalBoxFuture<(Bytes, Payload)>),
            );
            let board = FaultBoard::new(&ctx, 2, 0);
            tp.set_faults(board.clone());
            board.arm(&FaultPlan::scheduled(vec![FaultEvent {
                at: SimDuration::from_nanos(0),
                kind: FaultKind::NodeCrash {
                    node: 1,
                    down_for: SimDuration::from_millis(1),
                },
            }]));
            let ep = tp.endpoint(NodeId(0));
            let ctx2 = ctx.clone();
            let h = sim.spawn(async move {
                let mut rng = StdRng::seed_from_u64(seed);
                let got = ep
                    .bulk_rpc_retrying(
                        NodeId(1),
                        AmId(10),
                        Bytes::new(),
                        vec![Bytes::from_static(b"frame")],
                        &RetryPolicy::transport_default(),
                        &mut rng,
                    )
                    .await;
                assert!(got.is_ok());
                ctx2.now().nanos()
            });
            assert!(sim.run().is_clean());
            (h.try_take().unwrap(), tp.stats())
        };
        let (t_a1, st_a1) = run(11);
        let (t_a2, st_a2) = run(11);
        let (t_b, _) = run(12);
        assert_eq!(t_a1, t_a2);
        assert_eq!(st_a1, st_a2);
        assert_ne!(t_a1, t_b, "different seeds should jitter differently");
    }

    #[test]
    fn plain_rpcs_ignore_an_armed_board_that_retrying_rpcs_obey() {
        // Node 1 is down for the whole run. The plain calls never consult
        // the board and complete; the retrying calls spend every attempt
        // on the first reachability check and give up typed.
        let sim = Sim::new(5);
        let ctx = sim.ctx();
        let tp = setup(&sim, 2);
        tp.register_am(NodeId(1), AmId(1), echo_handler());
        tp.register_bulk(
            NodeId(1),
            AmId(2),
            Rc::new(|h, p| Box::pin(async move { (h, p) }) as LocalBoxFuture<(Bytes, Payload)>),
        );
        let board = FaultBoard::new(&ctx, 2, 0);
        tp.set_faults(board.clone());
        board.arm(&FaultPlan::scheduled(vec![FaultEvent {
            at: SimDuration::from_nanos(0),
            kind: FaultKind::NodeCrash {
                node: 1,
                down_for: SimDuration::from_secs(3600),
            },
        }]));
        let policy = RetryPolicy::transport_default();
        let max = policy.max_attempts;
        let frame = || vec![Bytes::from_static(b"frame")];
        let ep = tp.endpoint(NodeId(0));
        let h = sim.spawn(async move {
            let plain = ep.rpc(NodeId(1), AmId(1), Bytes::from_static(b"hi")).await;
            let (_, plain_bulk) = ep.bulk_rpc(NodeId(1), AmId(2), Bytes::new(), frame()).await;
            let mut rng = StdRng::seed_from_u64(6);
            let retried = ep
                .rpc_retrying(NodeId(1), AmId(1), Bytes::new(), &policy, &mut rng)
                .await;
            let retried_bulk = ep
                .bulk_rpc_retrying(NodeId(1), AmId(2), Bytes::new(), frame(), &policy, &mut rng)
                .await
                .map(|(_, p)| p);
            (plain, plain_bulk, retried, retried_bulk)
        });
        assert!(sim.run().is_clean());
        let (plain, plain_bulk, retried, retried_bulk) = h.try_take().unwrap();
        assert_eq!(plain, Bytes::from_static(b"hi"));
        assert_eq!(plain_bulk, frame());
        let exhausted = TransportError::Exhausted {
            node: NodeId(1),
            attempts: max,
        };
        assert_eq!(retried, Err(exhausted));
        assert_eq!(retried_bulk, Err(exhausted));
        let st = tp.stats();
        // Every attempt is counted before its first reachability check.
        assert_eq!(st.rpcs, 1 + max as u64);
        assert_eq!(st.bulk_rpcs, 1 + max as u64);
        // The plain bulk RPC moves the frame both ways; each failed
        // attempt counts its request only.
        assert_eq!(st.bulk_bytes, (2 + max as u64) * 5);
        assert_eq!(st.rpc_retries, 2 * (max as u64 - 1));
        assert_eq!(st.rpc_giveups, 2);
        assert!(st.retry_backoff_ns > 0);
    }
}
