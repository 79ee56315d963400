//! Per-substrate probes: each drives one layer's public functions on a
//! bare `Sim`, at the op size and concurrency of the workload being
//! traced, and reports host time per operation. A probe never shares a
//! simulation with the workload, so its number isolates the layer.

use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterSpec, NodeId};
use dyad::DyadService;
use instrument::Recorder;
use kvs::{KvsClient, KvsMesh, KvsServer};
use localfs::LocalFs;
use mdflow::prelude::*;
use mdsim::FrameTemplate;
use pfs::ParallelFs;
use simcore::resource::SharedBandwidth;
use simcore::{Sim, SimDuration};
use streaming::{StreamAcker, StreamService, StreamSpec};
use transport::{AmId, Transport};

use crate::out::Metrics;
use crate::spans::Spans;
use crate::stats::median;

const PROBE_SEED: u64 = 0x9B0B;

/// Op sizes and concurrency a probe set runs at.
#[derive(Debug, Clone)]
pub struct ProbeShape {
    /// Nodes (compute plus PFS service) of the workload's largest run.
    pub nodes: usize,
    /// That run's testbed.
    pub cal: Calibration,
    /// Concurrent consumer flows of that run (pairs × fan-out).
    pub flows: usize,
    /// Peak KVS queue the traced run's counters report.
    pub kvs_clients: usize,
    /// Processes of one kind per node.
    pub per_node: usize,
}

/// Host ns per op of `ops` operations that `setup` spawns on a fresh
/// simulation. `setup` returns what must outlive the run (servers) and
/// a counter the tasks bump once per completed op; every op must
/// complete.
fn ns_per_op(name: &str, ops: u64, setup: impl FnOnce(&Sim, Rc<Cell<u64>>) -> Box<dyn Any>) -> f64 {
    let sim = Sim::new(PROBE_SEED);
    let done = Rc::new(Cell::new(0));
    let keep = setup(&sim, done.clone());
    let t0 = Instant::now();
    sim.run();
    let ns = t0.elapsed().as_nanos() as f64;
    drop(keep);
    assert_eq!(done.get(), ops, "probe {name}: not every op completed");
    ns / ops.max(1) as f64
}

/// Split an op budget over `tasks` tasks: (tasks, ops per task).
fn split(budget: u64, tasks: usize) -> (usize, u64) {
    let tasks = tasks.max(1);
    (tasks, (budget / tasks as u64).max(1))
}

fn jac_payload() -> Vec<Bytes> {
    FrameTemplate::generate(Model::Jac, PROBE_SEED).frame_segments(1)
}

/// A cluster of `n` nodes on the workload's fabric with a transport.
fn fabric(sim: &Sim, cal: &Calibration, n: usize) -> (Cluster, Transport) {
    let ctx = sim.ctx();
    let cl = Cluster::build(&ctx, &ClusterSpec::homogeneous(n, cal.node, cal.fabric));
    let tp = Transport::new(&ctx, cl.fabric().clone(), cal.transport);
    (cl, tp)
}

/// Event-calendar wake-ups: tasks sleeping short staggered intervals.
fn simcore_wake(shape: &ProbeShape) -> f64 {
    let (tasks, iters) = split(200_000, shape.flows.min(4096));
    ns_per_op("simcore", tasks as u64 * iters, |sim, done| {
        let ctx = sim.ctx();
        for t in 0..tasks as u64 {
            let (ctx, done) = (ctx.clone(), done.clone());
            sim.spawn(async move {
                for i in 0..iters {
                    ctx.sleep(SimDuration::from_nanos(1 + (t + i) % 7)).await;
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new(())
    })
}

/// `SharedBandwidth::transfer` of one JAC frame at the workload's flow
/// count.
fn bandwidth_transfer(shape: &ProbeShape) -> f64 {
    let (flows, per) = split(20_000, shape.flows.min(4096));
    let bytes = Model::Jac.frame_bytes();
    ns_per_op("bandwidth", flows as u64 * per, |sim, done| {
        let link = SharedBandwidth::new(&sim.ctx(), 12.5e9);
        for _ in 0..flows {
            let (link, done) = (link.clone(), done.clone());
            sim.spawn(async move {
                for _ in 0..per {
                    link.transfer(bytes).await;
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new(())
    })
}

/// `Cluster::build` of the workload's cluster, ms (median of 3).
fn cluster_build_ms(shape: &ProbeShape) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let sim = Sim::new(PROBE_SEED);
            let spec = ClusterSpec::homogeneous(shape.nodes, shape.cal.node, shape.cal.fabric);
            let t0 = Instant::now();
            let cl = Cluster::build(&sim.ctx(), &spec);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(cl);
            ms
        })
        .collect();
    median(&samples)
}

/// `FrameTemplate::generate` for `model`, ms (median of 3).
fn template_ms(model: Model) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|i| {
            let t0 = Instant::now();
            let t = FrameTemplate::generate(model, PROBE_SEED + i);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            drop(t);
            ms
        })
        .collect();
    median(&samples)
}

/// `Endpoint::bulk_rpc` carrying one JAC frame from the first half of
/// the nodes to the second (across leaves on a leaf/spine fabric).
fn transport_bulk_rpc(shape: &ProbeShape) -> f64 {
    let n = shape.nodes.clamp(2, 256) & !1;
    let (clients, per) = split(20_000, shape.flows.min(256));
    let payload = jac_payload();
    ns_per_op("transport", clients as u64 * per, |sim, done| {
        let (cl, tp) = fabric(sim, &shape.cal, n);
        let id = AmId(0xBE7C);
        for dst in n / 2..n {
            tp.register_bulk(
                NodeId(dst as u32),
                id,
                Rc::new(|_h, _p| Box::pin(async { (Bytes::new(), Vec::new()) })),
            );
        }
        for c in 0..clients {
            let src = c % (n / 2);
            let ep = tp.endpoint(NodeId(src as u32));
            let (payload, done) = (payload.clone(), done.clone());
            sim.spawn(async move {
                for _ in 0..per {
                    ep.bulk_rpc(
                        NodeId((src + n / 2) as u32),
                        id,
                        Bytes::new(),
                        payload.clone(),
                    )
                    .await;
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new((cl, tp))
    })
}

/// KVS commit + lookup pairs from `clients` clients; ns per op. With
/// `mesh`, the metadata plane is 4 shards with R=2.
fn kvs_ops(shape: &ProbeShape, mesh: bool) -> f64 {
    let n = shape.nodes.clamp(5, 64);
    let (clients, per) = split(20_000, shape.kvs_clients.clamp(1, 1024));
    ns_per_op("kvs", 2 * clients as u64 * per, |sim, done| {
        let ctx = sim.ctx();
        let (cl, tp) = fabric(sim, &shape.cal, n);
        let spec = shape.cal.kvs;
        let shards: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mesh_plane = mesh.then(|| KvsMesh::start(&ctx, &tp, &shards, spec, 2));
        let server = (!mesh).then(|| KvsServer::start(&ctx, &tp, NodeId(0), spec));
        for c in 0..clients {
            let node = NodeId(1 + (c % (n - 1)) as u32);
            let client: kvs::KvsHandle = match &mesh_plane {
                Some(m) => m.client(&ctx, &tp, node).into(),
                None => KvsClient::new(&ctx, &tp, node, NodeId(0), spec).into(),
            };
            let done = done.clone();
            sim.spawn(async move {
                for j in 0..per {
                    let key = format!("probe/{c}/{j}");
                    client.commit(&key, Bytes::from_static(b"v")).await;
                    let hit = client.lookup(&key).await;
                    assert!(hit.is_some(), "committed key {key} not found");
                    done.set(done.get() + 2);
                }
            });
        }
        Box::new((cl, tp, mesh_plane, server))
    })
}

/// Local filesystem: create, write, close, open, read, close, unlink
/// one JAC frame, `per_node` writers on one node; ns per frame.
fn localfs_frame(shape: &ProbeShape) -> f64 {
    let (writers, per) = split(2_000, shape.per_node.clamp(1, 64));
    let frame = transport::flatten_payload(jac_payload());
    ns_per_op("localfs", writers as u64 * per, |sim, done| {
        let ctx = sim.ctx();
        let (cl, _tp) = fabric(sim, &shape.cal, 1);
        let fs = LocalFs::new(&ctx, cl.node(NodeId(0)).nvme.clone(), shape.cal.localfs);
        for w in 0..writers {
            let (fs, frame, done) = (fs.clone(), frame.clone(), done.clone());
            sim.spawn(async move {
                let dir = format!("/probe/w{w}");
                fs.mkdir_p(&dir).await.expect("mkdir");
                for j in 0..per {
                    let path = format!("{dir}/{j}");
                    let fd = fs.create(&path).await.expect("create");
                    fs.write_bytes(fd, frame.clone()).await.expect("write");
                    fs.close(fd).await.expect("close");
                    let fd = fs.open(&path).await.expect("open");
                    let got = fs.read_to_end(fd).await.expect("read");
                    assert_eq!(got.len(), frame.len());
                    fs.close(fd).await.expect("close");
                    fs.unlink(&path).await.expect("unlink");
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new((cl, fs))
    })
}

/// Parallel filesystem: write then read one JAC frame through the
/// Lustre client from two compute nodes; ns per frame.
fn pfs_frame(shape: &ProbeShape) -> f64 {
    let (writers, per) = split(400, shape.per_node.clamp(1, 16));
    let payload = jac_payload();
    let n_osts = shape.cal.n_osts;
    ns_per_op("pfs", writers as u64 * per, |sim, done| {
        let ctx = sim.ctx();
        let (cl, tp) = fabric(sim, &shape.cal, 3 + n_osts);
        let mut spec = shape.cal.pfs;
        spec.interference = 0.0;
        let osts = (0..n_osts).map(|i| NodeId(3 + i as u32)).collect();
        let pfs = ParallelFs::start(&ctx, &tp, NodeId(2), osts, spec);
        for w in 0..writers {
            let client = pfs.client(&ctx, NodeId((w % 2) as u32));
            let (payload, done) = (payload.clone(), done.clone());
            sim.spawn(async move {
                for j in 0..per {
                    let path = format!("/probe-w{w}-{j}");
                    let fd = client.create(&path).await.expect("create");
                    client
                        .write_segments(fd, payload.clone())
                        .await
                        .expect("write");
                    client.close(fd).await.expect("close");
                    let fd = client.open(&path).await.expect("open");
                    let got = client.read_segments(fd).await.expect("read");
                    assert_eq!(
                        transport::payload_len(&got),
                        transport::payload_len(&payload)
                    );
                    client.close(fd).await.expect("close");
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new((cl, tp, pfs))
    })
}

/// One local filesystem and KVS client per node of a two-node rig with
/// the broker on node 0.
fn two_node_rig(
    sim: &Sim,
    cal: &Calibration,
) -> (Cluster, Transport, Rc<KvsServer>, Vec<(LocalFs, KvsClient)>) {
    let ctx = sim.ctx();
    let (cl, tp) = fabric(sim, cal, 2);
    let server = KvsServer::start(&ctx, &tp, NodeId(0), cal.kvs);
    let per_node = (0..2)
        .map(|i| {
            (
                LocalFs::new(&ctx, cl.node(NodeId(i)).nvme.clone(), cal.localfs),
                KvsClient::new(&ctx, &tp, NodeId(i), NodeId(0), cal.kvs),
            )
        })
        .collect();
    (cl, tp, server, per_node)
}

/// DYAD: produce on node 0, consume on node 1, one JAC frame; ns per
/// frame (both sides).
fn dyad_frame(shape: &ProbeShape) -> f64 {
    let (pairs, per) = split(2_000, shape.per_node.clamp(1, 16));
    let payload = jac_payload();
    ns_per_op("dyad", pairs as u64 * per, |sim, done| {
        let ctx = sim.ctx();
        let (cl, tp, server, nodes) = two_node_rig(sim, &shape.cal);
        let svcs: Vec<Rc<DyadService>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, (fs, kc))| {
                DyadService::start(&ctx, &tp, NodeId(i as u32), fs, kc, shape.cal.dyad.clone())
            })
            .collect();
        for p in 0..pairs {
            let (prod, mut cons) = (svcs[0].clone(), svcs[1].consumer_with_id(&format!("c{p}")));
            let (ctx, payload, done) = (ctx.clone(), payload.clone(), done.clone());
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for j in 0..per {
                    let name = format!("p{p}/f{j}");
                    prod.produce(&rec, &name, payload.clone()).await;
                    let got = cons.consume(&rec, &name).await;
                    assert_eq!(
                        transport::payload_len(&got),
                        transport::payload_len(&payload)
                    );
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new((cl, tp, server, svcs))
    })
}

/// Streaming: publish on node 0, consume on node 1, one JAC step
/// through the bounded window; ns per step (both sides).
fn streaming_step(shape: &ProbeShape) -> f64 {
    let (groups, per) = split(2_000, shape.per_node.clamp(1, 16));
    let payload = jac_payload();
    ns_per_op("streaming", groups as u64 * per, |sim, done| {
        let ctx = sim.ctx();
        let (cl, tp, server, nodes) = two_node_rig(sim, &shape.cal);
        let svcs: Vec<Rc<StreamService>> = nodes
            .into_iter()
            .enumerate()
            .map(|(i, (fs, kc))| {
                StreamService::start(&ctx, &tp, NodeId(i as u32), fs, kc, StreamSpec::default())
            })
            .collect();
        for g in 0..groups {
            let id = format!("c{g}");
            let (mut publisher, mut sub) = (svcs[0].publisher(), svcs[1].subscriber(&id));
            let ackers = [StreamAcker {
                consumer: id,
                node: 1,
            }];
            let (ctx, payload, done) = (ctx.clone(), payload.clone(), done.clone());
            sim.spawn(async move {
                let rec = Recorder::new(&ctx);
                for j in 0..per {
                    let name = format!("g{g}/s{j}");
                    publisher
                        .publish(&rec, &name, j, payload.clone(), &ackers)
                        .await;
                    let got = sub.consume_step(&rec, &name).await;
                    assert_eq!(
                        transport::payload_len(&got),
                        transport::payload_len(&payload)
                    );
                    done.set(done.get() + 1);
                }
            });
        }
        Box::new((cl, tp, server, svcs))
    })
}

/// Run every probe at `shape`, each inside its own span under `root`,
/// and record the results.
pub fn run_all(shape: &ProbeShape, spans: &Spans, root: usize, m: &mut Metrics) {
    let mut probe = |span: &'static str, metric: &str, unit: &str, f: &dyn Fn() -> f64| {
        let v = spans.record(span, Some(root), 0, 0, |_| f());
        m.set(metric, v, unit);
    };
    probe("probe.simcore", "probe.simcore.wake_ns", "ns", &|| {
        simcore_wake(shape)
    });
    probe(
        "probe.bandwidth",
        "probe.bandwidth.transfer_ns",
        "ns",
        &|| bandwidth_transfer(shape),
    );
    probe("probe.cluster", "probe.cluster.build_ms", "ms", &|| {
        cluster_build_ms(shape)
    });
    probe("probe.mdsim", "probe.mdsim.template_ms.jac", "ms", &|| {
        template_ms(Model::Jac)
    });
    probe("probe.mdsim", "probe.mdsim.template_ms.stmv", "ms", &|| {
        template_ms(Model::Stmv)
    });
    probe(
        "probe.transport",
        "probe.transport.bulk_rpc_ns",
        "ns",
        &|| transport_bulk_rpc(shape),
    );
    probe("probe.kvs", "probe.kvs.op_ns", "ns", &|| {
        kvs_ops(shape, false)
    });
    probe("probe.kvs_mesh", "probe.kvs_mesh.op_ns", "ns", &|| {
        kvs_ops(shape, true)
    });
    probe("probe.localfs", "probe.localfs.frame_ns", "ns", &|| {
        localfs_frame(shape)
    });
    probe("probe.pfs", "probe.pfs.frame_ns", "ns", &|| {
        pfs_frame(shape)
    });
    probe("probe.dyad", "probe.dyad.frame_ns", "ns", &|| {
        dyad_frame(shape)
    });
    probe("probe.streaming", "probe.streaming.step_ns", "ns", &|| {
        streaming_step(shape)
    });
}
