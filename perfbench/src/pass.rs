//! One measured pass of a workload, run inside a child process: the
//! timed pass (tracing off; what the end-to-end metrics come from) and
//! the traced pass (spans around every call into a layer, the program's
//! own tracer on for single runs, counters from every layer).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mdflow::prelude::*;

use crate::out::Metrics;
use crate::probes::ProbeShape;
use crate::spans::Spans;
use crate::stats::quantile;
use crate::workloads::*;

/// What one pass reports to the benchmark's parent process.
#[derive(Debug, Clone, Default)]
pub struct PassResult {
    /// Host seconds from the first setup call until results are back.
    pub wall_s: f64,
    /// Snapshot preparation plus per-run substrate setup, summed.
    pub setup_s: f64,
    /// Host seconds in the event loop (`RunTimings::sim_secs`), summed.
    pub sim_s: f64,
    /// Consumer frame deliveries the pass had to make.
    pub expected: u64,
    /// Deliveries made.
    pub delivered: u64,
    /// Typed losses from injected faults (not failures).
    pub lost: u64,
    /// Trajectory digest.
    pub digest: u64,
    /// Paper findings holding (`paper_suite` only).
    pub findings: u32,
    /// Streaming bytes conservation held (always true elsewhere).
    pub bytes_ok: bool,
    /// Peak resident set of the pass's process, MiB.
    pub rss_mb: f64,
}

impl PassResult {
    /// One-line JSON form.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"wall_s\": {}, \"setup_s\": {}, \"sim_s\": {}, \"expected\": {}, \"delivered\": {}, \
             \"lost\": {}, \"digest\": \"{:016x}\", \"findings\": {}, \"bytes_ok\": {}, \"rss_mb\": {}}}",
            crate::out::num(self.wall_s),
            crate::out::num(self.setup_s),
            crate::out::num(self.sim_s),
            self.expected,
            self.delivered,
            self.lost,
            self.digest,
            self.findings,
            self.bytes_ok,
            crate::out::num(self.rss_mb),
        )
    }

    /// Parse the `to_json` form.
    pub fn from_value(v: &serde_json::Value) -> Option<PassResult> {
        let f = |k: &str| v.get(k).and_then(|x| x.as_f64());
        let u = |k: &str| v.get(k).and_then(|x| x.as_u64());
        Some(PassResult {
            wall_s: f("wall_s")?,
            setup_s: f("setup_s")?,
            sim_s: f("sim_s")?,
            expected: u("expected")?,
            delivered: u("delivered")?,
            lost: u("lost")?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            findings: u("findings")? as u32,
            bytes_ok: v.get("bytes_ok")?.as_bool()?,
            rss_mb: f("rss_mb")?,
        })
    }

    /// Why this pass's ops count as failed; empty when it is correct.
    pub fn problems(&self, check_findings: bool) -> Vec<String> {
        let mut p = Vec::new();
        if self.delivered + self.lost != self.expected {
            p.push(format!(
                "{} deliveries + {} typed losses != {} expected",
                self.delivered, self.lost, self.expected
            ));
        }
        if !self.bytes_ok {
            p.push("bytes consumed != bytes published x fan-out".to_string());
        }
        if check_findings && self.findings != 5 {
            p.push(format!("{} of 5 paper findings hold", self.findings));
        }
        p
    }
}

/// Streaming conservation: every subscriber of a fault-free fan-out
/// group consumes every published byte.
fn bytes_conserved(wf: &WorkflowConfig, m: &RunMetrics) -> bool {
    let s = &m.streaming;
    wf.solution != Solution::Streaming
        || m.faults.frames_lost_observed > 0
        || wf.streaming.fanin > 1
        || s.bytes_consumed == s.bytes_published * wf.streaming.fanout.max(1) as u64
}

/// The timed pass: tracing off, exactly the calls a user makes.
pub fn timed(plan: &Plan) -> PassResult {
    match plan {
        Plan::Suite(studies) => {
            let t0 = Instant::now();
            let (reports, stats) = run_studies_jobs(studies, PAPER_JOBS);
            let wall_s = t0.elapsed().as_secs_f64();
            let expected = plan_deliveries(plan);
            let lost = typed_losses(&reports);
            PassResult {
                wall_s,
                setup_s: stats.setup_secs,
                sim_s: stats.sim_secs,
                expected,
                // Consumers validate every frame they receive and skip
                // only typed losses; a missing frame stalls the run
                // into the runner's deadlock panic. The traced pass
                // counts deliveries from the profiles instead.
                delivered: expected.saturating_sub(lost),
                lost,
                digest: reports_digest(&reports),
                findings: findings_held(&reports),
                bytes_ok: true,
                rss_mb: 0.0,
            }
        }
        Plan::Single { wf, cal, seed } => {
            let t0 = Instant::now();
            let snap = ClusterSnapshot::prepare(wf, cal, seed ^ 0x7E3A);
            let prepare_s = t0.elapsed().as_secs_f64();
            let mut arena = RunArena::new();
            let (m, t) = run_once_warm(&snap, *seed, &mut arena);
            let wall_s = t0.elapsed().as_secs_f64();
            PassResult {
                wall_s,
                setup_s: prepare_s + t.setup_secs,
                sim_s: t.sim_secs,
                expected: expected_deliveries(wf),
                delivered: delivered(&m),
                lost: m.faults.frames_lost_observed,
                digest: fnv1a(run_trajectory(&m).as_bytes()),
                findings: 0,
                bytes_ok: bytes_conserved(wf, &m),
                rss_mb: 0.0,
            }
        }
    }
}

/// Layer counters summed over the runs of a traced pass.
#[derive(Default)]
struct Tally {
    runs: u64,
    events: u64,
    delivered: u64,
    lost: u64,
    setup_s: f64,
    sim_s: f64,
    run_ms: Vec<f64>,
    fired: u64,
    fired_imbalance: f64,
    bytes_ok: bool,
    program_events: u64,
    m: Metrics,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            bytes_ok: true,
            ..Tally::default()
        }
    }

    fn add(&mut self, wf: &WorkflowConfig, m: &RunMetrics, t: &RunTimings, run_ms: f64) {
        self.runs += 1;
        self.events += m.events;
        self.delivered += delivered(m);
        self.lost += m.faults.frames_lost_observed;
        self.setup_s += t.setup_secs;
        self.sim_s += t.sim_secs;
        self.run_ms.push(run_ms);
        if let Some(load) = t.shard_load {
            self.fired += load.fired_total;
            self.fired_imbalance += load.imbalance * load.fired_total as f64;
        }
        self.bytes_ok &= bytes_conserved(wf, m);
        let (k, st, sm, f) = (&m.kvs, &m.staging, &m.streaming, &m.faults);
        let mut add = |name: &str, v: u64| {
            let cur = self.m.get(name).unwrap_or(0.0);
            self.m.set(name, cur + v as f64, "count");
        };
        add("kvs.commits", k.commits);
        add("kvs.lookups", k.lookups);
        add("kvs.waits", k.waits);
        add("kvs.deltas_sent", k.deltas_sent);
        add("staging.evicted_frames", st.evicted_frames);
        add("staging.spilled_frames", st.spilled_frames);
        add("staging.backpressure_stalls", st.backpressure_stalls);
        add("staging.pfs_fallbacks", st.pfs_fallbacks);
        add("streaming.ack_refreshes", sm.ack_refreshes);
        add("streaming.cold_syncs", sm.cold_syncs);
        add("streaming.warm_syncs", sm.warm_syncs);
        add("streaming.local_hits", sm.local_hits);
        add("streaming.fetches_served", sm.fetches_served);
        add("streaming.window_stalls", sm.window_stalls);
        add("faults.injected", f.injected);
        add("faults.rpc_retries", f.rpc_retries);
        add("faults.frames_lost_observed", f.frames_lost_observed);
        let peak = self.m.get("kvs.peak_queue").unwrap_or(0.0);
        self.m
            .set("kvs.peak_queue", peak.max(k.peak_queue as f64), "count");
    }
}

/// Simulated-time results of the pass's reports (must not move under a
/// host-only change).
fn model_metrics(m: &mut Metrics, reports: &[StudyReport], findings: u32) {
    let n = reports.len().max(1) as f64;
    let mean = |f: &dyn Fn(&StudyReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    m.set(
        "model.makespan_s",
        reports.iter().map(|r| r.makespan.mean).sum(),
        "s",
    );
    m.set(
        "model.cons_ms_per_frame",
        mean(&|r| r.consumption_total() * 1e3),
        "ms",
    );
    m.set(
        "model.prod_ms_per_frame",
        mean(&|r| r.production_total() * 1e3),
        "ms",
    );
    m.set("model.findings_held", findings as f64, "count");
    let dyad: Vec<&StudyReport> = reports
        .iter()
        .filter(|r| r.workflow.solution == Solution::Dyad)
        .collect();
    let dn = dyad.len().max(1) as f64;
    m.set(
        "dyad.cons_sync_ms",
        dyad.iter()
            .map(|r| r.consumption_idle.mean * 1e3)
            .sum::<f64>()
            / dn,
        "ms",
    );
    m.set(
        "dyad.cons_fetch_ms",
        dyad.iter()
            .map(|r| r.consumption_movement.mean * 1e3)
            .sum::<f64>()
            / dn,
        "ms",
    );
}

/// Compute and PFS nodes a run of `wf` builds.
fn cluster_nodes(wf: &WorkflowConfig, cal: &Calibration) -> usize {
    let compute = if wf.solution == Solution::Streaming {
        wf.streaming_plan().compute_nodes
    } else {
        wf.placement_plan().compute_nodes
    };
    let pfs = wf.solution.needs_pfs() || wf.staging.spill_to_pfs;
    compute + if pfs { 1 + cal.n_osts } else { 0 }
}

/// Probe sizes for a plan: the largest study's shape, and the KVS
/// concurrency the traced run's counters report.
fn probe_shape(plan: &Plan, peak_queue: f64) -> ProbeShape {
    let wfs: Vec<(&WorkflowConfig, &Calibration)> = match plan {
        Plan::Suite(studies) => studies
            .iter()
            .map(|s| (&s.workflow, &s.calibration))
            .collect(),
        Plan::Single { wf, cal, .. } => vec![(wf, cal)],
    };
    let (wf, cal) = *wfs
        .iter()
        .max_by_key(|(wf, cal)| cluster_nodes(wf, cal))
        .expect("a plan has at least one workflow");
    let per_node = match wf.placement {
        Placement::SingleNode => wf.pairs,
        Placement::Split { pairs_per_node } => pairs_per_node,
    };
    ProbeShape {
        nodes: cluster_nodes(wf, cal),
        cal: cal.clone(),
        flows: (expected_deliveries(wf) / wf.frames.max(1)) as usize,
        kvs_clients: peak_queue as usize,
        per_node: per_node as usize,
    }
}

/// What a traced pass's run phase hands to the metric reduction.
struct Phase {
    reports: Vec<StudyReport>,
    digest: u64,
    findings: u32,
    prepare_s: f64,
    workers: usize,
    /// Host seconds of the run phase (all runs, all workers).
    run_s: f64,
    /// Allocation calls during the run phase.
    allocs: u64,
    /// Consumer profiles, one list per study.
    consumers: Vec<Vec<instrument::Profile>>,
}

/// A suite on the campaign executor's schedule: units claimed off one
/// cursor by `PAPER_JOBS` workers, one warm arena each, seeds
/// `study.seed + rep`.
fn traced_suite(studies: &[StudyConfig], spans: &Spans, root: usize, tally: &mut Tally) -> Phase {
    let t0 = Instant::now();
    let snaps: Vec<ClusterSnapshot> = studies
        .iter()
        .map(|s| {
            spans.record("arena.prepare", Some(root), 0, 0, |_| {
                ClusterSnapshot::prepare(&s.workflow, &s.calibration, s.seed ^ 0x7E3A)
            })
        })
        .collect();
    let prepare_s = t0.elapsed().as_secs_f64();
    let units: Vec<(usize, u64)> = studies
        .iter()
        .enumerate()
        .flat_map(|(p, s)| (0..s.repetitions as u64).map(move |r| (p, s.seed + r)))
        .collect();
    let slots: Vec<Mutex<Option<(RunMetrics, RunTimings, f64)>>> =
        units.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let allocs0 = crate::alloc::calls();
    let run_started = Instant::now();
    std::thread::scope(|sc| {
        for w in 0..PAPER_JOBS {
            let (snaps, units, slots, cursor) = (&snaps, &units, &slots, &cursor);
            sc.spawn(move || {
                let mut arena = RunArena::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(p, seed)) = units.get(i) else {
                        break;
                    };
                    let t = Instant::now();
                    let (rm, rt) =
                        spans.record("runner.run", Some(root), i as u64 + 1, w as u32 + 1, |_| {
                            run_once_warm(&snaps[p], seed, &mut arena)
                        });
                    *slots[i].lock().expect("a run panicked") =
                        Some((rm, rt, t.elapsed().as_secs_f64() * 1e3));
                }
            });
        }
    });
    let run_s = run_started.elapsed().as_secs_f64();
    let allocs = crate::alloc::calls() - allocs0;
    let mut by_point: Vec<Vec<RunMetrics>> = studies.iter().map(|_| Vec::new()).collect();
    for (slot, &(p, _)) in slots.into_iter().zip(&units) {
        let (rm, rt, ms) = slot
            .into_inner()
            .expect("a run panicked")
            .expect("every unit ran");
        tally.add(&studies[p].workflow, &rm, &rt, ms);
        by_point[p].push(rm);
    }
    let reports: Vec<StudyReport> = studies
        .iter()
        .zip(&by_point)
        .map(|(s, runs)| {
            spans.record("report.reduce", Some(root), 0, 0, |_| {
                StudyReport::from_runs(&s.workflow, runs)
            })
        })
        .collect();
    let consumers = by_point
        .into_iter()
        .map(|runs| runs.into_iter().flat_map(|r| r.consumers).collect())
        .collect();
    Phase {
        digest: reports_digest(&reports),
        findings: findings_held(&reports),
        reports,
        prepare_s,
        workers: PAPER_JOBS,
        run_s,
        allocs,
        consumers,
    }
}

/// One simulation with the program's own tracer on.
fn traced_single(
    (wf, cal, seed): (&WorkflowConfig, &Calibration, u64),
    spans: &Spans,
    root: usize,
    tally: &mut Tally,
) -> Phase {
    let t0 = Instant::now();
    let snap = spans.record("arena.prepare", Some(root), 0, 0, |_| {
        ClusterSnapshot::prepare(wf, cal, seed ^ 0x7E3A)
    });
    let prepare_s = t0.elapsed().as_secs_f64();
    let allocs0 = crate::alloc::calls();
    let run_started = Instant::now();
    let (mut rm, rt, tracer) = spans.record("runner.run", Some(root), 1, 0, |_| {
        run_once_traced_snap(&snap, seed, Instant::now())
    });
    let run_s = run_started.elapsed().as_secs_f64();
    let allocs = crate::alloc::calls() - allocs0;
    tally.program_events = tracer.len() as u64;
    drop(tracer);
    tally.add(wf, &rm, &rt, run_s * 1e3);
    let report = spans.record("report.reduce", Some(root), 0, 0, |_| {
        StudyReport::from_runs(wf, std::slice::from_ref(&rm))
    });
    Phase {
        reports: vec![report],
        digest: fnv1a(run_trajectory(&rm).as_bytes()),
        findings: 0,
        prepare_s,
        workers: 1,
        run_s,
        allocs,
        consumers: vec![std::mem::take(&mut rm.consumers)],
    }
}

/// The traced pass. Returns the pass result (its digest must equal the
/// timed passes'), the per-layer metrics, and the probe shape.
pub fn traced(plan: &Plan, spans: &Spans, root: usize) -> (PassResult, Metrics, ProbeShape) {
    let mut tally = Tally::new();
    let mut m = Metrics::default();
    let t0 = Instant::now();
    let phase = match plan {
        Plan::Suite(studies) => traced_suite(studies, spans, root, &mut tally),
        Plan::Single { wf, cal, seed } => traced_single((wf, cal, *seed), spans, root, &mut tally),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_heap_mb = crate::alloc::peak_bytes() as f64 / (1u64 << 20) as f64;
    let Phase {
        reports,
        digest,
        findings,
        prepare_s,
        workers,
        run_s,
        allocs,
        consumers,
    } = phase;
    for profiles in consumers {
        spans.record("thicket.aggregate", Some(root), 0, 0, |_| {
            thicket::Ensemble::from_profiles(profiles).aggregate()
        });
    }

    let expected = plan_deliveries(plan);
    let span_ms = |name: &str| -> f64 {
        spans
            .snapshot()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
            .sum()
    };
    m.set("arena.prepare_s", prepare_s, "s");
    m.set("runner.setup_s", tally.setup_s, "s");
    m.set("runner.sim_s", tally.sim_s, "s");
    m.set("runner.run_ms_p50", quantile(&tally.run_ms, 0.5), "ms");
    m.set("runner.run_ms_p95", quantile(&tally.run_ms, 0.95), "ms");
    m.set("runner.runs", tally.runs as f64, "count");
    m.set("report.reduce_ms", span_ms("report.reduce"), "ms");
    m.set("thicket.aggregate_ms", span_ms("thicket.aggregate"), "ms");
    let run_sum_s = tally.run_ms.iter().sum::<f64>() / 1e3;
    m.set(
        "campaign.parallel_eff",
        run_sum_s / (run_s * workers as f64).max(1e-9),
        "ratio",
    );
    let setup_total = prepare_s + tally.setup_s;
    m.set(
        "campaign.setup_fraction",
        setup_total / (setup_total + tally.sim_s).max(1e-9),
        "ratio",
    );
    m.set("simcore.events", tally.events as f64, "count");
    m.set(
        "simcore.events_per_frame",
        tally.events as f64 / tally.delivered.max(1) as f64,
        "count",
    );
    m.set(
        "simcore.host_ns_per_event",
        tally.sim_s * 1e9 / tally.events.max(1) as f64,
        "ns",
    );
    m.set(
        "simcore.shard_imbalance",
        tally.fired_imbalance / tally.fired.max(1) as f64,
        "ratio",
    );
    for (name, value, unit) in &tally.m.0 {
        m.set(name, *value, unit);
    }
    m.set(
        "alloc.per_event",
        allocs as f64 / tally.events.max(1) as f64,
        "count",
    );
    m.set(
        "alloc.per_frame",
        allocs as f64 / tally.delivered.max(1) as f64,
        "count",
    );
    m.set("alloc.peak_heap_mb", peak_heap_mb, "MB");
    m.set("trace.program_events", tally.program_events as f64, "count");
    model_metrics(&mut m, &reports, findings);

    let shape = probe_shape(plan, m.get("kvs.peak_queue").unwrap_or(1.0));
    let pass = PassResult {
        wall_s,
        setup_s: setup_total,
        sim_s: tally.sim_s,
        expected,
        delivered: tally.delivered,
        lost: tally.lost,
        digest,
        findings,
        bytes_ok: tally.bytes_ok,
        rss_mb: 0.0,
    };
    (pass, m, shape)
}
