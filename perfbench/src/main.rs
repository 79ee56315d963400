//! `perfbench` — run one benchmark workload and print its metrics.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs as timed passes, one child
//! process each, until `S` seconds have passed (at least three passes);
//! the end-to-end metrics are the passes' medians. With `--trace 1` one
//! untimed pass and one traced pass (the `perfbench-traced` binary) run
//! and the per-layer metrics are printed. Either way the last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//!
//! A pass that panics, aborts, deadlocks or returns a wrong result
//! counts all of its frame deliveries as failed; the benchmark itself
//! still reports. The known-defect workloads (`defect_*`) exercise that
//! path; `tests/harness.rs` runs them.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use perfbench::host;
use perfbench::out::{result_line, Metrics, END_TO_END, LAYER_METRICS};
use perfbench::pass::{self, PassResult};
use perfbench::stats::median;
use perfbench::workloads::{plan, plan_deliveries, Plan, DEFECTS, WORKLOADS};

/// Timed passes per run, at least.
const MIN_PASSES: usize = 3;
/// No pass starts after this much of a run, so a run ends well within
/// three minutes.
const RUN_CAP: Duration = Duration::from_secs(165);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--pass" => a.pass = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if plan(&a.workload, a.seed).is_none() {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} (self-test: {DEFECTS:?})"
        ));
    }
    Ok(a)
}

/// Run one child pass of this benchmark and read back the line tagged
/// `tag`. Any way the child can fail (non-zero exit, signal, timeout,
/// missing output) is an `Err` naming why.
fn run_child(
    exe: &Path,
    args: &[String],
    tag: &str,
    timeout: Duration,
) -> Result<serde_json::Value, String> {
    let mut child = Command::new(exe)
        .args(args)
        .env("RUST_BACKTRACE", "0")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let drain = |mut r: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut s = String::new();
            let _ = r.read_to_string(&mut s);
            s
        })
    };
    let out = drain(Box::new(child.stdout.take().expect("piped stdout")));
    let err = drain(Box::new(child.stderr.take().expect("piped stderr")));
    let started = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break Some(status);
        }
        if started.elapsed() > timeout {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let (stdout, stderr) = (
        out.join().unwrap_or_default(),
        err.join().unwrap_or_default(),
    );
    let status = status.ok_or(format!(
        "no result within {:.0} s (hang?)",
        timeout.as_secs_f64()
    ))?;
    if !status.success() {
        let why: Vec<&str> = stderr
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with("note:"))
            .take(4)
            .collect();
        return Err(format!("{status}: {}", why.join(" | ")));
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(tag))
        .ok_or(format!("no {tag}line in child output"))?;
    serde_json::from_str(line).map_err(|e| format!("bad {tag}line: {e:?}"))
}

/// Outcome of one benchmark run: ops attempted and failed, metrics.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Checks a pass's result against the workload's invariants and the
/// digest of the first correct pass; failures are reported on stderr.
struct Verdict {
    findings: bool,
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn new(workload: &str) -> Verdict {
        Verdict {
            findings: workload == "paper_suite",
            digest: None,
            attempted: 0,
            failed: 0,
        }
    }

    fn judge(
        &mut self,
        label: &str,
        expected: u64,
        result: Result<PassResult, String>,
    ) -> Option<PassResult> {
        self.attempted += expected;
        let mut problems = Vec::new();
        match &result {
            Ok(p) => {
                problems = p.problems(self.findings);
                match self.digest {
                    Some(d) if d != p.digest => problems.push(format!(
                        "trajectory digest {:016x} != {d:016x} of the first pass",
                        p.digest
                    )),
                    _ => {}
                }
            }
            Err(e) => problems.push(e.clone()),
        }
        if problems.is_empty() {
            let p = result.ok()?;
            self.digest.get_or_insert(p.digest);
            Some(p)
        } else {
            self.failed += expected;
            eprintln!(
                "perfbench: {label} failed ({expected} ops): {}",
                problems.join("; ")
            );
            None
        }
    }
}

/// A child's command line: `mode` flags, then the workload and seed.
fn child_args(mode: &[&str], workload: &str, seed: u64) -> Vec<String> {
    let mut args: Vec<String> = mode.iter().map(|s| s.to_string()).collect();
    args.extend([
        "--workload".into(),
        workload.into(),
        "--seed".into(),
        seed.to_string(),
    ]);
    args
}

fn child_pass(
    exe: &Path,
    workload: &str,
    seed: u64,
    timeout: Duration,
) -> Result<PassResult, String> {
    let v = run_child(
        exe,
        &child_args(&["--pass"], workload, seed),
        "PASS ",
        timeout,
    )?;
    PassResult::from_value(&v).ok_or("malformed PASS line".to_string())
}

/// `--trace 0`: timed passes until `seconds` (and `MIN_PASSES`) are
/// reached; end-to-end metrics are the medians of the correct passes.
fn timed_runs(exe: &Path, workload: &str, seed: u64, seconds: f64, plan: &Plan) -> Outcome {
    let started = Instant::now();
    let expected = plan_deliveries(plan);
    let mut v = Verdict::new(workload);
    let mut passes: Vec<PassResult> = Vec::new();
    let mut longest = Duration::ZERO;
    for n in 1.. {
        let elapsed = started.elapsed();
        let enough = n > MIN_PASSES && elapsed.as_secs_f64() >= seconds;
        // The program is deterministic: after one failed pass, the
        // next would fail the same way.
        if enough || v.failed > 0 || (n > 1 && elapsed + longest > RUN_CAP) {
            break;
        }
        let t = Instant::now();
        let result = child_pass(exe, workload, seed, RUN_CAP.saturating_sub(elapsed));
        longest = longest.max(t.elapsed());
        if let Ok(p) = &result {
            eprintln!(
                "perfbench: pass {n}: wall {:.3} s, setup {:.4} s, sim {:.3} s, rss {:.0} MB",
                p.wall_s, p.setup_s, p.sim_s, p.rss_mb
            );
        }
        passes.extend(v.judge(&format!("pass {n}"), expected, result));
    }
    let pick = |f: &dyn Fn(&PassResult) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut metrics = Metrics::default();
    metrics.set("wall_s", pick(&|p| p.wall_s), "s");
    metrics.set(
        "sim_frames_per_s",
        pick(&|p| p.delivered as f64 / p.sim_s.max(1e-9)),
        "1/s",
    );
    metrics.set("setup_s", pick(&|p| p.setup_s), "s");
    metrics.set("peak_rss_mb", pick(&|p| p.rss_mb), "MB");
    eprintln!(
        "perfbench: {workload} seed {seed}: {} correct passes, digest {:016x}",
        passes.len(),
        v.digest.unwrap_or(0)
    );
    Outcome {
        attempted: v.attempted,
        failed: v.failed,
        metrics: metrics.select(END_TO_END),
    }
}

/// Where the traced run writes its Chrome trace: next to the binaries,
/// inside the build directory.
fn trace_path(exe: &Path, workload: &str, seed: u64) -> PathBuf {
    exe.with_file_name("perfbench-traces")
        .join(format!("{workload}-seed{seed}.json"))
}

/// Untraced passes a traced run compares its traced pass against.
const OVERHEAD_BASE_PASSES: usize = 3;

/// `--trace 1`: `OVERHEAD_BASE_PASSES` untraced passes, then one traced
/// pass; per-layer metrics plus the tracing overhead (traced wall over
/// the untraced median). All digests must agree.
fn traced_run(exe: &Path, workload: &str, seed: u64, plan: &Plan) -> Outcome {
    let expected = plan_deliveries(plan);
    let mut v = Verdict::new(workload);
    let mut untraced = Vec::new();
    for n in 1..=OVERHEAD_BASE_PASSES {
        let result = child_pass(exe, workload, seed, RUN_CAP / 4);
        untraced.extend(v.judge(&format!("untraced pass {n}"), expected, result));
    }
    let out = trace_path(exe, workload, seed);
    let traced = run_child(
        &exe.with_file_name("perfbench-traced"),
        &child_args(&["--out", &out.display().to_string()], workload, seed),
        "TRACED ",
        RUN_CAP / 4,
    );
    let mut layers = Metrics::default();
    let traced = traced.and_then(|t| {
        layers = Metrics::from_value(t.get("layers").ok_or("no layers")?);
        t.get("pass")
            .and_then(PassResult::from_value)
            .ok_or("malformed TRACED line".to_string())
    });
    if let (false, Some(t)) = (
        untraced.is_empty(),
        v.judge("traced pass", expected, traced),
    ) {
        let base = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        layers.set("trace.overhead_frac", t.wall_s / base - 1.0, "ratio");
        eprintln!("perfbench: trace written to {}", out.display());
    }
    Outcome {
        attempted: v.attempted,
        failed: v.failed,
        metrics: layers.select(LAYER_METRICS),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let exe = std::env::current_exe().expect("own path");
    let plan = plan(&args.workload, args.seed).expect("validated");
    if args.pass {
        let mut p = pass::timed(&plan);
        p.rss_mb = host::peak_rss_mb();
        println!("PASS {}", p.to_json());
        return;
    }
    println!("# host: {}", host::fingerprint_json());
    let o = if args.trace {
        traced_run(&exe, &args.workload, args.seed, &plan)
    } else {
        timed_runs(&exe, &args.workload, args.seed, args.seconds, &plan)
    };
    println!(
        "# {} seed {}: ops {} deliveries, failed_ops {} deliveries",
        args.workload, args.seed, o.attempted, o.failed
    );
    let correct = o.failed == 0 && o.attempted > 0;
    println!(
        "{}",
        result_line(correct, o.attempted.max(1), o.failed, &o.metrics)
    );
}
