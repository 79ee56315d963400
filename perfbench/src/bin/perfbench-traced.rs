//! `perfbench-traced` — the traced pass of one workload, in a process
//! of its own. It is the only benchmark process that installs the
//! counting allocator. It records a span around every benchmark call
//! into a layer, runs one probe per substrate, writes the spans as a
//! Chrome trace to `--out`, and prints one `TRACED` line with the pass
//! result and the per-layer metrics.
//!
//! ```text
//! perfbench-traced --out TRACE.json --workload NAME --seed N
//! ```

use perfbench::alloc::CountingAlloc;
use perfbench::spans::{self, Spans};
use perfbench::{host, pass, probes, workloads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |f: &str| {
        args.iter()
            .position(|a| a == f)
            .and_then(|i| args.get(i + 1))
            .unwrap_or_else(|| panic!("perfbench-traced needs {f}"))
    };
    let seed: u64 = flag("--seed").parse().expect("--seed is an integer");
    let plan = workloads::plan(flag("--workload"), seed).expect("known workload");

    let spans = Spans::default();
    let (mut result, mut m, shape) = spans.record("workload", None, 0, 0, |root| {
        pass::traced(&plan, &spans, root)
    });
    spans.record("probes", None, 0, 0, |root| {
        probes::run_all(&shape, &spans, root, &mut m)
    });
    result.rss_mb = host::peak_rss_mb();

    let recorded = spans.snapshot();
    let own = spans::self_ms(&recorded);
    for name in [
        "workload",
        "arena.prepare",
        "runner.run",
        "report.reduce",
        "thicket.aggregate",
    ] {
        m.set(
            &format!("self_ms.{name}"),
            own.get(name).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let probe_self: f64 = own
        .iter()
        .filter(|(n, _)| n.starts_with("probe"))
        .map(|(_, v)| v)
        .sum();
    m.set("self_ms.probes", probe_self, "ms");
    m.set("trace.spans", recorded.len() as f64, "count");

    let out = std::path::PathBuf::from(flag("--out"));
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }
    std::fs::write(&out, spans::chrome_json(&recorded)).expect("write trace");
    println!(
        "TRACED {{\"pass\": {}, \"layers\": {}}}",
        result.to_json(),
        m.to_json()
    );
}
