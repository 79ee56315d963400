//! Host fingerprint and process memory. A number measured on another
//! host is context, not a verdict: every result line is preceded by the
//! fingerprint of the host that produced it.

use std::time::Instant;

/// Iterations of the reference loop (a fixed splitmix64 chain).
const REF_ITERS: u64 = 20_000_000;

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Milliseconds the fixed in-process reference loop takes on this host.
pub fn reference_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0u64;
    for i in 0..REF_ITERS {
        x = simcore::splitmix64(x ^ i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The fingerprint as one JSON object: `nproc`, `cpu`, `kernel` and
/// `ref_loop_ms`.
pub fn fingerprint_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"ref_loop_ms\": {}}}",
        crate::out::json_str(&cpu_model()),
        crate::out::json_str(&kernel()),
        crate::out::num(reference_loop_ms()),
    )
}
