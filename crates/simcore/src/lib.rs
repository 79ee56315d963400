//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the DYAD-vs-traditional-I/O reproduction: a
//! deterministic discrete-event simulator whose processes are plain Rust
//! `async` functions. The executor is single-threaded; its event
//! calendar can be split into leaf-sharded heaps ([`SimConfig::shards`])
//! for locality without ever changing the schedule.
//!
//! * [`Sim`] owns the event calendar and executor; [`Ctx`] is the handle
//!   processes use to sleep, spawn, and draw random numbers.
//! * [`sync`] provides simulation-aware channels, semaphores and notifies
//!   (zero simulated cost; model real costs explicitly).
//! * [`resource`] provides contended resources: FIFO server pools and
//!   processor-sharing bandwidth links — the building blocks for NVMe
//!   devices, NICs, and file-system servers.
//! * [`stats`] provides Welford accumulators and histograms for the
//!   experiment harness.
//!
//! Determinism: given the same seed and the same program, every run
//! produces the identical event trajectory. All randomness flows through
//! [`Ctx::rng`] streams derived from the simulation seed.
//!
//! ```
//! use simcore::{Sim, SimDuration};
//!
//! let sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let handle = sim.spawn(async move {
//!     ctx.sleep(SimDuration::from_micros(3)).await;
//!     ctx.now().nanos()
//! });
//! sim.run();
//! assert_eq!(handle.try_take(), Some(3_000));
//! ```

#![warn(missing_docs)]

mod combinators;
mod executor;
pub mod intern;
pub mod resource;
pub mod stats;
pub mod sync;
mod time;
pub mod trace;

pub use combinators::{race, timeout, Either, Race, TimedOut, Timeout};
pub use executor::{
    splitmix64, CalendarStats, Ctx, JoinHandle, RunReport, ShardStats, Sim, SimArena, SimConfig,
    Sleep, TimerHandle,
};
pub use time::{SimDuration, SimTime};

/// Await multiple futures of the same type concurrently and collect their
/// results in order. A tiny substitute for `futures::join_all` so the
/// workspace needs no external async runtime.
pub async fn join_all<T, F>(futs: Vec<F>) -> Vec<T>
where
    F: std::future::Future<Output = T> + Unpin,
{
    let mut futs: Vec<Option<F>> = futs.into_iter().map(Some).collect();
    let mut results: Vec<Option<T>> = (0..futs.len()).map(|_| None).collect();
    std::future::poll_fn(move |cx| {
        let mut all_done = true;
        for (slot, result) in futs.iter_mut().zip(results.iter_mut()) {
            if let Some(f) = slot {
                match std::pin::Pin::new(f).poll(cx) {
                    std::task::Poll::Ready(v) => {
                        *result = Some(v);
                        *slot = None;
                    }
                    std::task::Poll::Pending => all_done = false,
                }
            }
        }
        if all_done {
            std::task::Poll::Ready(results.iter_mut().map(|r| r.take().unwrap()).collect())
        } else {
            std::task::Poll::Pending
        }
    })
    .await
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_all_collects_in_order() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let h = sim.spawn(async move {
            let handles: Vec<_> = (0..4u64)
                .map(|i| {
                    let ctx = ctx.clone();
                    ctx.clone().spawn(async move {
                        ctx.sleep(SimDuration::from_nanos(100 - i * 10)).await;
                        i
                    })
                })
                .collect();
            join_all(handles).await
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), vec![0, 1, 2, 3]);
    }
}
