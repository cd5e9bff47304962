//! Host-speed benchmark of the Quartz emulator stack.
//!
//! Three workloads (`chase`, `persist_log`, `kv_service`) each run in
//! their own process for a host-time budget. A plain run reports
//! end-to-end host metrics and checks that the simulated output did not
//! change; a traced run reports per-layer metrics from sampled spans
//! around the benchmark's calls into each crate. See `README.md`.

pub mod metrics;
pub mod run;
pub mod trace;
pub mod workloads;
