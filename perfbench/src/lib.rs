//! The repository benchmark: drives `DsgService` through three workloads
//! and reports end-to-end metrics (untraced run) or per-layer metrics
//! (traced run plus chunk replay). `BENCHMARK.json` at the repository root
//! names the metrics; `WORKLOADS.md` beside this crate records why each
//! workload exists and which metric each layer should move.

pub mod drive;
pub mod heap;
pub mod mem;
pub mod replay;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
