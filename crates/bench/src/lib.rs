//! # ladm-bench
//!
//! Experiment harness regenerating every table and figure of the LADM
//! paper's evaluation (§II, §IV, §V) on the `ladm-sim` substrate. The
//! `repro` binary prints the same rows/series the paper reports; the
//! Criterion benches time the underlying simulations.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod profile;
pub mod report;
pub mod trace;

pub use harness::{bench_function, geomean, parallel_map, run_workload, BenchSummary};
pub use trace::{policy_by_name, trace_by_name, trace_workload, TracedRun};
