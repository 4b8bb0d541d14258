//! # ladm-workloads
//!
//! The LADM evaluation suite: synthetic reproductions of the 27 scalable
//! workloads in the paper's Table IV (Rodinia, Parboil, Lonestar,
//! Pannotia, CUDA SDK and deep-learning GEMM layers).
//!
//! Each workload is defined **once** as the CUDA index expressions of its
//! dominant kernel (over the prime variables of `ladm_core::expr`); the
//! same definition is consumed by the compiler analysis (classification,
//! Table II) and executed by the simulator (address generation), so the
//! analysis can never be tested against a different program than the one
//! that runs.
//!
//! Every workload is listed once, by name, in a single name→constructor
//! table in [`suite`](mod@suite): [`suite()`](fn@suite) and
//! [`attention()`](fn@attention) build its two halves, and [`by_name`]
//! builds only the one workload it returns.
//!
//! ## Example
//!
//! ```
//! use ladm_workloads::{suite, Scale};
//!
//! let all = suite(Scale::Test);
//! assert_eq!(all.len(), 27);
//! for w in &all {
//!     println!("{:<14} {:>4} blocks  {:>6} KiB  [{}]",
//!         w.name, w.launched_tbs(), w.input_bytes() / 1024, w.kind);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod expect;
pub mod graphs;
pub mod irregular;
pub mod regular;
pub mod spec;
pub mod suite;

pub use attention::{attention, attn_decode, DecodeShape};
pub use expect::{SiteExpectation, Waiver};
pub use graphs::Csr;
pub use spec::{AffineKernel, Scale};
pub use suite::{by_name, dl_gemms, suite, Workload, WorkloadKind};
