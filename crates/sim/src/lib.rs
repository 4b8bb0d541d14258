//! # ladm-sim
//!
//! Event-driven, cycle-approximate simulator of a **massive logical GPU**:
//! multiple discrete GPUs behind a switch, each composed of chiplets on an
//! on-package ring, each chiplet with SMs, an L2 partition and local HBM
//! (paper Fig. 1 / Table III).
//!
//! The simulator is the substrate the LADM reproduction runs on, standing
//! in for the paper's GPGPU-Sim/Accel-Sim setup. It models exactly the
//! effects the paper's evaluation depends on:
//!
//! * page→node placement and threadblock→node scheduling (consumed as
//!   [`ladm_core::plan::KernelPlan`]s),
//! * sectored L1/L2 caches with the dynamically-shared-L2 remote-caching
//!   protocol and the RTWICE/RONCE insertion policies,
//! * bandwidth-limited hierarchical interconnect (crossbar / ring /
//!   switch) with FCFS queueing,
//! * HBM channel bandwidth and first-touch page faulting.
//!
//! ## Example
//!
//! ```no_run
//! use ladm_sim::{GpuSystem, SimConfig, KernelExec};
//! use ladm_core::policies::Lasp;
//! # fn kernel() -> Box<dyn KernelExec> { unimplemented!() }
//!
//! let mut sys = GpuSystem::new(SimConfig::paper_multi_gpu());
//! let stats = sys.run(&*kernel(), &Lasp::ladm());
//! println!("off-chip traffic: {:.1}%", stats.offchip_fraction() * 100.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bw;
pub mod cache;
pub mod config;
pub mod exec;
pub mod fabric;
pub mod homes;
pub mod mem;
pub mod oracle;
pub mod session;
pub mod shard;
pub mod stats;
pub mod system;

pub use config::{CacheConfig, SimConfig};
pub use exec::{thread_xy, warp_thread_range, KernelExec, ThreadAccess};
pub use homes::{plan_tb_node, range_is_local, static_home, StaticHome};
pub use oracle::OracleSystem;
pub use session::{replay_independent, SessionSim};
pub use shard::{ChipletShard, RemoteReply, RemoteRequest};
pub use stats::{ClassStats, KernelStats};
pub use system::{GpuSystem, SessionRunStats};
