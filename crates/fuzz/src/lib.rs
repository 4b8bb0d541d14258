//! # ladm-fuzz
//!
//! Differential fuzzing of the optimized simulation engine against the
//! deliberately slow, obviously-correct [`ladm_sim::OracleSystem`].
//!
//! Every trial is a random `(kernel, launch, machine, policy)` tuple
//! sampled from a seeded [`ladm_core::rng::SplitMix64`] stream
//! ([`gen`]), executed in lockstep on both simulators and compared
//! bit-for-bit on [`ladm_sim::KernelStats`] ([`diff`]). On top of the
//! oracle comparison each trial checks metamorphic properties: a fresh
//! engine replays deterministically, accounting identities hold (off-node ≥
//! off-GPU, per-arg attribution sums to the total), a single-node
//! machine sees zero NUMA traffic, Equation-1 interleavings stay
//! balanced, and LASP never sends more off-node traffic than the
//! first-touch baseline on cleanly row/column-classified kernels.
//!
//! Session trials ([`gen::SessionSpec`]) chain 2–4 launches over one
//! shared allocation pool through a
//! [`ladm_core::session::PlacementSession`] and check adoption
//! transparency: a fully-adopting session's per-arg off-node
//! attribution is bit-identical to independently replaying the same
//! plans (gated to stateless maps — no first-touch, no migration).
//!
//! A failing trial is greedily shrunk ([`shrink`]) and serialized as a
//! replayable JSON spec ([`corpus`]); the checked-in corpus under
//! `tests/fixtures/fuzz_corpus/` is replayed by `cargo test`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod diff;
pub mod gen;
pub mod shrink;

pub use diff::{run_session_trial, run_trial, Failure};
pub use gen::{session_spec, trial_spec, SessionSpec, TrialSpec};
