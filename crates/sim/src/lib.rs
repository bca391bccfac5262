//! # plasticine-sim
//!
//! A cycle-level, **functional** simulator for SARA-compiled virtual unit
//! dataflow graphs on the Plasticine RDA.
//!
//! Every virtual unit is stepped each cycle: compute units walk their
//! counter chains gated by CMMC tokens, branch conditions and dynamic
//! bounds; memory units serve banked, multibuffered scratchpad ports;
//! crossbar units route by runtime bank addresses; AG units stream
//! requests into a [`ramulator_lite::DramSim`]. Streams are latency- and
//! capacity-accurate FIFOs with backpressure, so pipeline bubbles, retiming
//! and DRAM-bandwidth saturation all emerge from first principles.
//!
//! Because real values flow, the final DRAM image is compared against the
//! sequential reference interpreter in the differential test suite — the
//! executable statement of CMMC's correctness guarantee.

pub mod engine;
pub mod fault;
mod link;
pub mod multichip;
pub mod packet;
pub mod profile;
pub mod sanitize;
pub mod stream;
pub mod units;
pub mod watchdog;

pub use engine::{simulate, SimConfig, SimError, SimOutcome, SimStats};
pub use fault::{seeded_plan, Fault, FaultKind, FaultPlan};
pub use multichip::simulate_system;
pub use packet::{PacketArena, PacketRef};
pub use sara_core::profile::SimProfile;
pub use sara_core::robust::{InvariantKind, SanitizerReport, WatchdogReport};
