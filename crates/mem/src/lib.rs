//! # hhpim-mem — memory technology models for the HH-PIM reproduction
//!
//! The paper's HH-PIM modules pair **STT-MRAM** and **SRAM** banks whose
//! latencies (Table III) and powers (Table V) come from NVSim at 45 nm,
//! with the HP cluster at 1.2 V and the LP cluster at 0.8 V. This crate
//! embeds those published operating points and provides:
//!
//! * [`Energy`] / [`Power`] — unit-safe quantities where
//!   `Power * SimDuration = Energy` (mW × ns = pJ),
//! * [`MemoryTech`] / [`PeTech`] — the four memory operating points
//!   (HP/LP × SRAM/MRAM) plus the two PE classes, and an NVSim-like
//!   voltage interpolation ([`tech_at_vdd`]) for sweep ablations,
//! * [`MemoryBank`] — a cycle-level bank with serialized port, occupancy
//!   tracking, **power gating** (volatility-aware) and exact static
//!   energy accrual,
//! * [`EnergyLedger`] — deterministic per-category energy accounting.
//!
//! # Examples
//!
//! ```
//! use hhpim_mem::{hp_sram, lp_mram};
//!
//! // The core trade-off the paper exploits: SRAM is fast but leaky,
//! // MRAM is slower but nearly free to keep around.
//! assert!(hp_sram().timing.read < lp_mram().timing.read);
//! assert!(lp_mram().power.static_power < hp_sram().power.static_power);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod energy;
pub mod ledger;
pub mod tech;

pub use bank::{Access, AccessKind, BankError, GateParams, GateState, MemoryBank, ResolvedAccess};
pub use energy::{Energy, EnergyAccumulator, Power};
pub use ledger::EnergyLedger;
pub use tech::{
    hp_mram, hp_pe, hp_sram, lp_mram, lp_pe, lp_sram, pe_for, tech_at_vdd, tech_for, AccessTiming,
    ClusterClass, MemKind, MemoryTech, PeTech, PowerProfile, REFERENCE_BANK_BYTES,
};
