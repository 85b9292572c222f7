//! Q-format fixed-point arithmetic modelling FPGA datapaths.
//!
//! The transceiver of Toal et al. (SOCC 2012) carries samples on 16-bit
//! buses (Q1.15) and runs its CORDIC engines on 18-bit paths (Q2.16).
//! This crate provides a bit-accurate software model of those datapaths:
//!
//! * [`Fx`] — a signed fixed-point scalar with a const-generic number of
//!   fraction bits, backed by `i64` so intermediate results never lose
//!   precision before an explicit width clamp.
//! * [`CFx`] — a complex fixed-point value built from two [`Fx`].
//! * Explicit width saturation ([`Fx::saturate_bits`]) so each hardware
//!   bus width in the paper (16-bit samples, 18-bit CORDIC words) can be
//!   enforced exactly where the RTL would clamp.
//! * [`Isa`] — the CPU tier every lane kernel of the workspace is
//!   built for, probed once per process.
//! * [`BusLanes`] — carriers as 16-bit bus words on `i32` lane groups
//!   of [`LANES`], the form the receiver's per-symbol core keeps a
//!   symbol in from the carrier gather to the LLR scatter.
//!
//! # Examples
//!
//! ```
//! use mimo_fixed::Q15;
//!
//! // A Q1.15 sample as carried on the paper's 16-bit buses.
//! let a = Q15::from_f64(0.5);
//! let b = Q15::from_f64(-0.25);
//! let sum = (a + b).saturate_bits(16);
//! assert!((sum.to_f64() - 0.25).abs() < 1e-4);
//! ```

// Panic audit (unit tests exempt): CI runs clippy with `-D warnings`.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

mod bus;
mod complex;
mod float;
mod fx;
mod isa;

pub use bus::{
    bus_carrier, lane_groups, on_bus, set_bus_carrier, stage_bus, unstage_bus, BusLanes, Lanes,
    LANES,
};
pub use complex::CFx;
pub use float::Cf64;
pub use fx::Fx;
pub use isa::Isa;

/// Q1.15: the paper's 16-bit sample format (range [-1, 1)).
pub type Q15 = Fx<15>;

/// Q2.16: the paper's 18-bit CORDIC word format (range [-2, 2)).
pub type Q16 = Fx<16>;

/// Complex Q1.15 sample (I/Q pair on two 16-bit buses).
pub type CQ15 = CFx<15>;

/// Complex Q2.16 CORDIC word.
pub type CQ16 = CFx<16>;

/// Width, in bits, of the sample buses in the paper's block diagrams.
pub const SAMPLE_BITS: u32 = 16;

/// Width, in bits, of the CORDIC / DSP datapaths in the paper.
pub const CORDIC_BITS: u32 = 18;
