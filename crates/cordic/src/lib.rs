//! CORDIC rotation and vectoring engines.
//!
//! The paper leans on CORDICs in two places:
//!
//! * the **time synchroniser** uses a CORDIC to compute the magnitude of
//!   the 32-tap correlation sum ("much more resource efficient than
//!   square-root calculation logic", §IV.B);
//! * the **QR decomposition** systolic array is built entirely from
//!   CORDIC cells — boundary cells run two *vectoring* CORDICs, internal
//!   cells run three *rotation* CORDICs (Figs 6–7), each with a
//!   **20-clock-cycle latency**.
//!
//! This crate provides the iterative fixed-point engine ([`Cordic`]),
//! and cycle-accurate pipelined wrappers ([`PipelinedVectoring`],
//! [`PipelinedRotator`]) whose latency matches the paper's 20 cycles
//! (18 micro-rotations + input register + gain-compensation stage).
//!
//! [`CordicLanes`] is the software counterpart of the Fig 8 scheduler,
//! which streams 20 subcarriers back to back through each CORDIC
//! element: it runs [`LANES`] = 8 carriers through one micro-rotation
//! sequence per step, bit-identical to [`Cordic`]. The QRD array and
//! the pilot and timing de-rotations run their carriers through it.
//! Data enters the lanes only while every raw word is below
//! [`LANE_INPUT_LIMIT`] = 2²⁴, which keeps every `i32` lane
//! intermediate far from overflow; anything larger stays on the scalar
//! engine, which remains the oracle.
//!
//! # Examples
//!
//! ```
//! use mimo_cordic::Cordic;
//! use mimo_fixed::Q16;
//!
//! let cordic = Cordic::new();
//! let v = cordic.vector(Q16::from_f64(0.6), Q16::from_f64(0.8));
//! assert!((v.magnitude.to_f64() - 1.0).abs() < 1e-3);
//! assert!((v.angle.to_f64() - 0.8f64.atan2(0.6)).abs() < 1e-3);
//! ```

mod angle;
mod engine;
mod lanes;
mod pipeline;

pub use engine::{Cordic, Rotated, Vectored};
pub use lanes::{CordicLanes, Lanes, DEROTATE_GROUPS, LANES, LANE_INPUT_LIMIT};
pub use pipeline::{PipelinedRotator, PipelinedVectoring};

/// Number of micro-rotation iterations of the paper's CORDIC element.
pub const CORDIC_ITERATIONS: u32 = 18;

/// Pipeline latency, in clock cycles, of each CORDIC element in the
/// paper ("Each CORDIC element has a latency of 20 clock cycles"): the
/// [`CORDIC_ITERATIONS`] micro-rotations behind an input register and
/// ahead of the gain-compensation multiply stage.
pub const CORDIC_LATENCY_CYCLES: u32 = engine::pipeline_latency(CORDIC_ITERATIONS);
