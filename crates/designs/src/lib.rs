//! Paired SLM + RTL reference designs shared by the examples, integration
//! tests, and benchmark harness.
//!
//! Each module holds one design pair from DESIGN.md's inventory, chosen to
//! exercise a distinct consistency challenge from the paper:
//!
//! | module | paper hook |
//! |--------|-----------|
//! | [`alu`] | Fig 1 — narrow-adder non-associativity vs `int`-style C masking |
//! | [`fir`] | §1 word-width exploration, §3.2 streams + stalls |
//! | [`conv`] | §3.2 parallel (whole-image) SLM vs serial (pixel-stream) RTL |
//! | [`dist`] | §4.1 a bit-accurate datapath equal to its RTL but hard for bit-level SAT |
//! | [`memsys`] | §3.2 variable latency and out-of-order completion |
//! | [`fpmac`] | §3.1.2 reduced-IEEE hardware floating point |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alu;
pub mod conv;
pub mod dist;
pub mod fir;
pub mod fpmac;
pub mod memsys;
