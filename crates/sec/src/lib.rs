//! Sequential equivalence checking (SEC) between system-level models and
//! RTL, plus bounded model checking — the from-scratch replacement for the
//! commercial SEC tooling the paper (DAC 2007, §2) builds its methodology
//! on.
//!
//! The flow: a *combinational* SLM module (produced from conditioned SLM-C
//! source by `dfv-slmir`'s elaborator) is compared against a sequential RTL
//! module over one *transaction* — `k` RTL cycles with an explicit input
//! mapping and output sample points ([`EquivSpec`]). Both sides are
//! symbolically evaluated into SAT literals (`dfv-sat`), a miter asserts
//! some compare point differs, and:
//!
//! * **UNSAT** proves the models equivalent for *all* inputs satisfying the
//!   constraints — the paper's "transfer the high level of confidence in
//!   the functional correctness of the SLM to the RTL blocks";
//! * **SAT** yields a counterexample, which the checker *replays
//!   concretely* on both simulators before returning it, so every reported
//!   divergence is a real, reproducible one.
//!
//! See [`check_equivalence`] for an end-to-end example and
//! [`check_property`] for bounded model checking of safety invariants.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitblast;
mod bmc;
mod equiv;
mod spec;
mod unroll;

pub use bitblast::{model_word, BitBlaster};
pub use bmc::{
    check_property, check_property_budgeted, check_property_observed, BmcOutcome, BmcReport,
    PropertyTrace,
};
pub use equiv::{
    check_equivalence, check_equivalence_observed, check_equivalence_per_output,
    check_equivalence_per_output_with, check_equivalence_with, CheckOptions, Counterexample,
    Encoding, EquivOutcome, EquivReport, FalsificationSummary, Mismatch, OutputVerdict,
    PerOutputReport, RewriteStats,
};
pub use spec::{Binding, ComparePoint, EquivSpec, InitState, SecError};
pub use unroll::{eval_comb_symbolic, SymbolicCycle, SymbolicSim, MEM_BLAST_LIMIT};

// Re-exported so budgeted callers don't need a direct `dfv-sat` dependency.
pub use dfv_sat::{Budget, ExhaustedReason};
