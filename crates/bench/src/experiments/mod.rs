//! Experiments E1–E17: one per figure/claim of the paper. See DESIGN.md's
//! per-experiment index for the mapping.

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e15;
mod e16;
mod e17;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;

pub use e1::e1_fig1_nonassociativity;
pub use e10::{e10_observability, e10_report};
pub use e11::{e11_parallel_campaign, e11_plan, e11_report};
pub use e12::{e12_report, e12_sim_engine};
pub use e13::{e13_crash_resume, e13_plan, e13_report};
pub use e14::{e14_report, e14_serve};
pub use e15::{e15_lane_batching, e15_report};
pub use e16::{e16_bytecode_vm, e16_report};
pub use e17::{e17_report, e17_word_rewriting};
pub use e2::e2_simulation_speed;
pub use e3::e3_sec_vs_simulation;
pub use e4::e4_timing_alignment;
pub use e5::e5_float_corner_cases;
pub use e6::e6_incremental_sec;
pub use e7::e7_model_conditioning;
pub use e8::e8_partitioned_sec;
pub use e9::e9_fault_robustness;

/// Runs one experiment by id (`"e1"`..`"e17"`); returns its report text.
pub fn run(id: &str) -> Option<String> {
    Some(match id {
        "e1" => e1_fig1_nonassociativity(),
        "e2" => e2_simulation_speed(),
        "e3" => e3_sec_vs_simulation(),
        "e4" => e4_timing_alignment(),
        "e5" => e5_float_corner_cases(),
        "e6" => e6_incremental_sec(),
        "e7" => e7_model_conditioning(),
        "e8" => e8_partitioned_sec(),
        "e9" => e9_fault_robustness(),
        "e10" => e10_observability(),
        "e11" => e11_parallel_campaign(),
        "e12" => e12_sim_engine(),
        "e13" => e13_crash_resume(),
        "e14" => e14_serve(),
        "e15" => e15_lane_batching(),
        "e16" => e16_bytecode_vm(),
        "e17" => e17_word_rewriting(),
        _ => return None,
    })
}

/// All experiment ids in order.
pub const ALL: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];
