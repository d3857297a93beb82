//! Standalone benchmark runner (no external harness).
//!
//! Usage:
//! ```text
//! cargo run --release -p dfv-bench --bin bench -- sim
//! cargo run --release -p dfv-bench --bin bench -- sim --smoke
//! cargo run --release -p dfv-bench --bin bench -- sim --batch
//! cargo run --release -p dfv-bench --bin bench -- sim --engine vm
//! cargo run --release -p dfv-bench --bin bench -- sim --out BENCH_sim.json --canonical /tmp/c.json
//! cargo run --release -p dfv-bench --bin bench -- sec
//! cargo run --release -p dfv-bench --bin bench -- sec --smoke --canonical /tmp/c.json
//! ```
//!
//! The `sim` subcommand runs the deterministic simulator workload sweep
//! (FIR, convolution, memory system) and writes the full report —
//! measured wall-clock included — to `BENCH_sim.json` (override with
//! `--out`). By default every scalar engine runs: the dirty-cone
//! interpreter, the register-bytecode VM, and the full-reevaluation
//! reference oracle; `--engine interp` or `--engine vm` restricts the
//! sweep to that compiled engine (the oracle always runs — it anchors
//! the output-hash parity assert). With `--batch` it additionally runs
//! the 64-lane batched campaign sweep (64 seeded streams per workload:
//! 64 scalar simulators vs one `LaneSim`) and folds its `sim_batch.*`
//! counters into the same report. With `--canonical PATH` it
//! additionally writes the timing-free canonical JSON, which is
//! byte-identical across runs and is what CI diffs. `--smoke` shrinks
//! the cycle counts for fast gating runs.
//!
//! The `sec` subcommand runs the miter-encoding sweep: every SEC
//! workload checked under the Reference and Rewritten encodings
//! with verdict and counterexample-location parity asserted inside the
//! harness, written to `BENCH_sec.json`. Same
//! `--smoke`/`--out`/`--canonical` contract.

use dfv_bench::{secbench, simbench};
use dfv_rtl::EvalMode;

/// Cycles per workload for a real measurement run.
const FULL_CYCLES: u64 = 20_000;
/// Cycles per workload in `--smoke` mode (CI gate).
const SMOKE_CYCLES: u64 = 500;
/// Cycles per stream in the batched sweep's full mode — the scalar side
/// runs 64 streams per workload, so this keeps a full run's wall-clock
/// comparable to the single-stream sweep's.
const FULL_BATCH_CYCLES: u64 = 2_000;
/// Cycles per stream in `--batch --smoke` mode.
const SMOKE_BATCH_CYCLES: u64 = 120;

fn usage() -> ! {
    eprintln!(
        "usage: bench sim [--smoke] [--batch] [--engine interp|vm] [--out PATH] [--canonical PATH]\n       bench sec [--smoke] [--out PATH] [--canonical PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sim") => run_sim(&args[1..]),
        Some("sec") => run_sec(&args[1..]),
        _ => usage(),
    }
}

fn run_sim(args: &[String]) {
    let mut smoke = false;
    let mut batch = false;
    let mut engines: Vec<EvalMode> = Vec::new();
    let mut out_path = String::from("BENCH_sim.json");
    let mut canonical_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--batch" => batch = true,
            "--engine" => match it.next().map(String::as_str) {
                Some("interp") => engines.push(EvalMode::DirtyCone),
                Some("vm") => engines.push(EvalMode::Bytecode),
                _ => usage(),
            },
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--canonical" => canonical_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    if engines.is_empty() {
        engines.extend(simbench::ALL_ENGINES);
    }
    let cycles = if smoke { SMOKE_CYCLES } else { FULL_CYCLES };
    let mut rep = simbench::sim_bench_report_engines(cycles, &engines);
    print!("{}", simbench::render_sim_bench(&rep));
    if batch {
        let batch_cycles = if smoke {
            SMOKE_BATCH_CYCLES
        } else {
            FULL_BATCH_CYCLES
        };
        simbench::add_batch_sweep(&mut rep, batch_cycles);
        print!("\n{}", simbench::render_sim_batch(&rep));
    }
    std::fs::write(&out_path, rep.full_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nfull report (with timing) written to {out_path}");
    if let Some(p) = canonical_path {
        std::fs::write(&p, rep.canonical_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(1);
        });
        println!("canonical report (deterministic) written to {p}");
    }
}

fn run_sec(args: &[String]) {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_sec.json");
    let mut canonical_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = it.next().cloned().unwrap_or_else(|| usage()),
            "--canonical" => canonical_path = Some(it.next().cloned().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let rep = secbench::sec_bench_report(smoke);
    print!("{}", secbench::render_sec_bench(&rep));
    std::fs::write(&out_path, rep.full_json()).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("\nfull report (with timing) written to {out_path}");
    if let Some(p) = canonical_path {
        std::fs::write(&p, rep.canonical_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {p}: {e}");
            std::process::exit(1);
        });
        println!("canonical report (deterministic) written to {p}");
    }
}
