//! End-to-end benchmark of the dfv flows a user runs.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` and `e2ebench/LAYERS.md`):
//! `campaign_cold`, `campaign_incremental`, `serve_open_loop`,
//! `sim_regression`. Every workload builds its inputs from `--seed`, sets
//! up five times (the median is `setup_s`), computes its correctness
//! oracles, then measures for `--seconds`. The gated timings are scaled
//! to the reference speed of a calibration kernel timed alongside the
//! work (see `calib.rs`). Every output is checked; a
//! wrong verdict or an oracle mismatch fails the run before any number is
//! printed. With `--trace 1` the window is split into an untraced half
//! and a traced half: the traced half records spans around the
//! benchmark's calls into each crate, writes them to
//! `.bench_work/trace-<workload>-<seed>.jsonl`, and prints the per-layer
//! metrics (self times and the counters those calls return) plus the
//! tracing overhead. The last line of standard output is one JSON object.

mod blocks;
mod calib;
mod campaign;
mod memfs;
mod openloop;
mod serve;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use calib::Calib;
use stats::{median_of, Metric};
use trace::Tracer;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Campaign worker threads, and the most threads any workload runs at
/// once besides its own generator and reader threads.
pub const WORKERS: usize = 2;

/// The end-to-end metrics every workload reports, with their units.
/// What `op_ms_p50` and `work_per_s` count differs per workload; the
/// workload-specific names are printed alongside. All but `peak_rss_mb`
/// are scaled to the calibration kernel's reference speed.
const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("work_per_s", "1/s"),
];

/// The per-layer metrics, with units. Each traced run prints all of them;
/// a layer its workload does not exercise reads 0.
const LAYERS: [(&str, &str); 30] = [
    ("slmir.parse_us", "us"),
    ("slmir.lint_us", "us"),
    ("slmir.elaborate_us", "us"),
    ("slmir.interp_us_per_txn", "us"),
    ("core.content_hash_us", "us"),
    ("core.campaign_overhead_us", "us"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_load_us", "us"),
    ("sec.check_us", "us"),
    ("sec.cnf_vars", "count"),
    ("sec.cnf_clauses", "count"),
    ("sat.conflicts", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.propagations_per_s", "1/s"),
    ("rtl.sim_build_us", "us"),
    ("rtl.step_ns", "ns"),
    ("rtl.node_evals_per_cycle", "count"),
    ("rtl.lanes.step_ns", "ns"),
    ("rtl.lanes.node_evals_per_cycle", "count"),
    ("cosim.compare_ns_per_item", "ns"),
    ("serve.frame_write_us", "us"),
    ("serve.frame_read_us", "us"),
    ("serve.submit_frame_bytes", "bytes"),
    ("serve.admission_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.dedup_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("trace.overhead_pct", "%"),
];

/// The run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Corrupt one expectation (a verdict in the campaign workloads, an
    /// oracle value in the others) to show that the gates fail the run.
    pub inject: bool,
    /// Scratch directory inside the checkout for caches, journals and
    /// the span file.
    pub work: PathBuf,
    /// The calibration kernel's timings; workloads call
    /// `ctx.calib.tick()` between operations.
    pub calib: Calib,
    /// When set-up and each measured window ran, by name (`setup`,
    /// `untraced`, `traced`), for the calibration scale.
    ranges: Mutex<BTreeMap<&'static str, (Instant, Instant)>>,
}

impl Ctx {
    fn mark(&self, name: &'static str, from: Instant) {
        let range = (from, Instant::now());
        self.ranges.lock().expect("ranges lock").insert(name, range);
    }

    /// The calibration scale over the range `name` ran in, with its
    /// sample count.
    fn scale(&self, name: &str) -> (f64, usize) {
        match self.ranges.lock().expect("ranges lock").get(name) {
            Some(&(from, to)) => self.calib.scale(from, to),
            None => (1.0, 0),
        }
    }
}

/// What one measured window produced.
#[derive(Default)]
pub struct Phase {
    /// Latency of each operation, in ms.
    pub op_ms: Vec<f64>,
    /// Work rates, each over one slice of the window (an operation or a
    /// batch of them); `work_per_s` is their median.
    pub work_rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific end-to-end numbers, printed by name.
    pub named: Vec<Metric>,
    /// Per-layer values, by the names in [`LAYERS`].
    pub layers: BTreeMap<&'static str, f64>,
}

/// A workload's result: its set-up times and its measured window(s).
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    pub traced: Option<(Phase, Tracer)>,
    /// Further named numbers (oracle time, first-run observations).
    pub notes: Vec<Metric>,
}

/// Calibration probes before each set-up.
const SETUP_PROBES: usize = 4;

/// Hands the allocator's free pages back to the system. Workloads call it
/// between operations (outside the timed part) and before each set-up,
/// so the resident peak follows the live heap. Without it the campaign
/// workers' arenas could each keep the largest footprint they had ever
/// hosted: `campaign_cold`'s peak resident set read 10.5 to 14.0 MB over
/// ten seeds of the same work, and 10.1 to 10.5 MB with it.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only releases free memory held by glibc's
        // arenas; no live allocation is touched.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, timing each, and keeps the last
/// state.
pub fn repeat_setup<S>(
    ctx: &Ctx,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let from = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        trim_heap();
        (0..SETUP_PROBES).for_each(|_| ctx.calib.probe());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    ctx.mark("setup", from);
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Measures the window once untraced, or, in a traced run, half untraced
/// and half traced.
pub fn measure(
    ctx: &Ctx,
    mut run: impl FnMut(&Tracer, Duration) -> Result<Phase, String>,
) -> Result<(Phase, Option<(Phase, Tracer)>), String> {
    let mut timed = |name: &'static str, tr: &Tracer, window: Duration| {
        let from = Instant::now();
        let phase = run(tr, window);
        ctx.mark(name, from);
        phase
    };
    if !ctx.trace {
        return Ok((timed("untraced", &Tracer::new(false), ctx.window)?, None));
    }
    let half = ctx.window / 2;
    let untraced = timed("untraced", &Tracer::new(false), half)?;
    let tracer = Tracer::new(true);
    let traced = timed("traced", &tracer, half)?;
    Ok((untraced, Some((traced, tracer))))
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || val.parse::<u64>().map_err(|e| format!("{flag} {val}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = num()? != 0,
            "--inject" => inject = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        inject,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn print_metric(m: &Metric) {
    println!(
        "# {:<34} {:>16.6} {:<6} n={}",
        m.name, m.value, m.unit, m.samples
    );
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("e2ebench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        trace: args.trace,
        inject: args.inject,
        work: work.clone(),
        // The co-simulation runs on one thread; the other workloads keep
        // both cores busy.
        calib: Calib::new(if args.workload == "sim_regression" {
            1
        } else {
            WORKERS
        }),
        ranges: Mutex::new(BTreeMap::new()),
    };
    let result = match args.workload.as_str() {
        "campaign_cold" => campaign::cold(&ctx),
        "campaign_incremental" => campaign::incremental(&ctx),
        "serve_open_loop" => serve::run(&ctx),
        "sim_regression" => sim::run(&ctx),
        w => Err(format!("unknown workload {w:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {}: FAILED: {e}", args.workload);
            println!("{}", result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    report(&args, &ctx, out)
}

fn report(args: &Args, ctx: &Ctx, out: Outcome) -> ExitCode {
    let u = &out.untraced;
    let (setup_scale, setup_probes) = ctx.scale("setup");
    let (scale, probes) = ctx.scale("untraced");
    let raw = [
        median_of(&out.setup_s),
        median_of(&u.op_ms),
        median_of(&u.work_rates),
    ];
    let values = [
        (raw[0] * setup_scale, out.setup_s.len()),
        (peak_rss_mb(), 1),
        (raw[1] * scale, u.op_ms.len()),
        (raw[2] / scale, u.work_rates.len()),
    ];
    let e2e: Vec<Metric> = E2E
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, n))| Metric::new(name, v, unit, n))
        .collect();
    let (attempted, failed) = (
        u.attempted + out.traced.as_ref().map_or(0, |t| t.0.attempted),
        u.failed + out.traced.as_ref().map_or(0, |t| t.0.failed),
    );
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let unscaled = [
        Metric::new("setup_s_unscaled", raw[0], "s", out.setup_s.len()),
        Metric::new("op_ms_p50_unscaled", raw[1], "ms", u.op_ms.len()),
        Metric::new("work_per_s_unscaled", raw[2], "1/s", u.work_rates.len()),
        Metric::new("speed_scale_setup", setup_scale, "ratio", setup_probes),
        Metric::new("speed_scale", scale, "ratio", probes),
    ];
    for m in e2e
        .iter()
        .chain(&unscaled)
        .chain(&u.named)
        .chain(&out.notes)
    {
        print_metric(m);
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    print_metric(&Metric::new(
        "failed_frac",
        failed_frac,
        "ratio",
        attempted as usize,
    ));
    let metrics = match &out.traced {
        None => e2e,
        Some((t, tracer)) => {
            let spans = tracer.spans();
            let path = PathBuf::from(".bench_work")
                .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
            if let Err(e) = trace::write(&spans, &path) {
                eprintln!("e2ebench: writing {}: {e}", path.display());
            }
            let traced_scale = ctx.scale("traced").0;
            let (base, traced) = (
                median_of(&u.op_ms) * scale,
                median_of(&t.op_ms) * traced_scale,
            );
            let overhead = if base > 0.0 && traced > 0.0 {
                (traced / base - 1.0) * 100.0
            } else {
                0.0
            };
            let mut layers = t.layers.clone();
            layers.insert("trace.overhead_pct", overhead);
            let metrics: Vec<Metric> = LAYERS
                .iter()
                .map(|&(name, unit)| {
                    Metric::new(
                        name,
                        layers.get(name).copied().unwrap_or(0.0),
                        unit,
                        t.op_ms.len(),
                    )
                })
                .collect();
            println!(
                "# traced half ({} spans -> {}):",
                spans.len(),
                path.display()
            );
            for m in t.named.iter().chain(&metrics) {
                print_metric(m);
            }
            metrics
        }
    };
    println!("{}", result_line(true, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
