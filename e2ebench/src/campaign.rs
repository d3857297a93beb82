//! `campaign_cold` and `campaign_incremental`: `Campaign::run` over seeded
//! plans, cold (fresh cache and journal every iteration) and warm (one
//! persisted cache, one seeded block edited per re-verify). Cache and
//! journal live in an in-memory file system (see [`crate::memfs`]).

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dfv::bits::SplitMix64;
use dfv::core::{Campaign, CampaignOptions, CampaignReport, IoHandle, VerificationPlan};

use crate::blocks::{self, front_end, plan_of, Expect, Planned};
use crate::memfs::MemFs;
use crate::stats::{self, Metric};
use crate::trace::{self, Tracer};
use crate::{measure, repeat_setup, trim_heap, Ctx, Outcome, Phase, WORKERS};

/// Cache and journal paths inside the in-memory file system behind `io`.
struct Files {
    io: IoHandle,
    cache: &'static Path,
    journal: &'static Path,
}

impl Files {
    fn new() -> Files {
        Files {
            io: MemFs::handle(),
            cache: Path::new("campaign.cache"),
            journal: Path::new("campaign.journal"),
        }
    }

    fn options(&self) -> CampaignOptions {
        CampaignOptions {
            workers: Some(WORKERS),
            cache_path: Some(self.cache.to_path_buf()),
            journal_path: Some(self.journal.to_path_buf()),
            io: self.io.clone(),
            ..CampaignOptions::default()
        }
    }

    fn remove_journal(&self) {
        let _ = self.io.shim().remove(self.journal);
    }

    fn remove_all(&self) {
        self.remove_journal();
        let _ = self.io.shim().remove(self.cache);
    }
}

/// Applies the `--inject` fault: the first passing block is expected to
/// fail, which the verdict check must catch.
fn inject(ctx: &Ctx, planned: &mut [Planned]) {
    if ctx.inject {
        if let Some(p) = planned.iter_mut().find(|p| p.expect == Expect::Pass) {
            p.expect = Expect::Fig1Bug;
        }
    }
}

/// Every verdict against its expectation; no crash, error or inconclusive
/// gets through.
fn check(report: &CampaignReport, planned: &[Planned]) -> Result<(), String> {
    if report.blocks.len() != planned.len() {
        return Err(format!(
            "{} verdicts for {} blocks",
            report.blocks.len(),
            planned.len()
        ));
    }
    for (r, p) in report.blocks.iter().zip(planned) {
        if r.name != p.block.name {
            return Err(format!(
                "verdict for {} in the slot of {}",
                r.name, p.block.name
            ));
        }
        blocks::check_verdict(r, p.expect)?;
    }
    Ok(())
}

/// Per-layer sums over the traced window's campaign runs.
#[derive(Default)]
struct CampaignLayers {
    runs: u64,
    blocks: u64,
    hits: u64,
    overhead_us: f64,
    check_us: f64,
    vars: f64,
    clauses: f64,
    conflicts: f64,
    decisions: f64,
    propagations: f64,
}

impl CampaignLayers {
    fn add(&mut self, report: &CampaignReport) {
        self.runs += 1;
        self.blocks += report.blocks.len() as u64;
        self.hits += report.cache_hits() as u64;
        // Wall time the workers did not spend checking blocks: the
        // campaign's own work plus load imbalance between the workers.
        let busy: Duration = report.blocks.iter().map(|b| b.duration).sum();
        self.overhead_us +=
            (report.duration.as_secs_f64() - busy.as_secs_f64() / WORKERS as f64) * 1e6;
        for e in report
            .blocks
            .iter()
            .filter_map(|b| b.equiv.as_ref().filter(|_| !b.from_cache))
        {
            self.check_us += e.duration.as_secs_f64() * 1e6;
            self.vars += e.cnf_vars as f64;
            self.clauses += e.cnf_clauses as f64;
            self.conflicts += e.solver_stats.conflicts as f64;
            self.decisions += e.solver_stats.decisions as f64;
            self.propagations += e.solver_stats.propagations as f64;
        }
    }

    /// Per-run averages, plus the span self times of the traced calls.
    fn finish(&self, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
        let n = self.runs.max(1) as f64;
        let spans = tracer.spans();
        let by = trace::self_time_by_name(&spans);
        let span_us = |name: &str| by.get(name).map_or(0.0, |&(ns, _)| ns as f64 / 1e3) / n;
        let mut m = BTreeMap::new();
        for (k, span) in [
            ("slmir.parse_us", "slmir.parse"),
            ("slmir.lint_us", "slmir.lint"),
            ("slmir.elaborate_us", "slmir.elaborate"),
            ("core.content_hash_us", "core.content_hash"),
            ("core.cache_load_us", "core.cache_load"),
        ] {
            m.insert(k, span_us(span));
        }
        m.insert("core.campaign_overhead_us", self.overhead_us / n);
        m.insert(
            "core.cache_hit_ratio",
            self.hits as f64 / self.blocks.max(1) as f64,
        );
        m.insert("sec.check_us", self.check_us / n);
        m.insert("sec.cnf_vars", self.vars / n);
        m.insert("sec.cnf_clauses", self.clauses / n);
        m.insert("sat.conflicts", self.conflicts / n);
        m.insert("sat.decisions", self.decisions / n);
        m.insert("sat.propagations", self.propagations / n);
        let secs = self.check_us / 1e6;
        m.insert(
            "sat.propagations_per_s",
            if secs > 0.0 {
                self.propagations / secs
            } else {
                0.0
            },
        );
        m
    }
}

/// Times one campaign construction (which loads the persisted cache) and
/// run, under spans in a traced window.
fn timed_run(
    tr: &Tracer,
    op: u64,
    group: u64,
    opts: CampaignOptions,
    plan: &VerificationPlan,
) -> CampaignReport {
    let t = Instant::now();
    let mut campaign = Campaign::with_options(opts);
    tr.span("core.cache_load", Some(op), group, t);
    let t = Instant::now();
    let report = campaign.run(plan);
    tr.span("core.campaign_run", Some(op), group, t);
    report
}

/// The `campaign_cold` plan: the unswept multiplier cliff first, so the
/// two workers start on the long blocks, then the seeded cheap blocks.
fn cold_plan(seed: u64) -> Vec<Planned> {
    let mut rng = SplitMix64::new(seed ^ 0xC01D);
    let mut plan = vec![
        blocks::mul("madd6", 6, true),
        blocks::mul("mul6", 6, false),
        blocks::mul("madd5", 5, true),
        blocks::mul("mul5", 5, false),
        blocks::conv("conv"),
        blocks::fir("fir"),
        blocks::mul("madd4", 4, true),
        blocks::mul("mul4", 4, false),
    ];
    let table = blocks::table(&mut rng);
    let mut cheap = vec![
        blocks::alu("alu"),
        blocks::alu_bug("alu_fig1"),
        blocks::memsys("memsys_fast", &table, true),
        blocks::memsys("memsys_slow", &table, false),
    ];
    // Seeded order of the cheap tail (Fisher-Yates).
    for i in (1..cheap.len()).rev() {
        cheap.swap(i, rng.below(i as u64 + 1) as usize);
    }
    plan.extend(cheap);
    plan
}

fn is_mul(name: &str) -> bool {
    name.starts_with("mul") || name.starts_with("madd")
}

pub fn cold(ctx: &Ctx) -> Result<Outcome, String> {
    let files = Files::new();
    let (planned, setup_s) = repeat_setup(ctx, || {
        let mut planned = cold_plan(ctx.seed);
        inject(ctx, &mut planned);
        // Warm-up: one cold run, checked.
        files.remove_all();
        let report = Campaign::with_options(files.options()).run(&plan_of(&planned));
        check(&report, &planned)?;
        Ok(planned)
    })?;
    let plan = plan_of(&planned);
    let mut mul_share = (0.0, 0.0);
    let (untraced, traced) = measure(ctx, |tr, window| {
        let mut phase = Phase::default();
        let mut layers = CampaignLayers::default();
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < window {
            files.remove_all();
            trim_heap();
            let op = tr.id();
            let t = Instant::now();
            let report = timed_run(tr, op, i, files.options(), &plan);
            let dt = t.elapsed();
            tr.record(op, "op", None, i, t, Instant::now());
            phase.attempted += 1;
            check(&report, &planned)?;
            phase.op_ms.push(dt.as_secs_f64() * 1e3);
            phase
                .work_rates
                .push(report.blocks.len() as f64 / dt.as_secs_f64());
            for b in &report.blocks {
                let d = b.duration.as_secs_f64();
                mul_share.1 += d;
                if is_mul(&b.name) {
                    mul_share.0 += d;
                }
            }
            if tr.is_on() {
                layers.add(&report);
                for b in &plan.blocks {
                    front_end(tr, op, i, b);
                    let t = Instant::now();
                    std::hint::black_box(b.content_hash());
                    tr.span("core.content_hash", Some(op), i, t);
                }
            }
            ctx.calib.tick();
            i += 1;
        }
        phase.named.push(Metric::new(
            "campaign_s",
            stats::median_of(&phase.op_ms) / 1e3,
            "s",
            phase.op_ms.len(),
        ));
        phase.layers = layers.finish(tr);
        Ok(phase)
    })?;
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        notes: vec![Metric::new(
            "mul_madd_share_of_block_time",
            mul_share.0 / mul_share.1.max(1e-12),
            "ratio",
            planned.iter().filter(|p| is_mul(&p.block.name)).count(),
        )],
    })
}

/// Tables in the incremental plan; each yields a fast and a slow block.
const INCR_TABLES: usize = 18;

/// The warm campaign's state between re-verifies.
struct Warm {
    planned: Vec<Planned>,
    tables: Vec<[u8; 16]>,
    campaign: Campaign,
    rng: SplitMix64,
}

impl Warm {
    /// Edits one seeded memsys block (one table entry changes to a new
    /// value) and returns its index in the plan.
    fn edit(&mut self) -> usize {
        let t = self.rng.below(INCR_TABLES as u64) as usize;
        let fast = self.rng.next_bool();
        let slot = 2 * t + usize::from(!fast);
        let entry = self.rng.below(16) as usize;
        // Any of the 255 other values: the content always changes.
        let old = self.tables[slot][entry];
        self.tables[slot][entry] = (old as u64 + 1 + self.rng.below(255)) as u8;
        let name = self.planned[slot].block.name.clone();
        let expect = self.planned[slot].expect;
        self.planned[slot] = blocks::memsys(&name, &self.tables[slot], fast);
        self.planned[slot].expect = expect;
        slot
    }
}

/// The ~40-block plan: 36 memsys banks over seeded tables, the Fig 1
/// pair, and the two signal-processing blocks.
fn incremental_plan(rng: &mut SplitMix64) -> (Vec<Planned>, Vec<[u8; 16]>) {
    let mut planned = Vec::new();
    let mut tables = Vec::new();
    for t in 0..INCR_TABLES {
        let table = blocks::table(rng);
        for fast in [true, false] {
            let name = format!("mem{t:02}_{}", if fast { "fast" } else { "slow" });
            planned.push(blocks::memsys(&name, &table, fast));
            tables.push(table);
        }
    }
    planned.push(blocks::alu("alu"));
    planned.push(blocks::alu_bug("alu_fig1"));
    planned.push(blocks::fir("fir"));
    planned.push(blocks::conv("conv"));
    (planned, tables)
}

/// One re-verify: the edited block is recomputed, every other block is a
/// cache hit, and every verdict matches.
fn check_incremental(
    report: &CampaignReport,
    planned: &[Planned],
    edited: usize,
) -> Result<(), String> {
    check(report, planned)?;
    for (i, b) in report.blocks.iter().enumerate() {
        if b.from_cache == (i == edited) {
            return Err(format!(
                "{}: {} after editing {}",
                b.name,
                if b.from_cache {
                    "cache hit"
                } else {
                    "recomputed"
                },
                planned[edited].block.name
            ));
        }
    }
    Ok(())
}

const WARMUP_EDITS: usize = 500;
/// Re-verifies per `work_per_s` sample.
const RATE_BATCH: usize = 50;

pub fn incremental(ctx: &Ctx) -> Result<Outcome, String> {
    let files = Files::new();
    let setup_tracer = Tracer::new(ctx.trace);
    let (mut warm, setup_s) = repeat_setup(ctx, || {
        let mut rng = SplitMix64::new(ctx.seed ^ 0x1AC4);
        let (mut planned, tables) = incremental_plan(&mut rng);
        inject(ctx, &mut planned);
        files.remove_all();
        let first = Campaign::with_options(files.options()).run(&plan_of(&planned));
        check(&first, &planned)?;
        files.remove_journal();
        // A fresh process's view: construct from the persisted cache.
        let t = Instant::now();
        let campaign = Campaign::with_options(files.options());
        setup_tracer.span("core.cache_load", None, 0, t);
        let mut warm = Warm {
            planned,
            tables,
            campaign,
            rng,
        };
        for _ in 0..WARMUP_EDITS {
            let edited = warm.edit();
            let report = warm.campaign.run(&plan_of(&warm.planned));
            files.remove_journal();
            check_incremental(&report, &warm.planned, edited)?;
        }
        Ok(warm)
    })?;
    let cache_load_us = {
        let spans = setup_tracer.spans();
        let by = trace::self_time_by_name(&spans);
        by.get("core.cache_load")
            .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
    };
    let (untraced, traced) = measure(ctx, |tr, window| {
        let mut phase = Phase::default();
        let mut layers = CampaignLayers::default();
        let mut batch = (0usize, 0.0f64);
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < window {
            let edited = warm.edit();
            let plan = plan_of(&warm.planned);
            let op = tr.id();
            let t = Instant::now();
            let report = warm.campaign.run(&plan);
            let ran = Instant::now();
            files.remove_journal();
            let dt = t.elapsed();
            tr.record(op, "op", None, i, t, Instant::now());
            phase.attempted += 1;
            check_incremental(&report, &warm.planned, edited)?;
            phase.op_ms.push(dt.as_secs_f64() * 1e3);
            batch.0 += 1;
            batch.1 += dt.as_secs_f64();
            if batch.0 == RATE_BATCH {
                phase.work_rates.push(batch.0 as f64 / batch.1);
                batch = (0, 0.0);
                trim_heap();
            }
            if tr.is_on() {
                tr.record(tr.id(), "core.campaign_run", Some(op), i, t, ran);
                layers.add(&report);
                front_end(tr, op, i, &plan.blocks[edited]);
                let t = Instant::now();
                for b in &plan.blocks {
                    std::hint::black_box(b.content_hash());
                }
                tr.span("core.content_hash", Some(op), i, t);
            }
            ctx.calib.tick();
            i += 1;
        }
        phase.named = stats::latency_metrics("reverify_ms", &mut phase.op_ms.clone(), "ms");
        phase.layers = layers.finish(tr);
        phase.layers.insert("core.cache_load_us", cache_load_us);
        Ok(phase)
    })?;
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        notes: Vec::new(),
    })
}
