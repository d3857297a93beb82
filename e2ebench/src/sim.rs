//! `sim_regression`: seeded SLM-vs-RTL co-simulation of `fir`, `conv` and
//! `memsys` (`Interp::new` golden model, `WrappedRtl::new` with
//! transactors, the matching comparator), then a 64-lane
//! `StimulusSweep` over the same designs. Every round's streams and every
//! sweep digest are checked against oracles computed in setup on the
//! reference engines: `Simulator::new_reference` for the RTL and the
//! tree-walking `Interp` for the SLM.

use std::collections::BTreeMap;
use std::time::Instant;

use dfv::bits::{Bv, SplitMix64};
use dfv::core::StimulusSweep;
use dfv::cosim::{
    Comparator, FieldSpec, InOrderComparator, InputTransactor, OutOfOrderComparator,
    OutputTransactor, SerialCollector, SerialDriver, StimulusGen, StreamItem, Transaction,
    WrappedRtl,
};
use dfv::designs::{conv, fir, memsys};
use dfv::rtl::{Module, Simulator};
use dfv::slmir::{Interp, Program, ScalarTy, Value};

use crate::stats::{self, Metric};
use crate::trace::{self, Tracer};
use crate::{measure, repeat_setup, Ctx, Outcome, Phase, WORKERS};

/// Distinct stimulus rounds precomputed with their oracles; the measured
/// window cycles through them.
const ROUNDS: usize = 8;
const FIR_BLOCKS: usize = 8;
const CONV_TILES: usize = 4;
const MEM_BURSTS: usize = 2;
const BURST: usize = 16;
/// Sweep geometry: one full 64-lane group per design.
const SCENARIOS: usize = 64;
const SWEEP_CYCLES: usize = 96;
/// Distinct sweep seeds precomputed with their oracles.
const SWEEPS: usize = 2;
/// Set-up runs every round and every sweep this many times.
const WARMUP_PASSES: usize = 4;

/// FNV-1a, the digest the sweep itself uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn bv(&mut self, v: &Bv) {
        self.write(&v.width().to_le_bytes());
        for limb in v.limbs() {
            self.write(&limb.to_le_bytes());
        }
    }
}

/// Packs words LSB-first into one vector, as the serial transactors do.
fn pack(words: &[Bv]) -> Bv {
    let mut out = words[0].clone();
    for w in &words[1..] {
        out = w.concat(&out);
    }
    out
}

/// Drives one memsys request per cycle from a packed burst
/// (`tag:3 | addr:4` per request), then idles.
struct BurstDriver {
    reqs: Vec<(u64, u64)>,
    next: usize,
}

impl InputTransactor for BurstDriver {
    fn load(&mut self, txn: &Transaction) {
        let burst = &txn["burst"];
        self.reqs = (0..BURST as u32)
            .map(|i| {
                let r = burst.slice(i * 7 + 6, i * 7).to_u64();
                (r >> 4, r & 0xF)
            })
            .collect();
        self.next = 0;
    }

    fn drive(&mut self, sim: &mut Simulator) -> bool {
        let Some(&(tag, addr)) = self.reqs.get(self.next) else {
            sim.poke("req_valid", Bv::from_bool(false));
            return false;
        };
        sim.poke("req_valid", Bv::from_bool(true));
        sim.poke("tag", Bv::from_u64(memsys::TAG_W, tag));
        sim.poke("addr", Bv::from_u64(memsys::ADDR_W, addr));
        self.next += 1;
        true
    }
}

/// Collects tagged responses from both banks until the burst is answered.
struct ResponseMonitor {
    got: usize,
}

impl OutputTransactor for ResponseMonitor {
    fn sample(&mut self, sim: &mut Simulator, cycle: u64, out: &mut Vec<(String, Bv, u64)>) {
        for port in ["resp0", "resp1"] {
            if sim.output(&format!("{port}_valid")).bit(0) {
                let tag = sim.output(&format!("{port}_tag")).to_u64();
                let data = sim.output(&format!("{port}_data")).to_u64();
                out.push(("resp".into(), memsys::pack_response(tag, data), cycle));
                self.got += 1;
            }
        }
    }

    fn done(&self) -> bool {
        self.got >= BURST
    }

    fn begin_transaction(&mut self) {
        self.got = 0;
    }
}

/// One round's stimulus.
#[derive(Clone)]
struct Round {
    fir: Vec<Vec<i64>>,
    conv: Vec<Vec<u64>>,
    mem: Vec<Vec<(u64, u64)>>,
}

fn gen_round(rng: &mut SplitMix64) -> Round {
    Round {
        fir: (0..FIR_BLOCKS)
            .map(|_| (0..fir::BLOCK).map(|_| rng.range_i64(-128, 127)).collect())
            .collect(),
        conv: (0..CONV_TILES)
            .map(|_| (0..conv::PIXELS).map(|_| rng.below(256)).collect())
            .collect(),
        mem: (0..MEM_BURSTS)
            .map(|_| (0..BURST as u64).map(|i| (i % 8, rng.below(16))).collect())
            .collect(),
    }
}

/// The three wrapped designs and their parsed SLM programs.
struct Rig {
    fir: WrappedRtl,
    conv: WrappedRtl,
    mem: WrappedRtl,
}

fn wrap(fir_m: Module, conv_m: Module, mem_m: Module, build: impl Fn(Module) -> WrappedRtl) -> Rig {
    Rig {
        fir: build(fir_m)
            .with_driver(SerialDriver::new("xs", "x", "in_valid", 8))
            .with_monitor(SerialCollector::new("ys", "y", "out_valid", fir::BLOCK)),
        conv: build(conv_m)
            .with_driver(SerialDriver::new("img", "pix_in", "in_valid", 8))
            .with_monitor(SerialCollector::new(
                "res",
                "pix_out",
                "out_valid",
                conv::PIXELS,
            )),
        mem: build(mem_m)
            .with_driver(BurstDriver {
                reqs: Vec::new(),
                next: 0,
            })
            .with_monitor(ResponseMonitor { got: 0 }),
    }
}

struct Programs {
    fir: Program,
    conv: Program,
    mem: Program,
}

/// Digests of one round: the SLM stream and the RTL stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundDigest {
    slm: u64,
    rtl: u64,
}

/// Work counters of one round.
#[derive(Default)]
struct RoundWork {
    txns: u64,
    cycles: u64,
    node_evals: u64,
    items: u64,
}

fn u8t() -> ScalarTy {
    ScalarTy {
        width: 8,
        signed: false,
    }
}

fn slm_array(r: &dfv::slmir::RunResult) -> Result<Bv, String> {
    match r.outs.first() {
        Some((_, Value::Array(words, _))) => Ok(pack(words)),
        _ => Err("SLM result has no out array".into()),
    }
}

/// Runs one round through golden model, wrapped RTL and comparator.
/// Spans (traced windows) are children of `op`.
fn run_round(
    rig: &mut Rig,
    progs: &Programs,
    round: &Round,
    tr: &Tracer,
    op: u64,
    group: u64,
) -> Result<(RoundDigest, RoundWork), String> {
    let (mut slm_h, mut rtl_h) = (Fnv::new(), Fnv::new());
    let mut work = RoundWork::default();
    // One transaction of one design: golden, RTL, then comparator.
    let mut txn = |wrapped: &mut WrappedRtl,
                   cmp: &mut dyn Comparator,
                   golden: Vec<Bv>,
                   stim: Transaction,
                   work: &mut RoundWork|
     -> Result<(), String> {
        // Every transaction starts from reset, so a round's streams do
        // not depend on which rounds ran before it.
        wrapped.sim_mut().reset();
        let (c0, e0) = (wrapped.total_cycles(), wrapped.sim_mut().stats().node_evals);
        let t = Instant::now();
        let outs = wrapped.run_transaction(&stim);
        tr.span("rtl.wrapped_txn", Some(op), group, t);
        work.cycles += wrapped.total_cycles() - c0;
        work.node_evals += wrapped.sim_mut().stats().node_evals.saturating_sub(e0);
        let t = Instant::now();
        for (i, g) in golden.iter().enumerate() {
            slm_h.bv(g);
            cmp.push_expected(StreamItem {
                value: g.clone(),
                time: i as u64,
            });
        }
        for (name, v, cycle) in &outs {
            rtl_h.write(name.as_bytes());
            rtl_h.bv(v);
            rtl_h.write(&cycle.to_le_bytes());
            cmp.push_actual(StreamItem {
                value: v.clone(),
                time: *cycle,
            });
        }
        tr.span("cosim.compare", Some(op), group, t);
        work.items += golden.len() as u64;
        Ok(())
    };
    let interp = |prog: &Program, entry: &str, args: &[Value], work: &mut RoundWork| {
        let t = Instant::now();
        let r = Interp::new(prog)
            .run(entry, args)
            .map_err(|e| format!("{entry}: {e}"));
        tr.span("slmir.interp", Some(op), group, t);
        work.txns += 1;
        r
    };

    let mut cmp = InOrderComparator::default();
    for xs in &round.fir {
        let words: Vec<Bv> = xs.iter().map(|&x| Bv::from_i64(8, x)).collect();
        let s8 = ScalarTy {
            width: 8,
            signed: true,
        };
        let r = interp(
            &progs.fir,
            "fir",
            &[Value::Array(words.clone(), s8)],
            &mut work,
        )?;
        let stim = Transaction::from([("xs".to_string(), pack(&words))]);
        txn(
            &mut rig.fir,
            &mut cmp,
            vec![slm_array(&r)?],
            stim,
            &mut work,
        )?;
    }
    for px in &round.conv {
        let words: Vec<Bv> = px.iter().map(|&p| Bv::from_u64(8, p)).collect();
        let r = interp(
            &progs.conv,
            "blur",
            &[Value::Array(words.clone(), u8t())],
            &mut work,
        )?;
        let stim = Transaction::from([("img".to_string(), pack(&words))]);
        txn(
            &mut rig.conv,
            &mut cmp,
            vec![slm_array(&r)?],
            stim,
            &mut work,
        )?;
    }
    let t = Instant::now();
    let report = cmp.finish();
    tr.span("cosim.compare", Some(op), group, t);
    if !report.is_clean() {
        return Err(format!(
            "fir/conv co-simulation mismatch: {:?}",
            report.mismatches.first()
        ));
    }
    let a4 = ScalarTy {
        width: memsys::ADDR_W,
        signed: false,
    };
    for burst in &round.mem {
        let mut cmp = OutOfOrderComparator::new(10, 8, 8);
        let mut golden = Vec::new();
        for &(tag, addr) in burst {
            let r = interp(
                &progs.mem,
                "lookup",
                &[Value::from_u64(a4, addr)],
                &mut work,
            )?;
            let data = r.ret.as_bv().ok_or("lookup returned no value")?.to_u64();
            golden.push(memsys::pack_response(tag, data));
        }
        let words: Vec<Bv> = burst
            .iter()
            .map(|&(tag, addr)| Bv::from_u64(7, tag << 4 | addr))
            .collect();
        let stim = Transaction::from([("burst".to_string(), pack(&words))]);
        txn(&mut rig.mem, &mut cmp, golden, stim, &mut work)?;
        let t = Instant::now();
        let report = cmp.finish();
        tr.span("cosim.compare", Some(op), group, t);
        if !report.is_clean() {
            return Err(format!(
                "memsys co-simulation mismatch: {:?}",
                report.mismatches.first()
            ));
        }
    }
    let digest = RoundDigest {
        slm: slm_h.0,
        rtl: rtl_h.0,
    };
    Ok((digest, work))
}

/// The sweep over one design, with its stimulus fields.
fn sweep_of(design: usize, seed: u64) -> StimulusSweep {
    let mut s = StimulusSweep::new(seed)
        .scenarios(SCENARIOS)
        .cycles(SWEEP_CYCLES)
        .with_lanes(64)
        .with_workers(WORKERS);
    for (name, spec) in sweep_fields(design) {
        s = s.field(name, spec);
    }
    s
}

/// The sweep's per-scenario digests recomputed on the reference engine:
/// the same per-scenario streams, one scalar `new_reference` simulator
/// per scenario, the same digest.
fn sweep_oracle(
    sweep: &StimulusSweep,
    fields: &[(&str, FieldSpec)],
    module: &Module,
) -> Result<Vec<u64>, String> {
    (0..SCENARIOS)
        .map(|s| {
            let mut sim = Simulator::new_reference(module.clone()).map_err(|e| e.to_string())?;
            let mut gen = StimulusGen::new(sweep.scenario_seed(s));
            for (name, spec) in fields {
                gen = gen.field(name, spec.clone());
            }
            let mut h = Fnv::new();
            for _ in 0..SWEEP_CYCLES {
                for (name, value) in gen.next_transaction() {
                    sim.poke(&name, value);
                }
                sim.step();
                for port in &module.outputs {
                    h.bv(&sim.output(&port.name));
                }
            }
            Ok(h.0)
        })
        .collect()
}

fn sweep_fields(design: usize) -> Vec<(&'static str, FieldSpec)> {
    match design {
        0 => vec![
            ("in_valid", FieldSpec::Uniform { width: 1 }),
            (
                "x",
                FieldSpec::Corners {
                    width: 8,
                    corner_percent: 20,
                },
            ),
            (
                "stall",
                FieldSpec::Range {
                    width: 1,
                    lo: 0,
                    hi: 1,
                },
            ),
        ],
        1 => vec![
            ("in_valid", FieldSpec::Uniform { width: 1 }),
            ("pix_in", FieldSpec::Uniform { width: 8 }),
        ],
        _ => vec![
            ("req_valid", FieldSpec::Uniform { width: 1 }),
            (
                "tag",
                FieldSpec::Uniform {
                    width: memsys::TAG_W,
                },
            ),
            (
                "addr",
                FieldSpec::Uniform {
                    width: memsys::ADDR_W,
                },
            ),
        ],
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = SplitMix64::new(ctx.seed ^ 0x51A1);
    let table = crate::blocks::table(&mut rng);
    let modules = [fir::rtl(), conv::rtl(), memsys::rtl(&table)];
    let rounds: Vec<Round> = (0..ROUNDS).map(|_| gen_round(&mut rng)).collect();
    let sweep_seeds: Vec<u64> = (0..SWEEPS).map(|_| rng.next_u64()).collect();
    let setup_tracer = Tracer::new(ctx.trace);
    let parse = |src: &str| dfv::slmir::parse(src).map_err(|e| e.to_string());

    // Set-up: parse the SLM models, build the three wrapped simulators,
    // and warm up with every round and every sweep.
    let ((mut rig, progs), setup_s) = repeat_setup(ctx, || {
        let progs = Programs {
            fir: parse(fir::slm_source())?,
            conv: parse(conv::slm_source())?,
            mem: parse(&memsys::slm_source(&table))?,
        };
        let build = |m: Module| {
            let t = Instant::now();
            let w = WrappedRtl::new(m).expect("design rtl builds");
            setup_tracer.span("rtl.sim_build", None, 0, t);
            w
        };
        let [f, c, m] = modules.clone();
        let mut rig = wrap(f, c, m, build);
        for _ in 0..WARMUP_PASSES {
            for round in &rounds {
                run_round(&mut rig, &progs, round, &Tracer::new(false), 0, 0)?;
            }
            for &seed in &sweep_seeds {
                for (d, m) in modules.iter().enumerate() {
                    sweep_of(d, seed).run(m)?;
                }
            }
        }
        Ok((rig, progs))
    })?;
    let sim_build_us = {
        let by = trace::self_time_by_name(&setup_tracer.spans());
        by.get("rtl.sim_build")
            .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
    };

    // Oracles, on the reference engines.
    let t = Instant::now();
    let [f, c, m] = modules.clone();
    let mut reference = wrap(f, c, m, |m| {
        WrappedRtl::from_simulator(Simulator::new_reference(m).expect("design rtl builds"))
    });
    let mut round_oracle = Vec::new();
    for r in &rounds {
        round_oracle.push(run_round(&mut reference, &progs, r, &Tracer::new(false), 0, 0)?.0);
    }
    let mut sweep_oracles = Vec::new();
    for &seed in &sweep_seeds {
        let mut per_design = Vec::new();
        for (d, m) in modules.iter().enumerate() {
            per_design.push(sweep_oracle(&sweep_of(d, seed), &sweep_fields(d), m)?);
        }
        sweep_oracles.push(per_design);
    }
    if ctx.inject {
        round_oracle[0].rtl ^= 1;
    }
    let oracle_s = t.elapsed().as_secs_f64();

    let (untraced, traced) = measure(ctx, |tr, window| {
        let mut phase = Phase::default();
        let (mut cosim_s, mut txns) = (0.0, 0u64);
        let mut cosim_ms = Vec::new();
        let mut work = RoundWork::default();
        let (mut lane_evals, mut lane_steps) = (0u64, 0u64);
        let start = Instant::now();
        let mut i = 0usize;
        while start.elapsed() < window {
            let r = i % ROUNDS;
            let op = tr.id();
            let t = Instant::now();
            let (digest, w) = run_round(&mut rig, &progs, &rounds[r], tr, op, i as u64)?;
            let dt = t.elapsed();
            phase.attempted += 1;
            if digest != round_oracle[r] {
                return Err(format!(
                    "round {r}: streams {digest:?} differ from the reference {:?}",
                    round_oracle[r]
                ));
            }
            cosim_ms.push(dt.as_secs_f64() * 1e3);
            cosim_s += dt.as_secs_f64();
            txns += w.txns;
            work.cycles += w.cycles;
            work.node_evals += w.node_evals;
            work.items += w.items;

            let s = i % SWEEPS;
            let mut sweep_s = 0.0;
            for (d, m) in modules.iter().enumerate() {
                let sweep = sweep_of(d, sweep_seeds[s]);
                let t = Instant::now();
                let rep = sweep.run(m)?;
                let dt = t.elapsed();
                tr.span("rtl.lanes.sweep", Some(op), i as u64, t);
                phase.attempted += 1;
                let got: Vec<u64> = rep.scenarios.iter().map(|o| o.out_hash).collect();
                if got != sweep_oracles[s][d] {
                    return Err(format!(
                        "sweep {s} of design {d}: digests differ from the reference"
                    ));
                }
                sweep_s += dt.as_secs_f64();
                lane_evals += rep.node_evals;
                lane_steps += SWEEP_CYCLES as u64 * SCENARIOS.div_ceil(64) as u64;
            }
            // One rate per round, over its three sweeps, so every sample
            // weighs the designs alike.
            let cycles = modules.len() * SCENARIOS * SWEEP_CYCLES;
            phase.work_rates.push(cycles as f64 / sweep_s);
            // The gated operation is the whole regression round: the
            // co-simulation alone moved by a quarter between runs.
            phase.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.record(op, "op", None, i as u64, t, Instant::now());
            ctx.calib.tick();
            i += 1;
        }
        let n = cosim_ms.len();
        phase.named = vec![
            Metric::new("cosim_txn_per_s", txns as f64 / cosim_s.max(1e-9), "1/s", n),
            Metric::new(
                "sweep_cycles_per_s",
                stats::median_of(&phase.work_rates),
                "1/s",
                phase.work_rates.len(),
            ),
        ];
        phase.named.extend(stats::latency_metrics(
            "cosim_round_ms",
            &mut cosim_ms,
            "ms",
        ));
        if tr.is_on() {
            let by = trace::self_time_by_name(&tr.spans());
            let ns = |name: &str| by.get(name).map_or(0.0, |&(ns, _)| ns as f64);
            let per = |a: f64, b: u64| a / b.max(1) as f64;
            let mut l = BTreeMap::new();
            l.insert(
                "slmir.interp_us_per_txn",
                per(ns("slmir.interp") / 1e3, txns),
            );
            l.insert("rtl.sim_build_us", sim_build_us);
            l.insert("rtl.step_ns", per(ns("rtl.wrapped_txn"), work.cycles));
            l.insert(
                "rtl.node_evals_per_cycle",
                per(work.node_evals as f64, work.cycles),
            );
            l.insert("rtl.lanes.step_ns", per(ns("rtl.lanes.sweep"), lane_steps));
            l.insert(
                "rtl.lanes.node_evals_per_cycle",
                per(lane_evals as f64, lane_steps),
            );
            l.insert(
                "cosim.compare_ns_per_item",
                per(ns("cosim.compare"), work.items),
            );
            phase.layers = l;
        }
        Ok(phase)
    })?;
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        notes: vec![Metric::new("oracle_s", oracle_s, "s", 1)],
    })
}
