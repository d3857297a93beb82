//! The SEC front-end benchmark behind `bench sec` and E17: every miter
//! workload is checked under both of `dfv-sec`'s [`Encoding`]s — `off`
//! (the raw bit-blasted `Reference` miter, the oracle) and `prod` (the
//! production `Rewritten` encoding: word-level rewriting before CNF) — and
//! the two runs' *verdicts* and counterexample mismatch locations are
//! asserted identical before any number lands in the report. The
//! comparable payload is the deterministic counter set (SAT conflicts, CNF
//! size, a structural counterexample hash); wall-clock lives only in the
//! timing section, so the canonical JSON reproduces byte-for-byte across
//! processes while the full JSON still carries the measured speedup.
//!
//! The counterexample hash folds only mismatch *locations* (output names
//! and the RTL sample cycle): the encoding legitimately changes which
//! satisfying assignment the solver surfaces, but never *where* the
//! models can be made to disagree — and each counterexample has already
//! been replayed concretely by the checker before it reaches this module.

use dfv_obs::{Json, RunReport};
use dfv_rtl::{Module, ModuleBuilder};
use dfv_sec::{
    check_equivalence_with, Binding, CheckOptions, Encoding, EquivOutcome, EquivReport, EquivSpec,
};

/// Wall-clock repetitions per workload; the two encodings' runs are
/// interleaved within each repetition (same rationale as the simulator
/// sweep: the *ratio* is the measurement, so every side must see the same
/// load).
const TIMING_REPS: usize = 5;

/// The report tag of each encoding, in column order.
pub(crate) const ENCODINGS: [(&str, Encoding); 2] =
    [("off", Encoding::Reference), ("prod", Encoding::Rewritten)];

/// One named miter workload: both models, the transaction spec, and
/// whether the pair is equivalent by construction (checked, not trusted).
struct SecWorkload {
    name: &'static str,
    build: fn(smoke: bool) -> (Module, Module, EquivSpec),
    equivalent: bool,
}

/// `a*b` versus `b*a`, zero-extended to the full product width. The
/// classic CDCL cliff: the raw miter is exponential in the operand
/// width, while commutative canonicalization collapses the two cones to
/// the same literals.
fn mul_comm(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 5 } else { 7 };
    mul_pair(w, false)
}

/// Like [`mul_comm`] with a seeded near-miss: the RTL adds 1 to the
/// product exactly when `(a, b) == (3, 5)`, so the miter is falsifiable
/// at a single input point — the counterexample-parity workload.
fn mul_bug(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 4 } else { 6 };
    mul_pair(w, true)
}

pub(crate) fn mul_pair(w: u32, inject_bug: bool) -> (Module, Module, EquivSpec) {
    let ow = 2 * w;
    let mut sb = ModuleBuilder::new("slm_mul");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let (aw, bw) = (sb.zext(a, ow), sb.zext(b, ow));
    let y = sb.mul(aw, bw);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_mul");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let (aw, bw) = (rb.zext(a, ow), rb.zext(b, ow));
    let mut y = rb.mul(bw, aw);
    if inject_bug {
        let three = rb.lit(w, 3);
        let five = rb.lit(w, 5);
        let ea = rb.eq(a, three);
        let eb = rb.eq(b, five);
        let hit = rb.and(ea, eb);
        let bump = rb.zext(hit, ow);
        y = rb.add(y, bump);
    }
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// A multiply-accumulate with both the multiply and the accumulate
/// commuted: `(a*b) + c` versus `c + (b*a)`.
fn madd_comm(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 4 } else { 6 };
    let ow = 2 * w;
    let mut sb = ModuleBuilder::new("slm_madd");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let c = sb.input("c", ow);
    let (aw, bw) = (sb.zext(a, ow), sb.zext(b, ow));
    let p = sb.mul(aw, bw);
    let y = sb.add(p, c);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_madd");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let c = rb.input("c", ow);
    let (aw, bw) = (rb.zext(a, ow), rb.zext(b, ow));
    let p = rb.mul(bw, aw);
    let y = rb.add(c, p);
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// `(a+b)+c` versus `(c+a)+b`: associativity, which the word-level GVN
/// deliberately does *not* rewrite. Here the structural collapse fails
/// and the solver pays for the adder chains on both encodings — the row
/// a reassociation rule in the rewriter would have to win.
fn add_assoc(smoke: bool) -> (Module, Module, EquivSpec) {
    let w = if smoke { 8 } else { 16 };
    let mut sb = ModuleBuilder::new("slm_assoc");
    let a = sb.input("a", w);
    let b = sb.input("b", w);
    let c = sb.input("c", w);
    let t = sb.add(a, b);
    let y = sb.add(t, c);
    sb.output("y", y);
    let slm = sb.finish().unwrap();

    let mut rb = ModuleBuilder::new("rtl_assoc");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let c = rb.input("c", w);
    let t = rb.add(c, a);
    let y = rb.add(t, b);
    rb.output("y", y);
    let rtl = rb.finish().unwrap();

    let spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("y", "y", 0);
    (slm, rtl, spec)
}

/// A fused-multiply-add mantissa slice — significand multiply, addend
/// alignment, sum, one-step normalization — with the RTL's multiply and
/// add commuted and its datapath decorated with `|0` / `^0` identities
/// the word-level rewriter must strip. The significand multiplier
/// dominates the raw miter; rewriting collapses it structurally.
fn fpu_slice(smoke: bool) -> (Module, Module, EquivSpec) {
    let mw = if smoke { 4 } else { 6 };
    let pw = 2 * mw + 1; // product plus one guard bit of headroom
    let build = |name: &str, commuted: bool| -> Module {
        let mut b = ModuleBuilder::new(name);
        let ma = b.input("ma", mw);
        let mb = b.input("mb", mw);
        let mc = b.input("mc", mw);
        let d = b.input("d", 3); // addend alignment shift
        let (maw, mbw) = (b.zext(ma, pw), b.zext(mb, pw));
        let p = if commuted {
            b.mul(mbw, maw)
        } else {
            b.mul(maw, mbw)
        };
        // Align the addend below the product and sum.
        let mcw = b.zext(mc, pw);
        let dw = b.zext(d, pw);
        let shifted = b.lshr(mcw, dw);
        let sum = if commuted {
            b.add(shifted, p)
        } else {
            b.add(p, shifted)
        };
        // Normalize: on overflow into the guard bit, shift right one.
        let carry = b.bit(sum, pw - 1);
        let one = b.lit(pw, 1);
        let norm = b.lshr(sum, one);
        let mant = b.mux(carry, norm, sum);
        let mant = if commuted {
            // Identity decorations the rewriter must see through.
            let z = b.lit(pw, 0);
            let t = b.or(mant, z);
            b.xor(t, z)
        } else {
            mant
        };
        b.output("mant", mant);
        b.output("carry", carry);
        b.finish().unwrap()
    };
    let slm = build("slm_fpu", false);
    let rtl = build("rtl_fpu", true);
    let spec = EquivSpec::new(1)
        .bind("ma", 0, Binding::Slm("ma".into()))
        .bind("mb", 0, Binding::Slm("mb".into()))
        .bind("mc", 0, Binding::Slm("mc".into()))
        .bind("d", 0, Binding::Slm("d".into()))
        .compare("mant", "mant", 0)
        .compare("carry", "carry", 0);
    (slm, rtl, spec)
}

/// The memory-system design's fast bank (1-cycle ROM latency), SLM
/// elaborated from its conditioned C source — a sequential miter with
/// real memories and `Free` tag pins, measuring rewrite overhead on a
/// workload the raw path already handles well.
fn memsys_fast(_smoke: bool) -> (Module, Module, EquivSpec) {
    let table = [3u8, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let slm = dfv_slmir::elaborate(
        &dfv_slmir::parse(&dfv_designs::memsys::slm_source(&table)).unwrap(),
        "lookup",
    )
    .unwrap();
    let rtl = dfv_designs::memsys::rtl(&table);
    (slm, rtl, dfv_designs::memsys::equiv_spec_fast())
}

const WORKLOADS: [SecWorkload; 6] = [
    SecWorkload {
        name: "mul_comm",
        build: mul_comm,
        equivalent: true,
    },
    SecWorkload {
        name: "madd_comm",
        build: madd_comm,
        equivalent: true,
    },
    SecWorkload {
        name: "add_assoc",
        build: add_assoc,
        equivalent: true,
    },
    SecWorkload {
        name: "fpu_slice",
        build: fpu_slice,
        equivalent: true,
    },
    SecWorkload {
        name: "memsys_fast",
        build: memsys_fast,
        equivalent: true,
    },
    SecWorkload {
        name: "mul_bug",
        build: mul_bug,
        equivalent: false,
    },
];

fn fnv_fold(hash: u64, limb: u64) -> u64 {
    (hash ^ limb).wrapping_mul(0x100000001b3)
}

fn fnv_str(hash: u64, s: &str) -> u64 {
    s.bytes().fold(hash, |h, b| fnv_fold(h, b as u64))
}

/// Structural counterexample hash: a fold of the sorted mismatch
/// locations. `0` for non-falsifying outcomes.
fn cex_hash(outcome: &EquivOutcome) -> u64 {
    let EquivOutcome::NotEquivalent(cex) = outcome else {
        return 0;
    };
    let mut locs: Vec<(String, String, u32)> = cex
        .mismatches
        .iter()
        .map(|m| (m.slm_output.clone(), m.rtl_output.clone(), m.rtl_cycle))
        .collect();
    locs.sort();
    let mut h = 0xcbf29ce484222325u64;
    for (s, r, c) in &locs {
        h = fnv_str(h, s);
        h = fnv_str(h, r);
        h = fnv_fold(h, *c as u64);
    }
    h
}

pub(crate) fn verdict_code(outcome: &EquivOutcome) -> u64 {
    match outcome {
        EquivOutcome::Equivalent => 0,
        EquivOutcome::NotEquivalent(_) => 1,
        EquivOutcome::Inconclusive { .. } => 2,
    }
}

/// Runs every workload under every encoding and reduces the runs to a
/// [`RunReport`]. Counters are a pure function of the workloads (the
/// canonical JSON is byte-reproducible across processes); per-workload
/// timing phases carry the wall-clock.
///
/// # Panics
///
/// Panics if an encoding changes any workload's verdict or counterexample
/// mismatch locations relative to the `Reference` oracle, or if a
/// by-construction-equivalent workload is falsified — each of those would
/// be a checker bug, not a measurement. The asserts fire before the report
/// (and thus any timing) is returned.
pub fn sec_bench_report(smoke: bool) -> RunReport {
    let mut rep = RunReport::new("sec_sweep");
    rep.set_value("smoke", Json::Bool(smoke));
    for w in &WORKLOADS {
        let (slm, rtl, spec) = (w.build)(smoke);
        // Best-of-N wall clock, encodings interleaved within each
        // repetition so load drift cannot skew the ratios. The verdicts
        // and counters are deterministic — identical across repetitions
        // — so only the first repetition's reports are kept.
        let mut best = [std::time::Duration::MAX; ENCODINGS.len()];
        let mut kept: Vec<EquivReport> = Vec::new();
        for rep_i in 0..TIMING_REPS {
            for (i, (_, encoding)) in ENCODINGS.iter().enumerate() {
                let opts = CheckOptions {
                    encoding: *encoding,
                    ..CheckOptions::default()
                };
                let t = std::time::Instant::now();
                let r = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
                best[i] = best[i].min(t.elapsed());
                if rep_i == 0 {
                    kept.push(r);
                }
            }
        }
        let off = &kept[0];

        // Parity gates — everything below is measurement, this is truth.
        for ((tag, _), r) in ENCODINGS.iter().zip(&kept).skip(1) {
            assert_eq!(
                verdict_code(&off.outcome),
                verdict_code(&r.outcome),
                "workload {}: encoding {tag} changed the verdict: off={:?} {tag}={:?}",
                w.name,
                off.outcome,
                r.outcome
            );
            assert_eq!(
                cex_hash(&off.outcome),
                cex_hash(&r.outcome),
                "workload {}: encoding {tag} changed the counterexample locations",
                w.name
            );
        }
        assert_eq!(
            w.equivalent,
            off.outcome.is_equivalent(),
            "workload {}: unexpected verdict {:?}",
            w.name,
            off.outcome
        );

        rep.set_counter(
            format!("sec.{}.verdict", w.name),
            verdict_code(&off.outcome),
        );
        rep.set_counter(format!("sec.{}.cex_hash", w.name), cex_hash(&off.outcome));
        for (((tag, _), r), wall) in ENCODINGS.iter().zip(&kept).zip(best) {
            rep.push_phase(format!("{}.{tag}", w.name), wall);
            rep.set_counter(
                format!("sec.{}.{tag}.conflicts", w.name),
                r.solver_stats.conflicts,
            );
            rep.set_counter(format!("sec.{}.{tag}.vars", w.name), r.cnf_vars as u64);
            rep.set_counter(
                format!("sec.{}.{tag}.clauses", w.name),
                r.cnf_clauses as u64,
            );
        }
        rep.set_value(
            format!("conflicts_off_over_prod_x100.{}", w.name),
            Json::UInt(off.solver_stats.conflicts * 100 / kept[1].solver_stats.conflicts.max(1)),
        );
    }
    rep
}

/// Wall-clock of the phase `{workload}.{tag}`, in microseconds.
fn phase_us(rep: &RunReport, workload: &str, tag: &str) -> u128 {
    let name = format!("{workload}.{tag}");
    rep.phases()
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.wall.as_micros())
        .sum()
}

/// Renders the benchmark as a table: one row per workload, conflicts and
/// wall-clock under each encoding.
pub fn render_sec_bench(rep: &RunReport) -> String {
    let mut out = String::from(
        "SEC miter encodings: raw bit-blasted miter (off, the Reference oracle) vs\nword-level rewriting (prod, the Rewritten default), verdict parity asserted\nper workload\n\n",
    );
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let verdict = match rep.counter(&format!("sec.{}.verdict", w.name)) {
            0 => "equivalent",
            1 => "not-equiv",
            _ => "inconclusive",
        };
        let mut row = vec![w.name.to_string(), verdict.to_string()];
        for (tag, _) in ENCODINGS {
            row.push(
                rep.counter(&format!("sec.{}.{tag}.conflicts", w.name))
                    .to_string(),
            );
        }
        for (tag, _) in ENCODINGS {
            row.push(phase_us(rep, w.name, tag).to_string());
        }
        rows.push(row);
    }
    out.push_str(&crate::render_table(
        &[
            "workload",
            "verdict",
            "conflicts off",
            "conflicts prod",
            "off us",
            "prod us",
        ],
        &rows,
    ));
    out.push_str(
        "\nconflicts (and the vars/clauses counters) are deterministic and form the\ncanonical JSON payload; the us columns are measured wall-clock (best of 5,\nencodings interleaved) and live only in the full JSON's timing section.\nVerdicts and counterexample mismatch locations are asserted identical across\nthe two encodings before the report exists.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_json_reproduces_and_rewrite_wins_where_promised() {
        let a = sec_bench_report(true);
        let b = sec_bench_report(true);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert!(!a.canonical_json().contains("wall_us"));
        // The two commutativity workloads must show an integer-factor
        // conflict drop even in smoke mode; the production encoding
        // collapses them outright.
        for w in ["mul_comm", "madd_comm"] {
            let off = a.counter(&format!("sec.{w}.off.conflicts"));
            let prod = a.counter(&format!("sec.{w}.prod.conflicts"));
            assert!(
                off >= 2 * prod.max(1),
                "{w}: conflicts off {off} vs prod {prod} — rewrite lost its edge"
            );
            assert_eq!(prod, 0, "{w}");
        }
        // The seeded bug is found with matching mismatch locations.
        assert_eq!(a.counter("sec.mul_bug.verdict"), 1);
        assert_ne!(a.counter("sec.mul_bug.cex_hash"), 0);
    }
}
