//! Seeded SLM/RTL block pairs built from `dfv-designs`, each with the
//! verdict it must get by construction.

use std::time::Instant;

use dfv::bits::SplitMix64;
use dfv::core::{BlockPair, BlockResult, BlockStatus, VerificationPlan};
use dfv::designs::{alu, conv, fir, memsys};
use dfv::rtl::ModuleBuilder;
use dfv::sec::{Binding, EquivOutcome, EquivSpec};

use crate::trace::Tracer;

/// The verdict a block must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Pass,
    /// The paper's Fig 1: an `int`-style SLM against the 8-bit-temporary
    /// ALU, NotEquivalent exactly when `a + b` overflows 8 bits.
    Fig1Bug,
}

/// A block and its by-construction verdict.
#[derive(Debug, Clone)]
pub struct Planned {
    pub block: BlockPair,
    pub expect: Expect,
}

/// The plan of the blocks, in order.
pub fn plan_of(planned: &[Planned]) -> VerificationPlan {
    VerificationPlan {
        blocks: planned.iter().map(|p| p.block.clone()).collect(),
    }
}

fn pair(name: &str, src: String, entry: &str, rtl: dfv::rtl::Module, spec: EquivSpec) -> BlockPair {
    BlockPair {
        name: name.into(),
        slm_source: src,
        slm_entry: entry.into(),
        rtl,
        spec,
    }
}

pub fn alu(name: &str) -> Planned {
    Planned {
        block: pair(
            name,
            alu::slm_bit_accurate().into(),
            "alu",
            alu::rtl(8, 8),
            alu::equiv_spec(),
        ),
        expect: Expect::Pass,
    }
}

pub fn alu_bug(name: &str) -> Planned {
    Planned {
        block: pair(
            name,
            alu::slm_int_style().into(),
            "alu",
            alu::rtl(8, 8),
            alu::equiv_spec(),
        ),
        expect: Expect::Fig1Bug,
    }
}

pub fn fir(name: &str) -> Planned {
    Planned {
        block: pair(
            name,
            fir::slm_source().into(),
            "fir",
            fir::rtl(),
            fir::equiv_spec(),
        ),
        expect: Expect::Pass,
    }
}

pub fn conv(name: &str) -> Planned {
    Planned {
        block: pair(
            name,
            conv::slm_source().into(),
            "blur",
            conv::rtl(),
            conv::equiv_spec(),
        ),
        expect: Expect::Pass,
    }
}

/// One bank of the dual-latency lookup engine over `table`.
pub fn memsys(name: &str, table: &[u8; 16], fast: bool) -> Planned {
    let spec = if fast {
        memsys::equiv_spec_fast()
    } else {
        memsys::equiv_spec_slow()
    };
    Planned {
        block: pair(
            name,
            memsys::slm_source(table),
            "lookup",
            memsys::rtl(table),
            spec,
        ),
        expect: Expect::Pass,
    }
}

/// `a * b` (or `a * b + c` with `madd`) on `w`-bit operands, with the RTL
/// multiplying in the commuted order — the unswept miter's CDCL cliff.
pub fn mul(name: &str, w: u32, madd: bool) -> Planned {
    let ow = 2 * w + u32::from(madd);
    let src = if madd {
        format!(
            "uint<{ow}> mac(uint<{w}> a, uint<{w}> b, uint<{w}> c) {{\n    \
             return (uint<{ow}>)a * (uint<{ow}>)b + (uint<{ow}>)c;\n}}\n"
        )
    } else {
        format!("uint<{ow}> mac(uint<{w}> a, uint<{w}> b) {{\n    return (uint<{ow}>)a * (uint<{ow}>)b;\n}}\n")
    };
    let mut rb = ModuleBuilder::new("mac_rtl");
    let a = rb.input("a", w);
    let b = rb.input("b", w);
    let (aw, bw) = (rb.zext(a, ow), rb.zext(b, ow));
    let mut y = rb.mul(bw, aw);
    let mut spec = EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()));
    if madd {
        let c = rb.input("c", w);
        let cw = rb.zext(c, ow);
        y = rb.add(cw, y);
        spec = spec.bind("c", 0, Binding::Slm("c".into()));
    }
    rb.output("y", y);
    let rtl = rb.finish().expect("mac rtl is well formed");
    Planned {
        block: pair(name, src, "mac", rtl, spec.compare("return", "y", 0)),
        expect: Expect::Pass,
    }
}

/// A seeded 16-entry lookup table.
pub fn table(rng: &mut SplitMix64) -> [u8; 16] {
    let mut t = [0u8; 16];
    for v in &mut t {
        *v = rng.below(256) as u8;
    }
    t
}

/// Makes a block's content unique without changing what it means: the
/// nonce rides in an SLM comment, so the content hash changes while the
/// parsed program, the proof and the report stay the same.
pub fn with_nonce(mut b: BlockPair, nonce: u64) -> BlockPair {
    b.slm_source = format!("// request {nonce}\n{}", b.slm_source);
    b
}

/// Runs the SLM front end on one block under spans (traced runs only).
pub fn front_end(tr: &Tracer, parent: u64, group: u64, b: &BlockPair) {
    let t = Instant::now();
    let prog = dfv::slmir::parse(&b.slm_source);
    tr.span("slmir.parse", Some(parent), group, t);
    let Ok(prog) = prog else { return };
    let t = Instant::now();
    std::hint::black_box(dfv::slmir::lint(&prog, Some(&b.slm_entry)));
    tr.span("slmir.lint", Some(parent), group, t);
    let t = Instant::now();
    let _ = std::hint::black_box(dfv::slmir::elaborate(&prog, &b.slm_entry));
    tr.span("slmir.elaborate", Some(parent), group, t);
}

/// Whether the Fig 1 counterexample really separates the two models:
/// the SLM adds in 32 bits, the RTL wraps `a + b` to 8 bits first.
fn fig1_cex_holds(a: i64, b: i64, c: i64) -> bool {
    let wrap = |v: i64, w: u32| {
        let m = 1i64 << w;
        let v = v.rem_euclid(m);
        if v >= m / 2 {
            v - m
        } else {
            v
        }
    };
    wrap(a + b + c, 9) != wrap(wrap(a + b, 8) + c, 9)
}

/// Checks one block's verdict against its expectation. A Fig 1 verdict
/// computed in this process must carry a counterexample that separates
/// the models by independent arithmetic.
pub fn check_verdict(r: &BlockResult, expect: Expect) -> Result<(), String> {
    match (expect, &r.status) {
        (Expect::Pass, BlockStatus::Pass) => Ok(()),
        (Expect::Fig1Bug, BlockStatus::NotEquivalent(_)) => {
            let Some(rep) = &r.equiv else {
                return Ok(()); // served from the cache: checked when computed
            };
            let EquivOutcome::NotEquivalent(cex) = &rep.outcome else {
                return Err(format!("{}: FAIL verdict without a counterexample", r.name));
            };
            let input = |n: &str| {
                cex.slm_inputs
                    .iter()
                    .find(|(k, _)| k == n)
                    .map(|(_, v)| v.to_i64())
                    .ok_or_else(|| format!("{}: counterexample lacks input {n}", r.name))
            };
            let (a, b, c) = (input("a")?, input("b")?, input("c")?);
            if fig1_cex_holds(a, b, c) {
                Ok(())
            } else {
                Err(format!(
                    "{}: counterexample a={a} b={b} c={c} does not separate the models",
                    r.name
                ))
            }
        }
        (e, s) => Err(format!("{}: expected {e:?}, got {s}", r.name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_counterexamples_are_exactly_the_8_bit_overflows() {
        assert!(fig1_cex_holds(100, 100, 0));
        assert!(fig1_cex_holds(-128, -1, 5));
        assert!(!fig1_cex_holds(100, 27, -128));
        assert!(!fig1_cex_holds(-64, -64, 127));
    }
}
