//! Soundness fuzz: on random expression DAGs, the bit-blaster must agree
//! with the concrete cycle simulator — the two independent implementations
//! of the IR semantics — and every module must prove equivalent to itself.
//! The bit-blaster's AND/XOR gate caches share every repeated gate, so a
//! cache that hands back the wrong literal shows up here as a wrong bit.
//!
//! Uses the repo's own `SplitMix64` instead of `proptest` so the suite
//! runs offline unconditionally. Every case draws its module from its own
//! seed, and a failing assertion prints that seed instead of shrinking:
//! `SplitMix64::new(seed)` rebuilds the exact module and inputs.

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::{ModuleBuilder, Simulator};
use dfv_sat::{SolveResult, Solver};
use dfv_sec::{model_word, Binding, BitBlaster, CheckOptions, Encoding, EquivSpec};

/// Module cases per property.
const CASES: u64 = 256;

/// A recipe for one random combinational module.
#[derive(Debug, Clone)]
struct Recipe {
    input_widths: Vec<u32>,
    ops: Vec<(u8, usize, usize)>, // (op selector, operand indices)
}

fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

/// Two or three inputs of 1–11 bits, then 3–24 operators over the nodes
/// built so far.
fn recipe(rng: &mut SplitMix64) -> Recipe {
    let input_widths = (0..2 + below(rng, 2))
        .map(|_| 1 + below(rng, 11) as u32)
        .collect();
    let ops = (0..3 + below(rng, 22))
        .map(|_| {
            (
                below(rng, 22) as u8,
                rng.next_u64() as usize,
                rng.next_u64() as usize,
            )
        })
        .collect();
    Recipe { input_widths, ops }
}

/// Like [`recipe`], but excluding multiply/divide/remainder (selectors
/// 2..=6): proving two independently bit-blasted multiplier or divider
/// circuits equal is exponentially hard for CDCL (the known weakness that
/// makes commercial SEC tools use word-level reasoning), so the *symbolic*
/// self-equivalence fuzz sticks to the operators SAT handles well. The
/// multiplier/divider encodings themselves are exhaustively validated on
/// concrete values in `bitblast::tests`.
fn cheap_recipe(rng: &mut SplitMix64) -> Recipe {
    let mut r = recipe(rng);
    for op in &mut r.ops {
        if (2..=6).contains(&(op.0 % 22)) {
            op.0 = 0; // replace with add
        }
    }
    r
}

/// Runs `check` on [`CASES`] cases, each from its own seed.
fn for_each_case(base: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..CASES {
        let seed = base.wrapping_add(case);
        check(seed, &mut SplitMix64::new(seed));
    }
}

/// Builds the module and returns it; node list grows as ops apply to
/// earlier nodes (wrapping indices).
fn build(r: &Recipe) -> dfv_rtl::Module {
    let mut b = ModuleBuilder::new("fuzz");
    let mut nodes = Vec::new();
    for (i, w) in r.input_widths.iter().enumerate() {
        nodes.push(b.input(format!("i{i}"), *w));
    }
    for (sel, xi, yi) in &r.ops {
        let x = nodes[xi % nodes.len()];
        let y = nodes[yi % nodes.len()];
        // Arithmetic/logic ops need equal widths: resize y to x's width.
        let n = match sel % 22 {
            0 => {
                let y = resize(&mut b, y, x);
                b.add(x, y)
            }
            1 => {
                let y = resize(&mut b, y, x);
                b.sub(x, y)
            }
            2 => {
                let y = resize(&mut b, y, x);
                b.mul(x, y)
            }
            3 => {
                let y = resize(&mut b, y, x);
                b.udiv(x, y)
            }
            4 => {
                let y = resize(&mut b, y, x);
                b.urem(x, y)
            }
            5 => {
                let y = resize(&mut b, y, x);
                b.sdiv(x, y)
            }
            6 => {
                let y = resize(&mut b, y, x);
                b.srem(x, y)
            }
            7 => {
                let y = resize(&mut b, y, x);
                b.and(x, y)
            }
            8 => {
                let y = resize(&mut b, y, x);
                b.or(x, y)
            }
            9 => {
                let y = resize(&mut b, y, x);
                b.xor(x, y)
            }
            10 => b.shl(x, y),
            11 => b.lshr(x, y),
            12 => b.ashr(x, y),
            13 => {
                let y = resize(&mut b, y, x);
                b.eq(x, y)
            }
            14 => {
                let y = resize(&mut b, y, x);
                b.ult(x, y)
            }
            15 => {
                let y = resize(&mut b, y, x);
                b.slt(x, y)
            }
            16 => b.not(x),
            17 => b.neg(x),
            18 => b.red_xor(x),
            19 => {
                let w = b.node_width(x);
                b.sext(x, w + 3)
            }
            20 => b.concat(x, y),
            21 => {
                let w = b.node_width(x);
                let hi = (w - 1).min(w / 2 + 1);
                b.slice(x, hi, hi / 2)
            }
            _ => unreachable!(),
        };
        // Keep widths bounded so division circuits stay tractable.
        let n = if b.node_width(n) > 24 {
            b.trunc(n, 24)
        } else {
            n
        };
        nodes.push(n);
    }
    b.output("out", *nodes.last().expect("nonempty"));
    b.finish().expect("fuzz module is structurally valid")
}

/// Resizes `y` to `x`'s width so binary operators type-check.
fn resize(b: &mut ModuleBuilder, y: dfv_rtl::NodeId, x: dfv_rtl::NodeId) -> dfv_rtl::NodeId {
    let w = b.node_width(x);
    b.resize_zext(y, w)
}

#[test]
fn bitblast_matches_simulator() {
    for_each_case(0xB17_0001_0000, |seed, rng| {
        let module = build(&recipe(rng));
        let seeds: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        // Concrete inputs.
        let inputs: Vec<(String, Bv)> = module
            .inputs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.name.clone(),
                    Bv::from_u64(p.width, seeds[i % seeds.len()]),
                )
            })
            .collect();
        // Concrete evaluation.
        let mut sim = Simulator::new(module.clone()).unwrap();
        let refs: Vec<(&str, Bv)> = inputs
            .iter()
            .map(|(n, v)| (n.as_str(), v.clone()))
            .collect();
        let expect = sim.eval_comb(&refs)["out"].clone();
        assert_eq!(blast(&module, &inputs, false), expect, "seed {seed:#x}");
        assert_eq!(
            blast(&module, &inputs, true),
            expect,
            "seed {seed:#x}, pinned inputs"
        );
    });
}

/// Bit-blasts `module`, solves, and reads `out` back from the model.
/// With constant input words almost every gate folds while it is built;
/// with `pinned`, the inputs are fresh variables fixed by unit clauses
/// added after encoding, so every gate is allocated and goes through the
/// gate caches — a cache handing back a wrong literal yields a wrong bit.
fn blast(module: &dfv_rtl::Module, inputs: &[(String, Bv)], pinned: bool) -> Bv {
    let mut solver = Solver::new();
    let mut bb = BitBlaster::new(&mut solver);
    let words: Vec<Vec<dfv_sat::Lit>> = inputs
        .iter()
        .map(|(_, v)| {
            if pinned {
                bb.fresh_word(v.width())
            } else {
                bb.constant(v)
            }
        })
        .collect();
    let cyc = dfv_sec::eval_comb_symbolic(&mut bb, module, &words);
    let out = cyc.output(module, "out");
    if pinned {
        for (word, (_, v)) in words.iter().zip(inputs) {
            for (&l, bit) in word.iter().zip(v.iter_bits()) {
                bb.assert_lit(if bit { l } else { !l });
            }
        }
    }
    drop(bb);
    assert_eq!(solver.solve(), SolveResult::Sat);
    model_word(&solver, &out)
}

#[test]
fn self_equivalence_holds() {
    // Every module is transaction-equivalent to itself in one cycle, on
    // the raw miter (both copies bit-blasted) and on the production
    // rewrite.
    for_each_case(0xB17_0002_0000, |seed, rng| {
        let module = build(&cheap_recipe(rng));
        let mut spec = EquivSpec::new(1).compare("out", "out", 0);
        for p in &module.inputs {
            spec = spec.bind(&p.name, 0, Binding::Slm(p.name.clone()));
        }
        for encoding in [Encoding::Reference, Encoding::Rewritten] {
            let opts = CheckOptions {
                encoding,
                ..CheckOptions::default()
            };
            let report = dfv_sec::check_equivalence_with(&module, &module, &spec, &opts).unwrap();
            assert!(
                report.outcome.is_equivalent(),
                "seed {seed:#x}, {encoding:?}: {:?}",
                report.outcome
            );
        }
    });
}
