//! Translation validation of the word-level rewriter: for seeded random
//! modules whose inputs and register state total at most
//! [`MAX_STATE_BITS`] bits, `optimize(m)` is compared with `m` on *every*
//! input/state point by the full-reevaluation reference simulator
//! (`Simulator::new_reference`, the spec). At each point the outputs, the
//! next register state, and every node the old→new map keeps must agree.
//!
//! The equivalence checker encodes the rewritten modules, so a rewrite bug
//! would turn into a wrong verdict that no later certificate over the CNF
//! could catch; this suite checks the pass itself. The generator covers
//! every operator, including division by zero and shifts by at least the
//! width, and leans on constants, shared mux selects and two-node chains
//! (slice of slice or concat, shift of shift, unary pairs) so that every
//! folding and identity rule fires. Every operator node drives an output,
//! so no rewrite hides behind dead-code elimination.
//!
//! Seeds are fixed (`SplitMix64`), so every run checks the same modules.

use dfv_bits::{Bv, SplitMix64};
use dfv_rtl::{optimize, Module, ModuleBuilder, NodeId, Simulator};

/// Exhaustive enumeration bound: inputs plus register bits.
const MAX_STATE_BITS: u32 = 10;

/// Random modules checked.
const CASES: u64 = 256;

/// Random module: a few narrow inputs, up to two registers, a constant
/// pool, and a DAG over every operator family.
fn random_module(rng: &mut SplitMix64, case: u64) -> Module {
    let mut b = ModuleBuilder::new(format!("tv{case}"));
    let mut budget = MAX_STATE_BITS;
    let mut pool: Vec<NodeId> = Vec::new();
    for i in 0..1 + rng.below(3) {
        let w = (1 + rng.below(4) as u32)
            .min(budget.saturating_sub(1))
            .max(1);
        budget -= w;
        pool.push(b.input(format!("i{i}"), w));
    }
    let mut regs = Vec::new();
    for r in 0..rng.below(3) {
        if budget == 0 {
            break;
        }
        let w = (1 + rng.below(2) as u32).min(budget);
        budget -= w;
        let reg = b.reg(format!("r{r}"), w, Bv::zero(w));
        regs.push(reg);
        pool.push(b.reg_q(reg));
    }
    let mut consts = Vec::new();
    for _ in 0..6 {
        let w = 1 + rng.below(6) as u32;
        let v = match rng.below(4) {
            0 => Bv::zero(w),
            1 => Bv::ones(w),
            2 => Bv::from_u64(w, rng.below(4)),
            _ => Bv::from_u64(w, rng.bits(w)),
        };
        consts.push(b.constant(v));
    }
    pool.extend(&consts);

    // One or two shared 1-bit selects, so muxes nest on the same select
    // often enough for the nested-mux rules to fire.
    let sels: Vec<NodeId> = pool[..2.min(pool.len())]
        .iter()
        .map(|&n| b.bit(n, 0))
        .collect();
    let n_ops = 8 + rng.below(20);
    for _ in 0..n_ops {
        // Bias the first operand toward recent results and the second
        // toward constants, so rules that need a chain (slice of slice,
        // shift of shift) or a constant operand see their patterns.
        let x = if rng.next_bool() {
            pool[pool.len() - 1 - rng.below(4.min(pool.len() as u64)) as usize]
        } else {
            pool[rng.below(pool.len() as u64) as usize]
        };
        let y0 = if rng.below(3) == 0 {
            consts[rng.below(consts.len() as u64) as usize]
        } else {
            pool[rng.below(pool.len() as u64) as usize]
        };
        let w = b.node_width(x);
        let y = b.resize_zext(y0, w);
        let n = match rng.below(30) {
            0 => b.add(x, y),
            1 => b.sub(x, y),
            2 => b.mul(x, y),
            3 => b.udiv(x, y),
            4 => b.urem(x, y),
            5 => b.sdiv(x, y),
            6 => b.srem(x, y),
            7 => b.and(x, y),
            8 => b.or(x, y),
            9 => b.xor(x, y),
            10 => b.shl(x, y0),
            11 => b.lshr(x, y0),
            12 => {
                // Same-op chains, usually by constants, for the
                // shift-chain rule.
                let once = b.ashr(x, y0);
                match rng.below(3) {
                    0 => once,
                    1 => b.ashr(once, y0),
                    _ => {
                        let s = b.lshr(x, y0);
                        b.lshr(s, y0)
                    }
                }
            }
            13 => b.eq(x, y),
            14 => b.ne(x, y),
            15 => b.ult(x, y),
            16 => b.ule(x, y),
            17 => b.slt(x, y),
            18 => b.sle(x, y),
            // Unary pairs exercise the double-negation rules and check
            // that mixed pairs (`-!x`, `!-x`) are left alone.
            19 | 20 => {
                let once = if rng.next_bool() { b.not(x) } else { b.neg(x) };
                match rng.below(3) {
                    0 => once,
                    1 => b.not(once),
                    _ => b.neg(once),
                }
            }
            21 => match rng.below(3) {
                0 => b.red_and(x),
                1 => b.red_or(x),
                _ => b.red_xor(x),
            },
            22 | 27..=29 => {
                let s = sels[rng.below(sels.len() as u64) as usize];
                b.mux(s, x, y)
            }
            23 => {
                // Slices of a slice or of a fresh concatenation, for the
                // slice-composition rules.
                let src = match rng.below(3) {
                    0 => x,
                    1 if w > 1 => b.slice(x, w - 1, rng.below(w as u64) as u32),
                    _ => {
                        let lo_arm = b.resize_zext(y0, 1 + rng.below(4) as u32);
                        b.concat(x, lo_arm)
                    }
                };
                let sw = b.node_width(src);
                let lo = rng.below(sw as u64) as u32;
                let hi = lo + rng.below((sw - lo) as u64) as u32;
                b.slice(src, hi, lo)
            }
            24 if w + b.node_width(y0) <= 16 => b.concat(x, y0),
            25 => b.zext(x, (w + rng.below(4) as u32).min(16)),
            _ => b.sext(x, (w + rng.below(4) as u32).min(16)),
        };
        pool.push(n);
    }
    // Every operator node drives an output, so none is dead: each
    // rewrite the pass makes is observable at some point.
    let first_op = pool.len() - n_ops as usize;
    for (k, &n) in pool[first_op..].iter().enumerate() {
        b.output(format!("o{k}"), n);
    }
    for reg in regs {
        let w = b.node_width(b.reg_q(reg));
        let src = pool[rng.below(pool.len() as u64) as usize];
        let next = b.resize_zext(src, w);
        b.connect_reg(reg, next);
    }
    b.finish().unwrap()
}

/// Splits `point` into one value per input, then one per register.
fn assignment(m: &Module, mut point: u64) -> (Vec<Bv>, Vec<Bv>) {
    let mut take = |w: u32| {
        let v = Bv::from_u64(w, point & ((1u64 << w) - 1));
        point >>= w;
        v
    };
    let ins = m.inputs.iter().map(|p| take(p.width)).collect();
    let regs = m.regs.iter().map(|r| take(r.width)).collect();
    (ins, regs)
}

/// Checks `opt` (with its node map) against `orig` on every point.
fn validate(orig: &Module, opt: &Module, map: &[Option<NodeId>], case: u64) {
    let bits: u32 = orig.inputs.iter().map(|p| p.width).sum::<u32>()
        + orig.regs.iter().map(|r| r.width).sum::<u32>();
    assert!(bits <= MAX_STATE_BITS, "case {case}: {bits} state bits");
    let mut s1 = Simulator::new_reference(orig.clone()).unwrap();
    let mut s2 = Simulator::new_reference(opt.clone()).unwrap();
    for point in 0..1u64 << bits {
        let (ins, regs) = assignment(orig, point);
        for (sim, m) in [(&mut s1, orig), (&mut s2, opt)] {
            for (r, v) in m.regs.iter().zip(&regs) {
                sim.set_reg(&r.name, v.clone());
            }
            for (p, v) in m.inputs.iter().zip(&ins) {
                sim.poke(&p.name, v.clone());
            }
            sim.eval();
        }
        for o in &orig.outputs {
            assert_eq!(
                s1.output(&o.name),
                s2.output(&o.name),
                "case {case}, point {point:#x}: output {}",
                o.name
            );
        }
        for (old, new) in orig.node_ids().zip(map) {
            if let Some(new) = new {
                assert_eq!(
                    s1.peek(old),
                    s2.peek(*new),
                    "case {case}, point {point:#x}: node {old:?} maps to a different value"
                );
            }
        }
        s1.step();
        s2.step();
        for r in &orig.regs {
            assert_eq!(
                s1.reg_value(&r.name),
                s2.reg_value(&r.name),
                "case {case}, point {point:#x}: next state of {}",
                r.name
            );
        }
    }
}

#[test]
fn optimize_is_validated_by_exhaustive_simulation() {
    let mut rng = SplitMix64::new(0x0E7_7A11_DA7E);
    let (mut shrunk, mut folded, mut rewritten, mut merged) = (0, 0, 0, 0);
    for case in 0..CASES {
        let m = random_module(&mut rng, case);
        let (opt, map, stats) = optimize(&m);
        assert_eq!(map.len(), m.nodes.len());
        if stats.nodes_after < stats.nodes_before {
            shrunk += 1;
        }
        folded += stats.folded;
        rewritten += stats.rewritten;
        merged += stats.gvn_merged;
        validate(&m, &opt, &map, case);
    }
    // The constant-heavy generator must actually exercise every rule
    // family, not just pass modules through unchanged.
    assert!(
        shrunk >= CASES * 3 / 4,
        "only {shrunk}/{CASES} modules were rewritten"
    );
    assert!(
        folded >= CASES && rewritten >= CASES && merged >= CASES / 4,
        "rules barely fired: folded {folded}, rewritten {rewritten}, merged {merged}"
    );
}
