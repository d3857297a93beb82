//! Seeded property suite: every miter [`Encoding`] must be
//! *verdict-neutral*. For random combinational module pairs — exact
//! copies, commutatively-shuffled variants, and near-miss mutants — the
//! production `Rewritten` encoding and the `Swept` one must each reach the
//! same [`EquivOutcome`] as the raw `Reference` miter (the oracle), and
//! when they falsify, their counterexamples must land on the same mismatch
//! locations (the checker has already replayed each one concretely before
//! returning it, so location parity is mismatch parity).
//!
//! Uses the repo's own `SplitMix64` instead of `proptest` so the suite
//! runs in offline CI unconditionally; the seeds below are fixed, making
//! every run byte-for-byte reproducible.

use dfv_bits::SplitMix64;
use dfv_rtl::{Module, ModuleBuilder, NodeId};
use dfv_sec::{check_equivalence_with, Binding, CheckOptions, Encoding, EquivOutcome, EquivSpec};

/// The encodings checked against the `Reference` oracle.
const ENCODINGS: [Encoding; 2] = [Encoding::Rewritten, Encoding::Swept];

/// One random combinational DAG, described as data so the same program
/// can be rebuilt verbatim, commutatively shuffled, or mutated.
#[derive(Clone)]
struct Program {
    input_widths: Vec<u32>,
    /// (op selector, operand index, operand index)
    ops: Vec<(u8, usize, usize)>,
}

const NUM_OPS: u8 = 14;

fn random_program(rng: &mut SplitMix64) -> Program {
    let n_inputs = 2 + (rng.next_u64() % 3) as usize;
    let input_widths = (0..n_inputs)
        .map(|_| 1 + (rng.next_u64() % 8) as u32)
        .collect();
    let n_ops = 4 + (rng.next_u64() % 12) as usize;
    let ops = (0..n_ops)
        .map(|_| {
            (
                (rng.next_u64() % NUM_OPS as u64) as u8,
                rng.next_u64() as usize,
                rng.next_u64() as usize,
            )
        })
        .collect();
    Program { input_widths, ops }
}

/// Builds the program. `swap_commutative[i]` flips the operand order of
/// op `i` when that op commutes — a semantics-preserving shuffle the
/// sweep's commutative canonicalization is expected to see through.
fn build(p: &Program, name: &str, swap_commutative: &[bool]) -> Module {
    let mut b = ModuleBuilder::new(name);
    let mut nodes: Vec<NodeId> = Vec::new();
    for (i, w) in p.input_widths.iter().enumerate() {
        nodes.push(b.input(format!("i{i}"), *w));
    }
    for (i, (sel, xi, yi)) in p.ops.iter().enumerate() {
        let mut x = nodes[xi % nodes.len()];
        let y0 = nodes[yi % nodes.len()];
        let w = b.node_width(x);
        let mut y = b.resize_zext(y0, w);
        // Swap *after* the resize: both operands are now the same width,
        // so for a commutative op the swap is semantics-preserving even
        // though the operand cones differ structurally.
        let commutes = matches!(sel % NUM_OPS, 0 | 2 | 3 | 4 | 7 | 12);
        if commutes && swap_commutative.get(i).copied().unwrap_or(false) {
            std::mem::swap(&mut x, &mut y);
        }
        let n = match sel % NUM_OPS {
            0 => b.add(x, y),
            1 => b.sub(x, y),
            2 => b.xor(x, y),
            3 => b.and(x, y),
            4 => b.or(x, y),
            5 => b.not(x),
            6 => b.neg(x),
            7 => b.eq(x, y),
            8 => b.ult(x, y),
            9 => {
                let s = b.red_or(y);
                let nx = b.not(x);
                b.mux(s, x, nx)
            }
            10 => b.concat(x, y),
            11 => b.sext(x, b.node_width(x) + 2),
            // Multiply kept narrow: the whole point of the suite is to run
            // the *unswept* path too, and wide independent multipliers are
            // exponentially hard for CDCL.
            12 => {
                let xt = b.trunc_or_keep(x, 5);
                let wt = b.node_width(xt);
                let yt = b.resize_zext(y, wt);
                b.mul(xt, yt)
            }
            13 => {
                let wx = b.node_width(x).max(4);
                let amt = b.lit(wx, (xi % 4) as u64);
                let xw = b.resize_zext(x, wx);
                b.shl(xw, amt)
            }
            _ => unreachable!(),
        };
        let n = if b.node_width(n) > 20 {
            b.trunc(n, 20)
        } else {
            n
        };
        nodes.push(n);
    }
    let y = *nodes.last().unwrap();
    b.output("y", y);
    let mid = nodes[nodes.len() / 2];
    b.output("z", mid);
    b.finish().unwrap()
}

/// Near-miss mutant: one op selector is nudged to a neighboring op with
/// the same arity and width behavior, so the DAG shape survives but the
/// function (usually) changes.
fn mutate(p: &Program, rng: &mut SplitMix64) -> Program {
    let mut m = p.clone();
    let i = (rng.next_u64() as usize) % m.ops.len();
    let (sel, x, y) = m.ops[i];
    let new = match sel % NUM_OPS {
        0 => 1, // add -> sub
        1 => 2, // sub -> xor
        2 => 4, // xor -> or
        3 => 4, // and -> or
        4 => 3, // or -> and
        7 => 8, // eq -> ult
        _ => 2, // anything else -> xor
    };
    m.ops[i] = (new, x, y);
    m
}

trait TruncOrKeep {
    fn trunc_or_keep(&mut self, n: NodeId, w: u32) -> NodeId;
}

impl TruncOrKeep for ModuleBuilder {
    fn trunc_or_keep(&mut self, n: NodeId, w: u32) -> NodeId {
        if self.node_width(n) > w {
            self.trunc(n, w)
        } else {
            n
        }
    }
}

/// Single-transaction spec: every RTL input is bound to the SLM input of
/// the same name, both outputs compared at cycle 0.
fn spec_for(p: &Program) -> EquivSpec {
    let mut s = EquivSpec::new(1);
    for i in 0..p.input_widths.len() {
        s = s.bind(&format!("i{i}"), 0, Binding::Slm(format!("i{i}")));
    }
    s.compare("y", "y", 0).compare("z", "z", 0)
}

/// Sorted mismatch *locations* of a falsifying outcome. Values are
/// deliberately excluded: sweeping changes which satisfying assignment
/// the solver finds, but never where the models disagree is witnessed.
fn mismatch_locations(o: &EquivOutcome) -> Option<Vec<(String, String, u32)>> {
    match o {
        EquivOutcome::NotEquivalent(cex) => {
            let mut locs: Vec<_> = cex
                .mismatches
                .iter()
                .map(|m| (m.slm_output.clone(), m.rtl_output.clone(), m.rtl_cycle))
                .collect();
            locs.sort();
            Some(locs)
        }
        _ => None,
    }
}

fn check(slm: &Module, rtl: &Module, spec: &EquivSpec, opts: CheckOptions) -> EquivOutcome {
    check_equivalence_with(slm, rtl, spec, &opts)
        .unwrap_or_else(|e| panic!("{:?} check failed to run: {e}", opts.encoding))
        .outcome
}

/// Checks the pair under the `Reference` oracle, then asserts every other
/// encoding agrees with it. Returns the oracle's outcome.
fn check_all(slm: &Module, rtl: &Module, spec: &EquivSpec, what: &str) -> EquivOutcome {
    let encoded = |encoding| CheckOptions {
        encoding,
        ..CheckOptions::default()
    };
    let reference = check(slm, rtl, spec, encoded(Encoding::Reference));
    for e in ENCODINGS {
        let other = check(slm, rtl, spec, encoded(e));
        assert_parity(&reference, &other, &format!("{what}, {e:?}"));
    }
    reference
}

/// Asserts strict verdict parity under unlimited budgets: same outcome
/// variant, and on falsification the same mismatch locations.
fn assert_parity(reference: &EquivOutcome, other: &EquivOutcome, what: &str) {
    match (reference, other) {
        (EquivOutcome::Equivalent, EquivOutcome::Equivalent) => {}
        (EquivOutcome::NotEquivalent(_), EquivOutcome::NotEquivalent(_)) => {
            assert_eq!(
                mismatch_locations(reference),
                mismatch_locations(other),
                "{what}: counterexamples disagree on mismatch locations"
            );
        }
        _ => panic!(
            "{what}: the encoding changed the verdict: reference={reference:?} other={other:?}"
        ),
    }
}

#[test]
fn sweep_is_verdict_neutral_on_equivalent_shuffles() {
    let mut rng = SplitMix64::new(0x5EED_A11C_E001);
    for case in 0..24u64 {
        let p = random_program(&mut rng);
        let swaps: Vec<bool> = (0..p.ops.len()).map(|_| rng.next_bool()).collect();
        let slm = build(&p, "slm", &[]);
        let rtl = build(&p, "rtl", &swaps);
        let spec = spec_for(&p);
        let reference = check_all(&slm, &rtl, &spec, &format!("shuffle case {case}"));
        assert!(
            matches!(reference, EquivOutcome::Equivalent),
            "case {case}: shuffled copy must be equivalent on the reference miter"
        );
    }
}

#[test]
fn sweep_is_verdict_neutral_on_near_miss_mutants() {
    let mut rng = SplitMix64::new(0x5EED_B0B0_0002);
    let mut falsified = 0u32;
    for case in 0..24u64 {
        let p = random_program(&mut rng);
        let m = mutate(&p, &mut rng);
        let slm = build(&p, "slm", &[]);
        let rtl = build(&m, "rtl", &[]);
        let spec = spec_for(&p);
        let reference = check_all(&slm, &rtl, &spec, &format!("mutant case {case}"));
        if matches!(reference, EquivOutcome::NotEquivalent(_)) {
            falsified += 1;
        }
    }
    // The mutator must actually bite on a healthy fraction of cases —
    // otherwise the suite is silently testing only the Equivalent path.
    assert!(falsified >= 8, "only {falsified}/24 mutants falsified");
}

#[test]
fn budgeted_encodings_never_contradict() {
    // Under a starved budget any encoding may degrade to Inconclusive
    // (rewriting and sweeping can even *rescue* a proof the raw miter
    // can't afford — that asymmetry is allowed). The one forbidden
    // outcome is a contradiction between any two encodings: Equivalent
    // on one, NotEquivalent on another.
    let mut rng = SplitMix64::new(0x5EED_CAFE_0003);
    for case in 0..16u64 {
        let p = random_program(&mut rng);
        let m = mutate(&p, &mut rng);
        let slm = build(&p, "slm", &[]);
        let rtl = build(&m, "rtl", &[]);
        let spec = spec_for(&p);
        let outcomes =
            [Encoding::Reference, Encoding::Rewritten, Encoding::Swept].map(|encoding| {
                let mut opts =
                    CheckOptions::with_budget(dfv_sec::Budget::unlimited().with_conflicts(3));
                opts.fallback_transactions = 0;
                opts.encoding = encoding;
                check(&slm, &rtl, &spec, opts)
            });
        let proved = outcomes.iter().any(EquivOutcome::is_equivalent);
        let falsified = outcomes
            .iter()
            .any(|o| matches!(o, EquivOutcome::NotEquivalent(_)));
        assert!(
            !(proved && falsified),
            "case {case}: contradictory verdicts across encodings: {outcomes:?}"
        );
    }
}
