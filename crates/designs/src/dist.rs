//! Distributivity: `a * (b + c)` in the SLM against `a*b + a*c` in the
//! RTL, over `width`-bit operands zero-extended to a `2 * width` datapath.
//!
//! The two models are genuinely equivalent, but no word-level rewrite
//! collapses distributivity, so the bit-level miter keeps three
//! multipliers and SAT cost grows steeply with `width` (about 10x per
//! operand bit). That makes it the standard hard-but-equivalent block:
//! tiny budgets reliably exhaust on it at 12-16 bits, a few bits make a
//! proof slow enough to act on mid-flight, and a ramp of widths gives a
//! campaign uneven load.

use dfv_rtl::{Module, ModuleBuilder};
use dfv_sec::{Binding, EquivSpec};

/// SLM entry point of [`slm`].
pub const ENTRY: &str = "dist";

/// SLM source: `return a * (b + c)` in the widened datapath.
pub fn slm(width: u32) -> String {
    let out = 2 * width;
    format!(
        "uint<{out}> dist(uint<{width}> a, uint<{width}> b, uint<{width}> c) {{ \
         return (uint<{out}>)a * ((uint<{out}>)b + (uint<{out}>)c); }}"
    )
}

/// RTL: `y = a*b + a*c`, combinational.
pub fn rtl(width: u32) -> Module {
    let mut b = ModuleBuilder::new("rtl_dist");
    let [a0, b0, c0] = ["a", "b", "c"].map(|n| {
        let x = b.input(n, width);
        b.zext(x, 2 * width)
    });
    let ab = b.mul(a0, b0);
    let ac = b.mul(a0, c0);
    let y = b.add(ab, ac);
    b.output("y", y);
    b.finish().expect("dist rtl is well formed")
}

/// The transaction spec: inputs and output at cycle 0.
pub fn equiv_spec() -> EquivSpec {
    EquivSpec::new(1)
        .bind("a", 0, Binding::Slm("a".into()))
        .bind("b", 0, Binding::Slm("b".into()))
        .bind("c", 0, Binding::Slm("c".into()))
        .compare("return", "y", 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_slmir::{elaborate, parse};

    #[test]
    fn small_widths_prove_equivalent() {
        for width in 1..=3 {
            let slm = elaborate(&parse(&slm(width)).unwrap(), ENTRY).unwrap();
            let report = dfv_sec::check_equivalence(&slm, &rtl(width), &equiv_spec()).unwrap();
            assert!(report.outcome.is_equivalent(), "width {width}");
        }
    }
}
