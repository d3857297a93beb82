//! Campaign-level counter gate for the production miter encoding: a cold
//! `Campaign::run` over commuted-multiplier blocks — `a*b` (or
//! `a*b + c`) in the SLM against `b*a` (or `c + b*a`) in the RTL, 4 to 6
//! bits — must pass every block with zero SAT conflicts in the canonical
//! report. On the raw bit-blasted miter these blocks are the CDCL cliff
//! (tens of thousands of conflicts at 6 bits); the word-level rewrite
//! every check now encodes through canonicalizes the operand order, so
//! both cones collapse to the same literals before the solver runs.

use dfv_core::{BlockPair, BlockStatus, Campaign, VerificationPlan};
use dfv_obs::Json;
use dfv_rtl::ModuleBuilder;
use dfv_sec::{Binding, EquivSpec};

/// A commuted multiplier (`madd`: multiply-accumulate) block on `w`-bit
/// operands with a full-width product.
fn commuted_block(w: u32, madd: bool) -> BlockPair {
    let ow = 2 * w + u32::from(madd);
    let slm_source = if madd {
        format!(
            "uint<{ow}> mac(uint<{w}> a, uint<{w}> b, uint<{w}> c) {{ \
             return (uint<{ow}>)a * (uint<{ow}>)b + (uint<{ow}>)c; }}"
        )
    } else {
        format!(
            "uint<{ow}> mac(uint<{w}> a, uint<{w}> b) {{ return (uint<{ow}>)a * (uint<{ow}>)b; }}"
        )
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
    BlockPair {
        name: format!("{}{w}", if madd { "madd" } else { "mul" }),
        slm_source,
        slm_entry: "mac".into(),
        rtl: rb.finish().unwrap(),
        spec: spec.compare("return", "y", 0),
    }
}

#[test]
fn commuted_multiplier_campaign_needs_no_conflicts() {
    let mut plan = VerificationPlan::new();
    for w in 4..=6 {
        for madd in [false, true] {
            plan = plan.block(commuted_block(w, madd));
        }
    }
    let report = Campaign::new().run(&plan);
    for b in &report.blocks {
        assert_eq!(b.status, BlockStatus::Pass, "block {}", b.name);
    }
    let canon = dfv_obs::parse_json(&report.to_run_report().canonical_json()).unwrap();
    let counter = |name: &str| {
        canon
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("campaign.passed"), Some(6));
    assert_eq!(counter("campaign.conflicts"), Some(0));
}
