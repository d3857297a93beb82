//! E17 — word-level rewriting before CNF: every miter measured under the
//! raw `Reference` encoding and the production `Rewritten` one, with
//! verdict parity gated per workload.
//!
//! Two halves, one report:
//!
//! * **Workload sweep** — the full `bench sec` miter set
//!   ([`crate::secbench::sec_bench_report`]): commuted multipliers, a
//!   multiply-accumulate, reassociated adders, an FMA mantissa slice, the
//!   memory-system fast bank, and a seeded-bug falsification. Each
//!   workload is checked under `Reference` (off) and `Rewritten` (prod, the
//!   default); the verdicts and counterexample mismatch locations are
//!   asserted identical before any number lands.
//! * **The cliff** — commuted multiplier miters at widths the raw
//!   `Reference` encoding cannot finish: it runs under a hard conflict
//!   budget and degrades to Inconclusive, while the production encoding
//!   proves the same miter outright in milliseconds. The gate here is
//!   monotonicity, not parity: the rewrite may *rescue* a proof the raw
//!   path cannot afford, but the two may never return contradictory
//!   Equivalent/NotEquivalent verdicts.
//!
//! Wall-clock lives only in the report's timing section; every counter is
//! a pure function of the fixed workloads.

use dfv_obs::{Json, RunReport};
use dfv_sec::{check_equivalence_with, Budget, CheckOptions, Encoding};

use crate::render_table;
use crate::secbench;

/// Conflict budget for every encoding in the cliff table — far above
/// anything the rewritten miters need, far below what the raw ones want.
const CLIFF_CONFLICT_BUDGET: u64 = 20_000;

/// Multiplier widths for the cliff table. Width 8 already costs the raw
/// path ~200k conflicts; 16 is the paper-scale datapath.
const CLIFF_WIDTHS: [u32; 3] = [8, 12, 16];

/// Runs E17 and reduces it to a [`RunReport`].
///
/// # Panics
///
/// Panics if an encoding changes any workload's verdict or counterexample
/// locations (the workload sweep), if a rewritten cliff miter fails to
/// prove, or if a cliff miter gets contradictory verdicts.
pub fn e17_report() -> RunReport {
    let mut rep = secbench::sec_bench_report(false);

    for &w in &CLIFF_WIDTHS {
        let (slm, rtl, spec) = secbench::mul_pair(w, false);
        let mut codes = Vec::new();
        for (tag, encoding) in secbench::ENCODINGS {
            let mut opts = CheckOptions::with_budget(
                Budget::unlimited().with_conflicts(CLIFF_CONFLICT_BUDGET),
            );
            opts.fallback_transactions = 0;
            opts.encoding = encoding;
            let r = rep.phase(format!("cliff.mul{w}.{tag}"), || {
                check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap()
            });
            if encoding != Encoding::Reference {
                assert!(
                    r.outcome.is_equivalent(),
                    "mul{w}: {tag} commutativity miter must prove, got {:?}",
                    r.outcome
                );
            }
            codes.push(secbench::verdict_code(&r.outcome));
            rep.set_counter(
                format!("cliff.mul{w}.{tag}.verdict"),
                secbench::verdict_code(&r.outcome),
            );
            rep.set_counter(
                format!("cliff.mul{w}.{tag}.conflicts"),
                r.solver_stats.conflicts,
            );
        }
        // Monotonicity gate: an encoding may only *rescue* proofs, never
        // flip one. A contradiction here would be a soundness bug.
        assert!(
            !(codes.contains(&0) && codes.contains(&1)),
            "mul{w}: contradictory verdicts across encodings {codes:?}"
        );
    }
    rep.set_value("cliff_conflict_budget", Json::UInt(CLIFF_CONFLICT_BUDGET));
    rep
}

/// Runs E17 and renders both tables.
pub fn e17_word_rewriting() -> String {
    let rep = e17_report();
    let mut out = String::from(
        "E17 — word-level rewriting before CNF, verdict parity gated per workload\n\n",
    );
    out.push_str(&secbench::render_sec_bench(&rep));

    let mut rows = Vec::new();
    for &w in &CLIFF_WIDTHS {
        let verdict = |v: u64| match v {
            0 => "equivalent",
            1 => "not-equiv",
            _ => "inconclusive",
        };
        let mut row = vec![format!("mul{w}_comm")];
        for (tag, _) in secbench::ENCODINGS {
            let name = format!("cliff.mul{w}.{tag}");
            let us: u128 = rep
                .phases()
                .iter()
                .filter(|p| p.name == name)
                .map(|p| p.wall.as_micros())
                .sum();
            row.push(verdict(rep.counter(&format!("{name}.verdict"))).into());
            row.push(rep.counter(&format!("{name}.conflicts")).to_string());
            row.push(us.to_string());
        }
        rows.push(row);
    }
    out.push_str(&format!(
        "\nbeyond the cliff: commuted multiplier miters, every encoding capped at {CLIFF_CONFLICT_BUDGET} conflicts\n\n"
    ));
    out.push_str(&render_table(
        &[
            "miter",
            "off verdict",
            "off conflicts",
            "off us",
            "prod verdict",
            "prod conflicts",
            "prod us",
        ],
        &rows,
    ));
    out.push_str(
        "\nthe raw Reference miter (off) exhausts its conflict budget and degrades to\nInconclusive on every width; the production rewrite (prod) proves each miter\nwith zero solver conflicts. The rewrite may rescue a proof the raw path cannot\nafford, but contradictory verdicts are asserted impossible before this table\nis printed.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_sec::EquivOutcome;

    /// A debug-build-sized slice of the cliff: one width, a small
    /// budget. The full table (all widths, 20k-conflict budget, the
    /// whole workload sweep) runs in release via `experiments -- e17`,
    /// which `scripts/check.sh` gates on.
    #[test]
    fn cliff_rescues_a_wide_multiplier() {
        let (slm, rtl, spec) = secbench::mul_pair(8, false);
        let mut opts = CheckOptions::with_budget(Budget::unlimited().with_conflicts(500));
        opts.fallback_transactions = 0;
        opts.encoding = Encoding::Reference;
        let off = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert!(
            matches!(off.outcome, EquivOutcome::Inconclusive { .. }),
            "raw mul8 commutativity must exhaust a 500-conflict budget"
        );
        opts.encoding = Encoding::Rewritten;
        let prod = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert!(prod.outcome.is_equivalent(), "{:?}", prod.outcome);
        assert_eq!(prod.solver_stats.conflicts, 0);
    }
}
