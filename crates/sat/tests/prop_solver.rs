//! Cross-validation of the CDCL solver against exhaustive enumeration on
//! random small formulas, including under assumptions.
//!
//! Uses the repo's own `SplitMix64` instead of `proptest` so the suite
//! runs offline unconditionally. Every case draws its formula from its own
//! seed, and a failing assertion prints that seed instead of shrinking:
//! `SplitMix64::new(seed)` rebuilds the exact formula. The formulas mix
//! short clauses with clauses of 9+ literals, duplicate literals and
//! tautologies, so both of `Solver::add_clause`'s intake paths (the stack
//! buffer and the heap) and its dedup and tautology filters are exercised.

use dfv_bits::SplitMix64;
use dfv_sat::{Cnf, SolveResult, Solver, Var};

/// One random formula over `num_vars` variables; literals are
/// `(variable, polarity)` pairs.
#[derive(Debug, Clone)]
struct RandomCnf {
    num_vars: usize,
    clauses: Vec<Vec<(usize, bool)>>,
}

fn below(rng: &mut SplitMix64, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// A formula with 2..=`max_vars` variables and 1..=`max_clauses` clauses.
/// Most clauses have 1–4 literals; one in eight is long (9–16), and each
/// clause may repeat a literal or contain one with both polarities.
fn random_cnf(rng: &mut SplitMix64, max_vars: usize, max_clauses: usize) -> RandomCnf {
    let num_vars = 2 + below(rng, max_vars - 1);
    let num_clauses = 1 + below(rng, max_clauses);
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = if below(rng, 8) == 0 {
                9 + below(rng, 8)
            } else {
                1 + below(rng, 4)
            };
            let mut c: Vec<(usize, bool)> = (0..len)
                .map(|_| (below(rng, num_vars), rng.next_bool()))
                .collect();
            match below(rng, 10) {
                0 => c.push(c[below(rng, c.len())]),
                1 => {
                    let (v, pol) = c[below(rng, c.len())];
                    c.push((v, !pol));
                }
                _ => {}
            }
            c
        })
        .collect();
    RandomCnf { num_vars, clauses }
}

fn build(rc: &RandomCnf) -> Cnf {
    let mut cnf = Cnf::new();
    let vars: Vec<Var> = (0..rc.num_vars).map(|_| cnf.new_var()).collect();
    for c in &rc.clauses {
        cnf.add_clause(c.iter().map(|&(v, pol)| vars[v].lit(pol)));
    }
    cnf
}

fn load(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    s.new_vars(cnf.num_vars());
    for c in cnf.clauses() {
        s.add_clause(c);
    }
    s
}

/// Runs `check` on `cases` formulas, each from its own seed.
fn for_each_case(base: u64, cases: u64, mut check: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..cases {
        let seed = base.wrapping_add(case);
        check(seed, &mut SplitMix64::new(seed));
    }
}

#[test]
fn cdcl_agrees_with_brute_force() {
    let mut unsat = 0;
    for_each_case(0x5A7_0001_0000, 400, |seed, rng| {
        let cnf = build(&random_cnf(rng, 12, 60));
        let expect = cnf.brute_force_sat().expect("at most 12 variables");
        unsat += u32::from(!expect);
        let (result, solver) = cnf.solve();
        assert_eq!(result == SolveResult::Sat, expect, "seed {seed:#x}");
        if result == SolveResult::Sat {
            let assignment: Vec<bool> = (0..cnf.num_vars())
                .map(|i| solver.value(Var::from_index(i)).unwrap_or(false))
                .collect();
            assert!(
                cnf.eval(&assignment),
                "seed {seed:#x}: returned model does not satisfy formula"
            );
        }
    });
    // Both verdicts must be well represented, or the suite silently
    // tests only one side of the solver.
    assert!(
        (50..=350).contains(&unsat),
        "{unsat}/400 formulas unsatisfiable"
    );
}

#[test]
fn assumptions_equal_added_units() {
    for_each_case(0x5A7_0002_0000, 300, |seed, rng| {
        let cnf = build(&random_cnf(rng, 10, 40));
        let a0 = Var::from_index(0).lit(rng.next_bool());
        let a1 = Var::from_index(1).lit(rng.next_bool());
        let mut s1 = load(&cnf);
        let with_assumps = s1.solve_with(&[a0, a1]);
        let mut s2 = load(&cnf);
        s2.add_clause(&[a0]);
        s2.add_clause(&[a1]);
        let with_units = s2.solve();
        assert_eq!(with_assumps, with_units, "seed {seed:#x}");
        // The solver with assumptions must still agree with brute force
        // afterwards (no state corruption).
        let plain = s1.solve();
        assert_eq!(
            plain == SolveResult::Sat,
            cnf.brute_force_sat().expect("at most 10 variables"),
            "seed {seed:#x}: solve after assumptions"
        );
    });
}

#[test]
fn repeated_solves_are_stable() {
    for_each_case(0x5A7_0003_0000, 300, |seed, rng| {
        let cnf = build(&random_cnf(rng, 10, 40));
        let (first, mut solver) = cnf.solve();
        for _ in 0..3 {
            assert_eq!(solver.solve(), first, "seed {seed:#x}");
        }
    });
}

/// Padding every clause with copies of its own literals up to 9+ literals
/// moves it from the stack-buffer intake to the heap intake. Both must
/// store the same normalized clause, so the search is step-for-step
/// identical: same answer and the same conflict, decision and
/// propagation counts.
#[test]
fn long_clause_intake_matches_short() {
    for_each_case(0x5A7_0004_0000, 300, |seed, rng| {
        let rc = random_cnf(rng, 12, 60);
        let mut padded = rc.clone();
        for c in &mut padded.clauses {
            let n = c.len();
            for i in 0..9usize.saturating_sub(n) {
                c.push(c[i % n]);
            }
        }
        let (r1, s1) = build(&rc).solve();
        let (r2, s2) = build(&padded).solve();
        assert_eq!(r1, r2, "seed {seed:#x}");
        assert_eq!(s1.num_clauses(), s2.num_clauses(), "seed {seed:#x}");
        assert_eq!(s1.stats(), s2.stats(), "seed {seed:#x}");
    });
}

/// A deterministic hard-ish instance: pigeonhole 6→5 must be UNSAT and the
/// solver must survive clause-database reductions while proving it.
#[test]
fn pigeonhole_6_into_5() {
    let mut s = Solver::new();
    let n = 6;
    let p: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(n - 1)).collect();
    for row in &p {
        let clause: Vec<_> = row.iter().map(|v| v.positive()).collect();
        s.add_clause(&clause);
    }
    // No two pigeons share a hole.
    for (i1, row1) in p.iter().enumerate() {
        for row2 in &p[i1 + 1..] {
            for (a, b) in row1.iter().zip(row2) {
                s.add_clause(&[a.negative(), b.negative()]);
            }
        }
    }
    assert_eq!(s.solve(), SolveResult::Unsat);
}
