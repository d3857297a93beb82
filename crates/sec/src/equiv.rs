//! The sequential equivalence checker: miter construction, solving, and
//! validated counterexample extraction.

use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

use dfv_bits::Bv;
use dfv_cosim::{FieldSpec, StimulusGen};
use dfv_obs::{ObsHook, SharedRecorder};
use dfv_rtl::{Module, Simulator};
use dfv_sat::{Budget, ExhaustedReason, Lit, SolveResult, Solver, SolverStats};

use crate::bitblast::{model_word, BitBlaster};
use crate::spec::{Binding, EquivSpec, InitState, SecError};
use crate::unroll::{eval_comb_symbolic, SymbolicSim};

/// One output disagreement within a counterexample.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// SLM output name.
    pub slm_output: String,
    /// RTL output port name.
    pub rtl_output: String,
    /// RTL cycle at which the outputs were compared.
    pub rtl_cycle: u32,
    /// Value the SLM produced.
    pub slm_value: Bv,
    /// Value the RTL produced.
    pub rtl_value: Bv,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = {} but {}@cycle{} = {}",
            self.slm_output, self.slm_value, self.rtl_output, self.rtl_cycle, self.rtl_value
        )
    }
}

/// A concrete, *replay-validated* witness that the SLM and RTL disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// SLM input values by name.
    pub slm_inputs: Vec<(String, Bv)>,
    /// RTL input values per cycle (in input-port order, named).
    pub rtl_inputs: Vec<Vec<(String, Bv)>>,
    /// Initial register state (named), for [`InitState::Free`] checks.
    pub initial_regs: Vec<(String, Bv)>,
    /// The disagreeing compare points.
    pub mismatches: Vec<Mismatch>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "counterexample: ")?;
        for (n, v) in &self.slm_inputs {
            write!(f, "{n}={v} ")?;
        }
        write!(f, "=> ")?;
        for m in &self.mismatches {
            write!(f, "[{m}] ")?;
        }
        Ok(())
    }
}

/// What the bounded random-simulation fallback established after a proof
/// budget ran out: not a proof, but quantified negative evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FalsificationSummary {
    /// Constraint-satisfying random transactions replayed without finding a
    /// mismatch.
    pub transactions: u64,
    /// The stimulus seed (rerun with the same seed to reproduce exactly).
    pub seed: u64,
    /// Transaction depth in RTL cycles (the spec's `rtl_cycles`).
    pub rtl_cycles: u32,
}

impl fmt::Display for FalsificationSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no counterexample in {} random transactions at depth {} (seed {:#x})",
            self.transactions, self.rtl_cycles, self.seed
        )
    }
}

/// The verdict of an equivalence check.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivOutcome {
    /// The models agree on every compare point for every input satisfying
    /// the constraints.
    Equivalent,
    /// A validated counterexample was found.
    NotEquivalent(Box<Counterexample>),
    /// The proof budget ran out before the solver reached an answer. When
    /// the check fell back to bounded random simulation (see
    /// [`CheckOptions::fallback_transactions`]), `falsification` quantifies
    /// how much of the input space was sampled without a mismatch.
    Inconclusive {
        /// Which resource ran out.
        reason: ExhaustedReason,
        /// Simulation-fallback evidence, if the fallback ran.
        falsification: Option<FalsificationSummary>,
    },
}

impl EquivOutcome {
    /// Whether the outcome is [`EquivOutcome::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivOutcome::Equivalent)
    }

    /// Whether the outcome is [`EquivOutcome::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, EquivOutcome::Inconclusive { .. })
    }
}

/// How the equivalence checker encodes a miter into CNF. Both encodings
/// reach the same verdict (the `prop_sweep` suite asserts it); they differ
/// only in the CNF the solver sees and what it costs to build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Encoding {
    /// The raw bit-blasted miter of the caller's modules, with no
    /// rewriting. Kept as the oracle the production encoding is checked
    /// against, as `Simulator::new_reference` is for the simulator.
    Reference,
    /// Both modules rewritten by `dfv_rtl::optimize` (GVN with commutative
    /// canonicalization, constant folding, identities, DCE) before any
    /// literal is allocated, so structurally different but convertible
    /// logic (`a*b` vs `b*a`) becomes literally identical and collapses
    /// through the bit-blaster's gate caches. The production encoding.
    #[default]
    Rewritten,
}

/// What the word-level rewrite did to one miter, reported in
/// [`EquivReport::rewrite`] and mirrored into the
/// `sec.rewrite.nodes_removed` obs counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Total nodes in both modules before word-level rewriting.
    pub nodes_before: u64,
    /// Total nodes after rewriting (GVN + folding + DCE).
    pub nodes_after: u64,
}

/// Resource limits and degradation policy for one equivalence check.
///
/// The default is an unlimited budget (the solver runs to completion, so
/// the outcome is never [`EquivOutcome::Inconclusive`]) with a 256-
/// transaction simulation fallback should a caller-supplied budget run out,
/// over the [`Encoding::Rewritten`] miter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckOptions {
    /// Resource budget for the SAT search.
    pub budget: Budget,
    /// On budget exhaustion, how many constraint-satisfying random
    /// transactions to replay looking for a concrete counterexample.
    /// `0` disables the fallback.
    pub fallback_transactions: u64,
    /// Seed for the fallback stimulus generator.
    pub fallback_seed: u64,
    /// How the miter is encoded into CNF. Verdict-neutral: the choice
    /// changes only the solver's work.
    pub encoding: Encoding,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            budget: Budget::unlimited(),
            fallback_transactions: 256,
            fallback_seed: 0xDF5,
            encoding: Encoding::default(),
        }
    }
}

impl CheckOptions {
    /// Options with the given budget and the default fallback.
    pub fn with_budget(budget: Budget) -> Self {
        CheckOptions {
            budget,
            ..CheckOptions::default()
        }
    }
}

/// Result of an equivalence check with solver statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivReport {
    /// The verdict.
    pub outcome: EquivOutcome,
    /// CNF variables allocated.
    pub cnf_vars: usize,
    /// CNF clauses generated.
    pub cnf_clauses: usize,
    /// SAT search statistics.
    pub solver_stats: SolverStats,
    /// What the word-level rewrite did; `None` for
    /// [`Encoding::Reference`].
    pub rewrite: Option<RewriteStats>,
    /// Wall-clock time of the whole check.
    pub duration: Duration,
}

/// Checks transaction-level equivalence between a combinational SLM module
/// and a sequential (flat) RTL module under `spec`.
///
/// On a SAT answer, the counterexample is **replayed concretely** on both
/// models before being returned; an inconsistency between the SAT model and
/// the replay would indicate a bit-blasting soundness bug and panics.
///
/// # Errors
///
/// Returns [`SecError`] for invalid specs, non-flat RTL, or oversized
/// memories.
///
/// # Example
///
/// ```
/// use dfv_bits::Bv;
/// use dfv_rtl::ModuleBuilder;
/// use dfv_sec::{check_equivalence, Binding, EquivSpec};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // SLM: y = a + b (9 bits, no overflow).
/// let mut sb = ModuleBuilder::new("slm_add");
/// let a = sb.input("a", 8);
/// let b = sb.input("b", 8);
/// let (aw, bw) = (sb.zext(a, 9), sb.zext(b, 9));
/// let y = sb.add(aw, bw);
/// sb.output("y", y);
/// let slm = sb.finish()?;
///
/// // RTL: one-cycle registered version of the same adder.
/// let mut rb = ModuleBuilder::new("rtl_add");
/// let a = rb.input("a", 8);
/// let b = rb.input("b", 8);
/// let (aw, bw) = (rb.zext(a, 9), rb.zext(b, 9));
/// let sum = rb.add(aw, bw);
/// let r = rb.reg("r", 9, Bv::zero(9));
/// rb.connect_reg(r, sum);
/// let q = rb.reg_q(r);
/// rb.output("y", q);
/// let rtl = rb.finish()?;
///
/// let spec = EquivSpec::new(2)
///     .bind("a", 0, Binding::Slm("a".into()))
///     .bind("b", 0, Binding::Slm("b".into()))
///     .compare("y", "y", 1);
/// let report = check_equivalence(&slm, &rtl, &spec)?;
/// assert!(report.outcome.is_equivalent());
/// # Ok(())
/// # }
/// ```
pub fn check_equivalence(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
) -> Result<EquivReport, SecError> {
    check_equivalence_with(slm, rtl, spec, &CheckOptions::default())
}

/// Like [`check_equivalence`], but under a resource [`Budget`] with graceful
/// degradation: if the budget runs out before the solver answers, the check
/// falls back to bounded constrained-random simulation (the `dfv-cosim`
/// stimulus machinery) and returns either a *genuine* replay-validated
/// counterexample found by simulation, or
/// [`EquivOutcome::Inconclusive`] carrying a [`FalsificationSummary`] —
/// "no counterexample in N random transactions at depth k" — so a campaign
/// always learns something from the time it spent.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_with(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
) -> Result<EquivReport, SecError> {
    check_equivalence_inner(slm, rtl, spec, opts, &ObsHook::none())
}

/// Like [`check_equivalence_with`], but streams instrumentation into
/// `rec`: the whole check runs under a `sec.equiv` span, the miter's
/// unroll size lands in the `sec.cnf_vars` / `sec.cnf_clauses` counters,
/// the verdict is recorded as a `sec.outcome` event, and the same
/// recorder is forwarded into the SAT solver so `sat.*` counters
/// accumulate alongside.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_observed(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
    rec: SharedRecorder,
) -> Result<EquivReport, SecError> {
    check_equivalence_inner(slm, rtl, spec, opts, &ObsHook::attached(rec))
}

fn check_equivalence_inner(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
    obs: &ObsHook,
) -> Result<EquivReport, SecError> {
    let start = Instant::now();
    let mut ctx = build_miter(slm, rtl, spec, opts.encoding)?;
    obs.begin_span("sec.equiv");
    if let Some(rec) = obs.recorder() {
        ctx.solver.set_recorder(rec);
    }
    // Assert that *some* compare point differs: one clause over the diffs.
    let diffs = ctx.diffs.clone();
    ctx.solver.add_clause(&diffs);
    let cnf_vars = ctx.solver.num_vars();
    let cnf_clauses = ctx.solver.num_clauses();
    obs.add("sec.cnf_vars", cnf_vars as u64);
    obs.add("sec.cnf_clauses", cnf_clauses as u64);
    if let Some(s) = &ctx.rewrite {
        // A rewrite may also add nodes (a shift chain whose inner shift
        // stays live gains a fused shift and its amount), so saturate.
        obs.add(
            "sec.rewrite.nodes_removed",
            s.nodes_before.saturating_sub(s.nodes_after),
        );
    }
    let outcome = match ctx.solver.solve_budgeted(&[], &opts.budget) {
        SolveResult::Unsat => EquivOutcome::Equivalent,
        SolveResult::Sat => EquivOutcome::NotEquivalent(Box::new(extract_and_replay(
            &ctx.solver,
            slm,
            rtl,
            spec,
            &ctx.slm_words,
            &ctx.free_words,
            &ctx.initial_reg_words,
        ))),
        SolveResult::Unknown(reason) => {
            if opts.fallback_transactions == 0 {
                EquivOutcome::Inconclusive {
                    reason,
                    falsification: None,
                }
            } else {
                match simulate_falsify(
                    slm,
                    rtl,
                    spec,
                    opts.fallback_transactions,
                    opts.fallback_seed,
                ) {
                    Falsification::Found(cex) => EquivOutcome::NotEquivalent(cex),
                    Falsification::NoneFound(summary) => EquivOutcome::Inconclusive {
                        reason,
                        falsification: Some(summary),
                    },
                }
            }
        }
    };
    obs.event("sec.outcome", || match &outcome {
        EquivOutcome::Equivalent => "equivalent".to_string(),
        EquivOutcome::NotEquivalent(cex) => {
            format!("not_equivalent ({} mismatches)", cex.mismatches.len())
        }
        EquivOutcome::Inconclusive {
            reason,
            falsification,
        } => match falsification {
            Some(f) => format!(
                "inconclusive ({reason:?}); no cex in {} simulated transactions",
                f.transactions
            ),
            None => format!("inconclusive ({reason:?})"),
        },
    });
    obs.end_span("sec.equiv");
    Ok(EquivReport {
        outcome,
        cnf_vars,
        cnf_clauses,
        solver_stats: ctx.solver.stats(),
        rewrite: ctx.rewrite,
        duration: start.elapsed(),
    })
}

/// The verdict for a single compare point of a per-output check.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputVerdict {
    /// The compare point this verdict is for.
    pub compare: crate::ComparePoint,
    /// Equivalent, or a replay-validated counterexample for this output.
    pub outcome: EquivOutcome,
    /// Solve time for this output (shared learning makes later outputs
    /// cheaper).
    pub duration: Duration,
}

/// Result of [`check_equivalence_per_output`].
#[derive(Debug, Clone, PartialEq)]
pub struct PerOutputReport {
    /// One verdict per compare point, in spec order.
    pub verdicts: Vec<OutputVerdict>,
    /// CNF variables allocated (shared across all outputs).
    pub cnf_vars: usize,
    /// What the word-level rewrite did; `None` for
    /// [`Encoding::Reference`].
    pub rewrite: Option<RewriteStats>,
    /// Total wall-clock time.
    pub duration: Duration,
}

impl PerOutputReport {
    /// Whether every output was proven equivalent.
    pub fn all_equivalent(&self) -> bool {
        self.verdicts.iter().all(|v| v.outcome.is_equivalent())
    }
}

/// Like [`check_equivalence`], but checks each compare point *separately*
/// under SAT assumptions on one shared CNF — so the solver's learned clauses
/// carry over between outputs and a divergence is localized to the specific
/// output (and cycle) that disagrees, rather than one global verdict.
///
/// This is the intra-session face of the paper's §4.1 incremental SEC;
/// `dfv-core`'s campaign cache is the cross-run face.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_per_output(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
) -> Result<PerOutputReport, SecError> {
    check_equivalence_per_output_with(slm, rtl, spec, &CheckOptions::default())
}

/// Like [`check_equivalence_per_output`], but each per-output solve runs
/// under `opts.budget`. The budget's conflict/propagation caps apply to
/// each output separately; an absolute `deadline` naturally bounds the
/// whole sweep. An exhausted output gets an
/// [`EquivOutcome::Inconclusive`] verdict (without the simulation fallback
/// — use [`check_equivalence_with`] for that) and the sweep moves on, so
/// one hard output cannot starve the rest of their budget.
///
/// # Errors
///
/// As [`check_equivalence`].
pub fn check_equivalence_per_output_with(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    opts: &CheckOptions,
) -> Result<PerOutputReport, SecError> {
    let start = Instant::now();
    let mut ctx = build_miter(slm, rtl, spec, opts.encoding)?;
    let cnf_vars = ctx.solver.num_vars();
    let mut verdicts = Vec::with_capacity(spec.compares.len());
    for (cp, &diff) in spec.compares.iter().zip(&ctx.diffs) {
        let t0 = Instant::now();
        let outcome = match ctx.solver.solve_budgeted(&[diff], &opts.budget) {
            SolveResult::Unsat => EquivOutcome::Equivalent,
            SolveResult::Sat => EquivOutcome::NotEquivalent(Box::new(extract_and_replay(
                &ctx.solver,
                slm,
                rtl,
                spec,
                &ctx.slm_words,
                &ctx.free_words,
                &ctx.initial_reg_words,
            ))),
            SolveResult::Unknown(reason) => EquivOutcome::Inconclusive {
                reason,
                falsification: None,
            },
        };
        verdicts.push(OutputVerdict {
            compare: cp.clone(),
            outcome,
            duration: t0.elapsed(),
        });
    }
    Ok(PerOutputReport {
        verdicts,
        cnf_vars,
        rewrite: ctx.rewrite,
        duration: start.elapsed(),
    })
}

/// Everything shared between the one-shot and per-output checkers: the
/// solver holding the encoded miter, one difference literal per compare
/// point (unasserted), and the words needed for counterexample extraction.
struct MiterCtx {
    solver: Solver,
    diffs: Vec<Lit>,
    slm_words: HashMap<String, Vec<Lit>>,
    free_words: HashMap<(usize, u32), Vec<Lit>>,
    initial_reg_words: Vec<Vec<Lit>>,
    rewrite: Option<RewriteStats>,
}

/// Encodes the miter under `encoding`. Under [`Encoding::Rewritten`] both
/// modules are first canonicalized by `dfv_rtl::optimize` and the
/// *optimized* modules are encoded. The optimizer preserves ports,
/// registers, and memories by name and order, so counterexample
/// extraction and concrete replay keep using the caller's original
/// modules.
fn build_miter(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    encoding: Encoding,
) -> Result<MiterCtx, SecError> {
    spec.validate(slm, rtl)?;
    dfv_rtl::check_module(slm)?;
    dfv_rtl::check_module(rtl)?;

    let optimized = match encoding {
        Encoding::Reference => None,
        Encoding::Rewritten => Some((dfv_rtl::optimize(slm).0, dfv_rtl::optimize(rtl).0)),
    };
    let nodes_before = (slm.nodes.len() + rtl.nodes.len()) as u64;
    let (slm, rtl) = match &optimized {
        Some((s, r)) => (s, r),
        None => (slm, rtl),
    };

    let mut solver = Solver::new();
    let mut bb = BitBlaster::new(&mut solver);

    // Symbolic SLM inputs.
    let mut slm_words: HashMap<String, Vec<Lit>> = HashMap::new();
    for p in &slm.inputs {
        let w = bb.fresh_word(p.width);
        slm_words.insert(p.name.clone(), w);
    }
    let slm_input_vec: Vec<Vec<Lit>> = slm
        .inputs
        .iter()
        .map(|p| slm_words[&p.name].clone())
        .collect();

    // Environment constraints: the verdict quantifies over the input
    // space they admit.
    for c in &spec.constraints {
        let ins: Vec<Vec<Lit>> = c
            .inputs
            .iter()
            .map(|p| slm_words[&p.name].clone())
            .collect();
        let cyc = eval_comb_symbolic(&mut bb, c, &ins);
        let ok = cyc.output(c, &c.outputs[0].name);
        bb.assert_lit(ok[0]);
    }

    // SLM evaluation.
    let slm_cycle = eval_comb_symbolic(&mut bb, slm, &slm_input_vec);

    // RTL unrolling.
    let mut binding_at: HashMap<(usize, u32), &Binding> = HashMap::new();
    for (port, cycle, b) in &spec.bindings {
        let idx = rtl.input_index(port).expect("validated");
        binding_at.insert((idx, *cycle), b);
    }
    let mut sym = SymbolicSim::new(&mut bb, rtl, spec.init)?;
    let initial_reg_words: Vec<Vec<Lit>> = sym.reg_state().to_vec();
    // Free-binding words, recorded for counterexample extraction.
    let mut free_words: HashMap<(usize, u32), Vec<Lit>> = HashMap::new();
    let mut rtl_cycles = Vec::with_capacity(spec.rtl_cycles as usize);
    for t in 0..spec.rtl_cycles {
        let inputs: Vec<Vec<Lit>> = rtl
            .inputs
            .iter()
            .enumerate()
            .map(|(i, p)| match binding_at.get(&(i, t)) {
                Some(Binding::Slm(name)) => slm_words[name].clone(),
                Some(Binding::SlmSlice { name, hi, lo }) => {
                    slm_words[name][*lo as usize..=*hi as usize].to_vec()
                }
                Some(Binding::Const(v)) => bb.constant(v),
                Some(Binding::Free) => {
                    let w = bb.fresh_word(p.width);
                    free_words.insert((i, t), w.clone());
                    w
                }
                None => bb.constant(&Bv::zero(p.width)),
            })
            .collect();
        rtl_cycles.push(sym.step(&mut bb, &inputs));
    }

    // One (unasserted) difference literal per compare point.
    let mut diffs = Vec::with_capacity(spec.compares.len());
    for cp in &spec.compares {
        let mut s = slm_cycle.output(slm, &cp.slm_output);
        if let Some((hi, lo)) = cp.slm_slice {
            s = s[lo as usize..=hi as usize].to_vec();
        }
        let r = rtl_cycles[cp.rtl_cycle as usize].output(rtl, &cp.rtl_output);
        let eq = bb.eq_word(&s, &r);
        diffs.push(!eq);
    }
    drop(bb);
    Ok(MiterCtx {
        solver,
        diffs,
        slm_words,
        free_words,
        initial_reg_words,
        rewrite: optimized.is_some().then(|| RewriteStats {
            nodes_before,
            nodes_after: (slm.nodes.len() + rtl.nodes.len()) as u64,
        }),
    })
}

/// Builds the concrete per-cycle RTL input vectors for given SLM input
/// values, asking `free_value` for each [`Binding::Free`] port/cycle.
///
/// The `expect("validated")` / map-indexing here is invariant-protected:
/// `spec.validate` (run by `build_miter` before any caller reaches this)
/// guarantees every bound port exists on the RTL and every `Binding::Slm`
/// name is an SLM input.
fn concretize_rtl_inputs(
    rtl: &Module,
    spec: &EquivSpec,
    slm_map: &HashMap<&str, &Bv>,
    mut free_value: impl FnMut(usize, u32, u32) -> Bv,
) -> Vec<Vec<(String, Bv)>> {
    let mut binding_at: HashMap<(usize, u32), &Binding> = HashMap::new();
    for (port, cycle, b) in &spec.bindings {
        binding_at.insert((rtl.input_index(port).expect("validated"), *cycle), b);
    }
    (0..spec.rtl_cycles)
        .map(|t| {
            rtl.inputs
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let v = match binding_at.get(&(i, t)) {
                        Some(Binding::Slm(name)) => slm_map[name.as_str()].clone(),
                        Some(Binding::SlmSlice { name, hi, lo }) => {
                            slm_map[name.as_str()].slice(*hi, *lo)
                        }
                        Some(Binding::Const(v)) => v.clone(),
                        Some(Binding::Free) => free_value(i, t, p.width),
                        None => Bv::zero(p.width),
                    };
                    (p.name.clone(), v)
                })
                .collect()
        })
        .collect()
}

/// Concretely replays one transaction on both simulators and collects the
/// compare-point mismatches (empty = the models agreed on this input).
///
/// `Simulator::new` only fails on malformed modules; both modules were
/// already accepted by `check_module` in `build_miter`, so the `expect`s
/// are invariant-protected.
fn replay_mismatches(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    slm_inputs: &[(String, Bv)],
    rtl_inputs: &[Vec<(String, Bv)>],
    initial_regs: &[(String, Bv)],
) -> Vec<Mismatch> {
    // Replay the SLM.
    let mut slm_sim = Simulator::new(slm.clone()).expect("validated slm");
    let slm_in_refs: Vec<(&str, Bv)> = slm_inputs
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let slm_outs = slm_sim.eval_comb(&slm_in_refs);

    // Replay the RTL.
    let mut rtl_sim = Simulator::new(rtl.clone()).expect("validated rtl");
    if spec.init == InitState::Free {
        for (name, v) in initial_regs {
            rtl_sim.set_reg(name, v.clone());
        }
    }
    let mut sampled: HashMap<(String, u32), Bv> = HashMap::new();
    for (t, cycle_inputs) in rtl_inputs.iter().enumerate() {
        for (name, v) in cycle_inputs {
            rtl_sim.poke(name, v.clone());
        }
        for cp in &spec.compares {
            if cp.rtl_cycle == t as u32 {
                let v = rtl_sim.output(&cp.rtl_output);
                sampled.insert((cp.rtl_output.clone(), cp.rtl_cycle), v);
            }
        }
        rtl_sim.step();
    }

    let mut mismatches = Vec::new();
    for cp in &spec.compares {
        let mut sv = slm_outs[&cp.slm_output].clone();
        if let Some((hi, lo)) = cp.slm_slice {
            sv = sv.slice(hi, lo);
        }
        let rv = sampled[&(cp.rtl_output.clone(), cp.rtl_cycle)].clone();
        if sv != rv {
            mismatches.push(Mismatch {
                slm_output: cp.slm_output.clone(),
                rtl_output: cp.rtl_output.clone(),
                rtl_cycle: cp.rtl_cycle,
                slm_value: sv,
                rtl_value: rv,
            });
        }
    }
    mismatches
}

/// Reads the SAT model, replays it concretely on both models, and verifies
/// that the replay reproduces a mismatch.
fn extract_and_replay(
    solver: &Solver,
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    slm_words: &HashMap<String, Vec<Lit>>,
    free_words: &HashMap<(usize, u32), Vec<Lit>>,
    initial_reg_words: &[Vec<Lit>],
) -> Counterexample {
    let slm_inputs: Vec<(String, Bv)> = slm
        .inputs
        .iter()
        .map(|p| (p.name.clone(), model_word(solver, &slm_words[&p.name])))
        .collect();
    let slm_map: HashMap<&str, &Bv> = slm_inputs.iter().map(|(n, v)| (n.as_str(), v)).collect();
    let rtl_inputs = concretize_rtl_inputs(rtl, spec, &slm_map, |i, t, _| {
        model_word(solver, &free_words[&(i, t)])
    });
    let initial_regs: Vec<(String, Bv)> = rtl
        .regs
        .iter()
        .zip(initial_reg_words)
        .map(|(r, w)| (r.name.clone(), model_word(solver, w)))
        .collect();

    let mismatches = replay_mismatches(slm, rtl, spec, &slm_inputs, &rtl_inputs, &initial_regs);
    // Not invariant-protected so much as soundness-checked: a SAT model
    // that fails to replay means the bit-blasted encoding diverged from the
    // simulators, which must never be reported as a "counterexample".
    assert!(
        !mismatches.is_empty(),
        "SAT model did not replay to a concrete mismatch: bit-blasting soundness bug"
    );
    Counterexample {
        slm_inputs,
        rtl_inputs,
        initial_regs,
        mismatches,
    }
}

/// The result of the bounded random-simulation fallback.
enum Falsification {
    /// Simulation found a real, replay-validated mismatch.
    Found(Box<Counterexample>),
    /// All replayed transactions agreed.
    NoneFound(FalsificationSummary),
}

/// Replays up to `transactions` constraint-satisfying random transactions
/// on both models, looking for a concrete mismatch — the degradation path
/// when the proof budget runs out. Draws that violate an environment
/// constraint are discarded (bounded at 16 draws per accepted transaction,
/// so adversarially tight constraints degrade coverage, never hang).
fn simulate_falsify(
    slm: &Module,
    rtl: &Module,
    spec: &EquivSpec,
    transactions: u64,
    seed: u64,
) -> Falsification {
    // One stimulus field per SLM input, per free RTL binding, and (for
    // free-init checks) per register. The prefixes keep the namespaces
    // apart; port names cannot contain spaces.
    let mut gen = StimulusGen::new(seed);
    for p in &slm.inputs {
        gen = gen.field(
            &format!("in {}", p.name),
            FieldSpec::Uniform { width: p.width },
        );
    }
    for (port, cycle, b) in &spec.bindings {
        if matches!(b, Binding::Free) {
            let idx = rtl.input_index(port).expect("validated");
            gen = gen.field(
                &format!("free {idx} {cycle}"),
                FieldSpec::Uniform {
                    width: rtl.inputs[idx].width,
                },
            );
        }
    }
    if spec.init == InitState::Free {
        for r in &rtl.regs {
            gen = gen.field(
                &format!("reg {}", r.name),
                FieldSpec::Uniform { width: r.width },
            );
        }
    }
    // Constraint modules are validated combinational by `spec.validate`.
    let mut constraint_sims: Vec<Simulator> = spec
        .constraints
        .iter()
        .map(|c| Simulator::new(c.clone()).expect("validated constraint"))
        .collect();

    let mut replayed = 0u64;
    let max_draws = transactions.saturating_mul(16);
    let mut draws = 0u64;
    while replayed < transactions && draws < max_draws {
        draws += 1;
        let txn = gen.next_transaction();
        let slm_inputs: Vec<(String, Bv)> = slm
            .inputs
            .iter()
            .map(|p| (p.name.clone(), txn[&format!("in {}", p.name)].clone()))
            .collect();
        let slm_map: HashMap<&str, &Bv> = slm_inputs.iter().map(|(n, v)| (n.as_str(), v)).collect();

        // Reject draws that violate an environment constraint.
        let ok = constraint_sims
            .iter_mut()
            .zip(&spec.constraints)
            .all(|(sim, c)| {
                let ins: Vec<(&str, Bv)> = c
                    .inputs
                    .iter()
                    .map(|p| (p.name.as_str(), (*slm_map[p.name.as_str()]).clone()))
                    .collect();
                sim.eval_comb(&ins)[&c.outputs[0].name].bit(0)
            });
        if !ok {
            continue;
        }
        replayed += 1;

        let rtl_inputs = concretize_rtl_inputs(rtl, spec, &slm_map, |i, t, _| {
            txn[&format!("free {i} {t}")].clone()
        });
        let initial_regs: Vec<(String, Bv)> = if spec.init == InitState::Free {
            rtl.regs
                .iter()
                .map(|r| (r.name.clone(), txn[&format!("reg {}", r.name)].clone()))
                .collect()
        } else {
            Vec::new()
        };
        let mismatches = replay_mismatches(slm, rtl, spec, &slm_inputs, &rtl_inputs, &initial_regs);
        if !mismatches.is_empty() {
            return Falsification::Found(Box::new(Counterexample {
                slm_inputs,
                rtl_inputs,
                initial_regs,
                mismatches,
            }));
        }
    }
    Falsification::NoneFound(FalsificationSummary {
        transactions: replayed,
        seed,
        rtl_cycles: spec.rtl_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfv_rtl::ModuleBuilder;

    /// SLM for Fig 1: out = sext(b + c) + sext(a), computed with an 8-bit
    /// temporary — the "correct" ordering per the golden model.
    fn fig1_slm(order_bc: bool) -> Module {
        let name = if order_bc { "slm_bc" } else { "slm_ab" };
        let mut b = ModuleBuilder::new(name);
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let (x, y, z) = if order_bc { (bi, c, a) } else { (a, bi, c) };
        let tmp = b.add(x, y);
        let tw = b.sext(tmp, 9);
        let zw = b.sext(z, 9);
        let out = b.add(tw, zw);
        b.output("out", out);
        b.finish().unwrap()
    }

    /// Registered RTL computing (a + b) + c with an 8-bit tmp over 2 cycles.
    fn fig1_rtl() -> Module {
        let mut b = ModuleBuilder::new("rtl_ab");
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let tmp_r = b.reg("tmp", 8, Bv::zero(8));
        let c_r = b.reg("c_r", 8, Bv::zero(8));
        let sum = b.add(a, bi);
        b.connect_reg(tmp_r, sum);
        b.connect_reg(c_r, c);
        let tq = b.reg_q(tmp_r);
        let cq = b.reg_q(c_r);
        let tw = b.sext(tq, 9);
        let cw = b.sext(cq, 9);
        let out = b.add(tw, cw);
        b.output("out", out);
        b.finish().unwrap()
    }

    fn fig1_spec() -> EquivSpec {
        EquivSpec::new(2)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("out", "out", 1)
    }

    #[test]
    fn instrumented_check_runs_on_a_worker_thread() {
        // The whole proof stack (miter build, bit-blast, budgeted CDCL,
        // recorder handle) is Send: an observed check can be dispatched to
        // a scheduler worker and stream into a recorder owned elsewhere.
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let handle: dfv_obs::SharedRecorder = rec.clone();
        let report = std::thread::spawn(move || {
            check_equivalence_observed(
                &fig1_slm(false),
                &fig1_rtl(),
                &fig1_spec(),
                &CheckOptions::default(),
                handle,
            )
        })
        .join()
        .unwrap()
        .unwrap();
        assert!(report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        assert_eq!(m.events_of("sec.outcome"), vec!["equivalent"]);
    }

    #[test]
    fn observed_equivalence_records_unroll_size_and_outcome() {
        use dfv_obs::MemoryRecorder;
        let rec = MemoryRecorder::shared();
        let report = check_equivalence_observed(
            &fig1_slm(false),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
            rec.clone(),
        )
        .unwrap();
        assert!(report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        assert_eq!(m.counter("sec.cnf_vars"), report.cnf_vars as u64);
        assert_eq!(m.counter("sec.cnf_clauses"), report.cnf_clauses as u64);
        assert_eq!(m.events_of("sec.outcome"), vec!["equivalent"]);
        // The forwarded recorder also sees the solver itself: any counter
        // deltas it records are bounded by the solver's cumulative stats
        // (this fixture's miter can even simplify to unsat while clauses
        // are *added*, in which case the solve call records nothing).
        assert!(m.counter("sat.propagations") <= report.solver_stats.propagations);

        let rec = MemoryRecorder::shared();
        let report = check_equivalence_observed(
            &fig1_slm(true),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
            rec.clone(),
        )
        .unwrap();
        assert!(!report.outcome.is_equivalent());
        let m = rec.lock().unwrap();
        let events = m.events_of("sec.outcome");
        assert_eq!(events.len(), 1);
        assert!(events[0].starts_with("not_equivalent"), "{}", events[0]);
    }

    #[test]
    fn fig1_same_order_is_equivalent() {
        let report = check_equivalence(&fig1_slm(false), &fig1_rtl(), &fig1_spec()).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        assert!(report.cnf_vars > 0);
    }

    #[test]
    fn fig1_reassociated_order_is_caught() {
        // The paper's Figure 1: with an 8-bit temporary, (b+c)+a differs
        // from (a+b)+c. The checker must produce a concrete witness.
        let report = check_equivalence(&fig1_slm(true), &fig1_rtl(), &fig1_spec()).unwrap();
        match report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.mismatches.len(), 1);
                assert_eq!(cex.slm_inputs.len(), 3);
                // Replay validation already ran inside the checker; check
                // the witness exhibits an overflow in one of the temps.
                let get = |n: &str| {
                    cex.slm_inputs
                        .iter()
                        .find(|(name, _)| name == n)
                        .unwrap()
                        .1
                        .clone()
                };
                let (a, b, c) = (get("a"), get("b"), get("c"));
                let l = a.wrapping_add(&b).sext(9).wrapping_add(&c.sext(9));
                let r = b.wrapping_add(&c).sext(9).wrapping_add(&a.sext(9));
                assert_ne!(l, r);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }

    #[test]
    fn fig1_widened_temp_fixes_reassociation() {
        // With a 9-bit temporary (the paper's fix), both orders agree.
        let mut b = ModuleBuilder::new("slm_wide");
        let a = b.input("a", 8);
        let bi = b.input("b", 8);
        let c = b.input("c", 8);
        let bw = b.sext(bi, 10);
        let cw = b.sext(c, 10);
        let aw = b.sext(a, 10);
        let t = b.add(bw, cw);
        let out10 = b.add(t, aw);
        let out = b.trunc(out10, 9);
        b.output("out", out);
        let slm = b.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_wide");
        let a = rb.input("a", 8);
        let bi = rb.input("b", 8);
        let c = rb.input("c", 8);
        let aw = rb.sext(a, 10);
        let bw = rb.sext(bi, 10);
        let cw = rb.sext(c, 10);
        let s1 = rb.add(aw, bw);
        let tmp_r = rb.reg("tmp", 10, Bv::zero(10));
        rb.connect_reg(tmp_r, s1);
        let c_r = rb.reg("c_r", 10, Bv::zero(10));
        rb.connect_reg(c_r, cw);
        let tq = rb.reg_q(tmp_r);
        let cq = rb.reg_q(c_r);
        let out10 = rb.add(tq, cq);
        let out = rb.trunc(out10, 9);
        rb.output("out", out);
        let rtl = rb.finish().unwrap();

        let report = check_equivalence(&slm, &rtl, &fig1_spec()).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
    }

    #[test]
    fn constraint_masks_divergence() {
        // SLM and RTL disagree only when a == 0xFF (RTL has a bug there);
        // constraining a != 0xFF makes them equivalent (paper §3.1.2's
        // input-space constraining, applied to an integer corner case).
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        let one = sb.lit(8, 1);
        let y = sb.add(a, one);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let one = rb.lit(8, 1);
        let sum = rb.add(a, one);
        let ff = rb.lit(8, 0xFF);
        let is_ff = rb.eq(a, ff);
        let zero = rb.lit(8, 0x42); // wrong wraparound behaviour
        let y = rb.mux(is_ff, zero, sum);
        let r = rb.reg("r", 8, Bv::zero(8));
        rb.connect_reg(r, y);
        let q = rb.reg_q(r);
        rb.output("y", q);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(2)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 1);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        match &report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.slm_inputs[0].1.to_u64(), 0xFF);
            }
            other => panic!("expected counterexample, got {other:?}"),
        }

        // Now constrain a != 0xFF.
        let mut cb = ModuleBuilder::new("no_ff");
        let a = cb.input("a", 8);
        let ff = cb.lit(8, 0xFF);
        let ok = cb.ne(a, ff);
        cb.output("ok", ok);
        let constraint = cb.finish().unwrap();
        let spec = spec.constrain(constraint);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    #[test]
    fn free_binding_checks_all_environments() {
        // RTL output depends on a "mode" pin the SLM doesn't model: with a
        // Free binding the checker must find the bad mode value.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let mode = rb.input("mode", 1);
        let na = rb.not(a);
        let y = rb.mux(mode, na, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Free)
            .compare("y", "y", 0);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(!report.outcome.is_equivalent());

        // Tying the mode off makes them equivalent.
        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Const(Bv::zero(1)))
            .compare("y", "y", 0);
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    /// Options selecting one encoding, everything else default.
    fn encoded(encoding: Encoding) -> CheckOptions {
        CheckOptions {
            encoding,
            ..CheckOptions::default()
        }
    }

    /// Two structurally different 16×16→32 multipliers (`a*b` vs `b*a`).
    /// Proving commutativity of a bit-blasted multiplier is notoriously
    /// expensive for CDCL; the rewriter's commutative canonicalization
    /// makes it free.
    fn commuted_mul_pair() -> (Module, Module, EquivSpec) {
        let mut sb = ModuleBuilder::new("slm_mul");
        let a = sb.input("a", 16);
        let b = sb.input("b", 16);
        let (aw, bw) = (sb.zext(a, 32), sb.zext(b, 32));
        let y = sb.mul(aw, bw);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_mul");
        let a = rb.input("a", 16);
        let b = rb.input("b", 16);
        let (aw, bw) = (rb.zext(a, 32), rb.zext(b, 32));
        let y = rb.mul(bw, aw);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .compare("y", "y", 0);
        (slm, rtl, spec)
    }

    /// Inputs `a`, `b`, `c` (16 bits), zero-extended to 32.
    fn dist_words(b: &mut ModuleBuilder) -> [dfv_rtl::NodeId; 3] {
        ["a", "b", "c"].map(|n| {
            let x = b.input(n, 16);
            b.zext(x, 32)
        })
    }

    /// A deliberately hard miter: `a * (b + c)` (SLM) against
    /// `a*b + a*c` (RTL) in a 32-bit datapath. No word-level rewrite
    /// collapses distributivity, so CDCL faces three bit-blasted
    /// multipliers and tiny budgets reliably exhaust — while the models
    /// are genuinely equivalent, so the simulation fallback finds no
    /// counterexample.
    fn hard_pair() -> (Module, Module, EquivSpec) {
        let mut sb = ModuleBuilder::new("slm_dist");
        let [a, b, c] = dist_words(&mut sb);
        let s = sb.add(b, c);
        let y = sb.mul(a, s);
        sb.output("y", y);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl_dist");
        let [a, b, c] = dist_words(&mut rb);
        let ab = rb.mul(a, b);
        let ac = rb.mul(a, c);
        let y = rb.add(ab, ac);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("y", "y", 0);
        (slm, rtl, spec)
    }

    /// `t = x >> 1`, `y = t + (t >> 1)`, both exported: the rewriter fuses
    /// `(x >> 1) >> 1` into `x >> 2`, which needs a new shift-amount constant
    /// and a new shift while `t` stays live, so the module *grows*.
    fn shift_chain(name: &str) -> Module {
        let mut b = ModuleBuilder::new(name);
        let x = b.input("x", 32);
        let one = b.lit(32, 1);
        let t = b.lshr(x, one);
        let u = b.lshr(t, one);
        let y = b.add(t, u);
        b.output("t", t);
        b.output("y", y);
        b.finish().unwrap()
    }

    #[test]
    fn rewrite_that_grows_the_miter_is_reported_without_underflow() {
        let (slm, rtl) = (shift_chain("slm_shr"), shift_chain("rtl_shr"));
        let spec = EquivSpec::new(1)
            .bind("x", 0, Binding::Slm("x".into()))
            .compare("t", "t", 0)
            .compare("y", "y", 0);
        // Default encoding, unobserved and observed: both run the same
        // stats path, which must not subtract below zero.
        let report = check_equivalence(&slm, &rtl, &spec).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        let rewrite = report.rewrite.expect("default encoding rewrites");
        assert!(rewrite.nodes_after > rewrite.nodes_before, "{rewrite:?}");

        let rec = dfv_obs::MemoryRecorder::shared();
        let report =
            check_equivalence_observed(&slm, &rtl, &spec, &CheckOptions::default(), rec.clone())
                .unwrap();
        assert!(report.outcome.is_equivalent());
        assert_eq!(rec.lock().unwrap().counter("sec.rewrite.nodes_removed"), 0);
    }

    #[test]
    fn rewrite_collapses_multiplier_commutativity() {
        // On the raw encoding, proving a*b == b*a for 16-bit operands is
        // out of reach for CDCL. The rewriter's commutative GVN
        // canonicalizes both multipliers to the same operand order, the
        // shared input literals make the two cones literally identical
        // through the gate caches, and the difference folds to constant
        // false — Equivalent in milliseconds with zero conflicts.
        let (slm, rtl, spec) = commuted_mul_pair();
        let report =
            check_equivalence_with(&slm, &rtl, &spec, &encoded(Encoding::Rewritten)).unwrap();
        assert!(report.outcome.is_equivalent(), "{:?}", report.outcome);
        let rewrite = report.rewrite.expect("front-end ran");
        assert!(rewrite.nodes_after <= rewrite.nodes_before);
        assert_eq!(report.solver_stats.conflicts, 0);
    }

    #[test]
    fn encodings_preserve_verdicts_on_fig1() {
        // Same verdict under both encodings, on both the equivalent and
        // the inequivalent orderings; the counterexample must land on the
        // same compare point and replay concretely (extract_and_replay
        // already asserts the replay).
        for order_bc in [false, true] {
            let slm = fig1_slm(order_bc);
            let rtl = fig1_rtl();
            let reference =
                check_equivalence_with(&slm, &rtl, &fig1_spec(), &encoded(Encoding::Reference))
                    .unwrap();
            assert!(reference.rewrite.is_none());
            let rewritten =
                check_equivalence_with(&slm, &rtl, &fig1_spec(), &encoded(Encoding::Rewritten))
                    .unwrap();
            assert_eq!(
                reference.outcome.is_equivalent(),
                rewritten.outcome.is_equivalent()
            );
            assert!(rewritten.rewrite.is_some());
            if let (EquivOutcome::NotEquivalent(a), EquivOutcome::NotEquivalent(b)) =
                (&reference.outcome, &rewritten.outcome)
            {
                assert_eq!(a.mismatches[0].slm_output, b.mismatches[0].slm_output);
                assert_eq!(a.mismatches[0].rtl_cycle, b.mismatches[0].rtl_cycle);
            }
        }
    }

    #[test]
    fn rewrite_respects_constraints_and_free_bindings() {
        // A Free-bound mode pin flips the output; the rewritten miter must
        // still find the bad mode, and a Const-bound pin must fold to the
        // equivalent one.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let mode = rb.input("mode", 1);
        let na = rb.not(a);
        let y = rb.mux(mode, na, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Free)
            .compare("y", "y", 0);
        let report =
            check_equivalence_with(&slm, &rtl, &spec, &encoded(Encoding::Rewritten)).unwrap();
        assert!(!report.outcome.is_equivalent());

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("mode", 0, Binding::Const(Bv::zero(1)))
            .compare("y", "y", 0);
        let report =
            check_equivalence_with(&slm, &rtl, &spec, &encoded(Encoding::Rewritten)).unwrap();
        assert!(report.outcome.is_equivalent());
    }

    #[test]
    fn tiny_budget_yields_inconclusive_with_falsification() {
        let (slm, rtl, spec) = hard_pair();
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(100),
            fallback_transactions: 64,
            fallback_seed: 7,
            ..CheckOptions::default()
        };
        let started = Instant::now();
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::Inconclusive {
                reason,
                falsification: Some(f),
            } => {
                assert_eq!(reason, ExhaustedReason::Conflicts);
                assert_eq!(f.transactions, 64);
                assert_eq!(f.seed, 7);
                assert_eq!(f.rtl_cycles, 1);
                assert!(f.to_string().contains("64 random transactions"));
            }
            other => panic!("expected inconclusive with fallback, got {other:?}"),
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "budgeted check must return in bounded time"
        );
    }

    #[test]
    fn deadline_budget_yields_inconclusive() {
        let (slm, rtl, spec) = hard_pair();
        let opts = CheckOptions {
            budget: Budget::unlimited().with_timeout(Duration::from_millis(1)),
            fallback_transactions: 0,
            fallback_seed: 0,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        assert_eq!(
            report.outcome,
            EquivOutcome::Inconclusive {
                reason: ExhaustedReason::Deadline,
                falsification: None,
            }
        );
    }

    #[test]
    fn fallback_simulation_finds_real_bugs() {
        // y = a vs y = !a differ everywhere, so even with a zero-conflict
        // proof budget the random fallback must produce a *validated*
        // counterexample, not an Inconclusive.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 8);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 8);
        let y = rb.not(a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 0);
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(0),
            fallback_transactions: 32,
            fallback_seed: 1,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::NotEquivalent(cex) => {
                assert_eq!(cex.mismatches.len(), 1);
                let (_, av) = &cex.slm_inputs[0];
                assert_eq!(cex.mismatches[0].slm_value, *av);
            }
            other => panic!("expected simulation-found counterexample, got {other:?}"),
        }
    }

    #[test]
    fn fallback_respects_constraints() {
        // The models differ only at a == 0; a constraint excludes that
        // value, so the fallback must never report the constrained-away
        // mismatch.
        let mut sb = ModuleBuilder::new("slm");
        let a = sb.input("a", 2);
        sb.output("y", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let a = rb.input("a", 2);
        let zero = rb.lit(2, 0);
        let is_zero = rb.eq(a, zero);
        let three = rb.lit(2, 3);
        let y = rb.mux(is_zero, three, a);
        rb.output("y", y);
        let rtl = rb.finish().unwrap();

        let mut cb = ModuleBuilder::new("nonzero");
        let a = cb.input("a", 2);
        let zero = cb.lit(2, 0);
        let ok = cb.ne(a, zero);
        cb.output("ok", ok);
        let constraint = cb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .compare("y", "y", 0)
            .constrain(constraint);
        let opts = CheckOptions {
            budget: Budget::unlimited().with_conflicts(0),
            fallback_transactions: 200,
            fallback_seed: 3,
            ..CheckOptions::default()
        };
        let report = check_equivalence_with(&slm, &rtl, &spec, &opts).unwrap();
        match report.outcome {
            EquivOutcome::Inconclusive {
                falsification: Some(f),
                ..
            } => assert!(f.transactions > 0, "some draws must satisfy a != 0"),
            other => panic!("expected inconclusive, got {other:?}"),
        }
    }

    #[test]
    fn per_output_budget_localizes_exhaustion() {
        // One easy output (pass-through) and one hard output
        // (distributivity): under a tiny budget the easy one still proves,
        // only the hard one is inconclusive.
        let mut sb = ModuleBuilder::new("slm");
        let [a, b, c] = dist_words(&mut sb);
        let s = sb.add(b, c);
        let p = sb.mul(a, s);
        sb.output("p", p);
        sb.output("pass", a);
        let slm = sb.finish().unwrap();

        let mut rb = ModuleBuilder::new("rtl");
        let [a, b, c] = dist_words(&mut rb);
        let ab = rb.mul(a, b);
        let ac = rb.mul(a, c);
        let p = rb.add(ab, ac);
        rb.output("p", p);
        rb.output("pass", a);
        let rtl = rb.finish().unwrap();

        let spec = EquivSpec::new(1)
            .bind("a", 0, Binding::Slm("a".into()))
            .bind("b", 0, Binding::Slm("b".into()))
            .bind("c", 0, Binding::Slm("c".into()))
            .compare("pass", "pass", 0)
            .compare("p", "p", 0);
        let opts = CheckOptions::with_budget(Budget::unlimited().with_conflicts(50));
        let report = check_equivalence_per_output_with(&slm, &rtl, &spec, &opts).unwrap();
        assert_eq!(report.verdicts.len(), 2);
        assert!(report.verdicts[0].outcome.is_equivalent());
        assert!(report.verdicts[1].outcome.is_inconclusive());
        assert!(!report.all_equivalent());
    }

    #[test]
    fn unlimited_budget_never_inconclusive() {
        let report = check_equivalence_with(
            &fig1_slm(false),
            &fig1_rtl(),
            &fig1_spec(),
            &CheckOptions::default(),
        )
        .unwrap();
        assert!(report.outcome.is_equivalent());
    }

    #[test]
    fn spec_validation_errors() {
        let slm = fig1_slm(false);
        let rtl = fig1_rtl();
        let bad =
            EquivSpec::new(2)
                .compare("out", "out", 1)
                .bind("nope", 0, Binding::Slm("a".into()));
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad),
            Err(SecError::Spec(_))
        ));
        let bad2 = EquivSpec::new(2); // no compares
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad2),
            Err(SecError::Spec(_))
        ));
        let bad3 = fig1_spec().compare("out", "out", 7); // cycle out of range
        assert!(matches!(
            check_equivalence(&slm, &rtl, &bad3),
            Err(SecError::Spec(_))
        ));
    }
}
