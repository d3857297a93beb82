//! The CDCL solver: watched-literal propagation, 1UIP conflict analysis,
//! VSIDS decisions with phase saving, Luby restarts, activity-based learnt
//! clause reduction, and incremental solving under assumptions.

use std::time::Instant;

use dfv_obs::{ObsHook, SharedRecorder};

use crate::budget::{Budget, ExhaustedReason};
use crate::heap::VarHeap;
use crate::lit::{Lit, Var};

/// The outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
    /// A [`Budget`] ran out before the search finished. Only
    /// [`Solver::solve_budgeted`] produces this; the solver stays fully
    /// usable (learnt clauses are kept), so a retry with a larger budget
    /// resumes from a stronger clause database.
    Unknown(ExhaustedReason),
}

/// Cumulative search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: usize,
    /// Learnt clause reductions performed.
    pub reductions: u64,
}

impl SolverStats {
    /// The work done since `baseline` (an earlier snapshot of the same
    /// solver): cumulative counters are subtracted, while `learnts` — a
    /// point-in-time gauge, not a counter — carries the current value.
    /// Useful for attributing cost to an individual solve phase (e.g. one
    /// depth of an incremental bounded model check).
    pub fn since(&self, baseline: &SolverStats) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts - baseline.conflicts,
            decisions: self.decisions - baseline.decisions,
            propagations: self.propagations - baseline.propagations,
            restarts: self.restarts - baseline.restarts,
            learnts: self.learnts,
            reductions: self.reductions - baseline.reductions,
        }
    }
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
}

const NO_REASON: u32 = u32::MAX;

/// The longest clause [`Solver::add_clause`] normalizes without a heap
/// allocation.
const INLINE_CLAUSE: usize = 8;

/// A CDCL SAT solver.
///
/// # Example
///
/// ```
/// use dfv_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var();
/// let b = s.new_var();
/// // (a | b) & (!a | b) & (a | !b)
/// s.add_clause(&[a.positive(), b.positive()]);
/// s.add_clause(&[a.negative(), b.positive()]);
/// s.add_clause(&[a.positive(), b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(a), Some(true));
/// assert_eq!(s.value(b), Some(true));
/// // Adding (!a | !b) makes it unsatisfiable.
/// s.add_clause(&[a.negative(), b.negative()]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// For each literal index, the clauses to inspect when that literal
    /// becomes **true** (i.e. clauses watching its negation).
    watches: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    phase: Vec<bool>,
    reason: Vec<u32>,
    level: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: VarHeap,
    seen: Vec<bool>,
    stats: SolverStats,
    ok: bool,
    model: Vec<Option<bool>>,
    learnt_count: usize,
    obs: ObsHook,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            cla_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(None);
        self.phase.push(false);
        self.reason.push(NO_REASON);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow_to(self.assign.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// The number of clauses (original + learnt).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.learnts = self.learnt_count;
        s
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|b| b != l.is_negated())
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Returns `false` if the solver is already known
    /// unsatisfiable (at level 0).
    ///
    /// Duplicate literals are removed; a tautological clause (containing
    /// both `x` and `!x`) is silently ignored. The clause is stored with its
    /// literals in sorted order. Clauses of up to 8 literals (every
    /// Tseitin gate) are normalized in a stack buffer.
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is mid-solve at a nonzero decision
    /// level (clauses may only be added between solve calls) or if a
    /// literal's variable was not created by this solver.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause at nonzero level");
        if !self.ok {
            return false;
        }
        let mut inline = [Lit(0); INLINE_CLAUSE];
        let mut heap;
        let sorted: &mut [Lit] = if lits.len() <= INLINE_CLAUSE {
            inline[..lits.len()].copy_from_slice(lits);
            &mut inline[..lits.len()]
        } else {
            heap = lits.to_vec();
            &mut heap
        };
        sorted.sort_unstable();
        // One pass drops duplicates, dead literals and tautologies, moving
        // the live literals to the front (`len <= i`, so unread ones stay).
        let mut len = 0;
        let mut prev = None;
        for i in 0..sorted.len() {
            let l = sorted[i];
            if prev == Some(l) {
                continue; // duplicate
            }
            if prev == Some(!l) {
                return true; // tautology: sorted codes put `x` right before `!x`
            }
            prev = Some(l);
            assert!(
                l.var().index() < self.num_vars(),
                "literal from foreign solver"
            );
            match self.value_lit(l) {
                Some(true) => return true, // already satisfied at level 0
                Some(false) => continue,   // literal is dead
                None => {
                    sorted[len] = l;
                    len += 1;
                }
            }
        }
        let c = &sorted[..len];
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(c.to_vec(), false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        let id = self.clauses.len() as u32;
        self.watches[(!lits[0]).index()].push(id);
        self.watches[(!lits[1]).index()].push(id);
        if learnt {
            self.learnt_count += 1;
        }
        self.clauses.push(Clause {
            lits,
            learnt,
            activity: 0.0,
        });
        id
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        let v = l.var().index();
        debug_assert!(self.assign[v].is_none());
        self.assign[v] = Some(!l.is_negated());
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation. Returns the conflicting clause id, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            // Compact p's watch list in place: watches that stay are moved
            // down to `kept`, in visit order; the read index `i` leads.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            let false_lit = !p;
            while i < ws.len() {
                let cid = ws[i];
                i += 1;
                // Normalize: watched false literal at position 1.
                {
                    let c = &mut self.clauses[cid as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cid as usize].lits[0];
                if self.value_lit(first) == Some(true) {
                    ws[kept] = cid;
                    kept += 1;
                    continue;
                }
                // Look for a replacement watch.
                let replacement = {
                    let c = &self.clauses[cid as usize];
                    c.lits[2..]
                        .iter()
                        .position(|&l| self.value_lit(l) != Some(false))
                };
                if let Some(k) = replacement {
                    let c = &mut self.clauses[cid as usize];
                    c.lits.swap(1, k + 2);
                    let new_watch = c.lits[1];
                    self.watches[(!new_watch).index()].push(cid);
                    continue; // moved to another list
                }
                // Unit or conflicting on `first`.
                ws[kept] = cid;
                kept += 1;
                if self.value_lit(first) == Some(false) {
                    conflict = Some(cid);
                    break;
                }
                self.enqueue(first, cid);
            }
            // After a conflict the unvisited watches stay, in order.
            ws.copy_within(i.., kept);
            ws.truncate(kept + ws.len() - i);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cid: u32) {
        let c = &mut self.clauses[cid as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// 1UIP conflict analysis. Returns the learnt clause (asserting literal
    /// first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, usize) {
        let current = self.decision_level() as u32;
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the asserting lit
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(confl);
            let skip = usize::from(p.is_some());
            for k in skip..self.clauses[confl as usize].lits.len() {
                let q = self.clauses[confl as usize].lits[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on: most recent seen trail entry.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, NO_REASON, "resolving on a decision");
        }
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        // Backjump level: highest level among the non-asserting literals.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()] as usize
        };
        (learnt, bt)
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail nonempty");
            let v = l.var();
            self.phase[v.index()] = !l.is_negated();
            self.assign[v.index()] = None;
            self.reason[v.index()] = NO_REASON;
            self.order.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.assign[v.index()].is_none() {
                return Some(v);
            }
        }
        None
    }

    /// Reduces the learnt-clause database, keeping the more active half.
    /// Clauses currently acting as reasons and binary clauses are kept.
    fn reduce_db(&mut self) {
        self.stats.reductions += 1;
        let mut learnt_ids: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&i| self.clauses[i as usize].learnt)
            .collect();
        learnt_ids.sort_by(|&a, &b| {
            self.clauses[a as usize]
                .activity
                .partial_cmp(&self.clauses[b as usize].activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let locked: std::collections::HashSet<u32> = self
            .trail
            .iter()
            .map(|l| self.reason[l.var().index()])
            .filter(|&r| r != NO_REASON)
            .collect();
        let drop_count = learnt_ids.len() / 2;
        let mut remove: Vec<bool> = vec![false; self.clauses.len()];
        for &cid in learnt_ids.iter().take(drop_count) {
            let c = &self.clauses[cid as usize];
            if c.lits.len() > 2 && !locked.contains(&cid) {
                remove[cid as usize] = true;
            }
        }
        // Compact, remapping ids in reasons and rebuilding watches.
        let mut remap: Vec<u32> = vec![NO_REASON; self.clauses.len()];
        let mut new_clauses = Vec::with_capacity(self.clauses.len());
        for (i, c) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if remove[i] {
                continue;
            }
            remap[i] = new_clauses.len() as u32;
            new_clauses.push(c);
        }
        self.clauses = new_clauses;
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
                debug_assert_ne!(*r, NO_REASON, "locked clause removed");
            }
        }
        for w in &mut self.watches {
            w.clear();
        }
        for (i, c) in self.clauses.iter().enumerate() {
            self.watches[(!c.lits[0]).index()].push(i as u32);
            self.watches[(!c.lits[1]).index()].push(i as u32);
        }
        self.learnt_count = self.clauses.iter().filter(|c| c.learnt).count();
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions (literals forced true for this
    /// call only). The solver remains usable afterwards — learnt clauses
    /// persist, which is what makes *incremental* equivalence-checking runs
    /// cheap (paper §4.1).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.solve_budgeted(assumptions, &Budget::unlimited())
    }

    /// Solves under assumptions with a resource [`Budget`].
    ///
    /// Conflict and propagation caps count work done *in this call* (the
    /// cumulative [`SolverStats`] are snapshotted at entry). The wall clock
    /// is polled every 64 search steps so even millisecond-scale deadlines
    /// are honoured without a syscall per step. On exhaustion the solver
    /// returns [`SolveResult::Unknown`] and remains fully usable: clauses
    /// learnt so far are kept, so escalating retries resume from a stronger
    /// database rather than starting over.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], budget: &Budget) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.obs.begin_span("sat.solve");
        self.model.clear();
        let start = self.stats;
        let cutoff = budget.cutoff(Instant::now());
        let mut clock_ticks = 0u32;
        let mut restart_idx = 0u64;
        let mut conflicts_until_restart = 64 * luby(restart_idx);
        let mut max_learnts = (self.clauses.len() / 3).max(2000);
        let result = 'outer: loop {
            // Budget checks. Each loop pass is one conflict or one decision,
            // so counter caps are exact; the deadline is polled every 64
            // passes (and once up front, via clock_ticks starting high) to
            // amortize `Instant::now()`.
            if let Some(max) = budget.max_conflicts {
                if self.stats.conflicts - start.conflicts >= max {
                    break SolveResult::Unknown(ExhaustedReason::Conflicts);
                }
            }
            if let Some(max) = budget.max_propagations {
                if self.stats.propagations - start.propagations >= max {
                    break SolveResult::Unknown(ExhaustedReason::Propagations);
                }
            }
            if let Some(c) = cutoff {
                if clock_ticks == 0 {
                    if Instant::now() >= c {
                        break SolveResult::Unknown(ExhaustedReason::Deadline);
                    }
                    clock_ticks = 64;
                }
                clock_ticks -= 1;
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let asserting = learnt[0];
                    let cid = self.attach(learnt, true);
                    self.bump_clause(cid);
                    self.enqueue(asserting, cid);
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                if self.learnt_count > max_learnts {
                    self.reduce_db();
                    max_learnts += max_learnts / 10;
                }
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    restart_idx += 1;
                    conflicts_until_restart = 64 * luby(restart_idx);
                    self.cancel_until(0);
                    continue;
                }
                // Re-establish assumptions after any backjump/restart.
                while self.decision_level() < assumptions.len() {
                    let a = assumptions[self.decision_level()];
                    match self.value_lit(a) {
                        Some(true) => self.trail_lim.push(self.trail.len()),
                        Some(false) => break 'outer SolveResult::Unsat,
                        None => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, NO_REASON);
                        }
                    }
                }
                if self.qhead < self.trail.len() {
                    continue; // propagate newly enqueued assumptions
                }
                match self.pick_branch() {
                    None => {
                        self.model = self.assign.clone();
                        break SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = v.lit(self.phase[v.index()]);
                        self.enqueue(lit, NO_REASON);
                    }
                }
            }
        };
        self.cancel_until(0);
        // Observability: report this call's search work as counter deltas
        // (the cumulative stats were snapshotted at entry) plus a typed
        // outcome event. Nothing here carries wall-clock values.
        self.obs
            .add("sat.decisions", self.stats.decisions - start.decisions);
        self.obs.add(
            "sat.propagations",
            self.stats.propagations - start.propagations,
        );
        self.obs
            .add("sat.conflicts", self.stats.conflicts - start.conflicts);
        self.obs
            .add("sat.restarts", self.stats.restarts - start.restarts);
        self.obs.event("sat.result", || match result {
            SolveResult::Sat => "sat".to_string(),
            SolveResult::Unsat => "unsat".to_string(),
            SolveResult::Unknown(reason) => format!("unknown ({reason:?})"),
        });
        self.obs.end_span("sat.solve");
        result
    }

    /// Attaches a recorder; each solve call then reports `sat.*`
    /// counter deltas (decisions, propagations, conflicts, restarts)
    /// inside a `sat.solve` span, plus a `sat.result` outcome event.
    pub fn set_recorder(&mut self, rec: SharedRecorder) {
        self.obs.set(rec);
    }

    /// The model value of a variable after a [`SolveResult::Sat`] answer.
    /// Returns `None` before a successful solve (or for a variable created
    /// afterwards).
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied().flatten()
    }

    /// The model value of a literal after a successful solve.
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| b != l.is_negated())
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-indexed.
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Var> {
        s.new_vars(n)
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn single_unit() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause(&[v.negative()]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v), Some(false));
    }

    #[test]
    fn contradictory_units() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.positive()]));
        assert!(!s.add_clause(&[v.negative()]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn chain_implication() {
        // x0 & (x0 -> x1) & ... & (x_{n-1} -> x_n) forces all true.
        let mut s = Solver::new();
        let vs = lits(&mut s, 50);
        s.add_clause(&[vs[0].positive()]);
        for w in vs.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        for v in &vs {
            assert_eq!(s.value(*v), Some(true));
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes two rows at once
    fn pigeonhole_3_into_2_is_unsat() {
        // Classic small UNSAT instance exercising conflict analysis.
        let mut s = Solver::new();
        // p[i][j]: pigeon i in hole j.
        let p: Vec<Vec<Var>> = (0..3).map(|_| s.new_vars(2)).collect();
        for row in &p {
            s.add_clause(&[row[0].positive(), row[1].positive()]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // j indexes two rows at once
    fn pigeonhole_5_into_4_is_unsat() {
        let mut s = Solver::new();
        let n = 5;
        let p: Vec<Vec<Var>> = (0..n).map(|_| s.new_vars(n - 1)).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_do_not_persist() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.positive(), b.positive()]);
        assert_eq!(s.solve_with(&[a.negative()]), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
        // Contradictory assumption pair: UNSAT under assumptions only.
        s.add_clause(&[a.negative(), b.negative()]);
        assert_eq!(
            s.solve_with(&[a.positive(), b.positive()]),
            SolveResult::Unsat
        );
        // Still SAT without them.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn incremental_reuse_after_unsat_assumptions() {
        let mut s = Solver::new();
        let vs = lits(&mut s, 20);
        for w in vs.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        // Assume first true and last false: contradiction through the chain.
        assert_eq!(
            s.solve_with(&[vs[0].positive(), vs[19].negative()]),
            SolveResult::Unsat
        );
        assert_eq!(s.solve_with(&[vs[0].positive()]), SolveResult::Sat);
        assert_eq!(s.value(vs[19]), Some(true));
    }

    #[test]
    fn tautology_and_duplicates_handled() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[a.positive(), a.negative()])); // tautology
        assert!(s.add_clause(&[b.positive(), b.positive()])); // duplicate
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn model_is_a_real_model() {
        // Random-ish 3-SAT instance; verify the returned model satisfies it.
        let mut s = Solver::new();
        let vs = lits(&mut s, 12);
        let mut seed = 0x12345678u64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut clauses = Vec::new();
        for _ in 0..40 {
            let c: Vec<Lit> = (0..3)
                .map(|_| {
                    let v = vs[(rnd() % 12) as usize];
                    v.lit(rnd() % 2 == 0)
                })
                .collect();
            clauses.push(c.clone());
            s.add_clause(&c);
        }
        if s.solve() == SolveResult::Sat {
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.lit_value(l) == Some(true)),
                    "model does not satisfy {c:?}"
                );
            }
        }
    }

    /// A pigeonhole instance (`n+1` pigeons into `n` holes) — UNSAT with a
    /// proof exponential in `n` for resolution, so a modest `n` reliably
    /// outlasts small conflict budgets.
    #[allow(clippy::needless_range_loop)] // j indexes two rows at once
    fn pigeonhole(s: &mut Solver, n: usize) {
        let p: Vec<Vec<Var>> = (0..n + 1).map(|_| s.new_vars(n)).collect();
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|v| v.positive()).collect();
            s.add_clause(&clause);
        }
        for j in 0..n {
            for i1 in 0..n + 1 {
                for i2 in (i1 + 1)..n + 1 {
                    s.add_clause(&[p[i1][j].negative(), p[i2][j].negative()]);
                }
            }
        }
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9);
        let before = s.stats().conflicts;
        let r = s.solve_budgeted(&[], &Budget::unlimited().with_conflicts(100));
        assert_eq!(r, SolveResult::Unknown(ExhaustedReason::Conflicts));
        assert_eq!(s.stats().conflicts - before, 100);
    }

    #[test]
    fn propagation_budget_yields_unknown() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 9);
        let r = s.solve_budgeted(&[], &Budget::unlimited().with_propagations(50));
        assert_eq!(r, SolveResult::Unknown(ExhaustedReason::Propagations));
    }

    #[test]
    fn deadline_budget_yields_unknown_quickly() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 11);
        let started = std::time::Instant::now();
        let budget = Budget::unlimited().with_timeout(std::time::Duration::from_millis(1));
        let r = s.solve_budgeted(&[], &budget);
        assert_eq!(r, SolveResult::Unknown(ExhaustedReason::Deadline));
        // "Bounded time": generous margin, but nowhere near a full PHP-11 run.
        assert!(started.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn solver_stays_usable_after_exhaustion() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 7);
        let r = s.solve_budgeted(&[], &Budget::unlimited().with_conflicts(20));
        assert_eq!(r, SolveResult::Unknown(ExhaustedReason::Conflicts));
        // Retry unbudgeted: learnt clauses persisted, answer is definitive.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn easy_instance_finishes_inside_budget() {
        let mut s = Solver::new();
        let vs = lits(&mut s, 30);
        s.add_clause(&[vs[0].positive()]);
        for w in vs.windows(2) {
            s.add_clause(&[w[0].negative(), w[1].positive()]);
        }
        let budget = Budget::unlimited()
            .with_conflicts(1000)
            .with_timeout(std::time::Duration::from_secs(10));
        assert_eq!(s.solve_budgeted(&[], &budget), SolveResult::Sat);
        assert_eq!(s.value(vs[29]), Some(true));
    }

    #[test]
    fn unlimited_budget_matches_plain_solve() {
        let mut s = Solver::new();
        pigeonhole(&mut s, 4);
        assert_eq!(
            s.solve_budgeted(&[], &Budget::unlimited()),
            SolveResult::Unsat
        );
    }

    #[test]
    fn recorder_sees_search_deltas_and_outcomes() {
        let rec = dfv_obs::MemoryRecorder::shared();
        let mut s = Solver::new();
        s.set_recorder(rec.clone());
        pigeonhole(&mut s, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        {
            let r = rec.lock().unwrap();
            let stats = s.stats();
            assert_eq!(r.counter("sat.conflicts"), stats.conflicts);
            assert_eq!(r.counter("sat.propagations"), stats.propagations);
            assert_eq!(r.events_of("sat.result"), vec!["unsat"]);
            // The work sits inside a sat.solve span.
            let names: Vec<_> = r
                .entries()
                .iter()
                .filter_map(|e| match e {
                    dfv_obs::ObsEntry::SpanBegin { name, .. } => Some(*name),
                    _ => None,
                })
                .collect();
            assert_eq!(names, vec!["sat.solve"]);
        }
        // A second call reports only its own (zero, post-Unsat) work.
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert_eq!(
            rec.lock().unwrap().counter("sat.conflicts"),
            s.stats().conflicts
        );
    }

    #[test]
    fn solver_is_send_even_when_instrumented() {
        fn assert_send<T: Send>() {}
        assert_send::<Solver>();

        // An instrumented solve runs fine on a worker thread.
        let rec = dfv_obs::MemoryRecorder::shared();
        let handle: dfv_obs::SharedRecorder = rec.clone();
        std::thread::spawn(move || {
            let mut s = Solver::new();
            s.set_recorder(handle);
            pigeonhole(&mut s, 3);
            s.solve()
        })
        .join()
        .unwrap();
        assert_eq!(rec.lock().unwrap().events_of("sat.result"), vec!["unsat"]);
    }
}
