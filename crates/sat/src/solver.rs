//! A CDCL SAT solver.
//!
//! The paper delegates its search over correction choices to the SKETCH
//! synthesizer, whose inner loop is a SAT solver.  This module provides that
//! substrate: a conflict-driven clause-learning solver with two-literal
//! watching, first-UIP conflict analysis, VSIDS-style activity ordering via
//! an indexed max-heap, phase saving, geometric restarts, a bounded learnt
//! database and **incremental solving under assumptions** — the mechanism
//! CEGISMIN uses to move its cost bound without re-encoding (assumption
//! literals are pseudo-decisions, so every learnt clause remains a
//! consequence of the clause database alone and stays valid across calls).
//!
//! There is one CDCL loop, [`Solver::solve_with`], and it hosts a
//! **theory** in the DPLL(T) manner: whenever every decision variable is
//! assigned without conflict, the theory sees the assignment and accepts
//! it, stops the search, or rejects it with a clause that is false under
//! it.  A rejection is not a restart: the solver backjumps as it would
//! after a conflict (or asserts the clause's one top-level literal) and
//! keeps searching from there.  CEGIS plugs its verifier in as the theory;
//! [`Solver::solve_under_assumptions`] is the same loop with a theory that
//! accepts everything.
//!
//! Branching can be limited to a subset of the variables
//! ([`Solver::branch_only_on`]).  That is sound when propagation alone
//! settles every constraint once the decision variables are assigned, as
//! it does for the choice encoding's selectors.
//!
//! Learnt clauses are bounded: at a restart, once more than a fixed number
//! are live, the longer half of them and every clause already satisfied at
//! level 0 are dropped, and the arena is compacted in place.  Original and
//! theory clauses are never forgotten.

use crate::literal::{Lit, Model, Var};

/// The answer to a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model is provided.
    Sat(Model),
    /// The formula is unsatisfiable (under the given assumptions, if any —
    /// see [`Solver::unsat_core`]).
    Unsat,
}

impl SatResult {
    /// Returns the model if the result is `Sat`.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(model) => Some(model),
            SatResult::Unsat => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Counters describing the work a [`Solver`] has performed since creation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt since creation.  Cumulative: learnt-database
    /// reductions forget clauses but never lower this count.
    pub learnts: u64,
    /// Learnt-database reductions performed.
    pub reductions: u64,
}

/// A theory's answer to a complete assignment of the decision variables
/// (see [`Solver::solve_with`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TheoryAnswer {
    /// The assignment is a model: the search returns it.
    Accept,
    /// The assignment is rejected by this clause, which is added for good
    /// and should be false under the assignment; the search goes on.
    Block(Vec<Lit>),
    /// The search is abandoned.
    Stop,
}

const UNASSIGNED: u8 = 2;

/// Bit of a clause's length word marking a learnt clause.
const LEARNT: u32 = 1 << 31;

/// Live learnt clauses above which a restart reduces the learnt database.
const LEARNT_CAP: usize = 2_000;

/// Marker for a variable currently absent from the branching heap.
const NOT_IN_HEAP: usize = usize::MAX;

/// An indexed binary max-heap over variable activities.
///
/// Replaces the former O(vars) linear scan in `pick_branch_var`: decisions
/// pop the most active variable in O(log n), activity bumps sift in place,
/// and backtracking lazily re-inserts freed variables.  Variables assigned
/// by propagation stay in the heap and are discarded on pop (lazy deletion).
#[derive(Debug, Default)]
struct VarOrder {
    /// Variable indices arranged as a binary max-heap on activity.
    heap: Vec<u32>,
    /// `pos[v]` is `v`'s position in `heap`, or [`NOT_IN_HEAP`].
    pos: Vec<usize>,
}

impl VarOrder {
    fn contains(&self, var: usize) -> bool {
        self.pos[var] != NOT_IN_HEAP
    }

    fn push_new_var(&mut self, activity: &[f64]) {
        let var = self.pos.len() as u32;
        self.pos.push(NOT_IN_HEAP);
        self.insert(var, activity);
    }

    fn insert(&mut self, var: u32, activity: &[f64]) {
        if self.contains(var as usize) {
            return;
        }
        self.pos[var as usize] = self.heap.len();
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap property after `var`'s activity increased.
    fn bumped(&mut self, var: u32, activity: &[f64]) {
        let position = self.pos[var as usize];
        if position != NOT_IN_HEAP {
            self.sift_up(position, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.pos[top as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a;
        self.pos[self.heap[b] as usize] = b;
    }

    fn sift_up(&mut self, mut index: usize, activity: &[f64]) {
        while index > 0 {
            let parent = (index - 1) / 2;
            if activity[self.heap[index] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(index, parent);
            index = parent;
        }
    }

    fn sift_down(&mut self, mut index: usize, activity: &[f64]) {
        loop {
            let left = 2 * index + 1;
            let right = left + 1;
            let mut best = index;
            if left < self.heap.len()
                && activity[self.heap[left] as usize] > activity[self.heap[best] as usize]
            {
                best = left;
            }
            if right < self.heap.len()
                && activity[self.heap[right] as usize] > activity[self.heap[best] as usize]
            {
                best = right;
            }
            if best == index {
                break;
            }
            self.swap(index, best);
            index = best;
        }
    }
}

/// An incremental CDCL SAT solver.
///
/// Clauses may be added between `solve` calls; learnt clauses are kept
/// (up to the learnt-database bound), so repeated solving is cheap.
/// [`Solver::solve_under_assumptions`] decides satisfiability under a
/// conjunction of assumption literals without adding them to the clause
/// database — the CEGISMIN cost ascent activates successively looser cost
/// bounds this way, one encoding per grade — and [`Solver::solve_with`]
/// additionally lets a theory reject candidate models mid-search.
#[derive(Debug, Default)]
pub struct Solver {
    /// Clause database, original and learnt clauses alike, in one flat
    /// arena: each clause is its length word (with the [`LEARNT`] bit for
    /// learnt clauses) followed by its literals, and is referred to by the
    /// offset of its length word.  Propagation walks many clauses per
    /// solve; contiguous storage keeps that walk compact.
    arena: Vec<u32>,
    /// Number of clauses in `arena`.
    num_clauses: usize,
    /// Number of learnt clauses in `arena`.
    live_learnts: usize,
    /// Live learnt clauses above which a restart reduces the database.
    learnt_cap: usize,
    /// For each literal index, the clauses currently watching it.
    watches: Vec<Vec<u32>>,
    /// Current assignment per variable: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Whether the search branches on each variable (see
    /// [`Solver::branch_only_on`]).
    decision: Vec<bool>,
    /// Saved phase per variable (last assigned polarity).
    phase: Vec<bool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause (its arena offset) for each variable assigned by
    /// propagation (None for decisions).  Level-0 reasons are cleared when
    /// the learnt database is reduced: analysis never reads them.
    reason: Vec<Option<u32>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts.
    trail_lim: Vec<usize>,
    /// Next trail position to propagate.
    propagate_head: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    /// Activity-ordered branching heap.
    order: VarOrder,
    /// Current activity increment.
    var_inc: f64,
    /// False once a top-level conflict has been derived.
    ok: bool,
    /// Assumption subset responsible for the last assumption-driven `Unsat`.
    last_core: Vec<Lit>,
    /// Conflict-analysis marks per variable; all false between analyses.
    seen: Vec<bool>,
    /// The assignment shown to the theory, reused across candidates.
    model: Model,
    /// Number of conflicts seen (drives restarts).
    conflicts: u64,
    /// Statistics: number of decisions.
    decisions: u64,
    /// Statistics: number of propagations.
    propagations: u64,
    /// Statistics: number of restarts.
    restarts: u64,
    /// Statistics: number of clauses learnt since creation.
    learnts: u64,
    /// Statistics: number of learnt-database reductions.
    reductions: u64,
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            var_inc: 1.0,
            ok: true,
            learnt_cap: LEARNT_CAP,
            ..Solver::default()
        }
    }

    /// A solver that reduces its learnt database above `cap` live learnt
    /// clauses, so small test instances exercise the reduction.
    #[cfg(test)]
    pub(crate) fn with_learnt_cap(cap: usize) -> Solver {
        Solver {
            learnt_cap: cap,
            ..Solver::new()
        }
    }

    /// Number of variables currently allocated.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses (original plus learnt).
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Work counters since creation.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            decisions: self.decisions,
            propagations: self.propagations,
            conflicts: self.conflicts,
            restarts: self.restarts,
            learnts: self.learnts,
            reductions: self.reductions,
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let index = self.assign.len() as u32;
        self.assign.push(UNASSIGNED);
        self.decision.push(true);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.push_new_var(&self.activity);
        Var(index)
    }

    /// Allocates `n` fresh variables and returns them.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Restricts branching to `vars`: every other variable allocated so
    /// far is only ever assigned by propagation.  A search offers a model
    /// once every decision variable is assigned, so this is sound only
    /// when propagation then settles every clause the other variables
    /// appear in; those left unassigned read `false` in the model.
    pub fn branch_only_on(&mut self, vars: &[Var]) {
        self.decision.fill(false);
        for var in vars {
            self.decision[var.index()] = true;
        }
    }

    fn lit_value(&self, lit: Lit) -> u8 {
        let v = self.assign[lit.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if lit.is_positive() {
            v
        } else {
            1 - v
        }
    }

    /// Adds a clause.  Returns `false` if the clause makes the formula
    /// trivially unsatisfiable (empty clause, or a unit clause conflicting
    /// with the top-level assignment).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Adding clauses is only allowed at decision level 0.
        self.cancel_until(0);

        // Normalise: drop duplicate literals, detect tautologies.
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            if clause.contains(&lit.negated()) {
                return true; // tautology: x ∨ ¬x — trivially satisfied
            }
            if !clause.contains(&lit) {
                clause.push(lit);
            }
        }
        // Remove literals already false at level 0; a clause already true at
        // level 0 can be dropped.
        clause.retain(|&lit| self.lit_value(lit) != 0 || self.level[lit.var().index()] != 0);
        if clause
            .iter()
            .any(|&lit| self.lit_value(lit) == 1 && self.level[lit.var().index()] == 0)
        {
            return true;
        }

        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                if self.lit_value(clause[0]) == 0 {
                    self.ok = false;
                    return false;
                }
                if self.lit_value(clause[0]) == UNASSIGNED {
                    self.enqueue(clause[0], None);
                }
                if self.propagate().is_some() {
                    self.ok = false;
                    return false;
                }
                true
            }
            _ => {
                self.push_clause(&clause, false);
                true
            }
        }
    }

    /// Adds the clause `a → b`, i.e. `¬a ∨ b`.
    pub fn add_implication(&mut self, a: Lit, b: Lit) -> bool {
        self.add_clause(&[a.negated(), b])
    }

    /// Adds clauses forcing exactly one of `lits` to be true.
    pub fn add_exactly_one(&mut self, lits: &[Lit]) -> bool {
        if !self.add_clause(lits) {
            return false;
        }
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                if !self.add_clause(&[lits[i].negated(), lits[j].negated()]) {
                    return false;
                }
            }
        }
        true
    }

    /// Stores a clause of at least two literals, watching its first two.
    fn push_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let clause = u32::try_from(self.arena.len()).expect("clause arena exceeds u32 offsets");
        let flag = if learnt { LEARNT } else { 0 };
        self.arena.push(lits.len() as u32 | flag);
        self.arena.extend(lits.iter().map(|lit| lit.0));
        self.num_clauses += 1;
        self.live_learnts += usize::from(learnt);
        self.watches[lits[0].negated().index()].push(clause);
        self.watches[lits[1].negated().index()].push(clause);
        clause
    }

    /// The number of literals of the clause at `clause`.
    fn clause_len(&self, clause: u32) -> usize {
        (self.arena[clause as usize] & !LEARNT) as usize
    }

    /// The literals of the clause at `clause`.
    fn clause(&self, clause: u32) -> &[u32] {
        let start = clause as usize + 1;
        &self.arena[start..start + self.clause_len(clause)]
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<u32>) {
        let var = lit.var().index();
        debug_assert_eq!(self.assign[var], UNASSIGNED);
        self.assign[var] = u8::from(lit.is_positive());
        self.phase[var] = lit.is_positive();
        self.level[var] = self.trail_lim.len() as u32;
        self.reason[var] = reason;
        self.trail.push(lit);
    }

    /// Unit propagation.  Returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.propagate_head < self.trail.len() {
            let lit = self.trail[self.propagate_head];
            self.propagate_head += 1;
            self.propagations += 1;

            // Clauses watching ¬lit need attention now that lit became true.
            let mut watch_list = std::mem::take(&mut self.watches[lit.index()]);
            let mut i = 0;
            while i < watch_list.len() {
                let clause_index = watch_list[i];
                match self.examine_clause(clause_index, lit) {
                    WatchOutcome::KeepWatching => {
                        i += 1;
                    }
                    WatchOutcome::Rewatched => {
                        watch_list.swap_remove(i);
                    }
                    WatchOutcome::Conflict => {
                        // Put the remaining watches back before returning.
                        self.watches[lit.index()].append(&mut watch_list);
                        return Some(clause_index);
                    }
                }
            }
            // Nothing re-watches `lit` while its list is out (a new watch
            // is never a false literal), so the slot is still empty: hand
            // the buffer back instead of copying it into a fresh one.
            let slot = &mut self.watches[lit.index()];
            if slot.is_empty() {
                *slot = watch_list;
            } else {
                slot.extend(watch_list);
            }
        }
        None
    }

    fn examine_clause(&mut self, clause_index: u32, false_lit: Lit) -> WatchOutcome {
        // The literal that just became false is ¬false_lit... i.e. the
        // watched literal equal to false_lit.negated().
        let watched = false_lit.negated();
        let base = clause_index as usize + 1;
        let len = self.clause_len(clause_index);
        // Ensure the falsified literal is at position 1.
        if self.arena[base] == watched.0 {
            self.arena.swap(base, base + 1);
        }
        debug_assert_eq!(self.arena[base + 1], watched.0);

        // If the other watched literal is already true the clause is
        // satisfied; keep watching.
        let first = Lit(self.arena[base]);
        if self.lit_value(first) == 1 {
            return WatchOutcome::KeepWatching;
        }

        // Look for a new literal to watch.
        for k in 2..len {
            let candidate = Lit(self.arena[base + k]);
            if self.lit_value(candidate) != 0 {
                self.arena.swap(base + 1, base + k);
                self.watches[candidate.negated().index()].push(clause_index);
                return WatchOutcome::Rewatched;
            }
        }

        // Clause is unit or conflicting.
        if self.lit_value(first) == 0 {
            WatchOutcome::Conflict
        } else {
            self.enqueue(first, Some(clause_index));
            WatchOutcome::KeepWatching
        }
    }

    fn bump_activity(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            // Rescaling multiplies every activity by the same constant, so
            // the heap order is untouched.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(var.index() as u32, &self.activity);
    }

    /// First-UIP conflict analysis.  Returns the learnt clause and the level
    /// to backtrack to.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let current_level = self.trail_lim.len() as u32;
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = std::mem::take(&mut self.seen);
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut reason_clause = conflict;
        let mut trail_index = self.trail.len();

        loop {
            // Skip the asserting literal itself when walking a reason clause.
            let skip = lit;
            for k in 0..self.clause(reason_clause).len() {
                let q = Lit(self.clause(reason_clause)[k]);
                if Some(q) == skip {
                    continue;
                }
                let v = q.var();
                if !seen[v.index()] && self.level[v.index()] > 0 {
                    seen[v.index()] = true;
                    self.bump_activity(v);
                    if self.level[v.index()] >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail (at the current level) that
            // participates in the conflict.
            loop {
                trail_index -= 1;
                let trail_lit = self.trail[trail_index];
                if seen[trail_lit.var().index()] {
                    lit = Some(trail_lit);
                    break;
                }
            }
            let asserting = lit.expect("conflict analysis found a literal");
            counter -= 1;
            seen[asserting.var().index()] = false;
            if counter == 0 {
                // First UIP found; it is asserted negated in the learnt clause.
                learnt.insert(0, asserting.negated());
                break;
            }
            reason_clause = self.reason[asserting.var().index()]
                .expect("non-decision literal must have a reason");
        }

        // Every current-level mark was cleared as the walk consumed it; the
        // rest are exactly the learnt literals.
        for l in &learnt {
            seen[l.var().index()] = false;
        }
        self.seen = seen;

        // Backtrack level = highest level among the other learnt literals.
        // That literal is moved to position 1 so that both watched literals
        // of the learnt clause are the last to become unassigned when
        // backtracking, preserving the watching invariant.
        let mut backtrack_level = 0;
        let mut second_watch = 1;
        for (offset, l) in learnt.iter().enumerate().skip(1) {
            let lvl = self.level[l.var().index()];
            if lvl > backtrack_level {
                backtrack_level = lvl;
                second_watch = offset;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, second_watch);
        }
        (learnt, backtrack_level)
    }

    /// Computes the subset of assumptions responsible for forcing the
    /// assumption literal `failed` false (MiniSat's `analyzeFinal`): walks
    /// the implication graph from `¬failed` back to the pseudo-decisions.
    /// The result — `failed` plus every assumption reached — is a conjunction
    /// that is unsatisfiable with the clause database alone.
    fn analyze_final(&mut self, failed: Lit) {
        self.last_core.clear();
        self.last_core.push(failed);
        if self.trail_lim.is_empty() {
            return;
        }
        let mut seen = vec![false; self.num_vars()];
        seen[failed.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            if !seen[lit.var().index()] {
                continue;
            }
            match self.reason[lit.var().index()] {
                // A pseudo-decision above level 0 is an assumption.
                None => self.last_core.push(lit),
                Some(clause_index) => {
                    for k in 0..self.clause(clause_index).len() {
                        let q = Lit(self.clause(clause_index)[k]);
                        if q.var() != lit.var() && self.level[q.var().index()] > 0 {
                            seen[q.var().index()] = true;
                        }
                    }
                }
            }
            seen[lit.var().index()] = false;
        }
    }

    /// The subset of assumption literals responsible for the most recent
    /// `Unsat` answer of [`Solver::solve_under_assumptions`].  Their
    /// conjunction is unsatisfiable together with the clause database; an
    /// empty core means the clauses are unsatisfiable on their own.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.last_core
    }

    fn cancel_until(&mut self, target_level: u32) {
        while self.trail_lim.len() as u32 > target_level {
            let start = self.trail_lim.pop().expect("non-empty trail_lim");
            while self.trail.len() > start {
                let lit = self.trail.pop().expect("non-empty trail");
                let var = lit.var().index();
                self.assign[var] = UNASSIGNED;
                self.reason[var] = None;
                // Lazy heap re-insertion: freed decision variables become
                // branchable again.
                if self.decision[var] {
                    self.order.insert(var as u32, &self.activity);
                }
            }
        }
        self.propagate_head = self.propagate_head.min(self.trail.len());
    }

    /// Pops the most active unassigned decision variable (lazy deletion:
    /// entries assigned by propagation since insertion, or excluded from
    /// branching, are discarded on the way).
    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.assign[var as usize] == UNASSIGNED && self.decision[var as usize] {
                return Some(Var(var));
            }
        }
        None
    }

    /// Learns from the conflicting clause `conflict`: analyses it,
    /// backjumps and asserts the learnt clause.  Returns `false` when the
    /// conflict holds at level 0, i.e. the clause database is
    /// contradictory.
    fn learn(&mut self, conflict: u32) -> bool {
        if self.trail_lim.is_empty() {
            self.ok = false;
            return false;
        }
        let (learnt, backtrack_level) = self.analyze(conflict);
        self.cancel_until(backtrack_level);
        self.var_inc *= 1.05;
        if learnt.len() == 1 {
            // Backjumped to level 0, where the asserting literal is free.
            self.enqueue(learnt[0], None);
        } else {
            let index = self.push_clause(&learnt, true);
            self.learnts += 1;
            self.enqueue(learnt[0], Some(index));
        }
        true
    }

    /// Adds a theory clause that rejects the current assignment and
    /// repairs the trail so the search can go on from where it is.
    /// Returns `false` when the clause database became contradictory.
    fn add_theory_clause(&mut self, lits: &[Lit]) -> bool {
        let mut clause: Vec<Lit> = Vec::with_capacity(lits.len());
        for &lit in lits {
            if !clause.contains(&lit) {
                clause.push(lit);
            }
        }
        if clause.iter().any(|&lit| self.lit_value(lit) != 0) {
            // Not false under the assignment, so not a rejection of it: add
            // it as an ordinary clause and search again from level 0.
            return self.add_clause(&clause);
        }
        // Literals false at level 0 can never help satisfy it.
        clause.retain(|&lit| self.level[lit.var().index()] > 0);
        // Highest decision level first: those literals are watched.
        clause.sort_by_key(|&lit| std::cmp::Reverse(self.level[lit.var().index()]));
        match clause.len() {
            0 => {
                self.cancel_until(0);
                self.ok = false;
                false
            }
            1 => {
                self.cancel_until(0);
                self.enqueue(clause[0], None);
                true
            }
            _ => {
                let top = self.level[clause[0].var().index()];
                let second = self.level[clause[1].var().index()];
                if top > second {
                    // One literal alone at the top level: backjump to where
                    // the clause becomes unit and assert it.
                    self.cancel_until(second);
                    let index = self.push_clause(&clause, false);
                    self.enqueue(clause[0], Some(index));
                    true
                } else {
                    // Several literals at the top level: a conflict there.
                    self.cancel_until(top);
                    let index = self.push_clause(&clause, false);
                    self.learn(index)
                }
            }
        }
    }

    /// Reduces the learnt database once it holds more than `learnt_cap`
    /// live learnt clauses: drops the longer half of them (ties broken by
    /// age, older first), plus every clause satisfied at level 0, and
    /// compacts the arena in place, re-watching what it keeps.  Original and theory
    /// clauses are kept unless satisfied at level 0.  Only called at level
    /// 0 with propagation complete.
    fn reduce_learnts(&mut self) {
        if self.live_learnts <= self.learnt_cap {
            return;
        }
        debug_assert!(self.trail_lim.is_empty());
        // Analysis never reads a level-0 reason, and compaction moves
        // clauses: forget them rather than leave them dangling.
        for lit in &self.trail {
            self.reason[lit.var().index()] = None;
        }
        // Keep the shorter half: every learnt clause shorter than
        // `threshold`, and the first `ties` of those exactly that long.
        let mut lengths: Vec<u32> = Vec::with_capacity(self.live_learnts);
        let mut at = 0;
        while at < self.arena.len() {
            let header = self.arena[at];
            if header & LEARNT != 0 {
                lengths.push(header & !LEARNT);
            }
            at += 1 + (header & !LEARNT) as usize;
        }
        let keep = lengths.len() - lengths.len() / 2;
        let (_, &mut threshold, _) = lengths.select_nth_unstable(keep - 1);
        let mut ties = keep - lengths.iter().filter(|&&len| len < threshold).count();

        for watch_list in &mut self.watches {
            watch_list.clear();
        }
        let (mut read, mut write) = (0, 0);
        while read < self.arena.len() {
            let header = self.arena[read];
            let len = (header & !LEARNT) as usize;
            let learnt = header & LEARNT != 0;
            let lits = &self.arena[read + 1..read + 1 + len];
            let satisfied = lits.iter().any(|&lit| self.lit_value(Lit(lit)) == 1);
            let keep = !satisfied
                && (!learnt || len < threshold as usize || (len == threshold as usize && ties > 0));
            if learnt && len == threshold as usize && keep {
                ties -= 1;
            }
            if keep {
                self.arena.copy_within(read..read + 1 + len, write);
                let clause = write as u32;
                self.watches[Lit(self.arena[write + 1]).negated().index()].push(clause);
                self.watches[Lit(self.arena[write + 2]).negated().index()].push(clause);
                write += 1 + len;
            } else {
                self.num_clauses -= 1;
                self.live_learnts -= usize::from(learnt);
            }
            read += 1 + len;
        }
        self.arena.truncate(write);
        self.reductions += 1;
    }

    /// Asserts the solver's structural invariants: the clause and learnt
    /// counts match the arena, every watch names a live clause through one
    /// of its first two literals, and every recorded reason is a live
    /// clause whose first literal is the one it implied.
    #[cfg(test)]
    pub(crate) fn assert_consistent(&self) {
        let mut starts = std::collections::BTreeSet::new();
        let (mut clauses, mut learnts, mut at) = (0, 0, 0);
        while at < self.arena.len() {
            starts.insert(at as u32);
            clauses += 1;
            learnts += usize::from(self.arena[at] & LEARNT != 0);
            at += 1 + self.clause_len(at as u32);
        }
        assert_eq!(at, self.arena.len(), "arena ends mid-clause");
        assert_eq!(clauses, self.num_clauses, "clause count");
        assert_eq!(learnts, self.live_learnts, "learnt count");
        for (index, list) in self.watches.iter().enumerate() {
            for &clause in list {
                assert!(starts.contains(&clause), "watch of a dead clause {clause}");
                let watched = &self.clause(clause)[..2];
                assert!(
                    watched.iter().any(|&l| Lit(l).negated().index() == index),
                    "clause {clause} watched through a literal it does not watch"
                );
            }
        }
        for &lit in &self.trail {
            if let Some(reason) = self.reason[lit.var().index()] {
                assert!(starts.contains(&reason), "{lit} has a dead reason {reason}");
                assert_eq!(Lit(self.clause(reason)[0]), lit, "reason of {lit}");
            }
        }
    }

    /// Decides satisfiability of the current clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under_assumptions(&[])
    }

    /// Decides satisfiability of the current clause set under the
    /// conjunction of `assumptions`: [`Solver::solve_with`] with a theory
    /// that accepts every model.
    ///
    /// When the answer is `Unsat` because of the assumptions,
    /// [`Solver::unsat_core`] names the responsible subset and the solver
    /// stays usable; an `Unsat` with an empty core means the clauses
    /// themselves are contradictory and the solver is dead.
    pub fn solve_under_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        self.solve_with(assumptions, |_| TheoryAnswer::Accept)
            .expect("a theory that accepts everything never stops the search")
    }

    /// Searches for a model of the clause set under the conjunction of
    /// `assumptions` that `theory` accepts.
    ///
    /// Assumptions are applied as pseudo-decisions (one per decision level,
    /// before any branching), so nothing is added to the clause database and
    /// every clause learnt during the search remains valid for later calls —
    /// this is what makes CEGISMIN's repeated bound changes incremental.
    ///
    /// Each time every decision variable is assigned without conflict,
    /// `theory` sees the assignment.  [`TheoryAnswer::Accept`] returns it
    /// as `Some(Sat)`; [`TheoryAnswer::Stop`] returns `None`;
    /// [`TheoryAnswer::Block`] adds its clause for good and resumes the
    /// same search.  The clause should be false under the assignment:
    /// then the solver backjumps to the highest level at which it is
    /// unit and asserts it there, or analyses it as a conflict when
    /// several of its literals share the top level; an empty clause (after
    /// dropping literals false at level 0) makes the clause set
    /// contradictory.  A clause that is not false is added like any other
    /// and the search resumes from level 0.  `Some(Unsat)` means no
    /// acceptable model exists under the assumptions; see
    /// [`Solver::solve_under_assumptions`] for the core.
    pub fn solve_with(
        &mut self,
        assumptions: &[Lit],
        mut theory: impl FnMut(&Model) -> TheoryAnswer,
    ) -> Option<SatResult> {
        self.last_core.clear();
        if !self.ok {
            return Some(SatResult::Unsat);
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return Some(SatResult::Unsat);
        }
        self.reduce_learnts();

        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 100u64;

        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if !self.learn(conflict) {
                    return Some(SatResult::Unsat);
                }
                continue;
            }
            if conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                restart_limit = restart_limit.saturating_mul(3) / 2;
                self.restarts += 1;
                // Assumptions are re-applied below, one per iteration.
                self.cancel_until(0);
                self.reduce_learnts();
                continue;
            }
            // Apply (or re-apply, after a restart or deep backjump) the
            // next pending assumption as a pseudo-decision.
            if self.trail_lim.len() < assumptions.len() {
                let lit = assumptions[self.trail_lim.len()];
                match self.lit_value(lit) {
                    // Already entailed: push an empty decision level so
                    // assumption i always sits at level ≤ i + 1.
                    1 => self.trail_lim.push(self.trail.len()),
                    0 => {
                        // The clause database (plus earlier assumptions)
                        // forces this assumption false: unsat under
                        // assumptions, solver still healthy.
                        self.analyze_final(lit);
                        self.cancel_until(0);
                        return Some(SatResult::Unsat);
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, None);
                    }
                }
                continue;
            }
            if let Some(var) = self.pick_branch_var() {
                self.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = if self.phase[var.index()] {
                    var.positive()
                } else {
                    var.negative()
                };
                self.enqueue(lit, None);
                continue;
            }
            // Every decision variable is assigned: a candidate model.
            self.model.values.clear();
            self.model
                .values
                .extend(self.assign.iter().map(|&v| v == 1));
            match theory(&self.model) {
                TheoryAnswer::Accept => {
                    let model = std::mem::take(&mut self.model);
                    // Leave the solver reusable for incremental calls.
                    self.cancel_until(0);
                    return Some(SatResult::Sat(model));
                }
                TheoryAnswer::Stop => {
                    self.cancel_until(0);
                    return None;
                }
                TheoryAnswer::Block(clause) => {
                    // A rejection spaces restarts like a conflict does, but
                    // only propositional conflicts are counted as such.
                    conflicts_since_restart += 1;
                    if !self.add_theory_clause(&clause) {
                        return Some(SatResult::Unsat);
                    }
                }
            }
        }
    }
}

enum WatchOutcome {
    KeepWatching,
    Rewatched,
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Var> {
        solver.new_vars(n)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        assert!(s.solve().is_sat());

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive()]));
        assert!(!s.add_clause(&[v[0].negative()]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 3);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let clauses = vec![
            vec![v[0].positive(), v[1].positive()],
            vec![v[0].negative(), v[2].positive()],
            vec![v[1].negative(), v[3].positive()],
            vec![v[2].negative(), v[3].negative()],
        ];
        for c in &clauses {
            assert!(s.add_clause(c));
        }
        let result = s.solve();
        let model = result.model().expect("satisfiable");
        for c in &clauses {
            assert!(
                c.iter().any(|&l| model.lit_is_true(l)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn implication_chain_propagates() {
        let mut s = Solver::new();
        let v = lits(&mut s, 5);
        assert!(s.add_clause(&[v[0].positive()]));
        for i in 0..4 {
            assert!(s.add_implication(v[i].positive(), v[i + 1].positive()));
        }
        let result = s.solve();
        let model = result.model().unwrap();
        for var in &v {
            assert!(model.value(*var));
        }
    }

    #[test]
    fn exactly_one_constraint() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let all: Vec<Lit> = v.iter().map(|x| x.positive()).collect();
        assert!(s.add_exactly_one(&all));
        let result = s.solve();
        let model = result.model().unwrap();
        let count = v.iter().filter(|x| model.value(**x)).count();
        assert_eq!(count, 1);
    }

    #[test]
    fn pigeonhole_3_pigeons_2_holes_is_unsat() {
        // p_{i,j}: pigeon i sits in hole j.
        let mut s = Solver::new();
        let mut p = vec![vec![]; 3];
        for row in p.iter_mut() {
            *row = s.new_vars(2);
        }
        // Every pigeon sits somewhere.
        for row in &p {
            assert!(s.add_clause(&[row[0].positive(), row[1].positive()]));
        }
        // No two pigeons share a hole.
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2usize {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    assert!(s.add_clause(&[p[i][hole].negative(), p[k][hole].negative()]));
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn incremental_blocking_enumerates_all_models() {
        // 3 free variables -> 8 models; block each model as it is found.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        // A tautological-ish clause mentioning the vars so they are branched on.
        assert!(s.add_clause(&[v[0].positive(), v[0].negative()]));
        assert!(s.add_clause(&[v[1].positive(), v[1].negative()]));
        assert!(s.add_clause(&[v[2].positive(), v[2].negative()]));
        let mut count = 0;
        loop {
            match s.solve() {
                SatResult::Unsat => break,
                SatResult::Sat(model) => {
                    count += 1;
                    assert!(count <= 8, "enumerated more models than exist");
                    let blocking: Vec<Lit> = v
                        .iter()
                        .map(|&var| {
                            if model.value(var) {
                                var.negative()
                            } else {
                                var.positive()
                            }
                        })
                        .collect();
                    s.add_clause(&blocking);
                }
            }
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn unsat_formula_with_learning() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ b) ∧ (¬a ∨ ¬b)
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        assert!(s.add_clause(&[v[0].positive(), v[1].negative()]));
        assert!(s.add_clause(&[v[0].negative(), v[1].positive()]));
        // The last clause may already be decided unsat at add time or at solve time.
        let _ = s.add_clause(&[v[0].negative(), v[1].negative()]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_harmless() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[0].positive(), v[1].positive()]));
        assert!(s.add_clause(&[v[0].positive(), v[0].negative()]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0].positive(), v[1].positive(), v[2].positive()]);
        let _ = s.solve();
        let stats = s.stats();
        assert!(stats.decisions + stats.propagations > 0);
    }

    #[test]
    fn assumptions_restrict_models_without_adding_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        assert!(s.add_clause(&[v[0].positive(), v[1].positive()]));
        let clauses_before = s.num_clauses();

        // Under ¬a the only way to satisfy a ∨ b is b.
        let result = s.solve_under_assumptions(&[v[0].negative()]);
        let model = result.model().expect("sat under ¬a");
        assert!(!model.value(v[0]));
        assert!(model.value(v[1]));

        // The assumption was temporary: a is free again.
        let result = s.solve_under_assumptions(&[v[0].positive()]);
        assert!(result.model().expect("sat under a").value(v[0]));
        assert_eq!(s.num_clauses(), clauses_before);
    }

    #[test]
    fn failed_assumptions_yield_a_core_and_a_reusable_solver() {
        // a → b, so assuming {a, ¬b} is contradictory while the clause
        // database stays satisfiable.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(s.add_implication(v[0].positive(), v[1].positive()));

        let result =
            s.solve_under_assumptions(&[v[2].positive(), v[0].positive(), v[1].negative()]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(!core.is_empty(), "assumption failure must produce a core");
        // The irrelevant assumption on v[2] is not to blame.
        assert!(!core.contains(&v[2].positive()), "core {core:?}");
        assert!(core.contains(&v[1].negative()) || core.contains(&v[0].positive()));

        // The solver survives: the same query without the bad assumption
        // succeeds, as does an unconditional solve.
        assert!(s.solve_under_assumptions(&[v[0].positive()]).is_sat());
        assert!(s.solve().is_sat());
    }

    #[test]
    fn directly_conflicting_assumptions_are_detected() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        let result = s.solve_under_assumptions(&[v[0].positive(), v[0].negative()]);
        assert_eq!(result, SatResult::Unsat);
        let core = s.unsat_core();
        assert!(core.contains(&v[0].positive()) && core.contains(&v[0].negative()));
        assert!(s.solve().is_sat(), "solver must remain usable");
    }

    #[test]
    fn unsat_clause_database_reports_an_empty_core() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        assert!(s.add_clause(&[v[0].positive()]));
        let _ = s.add_clause(&[v[0].negative()]);
        assert_eq!(
            s.solve_under_assumptions(&[v[0].positive()]),
            SatResult::Unsat
        );
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn learnt_clauses_survive_assumption_solves() {
        // A pigeonhole core reachable only when the `enable` assumption is
        // on.  Conflicts analysed under the assumption must produce learnt
        // clauses that are sound without it (assumptions are decisions, so
        // learning never depends on them being true).
        let mut s = Solver::new();
        let enable = s.new_var();
        let mut p = vec![vec![]; 3];
        for row in p.iter_mut() {
            *row = s.new_vars(2);
        }
        for row in &p {
            assert!(s.add_clause(&[enable.negative(), row[0].positive(), row[1].positive()]));
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..2usize {
            for i in 0..3 {
                for k in (i + 1)..3 {
                    assert!(s.add_clause(&[
                        enable.negative(),
                        p[i][hole].negative(),
                        p[k][hole].negative()
                    ]));
                }
            }
        }
        assert_eq!(
            s.solve_under_assumptions(&[enable.positive()]),
            SatResult::Unsat
        );
        assert_eq!(s.unsat_core(), &[enable.positive()]);
        let learnts_after_first = s.stats().learnts;

        // Re-solving the same query reuses what was learnt: at least it must
        // not lose soundness, and without the assumption the formula is sat.
        assert_eq!(
            s.solve_under_assumptions(&[enable.positive()]),
            SatResult::Unsat
        );
        assert!(s.stats().learnts >= learnts_after_first);
        let model = s.solve().model().cloned().expect("sat without assumption");
        assert!(!model.value(enable));
    }
}
