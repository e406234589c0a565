//! Bounded equivalence checking between a student program and the reference
//! implementation.
//!
//! The paper's SKETCH harness "compares the outputs of the translated student
//! and reference implementations on all inputs of a bounded size" (§2.3).
//! [`EquivalenceOracle`] is the enumerative analogue: it precomputes the
//! reference outcome on every bounded input once, then answers
//! counterexample queries for candidate programs.

use std::cell::RefCell;

use afg_ast::types::MpyType;
use afg_ast::Program;
use afg_eml::{ChoiceAssignment, ChoiceProgram};

use crate::bytecode::{CompiledProgram, TraceStep, Vm};
use crate::error::RuntimeError;
use crate::inputs::InputSpace;
use crate::interp::{run_function, ExecLimits, Outcome};
use crate::value::Value;

/// The observable behaviour of one program run: either a value plus output,
/// or the kind of error it raised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecResult {
    /// Execution finished normally.
    Ok(Outcome),
    /// Execution raised an error of the given kind (`"IndexError"`, ...).
    Err(&'static str),
}

impl ExecResult {
    /// Runs `program` on `args` and captures the result.
    pub fn observe(
        program: &Program,
        entry: Option<&str>,
        args: &[Value],
        limits: ExecLimits,
    ) -> ExecResult {
        match run_function(program, entry, args, limits) {
            Ok(outcome) => ExecResult::Ok(outcome),
            Err(err) => ExecResult::Err(err.kind()),
        }
    }

    /// Whether this result is a successful execution.
    pub fn is_ok(&self) -> bool {
        matches!(self, ExecResult::Ok(_))
    }

    /// Whether a student result matches a reference result.
    ///
    /// Behavioural match means: the student run succeeds, returns a value
    /// that is Python-equal to the reference value and, when
    /// `compare_output` is set, prints the same lines.
    pub fn matches(&self, reference: &ExecResult, compare_output: bool) -> bool {
        match (self, reference) {
            (ExecResult::Ok(student), ExecResult::Ok(reference)) => {
                student.value.py_eq(&reference.value)
                    && (!compare_output || student.output == reference.output)
            }
            // A reference error means the input is outside the reference's
            // domain; such inputs never count against the student.
            (_, ExecResult::Err(_)) => true,
            (ExecResult::Err(_), ExecResult::Ok(_)) => false,
        }
    }
}

/// How candidate programs are executed during verification sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweepMode {
    /// Concretise each candidate once and run it on the reference tree
    /// interpreter ([`run_function`]) — the semantic ground truth.
    Tree,
    /// Lower the candidate space to bytecode once and run the deck through
    /// the [`Vm`] (behaviour- and fuel-identical; programs the compiler
    /// cannot lower silently fall back to the tree interpreter).
    #[default]
    Compiled,
}

impl SweepMode {
    /// Parses `"tree"` / `"compiled"` (CLI A/B flags).
    pub fn parse(text: &str) -> Option<SweepMode> {
        match text {
            "tree" => Some(SweepMode::Tree),
            "compiled" => Some(SweepMode::Compiled),
            _ => None,
        }
    }

    /// Stable lowercase name (`"tree"` / `"compiled"`).
    pub fn name(self) -> &'static str {
        match self {
            SweepMode::Tree => "tree",
            SweepMode::Compiled => "compiled",
        }
    }
}

/// Configuration of the equivalence check.
#[derive(Debug, Clone)]
pub struct EquivalenceConfig {
    /// Bounded input space.
    pub space: InputSpace,
    /// Per-run resource limits.
    pub limits: ExecLimits,
    /// Name of the graded function (entry point).
    pub entry: Option<String>,
    /// Whether printed output is part of the observable behaviour
    /// (only the stdin/print style problems set this).
    pub compare_output: bool,
    /// Execution back end for verification sweeps.
    pub sweep: SweepMode,
    /// Whether compiled sweeps may memoize check verdicts on the choice
    /// sites a run actually consults (sound observational-equivalence
    /// caching over consultation traces).  On by default; benchmarks that
    /// want to time raw execution turn it off.
    pub sweep_cache: bool,
}

impl Default for EquivalenceConfig {
    fn default() -> EquivalenceConfig {
        EquivalenceConfig {
            space: InputSpace::default(),
            limits: ExecLimits::fast(),
            entry: None,
            compare_output: false,
            sweep: SweepMode::default(),
            sweep_cache: true,
        }
    }
}

/// A reusable oracle answering "does this candidate behave like the
/// reference on every bounded input?".
#[derive(Debug, Clone)]
pub struct EquivalenceOracle {
    inputs: Vec<Vec<Value>>,
    reference_results: Vec<ExecResult>,
    config: EquivalenceConfig,
}

impl EquivalenceOracle {
    /// Builds an oracle for a reference implementation whose parameters have
    /// the given declared types.
    ///
    /// The reference is run once on every input of the bounded space and the
    /// results are cached.
    pub fn new(
        reference: &Program,
        param_types: &[MpyType],
        config: EquivalenceConfig,
    ) -> EquivalenceOracle {
        let inputs = config.space.enumerate_args(param_types);
        // Reference pre-pass: compile once and run the whole deck through
        // the VM when the sweep mode allows it (behaviour-identical to the
        // tree walker; the differential suite enforces this).
        let compiled = match config.sweep {
            SweepMode::Compiled => {
                CompiledProgram::from_program(reference, config.entry.as_deref())
            }
            SweepMode::Tree => None,
        };
        let reference_results = match &compiled {
            Some(compiled) => {
                let mut vm = Vm::new(config.limits);
                inputs
                    .iter()
                    .map(|args| match vm.run(compiled, args) {
                        Ok(outcome) => ExecResult::Ok(outcome),
                        Err(err) => ExecResult::Err(err.kind()),
                    })
                    .collect()
            }
            None => inputs
                .iter()
                .map(|args| {
                    ExecResult::observe(reference, config.entry.as_deref(), args, config.limits)
                })
                .collect(),
        };
        EquivalenceOracle {
            inputs,
            reference_results,
            config,
        }
    }

    /// Builds an oracle, reading the parameter types from the reference
    /// program's entry function (the paper's name-suffix convention).
    pub fn from_reference(reference: &Program, config: EquivalenceConfig) -> EquivalenceOracle {
        let param_types: Vec<MpyType> = reference
            .entry(config.entry.as_deref())
            .map(|f| f.params.iter().map(|p| p.ty.clone()).collect())
            .unwrap_or_default();
        EquivalenceOracle::new(reference, &param_types, config)
    }

    /// The bounded inputs the oracle checks, in order.
    pub fn inputs(&self) -> &[Vec<Value>] {
        &self.inputs
    }

    /// The cached reference result for input `index`.
    pub fn reference_result(&self, index: usize) -> &ExecResult {
        &self.reference_results[index]
    }

    /// Number of inputs on which the reference executes successfully.
    pub fn valid_input_count(&self) -> usize {
        self.reference_results.iter().filter(|r| r.is_ok()).count()
    }

    /// Checks the candidate on a single input, by index.
    pub fn check_input(&self, candidate: &Program, index: usize) -> bool {
        let result = ExecResult::observe(
            candidate,
            self.config.entry.as_deref(),
            &self.inputs[index],
            self.config.limits,
        );
        result.matches(&self.reference_results[index], self.config.compare_output)
    }

    /// Finds the first input on which the candidate disagrees with the
    /// reference, or `None` if the candidate is equivalent on the whole
    /// bounded space.
    pub fn find_counterexample(&self, candidate: &Program) -> Option<usize> {
        (0..self.inputs.len()).find(|&i| !self.check_input(candidate, i))
    }

    /// Whether the candidate is equivalent to the reference on the bounded
    /// space.
    pub fn is_equivalent(&self, candidate: &Program) -> bool {
        self.find_counterexample(candidate).is_none()
    }

    /// Runs the candidate on an explicit list of input indices (the CEGIS
    /// counterexample set) and reports whether it agrees on all of them.
    pub fn agrees_on(&self, candidate: &Program, indices: &[usize]) -> bool {
        indices.iter().all(|&i| self.check_input(candidate, i))
    }

    /// Opens a choice-aware verification session for one candidate space.
    ///
    /// Under [`SweepMode::Compiled`] the session evaluates candidates on the
    /// bytecode VM by loading a [`ChoiceAssignment`] into its selection
    /// array — no per-candidate program is ever materialised.  This is the
    /// oracle API the synthesis back ends use in their hot loop.
    pub fn choice_session<'a>(&'a self, program: &'a ChoiceProgram) -> ChoiceSession<'a> {
        let compiled = match self.config.sweep {
            SweepMode::Compiled => CompiledProgram::from_choice(program),
            SweepMode::Tree => None,
        };
        ChoiceSession {
            oracle: self,
            program,
            compiled,
            scratch: RefCell::new(SweepScratch::new(self.config.limits)),
        }
    }

    /// The configured sweep mode.
    pub fn sweep_mode(&self) -> SweepMode {
        self.config.sweep
    }
}

/// Counters describing the verification work one session performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Full-deck sweeps answered (`find_counterexample` / `sweep` calls).
    pub sweeps: u64,
    /// Candidate checks answered (one per (assignment, input) pair),
    /// whether executed or answered from the verdict cache.
    pub inputs_run: u64,
    /// Checks answered from the verdict cache without executing (always 0
    /// on the tree path or with `sweep_cache` off).
    pub cache_hits: u64,
    /// Whether the session ran candidates on the bytecode VM (false when
    /// the mode is [`SweepMode::Tree`] or the program failed to compile).
    pub compiled: bool,
    /// Nodes currently held by the session's verdict-cache trie (0 on the
    /// tree path or with `sweep_cache` off).
    pub cache_nodes: u64,
}

/// Sound memoization of check verdicts across candidates, keyed on the
/// choice sites a run *actually consults*.
///
/// A compiled run is a deterministic function of its input and the
/// sequence of (site, clamped option) consultations the VM records as its
/// [`TraceStep`] trace — two candidates that agree on every consulted
/// site behave identically on that input, whatever they do elsewhere.
/// The cache stores, per input, a decision trie over consultations:
/// branches ask "which option does the current selection take at site
/// `s`?", leaves hold the check verdict.  Lookups walk the trie against
/// the loaded selection without executing anything; misses run the
/// candidate and insert the recorded path.  This is the observational-
/// equivalence reduction that makes CEGIS sweeps cheap: solver proposals
/// differ from already-checked candidates in a handful of sites, and a
/// given counterexample input rarely executes the changed site.
#[derive(Debug, Clone, Default)]
struct VerdictCache {
    /// Per-input root node, `u32::MAX` ⇔ nothing cached yet.
    roots: Vec<u32>,
    nodes: Vec<CacheNode>,
}

#[derive(Debug, Clone)]
enum CacheNode {
    /// Check verdict for the consultation path leading here.
    Leaf(bool),
    /// The run consults `site` next (with `bound` options at the
    /// consulting instruction); children are (clamped option, node),
    /// linear-scanned — option counts are tiny.
    Branch {
        site: u32,
        bound: u32,
        children: Vec<(u32, u32)>,
    },
}

/// Arena-growth backstop: stop inserting (lookups keep working) once the
/// trie holds this many nodes, so adversarial programs with thousands of
/// hot choice sites cannot balloon a session's memory.
const CACHE_NODE_CAP: usize = 1 << 20;

const NO_NODE: u32 = u32::MAX;

impl VerdictCache {
    /// Answers the check for `input` under `selection` if some previously
    /// executed candidate agreed with it on every consulted site.
    fn lookup(&self, input: usize, selection: &[usize]) -> Option<bool> {
        let mut node = *self.roots.get(input)?;
        loop {
            match self.nodes.get(node as usize)? {
                CacheNode::Leaf(verdict) => return Some(*verdict),
                CacheNode::Branch {
                    site,
                    bound,
                    children,
                } => {
                    let option = selection
                        .get(*site as usize)
                        .copied()
                        .unwrap_or(0)
                        .min(*bound as usize - 1) as u32;
                    node = children.iter().find(|(o, _)| *o == option)?.1;
                }
            }
        }
    }

    /// Records a run's consultation trace and its check verdict.
    fn insert(&mut self, input: usize, trace: &[TraceStep], verdict: bool) {
        if self.nodes.len() >= CACHE_NODE_CAP {
            return;
        }
        if input >= self.roots.len() {
            self.roots.resize(input + 1, NO_NODE);
        }
        // Walk the already-cached prefix.  `link` is where the next node
        // pointer lives: the input's root slot, or a missing child edge.
        let mut link = Link::Root(input);
        let mut depth = 0usize;
        while let Some(node) = self.get(link) {
            match &self.nodes[node as usize] {
                // Full path already cached (determinism guarantees the
                // stored verdict equals ours).
                CacheNode::Leaf(_) => return,
                CacheNode::Branch {
                    site,
                    bound,
                    children,
                } => {
                    // A trace shorter than the stored path, or consulting
                    // a different site, would mean the VM is not
                    // deterministic; bail out rather than corrupt the trie.
                    let Some(step) = trace.get(depth) else { return };
                    if *site != step.site || *bound != step.bound {
                        debug_assert!(false, "non-deterministic consultation order");
                        return;
                    }
                    match children.iter().find(|(o, _)| *o == step.option) {
                        Some(&(_, child)) => {
                            link = Link::Child(node as usize, step.option);
                            debug_assert!(self.get(link) == Some(child));
                        }
                        None => link = Link::Child(node as usize, step.option),
                    }
                    depth += 1;
                }
            }
        }
        // Append the uncached suffix, one single-child branch per step.
        for step in &trace[depth..] {
            if self.nodes.len() >= CACHE_NODE_CAP {
                return;
            }
            let fresh = self.nodes.len() as u32;
            self.nodes.push(CacheNode::Branch {
                site: step.site,
                bound: step.bound,
                children: Vec::new(),
            });
            self.set(link, fresh);
            link = Link::Child(fresh as usize, step.option);
        }
        if self.nodes.len() >= CACHE_NODE_CAP {
            return;
        }
        let leaf = self.nodes.len() as u32;
        self.nodes.push(CacheNode::Leaf(verdict));
        self.set(link, leaf);
    }

    fn get(&self, link: Link) -> Option<u32> {
        let node = match link {
            Link::Root(input) => self.roots[input],
            Link::Child(node, option) => match &self.nodes[node] {
                CacheNode::Branch { children, .. } => children
                    .iter()
                    .find(|(o, _)| *o == option)
                    .map_or(NO_NODE, |(_, n)| *n),
                CacheNode::Leaf(_) => NO_NODE,
            },
        };
        (node != NO_NODE).then_some(node)
    }

    fn set(&mut self, link: Link, node: u32) {
        match link {
            Link::Root(input) => self.roots[input] = node,
            Link::Child(parent, option) => {
                if let CacheNode::Branch { children, .. } = &mut self.nodes[parent] {
                    children.push((option, node));
                }
            }
        }
    }
}

/// A position in the [`VerdictCache`] trie where a node pointer lives.
#[derive(Debug, Clone, Copy)]
enum Link {
    Root(usize),
    Child(usize, u32),
}

/// Reusable per-session scratch: the bytecode VM (operand stack, slot
/// arena, selection array), the concretised candidate of the reference
/// path, a generation-stamped visited set (so a sweep allocates nothing),
/// and the cross-candidate verdict cache.
#[derive(Debug, Clone)]
struct SweepScratch {
    vm: Vm,
    /// The candidate most recently prepared on the reference path (empty on
    /// the compiled path).
    concrete: Program,
    /// `marks[i] == generation` ⇔ input `i` was already checked during the
    /// current sweep.  Bumping the generation invalidates every mark at
    /// once, so the buffer never needs clearing.
    marks: Vec<u32>,
    generation: u32,
    cache: VerdictCache,
    sweeps: u64,
    inputs_run: u64,
    cache_hits: u64,
    /// Wall-clock accumulated inside `find_counterexample`, for the
    /// sweep-throughput metrics flushed when the session drops.
    sweep_ns: u64,
}

impl SweepScratch {
    fn new(limits: ExecLimits) -> SweepScratch {
        SweepScratch {
            vm: Vm::new(limits),
            concrete: Program::new(),
            marks: Vec::new(),
            generation: 0,
            cache: VerdictCache::default(),
            sweeps: 0,
            inputs_run: 0,
            cache_hits: 0,
            sweep_ns: 0,
        }
    }

    /// Starts a fresh visited set covering `total` inputs.
    fn begin_marks(&mut self, total: usize) {
        if self.marks.len() < total {
            self.marks.resize(total, 0);
        }
        // On wrap-around, stale marks could alias the new generation; reset
        // the buffer (once every 2^32 sweeps) to keep the trick sound.
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.marks.fill(0);
                1
            }
        };
    }

    fn mark(&mut self, index: usize) {
        self.marks[index] = self.generation;
    }

    fn is_marked(&self, index: usize) -> bool {
        self.marks[index] == self.generation
    }
}

/// A verification session over one candidate space (one transformed
/// submission), bound to the oracle's cached reference results.
///
/// Under [`SweepMode::Compiled`] the choice program is lowered to bytecode
/// once at session open; every candidate evaluation afterwards loads the
/// assignment into the VM's selection array and sweeps the input deck
/// through one reusable scratch arena.  The reference path concretises
/// each candidate once and runs it on the tree interpreter; it serves both
/// [`SweepMode::Tree`] and programs the compiler cannot lower.
#[derive(Debug)]
pub struct ChoiceSession<'a> {
    oracle: &'a EquivalenceOracle,
    program: &'a ChoiceProgram,
    compiled: Option<CompiledProgram>,
    scratch: RefCell<SweepScratch>,
}

impl<'a> ChoiceSession<'a> {
    /// The underlying oracle.
    pub fn oracle(&self) -> &'a EquivalenceOracle {
        self.oracle
    }

    /// Whether candidates run on the bytecode VM (as opposed to the
    /// reference tree interpreter).
    pub fn is_compiled(&self) -> bool {
        self.compiled.is_some()
    }

    /// The verification-work counters accumulated so far.
    pub fn sweep_stats(&self) -> SweepStats {
        let scratch = self.scratch.borrow();
        SweepStats {
            sweeps: scratch.sweeps,
            inputs_run: scratch.inputs_run,
            cache_hits: scratch.cache_hits,
            compiled: self.compiled.is_some(),
            cache_nodes: scratch.cache.nodes.len() as u64,
        }
    }

    /// Loads `assignment` into the VM selection array, or concretises it
    /// once on the reference path.
    fn prepare(&self, scratch: &mut SweepScratch, assignment: &ChoiceAssignment) {
        match &self.compiled {
            Some(compiled) => scratch.vm.select(compiled, assignment),
            None => scratch.concrete = self.program.concretize(assignment),
        }
    }

    /// Runs the prepared candidate on one input.  `prepare` must have been
    /// called first.
    fn run_prepared(&self, scratch: &mut SweepScratch, index: usize) -> ExecResult {
        scratch.inputs_run += 1;
        let args = &self.oracle.inputs[index];
        let result = match &self.compiled {
            Some(compiled) => scratch.vm.run(compiled, args),
            // `None` selects `funcs[0]`, the concretised entry function.
            None => run_function(&scratch.concrete, None, args, self.oracle.config.limits),
        };
        match result {
            Ok(outcome) => ExecResult::Ok(outcome),
            Err(err) => ExecResult::Err(err.kind()),
        }
    }

    fn check_prepared(&self, scratch: &mut SweepScratch, index: usize) -> bool {
        // The compiled path checks in place: the outcome stays inside the
        // VM scratch (no output-vector move, no `ExecResult` built), which
        // matters in the CEGIS mix where most sweeps die after a handful
        // of runs.  Matching semantics are identical to `matches`.
        if let Some(compiled) = &self.compiled {
            scratch.inputs_run += 1;
            let cached = self.oracle.config.sweep_cache;
            if cached {
                if let Some(verdict) = scratch.cache.lookup(index, scratch.vm.selection()) {
                    scratch.cache_hits += 1;
                    return verdict;
                }
            }
            let run = scratch
                .vm
                .run_for_check(compiled, &self.oracle.inputs[index]);
            let verdict = match (&run, &self.oracle.reference_results[index]) {
                // Reference errors put the input outside the reference's
                // domain; it never counts against the student.
                (_, ExecResult::Err(_)) => true,
                (Ok(()), ExecResult::Ok(reference)) => scratch
                    .vm
                    .outcome_matches(reference, self.oracle.config.compare_output),
                (Err(_), ExecResult::Ok(_)) => false,
            };
            if cached {
                scratch.cache.insert(index, scratch.vm.trace(), verdict);
            }
            return verdict;
        }
        self.run_prepared(scratch, index).matches(
            &self.oracle.reference_results[index],
            self.oracle.config.compare_output,
        )
    }

    /// Runs the candidate selected by `assignment` on one input and captures
    /// the result.
    pub fn observe(&self, assignment: &ChoiceAssignment, index: usize) -> ExecResult {
        let scratch = &mut *self.scratch.borrow_mut();
        self.prepare(scratch, assignment);
        self.run_prepared(scratch, index)
    }

    /// Checks the candidate on a single input, by index.
    pub fn check_input(&self, assignment: &ChoiceAssignment, index: usize) -> bool {
        let scratch = &mut *self.scratch.borrow_mut();
        self.prepare(scratch, assignment);
        self.check_prepared(scratch, index)
    }

    /// Runs the candidate on an explicit list of input indices (the CEGIS
    /// counterexample set) and reports whether it agrees on all of them.
    pub fn agrees_on(&self, assignment: &ChoiceAssignment, indices: &[usize]) -> bool {
        let scratch = &mut *self.scratch.borrow_mut();
        self.prepare(scratch, assignment);
        indices.iter().all(|&i| self.check_prepared(scratch, i))
    }

    /// Finds the first input on which the candidate disagrees with the
    /// reference, checking `priority` indices (the accumulated CEGIS
    /// counterexamples) *first*.
    ///
    /// Counterexample-first ordering pays off twice: almost every candidate
    /// the solver proposes fails on an input that already killed an earlier
    /// candidate, so the common case rejects after a handful of runs instead
    /// of a sweep — and when the candidate survives the priority set, the
    /// remaining sweep skips the indices it already checked.
    pub fn find_counterexample(
        &self,
        assignment: &ChoiceAssignment,
        priority: &[usize],
    ) -> Option<usize> {
        // One clock pair per sweep (not per input): the throughput
        // metrics cost tens of nanoseconds against sweeps that run
        // hundreds of inputs.
        let sweep_start = std::time::Instant::now();
        let result = self.find_counterexample_untimed(assignment, priority);
        self.scratch.borrow_mut().sweep_ns += sweep_start.elapsed().as_nanos() as u64;
        result
    }

    fn find_counterexample_untimed(
        &self,
        assignment: &ChoiceAssignment,
        priority: &[usize],
    ) -> Option<usize> {
        let scratch = &mut *self.scratch.borrow_mut();
        scratch.sweeps += 1;
        self.prepare(scratch, assignment);
        for &index in priority {
            if !self.check_prepared(scratch, index) {
                return Some(index);
            }
        }
        let total = self.oracle.inputs.len();
        if priority.is_empty() {
            return (0..total).find(|&i| !self.check_prepared(scratch, i));
        }
        // Mark the already-checked indices once instead of scanning the
        // priority list per input — with warm starts pre-seeding whole
        // counterexample sets, that scan would make every surviving
        // sweep O(|inputs| · |priority|).  The generation-stamped mark
        // buffer persists across sweeps, so this allocates nothing.
        scratch.begin_marks(total);
        for &index in priority {
            if index < total {
                scratch.mark(index);
            }
        }
        (0..total).find(|&i| !scratch.is_marked(i) && !self.check_prepared(scratch, i))
    }

    /// Deck-batched sweep: evaluates the candidate across the entire
    /// precomputed input deck in one pass and returns the first failing
    /// input index (`None` ⇔ equivalent on the bounded space).
    pub fn sweep(&self, assignment: &ChoiceAssignment) -> Option<usize> {
        self.find_counterexample(assignment, &[])
    }

    /// Whether the candidate is equivalent to the reference on the whole
    /// bounded space.
    pub fn is_equivalent(&self, assignment: &ChoiceAssignment) -> bool {
        self.sweep(assignment).is_none()
    }
}

/// Sessions flush their verification-work counters into the global
/// metrics registry when they close: one batch of relaxed atomic adds
/// per session, zero cost inside the sweep loop, and the grading outcome
/// cannot observe any of it.
impl Drop for ChoiceSession<'_> {
    fn drop(&mut self) {
        let scratch = self.scratch.borrow();
        if scratch.sweeps == 0 && scratch.inputs_run == 0 {
            return;
        }
        afg_obs::counter!("afg_sweeps_total", "Full-deck verification sweeps").add(scratch.sweeps);
        afg_obs::counter!(
            "afg_sweep_inputs_total",
            "Candidate checks answered (executed or from the verdict cache)"
        )
        .add(scratch.inputs_run);
        afg_obs::counter!(
            "afg_sweep_cache_hits_total",
            "Checks answered from the verdict cache without executing"
        )
        .add(scratch.cache_hits);
        afg_obs::counter!(
            "afg_sweep_ns_total",
            "Wall-clock nanoseconds spent inside verification sweeps"
        )
        .add(scratch.sweep_ns);
        afg_obs::gauge!(
            "afg_verdict_cache_nodes",
            "High-water mark of verdict-cache trie nodes in one session"
        )
        .max(scratch.cache.nodes.len() as i64);
    }
}

/// Classification of a submission against the reference, used when building
/// the experiment corpus (Table 1's Correct / Incorrect split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Behaviourally equivalent to the reference on the bounded space.
    Correct,
    /// Differs from the reference on at least one bounded input.
    Incorrect,
}

/// Classifies a parsed submission as correct or incorrect.
pub fn classify(oracle: &EquivalenceOracle, submission: &Program) -> Verdict {
    if oracle.is_equivalent(submission) {
        Verdict::Correct
    } else {
        Verdict::Incorrect
    }
}

/// Convenience helper: runs both programs on one input and reports whether
/// the student matches the reference there.
pub fn agree_on_input(
    reference: &Program,
    student: &Program,
    entry: Option<&str>,
    args: &[Value],
    limits: ExecLimits,
    compare_output: bool,
) -> Result<bool, RuntimeError> {
    let reference_result = ExecResult::observe(reference, entry, args, limits);
    let student_result = ExecResult::observe(student, entry, args, limits);
    Ok(student_result.matches(&reference_result, compare_output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_parser::parse_program;

    const REFERENCE: &str = "\
def computeDeriv(poly_list_int):
    result = []
    for i in range(len(poly_list_int)):
        result += [i * poly_list_int[i]]
    if len(poly_list_int) == 1:
        return result
    else:
        return result[1:]
";

    // Correct alternative algorithm (builds the result with append).
    const CORRECT_VARIANT: &str = "\
def computeDeriv(poly):
    if len(poly) == 1:
        return [0]
    deriv = []
    for i in range(1, len(poly)):
        deriv.append(i * poly[i])
    return deriv
";

    // Figure 2(a): misses the [0] base case and iterates from 0.
    const INCORRECT: &str = "\
def computeDeriv(poly):
    deriv = []
    zero = 0
    if (len(poly) == 1):
        return deriv
    for e in range(0, len(poly)):
        if (poly[e] == 0):
            zero += 1
        else:
            deriv.append(poly[e]*e)
    return deriv
";

    fn oracle() -> EquivalenceOracle {
        let reference = parse_program(REFERENCE).unwrap();
        let config = EquivalenceConfig {
            entry: Some("computeDeriv".to_string()),
            ..EquivalenceConfig::default()
        };
        EquivalenceOracle::from_reference(&reference, config)
    }

    #[test]
    fn reference_is_equivalent_to_itself() {
        let oracle = oracle();
        let reference = parse_program(REFERENCE).unwrap();
        assert!(oracle.is_equivalent(&reference));
        assert!(oracle.valid_input_count() > 10);
    }

    #[test]
    fn note_single_element_semantics_of_reference() {
        // The paper's reference returns `result` (which is [0 * poly[0]]) for
        // singleton lists, i.e. [0] — the variant must agree.
        let oracle = oracle();
        let variant = parse_program(CORRECT_VARIANT).unwrap();
        assert!(oracle.is_equivalent(&variant));
    }

    #[test]
    fn incorrect_submission_yields_small_counterexample() {
        let oracle = oracle();
        let student = parse_program(INCORRECT).unwrap();
        let cex = oracle.find_counterexample(&student).expect("should differ");
        // The first differing input should be small — a list of length <= 2.
        match &oracle.inputs()[cex][0] {
            Value::List(items) => assert!(items.len() <= 2),
            other => panic!("unexpected input {other:?}"),
        }
        assert_eq!(classify(&oracle, &student), Verdict::Incorrect);
    }

    #[test]
    fn exec_results_match_semantics() {
        let ok = ExecResult::Ok(Outcome {
            value: Value::Int(1),
            output: vec![],
        });
        let ok_same = ExecResult::Ok(Outcome {
            value: Value::Int(1),
            output: vec!["x".into()],
        });
        let err = ExecResult::Err("IndexError");
        assert!(ok_same.matches(&ok, false));
        assert!(!ok_same.matches(&ok, true));
        assert!(!err.matches(&ok, false));
        // Inputs where the reference errors never count against the student.
        assert!(ok.matches(&err, false));
        assert!(err.matches(&err, false));
    }

    #[test]
    fn agrees_on_subset_of_inputs() {
        let oracle = oracle();
        let student = parse_program(INCORRECT).unwrap();
        let cex = oracle.find_counterexample(&student).unwrap();
        assert!(!oracle.agrees_on(&student, &[cex]));
        // The empty counterexample set is vacuously satisfied.
        assert!(oracle.agrees_on(&student, &[]));
    }

    #[test]
    fn agree_on_single_input_helper() {
        let reference = parse_program(REFERENCE).unwrap();
        let student = parse_program(INCORRECT).unwrap();
        let args = vec![Value::int_list([7])];
        let same = agree_on_input(
            &reference,
            &student,
            Some("computeDeriv"),
            &args,
            ExecLimits::fast(),
            false,
        )
        .unwrap();
        // Reference returns [0], the student returns [] — they disagree.
        assert!(!same);
    }
}
