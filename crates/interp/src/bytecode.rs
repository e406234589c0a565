//! Compile-once, sweep-many verification core: a flat bytecode lowering of
//! MPY / M̃PY programs plus a loop-based VM.
//!
//! The synthesis inner loop evaluates one candidate space on thousands of
//! (assignment × input) pairs.  The reference path concretises every
//! candidate and its tree walker re-resolves every local through a
//! `HashMap` frame on every run; the compiler here does that work once per
//! submission instead:
//!
//! * locals are resolved to dense frame **slots** at compile time,
//! * constants are interned into a constant pool,
//! * calls are resolved at compile time (entry / helper / builtin / print /
//!   input / `NameError`), and
//! * choice sites become **indexed dispatch** — a `ChoiceJump` through a
//!   per-site jump table, or an operator table lookup — over a dense
//!   per-candidate selection array, so no candidate AST is ever
//!   materialised and no `BTreeMap` is consulted mid-run.
//!
//! Fuel parity is by construction: a one-unit [`Instr::Charge`] is emitted
//! at exactly the points where [`crate::interp::Interpreter`] calls
//! `charge(1)` (statement entry, expression-node entry, loop iterations),
//! and choice constructs charge nothing, exactly as they vanish under
//! concretisation.  The `vm_differential` integration test enforces
//! result + output + fuel agreement with concretise-then-interpret.
//!
//! Programs using a construct the compiler does not support (currently:
//! mutating method calls whose receiver is an index expression or is
//! itself choice-bearing, where the tree walker re-evaluates the write-back
//! target) fail to compile; callers fall back to concretising each
//! candidate and running the tree interpreter, which remains the semantic
//! ground truth and the cold path for feedback rendering.

use std::collections::HashMap;

use afg_ast::ops::{BinOp, BoolOp, CmpOp, UnaryOp};
use afg_ast::{Expr, FuncDef, Program, Stmt, StmtKind, Target};
use afg_eml::{CExpr, CStmt, CStmtKind, ChoiceAssignment, ChoiceId, ChoiceProgram, OpChoice};

use crate::builtins;
use crate::error::RuntimeError;
use crate::interp::{
    binary_op, compare_op, iterable_items, load_index, slice_value, store_index, unary_op,
    ExecLimits, Outcome,
};
use crate::value::Value;

/// One VM instruction.  Jump targets are absolute indices into the owning
/// function's code vector.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Spend one fuel unit (mirrors `Interpreter::charge(1)`).
    Charge,
    /// Spend `n` fuel units — the peephole fusion of `n` adjacent
    /// [`Instr::Charge`]s.  On shortfall the remaining fuel is drained
    /// before erroring, so `fuel_used` matches charging one unit at a time.
    ChargeN(u32),
    /// `Charge` + `Const` fused (every literal expression).
    ChargeConst(u32),
    /// `Charge` + `LoadSlot` fused (every variable read).
    ChargeLoad(u32),
    /// Push a clone of the interned constant.
    Const(u32),
    /// Push a clone of the slot value; `NameError` if unset.
    LoadSlot(u32),
    /// Pop into the slot.
    StoreSlot(u32),
    /// `NameError` when the slot is unset; no stack effect.  Emitted where
    /// a specialised instruction reads a slot *after* evaluating other
    /// operands, to keep the tree walker's error order.
    CheckSlot(u32),
    /// `[.., index]` → `[.., slot[index]]` — indexing a variable without
    /// cloning the whole container.  The slot is checked by a preceding
    /// `CheckSlot` and cannot be mutated in between (the compiler only
    /// emits this when the index expression contains no method call).
    LoadIndexSlot(u32),
    /// Push `len(slot)` without cloning the container (`NameError` /
    /// `TypeError` exactly like `LoadSlot` + the `len` builtin).
    LenSlot(u32),
    Pop,
    PopN(u32),
    Jump(usize),
    /// Pop; jump when falsy.
    JumpIfFalsePop(usize),
    /// Peek; jump when falsy keeping the value, else pop (Python `and`).
    JumpIfFalsePeek(usize),
    /// Peek; jump when truthy keeping the value, else pop (Python `or`).
    JumpIfTruePeek(usize),
    MakeList(u32),
    MakeTuple(u32),
    /// Pop `2n` key/value pairs, deduplicate by `py_eq` like a dict literal.
    MakeDict(u32),
    /// `[.., base, index]` → `[.., base[index]]`.
    LoadIndex,
    /// `[.., value, index, base]` → `[.., base']` (mutated container).
    StoreIndex,
    /// `[.., base, lower?, upper?]` → `[.., base[lower:upper]]`.
    Slice {
        has_lower: bool,
        has_upper: bool,
    },
    /// `[.., l, r]` → `[.., l op r]`.
    BinaryOp(BinOp),
    /// `[.., rhs, current]` → `[.., current op rhs]` (augmented assign).
    BinaryOpAug(BinOp),
    /// Operator chosen from a table by the candidate selection.
    BinaryOpChoice {
        site: u32,
        table: u32,
    },
    UnaryOpI(UnaryOp),
    CompareOpI(CmpOp),
    CompareOpChoice {
        site: u32,
        table: u32,
    },
    /// `[.., l]` → `[.., l op slot]` — the right operand is read from its
    /// slot by reference (no container clone; the big win is `x in v` on a
    /// list or string).  Raises the slot's `NameError` itself, at exactly
    /// the point the tree walker would evaluate the right-hand variable.
    CompareSlot {
        op: CmpOp,
        slot: u32,
    },
    /// [`Instr::CompareSlot`] with the operator chosen from a table by the
    /// candidate selection.
    CompareChoiceSlot {
        site: u32,
        table: u32,
        slot: u32,
    },
    /// Fused `CompareOpI` + `JumpIfFalsePop` (peephole; never spans a jump
    /// target thanks to the emit fence).
    CmpJumpFalse {
        op: CmpOp,
        target: usize,
    },
    /// Fused `CompareOpChoice` + `JumpIfFalsePop`.
    CmpChoiceJumpFalse {
        site: u32,
        table: u32,
        target: usize,
    },
    /// Fused `CompareSlot` + `JumpIfFalsePop`.
    CmpSlotJumpFalse {
        op: CmpOp,
        slot: u32,
        target: usize,
    },
    /// Pop `n` values, join their display strings, append an output line.
    PrintStmt(u32),
    /// Like `PrintStmt` but pushes `None` (the `print(...)` call form).
    PrintExpr(u32),
    /// Pop the next stdin value (or `ValueError` when exhausted).
    Input {
        raw: bool,
    },
    /// Call compiled function `func` with the top `argc` stack values.
    CallFunc {
        func: u32,
        argc: u32,
    },
    CallBuiltin {
        name: u32,
        argc: u32,
    },
    /// Method call; `wb_slot` receives the mutated receiver (u32::MAX: the
    /// receiver has no assignable location and the mutation is dropped).
    CallMethod {
        name: u32,
        argc: u32,
        wb_slot: u32,
    },
    /// Method call on a variable receiver, run **in place** on the slot —
    /// no receiver clone, no write-back (`v.append(x)` goes from O(len)
    /// to O(1)).  Requires a preceding `CheckSlot` and arguments that
    /// cannot mutate the slot; errors are terminal in MPY, so a partial
    /// in-place mutation before an error is unobservable.
    CallMethodSlot {
        name: u32,
        argc: u32,
        slot: u32,
    },
    /// Pop a sequence, push its `n` items (first item on top) for tuple
    /// unpacking; `TypeError` / `ValueError` like the tree walker.
    Unpack(u32),
    /// Raise the interned error.
    Raise(u32),
    /// Pop the return value and leave the frame.
    ReturnV,
    ReturnNone,
    /// Jump through a per-site jump table indexed by the selection array.
    ChoiceJump {
        site: u32,
        table: u32,
    },
    /// Pop an iterable, push its item iterator (eager, like the walker).
    IterPrep,
    /// Pop `argc` range arguments and push a **lazy** counting iterator —
    /// the `for v in range(...)` specialisation.  Validation, errors and
    /// the `MAX_RANGE` bound replicate the eager builtin exactly; only the
    /// list materialisation (the hottest allocation in a sweep) is gone.
    RangePrep(u32),
    /// Advance the innermost iterator: exhausted → jump `end`; else charge
    /// one unit and store the item into `slot`.
    ForNext {
        slot: u32,
        end: usize,
    },
    PopIter,
}

/// A function lowered to bytecode.
#[derive(Debug, Clone)]
struct CompiledFunc {
    name: String,
    /// Slot index for each parameter position, in declaration order.
    param_slots: Vec<u32>,
    n_slots: usize,
    /// Slot index → variable name, for `NameError` messages.
    slot_names: Vec<String>,
    code: Vec<Instr>,
    jump_tables: Vec<Vec<usize>>,
    bin_tables: Vec<Vec<BinOp>>,
    cmp_tables: Vec<Vec<CmpOp>>,
}

/// A whole program (entry plus helpers) lowered to bytecode, reusable
/// across any number of (assignment × input) evaluations.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    funcs: Vec<CompiledFunc>,
    entry: usize,
    consts: Vec<Value>,
    names: Vec<String>,
    errors: Vec<RuntimeError>,
    /// Dense site index → original choice id (empty for plain programs).
    site_ids: Vec<ChoiceId>,
    /// Reverse of `site_ids`, so loading an assignment costs one lookup
    /// per *non-default* selection instead of one per site.
    site_map: HashMap<ChoiceId, u32>,
}

impl CompiledProgram {
    /// Compiles a plain MPY program around its entry function.  Returns
    /// `None` when the program has no entry or uses an unsupported
    /// construct — callers fall back to the tree walker.
    pub fn from_program(program: &Program, entry: Option<&str>) -> Option<CompiledProgram> {
        let entry_index = program
            .funcs
            .iter()
            .position(|f| Some(f) == program.entry(entry))?;
        let mut pools = Pools::default();
        let resolver = Resolver {
            choice_entry: None,
            func_names: program.funcs.iter().map(|f| f.name.clone()).collect(),
        };
        let mut funcs = Vec::with_capacity(program.funcs.len());
        for func in &program.funcs {
            funcs.push(compile_func(func, &resolver, &mut pools).ok()?);
        }
        Some(pools.finish(funcs, entry_index))
    }

    /// Compiles a choice program: the choice-bearing entry function plus
    /// the student's helpers.  Returns `None` on unsupported constructs.
    pub fn from_choice(program: &ChoiceProgram) -> Option<CompiledProgram> {
        let mut pools = Pools::default();
        let mut func_names = vec![program.func.name.clone()];
        func_names.extend(program.other_funcs.iter().map(|f| f.name.clone()));
        let resolver = Resolver {
            choice_entry: Some(program.func.name.clone()),
            func_names,
        };
        let mut funcs = vec![compile_cfunc(&program.func, &resolver, &mut pools).ok()?];
        for func in &program.other_funcs {
            funcs.push(compile_func(func, &resolver, &mut pools).ok()?);
        }
        Some(pools.finish(funcs, 0))
    }

    /// Number of distinct choice sites compiled to indexed dispatch.
    pub fn site_count(&self) -> usize {
        self.site_ids.len()
    }
}

/// A live loop iterator: materialised items, or the lazy `range` form.
#[derive(Debug, Clone)]
enum VmIter {
    /// Items of a list / tuple / string / dict, in order.
    Items(std::vec::IntoIter<Value>),
    /// Lazy `range(...)`: no list is ever built.  `RangePrep` has already
    /// walked the whole index sequence (bounding and overflow checks
    /// included), so advancing with a wrapping add reproduces exactly the
    /// items the eager builtin would have materialised.
    Range {
        next: i64,
        step: i64,
        remaining: u64,
    },
}

impl VmIter {
    fn next(&mut self) -> Option<Value> {
        match self {
            VmIter::Items(items) => items.next(),
            VmIter::Range {
                next,
                step,
                remaining,
            } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                let item = Value::Int(*next);
                *next = next.wrapping_add(*step);
                Some(item)
            }
        }
    }
}

/// One recorded choice-site consultation: the site, the option count at
/// the consulting instruction (`bound`), and the effective (clamped)
/// option the run took.  A run's behaviour is a pure function of its
/// input and this sequence, which is what makes sweep verdicts cacheable
/// across candidates (see `equiv::VerdictCache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Choice-site index (into the compiled program's `site_ids`).
    pub site: u32,
    /// Option count at the consulting instruction; effective options are
    /// clamped to `bound - 1` exactly like dispatch does.
    pub bound: u32,
    /// The clamped option the run actually took.
    pub option: u32,
}

/// Reusable execution scratch: operand stack, slot arena, iterator stack
/// and the per-candidate selection array.  One `Vm` serves a whole sweep —
/// nothing is reallocated between runs.
#[derive(Debug, Clone)]
pub struct Vm {
    limits: ExecLimits,
    fuel: u64,
    depth: u32,
    /// Pooled print lines: only `output[..output_len]` belongs to the
    /// current run; the tail keeps its heap capacity for reuse.
    output: Vec<String>,
    output_len: usize,
    stack: Vec<Value>,
    slots: Vec<Option<Value>>,
    iters: Vec<VmIter>,
    selection: Vec<usize>,
    trace: Vec<TraceStep>,
    stdin: Vec<Value>,
    stdin_pos: usize,
}

impl Vm {
    /// Creates a VM with the given limits.
    pub fn new(limits: ExecLimits) -> Vm {
        Vm {
            limits,
            fuel: limits.fuel,
            depth: 0,
            output: Vec::new(),
            output_len: 0,
            stack: Vec::new(),
            slots: Vec::new(),
            iters: Vec::new(),
            selection: Vec::new(),
            trace: Vec::new(),
            stdin: Vec::new(),
            stdin_pos: 0,
        }
    }

    /// The candidate selection loaded by [`Vm::select`].
    pub fn selection(&self) -> &[usize] {
        &self.selection
    }

    /// The choice-site consultations of the last run, in execution order.
    pub fn trace(&self) -> &[TraceStep] {
        &self.trace
    }

    /// Reads the selected option for `site`, clamped to the consulting
    /// instruction's option count, and records the consultation.
    #[inline]
    fn choose(&mut self, site: u32, bound: usize) -> usize {
        let option = self.selection[site as usize].min(bound - 1);
        self.trace.push(TraceStep {
            site,
            bound: bound as u32,
            option: option as u32,
        });
        option
    }

    /// Loads the candidate selection for `program`'s choice sites.  Must be
    /// called before running a choice program; option indices are clamped
    /// per use site exactly like `concretize`.
    pub fn select(&mut self, program: &CompiledProgram, assignment: &ChoiceAssignment) {
        // Candidates differ from the default in at most a handful of
        // sites (the repair cost), so zero-fill plus the non-default
        // entries beats a per-site assignment lookup.
        self.selection.clear();
        self.selection.resize(program.site_ids.len(), 0);
        for (id, option) in assignment.non_default() {
            if let Some(&site) = program.site_map.get(&id) {
                self.selection[site as usize] = option;
            }
        }
    }

    /// Runs the program's entry function on `args`.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`], with message and fuel parity with the tree
    /// walker.
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        args: &[Value],
    ) -> Result<Outcome, RuntimeError> {
        self.run_for_check(program, args)?;
        let value = self.stack.pop().unwrap_or(Value::None);
        let mut output = std::mem::take(&mut self.output);
        output.truncate(self.output_len);
        Ok(Outcome { value, output })
    }

    /// Like [`Vm::run`] but leaves the outcome inside the VM — return
    /// value on the stack, printed lines in the output buffer — so sweep
    /// checks can compare by reference instead of moving the output
    /// vector (and its heap capacity) out of the scratch on every run.
    pub fn run_for_check(
        &mut self,
        program: &CompiledProgram,
        args: &[Value],
    ) -> Result<(), RuntimeError> {
        self.fuel = self.limits.fuel;
        self.depth = 0;
        self.output_len = 0;
        self.trace.clear();
        self.stack.clear();
        self.slots.clear();
        self.iters.clear();
        self.stdin_pos = 0;
        self.stack.extend(args.iter().cloned());
        self.call(program, program.entry, args.len())
    }

    /// Compares the outcome left by [`Vm::run_for_check`] against an
    /// expected one, with [`Outcome`]-matching semantics (`py_eq` on the
    /// value, line-exact output when `compare_output` is set).
    pub fn outcome_matches(&self, expected: &Outcome, compare_output: bool) -> bool {
        let value = self.stack.last().unwrap_or(&Value::None);
        value.py_eq(&expected.value)
            && (!compare_output || self.output[..self.output_len] == expected.output[..])
    }

    /// Fuel consumed by the last [`Vm::run`] (complete or not).
    pub fn fuel_used(&self) -> u64 {
        self.limits.fuel - self.fuel
    }

    fn call(
        &mut self,
        program: &CompiledProgram,
        func_idx: usize,
        argc: usize,
    ) -> Result<(), RuntimeError> {
        let func = &program.funcs[func_idx];
        // Depth before arity, like `Interpreter::call_func`.
        if self.depth >= self.limits.max_recursion {
            return Err(RuntimeError::RecursionLimit);
        }
        if func.param_slots.len() != argc {
            return Err(RuntimeError::Type(format!(
                "{}() takes {} arguments ({} given)",
                func.name,
                func.param_slots.len(),
                argc
            )));
        }
        let slot_base = self.slots.len();
        self.slots.resize(slot_base + func.n_slots, None);
        let args_start = self.stack.len() - argc;
        for (i, value) in self.stack.drain(args_start..).enumerate() {
            self.slots[slot_base + func.param_slots[i] as usize] = Some(value);
        }
        self.depth += 1;
        let result = self.exec(program, func, slot_base);
        self.depth -= 1;
        self.slots.truncate(slot_base);
        result.map(|value| self.stack.push(value))
    }

    fn exec(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunc,
        slot_base: usize,
    ) -> Result<Value, RuntimeError> {
        let stack_base = self.stack.len();
        let iter_base = self.iters.len();
        let result = self.exec_inner(program, func, slot_base);
        self.stack.truncate(stack_base);
        self.iters.truncate(iter_base);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn exec_inner(
        &mut self,
        program: &CompiledProgram,
        func: &CompiledFunc,
        slot_base: usize,
    ) -> Result<Value, RuntimeError> {
        let code = &func.code;
        let mut pc = 0usize;
        loop {
            let instr = code[pc];
            pc += 1;
            match instr {
                Instr::Charge => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                }
                Instr::ChargeN(n) => {
                    let n = u64::from(n);
                    if self.fuel < n {
                        // Sequential one-unit charges would drain the tank
                        // before erroring; match their `fuel_used`.
                        self.fuel = 0;
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= n;
                }
                Instr::ChargeConst(i) => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                    self.stack.push(program.consts[i as usize].clone());
                }
                Instr::ChargeLoad(s) => {
                    if self.fuel < 1 {
                        return Err(RuntimeError::FuelExhausted);
                    }
                    self.fuel -= 1;
                    match &self.slots[slot_base + s as usize] {
                        Some(value) => {
                            let value = value.clone();
                            self.stack.push(value);
                        }
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[s as usize]
                            )))
                        }
                    }
                }
                Instr::Const(i) => self.stack.push(program.consts[i as usize].clone()),
                Instr::LoadSlot(s) => match &self.slots[slot_base + s as usize] {
                    Some(value) => {
                        let value = value.clone();
                        self.stack.push(value);
                    }
                    None => {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )))
                    }
                },
                Instr::StoreSlot(s) => {
                    let value = self.stack.pop().expect("store operand");
                    self.slots[slot_base + s as usize] = Some(value);
                }
                Instr::CheckSlot(s) => {
                    if self.slots[slot_base + s as usize].is_none() {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )));
                    }
                }
                Instr::LoadIndexSlot(s) => {
                    let index = self.stack.pop().expect("index operand");
                    let base = self.slots[slot_base + s as usize]
                        .as_ref()
                        .expect("slot checked before indexing");
                    let value = load_index(base, &index)?;
                    self.stack.push(value);
                }
                Instr::LenSlot(s) => match &self.slots[slot_base + s as usize] {
                    Some(value) => {
                        let len = match value {
                            Value::Str(s) => s.chars().count() as i64,
                            Value::List(items) | Value::Tuple(items) => items.len() as i64,
                            Value::Dict(items) => items.len() as i64,
                            other => {
                                return Err(RuntimeError::Type(format!(
                                    "object of type '{}' has no len()",
                                    other.type_name()
                                )))
                            }
                        };
                        self.stack.push(Value::Int(len));
                    }
                    None => {
                        return Err(RuntimeError::Name(format!(
                            "name '{}' is not defined",
                            func.slot_names[s as usize]
                        )))
                    }
                },
                Instr::Pop => {
                    self.stack.pop();
                }
                Instr::PopN(n) => {
                    let keep = self.stack.len() - n as usize;
                    self.stack.truncate(keep);
                }
                Instr::Jump(t) => pc = t,
                Instr::JumpIfFalsePop(t) => {
                    let value = self.stack.pop().expect("condition");
                    if !value.is_truthy() {
                        pc = t;
                    }
                }
                Instr::JumpIfFalsePeek(t) => {
                    let truthy = self.stack.last().expect("operand").is_truthy();
                    if truthy {
                        self.stack.pop();
                    } else {
                        pc = t;
                    }
                }
                Instr::JumpIfTruePeek(t) => {
                    let truthy = self.stack.last().expect("operand").is_truthy();
                    if truthy {
                        pc = t;
                    } else {
                        self.stack.pop();
                    }
                }
                Instr::MakeList(n) => {
                    let start = self.stack.len() - n as usize;
                    let items: Vec<Value> = self.stack.drain(start..).collect();
                    self.stack.push(Value::List(items));
                }
                Instr::MakeTuple(n) => {
                    let start = self.stack.len() - n as usize;
                    let items: Vec<Value> = self.stack.drain(start..).collect();
                    self.stack.push(Value::Tuple(items));
                }
                Instr::MakeDict(n) => {
                    let start = self.stack.len() - 2 * n as usize;
                    let flat: Vec<Value> = self.stack.drain(start..).collect();
                    let mut entries: Vec<(Value, Value)> = Vec::with_capacity(n as usize);
                    let mut it = flat.into_iter();
                    while let (Some(key), Some(value)) = (it.next(), it.next()) {
                        if let Some(existing) = entries.iter_mut().find(|(k, _)| k.py_eq(&key)) {
                            existing.1 = value;
                        } else {
                            entries.push((key, value));
                        }
                    }
                    self.stack.push(Value::Dict(entries));
                }
                Instr::LoadIndex => {
                    let index = self.stack.pop().expect("index");
                    let base = self.stack.pop().expect("base");
                    self.stack.push(load_index(&base, &index)?);
                }
                Instr::StoreIndex => {
                    let mut base = self.stack.pop().expect("base");
                    let index = self.stack.pop().expect("index");
                    let value = self.stack.pop().expect("value");
                    store_index(&mut base, &index, value)?;
                    self.stack.push(base);
                }
                Instr::Slice {
                    has_lower,
                    has_upper,
                } => {
                    let upper = if has_upper { self.stack.pop() } else { None };
                    let lower = if has_lower { self.stack.pop() } else { None };
                    let base = self.stack.pop().expect("base");
                    self.stack
                        .push(slice_value(&base, lower.as_ref(), upper.as_ref())?);
                }
                Instr::BinaryOp(op) => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(binary_op(op, &l, &r)?);
                }
                Instr::BinaryOpAug(op) => {
                    let current = self.stack.pop().expect("current");
                    let rhs = self.stack.pop().expect("rhs");
                    self.stack.push(binary_op(op, &current, &rhs)?);
                }
                Instr::BinaryOpChoice { site, table } => {
                    let ops = &func.bin_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(binary_op(op, &l, &r)?);
                }
                Instr::UnaryOpI(op) => {
                    let v = self.stack.pop().expect("operand");
                    self.stack.push(unary_op(op, &v)?);
                }
                Instr::CompareOpI(op) => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(compare_op(op, &l, &r)?);
                }
                Instr::CompareOpChoice { site, table } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    self.stack.push(compare_op(op, &l, &r)?);
                }
                Instr::CompareSlot { op, slot } => {
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    self.stack.push(compare_op(op, &l, r)?);
                }
                Instr::CompareChoiceSlot { site, table, slot } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    self.stack.push(compare_op(op, &l, r)?);
                }
                Instr::CmpJumpFalse { op, target } => {
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    if !compare_op(op, &l, &r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::CmpChoiceJumpFalse {
                    site,
                    table,
                    target,
                } => {
                    let ops = &func.cmp_tables[table as usize];
                    let op = ops[self.choose(site, ops.len())];
                    let r = self.stack.pop().expect("rhs");
                    let l = self.stack.pop().expect("lhs");
                    if !compare_op(op, &l, &r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::CmpSlotJumpFalse { op, slot, target } => {
                    let l = self.stack.pop().expect("lhs");
                    let r = match &self.slots[slot_base + slot as usize] {
                        Some(v) => v,
                        None => {
                            return Err(RuntimeError::Name(format!(
                                "name '{}' is not defined",
                                func.slot_names[slot as usize]
                            )))
                        }
                    };
                    if !compare_op(op, &l, r)?.is_truthy() {
                        pc = target;
                    }
                }
                Instr::PrintStmt(n) | Instr::PrintExpr(n) => {
                    let start = self.stack.len() - n as usize;
                    if self.output_len == self.output.len() {
                        self.output.push(String::new());
                    }
                    let line = &mut self.output[self.output_len];
                    line.clear();
                    for (i, value) in self.stack[start..].iter().enumerate() {
                        if i > 0 {
                            line.push(' ');
                        }
                        value.display_into(line);
                    }
                    self.output_len += 1;
                    self.stack.truncate(start);
                    if matches!(instr, Instr::PrintExpr(_)) {
                        self.stack.push(Value::None);
                    }
                }
                Instr::Input { raw } => {
                    let value = self.stdin.get(self.stdin_pos).cloned().ok_or_else(|| {
                        RuntimeError::Value("input(): no more stdin values".to_string())
                    })?;
                    self.stdin_pos += 1;
                    self.stack.push(if raw {
                        Value::Str(value.display_str())
                    } else {
                        value
                    });
                }
                Instr::CallFunc { func, argc } => {
                    self.call(program, func as usize, argc as usize)?;
                }
                Instr::CallBuiltin { name, argc } => {
                    let start = self.stack.len() - argc as usize;
                    let name = &program.names[name as usize];
                    match builtins::call_builtin(name, &self.stack[start..]) {
                        Some(result) => {
                            let result = result?;
                            self.stack.truncate(start);
                            self.stack.push(result);
                        }
                        None => {
                            return Err(RuntimeError::Name(format!("name '{name}' is not defined")))
                        }
                    }
                }
                Instr::CallMethod {
                    name,
                    argc,
                    wb_slot,
                } => {
                    let start = self.stack.len() - argc as usize;
                    let args: Vec<Value> = self.stack.drain(start..).collect();
                    let mut receiver = self.stack.pop().expect("receiver");
                    let (result, mutated) =
                        builtins::call_method(&mut receiver, &program.names[name as usize], &args)?;
                    if mutated && wb_slot != u32::MAX {
                        self.slots[slot_base + wb_slot as usize] = Some(receiver);
                    }
                    self.stack.push(result);
                }
                Instr::CallMethodSlot { name, argc, slot } => {
                    let start = self.stack.len() - argc as usize;
                    let receiver = self.slots[slot_base + slot as usize]
                        .as_mut()
                        .expect("slot checked before method call");
                    let (result, _mutated) = builtins::call_method(
                        receiver,
                        &program.names[name as usize],
                        &self.stack[start..],
                    )?;
                    self.stack.truncate(start);
                    self.stack.push(result);
                }
                Instr::Unpack(n) => {
                    let value = self.stack.pop().expect("unpack operand");
                    let items = match value {
                        Value::List(items) | Value::Tuple(items) => items,
                        other => {
                            return Err(RuntimeError::Type(format!(
                                "cannot unpack non-sequence {}",
                                other.type_name()
                            )))
                        }
                    };
                    if items.len() != n as usize {
                        return Err(RuntimeError::Value(format!(
                            "too {} values to unpack",
                            if items.len() > n as usize {
                                "many"
                            } else {
                                "few"
                            }
                        )));
                    }
                    for item in items.into_iter().rev() {
                        self.stack.push(item);
                    }
                }
                Instr::Raise(e) => return Err(program.errors[e as usize].clone()),
                Instr::ReturnV => return Ok(self.stack.pop().expect("return value")),
                Instr::ReturnNone => return Ok(Value::None),
                Instr::ChoiceJump { site, table } => {
                    let targets = &func.jump_tables[table as usize];
                    pc = targets[self.choose(site, targets.len())];
                }
                Instr::IterPrep => {
                    let value = self.stack.pop().expect("iterable");
                    // The popped value is this loop's snapshot, so lists and
                    // tuples can give up their backing vector instead of
                    // cloning every element like the by-reference helper.
                    let items = match value {
                        Value::List(items) | Value::Tuple(items) => items,
                        other => iterable_items(&other)?,
                    };
                    self.iters.push(VmIter::Items(items.into_iter()));
                }
                Instr::RangePrep(argc) => {
                    let base = self.stack.len() - argc as usize;
                    let iter = range_iter(&self.stack[base..]);
                    self.stack.truncate(base);
                    self.iters.push(iter?);
                }
                Instr::ForNext { slot, end } => {
                    match self.iters.last_mut().expect("iterator").next() {
                        None => pc = end,
                        Some(item) => {
                            if self.fuel < 1 {
                                return Err(RuntimeError::FuelExhausted);
                            }
                            self.fuel -= 1;
                            self.slots[slot_base + slot as usize] = Some(item);
                        }
                    }
                }
                Instr::PopIter => {
                    self.iters.pop();
                }
            }
        }
    }
}

/// Builds the lazy iterator for `RangePrep` — a faithful replica of
/// `builtins::call_builtin("range", ...)`: same argument validation, same
/// error messages in the same order, same `MAX_RANGE` bound, and the same
/// index arithmetic (the count pass below walks every increment the eager
/// builtin would perform, so even overflow behaviour lines up).
fn range_iter(args: &[Value]) -> Result<VmIter, RuntimeError> {
    let as_int = |v: &Value| {
        v.as_int().ok_or_else(|| {
            RuntimeError::Type(format!(
                "range() integer argument expected, got {}",
                v.type_name()
            ))
        })
    };
    let (start, stop, step) = match args.len() {
        1 => (0, as_int(&args[0])?, 1),
        2 => (as_int(&args[0])?, as_int(&args[1])?, 1),
        3 => (as_int(&args[0])?, as_int(&args[1])?, as_int(&args[2])?),
        n => {
            return Err(RuntimeError::Type(format!(
                "range expected at most 3 arguments, got {n}"
            )))
        }
    };
    if step == 0 {
        return Err(RuntimeError::Value(
            "range() arg 3 must not be zero".to_string(),
        ));
    }
    const MAX_RANGE: u64 = 100_000;
    let mut remaining = 0u64;
    let mut i = start;
    while (step > 0 && i < stop) || (step < 0 && i > stop) {
        remaining += 1;
        if remaining > MAX_RANGE {
            return Err(RuntimeError::FuelExhausted);
        }
        i += step;
    }
    Ok(VmIter::Range {
        next: start,
        step,
        remaining,
    })
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// Marker: the program uses a construct the compiler does not lower.
struct Unsupported;

type Compiled<T = ()> = Result<T, Unsupported>;

#[derive(Default)]
struct Pools {
    consts: Vec<Value>,
    names: Vec<String>,
    errors: Vec<RuntimeError>,
    site_ids: Vec<ChoiceId>,
    site_map: HashMap<ChoiceId, u32>,
}

impl Pools {
    fn const_idx(&mut self, value: Value) -> u32 {
        if let Some(i) = self.consts.iter().position(|c| *c == value) {
            return i as u32;
        }
        self.consts.push(value);
        (self.consts.len() - 1) as u32
    }

    fn name_idx(&mut self, name: &str) -> u32 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u32
    }

    fn error_idx(&mut self, error: RuntimeError) -> u32 {
        self.errors.push(error);
        (self.errors.len() - 1) as u32
    }

    fn site(&mut self, id: ChoiceId) -> u32 {
        if let Some(&i) = self.site_map.get(&id) {
            return i;
        }
        let i = self.site_ids.len() as u32;
        self.site_ids.push(id);
        self.site_map.insert(id, i);
        i
    }

    fn finish(self, funcs: Vec<CompiledFunc>, entry: usize) -> CompiledProgram {
        CompiledProgram {
            funcs,
            entry,
            consts: self.consts,
            names: self.names,
            errors: self.errors,
            site_ids: self.site_ids,
            site_map: self.site_map,
        }
    }
}

/// Compile-time call resolution, mirroring `Interpreter::call_named`'s
/// name-only lookup order.
struct Resolver {
    /// For choice programs: the entry name, which shadows helpers and
    /// builtins (funcs\[0\] in the compiled function table).
    choice_entry: Option<String>,
    /// Compiled function names in table order.
    func_names: Vec<String>,
}

enum Callee {
    Func(usize),
    Print,
    Input { raw: bool },
    Builtin,
    Undefined,
}

impl Resolver {
    fn resolve(&self, name: &str) -> Callee {
        if let Some(entry) = &self.choice_entry {
            if entry == name {
                return Callee::Func(0);
            }
            // Helpers are funcs[1..]; first match wins like `Program::func`.
            if let Some(i) = self.func_names[1..].iter().position(|n| n == name) {
                return Callee::Func(1 + i);
            }
        } else if let Some(i) = self.func_names.iter().position(|n| n == name) {
            return Callee::Func(i);
        }
        if name == "print" {
            return Callee::Print;
        }
        if name == "input" || name == "raw_input" {
            return Callee::Input {
                raw: name == "raw_input",
            };
        }
        // Builtin membership depends only on the name.
        if builtins::call_builtin(name, &[]).is_some() {
            return Callee::Builtin;
        }
        Callee::Undefined
    }
}

struct LoopCtx {
    continue_target: usize,
    break_patches: Vec<usize>,
}

struct FnCompiler<'a> {
    pools: &'a mut Pools,
    resolver: &'a Resolver,
    code: Vec<Instr>,
    slot_names: Vec<String>,
    slot_map: HashMap<String, u32>,
    jump_tables: Vec<Vec<usize>>,
    bin_tables: Vec<Vec<BinOp>>,
    cmp_tables: Vec<Vec<CmpOp>>,
    loops: Vec<LoopCtx>,
    /// Code positions `< fence` may be jump targets; `emit` never fuses
    /// into them.
    fence: usize,
}

fn compile_func(func: &FuncDef, resolver: &Resolver, pools: &mut Pools) -> Compiled<CompiledFunc> {
    let mut c = FnCompiler::new(pools, resolver);
    let param_slots: Vec<u32> = func.params.iter().map(|p| c.slot(&p.name)).collect();
    c.block(&func.body)?;
    c.emit(Instr::ReturnNone);
    Ok(c.finish(func.name.clone(), param_slots))
}

fn compile_cfunc(
    func: &afg_eml::CFuncDef,
    resolver: &Resolver,
    pools: &mut Pools,
) -> Compiled<CompiledFunc> {
    let mut c = FnCompiler::new(pools, resolver);
    let param_slots: Vec<u32> = func.params.iter().map(|p| c.slot(&p.name)).collect();
    c.cblock(&func.body)?;
    c.emit(Instr::ReturnNone);
    Ok(c.finish(func.name.clone(), param_slots))
}

impl<'a> FnCompiler<'a> {
    fn new(pools: &'a mut Pools, resolver: &'a Resolver) -> FnCompiler<'a> {
        FnCompiler {
            pools,
            resolver,
            code: Vec::new(),
            slot_names: Vec::new(),
            slot_map: HashMap::new(),
            jump_tables: Vec::new(),
            bin_tables: Vec::new(),
            cmp_tables: Vec::new(),
            loops: Vec::new(),
            fence: 0,
        }
    }

    fn finish(self, name: String, param_slots: Vec<u32>) -> CompiledFunc {
        CompiledFunc {
            name,
            param_slots,
            n_slots: self.slot_names.len(),
            slot_names: self.slot_names,
            code: self.code,
            jump_tables: self.jump_tables,
            bin_tables: self.bin_tables,
            cmp_tables: self.cmp_tables,
        }
    }

    /// Appends an instruction, fusing the ubiquitous `Charge` prefix into
    /// its successor (`ChargeN` / `ChargeConst` / `ChargeLoad`) when the
    /// previous slot cannot be a jump target — `fence` marks the last
    /// position handed out as a label, and fusing across it would make the
    /// landing pad skip (or double-spend) a fuel charge.
    fn emit(&mut self, instr: Instr) -> usize {
        if self.code.len() > self.fence {
            let last = self.code.len() - 1;
            match (self.code[last], instr) {
                (Instr::Charge, Instr::Charge) => {
                    self.code[last] = Instr::ChargeN(2);
                    return last;
                }
                (Instr::ChargeN(n), Instr::Charge) => {
                    self.code[last] = Instr::ChargeN(n + 1);
                    return last;
                }
                (Instr::Charge, Instr::Const(c)) => {
                    self.code[last] = Instr::ChargeConst(c);
                    return last;
                }
                (Instr::Charge, Instr::LoadSlot(s)) => {
                    self.code[last] = Instr::ChargeLoad(s);
                    return last;
                }
                (Instr::CompareOpI(op), Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpJumpFalse { op, target };
                    return last;
                }
                (Instr::CompareOpChoice { site, table }, Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpChoiceJumpFalse {
                        site,
                        table,
                        target,
                    };
                    return last;
                }
                (Instr::CompareSlot { op, slot }, Instr::JumpIfFalsePop(target)) => {
                    self.code[last] = Instr::CmpSlotJumpFalse { op, slot, target };
                    return last;
                }
                _ => {}
            }
        }
        self.code.push(instr);
        self.code.len() - 1
    }

    fn here(&mut self) -> usize {
        self.fence = self.code.len();
        self.code.len()
    }

    fn patch(&mut self, at: usize) {
        let target = self.here();
        match &mut self.code[at] {
            Instr::Jump(t)
            | Instr::JumpIfFalsePop(t)
            | Instr::JumpIfFalsePeek(t)
            | Instr::JumpIfTruePeek(t)
            | Instr::CmpJumpFalse { target: t, .. }
            | Instr::CmpChoiceJumpFalse { target: t, .. }
            | Instr::CmpSlotJumpFalse { target: t, .. }
            | Instr::ForNext { end: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn slot(&mut self, name: &str) -> u32 {
        if let Some(&s) = self.slot_map.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.slot_names.push(name.to_string());
        self.slot_map.insert(name.to_string(), s);
        s
    }

    // -- plain MPY ---------------------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) -> Compiled {
        for stmt in stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Compiled {
        self.emit(Instr::Charge);
        match &stmt.kind {
            StmtKind::Assign(target, value) => {
                self.expr(value)?;
                self.assign_target(target)
            }
            StmtKind::AugAssign(target, op, value) => {
                self.expr(value)?;
                self.read_target(target)?;
                self.emit(Instr::BinaryOpAug(*op));
                self.assign_target(target)
            }
            StmtKind::ExprStmt(expr) => {
                self.expr(expr)?;
                self.emit(Instr::Pop);
                Ok(())
            }
            StmtKind::If(cond, then_body, else_body) => {
                self.expr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.block(then_body)?;
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.block(else_body)?;
                self.patch(jend);
                Ok(())
            }
            StmtKind::While(cond, body) => {
                let l_cond = self.here();
                self.expr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                // Per-iteration charge after the condition is truthy.
                self.emit(Instr::Charge);
                self.loops.push(LoopCtx {
                    continue_target: l_cond,
                    break_patches: Vec::new(),
                });
                self.block(body)?;
                self.emit(Instr::Jump(l_cond));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(jf);
                for b in ctx.break_patches {
                    self.patch(b);
                }
                Ok(())
            }
            StmtKind::For(var, iter, body) => {
                self.iter_prep(iter)?;
                let slot = self.slot(var);
                let l_next = self.here();
                let fornext = self.emit(Instr::ForNext { slot, end: 0 });
                self.loops.push(LoopCtx {
                    continue_target: l_next,
                    break_patches: Vec::new(),
                });
                self.block(body)?;
                self.emit(Instr::Jump(l_next));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(fornext);
                for b in ctx.break_patches {
                    self.patch(b);
                }
                self.emit(Instr::PopIter);
                Ok(())
            }
            StmtKind::Return(expr) => {
                match expr {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Instr::ReturnV);
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
            StmtKind::Print(args) => {
                for arg in args {
                    self.expr(arg)?;
                }
                self.emit(Instr::PrintStmt(args.len() as u32));
                Ok(())
            }
            StmtKind::Pass => Ok(()),
            StmtKind::Break => {
                // `Flow::Break` outside a loop propagates to the function
                // boundary, which returns `None`.
                match self.loops.last_mut() {
                    Some(_) => {
                        let j = self.emit(Instr::Jump(0));
                        self.loops
                            .last_mut()
                            .expect("loop ctx")
                            .break_patches
                            .push(j);
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
            StmtKind::Continue => {
                match self.loops.last() {
                    Some(ctx) => {
                        let target = ctx.continue_target;
                        self.emit(Instr::Jump(target));
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
        }
    }

    /// Compiles an assignment to `target`, consuming the value on top of
    /// the stack.  Mirrors `Interpreter::assign` exactly, including the
    /// index-then-base evaluation order and the re-evaluating write-back
    /// chain for nested index targets.
    fn assign_target(&mut self, target: &Target) -> Compiled {
        match target {
            Target::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::StoreSlot(slot));
                Ok(())
            }
            Target::Index(base, index) => {
                self.expr(index)?;
                self.expr(base)?;
                self.emit(Instr::StoreIndex);
                self.assign_base(base)
            }
            Target::Tuple(targets) => {
                self.emit(Instr::Unpack(targets.len() as u32));
                for t in targets {
                    self.assign_target(t)?;
                }
                Ok(())
            }
        }
    }

    /// Writes the mutated container on top of the stack back to `base`'s
    /// own location (`expr_as_target` semantics: variables and index
    /// chains are assignable, anything else silently drops the value).
    fn assign_base(&mut self, base: &Expr) -> Compiled {
        match base {
            Expr::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::StoreSlot(slot));
                Ok(())
            }
            Expr::Index(inner, index) => {
                self.expr(index)?;
                self.expr(inner)?;
                self.emit(Instr::StoreIndex);
                self.assign_base(inner)
            }
            _ => {
                self.emit(Instr::Pop);
                Ok(())
            }
        }
    }

    /// Mirrors `Interpreter::read_target` (note: base before index, the
    /// opposite of the assignment order).
    fn read_target(&mut self, target: &Target) -> Compiled {
        match target {
            Target::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::LoadSlot(slot));
                Ok(())
            }
            Target::Index(base, index) => {
                self.expr(base)?;
                self.expr(index)?;
                self.emit(Instr::LoadIndex);
                Ok(())
            }
            Target::Tuple(_) => {
                let e = self.pools.error_idx(RuntimeError::Type(
                    "augmented assignment to a tuple target is not allowed".to_string(),
                ));
                self.emit(Instr::Raise(e));
                Ok(())
            }
        }
    }

    /// `true` when evaluating the expression may write a local slot.
    /// Method calls are the only expression form with a slot write-back
    /// (user-function calls run in their own frame), so this is the guard
    /// for slot-direct specialisations: a `CheckSlot`ed slot must stay
    /// set — and un-swapped — until the specialised read.
    fn mutates_slots(expr: &Expr) -> bool {
        match expr {
            Expr::Int(_) | Expr::Bool(_) | Expr::Str(_) | Expr::None | Expr::Var(_) => false,
            Expr::List(items) | Expr::Tuple(items) => items.iter().any(Self::mutates_slots),
            Expr::Dict(items) => items
                .iter()
                .any(|(k, v)| Self::mutates_slots(k) || Self::mutates_slots(v)),
            Expr::Index(base, index) => Self::mutates_slots(base) || Self::mutates_slots(index),
            Expr::Slice(base, lower, upper) => {
                Self::mutates_slots(base)
                    || lower.as_deref().is_some_and(Self::mutates_slots)
                    || upper.as_deref().is_some_and(Self::mutates_slots)
            }
            Expr::BinOp(_, l, r) | Expr::Compare(_, l, r) | Expr::BoolExpr(_, l, r) => {
                Self::mutates_slots(l) || Self::mutates_slots(r)
            }
            Expr::UnaryOp(_, e) => Self::mutates_slots(e),
            Expr::Call(_, args) => args.iter().any(Self::mutates_slots),
            Expr::MethodCall(..) => true,
            Expr::IfExpr(a, b, c) => {
                Self::mutates_slots(a) || Self::mutates_slots(b) || Self::mutates_slots(c)
            }
        }
    }

    /// Choice-bearing counterpart of [`FnCompiler::mutates_slots`].
    fn cmutates_slots(expr: &CExpr) -> bool {
        match expr {
            CExpr::Plain(e) => Self::mutates_slots(e),
            CExpr::Choice(_, options) | CExpr::List(options) | CExpr::Tuple(options) => {
                options.iter().any(Self::cmutates_slots)
            }
            CExpr::Index(base, index) => Self::cmutates_slots(base) || Self::cmutates_slots(index),
            CExpr::Slice(base, lower, upper) => {
                Self::cmutates_slots(base)
                    || lower.as_deref().is_some_and(Self::cmutates_slots)
                    || upper.as_deref().is_some_and(Self::cmutates_slots)
            }
            CExpr::BinOp(_, l, r) | CExpr::Compare(_, l, r) => {
                Self::cmutates_slots(l) || Self::cmutates_slots(r)
            }
            CExpr::BoolExpr(_, l, r) => Self::cmutates_slots(l) || Self::cmutates_slots(r),
            CExpr::UnaryOp(_, e) => Self::cmutates_slots(e),
            CExpr::Call(_, args) => args.iter().any(Self::cmutates_slots),
            CExpr::MethodCall(..) => true,
            CExpr::IfExpr(a, b, c) => {
                Self::cmutates_slots(a) || Self::cmutates_slots(b) || Self::cmutates_slots(c)
            }
        }
    }

    fn expr(&mut self, expr: &Expr) -> Compiled {
        self.emit(Instr::Charge);
        match expr {
            Expr::Int(v) => {
                let c = self.pools.const_idx(Value::Int(*v));
                self.emit(Instr::Const(c));
            }
            Expr::Bool(b) => {
                let c = self.pools.const_idx(Value::Bool(*b));
                self.emit(Instr::Const(c));
            }
            Expr::Str(s) => {
                let c = self.pools.const_idx(Value::Str(s.clone()));
                self.emit(Instr::Const(c));
            }
            Expr::None => {
                let c = self.pools.const_idx(Value::None);
                self.emit(Instr::Const(c));
            }
            Expr::Var(name) => {
                let slot = self.slot(name);
                self.emit(Instr::LoadSlot(slot));
            }
            Expr::List(items) => {
                for item in items {
                    self.expr(item)?;
                }
                self.emit(Instr::MakeList(items.len() as u32));
            }
            Expr::Tuple(items) => {
                for item in items {
                    self.expr(item)?;
                }
                self.emit(Instr::MakeTuple(items.len() as u32));
            }
            Expr::Dict(items) => {
                for (k, v) in items {
                    self.expr(k)?;
                    self.expr(v)?;
                }
                self.emit(Instr::MakeDict(items.len() as u32));
            }
            Expr::Index(base, index) => {
                // `v[i]` with a mutation-free index reads the element
                // straight out of the slot instead of cloning the whole
                // container.  `CheckSlot` fires the base's `NameError`
                // before the index runs, matching tree-walker order; the
                // charges (entry + base var) fuse.
                if let Expr::Var(name) = &**base {
                    if !Self::mutates_slots(index) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        self.expr(index)?;
                        self.emit(Instr::LoadIndexSlot(slot));
                        return Ok(());
                    }
                }
                self.expr(base)?;
                self.expr(index)?;
                self.emit(Instr::LoadIndex);
            }
            Expr::Slice(base, lower, upper) => {
                self.expr(base)?;
                if let Some(e) = lower {
                    self.expr(e)?;
                }
                if let Some(e) = upper {
                    self.expr(e)?;
                }
                self.emit(Instr::Slice {
                    has_lower: lower.is_some(),
                    has_upper: upper.is_some(),
                });
            }
            Expr::BinOp(op, left, right) => {
                self.expr(left)?;
                self.expr(right)?;
                self.emit(Instr::BinaryOp(*op));
            }
            Expr::UnaryOp(op, operand) => {
                self.expr(operand)?;
                self.emit(Instr::UnaryOpI(*op));
            }
            Expr::Compare(op, left, right) => {
                // A variable on the right is compared straight out of its
                // slot — the slot read sits exactly where the tree walker
                // evaluates the right operand, so error order and any
                // left-side mutation are observed identically.
                if let Expr::Var(name) = &**right {
                    let slot = self.slot(name);
                    self.expr(left)?;
                    self.emit(Instr::Charge);
                    self.emit(Instr::CompareSlot { op: *op, slot });
                    return Ok(());
                }
                self.expr(left)?;
                self.expr(right)?;
                self.emit(Instr::CompareOpI(*op));
            }
            Expr::BoolExpr(op, left, right) => {
                self.expr(left)?;
                let j = match op {
                    BoolOp::And => self.emit(Instr::JumpIfFalsePeek(0)),
                    BoolOp::Or => self.emit(Instr::JumpIfTruePeek(0)),
                };
                self.expr(right)?;
                self.patch(j);
            }
            Expr::Call(name, args) => {
                // `len(v)` on a variable measures the slot in place —
                // only when `len` really is the builtin.  One fused
                // charge pair (call + argument), same as the generic
                // path; `LenSlot` raises the variable's `NameError`
                // before the builtin's `TypeError`, like the walker.
                if name == "len" {
                    if let [Expr::Var(var)] = args.as_slice() {
                        if matches!(self.resolver.resolve(name), Callee::Builtin) {
                            let slot = self.slot(var);
                            self.emit(Instr::Charge);
                            self.emit(Instr::LenSlot(slot));
                            return Ok(());
                        }
                    }
                }
                for arg in args {
                    self.expr(arg)?;
                }
                self.call_named(name, args.len());
            }
            Expr::MethodCall(recv, method, args) => {
                // `v.m(...)` runs on the slot in place when no argument
                // can swap the slot out from under it; `CheckSlot` keeps
                // the receiver's `NameError` ahead of argument errors.
                if let Expr::Var(name) = &**recv {
                    if !args.iter().any(Self::mutates_slots) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        for arg in args {
                            self.expr(arg)?;
                        }
                        let name = self.pools.name_idx(method);
                        self.emit(Instr::CallMethodSlot {
                            name,
                            argc: args.len() as u32,
                            slot,
                        });
                        return Ok(());
                    }
                }
                let wb_slot = self.method_writeback(recv)?;
                self.expr(recv)?;
                for arg in args {
                    self.expr(arg)?;
                }
                let name = self.pools.name_idx(method);
                self.emit(Instr::CallMethod {
                    name,
                    argc: args.len() as u32,
                    wb_slot,
                });
            }
            Expr::IfExpr(body, cond, orelse) => {
                self.expr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.expr(body)?;
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.expr(orelse)?;
                self.patch(jend);
            }
        }
        Ok(())
    }

    /// Write-back slot for a method-call receiver.  Index-expression
    /// receivers would need the tree walker's re-evaluating assignment
    /// chain on mutation — those programs fall back to the tree walker.
    fn method_writeback(&mut self, recv: &Expr) -> Compiled<u32> {
        match recv {
            Expr::Var(name) => Ok(self.slot(name)),
            Expr::Index(..) => Err(Unsupported),
            _ => Ok(u32::MAX),
        }
    }

    /// Compiles a `for` statement's iterable, leaving an iterator on the
    /// iterator stack.  `for v in range(...)` — the dominant loop form in
    /// the benchmarks — gets the lazy `RangePrep` when `range` really is
    /// the builtin (a user function of that name shadows it); fuel parity
    /// holds because the call expression charges exactly as before and
    /// neither `CallBuiltin` nor `IterPrep` ever charged.
    fn iter_prep(&mut self, iter: &Expr) -> Compiled {
        if let Expr::Call(name, args) = iter {
            if name == "range" && matches!(self.resolver.resolve(name), Callee::Builtin) {
                self.emit(Instr::Charge);
                for arg in args {
                    self.expr(arg)?;
                }
                self.emit(Instr::RangePrep(args.len() as u32));
                return Ok(());
            }
        }
        self.expr(iter)?;
        self.emit(Instr::IterPrep);
        Ok(())
    }

    /// Choice-program counterpart of [`FnCompiler::iter_prep`].  A choice
    /// over iterables dispatches into per-option preps, so a `range` under
    /// an error-model choice site still gets the lazy form.
    fn citer_prep(&mut self, iter: &CExpr) -> Compiled {
        match iter {
            CExpr::Plain(e) => self.iter_prep(e),
            CExpr::Choice(id, options) => {
                self.choice_dispatch(*id, options.len(), |c, i| c.citer_prep(&options[i]))
            }
            CExpr::Call(name, args)
                if name == "range" && matches!(self.resolver.resolve(name), Callee::Builtin) =>
            {
                self.emit(Instr::Charge);
                for arg in args {
                    self.cexpr(arg)?;
                }
                self.emit(Instr::RangePrep(args.len() as u32));
                Ok(())
            }
            other => {
                self.cexpr(other)?;
                self.emit(Instr::IterPrep);
                Ok(())
            }
        }
    }

    fn call_named(&mut self, name: &str, argc: usize) {
        match self.resolver.resolve(name) {
            Callee::Func(i) => {
                self.emit(Instr::CallFunc {
                    func: i as u32,
                    argc: argc as u32,
                });
            }
            Callee::Print => {
                self.emit(Instr::PrintExpr(argc as u32));
            }
            Callee::Input { raw } => {
                // Arguments are evaluated, then ignored.
                if argc > 0 {
                    self.emit(Instr::PopN(argc as u32));
                }
                self.emit(Instr::Input { raw });
            }
            Callee::Builtin => {
                let n = self.pools.name_idx(name);
                self.emit(Instr::CallBuiltin {
                    name: n,
                    argc: argc as u32,
                });
            }
            Callee::Undefined => {
                let e = self
                    .pools
                    .error_idx(RuntimeError::Name(format!("name '{name}' is not defined")));
                self.emit(Instr::Raise(e));
            }
        }
    }

    // -- choice-bearing M̃PY -----------------------------------------------

    fn cblock(&mut self, stmts: &[CStmt]) -> Compiled {
        for stmt in stmts {
            self.cstmt(stmt)?;
        }
        Ok(())
    }

    fn cstmt(&mut self, stmt: &CStmt) -> Compiled {
        // Statement-level choices splice the selected block without
        // charging, exactly like `exec_cstmt`.
        if let CStmtKind::ChoiceBlock(id, options) = &stmt.kind {
            return self.choice_dispatch(*id, options.len(), |c, i| c.cblock(&options[i]));
        }
        self.emit(Instr::Charge);
        match &stmt.kind {
            CStmtKind::Assign(target, value) => {
                self.cexpr(value)?;
                self.assign_target(target)
            }
            CStmtKind::AugAssign(target, op, value) => {
                self.cexpr(value)?;
                self.read_target(target)?;
                self.emit(Instr::BinaryOpAug(*op));
                self.assign_target(target)
            }
            CStmtKind::ExprStmt(expr) => {
                self.cexpr(expr)?;
                self.emit(Instr::Pop);
                Ok(())
            }
            CStmtKind::If(cond, then_body, else_body) => {
                self.cexpr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.cblock(then_body)?;
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.cblock(else_body)?;
                self.patch(jend);
                Ok(())
            }
            CStmtKind::While(cond, body) => {
                let l_cond = self.here();
                self.cexpr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.emit(Instr::Charge);
                self.loops.push(LoopCtx {
                    continue_target: l_cond,
                    break_patches: Vec::new(),
                });
                self.cblock(body)?;
                self.emit(Instr::Jump(l_cond));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(jf);
                for b in ctx.break_patches {
                    self.patch(b);
                }
                Ok(())
            }
            CStmtKind::For(var, iter, body) => {
                self.citer_prep(iter)?;
                let slot = self.slot(var);
                let l_next = self.here();
                let fornext = self.emit(Instr::ForNext { slot, end: 0 });
                self.loops.push(LoopCtx {
                    continue_target: l_next,
                    break_patches: Vec::new(),
                });
                self.cblock(body)?;
                self.emit(Instr::Jump(l_next));
                let ctx = self.loops.pop().expect("loop ctx");
                self.patch(fornext);
                for b in ctx.break_patches {
                    self.patch(b);
                }
                self.emit(Instr::PopIter);
                Ok(())
            }
            CStmtKind::Return(expr) => {
                match expr {
                    Some(e) => {
                        self.cexpr(e)?;
                        self.emit(Instr::ReturnV);
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
            CStmtKind::Print(args) => {
                for arg in args {
                    self.cexpr(arg)?;
                }
                self.emit(Instr::PrintStmt(args.len() as u32));
                Ok(())
            }
            CStmtKind::Pass => Ok(()),
            CStmtKind::Break => {
                match self.loops.last_mut() {
                    Some(_) => {
                        let j = self.emit(Instr::Jump(0));
                        self.loops
                            .last_mut()
                            .expect("loop ctx")
                            .break_patches
                            .push(j);
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
            CStmtKind::Continue => {
                match self.loops.last() {
                    Some(ctx) => {
                        let target = ctx.continue_target;
                        self.emit(Instr::Jump(target));
                    }
                    None => {
                        self.emit(Instr::ReturnNone);
                    }
                }
                Ok(())
            }
            CStmtKind::ChoiceBlock(..) => unreachable!("handled before charging"),
        }
    }

    /// Emits a `ChoiceJump` dispatch over `count` alternatives, each
    /// compiled by `body`, all joining at the end.  Charges nothing — the
    /// choice node has no concrete counterpart.
    fn choice_dispatch(
        &mut self,
        id: ChoiceId,
        count: usize,
        mut body: impl FnMut(&mut Self, usize) -> Compiled,
    ) -> Compiled {
        let site = self.pools.site(id);
        let dispatch = self.emit(Instr::ChoiceJump { site, table: 0 });
        let mut targets = Vec::with_capacity(count);
        let mut joins = Vec::with_capacity(count);
        for i in 0..count {
            targets.push(self.here());
            body(self, i)?;
            joins.push(self.emit(Instr::Jump(0)));
        }
        for j in joins {
            self.patch(j);
        }
        let table = self.jump_tables.len() as u32;
        self.jump_tables.push(targets);
        if let Instr::ChoiceJump { table: t, .. } = &mut self.code[dispatch] {
            *t = table;
        }
        Ok(())
    }

    fn cexpr(&mut self, expr: &CExpr) -> Compiled {
        match expr {
            CExpr::Plain(e) => return self.expr(e),
            CExpr::Choice(id, options) => {
                return self.choice_dispatch(*id, options.len(), |c, i| c.cexpr(&options[i]));
            }
            _ => {}
        }
        self.emit(Instr::Charge);
        match expr {
            CExpr::Plain(_) | CExpr::Choice(..) => unreachable!("handled before charging"),
            CExpr::List(items) => {
                for item in items {
                    self.cexpr(item)?;
                }
                self.emit(Instr::MakeList(items.len() as u32));
            }
            CExpr::Tuple(items) => {
                for item in items {
                    self.cexpr(item)?;
                }
                self.emit(Instr::MakeTuple(items.len() as u32));
            }
            CExpr::Index(base, index) => {
                // Same slot-direct read as the plain compiler; a choice
                // site anywhere in the index is fine (dispatch never
                // writes slots), a method call is not.
                if let CExpr::Plain(Expr::Var(name)) = &**base {
                    if !Self::cmutates_slots(index) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        self.cexpr(index)?;
                        self.emit(Instr::LoadIndexSlot(slot));
                        return Ok(());
                    }
                }
                self.cexpr(base)?;
                self.cexpr(index)?;
                self.emit(Instr::LoadIndex);
            }
            CExpr::Slice(base, lower, upper) => {
                self.cexpr(base)?;
                if let Some(e) = lower {
                    self.cexpr(e)?;
                }
                if let Some(e) = upper {
                    self.cexpr(e)?;
                }
                self.emit(Instr::Slice {
                    has_lower: lower.is_some(),
                    has_upper: upper.is_some(),
                });
            }
            CExpr::BinOp(op, left, right) => {
                self.cexpr(left)?;
                self.cexpr(right)?;
                match op {
                    OpChoice::Fixed(op) => {
                        self.emit(Instr::BinaryOp(*op));
                    }
                    OpChoice::Choice(id, ops) => {
                        let site = self.pools.site(*id);
                        let table = self.bin_tables.len() as u32;
                        self.bin_tables.push(ops.clone());
                        self.emit(Instr::BinaryOpChoice { site, table });
                    }
                }
            }
            CExpr::UnaryOp(op, operand) => {
                self.cexpr(operand)?;
                self.emit(Instr::UnaryOpI(*op));
            }
            CExpr::Compare(op, left, right) => {
                if let CExpr::Plain(Expr::Var(name)) = &**right {
                    let slot = self.slot(name);
                    self.cexpr(left)?;
                    self.emit(Instr::Charge);
                    match op {
                        OpChoice::Fixed(op) => {
                            self.emit(Instr::CompareSlot { op: *op, slot });
                        }
                        OpChoice::Choice(id, ops) => {
                            let site = self.pools.site(*id);
                            let table = self.cmp_tables.len() as u32;
                            self.cmp_tables.push(ops.clone());
                            self.emit(Instr::CompareChoiceSlot { site, table, slot });
                        }
                    }
                    return Ok(());
                }
                self.cexpr(left)?;
                self.cexpr(right)?;
                match op {
                    OpChoice::Fixed(op) => {
                        self.emit(Instr::CompareOpI(*op));
                    }
                    OpChoice::Choice(id, ops) => {
                        let site = self.pools.site(*id);
                        let table = self.cmp_tables.len() as u32;
                        self.cmp_tables.push(ops.clone());
                        self.emit(Instr::CompareOpChoice { site, table });
                    }
                }
            }
            CExpr::BoolExpr(op, left, right) => {
                self.cexpr(left)?;
                let j = match op {
                    BoolOp::And => self.emit(Instr::JumpIfFalsePeek(0)),
                    BoolOp::Or => self.emit(Instr::JumpIfTruePeek(0)),
                };
                self.cexpr(right)?;
                self.patch(j);
            }
            CExpr::Call(name, args) => {
                if name == "len" {
                    if let [CExpr::Plain(Expr::Var(var))] = args.as_slice() {
                        if matches!(self.resolver.resolve(name), Callee::Builtin) {
                            let slot = self.slot(var);
                            self.emit(Instr::Charge);
                            self.emit(Instr::LenSlot(slot));
                            return Ok(());
                        }
                    }
                }
                for arg in args {
                    self.cexpr(arg)?;
                }
                self.call_named(name, args.len());
            }
            CExpr::MethodCall(recv, method, args) => {
                // Choice-bearing receivers would need concretisation for
                // the write-back target — fall back to the tree walker.
                let plain = match &**recv {
                    CExpr::Plain(e) => e,
                    _ => return Err(Unsupported),
                };
                if let Expr::Var(name) = plain {
                    if !args.iter().any(Self::cmutates_slots) {
                        let slot = self.slot(name);
                        self.emit(Instr::Charge);
                        self.emit(Instr::CheckSlot(slot));
                        for arg in args {
                            self.cexpr(arg)?;
                        }
                        let name = self.pools.name_idx(method);
                        self.emit(Instr::CallMethodSlot {
                            name,
                            argc: args.len() as u32,
                            slot,
                        });
                        return Ok(());
                    }
                }
                let wb_slot = self.method_writeback(plain)?;
                self.expr(plain)?;
                for arg in args {
                    self.cexpr(arg)?;
                }
                let name = self.pools.name_idx(method);
                self.emit(Instr::CallMethod {
                    name,
                    argc: args.len() as u32,
                    wb_slot,
                });
            }
            CExpr::IfExpr(body, cond, orelse) => {
                self.cexpr(cond)?;
                let jf = self.emit(Instr::JumpIfFalsePop(0));
                self.cexpr(body)?;
                let jend = self.emit(Instr::Jump(0));
                self.patch(jf);
                self.cexpr(orelse)?;
                self.patch(jend);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_function;
    use afg_parser::parse_program;

    fn assert_same(source: &str, entry: &str, args: &[Value]) {
        let program = parse_program(source).unwrap();
        let compiled = CompiledProgram::from_program(&program, Some(entry)).expect("compiles");
        let mut vm = Vm::new(ExecLimits::default());
        let vm_result = vm.run(&compiled, args);
        let tree = run_function(&program, Some(entry), args, ExecLimits::default());
        match (&vm_result, &tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a, b),
            _ => panic!("VM and tree walker disagree: {vm_result:?} vs {tree:?}"),
        }
    }

    #[test]
    fn straight_line_arithmetic() {
        assert_same(
            "def f(x):\n    y = x * 2 + 1\n    return y - 3\n",
            "f",
            &[Value::Int(10)],
        );
    }

    #[test]
    fn loops_recursion_and_builtins() {
        let source = "\
def recurPower(base, exp):
    if exp == 0:
        return 1
    return base * recurPower(base, exp - 1)
";
        assert_same(source, "recurPower", &[Value::Int(3), Value::Int(4)]);
        let source = "\
def computeDeriv(poly):
    result = []
    for i in range(len(poly)):
        result += [i * poly[i]]
    if len(poly) == 1:
        return result
    else:
        return result[1:]
";
        assert_same(source, "computeDeriv", &[Value::int_list([2, -3, 1, 4])]);
        assert_same(source, "computeDeriv", &[Value::int_list([7])]);
        assert_same(source, "computeDeriv", &[Value::List(vec![])]);
    }

    #[test]
    fn errors_match_the_tree_walker() {
        assert_same(
            "def f(xs):\n    return xs[10]\n",
            "f",
            &[Value::int_list([1, 2])],
        );
        assert_same("def f(x):\n    return x + missing\n", "f", &[Value::Int(1)]);
        assert_same("def f(x):\n    return x / 0\n", "f", &[Value::Int(1)]);
        assert_same("def f(x, y):\n    return x\n", "f", &[Value::Int(1)]);
    }

    #[test]
    fn mutating_methods_write_back() {
        assert_same(
            "def f(poly):\n    poly.pop(0)\n    return poly\n",
            "f",
            &[Value::int_list([1, 2, 3])],
        );
        assert_same(
            "def f(xs):\n    ys = xs\n    ys.append(9)\n    return xs + ys\n",
            "f",
            &[Value::int_list([1])],
        );
    }

    #[test]
    fn index_receiver_method_calls_fall_back() {
        let program = parse_program("def f(xs):\n    xs[0].append(1)\n    return xs\n").unwrap();
        assert!(CompiledProgram::from_program(&program, Some("f")).is_none());
    }

    #[test]
    fn fuel_parity_across_budgets() {
        let source = "\
def f(n):
    total = 0
    i = 0
    while i < n:
        total += i * i
        i = i + 1
    return total
";
        let program = parse_program(source).unwrap();
        let compiled = CompiledProgram::from_program(&program, Some("f")).unwrap();
        for fuel in 1..160 {
            let limits = ExecLimits {
                fuel,
                max_recursion: 32,
            };
            let mut vm = Vm::new(limits);
            let vm_result = vm.run(&compiled, &[Value::Int(5)]);
            let mut interp = crate::interp::Interpreter::with_limits(&program, limits);
            let tree = interp
                .call_entry(Some("f"), &[Value::Int(5)])
                .map(|o| o.value);
            match (&vm_result, &tree) {
                (Ok(a), Ok(b)) => assert_eq!(&a.value, b, "fuel {fuel}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "fuel {fuel}"),
                _ => panic!("fuel {fuel}: {vm_result:?} vs {tree:?}"),
            }
            assert_eq!(vm.fuel_used(), interp.fuel_used(), "fuel used at {fuel}");
        }
    }

    #[test]
    fn tuple_unpacking_and_nested_assignment() {
        assert_same(
            "def f(p):\n    a, b = p\n    return a - b\n",
            "f",
            &[Value::Tuple(vec![Value::Int(9), Value::Int(4)])],
        );
        assert_same(
            "def f(m):\n    m[0][1] = 7\n    return m\n",
            "f",
            &[Value::List(vec![
                Value::int_list([1, 2]),
                Value::int_list([3, 4]),
            ])],
        );
        assert_same(
            "def f(p):\n    a, b = p\n    return a\n",
            "f",
            &[Value::int_list([1, 2, 3])],
        );
    }

    #[test]
    fn short_circuit_and_conditional_expressions() {
        let source = "\
def f(x):
    y = 1 if x > 0 else -1
    return y * x or 99
";
        assert_same(source, "f", &[Value::Int(5)]);
        assert_same(source, "f", &[Value::Int(0)]);
    }

    #[test]
    fn compiled_choice_program_dispatches_on_selection() {
        use afg_eml::{apply_error_model, library, ErrorModel};
        let student = parse_program(
            "def iterPower(base, exp):\n    result = 0\n    for i in range(exp):\n        result *= base\n    return result\n",
        )
        .unwrap();
        let model = ErrorModel::new("m")
            .with_rule(library::initr())
            .with_rule(library::ranr1());
        let cp = apply_error_model(&student, Some("iterPower"), &model).unwrap();
        let compiled = CompiledProgram::from_choice(&cp).expect("compiles");
        assert!(compiled.site_count() > 0);
        let mut vm = Vm::new(ExecLimits::fast());
        let args = [Value::Int(3), Value::Int(2)];
        // Sweep every single-site selection (including an out-of-range
        // option, which clamps) and compare with the concretised candidate
        // on the tree interpreter, on result, output and fuel: choice
        // constructs must charge nothing, as they vanish under
        // concretisation.
        let mut assignments = vec![ChoiceAssignment::default_choices()];
        for info in &cp.choices {
            for option in 0..info.options.len() + 1 {
                assignments.push(ChoiceAssignment::from_pairs([(info.id, option)]));
            }
        }
        for assignment in &assignments {
            vm.select(&compiled, assignment);
            let direct = vm.run(&compiled, &args);
            let concrete = cp.concretize(assignment);
            let mut interp = crate::interp::Interpreter::with_limits(&concrete, ExecLimits::fast());
            let tree = interp.call_entry(Some("iterPower"), &args);
            match (&direct, &tree) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{assignment:?}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "{assignment:?}"),
                _ => panic!("{assignment:?}: {direct:?} vs {tree:?}"),
            }
            assert_eq!(vm.fuel_used(), interp.fuel_used(), "{assignment:?}");
        }
    }
}
