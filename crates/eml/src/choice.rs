//! The M̃PY choice AST — MPY extended with *sets* of expressions and
//! statements (paper §3.1, Figure 6(b)).
//!
//! An M̃PY program concisely represents a large set of MPY candidate
//! programs.  Every position where an error-model rule matched becomes a
//! [`CExpr::Choice`] (or [`CStmt::ChoiceBlock`]) node whose option 0 is the
//! original, zero-cost program fragment and whose remaining options are the
//! candidate corrections.  Selecting concrete options for every choice
//! ([`ChoiceAssignment`]) concretises the M̃PY program back into an ordinary
//! MPY program; the number of non-default selections is the *cost* — the
//! "number of corrections" the paper reports and minimises.

use std::collections::BTreeMap;

use afg_ast::ops::{BinOp, BoolOp, CmpOp, UnaryOp};
use afg_ast::{Expr, FuncDef, Param, Program, Stmt, StmtKind, Target};

/// Identifier of one choice site within a transformed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChoiceId(pub u32);

/// An expression in the M̃PY language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CExpr {
    /// A plain MPY expression with no choices inside.
    Plain(Expr),
    /// A set of alternative expressions; option 0 is the zero-cost default.
    Choice(ChoiceId, Vec<CExpr>),
    /// List literal with choice-bearing elements.
    List(Vec<CExpr>),
    /// Tuple literal with choice-bearing elements.
    Tuple(Vec<CExpr>),
    /// Indexing with choice-bearing parts.
    Index(Box<CExpr>, Box<CExpr>),
    /// Slicing with choice-bearing parts.
    Slice(Box<CExpr>, Option<Box<CExpr>>, Option<Box<CExpr>>),
    /// Binary operation; the operator itself may be a choice.
    BinOp(OpChoice<BinOp>, Box<CExpr>, Box<CExpr>),
    /// Unary operation.
    UnaryOp(UnaryOp, Box<CExpr>),
    /// Comparison; the operator itself may be a choice.
    Compare(OpChoice<CmpOp>, Box<CExpr>, Box<CExpr>),
    /// Boolean connective.
    BoolExpr(BoolOp, Box<CExpr>, Box<CExpr>),
    /// Function call.
    Call(String, Vec<CExpr>),
    /// Method call.
    MethodCall(Box<CExpr>, String, Vec<CExpr>),
    /// Conditional expression `body if cond else orelse`.
    IfExpr(Box<CExpr>, Box<CExpr>, Box<CExpr>),
}

/// An operator position that may itself be rewritten by the error model
/// (e.g. the paper's `COMPR` rule replaces a comparison operator with any
/// member of `{<, >, ≤, ≥, ==, ≠}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpChoice<T> {
    /// The operator is fixed.
    Fixed(T),
    /// The operator is selected among options; option 0 is the default.
    Choice(ChoiceId, Vec<T>),
}

/// A statement in the M̃PY language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CStmt {
    /// Source line of the original statement (0 for inserted statements).
    pub line: u32,
    /// The statement itself.
    pub kind: CStmtKind,
}

/// Statement kinds of the M̃PY language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CStmtKind {
    /// Assignment.
    Assign(Target, CExpr),
    /// Augmented assignment.
    AugAssign(Target, BinOp, CExpr),
    /// Expression statement.
    ExprStmt(CExpr),
    /// Conditional.
    If(CExpr, Vec<CStmt>, Vec<CStmt>),
    /// While loop.
    While(CExpr, Vec<CStmt>),
    /// For loop.
    For(String, CExpr, Vec<CStmt>),
    /// Return.
    Return(Option<CExpr>),
    /// Print.
    Print(Vec<CExpr>),
    /// Pass / break / continue.
    Pass,
    /// Break.
    Break,
    /// Continue.
    Continue,
    /// A statement-level choice between alternative blocks; option 0 is the
    /// original block.  Used for rules that insert or drop statements
    /// (e.g. "add the `len(poly) == 1` base case at the top").
    ChoiceBlock(ChoiceId, Vec<Vec<CStmt>>),
}

/// A function definition whose body may contain choices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CFuncDef {
    /// Function name.
    pub name: String,
    /// Parameters (unchanged by the error model).
    pub params: Vec<Param>,
    /// Body with choices.
    pub body: Vec<CStmt>,
    /// Source line of the `def`.
    pub line: u32,
}

/// Description of one choice site, used by the synthesizer (how many
/// options) and the feedback generator (what to tell the student).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceInfo {
    /// Choice identifier.
    pub id: ChoiceId,
    /// Source line the choice is attached to.
    pub line: u32,
    /// Name of the correction rule that created the choice.
    pub rule: String,
    /// Pretty-printed original fragment (option 0).
    pub original: String,
    /// Pretty-printed fragments of all options (index 0 = original).
    pub options: Vec<String>,
    /// Optional custom feedback template provided by the rule
    /// (placeholders: `{line}`, `{original}`, `{replacement}`).
    pub message: Option<String>,
}

/// A transformed program: the choice-bearing function plus the registry of
/// choice sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceProgram {
    /// The transformed entry function.
    pub func: CFuncDef,
    /// Untouched helper functions from the student program (graded as-is).
    pub other_funcs: Vec<FuncDef>,
    /// Choice-site registry in identifier order.
    pub choices: Vec<ChoiceInfo>,
}

/// A selection of one option per choice site.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChoiceAssignment {
    selections: BTreeMap<ChoiceId, usize>,
}

impl ChoiceAssignment {
    /// The all-default assignment (the original program).
    pub fn default_choices() -> ChoiceAssignment {
        ChoiceAssignment::default()
    }

    /// Creates an assignment from explicit `(choice, option)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (ChoiceId, usize)>) -> ChoiceAssignment {
        ChoiceAssignment {
            selections: pairs.into_iter().collect(),
        }
    }

    /// Sets the selected option for a choice.
    pub fn select(&mut self, id: ChoiceId, option: usize) {
        if option == 0 {
            self.selections.remove(&id);
        } else {
            self.selections.insert(id, option);
        }
    }

    /// The selected option for a choice (0 = default when unset).
    pub fn selected(&self, id: ChoiceId) -> usize {
        self.selections.get(&id).copied().unwrap_or(0)
    }

    /// The number of non-default selections — the paper's `totalCost`.
    pub fn cost(&self) -> usize {
        self.selections.len()
    }

    /// Iterates over the non-default selections.
    pub fn non_default(&self) -> impl Iterator<Item = (ChoiceId, usize)> + '_ {
        self.selections.iter().map(|(&id, &option)| (id, option))
    }
}

impl ChoiceProgram {
    /// Number of choice sites.
    pub fn num_choices(&self) -> usize {
        self.choices.len()
    }

    /// Looks up the metadata of a choice site.
    pub fn choice_info(&self, id: ChoiceId) -> Option<&ChoiceInfo> {
        self.choices.iter().find(|c| c.id == id)
    }

    /// The size of the candidate-program space represented by this M̃PY
    /// program (product of option counts), as reported in paper §2.2.
    pub fn candidate_space_size(&self) -> f64 {
        self.choices
            .iter()
            .map(|c| c.options.len() as f64)
            .product()
    }

    /// Concretises the choice program into an ordinary MPY program under the
    /// given assignment.  Unknown choice ids in the assignment are ignored;
    /// missing ids take the default option.
    ///
    /// This materialises a full AST clone and is therefore the *cold path*:
    /// the synthesis hot loop evaluates candidates on compiled bytecode and
    /// only concretises the final solution for feedback rendering (the
    /// reference-interpreter path, which the VM is diffed against,
    /// concretises every candidate).  [`instrument::concretize_calls`]
    /// counts the calls made by the current thread so tests can assert the
    /// hot loop stays cold.
    pub fn concretize(&self, assignment: &ChoiceAssignment) -> Program {
        instrument::record_concretize();
        let mut program = Program::new();
        program.funcs.push(FuncDef {
            name: self.func.name.clone(),
            params: self.func.params.clone(),
            body: concretize_block(&self.func.body, assignment),
            line: self.func.line,
        });
        program.funcs.extend(self.other_funcs.iter().cloned());
        program
    }

    /// Convenience: the original student program (all defaults).
    pub fn original_program(&self) -> Program {
        self.concretize(&ChoiceAssignment::default_choices())
    }
}

/// Per-thread instrumentation of AST materialisations.
///
/// The CEGIS acceptance criterion is *zero* `concretize` calls per candidate
/// check; the counter is thread-local so concurrently running tests (or
/// batch-grading workers) never observe each other's materialisations.
pub mod instrument {
    use std::cell::Cell;

    thread_local! {
        static CONCRETIZE_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    pub(super) fn record_concretize() {
        CONCRETIZE_CALLS.with(|c| c.set(c.get() + 1));
    }

    /// Number of [`super::ChoiceProgram::concretize`] calls made by the
    /// current thread since it started.
    pub fn concretize_calls() -> u64 {
        CONCRETIZE_CALLS.with(Cell::get)
    }
}

fn concretize_block(body: &[CStmt], assignment: &ChoiceAssignment) -> Vec<Stmt> {
    let mut stmts = Vec::with_capacity(body.len());
    for stmt in body {
        concretize_stmt(stmt, assignment, &mut stmts);
    }
    stmts
}

fn concretize_stmt(stmt: &CStmt, assignment: &ChoiceAssignment, out: &mut Vec<Stmt>) {
    let kind = match &stmt.kind {
        CStmtKind::Assign(target, value) => {
            StmtKind::Assign(target.clone(), concretize_expr(value, assignment))
        }
        CStmtKind::AugAssign(target, op, value) => {
            StmtKind::AugAssign(target.clone(), *op, concretize_expr(value, assignment))
        }
        CStmtKind::ExprStmt(expr) => StmtKind::ExprStmt(concretize_expr(expr, assignment)),
        CStmtKind::If(cond, then_body, else_body) => StmtKind::If(
            concretize_expr(cond, assignment),
            concretize_block(then_body, assignment),
            concretize_block(else_body, assignment),
        ),
        CStmtKind::While(cond, body) => StmtKind::While(
            concretize_expr(cond, assignment),
            concretize_block(body, assignment),
        ),
        CStmtKind::For(var, iter, body) => StmtKind::For(
            var.clone(),
            concretize_expr(iter, assignment),
            concretize_block(body, assignment),
        ),
        CStmtKind::Return(expr) => {
            StmtKind::Return(expr.as_ref().map(|e| concretize_expr(e, assignment)))
        }
        CStmtKind::Print(args) => StmtKind::Print(
            args.iter()
                .map(|e| concretize_expr(e, assignment))
                .collect(),
        ),
        CStmtKind::Pass => StmtKind::Pass,
        CStmtKind::Break => StmtKind::Break,
        CStmtKind::Continue => StmtKind::Continue,
        CStmtKind::ChoiceBlock(id, options) => {
            let selected = assignment.selected(*id).min(options.len() - 1);
            for inner in &options[selected] {
                concretize_stmt(inner, assignment, out);
            }
            return;
        }
    };
    out.push(Stmt {
        line: stmt.line,
        kind,
    });
}

/// Concretises a choice expression under an assignment.
pub fn concretize_expr(expr: &CExpr, assignment: &ChoiceAssignment) -> Expr {
    match expr {
        CExpr::Plain(e) => e.clone(),
        CExpr::Choice(id, options) => {
            let selected = assignment.selected(*id).min(options.len() - 1);
            concretize_expr(&options[selected], assignment)
        }
        CExpr::List(items) => Expr::List(
            items
                .iter()
                .map(|e| concretize_expr(e, assignment))
                .collect(),
        ),
        CExpr::Tuple(items) => Expr::Tuple(
            items
                .iter()
                .map(|e| concretize_expr(e, assignment))
                .collect(),
        ),
        CExpr::Index(base, index) => Expr::Index(
            Box::new(concretize_expr(base, assignment)),
            Box::new(concretize_expr(index, assignment)),
        ),
        CExpr::Slice(base, lower, upper) => Expr::Slice(
            Box::new(concretize_expr(base, assignment)),
            lower
                .as_ref()
                .map(|e| Box::new(concretize_expr(e, assignment))),
            upper
                .as_ref()
                .map(|e| Box::new(concretize_expr(e, assignment))),
        ),
        CExpr::BinOp(op, left, right) => Expr::BinOp(
            select_op(op, assignment),
            Box::new(concretize_expr(left, assignment)),
            Box::new(concretize_expr(right, assignment)),
        ),
        CExpr::UnaryOp(op, operand) => {
            Expr::UnaryOp(*op, Box::new(concretize_expr(operand, assignment)))
        }
        CExpr::Compare(op, left, right) => Expr::Compare(
            select_op(op, assignment),
            Box::new(concretize_expr(left, assignment)),
            Box::new(concretize_expr(right, assignment)),
        ),
        CExpr::BoolExpr(op, left, right) => Expr::BoolExpr(
            *op,
            Box::new(concretize_expr(left, assignment)),
            Box::new(concretize_expr(right, assignment)),
        ),
        CExpr::Call(name, args) => Expr::Call(
            name.clone(),
            args.iter()
                .map(|e| concretize_expr(e, assignment))
                .collect(),
        ),
        CExpr::MethodCall(recv, name, args) => Expr::MethodCall(
            Box::new(concretize_expr(recv, assignment)),
            name.clone(),
            args.iter()
                .map(|e| concretize_expr(e, assignment))
                .collect(),
        ),
        CExpr::IfExpr(body, cond, orelse) => Expr::IfExpr(
            Box::new(concretize_expr(body, assignment)),
            Box::new(concretize_expr(cond, assignment)),
            Box::new(concretize_expr(orelse, assignment)),
        ),
    }
}

fn select_op<T: Copy>(op: &OpChoice<T>, assignment: &ChoiceAssignment) -> T {
    match op {
        OpChoice::Fixed(op) => *op,
        OpChoice::Choice(id, options) => {
            let selected = assignment.selected(*id).min(options.len() - 1);
            options[selected]
        }
    }
}

impl CExpr {
    /// Wraps a plain expression.
    pub fn plain(expr: Expr) -> CExpr {
        CExpr::Plain(expr)
    }

    /// Collects the identifiers of every choice inside the expression.
    pub fn collect_choice_ids(&self, out: &mut Vec<ChoiceId>) {
        match self {
            CExpr::Plain(_) => {}
            CExpr::Choice(id, options) => {
                out.push(*id);
                for option in options {
                    option.collect_choice_ids(out);
                }
            }
            CExpr::List(items) | CExpr::Tuple(items) | CExpr::Call(_, items) => {
                for item in items {
                    item.collect_choice_ids(out);
                }
            }
            CExpr::Index(a, b) => {
                a.collect_choice_ids(out);
                b.collect_choice_ids(out);
            }
            CExpr::Slice(base, lower, upper) => {
                base.collect_choice_ids(out);
                if let Some(l) = lower {
                    l.collect_choice_ids(out);
                }
                if let Some(u) = upper {
                    u.collect_choice_ids(out);
                }
            }
            CExpr::BinOp(op, a, b) => {
                if let OpChoice::Choice(id, _) = op {
                    out.push(*id);
                }
                a.collect_choice_ids(out);
                b.collect_choice_ids(out);
            }
            CExpr::Compare(op, a, b) => {
                if let OpChoice::Choice(id, _) = op {
                    out.push(*id);
                }
                a.collect_choice_ids(out);
                b.collect_choice_ids(out);
            }
            CExpr::UnaryOp(_, a) => a.collect_choice_ids(out),
            CExpr::BoolExpr(_, a, b) => {
                a.collect_choice_ids(out);
                b.collect_choice_ids(out);
            }
            CExpr::MethodCall(recv, _, args) => {
                recv.collect_choice_ids(out);
                for arg in args {
                    arg.collect_choice_ids(out);
                }
            }
            CExpr::IfExpr(a, b, c) => {
                a.collect_choice_ids(out);
                b.collect_choice_ids(out);
                c.collect_choice_ids(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afg_ast::types::MpyType;

    fn sample_choice_program() -> ChoiceProgram {
        // def f(x):
        //     return {x, [0]}        <- choice 0
        let choice = CExpr::Choice(
            ChoiceId(0),
            vec![
                CExpr::plain(Expr::var("x")),
                CExpr::plain(Expr::List(vec![Expr::Int(0)])),
            ],
        );
        ChoiceProgram {
            func: CFuncDef {
                name: "f".into(),
                params: vec![Param::new("x", MpyType::Int)],
                body: vec![CStmt {
                    line: 2,
                    kind: CStmtKind::Return(Some(choice)),
                }],
                line: 1,
            },
            other_funcs: vec![],
            choices: vec![ChoiceInfo {
                id: ChoiceId(0),
                line: 2,
                rule: "RETR".into(),
                original: "x".into(),
                options: vec!["x".into(), "[0]".into()],
                message: None,
            }],
        }
    }

    #[test]
    fn default_assignment_reproduces_original() {
        let cp = sample_choice_program();
        let program = cp.original_program();
        let body = &program.funcs[0].body;
        assert_eq!(body[0].kind, StmtKind::Return(Some(Expr::var("x"))));
    }

    #[test]
    fn non_default_selection_changes_program_and_costs_one() {
        let cp = sample_choice_program();
        let mut assignment = ChoiceAssignment::default_choices();
        assignment.select(ChoiceId(0), 1);
        assert_eq!(assignment.cost(), 1);
        let program = cp.concretize(&assignment);
        assert_eq!(
            program.funcs[0].body[0].kind,
            StmtKind::Return(Some(Expr::List(vec![Expr::Int(0)])))
        );
    }

    #[test]
    fn selecting_default_removes_cost() {
        let mut assignment = ChoiceAssignment::default_choices();
        assignment.select(ChoiceId(3), 2);
        assert_eq!(assignment.cost(), 1);
        assignment.select(ChoiceId(3), 0);
        assert_eq!(assignment.cost(), 0);
        assert_eq!(assignment.selected(ChoiceId(3)), 0);
    }

    #[test]
    fn choice_block_inserts_statements() {
        // Choice between [] and [return [0]] prepended to the body.
        let base_case = CStmt {
            line: 0,
            kind: CStmtKind::Return(Some(CExpr::plain(Expr::List(vec![Expr::Int(0)])))),
        };
        let block = CStmt {
            line: 0,
            kind: CStmtKind::ChoiceBlock(ChoiceId(1), vec![vec![], vec![base_case]]),
        };
        let cp = ChoiceProgram {
            func: CFuncDef {
                name: "f".into(),
                params: vec![],
                body: vec![
                    block,
                    CStmt {
                        line: 2,
                        kind: CStmtKind::Return(Some(CExpr::plain(Expr::Int(1)))),
                    },
                ],
                line: 1,
            },
            other_funcs: vec![],
            choices: vec![],
        };
        let original = cp.original_program();
        assert_eq!(original.funcs[0].body.len(), 1);
        let with_insert = cp.concretize(&ChoiceAssignment::from_pairs([(ChoiceId(1), 1)]));
        assert_eq!(with_insert.funcs[0].body.len(), 2);
    }

    #[test]
    fn operator_choice_concretises() {
        let cmp = CExpr::Compare(
            OpChoice::Choice(ChoiceId(5), vec![CmpOp::Ge, CmpOp::Ne]),
            Box::new(CExpr::plain(Expr::var("i"))),
            Box::new(CExpr::plain(Expr::Int(0))),
        );
        let default = concretize_expr(&cmp, &ChoiceAssignment::default_choices());
        assert_eq!(
            default,
            Expr::compare(CmpOp::Ge, Expr::var("i"), Expr::Int(0))
        );
        let changed = concretize_expr(&cmp, &ChoiceAssignment::from_pairs([(ChoiceId(5), 1)]));
        assert_eq!(
            changed,
            Expr::compare(CmpOp::Ne, Expr::var("i"), Expr::Int(0))
        );
    }

    #[test]
    fn candidate_space_size_multiplies_option_counts() {
        let mut cp = sample_choice_program();
        cp.choices.push(ChoiceInfo {
            id: ChoiceId(1),
            line: 3,
            rule: "RANR".into(),
            original: "0".into(),
            options: vec!["0".into(), "1".into(), "-1".into()],
            message: None,
        });
        assert_eq!(cp.candidate_space_size(), 6.0);
    }

    #[test]
    fn collect_choice_ids_finds_nested_choices() {
        let nested = CExpr::BinOp(
            OpChoice::Fixed(BinOp::Add),
            Box::new(CExpr::Choice(ChoiceId(0), vec![CExpr::plain(Expr::Int(1))])),
            Box::new(CExpr::Compare(
                OpChoice::Choice(ChoiceId(1), vec![CmpOp::Lt]),
                Box::new(CExpr::plain(Expr::Int(2))),
                Box::new(CExpr::Choice(ChoiceId(2), vec![CExpr::plain(Expr::Int(3))])),
            )),
        );
        let mut ids = Vec::new();
        nested.collect_choice_ids(&mut ids);
        assert_eq!(ids, vec![ChoiceId(0), ChoiceId(1), ChoiceId(2)]);
    }
}
