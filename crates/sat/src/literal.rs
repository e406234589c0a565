//! Boolean variables, literals and models.

use std::fmt;

/// A propositional variable, identified by a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The variable's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::positive(self)
    }

    /// The negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::negative(self)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, encoded as `2 * var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// The positive literal of `var`.
    pub fn positive(var: Var) -> Lit {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    pub fn negative(var: Var) -> Lit {
        Lit((var.0 << 1) | 1)
    }

    /// The literal's variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether this is the positive literal.
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The opposite literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index usable for watch lists (`2 * var + sign`).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

/// A satisfying assignment returned by the solver.
///
/// Variables excluded from branching ([`crate::Solver::branch_only_on`])
/// that propagation left unassigned read `false`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    pub(crate) values: Vec<bool>,
}

impl Model {
    /// The truth value assigned to `var`.
    pub fn value(&self, var: Var) -> bool {
        self.values[var.index()]
    }

    /// Whether the literal is true under this model.
    pub fn lit_is_true(&self, lit: Lit) -> bool {
        self.value(lit.var()) == lit.is_positive()
    }

    /// Number of variables in the model.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model has no variables at all.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding_round_trips() {
        let v = Var(7);
        assert_eq!(v.positive().var(), v);
        assert_eq!(v.negative().var(), v);
        assert!(v.positive().is_positive());
        assert!(!v.negative().is_positive());
        assert_eq!(v.positive().negated(), v.negative());
        assert_eq!(v.negative().negated(), v.positive());
        assert_eq!(v.positive().index(), 14);
        assert_eq!(v.negative().index(), 15);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Var(3).to_string(), "x3");
        assert_eq!(Var(3).positive().to_string(), "x3");
        assert_eq!(Var(3).negative().to_string(), "!x3");
    }

    #[test]
    fn model_lookup() {
        let model = Model {
            values: vec![true, false],
        };
        assert!(model.value(Var(0)));
        assert!(!model.value(Var(1)));
        assert!(model.lit_is_true(Var(0).positive()));
        assert!(model.lit_is_true(Var(1).negative()));
        assert_eq!(model.len(), 2);
        assert!(!model.is_empty());
    }
}
