//! Three-valued logic used by the simulators and the structural analyses.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A three-valued logic value: `0`, `1` or unknown (`X`).
///
/// High-impedance is not modelled separately; floating nets evaluate to `X`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum Logic {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown / don't-care.
    #[default]
    X,
}

impl Logic {
    /// Converts a boolean to a definite logic value.
    pub fn from_bool(value: bool) -> Self {
        if value {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns the boolean value if the logic value is definite.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }

    /// True if the value is 0 or 1.
    pub fn is_definite(self) -> bool {
        self != Logic::X
    }

    /// Logical NOT.
    ///
    /// (Named `not` for symmetry with `and`/`or`/`xor`; the `!` operator is
    /// deliberately not overloaded for a three-valued type.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }

    /// Logical AND.
    pub fn and(self, other: Self) -> Self {
        match (self, other) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Logical OR.
    pub fn or(self, other: Self) -> Self {
        match (self, other) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Logical XOR.
    pub fn xor(self, other: Self) -> Self {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// 2-to-1 multiplexer (`s ? d1 : d0`), with optimistic X handling: when
    /// the select is `X` but both data values agree, the common value is
    /// returned.
    pub fn mux(d0: Self, d1: Self, s: Self) -> Self {
        match s {
            Logic::Zero => d0,
            Logic::One => d1,
            Logic::X => {
                if d0 == d1 {
                    d0
                } else {
                    Logic::X
                }
            }
        }
    }

    /// The lattice meet: equal values stay, differing values become `X`.
    pub fn meet(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            Logic::X
        }
    }
}

impl From<bool> for Logic {
    fn from(value: bool) -> Self {
        Logic::from_bool(value)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Logic::Zero => f.write_str("0"),
            Logic::One => f.write_str("1"),
            Logic::X => f.write_str("X"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::CombSim;
    use netlist::{CellKind, NetId, NetlistBuilder};

    #[test]
    fn basic_ops() {
        assert_eq!(Logic::Zero.and(Logic::X), Logic::Zero);
        assert_eq!(Logic::One.and(Logic::X), Logic::X);
        assert_eq!(Logic::One.or(Logic::X), Logic::One);
        assert_eq!(Logic::Zero.or(Logic::X), Logic::X);
        assert_eq!(Logic::X.not(), Logic::X);
        assert_eq!(Logic::One.xor(Logic::One), Logic::Zero);
        assert_eq!(Logic::One.xor(Logic::X), Logic::X);
    }

    #[test]
    fn mux_optimistic_x() {
        assert_eq!(Logic::mux(Logic::One, Logic::One, Logic::X), Logic::One);
        assert_eq!(Logic::mux(Logic::Zero, Logic::One, Logic::X), Logic::X);
        assert_eq!(Logic::mux(Logic::Zero, Logic::One, Logic::One), Logic::One);
        assert_eq!(
            Logic::mux(Logic::Zero, Logic::One, Logic::Zero),
            Logic::Zero
        );
    }

    #[test]
    fn meet_is_lattice_meet() {
        assert_eq!(Logic::One.meet(Logic::One), Logic::One);
        assert_eq!(Logic::One.meet(Logic::Zero), Logic::X);
        assert_eq!(Logic::X.meet(Logic::Zero), Logic::X);
    }

    #[test]
    fn conversions() {
        assert_eq!(Logic::from_bool(true), Logic::One);
        assert_eq!(Logic::from(false), Logic::Zero);
        assert_eq!(Logic::One.to_bool(), Some(true));
        assert_eq!(Logic::X.to_bool(), None);
        assert!(Logic::Zero.is_definite());
        assert!(!Logic::X.is_definite());
        assert_eq!(Logic::X.to_string(), "X");
    }

    /// Evaluates a one-gate netlist of `kind` over `inputs` on the compiled
    /// simulator the engines run.
    fn eval_gate(kind: CellKind, inputs: &[Logic]) -> Logic {
        let mut b = NetlistBuilder::new("gate");
        let pins: Vec<NetId> = (0..inputs.len())
            .map(|i| b.input(format!("i{i}")))
            .collect();
        let y = b.netlist_mut().add_net("y");
        b.netlist_mut().add_cell(kind, "g", &pins, Some(y));
        b.output("y", y);
        let n = b.finish();
        let sim = CombSim::new(&n).unwrap();
        let mut values = sim.blank_values();
        for (&net, &value) in pins.iter().zip(inputs) {
            values[net.index()] = value;
        }
        sim.propagate(&mut values, None);
        values[y.index()]
    }

    #[test]
    fn eval_cell_matches_bool_eval_on_definite_inputs() {
        use CellKind as K;
        let kinds = [
            K::Buf,
            K::Not,
            K::And(3),
            K::Nand(3),
            K::Or(3),
            K::Nor(3),
            K::Xor(3),
            K::Xnor(3),
            K::Mux2,
        ];
        for kind in kinds {
            let n = kind.num_inputs();
            for pattern in 0..(1u32 << n) {
                let bools: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
                let logics: Vec<Logic> = bools.iter().map(|&b| Logic::from_bool(b)).collect();
                let expected = kind.eval_bool(&bools).unwrap();
                assert_eq!(
                    eval_gate(kind, &logics),
                    Logic::from_bool(expected),
                    "{kind:?} {pattern:b}"
                );
            }
        }
    }

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(
            eval_gate(CellKind::And(2), &[Logic::Zero, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            eval_gate(CellKind::Nor(2), &[Logic::One, Logic::X]),
            Logic::Zero
        );
        assert_eq!(
            eval_gate(CellKind::Nand(2), &[Logic::Zero, Logic::X]),
            Logic::One
        );
        assert_eq!(eval_gate(CellKind::Or(2), &[Logic::X, Logic::X]), Logic::X);
    }
}
