//! Arithmetic-logic unit generator: add/sub, bitwise logic, unsigned
//! compare and logical shifts, selected by one-hot control signals.

use netlist::{NetId, NetlistBuilder, Word};

/// One-hot operation selects for the ALU (exactly one should be high; when
/// none is, the adder result is produced).
#[derive(Clone, Debug)]
pub struct AluControl {
    /// Subtract instead of add (also selects the subtraction datapath for the
    /// unsigned compare).
    pub op_sub: NetId,
    /// Select the bitwise AND result.
    pub op_and: NetId,
    /// Select the bitwise OR result.
    pub op_or: NetId,
    /// Select the bitwise XOR result.
    pub op_xor: NetId,
    /// Select the unsigned set-on-less-than result.
    pub op_sltu: NetId,
    /// Select the logical left shift result.
    pub op_sll: NetId,
    /// Select the logical right shift result.
    pub op_srl: NetId,
}

/// The outputs of a generated ALU.
#[derive(Clone, Debug)]
pub struct Alu {
    /// The selected 32-bit result.
    pub result: Word,
    /// `a == b` (used by the branch unit).
    pub equal: NetId,
}

/// Generates the ALU. `shamt` is the 5-bit shift amount; shifts operate on
/// operand `b` (matching the ISA, where `sll rd, rt, shamt` shifts `rt`).
///
/// All cells are tagged with the `alu` group.
pub fn generate_alu(
    builder: &mut NetlistBuilder,
    a: &[NetId],
    b: &[NetId],
    shamt: &[NetId],
    control: &AluControl,
) -> Alu {
    assert_eq!(a.len(), 32);
    assert_eq!(b.len(), 32);
    assert_eq!(shamt.len(), 5);

    builder.push_group("alu");

    // Adder / subtractor: b is conditionally inverted and the carry-in set.
    let do_sub = builder.or2(control.op_sub, control.op_sltu);
    let b_inverted = builder.not_word(b);
    let b_eff = builder.mux2_word(b, &b_inverted, do_sub);
    let (sum, carry_out) = builder.ripple_adder(a, &b_eff, do_sub);

    // Unsigned less-than: with a - b computed, carry-out == 0 means a < b.
    let lt = builder.not(carry_out);
    let zero = builder.tie0();
    let mut sltu_word = vec![zero; 32];
    sltu_word[0] = lt;

    // Bitwise logic.
    let and_w = builder.and_word(a, b);
    let or_w = builder.or_word(a, b);
    let xor_w = builder.xor_word(a, b);

    // Shifts.
    let sll_w = builder.shift_left(b, shamt);
    let srl_w = builder.shift_right(b, shamt);

    // Result selection (priority chain of 2-to-1 muxes).
    let mut result = sum;
    result = builder.mux2_word(&result, &and_w, control.op_and);
    result = builder.mux2_word(&result, &or_w, control.op_or);
    result = builder.mux2_word(&result, &xor_w, control.op_xor);
    result = builder.mux2_word(&result, &sltu_word, control.op_sltu);
    result = builder.mux2_word(&result, &sll_w, control.op_sll);
    result = builder.mux2_word(&result, &srl_w, control.op_srl);

    // Equality for branches.
    let equal = builder.eq_words(a, b);

    builder.pop_group();

    Alu { result, equal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{CombSim, Logic};
    use netlist::Netlist;

    struct Harness {
        netlist: Netlist,
        a: Word,
        b: Word,
        shamt: Word,
        controls: Vec<NetId>,
        result: Word,
        equal: NetId,
    }

    fn build() -> Harness {
        let mut bld = NetlistBuilder::new("alu");
        let a = bld.input_bus("a", 32);
        let b = bld.input_bus("b", 32);
        let shamt = bld.input_bus("shamt", 5);
        let names = ["sub", "and", "or", "xor", "sltu", "sll", "srl"];
        let controls: Vec<NetId> = names.iter().map(|n| bld.input(*n)).collect();
        let control = AluControl {
            op_sub: controls[0],
            op_and: controls[1],
            op_or: controls[2],
            op_xor: controls[3],
            op_sltu: controls[4],
            op_sll: controls[5],
            op_srl: controls[6],
        };
        let alu = generate_alu(&mut bld, &a, &b, &shamt, &control);
        bld.output_bus("result", &alu.result);
        bld.output("eq", alu.equal);
        Harness {
            netlist: bld.finish(),
            a,
            b,
            shamt,
            controls,
            result: alu.result,
            equal: alu.equal,
        }
    }

    fn eval(h: &Harness, a: u32, b: u32, shamt: u32, op: Option<usize>) -> (u32, bool) {
        let sim = CombSim::new(&h.netlist).unwrap();
        let mut values = sim.blank_values();
        for (i, &net) in h.a.iter().enumerate() {
            values[net.index()] = Logic::from_bool((a >> i) & 1 == 1);
        }
        for (i, &net) in h.b.iter().enumerate() {
            values[net.index()] = Logic::from_bool((b >> i) & 1 == 1);
        }
        for (i, &net) in h.shamt.iter().enumerate() {
            values[net.index()] = Logic::from_bool((shamt >> i) & 1 == 1);
        }
        for (i, &net) in h.controls.iter().enumerate() {
            values[net.index()] = Logic::from_bool(Some(i) == op);
        }
        sim.propagate(&mut values, None);
        let result: u32 = h
            .result
            .iter()
            .enumerate()
            .map(|(i, &net)| (values[net.index()].to_bool().unwrap() as u32) << i)
            .sum();
        let equal = values[h.equal.index()].to_bool().unwrap();
        (result, equal)
    }

    #[test]
    fn add_and_sub() {
        let h = build();
        assert_eq!(eval(&h, 100, 23, 0, None).0, 123);
        assert_eq!(eval(&h, 5, 7, 0, Some(0)).0, 5u32.wrapping_sub(7));
        assert_eq!(eval(&h, u32::MAX, 1, 0, None).0, 0, "wrap-around add");
    }

    #[test]
    fn bitwise_ops() {
        let h = build();
        let a = 0xF0F0_AAAA;
        let b = 0x0FF0_5555;
        assert_eq!(eval(&h, a, b, 0, Some(1)).0, a & b);
        assert_eq!(eval(&h, a, b, 0, Some(2)).0, a | b);
        assert_eq!(eval(&h, a, b, 0, Some(3)).0, a ^ b);
    }

    #[test]
    fn unsigned_compare() {
        let h = build();
        assert_eq!(eval(&h, 3, 5, 0, Some(4)).0, 1);
        assert_eq!(eval(&h, 5, 3, 0, Some(4)).0, 0);
        assert_eq!(eval(&h, 7, 7, 0, Some(4)).0, 0);
        assert_eq!(eval(&h, 1, 0xFFFF_FFFF, 0, Some(4)).0, 1);
    }

    #[test]
    fn shifts() {
        let h = build();
        assert_eq!(eval(&h, 0, 0x0000_00FF, 4, Some(5)).0, 0xFF0);
        assert_eq!(eval(&h, 0, 0x8000_0000, 31, Some(6)).0, 1);
        assert_eq!(eval(&h, 0, 0xFFFF_FFFF, 31, Some(5)).0, 0x8000_0000);
        assert_eq!(eval(&h, 0, 0x1234_5678, 0, Some(6)).0, 0x1234_5678);
    }

    #[test]
    fn equality_flag() {
        let h = build();
        assert!(eval(&h, 42, 42, 0, None).1);
        assert!(!eval(&h, 42, 43, 0, None).1);
    }

    #[test]
    fn cells_are_grouped() {
        let h = build();
        assert!(!h.netlist.cells_in_group("alu").is_empty());
    }
}
