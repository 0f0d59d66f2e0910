//! Address generation unit: the dedicated adders that produce data addresses
//! and branch targets. These are exactly the "modules used to manipulate
//! addresses (i.e., adder for branch calculation)" whose inputs §3.3 ties off
//! under the mission memory map.

use super::{shift_left_2, sign_extend_16};
use netlist::{NetId, NetlistBuilder, Word};

/// The outputs of the address generation unit.
#[derive(Clone, Debug)]
pub struct Agu {
    /// Data memory address: `base + sign_extend(imm)`.
    pub data_address: Word,
    /// `pc + 4`.
    pub pc_plus_4: Word,
    /// Branch target: `pc + 4 + (sign_extend(imm) << 2)`.
    pub branch_target: Word,
    /// Jump target: `{(pc+4)[31:28], target26, 00}`.
    pub jump_target: Word,
}

/// Generates the AGU.
///
/// * `pc`: the 32-bit program counter value.
/// * `base`: the 32-bit base register value (rs).
/// * `imm16`: the 16-bit immediate field.
/// * `target26`: the 26-bit jump target field.
///
/// Cells are tagged `agu` (data-address adder), `agu.branch` (branch adder)
/// and `agu.jump` (jump-target wiring).
pub fn generate_agu(
    builder: &mut NetlistBuilder,
    pc: &[NetId],
    base: &[NetId],
    imm16: &[NetId],
    target26: &[NetId],
) -> Agu {
    assert_eq!(pc.len(), 32);
    assert_eq!(base.len(), 32);
    assert_eq!(imm16.len(), 16);
    assert_eq!(target26.len(), 26);

    builder.push_group("agu");

    let imm_ext = sign_extend_16(imm16);

    // Data address adder.
    let zero = builder.tie0();
    let (data_address, _) = builder.ripple_adder(base, &imm_ext, zero);

    // PC + 4 (a dedicated incrementer on the upper 30 bits).
    let four = builder.const_word(4, 32);
    let (pc_plus_4, _) = builder.ripple_adder(pc, &four, zero);

    // Branch adder.
    builder.push_group("branch");
    let offset = shift_left_2(builder, &imm_ext);
    let (branch_target, _) = builder.ripple_adder(&pc_plus_4, &offset, zero);
    builder.pop_group();

    // Jump target: wiring plus the top nibble of pc+4.
    builder.push_group("jump");
    let mut jump_target: Word = vec![zero, zero];
    jump_target.extend_from_slice(target26);
    jump_target.extend_from_slice(&pc_plus_4[28..32]);
    // Buffer the jump target so the unit owns at least some cells (and so a
    // fault site exists per bit, as in a real implementation's bus drivers).
    let jump_target: Word = jump_target.iter().map(|&bit| builder.buf(bit)).collect();
    builder.pop_group();

    builder.pop_group();

    Agu {
        data_address,
        pc_plus_4,
        branch_target,
        jump_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{CombSim, Logic};
    use netlist::Netlist;

    struct Harness {
        netlist: Netlist,
        pc: Word,
        base: Word,
        imm: Word,
        target: Word,
        agu: Agu,
    }

    fn build() -> Harness {
        let mut b = NetlistBuilder::new("agu");
        let pc = b.input_bus("pc", 32);
        let base = b.input_bus("base", 32);
        let imm = b.input_bus("imm", 16);
        let target = b.input_bus("target", 26);
        let agu = generate_agu(&mut b, &pc, &base, &imm, &target);
        b.output_bus("daddr", &agu.data_address);
        b.output_bus("pc4", &agu.pc_plus_4);
        b.output_bus("btgt", &agu.branch_target);
        b.output_bus("jtgt", &agu.jump_target);
        Harness {
            netlist: b.finish(),
            pc,
            base,
            imm,
            target,
            agu,
        }
    }

    fn eval(h: &Harness, pc: u32, base: u32, imm: u16, target: u32) -> (u32, u32, u32, u32) {
        let sim = CombSim::new(&h.netlist).unwrap();
        let mut values = sim.blank_values();
        let set = |word: &[NetId], v: u64, values: &mut Vec<Logic>| {
            for (i, &net) in word.iter().enumerate() {
                values[net.index()] = Logic::from_bool((v >> i) & 1 == 1);
            }
        };
        set(&h.pc, pc as u64, &mut values);
        set(&h.base, base as u64, &mut values);
        set(&h.imm, imm as u64, &mut values);
        set(&h.target, target as u64, &mut values);
        sim.propagate(&mut values, None);
        let get = |word: &[NetId]| -> u32 {
            word.iter()
                .enumerate()
                .map(|(i, &net)| (values[net.index()].to_bool().unwrap() as u32) << i)
                .sum()
        };
        (
            get(&h.agu.data_address),
            get(&h.agu.pc_plus_4),
            get(&h.agu.branch_target),
            get(&h.agu.jump_target),
        )
    }

    #[test]
    fn data_address_adds_signed_offset() {
        let h = build();
        let (daddr, ..) = eval(&h, 0, 0x4000_0000, 8, 0);
        assert_eq!(daddr, 0x4000_0008);
        let (daddr, ..) = eval(&h, 0, 0x4000_0000, (-4i16) as u16, 0);
        assert_eq!(daddr, 0x3FFF_FFFC);
    }

    #[test]
    fn pc_plus_4_increments() {
        let h = build();
        let (_, pc4, ..) = eval(&h, 0x0007_8000, 0, 0, 0);
        assert_eq!(pc4, 0x0007_8004);
    }

    #[test]
    fn branch_target_matches_iss_formula() {
        let h = build();
        for (pc, imm) in [(0x100u32, 5i16), (0x100, -5), (0x0007_8000, 0x7fff)] {
            let (_, _, btgt, _) = eval(&h, pc, 0, imm as u16, 0);
            let expected = pc.wrapping_add(4).wrapping_add((imm as i32 as u32) << 2);
            assert_eq!(btgt, expected, "pc={pc:#x} imm={imm}");
        }
    }

    #[test]
    fn jump_target_combines_fields() {
        let h = build();
        let (_, _, _, jtgt) = eval(&h, 0x4000_1000, 0, 0, 0x12345);
        assert_eq!(jtgt, (0x4000_1004 & 0xf000_0000) | (0x12345 << 2));
    }

    #[test]
    fn groups_are_assigned() {
        let h = build();
        assert!(!h.netlist.cells_in_group("agu").is_empty());
        assert!(!h.netlist.cells_in_group("agu.branch").is_empty());
        assert!(!h.netlist.cells_in_group("agu.jump").is_empty());
    }
}
