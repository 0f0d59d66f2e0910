//! Instruction decoder generator: splits the 32-bit instruction word into its
//! fields and produces the control signals of the single-cycle datapath.

use crate::isa::fields;
use netlist::{NetId, NetlistBuilder, Word};

/// Instruction fields (pure wiring, no gates).
#[derive(Clone, Debug)]
pub struct InstrFields {
    /// Bits 31:26.
    pub opcode: Word,
    /// Bits 25:21.
    pub rs: Word,
    /// Bits 20:16.
    pub rt: Word,
    /// Bits 15:11.
    pub rd: Word,
    /// Bits 10:6.
    pub shamt: Word,
    /// Bits 5:0.
    pub funct: Word,
    /// Bits 15:0.
    pub imm16: Word,
    /// Bits 25:0.
    pub target26: Word,
}

impl InstrFields {
    /// Splits an instruction word into its fields.
    pub fn split(instruction: &[NetId]) -> Self {
        assert_eq!(instruction.len(), 32);
        InstrFields {
            opcode: instruction[26..32].to_vec(),
            rs: instruction[21..26].to_vec(),
            rt: instruction[16..21].to_vec(),
            rd: instruction[11..16].to_vec(),
            shamt: instruction[6..11].to_vec(),
            funct: instruction[0..6].to_vec(),
            imm16: instruction[0..16].to_vec(),
            target26: instruction[0..26].to_vec(),
        }
    }
}

/// The decoded control signals.
#[derive(Clone, Debug)]
pub struct Controls {
    /// R-type instruction.
    pub is_rtype: NetId,
    /// Individual instruction strobes.
    pub is_addi: NetId,
    /// `andi`
    pub is_andi: NetId,
    /// `ori`
    pub is_ori: NetId,
    /// `xori`
    pub is_xori: NetId,
    /// `lui`
    pub is_lui: NetId,
    /// `lw`
    pub is_lw: NetId,
    /// `sw`
    pub is_sw: NetId,
    /// `beq`
    pub is_beq: NetId,
    /// `bne`
    pub is_bne: NetId,
    /// `j`
    pub is_j: NetId,
    /// `jal`
    pub is_jal: NetId,
    /// `halt`
    pub is_halt: NetId,
    /// R-type function strobes (already gated with `is_rtype`).
    pub fn_add: NetId,
    /// `sub`
    pub fn_sub: NetId,
    /// `and`
    pub fn_and: NetId,
    /// `or`
    pub fn_or: NetId,
    /// `xor`
    pub fn_xor: NetId,
    /// `sltu`
    pub fn_sltu: NetId,
    /// `sll`
    pub fn_sll: NetId,
    /// `srl`
    pub fn_srl: NetId,
    /// Register-file write strobe.
    pub reg_write: NetId,
    /// Select the immediate as the second ALU operand.
    pub alu_src_imm: NetId,
    /// Zero-extend (rather than sign-extend) the immediate.
    pub imm_zero_extend: NetId,
    /// Write-back selects the load data.
    pub wb_from_mem: NetId,
    /// Write-back selects the upper immediate.
    pub wb_from_lui: NetId,
    /// Write-back selects the link address (pc+4).
    pub wb_from_link: NetId,
    /// Data-memory write strobe.
    pub mem_write: NetId,
    /// Data-memory read strobe.
    pub mem_read: NetId,
    /// Destination is the `rd` field (R-type).
    pub dest_is_rd: NetId,
    /// Destination is register 31 (`jal`).
    pub dest_is_link: NetId,
    /// Taken-control-transfer strobes.
    pub is_jump: NetId,
    /// Conditional-branch strobe (`beq` or `bne`).
    pub is_branch: NetId,
}

/// Generates the control decoder from the opcode and function fields.
///
/// All cells are tagged with the `decode` group.
pub fn generate_controls(builder: &mut NetlistBuilder, fields_in: &InstrFields) -> Controls {
    builder.push_group("decode");

    let op = &fields_in.opcode;
    let funct = &fields_in.funct;

    let is_rtype = builder.eq_const(op, fields::OP_RTYPE as u64);
    let is_addi = builder.eq_const(op, fields::OP_ADDI as u64);
    let is_andi = builder.eq_const(op, fields::OP_ANDI as u64);
    let is_ori = builder.eq_const(op, fields::OP_ORI as u64);
    let is_xori = builder.eq_const(op, fields::OP_XORI as u64);
    let is_lui = builder.eq_const(op, fields::OP_LUI as u64);
    let is_lw = builder.eq_const(op, fields::OP_LW as u64);
    let is_sw = builder.eq_const(op, fields::OP_SW as u64);
    let is_beq = builder.eq_const(op, fields::OP_BEQ as u64);
    let is_bne = builder.eq_const(op, fields::OP_BNE as u64);
    let is_j = builder.eq_const(op, fields::OP_J as u64);
    let is_jal = builder.eq_const(op, fields::OP_JAL as u64);
    let is_halt = builder.eq_const(op, fields::OP_HALT as u64);

    let fn_dec = |builder: &mut NetlistBuilder, code: u32| {
        let raw = builder.eq_const(funct, code as u64);
        builder.and2(raw, is_rtype)
    };
    let fn_add = fn_dec(builder, fields::FN_ADD);
    let fn_sub = fn_dec(builder, fields::FN_SUB);
    let fn_and = fn_dec(builder, fields::FN_AND);
    let fn_or = fn_dec(builder, fields::FN_OR);
    let fn_xor = fn_dec(builder, fields::FN_XOR);
    let fn_sltu = fn_dec(builder, fields::FN_SLTU);
    let fn_sll = fn_dec(builder, fields::FN_SLL);
    let fn_srl = fn_dec(builder, fields::FN_SRL);

    let reg_write = builder.or(&[
        is_rtype, is_addi, is_andi, is_ori, is_xori, is_lui, is_lw, is_jal,
    ]);
    let alu_src_imm = builder.or(&[is_addi, is_andi, is_ori, is_xori, is_lw, is_sw]);
    let imm_zero_extend = builder.or(&[is_andi, is_ori, is_xori]);
    let is_jump = builder.or2(is_j, is_jal);
    let is_branch = builder.or2(is_beq, is_bne);

    builder.pop_group();

    Controls {
        is_rtype,
        is_addi,
        is_andi,
        is_ori,
        is_xori,
        is_lui,
        is_lw,
        is_sw,
        is_beq,
        is_bne,
        is_j,
        is_jal,
        is_halt,
        fn_add,
        fn_sub,
        fn_and,
        fn_or,
        fn_xor,
        fn_sltu,
        fn_sll,
        fn_srl,
        reg_write,
        alu_src_imm,
        imm_zero_extend,
        wb_from_mem: is_lw,
        wb_from_lui: is_lui,
        wb_from_link: is_jal,
        mem_write: is_sw,
        mem_read: is_lw,
        dest_is_rd: is_rtype,
        dest_is_link: is_jal,
        is_jump,
        is_branch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Instr;
    use atpg::{CombSim, Logic};
    use netlist::Netlist;

    struct Harness {
        netlist: Netlist,
        instr: Word,
        controls: Controls,
    }

    fn build() -> Harness {
        let mut b = NetlistBuilder::new("dec");
        let instr = b.input_bus("instr", 32);
        let fields_in = InstrFields::split(&instr);
        let controls = generate_controls(&mut b, &fields_in);
        b.output("reg_write", controls.reg_write);
        b.output("mem_write", controls.mem_write);
        Harness {
            netlist: b.finish(),
            instr,
            controls,
        }
    }

    fn decode(h: &Harness, instr: Instr) -> Vec<(NetId, bool)> {
        let word = instr.encode();
        let sim = CombSim::new(&h.netlist).unwrap();
        let mut values = sim.blank_values();
        for (i, &net) in h.instr.iter().enumerate() {
            values[net.index()] = Logic::from_bool((word >> i) & 1 == 1);
        }
        sim.propagate(&mut values, None);
        let nets = [
            h.controls.is_rtype,
            h.controls.reg_write,
            h.controls.mem_write,
            h.controls.mem_read,
            h.controls.is_branch,
            h.controls.is_jump,
            h.controls.is_halt,
            h.controls.fn_add,
            h.controls.fn_sub,
            h.controls.alu_src_imm,
            h.controls.imm_zero_extend,
            h.controls.dest_is_rd,
            h.controls.dest_is_link,
        ];
        nets.iter()
            .map(|&n| (n, values[n.index()].to_bool().unwrap()))
            .collect()
    }

    fn value_of(results: &[(NetId, bool)], net: NetId) -> bool {
        results.iter().find(|&&(n, _)| n == net).unwrap().1
    }

    #[test]
    fn rtype_add_controls() {
        let h = build();
        let r = decode(
            &h,
            Instr::Add {
                rd: 1,
                rs: 2,
                rt: 3,
            },
        );
        assert!(value_of(&r, h.controls.is_rtype));
        assert!(value_of(&r, h.controls.reg_write));
        assert!(value_of(&r, h.controls.fn_add));
        assert!(!value_of(&r, h.controls.fn_sub));
        assert!(!value_of(&r, h.controls.mem_write));
        assert!(!value_of(&r, h.controls.alu_src_imm));
        assert!(value_of(&r, h.controls.dest_is_rd));
    }

    #[test]
    fn store_controls() {
        let h = build();
        let r = decode(
            &h,
            Instr::Sw {
                rt: 2,
                rs: 1,
                imm: 4,
            },
        );
        assert!(value_of(&r, h.controls.mem_write));
        assert!(!value_of(&r, h.controls.reg_write));
        assert!(value_of(&r, h.controls.alu_src_imm));
        assert!(!value_of(&r, h.controls.imm_zero_extend));
    }

    #[test]
    fn load_controls() {
        let h = build();
        let r = decode(
            &h,
            Instr::Lw {
                rt: 2,
                rs: 1,
                imm: 4,
            },
        );
        assert!(value_of(&r, h.controls.mem_read));
        assert!(value_of(&r, h.controls.reg_write));
        assert!(!value_of(&r, h.controls.mem_write));
    }

    #[test]
    fn branch_jump_halt_controls() {
        let h = build();
        let r = decode(
            &h,
            Instr::Beq {
                rs: 1,
                rt: 2,
                imm: 3,
            },
        );
        assert!(value_of(&r, h.controls.is_branch));
        assert!(!value_of(&r, h.controls.reg_write));
        let r = decode(&h, Instr::Jal { target: 0x40 });
        assert!(value_of(&r, h.controls.is_jump));
        assert!(value_of(&r, h.controls.reg_write));
        assert!(value_of(&r, h.controls.dest_is_link));
        let r = decode(&h, Instr::Halt);
        assert!(value_of(&r, h.controls.is_halt));
        assert!(!value_of(&r, h.controls.reg_write));
    }

    #[test]
    fn logical_immediates_zero_extend() {
        let h = build();
        let r = decode(
            &h,
            Instr::Andi {
                rt: 1,
                rs: 2,
                imm: 0xff,
            },
        );
        assert!(value_of(&r, h.controls.imm_zero_extend));
        assert!(value_of(&r, h.controls.alu_src_imm));
        let r = decode(
            &h,
            Instr::Addi {
                rt: 1,
                rs: 2,
                imm: -1,
            },
        );
        assert!(!value_of(&r, h.controls.imm_zero_extend));
    }

    #[test]
    fn nop_writes_register_zero_only() {
        let h = build();
        let r = decode(&h, Instr::Nop);
        // NOP is sll r0, r0, 0: technically an R-type write to r0 which the
        // register file ignores.
        assert!(value_of(&r, h.controls.is_rtype));
        assert!(value_of(&r, h.controls.reg_write));
    }

    #[test]
    fn decode_cells_are_grouped() {
        let h = build();
        assert!(!h.netlist.cells_in_group("decode").is_empty());
    }
}
