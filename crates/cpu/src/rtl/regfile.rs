//! General-purpose register file generator: two combinational read ports and
//! one synchronous write port. Register 0 is hardwired to zero.

use netlist::{NetId, NetlistBuilder, Word};

/// The nets of a generated register file.
#[derive(Clone, Debug)]
pub struct RegFile {
    /// Per-register output words (`registers[0]` is the constant-zero word).
    pub registers: Vec<Word>,
    /// Read port A data (selected by `rs`).
    pub read_a: Word,
    /// Read port B data (selected by `rt`).
    pub read_b: Word,
}

/// Generates a register file with `num_regs` physical registers (2..=32).
///
/// * `rs`, `rt`: 5-bit read select fields.
/// * `dest`: 5-bit write select field.
/// * `write_enable`: global write strobe.
/// * `write_data`: 32-bit write value.
///
/// All cells are tagged with the `regfile` group.
#[allow(clippy::too_many_arguments)]
pub fn generate_regfile(
    builder: &mut NetlistBuilder,
    clock: NetId,
    num_regs: usize,
    rs: &[NetId],
    rt: &[NetId],
    dest: &[NetId],
    write_enable: NetId,
    write_data: &[NetId],
) -> RegFile {
    assert!((2..=32).contains(&num_regs), "num_regs must be in 2..=32");
    assert_eq!(rs.len(), 5);
    assert_eq!(rt.len(), 5);
    assert_eq!(dest.len(), 5);
    assert_eq!(write_data.len(), 32);

    builder.push_group("regfile");

    let zero_word = builder.const_word(0, 32);
    let mut registers: Vec<Word> = Vec::with_capacity(num_regs);
    registers.push(zero_word.clone());

    for index in 1..num_regs {
        let select = builder.eq_const(dest, index as u64);
        let enable = builder.and2(select, write_enable);
        let q = builder.register_en(write_data, enable, clock);
        registers.push(q);
    }

    // Read ports: a mux tree over the physical registers (padded to the next
    // power of two with the zero word), gated so that selects beyond the
    // physical range read zero. With the full 32-register configuration the
    // gating disappears into simple wiring of the 5 select bits.
    let select_bits = (usize::BITS - (num_regs - 1).leading_zeros()) as usize;
    let padded: Vec<Word> = (0..(1usize << select_bits))
        .map(|i| {
            registers
                .get(i)
                .cloned()
                .unwrap_or_else(|| zero_word.clone())
        })
        .collect();
    let read_port = |builder: &mut NetlistBuilder, sel: &[NetId]| -> Word {
        let raw = builder.mux_tree(&padded, &sel[..select_bits]);
        if select_bits == 5 {
            raw
        } else {
            let out_of_range = builder.or(&sel[select_bits..]);
            let in_range = builder.not(out_of_range);
            raw.iter().map(|&bit| builder.and2(bit, in_range)).collect()
        }
    };
    let read_a = read_port(builder, rs);
    let read_b = read_port(builder, rt);

    builder.pop_group();

    RegFile {
        registers,
        read_a,
        read_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{Logic, SeqSim};
    use netlist::Netlist;
    use std::collections::HashMap;

    struct Harness {
        netlist: Netlist,
        clock: NetId,
        rs: Word,
        rt: Word,
        dest: Word,
        we: NetId,
        wdata: Word,
        read_a: Word,
        read_b: Word,
    }

    fn build(num_regs: usize) -> Harness {
        let mut b = NetlistBuilder::new("rf");
        let clock = b.input("ck");
        let rs = b.input_bus("rs", 5);
        let rt = b.input_bus("rt", 5);
        let dest = b.input_bus("dest", 5);
        let we = b.input("we");
        let wdata = b.input_bus("wdata", 32);
        let rf = generate_regfile(&mut b, clock, num_regs, &rs, &rt, &dest, we, &wdata);
        b.output_bus("ra", &rf.read_a);
        b.output_bus("rb", &rf.read_b);
        Harness {
            netlist: b.finish(),
            clock,
            rs,
            rt,
            dest,
            we,
            wdata,
            read_a: rf.read_a,
            read_b: rf.read_b,
        }
    }

    fn set_word(v: &mut HashMap<NetId, Logic>, word: &[NetId], value: u64) {
        for (i, &net) in word.iter().enumerate() {
            v.insert(net, Logic::from_bool((value >> i) & 1 == 1));
        }
    }

    fn get_word(values: &[Logic], word: &[NetId]) -> u64 {
        word.iter()
            .enumerate()
            .map(|(i, &net)| (values[net.index()].to_bool().unwrap_or(false) as u64) << i)
            .sum()
    }

    #[test]
    fn write_then_read_back() {
        let h = build(32);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        // Write 0xCAFE to r5.
        let mut v = HashMap::new();
        v.insert(h.clock, Logic::One);
        v.insert(h.we, Logic::One);
        set_word(&mut v, &h.dest, 5);
        set_word(&mut v, &h.wdata, 0xCAFE);
        set_word(&mut v, &h.rs, 0);
        set_word(&mut v, &h.rt, 0);
        sim.step(&mut state, &v, None);
        // Read r5 on port A, r0 on port B.
        let mut v2 = HashMap::new();
        v2.insert(h.clock, Logic::One);
        v2.insert(h.we, Logic::Zero);
        set_word(&mut v2, &h.dest, 0);
        set_word(&mut v2, &h.wdata, 0);
        set_word(&mut v2, &h.rs, 5);
        set_word(&mut v2, &h.rt, 0);
        let values = sim.step(&mut state, &v2, None);
        assert_eq!(get_word(&values, &h.read_a), 0xCAFE);
        assert_eq!(get_word(&values, &h.read_b), 0);
    }

    #[test]
    fn register_zero_ignores_writes() {
        let h = build(32);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        let mut v = HashMap::new();
        v.insert(h.clock, Logic::One);
        v.insert(h.we, Logic::One);
        set_word(&mut v, &h.dest, 0);
        set_word(&mut v, &h.wdata, 0xFFFF_FFFF);
        set_word(&mut v, &h.rs, 0);
        set_word(&mut v, &h.rt, 0);
        sim.step(&mut state, &v, None);
        let values = sim.step(&mut state, &v, None);
        assert_eq!(get_word(&values, &h.read_a), 0);
    }

    #[test]
    fn write_enable_gates_the_write() {
        let h = build(16);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        let mut v = HashMap::new();
        v.insert(h.clock, Logic::One);
        v.insert(h.we, Logic::Zero);
        set_word(&mut v, &h.dest, 3);
        set_word(&mut v, &h.wdata, 0x1234);
        set_word(&mut v, &h.rs, 3);
        set_word(&mut v, &h.rt, 3);
        sim.step(&mut state, &v, None);
        let values = sim.step(&mut state, &v, None);
        assert_eq!(get_word(&values, &h.read_a), 0, "write was disabled");
    }

    #[test]
    fn unimplemented_registers_read_zero() {
        let h = build(8);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        // Attempt to write r20 (not physically present) and read it back.
        let mut v = HashMap::new();
        v.insert(h.clock, Logic::One);
        v.insert(h.we, Logic::One);
        set_word(&mut v, &h.dest, 20);
        set_word(&mut v, &h.wdata, 0xFF);
        set_word(&mut v, &h.rs, 20);
        set_word(&mut v, &h.rt, 1);
        sim.step(&mut state, &v, None);
        let values = sim.step(&mut state, &v, None);
        assert_eq!(get_word(&values, &h.read_a), 0);
    }

    #[test]
    fn cells_are_grouped() {
        let h = build(8);
        assert!(!h.netlist.cells_in_group("regfile").is_empty());
        // And the flip-flops all live in that group.
        for ff in h.netlist.sequential_cells() {
            assert!(h.netlist.cell(ff).attrs().in_group("regfile"));
        }
    }
}
