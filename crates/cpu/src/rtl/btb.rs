//! Branch target buffer generator: a small direct-mapped prediction memory
//! holding branch addresses — the "prediction unit" §3.3 lists among the
//! modules whose registers freeze under a restricted memory map.

use netlist::{NetId, NetlistBuilder, Word};

/// The nets of a generated branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    /// Prediction hit for the currently fetched PC.
    pub hit: NetId,
    /// The predicted target of the indexed entry.
    pub predicted_target: Word,
    /// The tag registers of every entry (high PC bits).
    pub tag_registers: Vec<Word>,
    /// The target registers of every entry (full target addresses).
    pub target_registers: Vec<Word>,
    /// The valid bits of every entry.
    pub valid_bits: Vec<NetId>,
}

/// Generates a direct-mapped BTB with `entries` entries (must be a power of
/// two, at least 2).
///
/// * `pc`: the fetch PC.
/// * `update`: strobe asserted when a taken branch/jump commits.
/// * `update_target`: the resolved target address to store.
///
/// Entries are indexed by `pc[2 .. 2+log2(entries)]`; the tag is the rest of
/// the word-aligned PC. Cells are tagged with the `btb` group and every tag /
/// target flip-flop carries its address-bit attribute so that the memory-map
/// rule can find the frozen bits.
pub fn generate_btb(
    builder: &mut NetlistBuilder,
    clock: NetId,
    pc: &[NetId],
    update: NetId,
    update_target: &[NetId],
    entries: usize,
) -> Btb {
    assert!(
        entries.is_power_of_two() && entries >= 2,
        "entries must be a power of two >= 2"
    );
    assert_eq!(pc.len(), 32);
    assert_eq!(update_target.len(), 32);

    builder.push_group("btb");

    let index_bits = entries.trailing_zeros() as usize;
    let index: Word = pc[2..2 + index_bits].to_vec();
    let tag: Word = pc[2 + index_bits..].to_vec();
    let tag_width = tag.len();

    let entry_select = builder.decoder(&index);

    let mut tag_registers = Vec::with_capacity(entries);
    let mut target_registers = Vec::with_capacity(entries);
    let mut valid_bits = Vec::with_capacity(entries);
    let mut entry_hits = Vec::with_capacity(entries);

    for (entry, &select) in entry_select.iter().enumerate() {
        let write = builder.and2(update, select);
        // Valid bit: sticky once set.
        let valid_q = {
            let d = builder.netlist_mut().add_net(format!("btb_valid_d{entry}"));
            let q = builder.dff(d, clock);
            let set = builder.or2(q, write);
            let name = format!("u_btb_valid_buf{entry}");
            builder
                .netlist_mut()
                .add_cell(netlist::CellKind::Buf, name, &[set], Some(d));
            q
        };
        let tag_q = builder.register_en(&tag, write, clock);
        let target_q = builder.register_en(update_target, write, clock);

        // Attach address-bit attributes: tag bit i stores PC bit 2+index_bits+i,
        // target bit i stores target-address bit i.
        for (i, &q) in tag_q.iter().enumerate() {
            if let Some(ff) = builder.netlist().driver_of(q) {
                builder
                    .netlist_mut()
                    .set_address_bit(ff, (2 + index_bits + i) as u32);
            }
        }
        for (i, &q) in target_q.iter().enumerate() {
            if let Some(ff) = builder.netlist().driver_of(q) {
                builder.netlist_mut().set_address_bit(ff, i as u32);
            }
        }

        let tag_match = builder.eq_words(&tag_q, &tag);
        let hit = builder.and2(valid_q, tag_match);
        let gated_hit = builder.and2(hit, select);
        entry_hits.push(gated_hit);

        tag_registers.push(tag_q);
        target_registers.push(target_q);
        valid_bits.push(valid_q);
    }
    let _ = tag_width;

    let hit = builder.or(&entry_hits);
    let predicted_target = builder.mux_tree(&target_registers, &index);

    builder.pop_group();

    Btb {
        hit,
        predicted_target,
        tag_registers,
        target_registers,
        valid_bits,
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
        pc: Word,
        update: NetId,
        target: Word,
        btb: Btb,
    }

    fn build(entries: usize) -> Harness {
        let mut b = NetlistBuilder::new("btb");
        let clock = b.input("ck");
        let pc = b.input_bus("pc", 32);
        let update = b.input("update");
        let target = b.input_bus("target", 32);
        let btb = generate_btb(&mut b, clock, &pc, update, &target, entries);
        b.output("hit", btb.hit);
        b.output_bus("pred", &btb.predicted_target);
        Harness {
            netlist: b.finish(),
            clock,
            pc,
            update,
            target,
            btb,
        }
    }

    fn step(
        h: &Harness,
        sim: &SeqSim,
        state: &mut Vec<Logic>,
        pc: u32,
        update: bool,
        target: u32,
    ) -> Vec<Logic> {
        let mut v = HashMap::new();
        v.insert(h.clock, Logic::One);
        v.insert(h.update, Logic::from_bool(update));
        for (i, &net) in h.pc.iter().enumerate() {
            v.insert(net, Logic::from_bool((pc >> i) & 1 == 1));
        }
        for (i, &net) in h.target.iter().enumerate() {
            v.insert(net, Logic::from_bool((target >> i) & 1 == 1));
        }
        sim.step(state, &v, None)
    }

    fn word_value(values: &[Logic], word: &[NetId]) -> u32 {
        word.iter()
            .enumerate()
            .map(|(i, &net)| (values[net.index()].to_bool().unwrap_or(false) as u32) << i)
            .sum()
    }

    #[test]
    fn miss_then_hit_after_update() {
        let h = build(4);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        let pc = 0x0000_0104;
        // Initially a miss.
        let values = step(&h, &sim, &mut state, pc, false, 0);
        assert_eq!(values[h.btb.hit.index()], Logic::Zero);
        // Record a taken branch at this PC towards 0x200.
        step(&h, &sim, &mut state, pc, true, 0x200);
        // Now the same PC hits and predicts 0x200.
        let values = step(&h, &sim, &mut state, pc, false, 0);
        assert_eq!(values[h.btb.hit.index()], Logic::One);
        assert_eq!(word_value(&values, &h.btb.predicted_target), 0x200);
        // A different PC mapping to the same entry with a different tag misses.
        let values = step(&h, &sim, &mut state, pc + 0x1000, false, 0);
        assert_eq!(values[h.btb.hit.index()], Logic::Zero);
        // A different entry (different index bits) also misses.
        let values = step(&h, &sim, &mut state, pc + 4, false, 0);
        assert_eq!(values[h.btb.hit.index()], Logic::Zero);
    }

    #[test]
    fn entries_are_independent() {
        let h = build(4);
        let sim = SeqSim::new(&h.netlist).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        step(&h, &sim, &mut state, 0x100, true, 0xAAA0);
        step(&h, &sim, &mut state, 0x104, true, 0xBBB0);
        let values = step(&h, &sim, &mut state, 0x100, false, 0);
        assert_eq!(word_value(&values, &h.btb.predicted_target), 0xAAA0);
        let values = step(&h, &sim, &mut state, 0x104, false, 0);
        assert_eq!(word_value(&values, &h.btb.predicted_target), 0xBBB0);
    }

    #[test]
    fn address_bit_attributes_are_attached() {
        let h = build(2);
        let mut tagged = 0;
        for ff in h.netlist.sequential_cells() {
            if h.netlist.cell(ff).attrs().address_bit.is_some() {
                tagged += 1;
                assert!(h.netlist.cell(ff).attrs().in_group("btb"));
            }
        }
        // 2 entries x (29 tag bits + 32 target bits).
        assert_eq!(tagged, 2 * (29 + 32));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_entries_rejected() {
        build(3);
    }
}
