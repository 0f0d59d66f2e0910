//! IEEE 1149.1 (JTAG) test access port generator.
//!
//! The generator produces the standard 16-state TAP controller finite state
//! machine, a 4-bit instruction register and an 8-bit test data register, all
//! as plain gates and flip-flops tagged with the `debug.jtag` group. The SoC
//! builder instantiates it to model the "entire JTAG access port" that the
//! case study of §4 found tied off in mission mode.

use netlist::{NetId, NetlistBuilder, Word};
use serde::{Deserialize, Serialize};

/// The TAP controller states, encoded in the conventional 4-bit encoding.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum TapState {
    TestLogicReset = 0xF,
    RunTestIdle = 0xC,
    SelectDrScan = 0x7,
    CaptureDr = 0x6,
    ShiftDr = 0x2,
    Exit1Dr = 0x1,
    PauseDr = 0x3,
    Exit2Dr = 0x0,
    UpdateDr = 0x5,
    SelectIrScan = 0x4,
    CaptureIr = 0xE,
    ShiftIr = 0xA,
    Exit1Ir = 0x9,
    PauseIr = 0xB,
    Exit2Ir = 0x8,
    UpdateIr = 0xD,
}

impl TapState {
    /// The next state given the TMS value, following the IEEE 1149.1 state
    /// diagram.
    pub fn next(self, tms: bool) -> TapState {
        use TapState::*;
        match (self, tms) {
            (TestLogicReset, false) => RunTestIdle,
            (TestLogicReset, true) => TestLogicReset,
            (RunTestIdle, false) => RunTestIdle,
            (RunTestIdle, true) => SelectDrScan,
            (SelectDrScan, false) => CaptureDr,
            (SelectDrScan, true) => SelectIrScan,
            (CaptureDr, false) => ShiftDr,
            (CaptureDr, true) => Exit1Dr,
            (ShiftDr, false) => ShiftDr,
            (ShiftDr, true) => Exit1Dr,
            (Exit1Dr, false) => PauseDr,
            (Exit1Dr, true) => UpdateDr,
            (PauseDr, false) => PauseDr,
            (PauseDr, true) => Exit2Dr,
            (Exit2Dr, false) => ShiftDr,
            (Exit2Dr, true) => UpdateDr,
            (UpdateDr, false) => RunTestIdle,
            (UpdateDr, true) => SelectDrScan,
            (SelectIrScan, false) => CaptureIr,
            (SelectIrScan, true) => TestLogicReset,
            (CaptureIr, false) => ShiftIr,
            (CaptureIr, true) => Exit1Ir,
            (ShiftIr, false) => ShiftIr,
            (ShiftIr, true) => Exit1Ir,
            (Exit1Ir, false) => PauseIr,
            (Exit1Ir, true) => UpdateIr,
            (PauseIr, false) => PauseIr,
            (PauseIr, true) => Exit2Ir,
            (Exit2Ir, false) => ShiftIr,
            (Exit2Ir, true) => UpdateIr,
            (UpdateIr, false) => RunTestIdle,
            (UpdateIr, true) => SelectDrScan,
        }
    }

    /// All sixteen states.
    pub const ALL: [TapState; 16] = [
        TapState::Exit2Dr,
        TapState::Exit1Dr,
        TapState::ShiftDr,
        TapState::PauseDr,
        TapState::SelectIrScan,
        TapState::UpdateDr,
        TapState::CaptureDr,
        TapState::SelectDrScan,
        TapState::Exit2Ir,
        TapState::Exit1Ir,
        TapState::ShiftIr,
        TapState::PauseIr,
        TapState::RunTestIdle,
        TapState::UpdateIr,
        TapState::CaptureIr,
        TapState::TestLogicReset,
    ];

    /// The state with the given 4-bit encoding.
    pub fn from_code(code: u8) -> TapState {
        TapState::ALL[code as usize & 0xF]
    }
}

/// Configuration of the JTAG port generator.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JtagConfig {
    /// Name prefix for the JTAG ports.
    pub port_prefix: String,
    /// Width of the instruction register.
    pub ir_width: usize,
    /// Width of the test data register.
    pub dr_width: usize,
}

impl Default for JtagConfig {
    fn default() -> Self {
        JtagConfig {
            port_prefix: "jtag".to_string(),
            ir_width: 4,
            dr_width: 8,
        }
    }
}

/// The ports and key internal nets of a generated JTAG TAP.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JtagPort {
    /// TMS primary-input net.
    pub tms: NetId,
    /// TDI primary-input net.
    pub tdi: NetId,
    /// TRST (active low) primary-input net.
    pub trst_n: NetId,
    /// TDO primary-output observation net.
    pub tdo: NetId,
    /// One-hot "TAP is in Shift-DR" net, exported to the debug unit.
    pub shift_dr: NetId,
    /// One-hot "TAP is in Update-DR" net.
    pub update_dr: NetId,
    /// The instruction register outputs.
    pub instruction: Word,
    /// The data register outputs.
    pub data_register: Word,
    /// All primary-input nets of the port (TMS, TDI, TRST) — the signals the
    /// mission configuration ties off.
    pub input_nets: Vec<NetId>,
}

/// Generates a JTAG TAP controller inside `builder`, clocked by `clock`.
///
/// All cells are created under the `debug.jtag` group.
pub fn generate_jtag(builder: &mut NetlistBuilder, clock: NetId, config: &JtagConfig) -> JtagPort {
    builder.push_group("debug");
    builder.push_group("jtag");

    let tms = builder.input(format!("{}_tms", config.port_prefix));
    let tdi = builder.input(format!("{}_tdi", config.port_prefix));
    let trst_n = builder.input(format!("{}_trst_n", config.port_prefix));

    // --- TAP controller state register -----------------------------------
    // The state is held in 4 flip-flops; the next state is selected by a
    // 16-way mux over the current state, with TMS choosing between the two
    // successor states of each entry.
    let state_d: Vec<NetId> = (0..4)
        .map(|i| builder.netlist_mut().add_net(format!("tap_state_d{i}")))
        .collect();
    let state_q: Word = state_d.iter().map(|&d| builder.dff(d, clock)).collect();

    let mut next_words: Vec<Word> = Vec::with_capacity(16);
    for code in 0..16u8 {
        let state = TapState::from_code(code);
        let next0 = state.next(false) as u8 as u64;
        let next1 = state.next(true) as u8 as u64;
        let w0 = builder.const_word(next0, 4);
        let w1 = builder.const_word(next1, 4);
        let chosen = builder.mux2_word(&w0, &w1, tms);
        next_words.push(chosen);
    }
    let mut next_state = builder.mux_tree(&next_words, &state_q);
    // Asynchronous-style TRST modelled synchronously: when TRST is asserted
    // (low) the next state is Test-Logic-Reset (all ones).
    let ones = builder.const_word(TapState::TestLogicReset as u8 as u64, 4);
    next_state = builder.mux2_word(&ones, &next_state, trst_n);
    for (i, (&d, &ns)) in state_d.iter().zip(next_state.iter()).enumerate() {
        let name = format!("u_tap_state_buf{i}");
        builder
            .netlist_mut()
            .add_cell(netlist::CellKind::Buf, name, &[ns], Some(d));
    }

    // --- State decoding ----------------------------------------------------
    let shift_dr = builder.eq_const(&state_q, TapState::ShiftDr as u8 as u64);
    let update_dr = builder.eq_const(&state_q, TapState::UpdateDr as u8 as u64);
    let shift_ir = builder.eq_const(&state_q, TapState::ShiftIr as u8 as u64);

    // --- Instruction register ---------------------------------------------
    let mut ir_q: Word = Vec::with_capacity(config.ir_width);
    {
        let mut prev = tdi;
        for i in 0..config.ir_width {
            let d = builder.netlist_mut().add_net(format!("jtag_ir_d{i}"));
            let q = builder.dff(d, clock);
            // Shift when in Shift-IR, otherwise hold.
            let held = builder.mux2(q, prev, shift_ir);
            let name = format!("u_jtag_ir_buf{i}");
            builder
                .netlist_mut()
                .add_cell(netlist::CellKind::Buf, name, &[held], Some(d));
            prev = q;
            ir_q.push(q);
        }
    }

    // --- Test data register -------------------------------------------------
    let mut dr_q: Word = Vec::with_capacity(config.dr_width);
    {
        let mut prev = tdi;
        for i in 0..config.dr_width {
            let d = builder.netlist_mut().add_net(format!("jtag_dr_d{i}"));
            let q = builder.dff(d, clock);
            let held = builder.mux2(q, prev, shift_dr);
            let name = format!("u_jtag_dr_buf{i}");
            builder
                .netlist_mut()
                .add_cell(netlist::CellKind::Buf, name, &[held], Some(d));
            prev = q;
            dr_q.push(q);
        }
    }

    // --- TDO ----------------------------------------------------------------
    let last_ir = *ir_q.last().expect("ir_width >= 1");
    let last_dr = *dr_q.last().expect("dr_width >= 1");
    let tdo = builder.mux2(last_dr, last_ir, shift_ir);
    builder.output(format!("{}_tdo", config.port_prefix), tdo);

    builder.pop_group();
    builder.pop_group();

    JtagPort {
        tms,
        tdi,
        trst_n,
        tdo,
        shift_dr,
        update_dr,
        instruction: ir_q,
        data_register: dr_q,
        input_nets: vec![tms, tdi, trst_n],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpg::{Logic, SeqSim};
    use netlist::NetlistBuilder;
    use std::collections::HashMap;

    #[test]
    fn state_diagram_is_closed_and_reaches_reset() {
        // From any state, five TMS=1 cycles reach Test-Logic-Reset.
        for &state in &TapState::ALL {
            let mut s = state;
            for _ in 0..5 {
                s = s.next(true);
            }
            assert_eq!(s, TapState::TestLogicReset, "from {state:?}");
        }
    }

    #[test]
    fn from_code_roundtrips() {
        for &state in &TapState::ALL {
            assert_eq!(TapState::from_code(state as u8), state);
        }
    }

    #[test]
    fn generated_tap_follows_the_state_diagram() {
        let mut b = NetlistBuilder::new("jtag_only");
        let ck = b.input("ck");
        let port = generate_jtag(&mut b, ck, &JtagConfig::default());
        // Export the state for observation through the shift_dr decode.
        b.output("shift_dr", port.shift_dr);
        let n = b.finish();
        let sim = SeqSim::new(&n).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        // Drive the TAP: reset released, TMS sequence 0,1,0,0 brings the
        // controller from whatever state into Shift-DR (via Run-Test/Idle,
        // Select-DR, Capture-DR, Shift-DR). First apply TRST to synchronise.
        let step = |state: &mut Vec<Logic>, tms: bool, trst: bool, sim: &SeqSim| {
            let mut v: HashMap<netlist::NetId, Logic> = HashMap::new();
            v.insert(port.tms, Logic::from_bool(tms));
            v.insert(port.tdi, Logic::Zero);
            v.insert(port.trst_n, Logic::from_bool(trst));
            v.insert(ck, Logic::One);
            sim.step(state, &v, None)
        };
        // Two cycles of reset.
        step(&mut state, true, false, &sim);
        step(&mut state, true, false, &sim);
        // Walk to Shift-DR.
        for tms in [false, true, false, false] {
            step(&mut state, tms, true, &sim);
        }
        // Now the decode net must be 1 during this cycle.
        let values = step(&mut state, false, true, &sim);
        assert_eq!(values[port.shift_dr.index()], Logic::One);
    }

    #[test]
    fn data_register_shifts_tdi_towards_tdo() {
        let mut b = NetlistBuilder::new("jtag_only");
        let ck = b.input("ck");
        let config = JtagConfig {
            dr_width: 3,
            ..JtagConfig::default()
        };
        let port = generate_jtag(&mut b, ck, &config);
        let n = b.finish();
        let sim = SeqSim::new(&n).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        let step = |state: &mut Vec<Logic>, tms: bool, tdi: bool, sim: &SeqSim| {
            let mut v: HashMap<netlist::NetId, Logic> = HashMap::new();
            v.insert(port.tms, Logic::from_bool(tms));
            v.insert(port.tdi, Logic::from_bool(tdi));
            v.insert(port.trst_n, Logic::One);
            v.insert(ck, Logic::One);
            sim.step(state, &v, None);
        };
        // Reach Shift-DR: TMS = 1(Select-DR from Idle after reset) ...
        // First force reset state with TRST.
        {
            let mut v: HashMap<netlist::NetId, Logic> = HashMap::new();
            v.insert(port.tms, Logic::One);
            v.insert(port.tdi, Logic::Zero);
            v.insert(port.trst_n, Logic::Zero);
            v.insert(ck, Logic::One);
            sim.step(&mut state, &v, None);
        }
        for tms in [false, true, false, false] {
            step(&mut state, tms, false, &sim);
        }
        // Shift three 1s through the 3-bit DR while staying in Shift-DR.
        for _ in 0..3 {
            step(&mut state, false, true, &sim);
        }
        // All DR bits are now 1.
        for &q in &port.data_register {
            let ff = n.driver_of(q).unwrap();
            assert_eq!(state[ff.index()], Logic::One);
        }
    }
}
