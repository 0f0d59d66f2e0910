//! Mux-scan insertion: converts every plain D flip-flop into a mux-scan
//! flip-flop and stitches the scan chains, exactly the structure §3.1 of the
//! paper analyses (Fig. 2).

use netlist::{CellAttrs, CellId, CellKind, NetId, Netlist, PinIndex};
use serde::{Deserialize, Serialize};

/// Configuration of scan insertion.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Number of scan chains to build.
    pub num_chains: usize,
    /// Name of the scan-enable primary input.
    pub scan_enable_name: String,
    /// Prefix of the per-chain scan-in primary inputs (`<prefix><i>`).
    pub scan_in_prefix: String,
    /// Prefix of the per-chain scan-out primary outputs.
    pub scan_out_prefix: String,
    /// Insert a buffer between consecutive scan cells (the scan-path buffers
    /// §3.1 calls out as additional on-line untestable logic).
    pub insert_path_buffers: bool,
    /// The value the scan-enable signal holds in mission mode (usually 0:
    /// functional path selected).
    pub mission_scan_enable_value: bool,
}

impl Default for ScanConfig {
    fn default() -> Self {
        ScanConfig {
            num_chains: 4,
            scan_enable_name: "scan_enable".to_string(),
            scan_in_prefix: "scan_in".to_string(),
            scan_out_prefix: "scan_out".to_string(),
            insert_path_buffers: true,
            mission_scan_enable_value: false,
        }
    }
}

/// One stitched scan chain.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScanChain {
    /// The scan-in `Input` pseudo-cell.
    pub scan_in_port: CellId,
    /// The net driven by the scan-in port.
    pub scan_in_net: NetId,
    /// The scan-out `Output` pseudo-cell.
    pub scan_out_port: CellId,
    /// The scan flip-flops, in shift order (scan-in first).
    pub cells: Vec<CellId>,
    /// Buffers inserted on the scan path (empty when
    /// [`ScanConfig::insert_path_buffers`] is off).
    pub path_buffers: Vec<CellId>,
}

/// The result of scan insertion.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScanInsertion {
    /// The stitched chains.
    pub chains: Vec<ScanChain>,
    /// The scan-enable `Input` pseudo-cell (if any flip-flop was converted).
    pub scan_enable_port: Option<CellId>,
    /// The net driven by the scan-enable port.
    pub scan_enable_net: Option<NetId>,
    /// The configuration used.
    pub config: ScanConfig,
}

impl ScanInsertion {
    /// Total number of scan flip-flops across all chains.
    pub fn num_scan_cells(&self) -> usize {
        self.chains.iter().map(|c| c.cells.len()).sum()
    }
}

/// Converts every live plain D flip-flop of `netlist` into a mux-scan
/// flip-flop and stitches them into `config.num_chains` chains.
///
/// Flip-flops that are already `Sdff` are left untouched and not re-stitched.
/// Returns the inserted structure (ports, chain order, scan-path buffers).
pub fn insert_scan(netlist: &mut Netlist, config: &ScanConfig) -> ScanInsertion {
    let flops: Vec<CellId> = netlist
        .sequential_cells()
        .into_iter()
        .filter(|&ff| matches!(netlist.cell(ff).kind(), CellKind::Dff { .. }))
        .collect();

    if flops.is_empty() {
        return ScanInsertion {
            chains: Vec::new(),
            scan_enable_port: None,
            scan_enable_net: None,
            config: config.clone(),
        };
    }

    let (se_port, se_net) = netlist.add_input(&config.scan_enable_name);

    let num_chains = config.num_chains.max(1).min(flops.len());
    let chain_len = flops.len().div_ceil(num_chains);
    let mut chains = Vec::with_capacity(num_chains);

    for (chain_idx, chunk) in flops.chunks(chain_len).enumerate() {
        let (si_port, si_net) =
            netlist.add_input(format!("{}{}", config.scan_in_prefix, chain_idx));
        let mut prev_net = si_net;
        let mut cells = Vec::with_capacity(chunk.len());
        let mut path_buffers = Vec::new();

        for (pos, &ff) in chunk.iter().enumerate() {
            let si_source = if config.insert_path_buffers && pos > 0 {
                let buf_out = netlist.add_net(format!("scan_path_{chain_idx}_{pos}"));
                let buf = netlist.add_cell(
                    CellKind::Buf,
                    format!("u_scan_buf_{chain_idx}_{pos}"),
                    &[prev_net],
                    Some(buf_out),
                );
                netlist.set_attrs(buf, CellAttrs::with_group("scan"));
                path_buffers.push(buf);
                buf_out
            } else {
                prev_net
            };

            let cell = netlist.cell(ff);
            let reset = cell.kind().reset();
            let old_inputs = cell.inputs().to_vec();
            // Plain DFF pin order: [D, CK] or [D, CK, RST].
            let d = old_inputs[0];
            let ck = old_inputs[1];
            let mut new_inputs = vec![d, si_source, se_net, ck];
            if reset.is_some() {
                new_inputs.push(old_inputs[2]);
            }
            netlist.replace_cell(ff, CellKind::Sdff { reset }, &new_inputs);
            cells.push(ff);
            prev_net = netlist
                .output_net(ff)
                .expect("flip-flops always drive a net");
        }

        let scan_out_port =
            netlist.add_output(format!("{}{}", config.scan_out_prefix, chain_idx), prev_net);
        chains.push(ScanChain {
            scan_in_port: si_port,
            scan_in_net: si_net,
            scan_out_port,
            cells,
            path_buffers,
        });
    }

    ScanInsertion {
        chains,
        scan_enable_port: Some(se_port),
        scan_enable_net: Some(se_net),
        config: config.clone(),
    }
}

/// Returns the scan-enable pin reference of a scan flip-flop, if the cell is
/// one.
pub fn scan_enable_pin(netlist: &Netlist, cell: CellId) -> Option<PinIndex> {
    netlist.cell(cell).kind().scan_enable_pin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{NetlistBuilder, Reset};

    fn design_with_ffs(n_ffs: usize) -> Netlist {
        let mut b = NetlistBuilder::new("seq");
        let ck = b.input("ck");
        let d = b.input_bus("d", n_ffs);
        let q = b.register(&d, ck);
        b.output_bus("q", &q);
        b.finish()
    }

    #[test]
    fn all_dffs_become_sdffs() {
        let mut n = design_with_ffs(10);
        let result = insert_scan(&mut n, &ScanConfig::default());
        assert_eq!(result.num_scan_cells(), 10);
        for ff in n.sequential_cells() {
            assert!(matches!(n.cell(ff).kind(), CellKind::Sdff { .. }));
        }
        // 4 chains for 10 FFs: sizes 3/3/3/1.
        assert_eq!(result.chains.len(), 4);
        let sizes: Vec<usize> = result.chains.iter().map(|c| c.cells.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        // Ports exist.
        assert!(n.find_input("scan_enable").is_some());
        assert!(n.find_input("scan_in0").is_some());
        assert!(n.find_cell("scan_out0").is_some());
    }

    #[test]
    fn chain_is_stitched_in_order() {
        let mut n = design_with_ffs(6);
        let config = ScanConfig {
            num_chains: 1,
            insert_path_buffers: false,
            ..ScanConfig::default()
        };
        let result = insert_scan(&mut n, &config);
        assert_eq!(result.chains.len(), 1);
        let chain = &result.chains[0];
        // The SI pin of the first cell is the scan-in net.
        let first = chain.cells[0];
        let si_pin = n.cell(first).kind().scan_in_pin().unwrap();
        assert_eq!(n.input_net(first, si_pin), chain.scan_in_net);
        // Each next cell's SI is the previous cell's Q.
        for w in chain.cells.windows(2) {
            let q = n.output_net(w[0]).unwrap();
            let si_pin = n.cell(w[1]).kind().scan_in_pin().unwrap();
            assert_eq!(n.input_net(w[1], si_pin), q);
        }
        // The scan-out observes the last Q.
        let last_q = n.output_net(*chain.cells.last().unwrap()).unwrap();
        assert_eq!(n.cell(chain.scan_out_port).inputs()[0], last_q);
    }

    #[test]
    fn path_buffers_are_inserted_and_tagged() {
        let mut n = design_with_ffs(5);
        let config = ScanConfig {
            num_chains: 1,
            insert_path_buffers: true,
            ..ScanConfig::default()
        };
        let result = insert_scan(&mut n, &config);
        let chain = &result.chains[0];
        assert_eq!(chain.path_buffers.len(), 4);
        for &buf in &chain.path_buffers {
            assert_eq!(n.cell(buf).kind(), CellKind::Buf);
            assert!(n.cell(buf).attrs().in_group("scan"));
        }
    }

    #[test]
    fn all_scan_cells_share_the_scan_enable() {
        let mut n = design_with_ffs(8);
        let result = insert_scan(&mut n, &ScanConfig::default());
        let se = result.scan_enable_net.unwrap();
        for chain in &result.chains {
            for &ff in &chain.cells {
                let pin = n.cell(ff).kind().scan_enable_pin().unwrap();
                assert_eq!(n.input_net(ff, pin), se);
            }
        }
    }

    #[test]
    fn dff_with_reset_keeps_reset_pin() {
        let mut b = NetlistBuilder::new("r");
        let ck = b.input("ck");
        let rst = b.input("rstn");
        let d = b.input("d");
        let q = b.dff_r(d, ck, rst, Reset::ActiveLow);
        b.output("q", q);
        let mut n = b.finish();
        insert_scan(&mut n, &ScanConfig::default());
        let ff = n.sequential_cells()[0];
        let kind = n.cell(ff).kind();
        assert_eq!(
            kind,
            CellKind::Sdff {
                reset: Some(Reset::ActiveLow)
            }
        );
        let rst_pin = kind.reset_pin().unwrap();
        assert_eq!(n.input_net(ff, rst_pin), rst);
    }

    #[test]
    fn design_without_ffs_is_untouched() {
        let mut b = NetlistBuilder::new("comb");
        let a = b.input("a");
        let y = b.not(a);
        b.output("y", y);
        let mut n = b.finish();
        let before = n.num_cells();
        let result = insert_scan(&mut n, &ScanConfig::default());
        assert!(result.chains.is_empty());
        assert!(result.scan_enable_port.is_none());
        assert_eq!(n.num_cells(), before);
    }

    #[test]
    fn scan_shift_actually_shifts() {
        use atpg::{Logic, SeqSim};
        use std::collections::HashMap;
        let mut n = design_with_ffs(3);
        let config = ScanConfig {
            num_chains: 1,
            insert_path_buffers: true,
            ..ScanConfig::default()
        };
        let result = insert_scan(&mut n, &config);
        let chain = &result.chains[0];
        let se = result.scan_enable_net.unwrap();
        let si = chain.scan_in_net;
        let ck = n.find_net("ck").unwrap();
        let sim = SeqSim::new(&n).unwrap();
        let mut state = sim.uniform_state(Logic::Zero);
        // Shift in 1, 0, 1 with SE=1.
        for bit in [true, false, true] {
            let mut v = HashMap::new();
            v.insert(se, Logic::One);
            v.insert(si, Logic::from_bool(bit));
            v.insert(ck, Logic::One);
            for d in n.primary_input_nets() {
                v.entry(d).or_insert(Logic::Zero);
            }
            sim.step(&mut state, &v, None);
        }
        // After three shifts the first value (1) reached the last flop.
        let last = *chain.cells.last().unwrap();
        let first = chain.cells[0];
        assert_eq!(state[last.index()], Logic::One);
        assert_eq!(state[first.index()], Logic::One);
        assert_eq!(state[chain.cells[1].index()], Logic::Zero);
    }
}
