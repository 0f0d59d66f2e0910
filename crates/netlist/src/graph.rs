//! Graph algorithms over a [`Netlist`]: levelization of the combinational
//! logic and fan-out cone extraction.
//!
//! Flip-flop outputs, tie cells and primary inputs are treated as sources;
//! flip-flop inputs and primary outputs are sinks. This "cuts" the design at
//! the sequential elements so the combinational portion is a DAG.

use crate::{CellId, CellKind, NetId, Netlist};
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// Error returned when the combinational logic contains a cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombinationalLoop {
    /// A cell that participates in the loop.
    pub cell: CellId,
    /// Instance name of that cell.
    pub cell_name: String,
}

impl fmt::Display for CombinationalLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "combinational loop detected through cell `{}`",
            self.cell_name
        )
    }
}

impl std::error::Error for CombinationalLoop {}

/// Result of levelizing a netlist: a valid topological evaluation order of
/// the combinational cells plus per-cell logic depth.
#[derive(Clone, Debug)]
pub struct Levelization {
    /// Combinational cells (gates, muxes, buffers) in topological order.
    pub order: Vec<CellId>,
    /// Logic level of every cell (indexed by `CellId::index()`); sources are
    /// level 0, a gate is 1 + max level of its driver cells. Sequential and
    /// port cells keep level 0.
    pub level: Vec<u32>,
    /// Maximum combinational depth of the design.
    pub max_level: u32,
}

/// Computes a topological order of the live combinational cells.
///
/// # Errors
///
/// Returns [`CombinationalLoop`] if the combinational logic is cyclic.
pub fn levelize(netlist: &Netlist) -> Result<Levelization, CombinationalLoop> {
    let num_cells = netlist.num_cells();
    let mut level = vec![0u32; num_cells];
    let mut pending = vec![0u32; num_cells];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let mut comb_total = 0usize;

    for (id, cell) in netlist.live_cells() {
        if !cell.kind().is_combinational() {
            continue;
        }
        comb_total += 1;
        // Count how many of this cell's input nets are driven by another
        // *combinational* cell; those must be evaluated first.
        let mut deps = 0u32;
        for &net in cell.inputs() {
            if let Some(driver) = netlist.driver_of(net) {
                if netlist.cell(driver).kind().is_combinational() && !netlist.cell(driver).is_dead()
                {
                    deps += 1;
                }
            }
        }
        pending[id.index()] = deps;
        if deps == 0 {
            queue.push_back(id);
        }
    }

    let mut max_level = 0u32;
    while let Some(id) = queue.pop_front() {
        order.push(id);
        let my_level = level[id.index()];
        if let Some(out) = netlist.output_net(id) {
            for load in netlist.loads_of(out) {
                let sink = load.cell;
                let sink_cell = netlist.cell(sink);
                if sink_cell.is_dead() || !sink_cell.kind().is_combinational() {
                    continue;
                }
                level[sink.index()] = level[sink.index()].max(my_level + 1);
                max_level = max_level.max(level[sink.index()]);
                pending[sink.index()] -= 1;
                if pending[sink.index()] == 0 {
                    queue.push_back(sink);
                }
            }
        }
    }

    if order.len() != comb_total {
        // Some cell never reached zero pending dependencies: a loop.
        let culprit = netlist
            .live_cells()
            .find(|(id, c)| c.kind().is_combinational() && pending[id.index()] > 0)
            .map(|(id, c)| (id, c.name().to_string()))
            .expect("loop detected but no culprit found");
        return Err(CombinationalLoop {
            cell: culprit.0,
            cell_name: culprit.1,
        });
    }

    Ok(Levelization {
        order,
        level,
        max_level,
    })
}

/// Returns every live cell in the transitive fan-out of `nets`, stopping at
/// (but including) sequential cells and primary outputs when
/// `stop_at_sequential` is set.
pub fn fanout_cone(netlist: &Netlist, nets: &[NetId], stop_at_sequential: bool) -> HashSet<CellId> {
    let mut seen: HashSet<CellId> = HashSet::new();
    let mut stack: Vec<NetId> = nets.to_vec();
    while let Some(net) = stack.pop() {
        for load in netlist.loads_of(net) {
            let sink = load.cell;
            if netlist.cell(sink).is_dead() || !seen.insert(sink) {
                continue;
            }
            let kind = netlist.cell(sink).kind();
            if stop_at_sequential && (kind.is_sequential() || kind == CellKind::Output) {
                continue;
            }
            if let Some(out) = netlist.output_net(sink) {
                stack.push(out);
            }
        }
    }
    seen
}

/// Reusable allocation backing for repeated
/// [`fanout_cone_with`](ConeExtractor::fanout_cone_with) calls: a dense
/// visited bitmap (cleared incrementally between extractions) plus the
/// traversal stack and result vector.
///
/// One extraction per fault site is the hot shape of cone-clipped ATPG, so
/// the marks are sized once for the design and only the entries touched by
/// the previous cone are cleared.
#[derive(Clone, Debug)]
pub struct ConeExtractor {
    cell_mark: Vec<bool>,
    stack: Vec<NetId>,
    cells: Vec<CellId>,
}

impl ConeExtractor {
    /// Creates an extractor sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        ConeExtractor {
            cell_mark: vec![false; netlist.num_cells()],
            stack: Vec::new(),
            cells: Vec::new(),
        }
    }

    /// The fanout cone of `site_nets`, stopping at (but including)
    /// sequential cells and primary outputs — the only cells whose values
    /// can ever differ between a good and a faulty machine for a fault on
    /// the sites. Sorted by arena index; valid until the next extraction.
    pub fn fanout_cone_with(&mut self, netlist: &Netlist, site_nets: &[NetId]) -> &[CellId] {
        debug_assert_eq!(self.cell_mark.len(), netlist.num_cells());
        for &cell in &self.cells {
            self.cell_mark[cell.index()] = false;
        }
        self.cells.clear();
        self.stack.clear();
        self.stack.extend_from_slice(site_nets);
        while let Some(net) = self.stack.pop() {
            for load in netlist.loads_of(net) {
                let sink = load.cell;
                let cell = netlist.cell(sink);
                if cell.is_dead() || self.cell_mark[sink.index()] {
                    continue;
                }
                self.cell_mark[sink.index()] = true;
                self.cells.push(sink);
                let kind = cell.kind();
                if kind.is_sequential() || kind == CellKind::Output {
                    continue;
                }
                if let Some(out) = netlist.output_net(sink) {
                    self.stack.push(out);
                }
            }
        }
        self.cells.sort_unstable();
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;

    fn sample() -> (Netlist, NetId, NetId) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let ck = b.input("ck");
        let x = b.and2(a, c);
        let q = b.dff(x, ck);
        let y = b.or2(q, a);
        b.output("y", y);
        (b.finish(), x, y)
    }

    #[test]
    fn levelize_orders_dependencies() {
        let (n, ..) = sample();
        let lev = levelize(&n).unwrap();
        assert_eq!(lev.order.len(), 2); // the AND and the OR
        for &cell in &lev.order {
            assert!(n.cell(cell).kind().is_combinational());
        }
        assert!(lev.max_level <= 1);
    }

    #[test]
    fn levelize_detects_loops() {
        let mut nl = Netlist::new("loop");
        let (_, a) = nl.add_input("a");
        let w1 = nl.add_net("w1");
        let w2 = nl.add_net("w2");
        nl.add_cell(CellKind::And(2), "g1", &[a, w2], Some(w1));
        nl.add_cell(CellKind::Buf, "g2", &[w1], Some(w2));
        let err = levelize(&nl).unwrap_err();
        assert!(err.cell_name == "g1" || err.cell_name == "g2");
        assert!(err.to_string().contains("combinational loop"));
    }

    #[test]
    fn levelize_deep_chain_has_increasing_levels() {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a");
        let mut cur = a;
        for _ in 0..10 {
            cur = b.not(cur);
        }
        b.output("y", cur);
        let n = b.finish();
        let lev = levelize(&n).unwrap();
        assert_eq!(lev.order.len(), 10);
        assert_eq!(lev.max_level, 9);
    }

    #[test]
    fn fanout_cone_reaches_output() {
        let (n, x, _) = sample();
        let cone = fanout_cone(&n, &[x], true);
        let kinds: Vec<CellKind> = cone.iter().map(|&c| n.cell(c).kind()).collect();
        assert!(kinds.iter().any(|k| k.is_sequential()));
        // Does not cross the FF, so the OR gate is not in the cone.
        assert!(!kinds.iter().any(|k| matches!(k, CellKind::Or(_))));
    }

    #[test]
    fn cone_extractor_is_reusable_and_sorted() {
        // Every single net of the sample as a site, then all of them at
        // once: one extractor, reused, must agree with the one-shot query.
        let (n, ..) = sample();
        let mut extractor = ConeExtractor::new(&n);
        let nets: Vec<NetId> = (0..n.num_nets()).map(NetId::from_index).collect();
        let sites: Vec<&[NetId]> = nets.chunks(1).chain([&nets[..]]).collect();
        for site in sites {
            let cone = extractor.fanout_cone_with(&n, site).to_vec();
            assert!(cone.windows(2).all(|w| w[0] < w[1]), "sorted, no dupes");
            assert_eq!(
                cone.iter().copied().collect::<HashSet<_>>(),
                fanout_cone(&n, site, true),
                "site {site:?}"
            );
            assert_eq!(
                extractor.fanout_cone_with(&n, site),
                &cone[..],
                "extraction must be idempotent"
            );
        }
    }
}
