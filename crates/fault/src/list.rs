//! The fault universe: generation and classification bookkeeping.

use crate::{FaultClass, StuckAt};
use netlist::{CellId, Netlist, PinIndex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The complete stuck-at fault universe of a design, with a classification
/// per fault.
///
/// The list is generated under the *uncollapsed pin-fault model*: two faults
/// (stuck-at-0 and stuck-at-1) on every input pin and every output pin of
/// every live cell, including the `Input`/`Output` port pseudo-cells and tie
/// cells. This mirrors the way commercial tools report "total faults"
/// (the paper's 214,930 figure) before any collapsing.
///
/// # Examples
///
/// ```
/// use faultmodel::FaultList;
/// use netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("t");
/// let a = b.input("a");
/// let y = b.not(a);
/// b.output("y", y);
/// let n = b.finish();
/// let faults = FaultList::full_universe(&n);
/// // input cell: 1 pin, inverter: 2 pins, output cell: 1 pin => 8 faults
/// assert_eq!(faults.len(), 8);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultList {
    faults: Vec<StuckAt>,
    classes: Vec<FaultClass>,
    #[serde(skip)]
    index: HashMap<StuckAt, usize>,
    #[serde(skip)]
    by_cell: HashMap<CellId, Vec<usize>>,
}

impl FaultList {
    /// Generates the full uncollapsed fault universe of `netlist`.
    pub fn full_universe(netlist: &Netlist) -> Self {
        let mut faults = Vec::new();
        for (id, cell) in netlist.live_cells() {
            for pin in 0..cell.inputs().len() {
                for value in [false, true] {
                    faults.push(StuckAt::input(id, pin as PinIndex, value));
                }
            }
            if cell.output().is_some() {
                for value in [false, true] {
                    faults.push(StuckAt::output(id, value));
                }
            }
        }
        Self::from_faults(faults)
    }

    /// Builds a fault list from an explicit set of faults (duplicates are
    /// removed, order preserved).
    pub fn from_faults(faults: Vec<StuckAt>) -> Self {
        let mut unique = Vec::with_capacity(faults.len());
        let mut index = HashMap::with_capacity(faults.len());
        for fault in faults {
            if let std::collections::hash_map::Entry::Vacant(entry) = index.entry(fault) {
                entry.insert(unique.len());
                unique.push(fault);
            }
        }
        let classes = vec![FaultClass::Undetected; unique.len()];
        let mut by_cell: HashMap<CellId, Vec<usize>> = HashMap::new();
        for (i, fault) in unique.iter().enumerate() {
            by_cell.entry(fault.site.cell()).or_default().push(i);
        }
        FaultList {
            faults: unique,
            classes,
            index,
            by_cell,
        }
    }

    /// Number of faults in the universe.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over `(fault, class)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (StuckAt, FaultClass)> + '_ {
        self.faults
            .iter()
            .zip(self.classes.iter())
            .map(|(&f, &c)| (f, c))
    }

    /// Iterates over the still-[`Undetected`](FaultClass::Undetected) faults
    /// as `(universe index, fault)` pairs — the targets a simulation campaign
    /// grades. The index can be fed back to
    /// [`classify_at`](Self::classify_at), so campaigns need no intermediate
    /// `(fault, class)` collection and no per-fault hash lookup to record
    /// detections.
    pub fn undetected(&self) -> impl Iterator<Item = (usize, StuckAt)> + '_ {
        self.classes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == FaultClass::Undetected)
            .map(|(i, _)| (i, self.faults[i]))
    }

    /// The faults only, in universe order.
    pub fn faults(&self) -> &[StuckAt] {
        &self.faults
    }

    /// Index of a fault in the universe, if present.
    pub fn index_of(&self, fault: StuckAt) -> Option<usize> {
        self.index.get(&fault).copied()
    }

    /// Whether the universe contains `fault`.
    pub fn contains(&self, fault: StuckAt) -> bool {
        self.index.contains_key(&fault)
    }

    /// The current classification of `fault` (`None` if it is not part of the
    /// universe).
    pub fn class_of(&self, fault: StuckAt) -> Option<FaultClass> {
        self.index_of(fault).map(|i| self.classes[i])
    }

    /// Sets the classification of `fault` unconditionally. Returns `false`
    /// if the fault is not in the universe.
    pub fn classify(&mut self, fault: StuckAt, class: FaultClass) -> bool {
        match self.index_of(fault) {
            Some(i) => {
                self.classes[i] = class;
                true
            }
            None => false,
        }
    }

    /// Sets the classification only if the fault is still
    /// [`FaultClass::Undetected`]. Returns `true` if the classification was
    /// applied.
    pub fn classify_if_undetected(&mut self, fault: StuckAt, class: FaultClass) -> bool {
        match self.index_of(fault) {
            Some(i) if self.classes[i] == FaultClass::Undetected => {
                self.classes[i] = class;
                true
            }
            _ => false,
        }
    }

    /// Sets the classification by universe index.
    pub fn classify_at(&mut self, index: usize, class: FaultClass) {
        self.classes[index] = class;
    }

    /// All faults located on `cell` (any pin).
    pub fn faults_of_cell(&self, cell: CellId) -> Vec<StuckAt> {
        self.by_cell
            .get(&cell)
            .map(|v| v.iter().map(|&i| self.faults[i]).collect())
            .unwrap_or_default()
    }

    /// Number of faults in each classification, as a [`crate::ClassCounts`].
    pub fn counts(&self) -> crate::ClassCounts {
        let mut counts = crate::ClassCounts::default();
        for &class in &self.classes {
            counts.add(class, 1);
        }
        counts
    }

    /// Copies every non-`Undetected` classification from `other` into this
    /// list (for faults present in both). Returns how many classifications
    /// were imported.
    ///
    /// Used to merge the results of analyses run on manipulated copies of the
    /// design back into the master fault list, re-labelling structural
    /// untestability as on-line untestability where requested.
    pub fn import_classes(
        &mut self,
        other: &FaultList,
        mut map: impl FnMut(FaultClass) -> Option<FaultClass>,
    ) -> usize {
        let mut imported = 0;
        for (fault, class) in other.iter() {
            if class == FaultClass::Undetected {
                continue;
            }
            if let Some(new_class) = map(class) {
                if let Some(i) = self.index_of(fault) {
                    if self.classes[i] == FaultClass::Undetected {
                        self.classes[i] = new_class;
                        imported += 1;
                    }
                }
            }
        }
        imported
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UntestableSource;
    use netlist::NetlistBuilder;

    fn sample() -> (Netlist, FaultList) {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and2(a, c);
        b.output("y", y);
        let n = b.finish();
        let list = FaultList::full_universe(&n);
        (n, list)
    }

    #[test]
    fn universe_counts_every_pin_twice() {
        let (n, list) = sample();
        // input a: 1 pin, input b: 1 pin, and: 3 pins, output: 1 pin = 6 pins
        assert_eq!(list.len(), 12);
        assert_eq!(netlist::stats::stats(&n).stuck_at_faults(), list.len());
    }

    #[test]
    fn classify_and_query() {
        let (n, mut list) = sample();
        let and = n.find_cell("u_and_1").unwrap();
        let f = StuckAt::input(and, 0, true);
        assert_eq!(list.class_of(f), Some(FaultClass::Undetected));
        assert!(list.classify(f, FaultClass::Detected));
        assert_eq!(list.class_of(f), Some(FaultClass::Detected));
        assert!(!list.classify_if_undetected(f, FaultClass::Tied));
        assert_eq!(list.class_of(f), Some(FaultClass::Detected));
        assert_eq!(list.counts().detected, 1);
    }

    #[test]
    fn classify_unknown_fault_is_rejected() {
        let (_, mut list) = sample();
        // A fault on a cell id that does not exist in the universe.
        let bogus_cell = {
            let mut b2 = NetlistBuilder::new("other");
            let x = b2.input("x");
            let y = b2.not(x);
            b2.output("y", y);
            let n2 = b2.finish();
            n2.driver_of(y).unwrap()
        };
        // same numeric id likely exists, so craft an out-of-range pin instead
        let f = StuckAt::input(bogus_cell, 17, false);
        assert!(!list.classify(f, FaultClass::Detected));
    }

    #[test]
    fn faults_of_cell_returns_all_pins() {
        let (n, list) = sample();
        let and = n.find_cell("u_and_1").unwrap();
        assert_eq!(list.faults_of_cell(and).len(), 6);
    }

    #[test]
    fn import_classes_relabels() {
        let (n, mut master) = sample();
        let mut analysed = master.clone();
        let and = n.find_cell("u_and_1").unwrap();
        analysed.classify(StuckAt::input(and, 0, false), FaultClass::Tied);
        analysed.classify(StuckAt::input(and, 1, false), FaultClass::Blocked);
        let imported = master.import_classes(&analysed, |c| {
            if c.is_structurally_untestable() {
                Some(FaultClass::OnlineUntestable(UntestableSource::DebugControl))
            } else {
                None
            }
        });
        assert_eq!(imported, 2);
        assert_eq!(master.counts().online(UntestableSource::DebugControl), 2);
        // Already-classified faults in the master are not overwritten.
        let mut master2 = master.clone();
        let before = master2.class_of(StuckAt::input(and, 0, false)).unwrap();
        master2.import_classes(&analysed, |_| Some(FaultClass::Detected));
        assert_eq!(
            master2.class_of(StuckAt::input(and, 0, false)),
            Some(before)
        );
    }

    #[test]
    fn duplicates_removed_on_construction() {
        let (n, _) = sample();
        let and = n.find_cell("u_and_1").unwrap();
        let f = StuckAt::output(and, false);
        let list = FaultList::from_faults(vec![f, f, f]);
        assert_eq!(list.len(), 1);
    }
}
