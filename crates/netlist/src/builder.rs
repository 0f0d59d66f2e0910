//! Ergonomic construction of gate-level netlists, including word-level
//! (multi-bit) helpers used by the processor generators.
//!
//! Multi-bit values ("words") are represented as `Vec<NetId>` with the least
//! significant bit first.

use crate::{CellAttrs, CellId, CellKind, NetId, Netlist, Reset};

/// A multi-bit bus, least-significant bit first.
pub type Word = Vec<NetId>;

/// Builder wrapping a [`Netlist`] under construction.
///
/// The builder tracks a *group context*: every cell created while a group is
/// pushed is tagged with that group (dot-joined when nested), which the
/// identification flow later uses to locate functional units such as the
/// address generation unit or the branch target buffer.
///
/// # Examples
///
/// ```
/// use netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new("adder4");
/// let a = b.input_bus("a", 4);
/// let c = b.input_bus("b", 4);
/// let zero = b.tie0();
/// let (sum, carry) = b.ripple_adder(&a, &c, zero);
/// b.output_bus("sum", &sum);
/// b.output("cout", carry);
/// let netlist = b.finish();
/// assert_eq!(netlist.primary_output_nets().len(), 5);
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    netlist: Netlist,
    group_stack: Vec<String>,
    counter: u64,
}

impl NetlistBuilder {
    /// Creates a builder for a new empty design.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            netlist: Netlist::new(name),
            group_stack: Vec::new(),
            counter: 0,
        }
    }

    /// Consumes the builder and returns the finished netlist.
    pub fn finish(self) -> Netlist {
        self.netlist
    }

    /// Read-only access to the netlist under construction.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access to the netlist under construction.
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    // ------------------------------------------------------------------
    // Group context
    // ------------------------------------------------------------------

    /// Pushes a group onto the context stack; cells created afterwards are
    /// tagged with the dot-joined stack.
    pub fn push_group(&mut self, group: impl Into<String>) {
        self.group_stack.push(group.into());
    }

    /// Pops the innermost group.
    pub fn pop_group(&mut self) {
        self.group_stack.pop();
    }

    /// Runs `f` with `group` pushed, popping it afterwards.
    pub fn with_group<R>(&mut self, group: impl Into<String>, f: impl FnOnce(&mut Self) -> R) -> R {
        self.push_group(group);
        let r = f(self);
        self.pop_group();
        r
    }

    /// The current dot-joined group context.
    pub fn current_group(&self) -> String {
        self.group_stack.join(".")
    }

    fn next_name(&mut self, kind: &str) -> String {
        self.counter += 1;
        let group = self.current_group();
        if group.is_empty() {
            format!("u_{kind}_{}", self.counter)
        } else {
            format!("{group}_{kind}_{}", self.counter)
        }
    }

    fn fresh_net(&mut self, hint: &str) -> NetId {
        let group = self.current_group();
        let name = if group.is_empty() {
            format!("{hint}_{}", self.counter + 1)
        } else {
            format!("{group}.{hint}_{}", self.counter + 1)
        };
        self.netlist.add_net(name)
    }

    fn tag(&mut self, cell: CellId) -> CellId {
        let group = self.current_group();
        if !group.is_empty() {
            self.netlist.set_attrs(cell, CellAttrs::with_group(group));
        }
        cell
    }

    // ------------------------------------------------------------------
    // Ports, ties
    // ------------------------------------------------------------------

    /// Adds a single-bit primary input and returns the net it drives.
    pub fn input(&mut self, name: impl AsRef<str>) -> NetId {
        let (cell, net) = self.netlist.add_input(name.as_ref());
        self.tag(cell);
        net
    }

    /// Adds a `width`-bit primary input bus named `name[0] .. name[width-1]`.
    pub fn input_bus(&mut self, name: impl AsRef<str>, width: usize) -> Word {
        (0..width)
            .map(|i| self.input(format!("{}[{}]", name.as_ref(), i)))
            .collect()
    }

    /// Adds a single-bit primary output observing `net` and returns its cell.
    pub fn output(&mut self, name: impl AsRef<str>, net: NetId) -> CellId {
        let cell = self.netlist.add_output(name.as_ref(), net);
        self.tag(cell)
    }

    /// Adds one primary output per bit of `word`.
    pub fn output_bus(&mut self, name: impl AsRef<str>, word: &[NetId]) -> Vec<CellId> {
        word.iter()
            .enumerate()
            .map(|(i, &net)| self.output(format!("{}[{}]", name.as_ref(), i), net))
            .collect()
    }

    /// The constant-0 net (a shared tie cell).
    pub fn tie0(&mut self) -> NetId {
        self.netlist.tie_net(false)
    }

    /// The constant-1 net (a shared tie cell).
    pub fn tie1(&mut self) -> NetId {
        self.netlist.tie_net(true)
    }

    /// A `width`-bit constant word holding `value` (LSB first).
    pub fn const_word(&mut self, value: u64, width: usize) -> Word {
        (0..width)
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    self.tie1()
                } else {
                    self.tie0()
                }
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Single-bit gates
    // ------------------------------------------------------------------

    fn gate(&mut self, kind: CellKind, short: &str, inputs: &[NetId]) -> NetId {
        let name = self.next_name(short);
        let out = self.fresh_net(short);
        let cell = self.netlist.add_cell(kind, name, inputs, Some(out));
        self.tag(cell);
        out
    }

    /// Non-inverting buffer.
    pub fn buf(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Buf, "buf", &[a])
    }

    /// Inverter.
    pub fn not(&mut self, a: NetId) -> NetId {
        self.gate(CellKind::Not, "inv", &[a])
    }

    /// 2-input AND.
    pub fn and2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::And(2), "and", &[a, b])
    }

    /// 2-input OR.
    pub fn or2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Or(2), "or", &[a, b])
    }

    /// 2-input XOR.
    pub fn xor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xor(2), "xor", &[a, b])
    }

    /// 2-input NAND.
    pub fn nand2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nand(2), "nand", &[a, b])
    }

    /// 2-input NOR.
    pub fn nor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Nor(2), "nor", &[a, b])
    }

    /// 2-input XNOR.
    pub fn xnor2(&mut self, a: NetId, b: NetId) -> NetId {
        self.gate(CellKind::Xnor(2), "xnor", &[a, b])
    }

    fn nary(
        &mut self,
        make: fn(u8) -> CellKind,
        short: &str,
        identity: bool,
        inputs: &[NetId],
    ) -> NetId {
        match inputs.len() {
            0 => {
                if identity {
                    self.tie1()
                } else {
                    self.tie0()
                }
            }
            1 => self.buf(inputs[0]),
            n if n <= 8 => self.gate(make(n as u8), short, inputs),
            _ => {
                // Split wide gates into a balanced tree of 8-input gates. The
                // inner nodes use the non-inverting form; only AND/OR are ever
                // requested with more than 8 inputs by the generators.
                let mid = inputs.len() / 2;
                let lo = self.nary(make, short, identity, &inputs[..mid]);
                let hi = self.nary(make, short, identity, &inputs[mid..]);
                self.gate(make(2), short, &[lo, hi])
            }
        }
    }

    /// N-input AND (splits into a tree above 8 inputs; 0 inputs → constant 1).
    pub fn and(&mut self, inputs: &[NetId]) -> NetId {
        self.nary(CellKind::And, "and", true, inputs)
    }

    /// N-input OR (splits into a tree above 8 inputs; 0 inputs → constant 0).
    pub fn or(&mut self, inputs: &[NetId]) -> NetId {
        self.nary(CellKind::Or, "or", false, inputs)
    }

    /// N-input XOR (parity).
    pub fn xor(&mut self, inputs: &[NetId]) -> NetId {
        self.nary(CellKind::Xor, "xor", false, inputs)
    }

    /// 2-to-1 multiplexer: `s ? d1 : d0`.
    pub fn mux2(&mut self, d0: NetId, d1: NetId, s: NetId) -> NetId {
        self.gate(CellKind::Mux2, "mux", &[d0, d1, s])
    }

    // ------------------------------------------------------------------
    // Flip-flops and registers
    // ------------------------------------------------------------------

    /// D flip-flop without reset.
    pub fn dff(&mut self, d: NetId, ck: NetId) -> NetId {
        let name = self.next_name("dff");
        let q = self.fresh_net("q");
        let cell = self
            .netlist
            .add_cell(CellKind::Dff { reset: None }, name, &[d, ck], Some(q));
        self.tag(cell);
        q
    }

    /// D flip-flop with asynchronous reset (clears to 0).
    pub fn dff_r(&mut self, d: NetId, ck: NetId, rst: NetId, reset: Reset) -> NetId {
        let name = self.next_name("dffr");
        let q = self.fresh_net("q");
        let cell = self.netlist.add_cell(
            CellKind::Dff { reset: Some(reset) },
            name,
            &[d, ck, rst],
            Some(q),
        );
        self.tag(cell);
        q
    }

    /// Mux-scan flip-flop without reset.
    pub fn sdff(&mut self, d: NetId, si: NetId, se: NetId, ck: NetId) -> NetId {
        let name = self.next_name("sdff");
        let q = self.fresh_net("q");
        let cell = self.netlist.add_cell(
            CellKind::Sdff { reset: None },
            name,
            &[d, si, se, ck],
            Some(q),
        );
        self.tag(cell);
        q
    }

    /// A register (one DFF per bit).
    pub fn register(&mut self, d: &[NetId], ck: NetId) -> Word {
        d.iter().map(|&bit| self.dff(bit, ck)).collect()
    }

    /// A register with a write-enable: each bit holds its value when `en = 0`
    /// (implemented with a feedback multiplexer in front of the flip-flop).
    pub fn register_en(&mut self, d: &[NetId], en: NetId, ck: NetId) -> Word {
        let width = d.len();
        // Create the flip-flops first with placeholder data nets so that the
        // feedback muxes can reference the Q outputs.
        let mut q = Vec::with_capacity(width);
        let mut placeholder = Vec::with_capacity(width);
        for i in 0..width {
            let ph = self.fresh_net(&format!("en_d{i}"));
            let qi = {
                let name = self.next_name("dff");
                let qn = self.fresh_net("q");
                let cell =
                    self.netlist
                        .add_cell(CellKind::Dff { reset: None }, name, &[ph, ck], Some(qn));
                self.tag(cell);
                qn
            };
            q.push(qi);
            placeholder.push(ph);
        }
        for i in 0..width {
            let mux_out = self.mux2(q[i], d[i], en);
            // Drive the placeholder net from the mux via a buffer so the
            // placeholder keeps a single driver.
            let name = self.next_name("buf");
            let cell = self
                .netlist
                .add_cell(CellKind::Buf, name, &[mux_out], Some(placeholder[i]));
            self.tag(cell);
        }
        q
    }

    // ------------------------------------------------------------------
    // Word-level combinational helpers
    // ------------------------------------------------------------------

    /// Bitwise NOT of a word.
    pub fn not_word(&mut self, a: &[NetId]) -> Word {
        a.iter().map(|&bit| self.not(bit)).collect()
    }

    /// Bitwise AND of two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn and_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        assert_eq!(a.len(), b.len(), "width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.and2(x, y)).collect()
    }

    /// Bitwise OR of two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn or_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        assert_eq!(a.len(), b.len(), "width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.or2(x, y)).collect()
    }

    /// Bitwise XOR of two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn xor_word(&mut self, a: &[NetId], b: &[NetId]) -> Word {
        assert_eq!(a.len(), b.len(), "width mismatch");
        a.iter().zip(b).map(|(&x, &y)| self.xor2(x, y)).collect()
    }

    /// Per-bit 2-to-1 multiplexer between two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mux2_word(&mut self, d0: &[NetId], d1: &[NetId], s: NetId) -> Word {
        assert_eq!(d0.len(), d1.len(), "width mismatch");
        d0.iter()
            .zip(d1)
            .map(|(&x, &y)| self.mux2(x, y, s))
            .collect()
    }

    /// Selects one of `2^sel.len()` equal-width words with a balanced mux
    /// tree. Missing words (when `words.len() < 2^sel.len()`) repeat the last
    /// provided word.
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty.
    pub fn mux_tree(&mut self, words: &[Word], sel: &[NetId]) -> Word {
        assert!(!words.is_empty(), "mux_tree needs at least one input word");
        if sel.is_empty() {
            return words[0].clone();
        }
        let half = 1usize << (sel.len() - 1);
        let pick = |i: usize| -> &Word { words.get(i).unwrap_or_else(|| words.last().unwrap()) };
        let lo_words: Vec<Word> = (0..half).map(|i| pick(i).clone()).collect();
        let hi_words: Vec<Word> = (0..half).map(|i| pick(half + i).clone()).collect();
        let lo = self.mux_tree(&lo_words, &sel[..sel.len() - 1]);
        let hi = self.mux_tree(&hi_words, &sel[..sel.len() - 1]);
        self.mux2_word(&lo, &hi, sel[sel.len() - 1])
    }

    /// OR-reduction of a word (1 if any bit is 1).
    pub fn reduce_or(&mut self, a: &[NetId]) -> NetId {
        self.or(a)
    }

    /// AND-reduction of a word (1 if all bits are 1).
    pub fn reduce_and(&mut self, a: &[NetId]) -> NetId {
        self.and(a)
    }

    /// XOR-reduction (parity) of a word.
    pub fn reduce_xor(&mut self, a: &[NetId]) -> NetId {
        self.xor(a)
    }

    /// Full adder for one bit; returns `(sum, carry_out)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId) -> (NetId, NetId) {
        let axb = self.xor2(a, b);
        let sum = self.xor2(axb, cin);
        let t1 = self.and2(a, b);
        let t2 = self.and2(axb, cin);
        let cout = self.or2(t1, t2);
        (sum, cout)
    }

    /// Ripple-carry adder over two equal-width words; returns
    /// `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn ripple_adder(&mut self, a: &[NetId], b: &[NetId], cin: NetId) -> (Word, NetId) {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let mut carry = cin;
        let mut sum = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let (s, c) = self.full_adder(x, y, carry);
            sum.push(s);
            carry = c;
        }
        (sum, carry)
    }

    /// Two's-complement subtractor `a - b`; returns `(difference, borrow_free)`
    /// where the second value is the adder carry-out (1 when `a >= b`
    /// unsigned).
    pub fn subtractor(&mut self, a: &[NetId], b: &[NetId]) -> (Word, NetId) {
        let nb = self.not_word(b);
        let one = self.tie1();
        self.ripple_adder(a, &nb, one)
    }

    /// Incrementer `a + 1`; returns `(sum, carry_out)`.
    pub fn incrementer(&mut self, a: &[NetId]) -> (Word, NetId) {
        let zero = self.const_word(0, a.len());
        let one = self.tie1();
        self.ripple_adder(a, &zero, one)
    }

    /// Equality comparator between a word and a compile-time constant.
    pub fn eq_const(&mut self, a: &[NetId], value: u64) -> NetId {
        let bits: Vec<NetId> = a
            .iter()
            .enumerate()
            .map(|(i, &bit)| {
                if (value >> i) & 1 == 1 {
                    bit
                } else {
                    self.not(bit)
                }
            })
            .collect();
        self.and(&bits)
    }

    /// Equality comparator between two equal-width words.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn eq_words(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        assert_eq!(a.len(), b.len(), "width mismatch");
        let diffs: Vec<NetId> = a.iter().zip(b).map(|(&x, &y)| self.xnor2(x, y)).collect();
        self.and(&diffs)
    }

    /// 1-if-zero detector for a word.
    pub fn is_zero(&mut self, a: &[NetId]) -> NetId {
        let any = self.or(a);
        self.not(any)
    }

    /// One-hot decoder: `sel.len()` select bits → `2^sel.len()` outputs.
    pub fn decoder(&mut self, sel: &[NetId]) -> Word {
        let n = 1usize << sel.len();
        (0..n)
            .map(|value| self.eq_const(sel, value as u64))
            .collect()
    }

    /// Logical left barrel shifter: shifts `a` left by the unsigned value of
    /// `amount` (only the low `log2(a.len()).ceil()` bits of `amount` are
    /// used; larger amounts saturate to zero output).
    pub fn shift_left(&mut self, a: &[NetId], amount: &[NetId]) -> Word {
        let width = a.len();
        let stages = amount
            .len()
            .min(usize::BITS as usize - (width.leading_zeros() as usize));
        let mut current: Word = a.to_vec();
        let zero = self.tie0();
        for (stage, &sel) in amount.iter().enumerate().take(stages.max(amount.len())) {
            let shift = 1usize << stage;
            if shift >= width {
                // Shifting by >= width when the select bit is 1 zeroes everything.
                let zeros = vec![zero; width];
                current = self.mux2_word(&current, &zeros, sel);
                continue;
            }
            let mut shifted = vec![zero; shift];
            shifted.extend_from_slice(&current[..width - shift]);
            current = self.mux2_word(&current, &shifted, sel);
        }
        current
    }

    /// Logical right barrel shifter.
    pub fn shift_right(&mut self, a: &[NetId], amount: &[NetId]) -> Word {
        let width = a.len();
        let mut current: Word = a.to_vec();
        let zero = self.tie0();
        for (stage, &sel) in amount.iter().enumerate() {
            let shift = 1usize << stage;
            if shift >= width {
                let zeros = vec![zero; width];
                current = self.mux2_word(&current, &zeros, sel);
                continue;
            }
            let mut shifted: Word = current[shift..].to_vec();
            shifted.extend(std::iter::repeat_n(zero, shift));
            current = self.mux2_word(&current, &shifted, sel);
        }
        current
    }

    /// Unsigned less-than comparator (`a < b`).
    pub fn lt_unsigned(&mut self, a: &[NetId], b: &[NetId]) -> NetId {
        let (_, carry) = self.subtractor(a, b);
        // carry == 1 means a >= b
        self.not(carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates a purely combinational builder output with two-valued logic
    /// by walking drivers recursively (test helper — the real simulator lives
    /// in the `atpg` crate).
    fn eval(
        netlist: &Netlist,
        assignment: &std::collections::HashMap<NetId, bool>,
        net: NetId,
    ) -> bool {
        if let Some(&v) = assignment.get(&net) {
            return v;
        }
        let driver = netlist.driver_of(net).expect("floating net in eval");
        let cell = netlist.cell(driver);
        let inputs: Vec<bool> = cell
            .inputs()
            .iter()
            .map(|&n| eval(netlist, assignment, n))
            .collect();
        cell.kind()
            .eval_bool(&inputs)
            .expect("sequential cell in eval")
    }

    fn word_value(
        netlist: &Netlist,
        assignment: &std::collections::HashMap<NetId, bool>,
        word: &[NetId],
    ) -> u64 {
        word.iter()
            .enumerate()
            .map(|(i, &n)| (eval(netlist, assignment, n) as u64) << i)
            .sum()
    }

    fn assign(word: &[NetId], value: u64, map: &mut std::collections::HashMap<NetId, bool>) {
        for (i, &n) in word.iter().enumerate() {
            map.insert(n, (value >> i) & 1 == 1);
        }
    }

    #[test]
    fn ripple_adder_adds() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 8);
        let c = b.input_bus("b", 8);
        let zero = b.tie0();
        let (sum, cout) = b.ripple_adder(&a, &c, zero);
        let n = b.finish();
        for (x, y) in [(0u64, 0u64), (1, 1), (100, 55), (200, 60), (255, 255)] {
            let mut env = std::collections::HashMap::new();
            assign(&a, x, &mut env);
            assign(&c, y, &mut env);
            let got = word_value(&n, &env, &sum);
            let carry = eval(&n, &env, cout) as u64;
            assert_eq!(got + (carry << 8), x + y, "{x}+{y}");
        }
    }

    #[test]
    fn subtractor_and_comparators() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 6);
        let c = b.input_bus("b", 6);
        let (diff, geq) = b.subtractor(&a, &c);
        let lt = b.lt_unsigned(&a, &c);
        let eq = b.eq_words(&a, &c);
        let n = b.finish();
        for (x, y) in [(5u64, 3u64), (3, 5), (7, 7), (63, 0), (0, 63)] {
            let mut env = std::collections::HashMap::new();
            assign(&a, x, &mut env);
            assign(&c, y, &mut env);
            assert_eq!(word_value(&n, &env, &diff), (x.wrapping_sub(y)) & 0x3f);
            assert_eq!(eval(&n, &env, geq), x >= y);
            assert_eq!(eval(&n, &env, lt), x < y);
            assert_eq!(eval(&n, &env, eq), x == y);
        }
    }

    #[test]
    fn mux_tree_selects() {
        let mut b = NetlistBuilder::new("t");
        let words: Vec<Word> = (0..4).map(|i| b.const_word(i * 3 + 1, 4)).collect();
        let sel = b.input_bus("sel", 2);
        let out = b.mux_tree(&words, &sel);
        let n = b.finish();
        for s in 0..4u64 {
            let mut env = std::collections::HashMap::new();
            assign(&sel, s, &mut env);
            assert_eq!(word_value(&n, &env, &out), s * 3 + 1);
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let mut b = NetlistBuilder::new("t");
        let sel = b.input_bus("sel", 3);
        let outs = b.decoder(&sel);
        let n = b.finish();
        for s in 0..8u64 {
            let mut env = std::collections::HashMap::new();
            assign(&sel, s, &mut env);
            let value = word_value(&n, &env, &outs);
            assert_eq!(value, 1 << s);
        }
    }

    #[test]
    fn shifters_shift() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 8);
        let amt = b.input_bus("amt", 3);
        let sl = b.shift_left(&a, &amt);
        let sr = b.shift_right(&a, &amt);
        let n = b.finish();
        for value in [0b1011_0101u64, 0xff, 1] {
            for shift in 0..8u64 {
                let mut env = std::collections::HashMap::new();
                assign(&a, value, &mut env);
                assign(&amt, shift, &mut env);
                assert_eq!(
                    word_value(&n, &env, &sl),
                    (value << shift) & 0xff,
                    "sll {value} {shift}"
                );
                assert_eq!(
                    word_value(&n, &env, &sr),
                    value >> shift,
                    "srl {value} {shift}"
                );
            }
        }
    }

    #[test]
    fn eq_const_and_is_zero() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 5);
        let is17 = b.eq_const(&a, 17);
        let z = b.is_zero(&a);
        let n = b.finish();
        for v in 0..32u64 {
            let mut env = std::collections::HashMap::new();
            assign(&a, v, &mut env);
            assert_eq!(eval(&n, &env, is17), v == 17);
            assert_eq!(eval(&n, &env, z), v == 0);
        }
    }

    #[test]
    fn wide_gates_split_into_trees() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input_bus("a", 20);
        let all = b.reduce_and(&a);
        let any = b.reduce_or(&a);
        let n = b.finish();
        let mut env = std::collections::HashMap::new();
        assign(&a, (1 << 20) - 1, &mut env);
        assert!(eval(&n, &env, all));
        assign(&a, (1 << 20) - 2, &mut env);
        assert!(!eval(&n, &env, all));
        assert!(eval(&n, &env, any));
        assign(&a, 0, &mut env);
        assert!(!eval(&n, &env, any));
    }

    #[test]
    fn group_context_tags_cells() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        b.push_group("alu");
        let x = b.with_group("logic", |b| b.not(a));
        let _y = b.and2(a, x);
        b.pop_group();
        let _z = b.not(a);
        let n = b.finish();
        assert_eq!(n.cells_in_group("alu").len(), 2);
        assert_eq!(n.cells_in_group("alu.logic").len(), 1);
        assert_eq!(n.groups(), vec!["alu".to_string(), "alu.logic".to_string()]);
    }

    #[test]
    fn nary_edge_cases() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input("a");
        let and0 = b.and(&[]);
        let or0 = b.or(&[]);
        let and1 = b.and(&[a]);
        let n_before = b.netlist().num_cells();
        assert!(n_before > 0);
        let n = b.finish();
        let mut env = std::collections::HashMap::new();
        env.insert(a, true);
        assert!(eval(&n, &env, and0));
        assert!(!eval(&n, &env, or0));
        assert!(eval(&n, &env, and1));
        env.insert(a, false);
        assert!(!eval(&n, &env, and1));
    }

    #[test]
    fn const_word_bits() {
        let mut b = NetlistBuilder::new("t");
        let w = b.const_word(0b1010, 4);
        let n = b.finish();
        let env = std::collections::HashMap::new();
        assert_eq!(word_value(&n, &env, &w), 0b1010);
    }
}
