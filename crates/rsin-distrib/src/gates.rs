//! Gate-level realization of the NS token logic.
//!
//! "Since a token is nothing but a propagating signal, token propagation
//! rules can be expressed in terms of Boolean functions. A distributed
//! process at an NS, RQ, or RS does nothing but distribute the token
//! according to the global status and local conditions. It can be realized
//! easily by a finite-state machine … The design has a very low gate count
//! and a very short token propagation delay." (Section IV-B.3)
//!
//! This module makes that claim checkable: a tiny combinational
//! [`Netlist`] builder (AND/OR/NOT over input wires), the NS port
//! controllers synthesized as netlists, and exhaustive equivalence tests
//! against the behavioral rules the [`engine`](crate::engine) implements.
//! The netlists' gate counts and depths (propagation delay in gate delays)
//! are what justify the clock-period cost model of
//! `rsin_sim::cost::CostModel`.

/// One gate of a combinational netlist. Wires are indexed: inputs first,
/// then one wire per gate, in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Logical AND of two wires.
    And(usize, usize),
    /// Logical OR of two wires.
    Or(usize, usize),
    /// Negation of a wire.
    Not(usize),
}

/// A combinational circuit over `n_inputs` input wires.
///
/// ```
/// use rsin_distrib::Netlist;
/// let mut n = Netlist::new(2);
/// let a = n.input(0);
/// let b = n.input(1);
/// let nand = { let x = n.and(a, b); n.not(x) };
/// n.expose(nand);
/// assert_eq!(n.eval(&[true, true]), vec![false]);
/// assert_eq!(n.eval(&[true, false]), vec![true]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    n_inputs: usize,
    gates: Vec<Gate>,
    outputs: Vec<usize>,
}

impl Netlist {
    /// A netlist reading `n_inputs` input wires.
    pub fn new(n_inputs: usize) -> Self {
        Netlist {
            n_inputs,
            gates: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// Wire id of input `i`.
    pub fn input(&self, i: usize) -> usize {
        assert!(i < self.n_inputs);
        i
    }

    /// Add an AND gate; returns its output wire.
    pub fn and(&mut self, a: usize, b: usize) -> usize {
        self.gates.push(Gate::And(a, b));
        self.n_inputs + self.gates.len() - 1
    }

    /// Add an OR gate; returns its output wire.
    pub fn or(&mut self, a: usize, b: usize) -> usize {
        self.gates.push(Gate::Or(a, b));
        self.n_inputs + self.gates.len() - 1
    }

    /// Add a NOT gate; returns its output wire.
    pub fn not(&mut self, a: usize) -> usize {
        self.gates.push(Gate::Not(a));
        self.n_inputs + self.gates.len() - 1
    }

    /// AND of many wires (balanced tree).
    pub fn and_all(&mut self, wires: &[usize]) -> usize {
        assert!(!wires.is_empty());
        let mut level = wires.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// OR of many wires (balanced tree).
    pub fn or_all(&mut self, wires: &[usize]) -> usize {
        assert!(!wires.is_empty());
        let mut level = wires.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.or(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// Declare an output wire (in call order).
    pub fn expose(&mut self, wire: usize) {
        self.outputs.push(wire);
    }

    /// Evaluate the netlist on an input assignment.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        assert_eq!(inputs.len(), self.n_inputs);
        let mut wires = Vec::with_capacity(self.n_inputs + self.gates.len());
        wires.extend_from_slice(inputs);
        for g in &self.gates {
            let v = match *g {
                Gate::And(a, b) => wires[a] && wires[b],
                Gate::Or(a, b) => wires[a] || wires[b],
                Gate::Not(a) => !wires[a],
            };
            wires.push(v);
        }
        self.outputs.iter().map(|&w| wires[w]).collect()
    }

    /// Total gate count.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Longest input→output path in gates (the propagation delay).
    pub fn depth(&self) -> usize {
        let mut d = vec![0usize; self.n_inputs + self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            let w = self.n_inputs + i;
            d[w] = 1 + match *g {
                Gate::And(a, b) | Gate::Or(a, b) => d[a].max(d[b]),
                Gate::Not(a) => d[a],
            };
        }
        self.outputs.iter().map(|&w| d[w]).max().unwrap_or(0)
    }
}

/// Input layout of the request-phase duplication logic for one **output**
/// port of a 2×2 NS (see [`request_duplication_2x2`]).
pub mod req_inputs {
    /// E3 on the status bus (request-token-propagation phase).
    pub const E3: usize = 0;
    /// A request token arrived at input port 0 this clock.
    pub const TOKEN_IN0: usize = 1;
    /// A request token arrived at input port 1 this clock.
    pub const TOKEN_IN1: usize = 2;
    /// A request token arrived backward at output port 0.
    pub const TOKEN_OUT0: usize = 3;
    /// A request token arrived backward at output port 1.
    pub const TOKEN_OUT1: usize = 4;
    /// The NS already consumed its first batch (got_batch latch).
    pub const GOT_BATCH: usize = 5;
    /// This output port's link is free.
    pub const LINK_FREE: usize = 6;
    /// This output port already carries a receive mark.
    pub const MARKED_RECEIVE: usize = 7;
    /// Total input wires.
    pub const COUNT: usize = 8;
}

/// Synthesize the request-phase rule for one output port of a 2×2 NS:
///
/// > *send a token forward over this output iff the phase is
/// > request-token propagation, this is the first batch of arrivals, the
/// > output's link is free, and the port is not already receive-marked.*
///
/// Outputs: `[send_token, set_send_mark]` (identical by construction — the
/// mark is set exactly when a token is sent).
pub fn request_duplication_2x2() -> Netlist {
    use req_inputs::*;
    let mut n = Netlist::new(COUNT);
    // Any arrival this clock.
    let any01 = n.or(TOKEN_IN0, TOKEN_IN1);
    let any23 = n.or(TOKEN_OUT0, TOKEN_OUT1);
    let any = n.or(any01, any23);
    // First batch: arrival AND NOT got_batch.
    let not_batch = n.not(GOT_BATCH);
    let first = n.and(any, not_batch);
    // Eligible output: free link, unmarked.
    let not_marked = n.not(MARKED_RECEIVE);
    let eligible = n.and(LINK_FREE, not_marked);
    // Send = E3 & first & eligible.
    let phase_first = n.and(E3, first);
    let send = n.and(phase_first, eligible);
    n.expose(send);
    n.expose(send); // the send-mark set line is the same signal
    n
}

/// Input layout for the resource-phase grant arbiter of a 2×2 NS
/// (see [`resource_grant_2x2`]).
pub mod grant_inputs {
    /// E4 on the status bus (resource-token-propagation phase).
    pub const E4: usize = 0;
    /// A resource token is requesting an exit this clock.
    pub const TOKEN_PRESENT: usize = 1;
    /// Input port 0 is receive-marked.
    pub const RECV0: usize = 2;
    /// Input port 0 already used by an earlier resource token.
    pub const USED0: usize = 3;
    /// Input port 0 cleared by a backtrack.
    pub const CLEARED0: usize = 4;
    /// Input port 1 is receive-marked.
    pub const RECV1: usize = 5;
    /// Input port 1 already used.
    pub const USED1: usize = 6;
    /// Input port 1 cleared.
    pub const CLEARED1: usize = 7;
    /// Total input wires.
    pub const COUNT: usize = 8;
}

/// Synthesize the resource-phase arbiter for the two input ports of a 2×2
/// NS: grant the token to the lowest-numbered receivable port; emit a
/// backtrack signal when neither is receivable.
///
/// Outputs: `[grant0, grant1, backtrack]`.
pub fn resource_grant_2x2() -> Netlist {
    use grant_inputs::*;
    let mut n = Netlist::new(COUNT);
    let avail = |n: &mut Netlist, recv: usize, used: usize, cleared: usize| {
        let nu = n.not(used);
        let nc = n.not(cleared);
        let free = n.and(nu, nc);
        n.and(recv, free)
    };
    let a0 = avail(&mut n, RECV0, USED0, CLEARED0);
    let a1 = avail(&mut n, RECV1, USED1, CLEARED1);
    let active = n.and(E4, TOKEN_PRESENT);
    // Fixed-priority arbitration: port 0 first.
    let grant0 = n.and(active, a0);
    let not_a0 = n.not(a0);
    let pick1 = n.and(not_a0, a1);
    let grant1 = n.and(active, pick1);
    let not_a1 = n.not(a1);
    let none = n.and(not_a0, not_a1);
    let backtrack = n.and(active, none);
    n.expose(grant0);
    n.expose(grant1);
    n.expose(backtrack);
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(v: usize, n: usize) -> Vec<bool> {
        (0..n).map(|i| (v >> i) & 1 == 1).collect()
    }

    #[test]
    fn netlist_basics() {
        // XOR from AND/OR/NOT.
        let mut n = Netlist::new(2);
        let a = n.input(0);
        let b = n.input(1);
        let na = n.not(a);
        let nb = n.not(b);
        let x = n.and(a, nb);
        let y = n.and(na, b);
        let xor = n.or(x, y);
        n.expose(xor);
        for (ia, ib, want) in [
            (false, false, false),
            (true, false, true),
            (false, true, true),
            (true, true, false),
        ] {
            assert_eq!(n.eval(&[ia, ib]), vec![want]);
        }
        assert_eq!(n.gate_count(), 5);
        assert_eq!(n.depth(), 3);
    }

    #[test]
    fn and_or_trees() {
        let mut n = Netlist::new(5);
        let all: Vec<usize> = (0..5).collect();
        let conj = n.and_all(&all);
        let disj = n.or_all(&all);
        n.expose(conj);
        n.expose(disj);
        for v in 0..32usize {
            let input = bits(v, 5);
            let out = n.eval(&input);
            assert_eq!(out[0], v == 31, "v={v}");
            assert_eq!(out[1], v != 0, "v={v}");
        }
        // Balanced tree depth: ceil(log2 5) = 3.
        assert!(n.depth() <= 3);
    }

    /// Exhaustive equivalence of the synthesized request logic against the
    /// behavioral rule used by the engine.
    #[test]
    fn request_duplication_matches_behavioral_rule() {
        use req_inputs::*;
        let n = request_duplication_2x2();
        for v in 0..(1usize << COUNT) {
            let input = bits(v, COUNT);
            let out = n.eval(&input);
            let any_arrival =
                input[TOKEN_IN0] || input[TOKEN_IN1] || input[TOKEN_OUT0] || input[TOKEN_OUT1];
            let expected = input[E3]
                && any_arrival
                && !input[GOT_BATCH]
                && input[LINK_FREE]
                && !input[MARKED_RECEIVE];
            assert_eq!(out[0], expected, "v={v:#010b}");
            assert_eq!(out[1], expected, "mark follows send");
        }
    }

    /// Exhaustive equivalence of the grant arbiter against the engine's
    /// lowest-index receivable-port selection.
    #[test]
    fn resource_grant_matches_behavioral_rule() {
        use grant_inputs::*;
        let n = resource_grant_2x2();
        for v in 0..(1usize << COUNT) {
            let input = bits(v, COUNT);
            let out = n.eval(&input);
            let receivable0 = input[RECV0] && !input[USED0] && !input[CLEARED0];
            let receivable1 = input[RECV1] && !input[USED1] && !input[CLEARED1];
            let active = input[E4] && input[TOKEN_PRESENT];
            assert_eq!(out[0], active && receivable0, "grant0 v={v:#010b}");
            assert_eq!(
                out[1],
                active && !receivable0 && receivable1,
                "grant1 v={v:#010b}"
            );
            assert_eq!(
                out[2],
                active && !receivable0 && !receivable1,
                "backtrack v={v:#010b}"
            );
            // Exactly one of the three fires when active.
            if active {
                assert_eq!([out[0], out[1], out[2]].iter().filter(|b| **b).count(), 1);
            } else {
                assert!(!out[0] && !out[1] && !out[2]);
            }
        }
    }

    /// The paper's claim: very low gate count, very short delay.
    #[test]
    fn gate_counts_are_tiny() {
        let req = request_duplication_2x2();
        let grant = resource_grant_2x2();
        assert!(
            req.gate_count() <= 16,
            "request logic: {} gates",
            req.gate_count()
        );
        assert!(
            grant.gate_count() <= 16,
            "grant logic: {} gates",
            grant.gate_count()
        );
        assert!(req.depth() <= 6, "request depth {}", req.depth());
        assert!(grant.depth() <= 6, "grant depth {}", grant.depth());
    }
}
