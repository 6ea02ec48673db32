//! Crossbar switchboxes without broadcast.
//!
//! "A switchbox in an MRSIN is a crossbar switch without broadcast
//! connections … a nonbroadcast switch setting is one in which an input link
//! is connected to at most one output link and vice versa" (Section III-B).
//! Theorem 1 builds on exactly this property: a legal setting is a partial
//! one-to-one mapping from input ports to output ports, which is what a
//! unit-capacity flow-conserving node assignment is.

/// An `n × m` crossbar switchbox state: a partial injective mapping from
/// input ports to output ports.
///
/// ```
/// use rsin_topology::Switchbox;
/// let mut b = Switchbox::exchange_box();
/// b.set_exchange().unwrap();
/// assert_eq!(b.output_of(0), Some(1));
/// assert!(b.connect(1, 1).is_err()); // nonbroadcast: ports used once
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Switchbox {
    inputs: usize,
    outputs: usize,
    /// `forward[i] = Some(o)` iff input `i` is connected to output `o`.
    forward: Vec<Option<usize>>,
    /// `backward[o] = Some(i)` mirror.
    backward: Vec<Option<usize>>,
}

/// Error connecting switchbox ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchboxError {
    /// Port index out of range.
    BadPort,
    /// The input port already drives another output (broadcast forbidden).
    InputBusy,
    /// The output port is already driven by another input.
    OutputBusy,
}

impl Switchbox {
    /// A disconnected `inputs × outputs` box.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        Switchbox {
            inputs,
            outputs,
            forward: vec![None; inputs],
            backward: vec![None; outputs],
        }
    }

    /// A standard 2×2 box (the building block of Omega/cube/baseline MINs).
    pub fn exchange_box() -> Self {
        Switchbox::new(2, 2)
    }

    /// Connect input `i` to output `o` (fails on broadcast/conflict).
    pub fn connect(&mut self, i: usize, o: usize) -> Result<(), SwitchboxError> {
        if i >= self.inputs || o >= self.outputs {
            return Err(SwitchboxError::BadPort);
        }
        if self.forward[i].is_some() {
            return Err(SwitchboxError::InputBusy);
        }
        if self.backward[o].is_some() {
            return Err(SwitchboxError::OutputBusy);
        }
        self.forward[i] = Some(o);
        self.backward[o] = Some(i);
        Ok(())
    }

    /// Disconnect input `i` (no-op if unconnected).
    pub fn disconnect_input(&mut self, i: usize) {
        if let Some(o) = self.forward[i].take() {
            self.backward[o] = None;
        }
    }

    /// The output driven by input `i`, if any.
    pub fn output_of(&self, i: usize) -> Option<usize> {
        self.forward[i]
    }

    /// The input driving output `o`, if any.
    pub fn input_of(&self, o: usize) -> Option<usize> {
        self.backward[o]
    }

    /// Count of established connections.
    pub fn connections(&self) -> usize {
        self.forward.iter().flatten().count()
    }

    /// For a 2×2 box: set to *straight* (0→0, 1→1). Fails if any port busy.
    pub fn set_straight(&mut self) -> Result<(), SwitchboxError> {
        self.connect(0, 0)?;
        self.connect(1, 1)
    }

    /// For a 2×2 box: set to *exchange* (0→1, 1→0). Fails if any port busy.
    pub fn set_exchange(&mut self) -> Result<(), SwitchboxError> {
        self.connect(0, 1)?;
        self.connect(1, 0)
    }

    /// Check the nonbroadcast invariant (each side injective); used by
    /// property tests.
    pub fn is_legal(&self) -> bool {
        let mut seen_out = vec![false; self.outputs];
        for o in self.forward.iter().flatten() {
            if seen_out[*o] {
                return false;
            }
            seen_out[*o] = true;
        }
        // Mirror consistency.
        for (i, fo) in self.forward.iter().enumerate() {
            if let Some(o) = fo {
                if self.backward[*o] != Some(i) {
                    return false;
                }
            }
        }
        for (o, bi) in self.backward.iter().enumerate() {
            if let Some(i) = bi {
                if self.forward[*i] != Some(o) {
                    return false;
                }
            }
        }
        true
    }

    /// Number of legal settings of an `n × m` nonbroadcast crossbar:
    /// `Σ_k C(n,k)·C(m,k)·k!` — partial injective mappings. Used by the
    /// exhaustive scheduler's complexity notes and by tests.
    pub fn num_legal_settings(n: usize, m: usize) -> u64 {
        let k_max = n.min(m);
        let mut total = 0u64;
        for k in 0..=k_max {
            total += binom(n, k) * binom(m, k) * factorial(k);
        }
        total
    }
}

fn binom(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut r = 1u64;
    for i in 0..k {
        r = r * (n - i) as u64 / (i + 1) as u64;
    }
    r
}

fn factorial(k: usize) -> u64 {
    (1..=k as u64).product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_query() {
        let mut b = Switchbox::new(2, 2);
        b.connect(0, 1).unwrap();
        assert_eq!(b.output_of(0), Some(1));
        assert_eq!(b.input_of(1), Some(0));
        assert_eq!(b.connections(), 1);
        assert!(b.is_legal());
    }

    #[test]
    fn broadcast_rejected() {
        let mut b = Switchbox::new(2, 2);
        b.connect(0, 0).unwrap();
        assert_eq!(b.connect(0, 1), Err(SwitchboxError::InputBusy));
    }

    #[test]
    fn fan_in_rejected() {
        let mut b = Switchbox::new(2, 2);
        b.connect(0, 0).unwrap();
        assert_eq!(b.connect(1, 0), Err(SwitchboxError::OutputBusy));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut b = Switchbox::new(2, 2);
        assert_eq!(b.connect(2, 0), Err(SwitchboxError::BadPort));
        assert_eq!(b.connect(0, 5), Err(SwitchboxError::BadPort));
    }

    #[test]
    fn disconnect_frees_both_sides() {
        let mut b = Switchbox::new(2, 2);
        b.connect(0, 1).unwrap();
        b.disconnect_input(0);
        assert_eq!(b.output_of(0), None);
        assert_eq!(b.input_of(1), None);
        b.connect(1, 1).unwrap();
    }

    #[test]
    fn straight_and_exchange() {
        let mut b = Switchbox::exchange_box();
        b.set_straight().unwrap();
        assert_eq!(b.output_of(0), Some(0));
        assert_eq!(b.output_of(1), Some(1));
        let mut b = Switchbox::exchange_box();
        b.set_exchange().unwrap();
        assert_eq!(b.output_of(0), Some(1));
        assert_eq!(b.output_of(1), Some(0));
    }

    #[test]
    fn legal_settings_count_2x2() {
        // k=0: 1; k=1: 2*2*1=4; k=2: 1*1*2=2 => 7.
        assert_eq!(Switchbox::num_legal_settings(2, 2), 7);
    }

    #[test]
    fn legal_settings_count_rectangular() {
        // 1x3: k=0:1, k=1: 1*3 = 3 => 4.
        assert_eq!(Switchbox::num_legal_settings(1, 3), 4);
        // Symmetric.
        assert_eq!(
            Switchbox::num_legal_settings(3, 1),
            Switchbox::num_legal_settings(1, 3)
        );
    }
}
