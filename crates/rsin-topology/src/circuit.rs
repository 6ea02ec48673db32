//! Link-occupancy state and circuit management.
//!
//! A [`CircuitState`] overlays a [`Network`] with the dynamic facts: which
//! links are currently carrying circuits, and which circuit owns which
//! links. Establishing a circuit claims every link of a processor→resource
//! path; releasing it frees them ("the circuit between a processor and a
//! resource can be released once the request has been transmitted",
//! Section II model, point 5).
//!
//! [`CircuitState::find_path`] is the greedy primitive the paper's
//! *heuristic routing* baselines are made of: a breadth-first search over
//! currently-free links, with no lookahead over other pending requests —
//! precisely the kind of scheduling whose blocking the optimal flow-based
//! mapping is shown to beat (≈20 % vs ≈2 % on an 8×8 cube MRSIN).

use crate::network::{LinkId, Network, NodeRef};

/// Reusable buffers for [`CircuitState::find_path_to_any_in`].
///
/// Tables are indexed by resource, box and link id and grow to the
/// network on first use. A search resets only the entries it touched —
/// the candidates and the links it reached — so its cost follows the
/// part of the network it explores, not the whole topology.
#[derive(Debug, Default)]
pub struct PathSearch {
    /// Per resource: is it a candidate of the running search?
    want: Vec<bool>,
    /// Per box: have its outputs been scanned?
    expanded: Vec<bool>,
    /// Per link: the link it was reached over (`None` when unreached, and
    /// for the start link).
    parent: Vec<Option<LinkId>>,
    /// Reached links in BFS order (the FIFO, never popped, so the reset
    /// knows what to clear).
    queue: Vec<LinkId>,
    /// The path of the last successful search.
    path: Vec<LinkId>,
}

impl PathSearch {
    /// The path the last successful search returned (empty before any).
    pub fn path(&self) -> &[LinkId] {
        &self.path
    }

    /// Size the tables for `net`. Tables are all-clear between searches,
    /// so only their lengths can be stale.
    fn fit(&mut self, net: &Network) {
        if self.want.len() != net.num_resources() {
            self.want = vec![false; net.num_resources()];
        }
        if self.expanded.len() != net.num_boxes() {
            self.expanded = vec![false; net.num_boxes()];
        }
        if self.parent.len() != net.num_links() {
            self.parent = vec![None; net.num_links()];
        }
    }
}

/// Handle to an established circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CircuitId(pub u32);

/// Errors from circuit operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CircuitError {
    /// A link on the requested path is already occupied.
    LinkOccupied(LinkId),
    /// The link sequence is not a contiguous processor→resource path.
    NotAPath,
    /// Unknown or already-released circuit handle.
    BadCircuit,
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CircuitError::LinkOccupied(l) => write!(f, "link {} is already occupied", l.index()),
            CircuitError::NotAPath => write!(f, "links do not form a processor-to-resource path"),
            CircuitError::BadCircuit => write!(f, "unknown or already-released circuit"),
        }
    }
}

impl std::error::Error for CircuitError {}

/// One bit per link, 64 links per word: link `l` is bit `l % 64` of word
/// `l / 64`. Bits past the last link stay clear.
type LinkBits = Vec<u64>;

/// Word index and bit mask of link `l` in a [`LinkBits`].
#[inline]
fn bit(l: LinkId) -> (usize, u64) {
    (l.index() / 64, 1 << (l.index() % 64))
}

/// Dynamic occupancy overlay for a network.
///
/// Link state is kept the way the paper's switchboxes keep it, as status
/// bits that change only when a circuit is set up or torn down or a link
/// fails or is repaired: one `u64` word per 64 links, so a free test is one
/// bit test, the counts are popcounts and a copy moves `L / 64` words.
#[derive(Debug, Clone)]
pub struct CircuitState<'a> {
    net: &'a Network,
    /// Links carrying a circuit.
    occupied: LinkBits,
    /// Links currently out of service (fault injection; the paper cites
    /// fault tolerance as an advantage of the distributed architecture).
    /// Toggled by [`fail_link`](Self::fail_link)/[`repair_link`](Self::repair_link).
    faulty: LinkBits,
    /// Switchboxes currently *misrouting* (Byzantine, per DESIGN §15):
    /// their links stay available — capacity-based schedulers cannot see a
    /// lying box — but a circuit through one fails to deliver. Toggled by
    /// [`set_byzantine_box`](Self::set_byzantine_box).
    byzantine: Vec<bool>,
    circuits: Vec<Option<Vec<LinkId>>>,
    /// Link lists [`release_all`](Self::release_all) took off the circuit
    /// table, for later circuits to refill instead of allocating.
    spare: Vec<Vec<LinkId>>,
}

impl<'a> CircuitState<'a> {
    /// All links free.
    pub fn new(net: &'a Network) -> Self {
        let words = net.num_links().div_ceil(64);
        CircuitState {
            net,
            occupied: vec![0; words],
            faulty: vec![0; words],
            byzantine: vec![false; net.num_boxes()],
            circuits: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// A copy with the same link and box state — occupied, faulty and
    /// Byzantine — but an empty circuit table, for schedulers that pin new
    /// circuits onto a scratch copy. O(links / 64 + boxes), where a `clone()`
    /// also copies every circuit this state ever established (released
    /// slots included). Links held by the original's circuits stay occupied
    /// in the copy, but those circuits cannot be released there.
    pub fn clone_link_state(&self) -> Self {
        CircuitState {
            net: self.net,
            occupied: self.occupied.clone(),
            faulty: self.faulty.clone(),
            byzantine: self.byzantine.clone(),
            circuits: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &'a Network {
        self.net
    }

    /// Is this link free (neither carrying a circuit nor faulty)?
    #[inline]
    pub fn is_free(&self, l: LinkId) -> bool {
        let (w, m) = bit(l);
        (self.occupied[w] | self.faulty[w]) & m == 0
    }

    /// The free links as bit words, 64 links per word in link-id order:
    /// bit `l % 64` of word `l / 64` is set when link `l` is free. Bits past
    /// the last link are clear.
    pub fn free_link_words(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        let last = self.occupied.len().saturating_sub(1);
        let tail = match self.net.num_links() % 64 {
            0 => u64::MAX,
            n => (1 << n) - 1,
        };
        self.occupied
            .iter()
            .zip(&self.faulty)
            .enumerate()
            .map(move |(w, (o, f))| {
                let free = !(o | f);
                if w == last {
                    free & tail
                } else {
                    free
                }
            })
    }

    /// Set or clear link `l`'s bit in `bits`.
    #[inline]
    fn put(bits: &mut [u64], l: LinkId, on: bool) {
        let (w, m) = bit(l);
        if on {
            bits[w] |= m;
        } else {
            bits[w] &= !m;
        }
    }

    /// Mark one link faulty until [`repair_link`](Self::repair_link) is
    /// called. No new circuit may use it; live circuits over it are *not*
    /// torn down (the model is fail-stop for new allocations).
    pub fn fail_link(&mut self, l: LinkId) {
        Self::put(&mut self.faulty, l, true);
    }

    /// Mark every link touching switchbox `b` faulty (a dead switchbox).
    pub fn fail_box(&mut self, b: usize) {
        use crate::network::NodeRef;
        for l in self
            .net
            .in_links(NodeRef::Box(b))
            .into_iter()
            .chain(self.net.out_links(NodeRef::Box(b)))
        {
            Self::put(&mut self.faulty, l, true);
        }
    }

    /// Is this link currently marked faulty?
    pub fn is_faulty(&self, l: LinkId) -> bool {
        let (w, m) = bit(l);
        self.faulty[w] & m != 0
    }

    /// Return a repaired link to service. Idempotent; a link that was never
    /// failed stays healthy. Circuits are never resurrected — a repair only
    /// makes the link eligible for *new* allocations.
    pub fn repair_link(&mut self, l: LinkId) {
        Self::put(&mut self.faulty, l, false);
    }

    /// Repair every link touching switchbox `b` (the inverse of
    /// [`fail_box`](Self::fail_box)). Note this also clears faults that were
    /// injected on those links individually.
    pub fn repair_box(&mut self, b: usize) {
        use crate::network::NodeRef;
        for l in self
            .net
            .in_links(NodeRef::Box(b))
            .into_iter()
            .chain(self.net.out_links(NodeRef::Box(b)))
        {
            Self::put(&mut self.faulty, l, false);
        }
    }

    /// Number of faulty links (a popcount over the fault words).
    pub fn faulty_count(&self) -> usize {
        self.faulty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Mark switchbox `b` as misrouting (`lying = true`) or honest again.
    ///
    /// Unlike [`fail_box`](Self::fail_box) this touches no link state: every
    /// link through the box stays free, so schedulers keep routing circuits
    /// across it — and those circuits silently fail to deliver. Fail-stop
    /// accounting (`faulty_count`, `is_free`) is deliberately unaffected.
    pub fn set_byzantine_box(&mut self, b: usize, lying: bool) {
        self.byzantine[b] = lying;
    }

    /// Is switchbox `b` currently misrouting?
    pub fn is_byzantine_box(&self, b: usize) -> bool {
        self.byzantine[b]
    }

    /// Number of switchboxes currently misrouting.
    pub fn byzantine_count(&self) -> usize {
        self.byzantine.iter().filter(|b| **b).count()
    }

    /// First misrouting switchbox a circuit over `links` would traverse, or
    /// `None` when every box on the path is honest (the request is
    /// delivered). A deterministic misrouter sends the request out a wrong
    /// output, off its reserved circuit — the delivery is lost even though
    /// every link was claimed successfully.
    pub fn first_byzantine_on(&self, links: &[LinkId]) -> Option<usize> {
        links.iter().find_map(|&l| match self.net.link(l).dst {
            NodeRef::Box(b) if self.byzantine[b] => Some(b),
            _ => None,
        })
    }

    /// Number of currently-occupied links (a popcount over the occupancy
    /// words).
    pub fn occupied_count(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Ids of links unavailable for new circuits (occupied or faulty).
    pub fn occupied_links(&self) -> Vec<LinkId> {
        (0..self.net.num_links() as u32)
            .map(LinkId)
            .filter(|l| !self.is_free(*l))
            .collect()
    }

    /// Validate that `links` is a contiguous path starting at a processor
    /// and ending at a resource.
    fn validate_path(&self, links: &[LinkId]) -> Result<(), CircuitError> {
        if links.is_empty() {
            return Err(CircuitError::NotAPath);
        }
        let first = self.net.link(links[0]);
        if !matches!(first.src, NodeRef::Processor(_)) {
            return Err(CircuitError::NotAPath);
        }
        for w in links.windows(2) {
            if self.net.link(w[0]).dst != self.net.link(w[1]).src {
                return Err(CircuitError::NotAPath);
            }
        }
        let last = self.net.link(*links.last().unwrap());
        if !matches!(last.dst, NodeRef::Resource(_)) {
            return Err(CircuitError::NotAPath);
        }
        Ok(())
    }

    /// Claim every link of `links` as one circuit.
    pub fn establish(&mut self, links: &[LinkId]) -> Result<CircuitId, CircuitError> {
        self.validate_path(links)?;
        if let Some(&l) = links.iter().find(|l| !self.is_free(**l)) {
            return Err(CircuitError::LinkOccupied(l));
        }
        for &l in links {
            Self::put(&mut self.occupied, l, true);
        }
        let record = match self.spare.pop() {
            Some(mut spare) => {
                spare.clear();
                spare.extend_from_slice(links);
                spare
            }
            None => links.to_vec(),
        };
        self.circuits.push(Some(record));
        Ok(CircuitId(self.circuits.len() as u32 - 1))
    }

    /// Release a circuit, freeing its links.
    pub fn release(&mut self, c: CircuitId) -> Result<(), CircuitError> {
        let slot = self
            .circuits
            .get_mut(c.0 as usize)
            .ok_or(CircuitError::BadCircuit)?;
        let links = slot.take().ok_or(CircuitError::BadCircuit)?;
        for l in links {
            Self::put(&mut self.occupied, l, false);
        }
        Ok(())
    }

    /// Release every live circuit at once and restart circuit numbering,
    /// leaving faulty links and misrouting boxes as they are: with no
    /// faults this is the state [`new`](Self::new) returns, at O(links
    /// held) instead of O(links) and with the circuit table's capacity
    /// kept. The released link lists are kept too, so a state reset every
    /// cycle stops allocating once it has held its most circuits.
    pub fn release_all(&mut self) {
        for links in self.circuits.drain(..).flatten() {
            for &l in &links {
                Self::put(&mut self.occupied, l, false);
            }
            self.spare.push(links);
        }
    }

    /// Links of a live circuit.
    pub fn circuit_links(&self, c: CircuitId) -> Option<&[LinkId]> {
        self.circuits.get(c.0 as usize)?.as_deref()
    }

    /// The processor and resource endpoints of a live circuit.
    pub fn circuit_endpoints(&self, c: CircuitId) -> Option<(usize, usize)> {
        let links = self.circuit_links(c)?;
        let NodeRef::Processor(p) = self.net.link(*links.first()?).src else {
            return None;
        };
        let NodeRef::Resource(r) = self.net.link(*links.last()?).dst else {
            return None;
        };
        Some((p, r))
    }

    /// BFS for a free-link path from processor `p` to resource `r`.
    ///
    /// Returns the link sequence, or `None` when `r` is unreachable over
    /// free links (a *blockage* in the paper's terms).
    pub fn find_path(&self, p: usize, r: usize) -> Option<Vec<LinkId>> {
        self.find_path_to_any(p, &[r]).map(|(_, path)| path)
    }

    /// BFS from processor `p` to the *nearest* of several candidate
    /// resources; returns `(resource, path)`. This models a request entering
    /// the network without a destination tag and grabbing the first free
    /// resource it reaches.
    pub fn find_path_to_any(&self, p: usize, candidates: &[usize]) -> Option<(usize, Vec<LinkId>)> {
        self.find_path_to_any_in(p, candidates, &mut PathSearch::default())
            .map(|(r, path)| (r, path.to_vec()))
    }

    /// [`find_path_to_any`](Self::find_path_to_any) over the reusable
    /// buffers of `search`: the same BFS, the same `(resource, path)`, but
    /// no allocation once `search` has grown to this network. The path
    /// borrows `search` and stays readable through [`PathSearch::path`]
    /// until the next search.
    pub fn find_path_to_any_in<'s>(
        &self,
        p: usize,
        candidates: &[usize],
        search: &'s mut PathSearch,
    ) -> Option<(usize, &'s [LinkId])> {
        search.fit(self.net);
        for &r in candidates {
            search.want[r] = true;
        }
        let found = self.bfs(p, search);
        // Every table is clean again for the next search: only the
        // candidates and the links the BFS reached were touched.
        for &r in candidates {
            search.want[r] = false;
        }
        for &l in &search.queue {
            search.parent[l.index()] = None;
            if let NodeRef::Box(b) = self.net.link(l).dst {
                search.expanded[b] = false;
            }
        }
        search.queue.clear();
        found.map(|r| (r, search.path.as_slice()))
    }

    /// BFS over elements via free links from `p`'s processor link to the
    /// first wanted resource; on success the path is in `search.path`.
    fn bfs(&self, p: usize, search: &mut PathSearch) -> Option<usize> {
        let start = self.net.processor_link(p)?;
        if !self.is_free(start) {
            return None;
        }
        let PathSearch {
            want,
            expanded,
            parent,
            queue,
            path,
        } = search;
        queue.push(start);
        let mut head = 0;
        while let Some(&l) = queue.get(head) {
            head += 1;
            match self.net.link(l).dst {
                NodeRef::Resource(r) => {
                    if want[r] {
                        path.clear();
                        path.push(l);
                        let mut cur = l;
                        while let Some(prev) = parent[cur.index()] {
                            path.push(prev);
                            cur = prev;
                        }
                        path.reverse();
                        return Some(r);
                    }
                }
                NodeRef::Box(b) => {
                    if !expanded[b] {
                        expanded[b] = true;
                        for &next in self.net.box_outputs(b).iter().flatten() {
                            if self.is_free(next) && parent[next.index()].is_none() && next != start
                            {
                                parent[next.index()] = Some(l);
                                queue.push(next);
                            }
                        }
                    }
                }
                NodeRef::Processor(_) => unreachable!("links never end at processors"),
            }
        }
        None
    }

    /// Convenience: find a free path `p → r` and establish it.
    pub fn connect(&mut self, p: usize, r: usize) -> Result<CircuitId, CircuitError> {
        let path = self.find_path(p, r).ok_or(CircuitError::NotAPath)?;
        self.establish(&path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{omega, omega_3dp};
    use crate::network::NetworkBuilder;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The original allocating BFS, kept as the exact-order oracle for
    /// [`CircuitState::find_path_to_any_in`]: fresh tables per call and a
    /// `Vec` of out-links per expanded box.
    fn reference_find_path_to_any(
        cs: &CircuitState<'_>,
        p: usize,
        candidates: &[usize],
    ) -> Option<(usize, Vec<LinkId>)> {
        let net = cs.network();
        let mut want = vec![false; net.num_resources()];
        for &r in candidates {
            want[r] = true;
        }
        let start = net.processor_link(p)?;
        if !cs.is_free(start) {
            return None;
        }
        let mut visited_box = vec![false; net.num_boxes()];
        let mut queue: VecDeque<LinkId> = VecDeque::new();
        let mut parent: Vec<Option<LinkId>> = vec![None; net.num_links()];
        queue.push_back(start);
        while let Some(l) = queue.pop_front() {
            match net.link(l).dst {
                NodeRef::Resource(r) => {
                    if want[r] {
                        let mut path = vec![l];
                        let mut cur = l;
                        while let Some(prev) = parent[cur.index()] {
                            path.push(prev);
                            cur = prev;
                        }
                        path.reverse();
                        return Some((r, path));
                    }
                }
                NodeRef::Box(b) => {
                    if !visited_box[b] {
                        visited_box[b] = true;
                        for next in net.out_links(NodeRef::Box(b)) {
                            if cs.is_free(next) && parent[next.index()].is_none() && next != start {
                                parent[next.index()] = Some(l);
                                queue.push_back(next);
                            }
                        }
                    }
                }
                NodeRef::Processor(_) => unreachable!("links never end at processors"),
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// One `PathSearch` reused across a run of searches returns exactly
        /// the `(resource, path)` of a fresh `find_path_to_any` and of the
        /// allocating reference, on omega and 3dp-omega with random
        /// occupied and faulty links. Established paths and repairs change
        /// the link state between searches, so stale buffers would show.
        #[test]
        fn reused_search_matches_fresh_search(
            three_dp in any::<bool>(),
            bits in 2u32..5,
            marks in proptest::collection::vec(0u8..10, 1024),
            queries in proptest::collection::vec(
                (0usize..64, proptest::collection::vec(0usize..64, 0..6), 0u8..4),
                1..40,
            ),
        ) {
            let n = 1usize << bits;
            let net = if three_dp { omega_3dp(n) } else { omega(n) }.unwrap();
            let mut cs = CircuitState::new(&net);
            for (l, &m) in marks.iter().take(net.num_links()).enumerate() {
                match m {
                    0 => CircuitState::put(&mut cs.occupied, LinkId(l as u32), true),
                    1 => cs.fail_link(LinkId(l as u32)),
                    _ => {}
                }
            }
            let mut search = PathSearch::default();
            for (p, candidates, then) in queries {
                let (p, candidates) = (p % n, candidates.iter().map(|r| r % n).collect::<Vec<_>>());
                let want = reference_find_path_to_any(&cs, p, &candidates);
                prop_assert_eq!(&cs.find_path_to_any(p, &candidates), &want);
                let got = cs.find_path_to_any_in(p, &candidates, &mut search);
                prop_assert_eq!(got.map(|(r, path)| (r, path.to_vec())), want.clone());
                match (then, want) {
                    (0, Some((_, path))) => {
                        prop_assert_eq!(search.path(), path.as_slice());
                        cs.establish(&path).unwrap();
                    }
                    (1, _) => cs.repair_link(LinkId((p * 7 % net.num_links()) as u32)),
                    _ => {}
                }
            }
        }
    }

    /// 2 stages of one 2x2 box each, straight wiring: p0,p1 -> box0 -> box1 -> r0,r1.
    fn two_stage() -> Network {
        let mut b = NetworkBuilder::new("two-stage", 2, 2);
        let b0 = b.add_box(0, 2, 2);
        let b1 = b.add_box(1, 2, 2);
        b.link_proc_to_box(0, b0, 0);
        b.link_proc_to_box(1, b0, 1);
        b.link_box_to_box(b0, 0, b1, 0);
        b.link_box_to_box(b0, 1, b1, 1);
        b.link_box_to_res(b1, 0, 0);
        b.link_box_to_res(b1, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn finds_and_establishes_path() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        // p0 -> box0 -> box1 -> r1: three links.
        let path = cs.find_path(0, 1).unwrap();
        assert_eq!(path.len(), 3);
        cs.establish(&path).unwrap();
        assert_eq!(cs.occupied_count(), 3);
    }

    #[test]
    fn path_has_correct_shape() {
        let net = two_stage();
        let cs = CircuitState::new(&net);
        let path = cs.find_path(0, 0).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(net.link(path[0]).src, NodeRef::Processor(0));
        assert_eq!(net.link(path[2]).dst, NodeRef::Resource(0));
    }

    #[test]
    fn establish_release_cycle() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        let path = cs.find_path(0, 0).unwrap();
        let c = cs.establish(&path).unwrap();
        assert_eq!(cs.occupied_count(), 3);
        assert_eq!(cs.circuit_endpoints(c), Some((0, 0)));
        // Same path now blocked.
        assert!(matches!(
            cs.establish(&path),
            Err(CircuitError::LinkOccupied(_))
        ));
        cs.release(c).unwrap();
        assert_eq!(cs.occupied_count(), 0);
        // Double release rejected.
        assert_eq!(cs.release(c), Err(CircuitError::BadCircuit));
    }

    #[test]
    fn blocked_path_returns_none() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        // Occupy p0's only exit.
        let c = cs.connect(0, 0).unwrap();
        assert!(cs.find_path(0, 1).is_none());
        cs.release(c).unwrap();
        assert!(cs.find_path(0, 1).is_some());
    }

    #[test]
    fn shared_inter_stage_link_causes_blockage() {
        // With p0 -> r0 established through box0 output 0, p1 can still
        // reach r1 via box0 output 1.
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 0).unwrap();
        assert!(cs.find_path(1, 1).is_some());
        // But r0's input link is taken, so p1 -> r0 is blocked.
        assert!(cs.find_path(1, 0).is_none());
    }

    #[test]
    fn find_path_to_any_picks_reachable_candidate() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 0).unwrap();
        let (r, path) = cs.find_path_to_any(1, &[0, 1]).unwrap();
        assert_eq!(r, 1);
        assert!(!path.is_empty());
    }

    #[test]
    fn faulty_link_blocks_routing() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        let path = cs.find_path(0, 0).unwrap();
        // Failing one inter-stage link leaves the alternate route alive.
        cs.fail_link(path[1]);
        assert_eq!(cs.faulty_count(), 1);
        assert!(cs.find_path(0, 0).is_some());
        // ...but the old path can no longer be established verbatim.
        assert!(cs.establish(&path).is_err());
        // Failing the processor's only exit link kills p0 completely.
        cs.fail_link(path[0]);
        assert!(cs.find_path(0, 0).is_none());
        assert!(cs.find_path(0, 1).is_none());
        // Unrelated pairs still route.
        assert!(cs.find_path(1, 1).is_some());
    }

    #[test]
    fn dead_box_kills_all_its_links() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        cs.fail_box(0);
        // Box 0 touches all processor links plus the inter-stage links.
        assert_eq!(cs.faulty_count(), 4);
        for p in 0..2 {
            for r in 0..2 {
                assert!(cs.find_path(p, r).is_none());
            }
        }
    }

    #[test]
    fn byzantine_box_is_invisible_to_routing_but_poisons_paths() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        cs.set_byzantine_box(0, true);
        // Routing and establishment are oblivious: no link is down.
        assert_eq!(cs.faulty_count(), 0);
        assert_eq!(cs.byzantine_count(), 1);
        let path = cs.find_path(0, 1).unwrap();
        // ...but the path crosses the liar, so delivery would fail.
        assert_eq!(cs.first_byzantine_on(&path), Some(0));
        cs.establish(&path).unwrap();
        // Honesty restored: the same path delivers.
        cs.set_byzantine_box(0, false);
        assert_eq!(cs.first_byzantine_on(&path), None);
        assert!(!cs.is_byzantine_box(0));
    }

    #[test]
    fn link_state_copy_keeps_links_and_boxes_but_no_circuits() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        // Many establish/release rounds grow the circuit table; leave one
        // circuit live, one link faulty and one box misrouting.
        for _ in 0..50 {
            let c = cs.connect(0, 0).unwrap();
            cs.release(c).unwrap();
        }
        // New circuits on a copy number from zero.
        let mut fresh = cs.clone_link_state();
        assert_eq!(fresh.connect(0, 0), Ok(CircuitId(0)));
        let live = cs.connect(1, 1).unwrap();
        let spare = cs.find_path(0, 0).unwrap();
        cs.fail_link(spare[1]);
        cs.set_byzantine_box(1, true);
        let copy = cs.clone_link_state();
        for l in 0..net.num_links() as u32 {
            let l = LinkId(l);
            assert_eq!(copy.is_free(l), cs.is_free(l), "{l:?}");
            assert_eq!(copy.is_faulty(l), cs.is_faulty(l), "{l:?}");
        }
        for b in 0..net.num_boxes() {
            assert_eq!(copy.is_byzantine_box(b), cs.is_byzantine_box(b));
        }
        assert_eq!(copy.occupied_count(), 3);
        assert!(copy.circuit_links(live).is_none());
        assert!(copy.circuit_links(CircuitId(0)).is_none());
    }

    #[test]
    fn release_all_frees_circuits_and_keeps_faults() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        cs.connect(0, 0).unwrap();
        cs.connect(1, 1).unwrap();
        let spare = cs.find_path(0, 0);
        assert!(spare.is_none(), "both processor links are held");
        cs.fail_link(LinkId(0));
        cs.release_all();
        assert_eq!(cs.occupied_count(), 0);
        assert_eq!(cs.faulty_count(), 1);
        assert!(cs.circuit_links(CircuitId(0)).is_none());
        // Numbering restarts, as on a fresh state, and a refilled link
        // list holds only the new circuit's links.
        assert_eq!(cs.connect(1, 0), Ok(CircuitId(0)));
        assert_eq!(cs.circuit_endpoints(CircuitId(0)), Some((1, 0)));
        assert_eq!(cs.circuit_links(CircuitId(0)).unwrap().len(), 3);
    }

    #[test]
    fn rejects_non_path_sequences() {
        let net = two_stage();
        let mut cs = CircuitState::new(&net);
        // Reversed path is not contiguous from a processor.
        let mut path = cs.find_path(0, 0).unwrap();
        path.reverse();
        assert_eq!(cs.establish(&path), Err(CircuitError::NotAPath));
        assert_eq!(cs.establish(&[]), Err(CircuitError::NotAPath));
    }
}
