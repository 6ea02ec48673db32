//! General loop-free interconnection networks of processors, switchboxes,
//! and resources.
//!
//! The paper's method "is applicable to any general loop-free network
//! configuration in which the requesting processors and free resources can
//! be partitioned into two disjoint subsets". [`Network`] is that
//! configuration: a DAG whose interior nodes are switchboxes with numbered
//! input/output ports and whose boundary nodes are processors (one output
//! port each) and resources (one input port each). Links are directed and
//! unit-capacity — a link carries at most one circuit, which is what makes
//! Transformation 1's unit-capacity flow network exact.
//!
//! Networks are immutable once built; the validating [`NetworkBuilder`]
//! checks port consistency and acyclicity. Dynamic state (which links are
//! occupied) lives separately in [`circuit::CircuitState`](crate::circuit::CircuitState),
//! so one topology can back many concurrent simulations.

use std::fmt;

/// Index of a directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// Usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A node of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRef {
    /// Requesting side, `0..num_processors`.
    Processor(usize),
    /// Interior switchbox, `0..num_boxes`.
    Box(usize),
    /// Resource side, `0..num_resources`.
    Resource(usize),
}

impl fmt::Display for NodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeRef::Processor(i) => write!(f, "p{}", i + 1),
            NodeRef::Box(i) => write!(f, "sb{i}"),
            NodeRef::Resource(i) => write!(f, "r{}", i + 1),
        }
    }
}

/// A directed unit-capacity link between two ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Source node.
    pub src: NodeRef,
    /// Output-port index at the source (0 for processors).
    pub src_port: usize,
    /// Destination node.
    pub dst: NodeRef,
    /// Input-port index at the destination (0 for resources).
    pub dst_port: usize,
}

/// Static description of a switchbox position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoxSpec {
    /// Stage index (0 = nearest the processors); informational.
    pub stage: usize,
    /// Number of input ports.
    pub inputs: usize,
    /// Number of output ports.
    pub outputs: usize,
}

/// Errors detected while building a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// A link referenced a node or port that does not exist.
    BadEndpoint(String),
    /// Two links share a source or destination port.
    PortConflict(String),
    /// The element graph contains a cycle (the paper requires loop-free).
    Cyclic,
    /// A builder was called with unusable parameters (e.g. a binary MIN
    /// size that is not a power of two).
    BadParameter(String),
    /// [`builders::by_name`](crate::builders::by_name) was given a name no
    /// builder prints.
    UnknownName(String),
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::BadEndpoint(s) => write!(f, "bad endpoint: {s}"),
            NetworkError::PortConflict(s) => write!(f, "port conflict: {s}"),
            NetworkError::Cyclic => write!(f, "network contains a cycle"),
            NetworkError::BadParameter(s) => write!(f, "bad parameter: {s}"),
            NetworkError::UnknownName(s) => write!(f, "unknown topology {s:?}"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// An immutable, validated interconnection network.
#[derive(Debug, Clone)]
pub struct Network {
    name: String,
    num_processors: usize,
    num_resources: usize,
    boxes: Vec<BoxSpec>,
    links: Vec<Link>,
    proc_out: Vec<Option<LinkId>>,
    res_in: Vec<Option<LinkId>>,
    box_in: Vec<Vec<Option<LinkId>>>,
    box_out: Vec<Vec<Option<LinkId>>>,
    num_stages: usize,
    /// See [`Network::fingerprint`].
    fingerprint: u64,
}

impl Network {
    /// Topology fingerprint, computed once by [`NetworkBuilder::build`]
    /// (the network never changes afterwards): equal for two builds of the
    /// same topology. Per-topology caches (the reusable transformation
    /// graphs) compare it instead of re-hashing the links.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Topology name (e.g. `"omega-8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of processors (network inputs).
    pub fn num_processors(&self) -> usize {
        self.num_processors
    }

    /// Number of resources (network outputs).
    pub fn num_resources(&self) -> usize {
        self.num_resources
    }

    /// Number of switchboxes.
    pub fn num_boxes(&self) -> usize {
        self.boxes.len()
    }

    /// Number of stages (1 + max box stage; 0 when there are no boxes).
    pub fn num_stages(&self) -> usize {
        self.num_stages
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Static description of box `b`.
    pub fn box_spec(&self, b: usize) -> &BoxSpec {
        &self.boxes[b]
    }

    /// Link data.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// All links with their ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// The single outgoing link of processor `p`, if wired.
    pub fn processor_link(&self, p: usize) -> Option<LinkId> {
        self.proc_out[p]
    }

    /// The single incoming link of resource `r`, if wired.
    pub fn resource_link(&self, r: usize) -> Option<LinkId> {
        self.res_in[r]
    }

    /// Incoming links of box `b`, indexed by input port (None = unwired).
    pub fn box_inputs(&self, b: usize) -> &[Option<LinkId>] {
        &self.box_in[b]
    }

    /// Outgoing links of box `b`, indexed by output port.
    pub fn box_outputs(&self, b: usize) -> &[Option<LinkId>] {
        &self.box_out[b]
    }

    /// All outgoing links of a node.
    pub fn out_links(&self, n: NodeRef) -> Vec<LinkId> {
        match n {
            NodeRef::Processor(p) => self.proc_out[p].into_iter().collect(),
            NodeRef::Box(b) => self.box_out[b].iter().flatten().copied().collect(),
            NodeRef::Resource(_) => Vec::new(),
        }
    }

    /// All incoming links of a node.
    pub fn in_links(&self, n: NodeRef) -> Vec<LinkId> {
        match n {
            NodeRef::Processor(_) => Vec::new(),
            NodeRef::Box(b) => self.box_in[b].iter().flatten().copied().collect(),
            NodeRef::Resource(r) => self.res_in[r].into_iter().collect(),
        }
    }

    /// Boxes grouped by stage.
    pub fn boxes_in_stage(&self, stage: usize) -> Vec<usize> {
        (0..self.boxes.len())
            .filter(|&b| self.boxes[b].stage == stage)
            .collect()
    }

    /// Graphviz DOT rendering: processors on the left, switchboxes ranked
    /// by stage, resources on the right. Useful for inspecting builders and
    /// for documentation figures.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph min {\n  rankdir=LR;\n  node [shape=box];\n");
        for p in 0..self.num_processors {
            let _ = writeln!(out, "  p{p} [shape=circle,label=\"p{}\"];", p + 1);
        }
        for b in 0..self.boxes.len() {
            let spec = &self.boxes[b];
            let _ = writeln!(
                out,
                "  b{b} [label=\"sb{b}\\n{}x{} s{}\"];",
                spec.inputs, spec.outputs, spec.stage
            );
        }
        for r in 0..self.num_resources {
            let _ = writeln!(out, "  r{r} [shape=circle,label=\"r{}\"];", r + 1);
        }
        let node = |n: NodeRef| match n {
            NodeRef::Processor(p) => format!("p{p}"),
            NodeRef::Box(b) => format!("b{b}"),
            NodeRef::Resource(r) => format!("r{r}"),
        };
        for l in &self.links {
            let _ = writeln!(out, "  {} -> {};", node(l.src), node(l.dst));
        }
        out.push_str("}\n");
        out
    }

    /// A one-line summary, e.g. `omega-8: 8 procs, 8 res, 12 boxes, 3 stages, 32 links`.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} procs, {} res, {} boxes, {} stages, {} links",
            self.name,
            self.num_processors,
            self.num_resources,
            self.boxes.len(),
            self.num_stages,
            self.links.len()
        )
    }
}

/// Validating builder for [`Network`].
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    name: String,
    num_processors: usize,
    num_resources: usize,
    boxes: Vec<BoxSpec>,
    links: Vec<Link>,
}

impl NetworkBuilder {
    /// Start a network with the given boundary sizes.
    pub fn new(name: impl Into<String>, processors: usize, resources: usize) -> Self {
        NetworkBuilder {
            name: name.into(),
            num_processors: processors,
            num_resources: resources,
            boxes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Add an `inputs × outputs` switchbox at `stage`; returns its index.
    pub fn add_box(&mut self, stage: usize, inputs: usize, outputs: usize) -> usize {
        self.boxes.push(BoxSpec {
            stage,
            inputs,
            outputs,
        });
        self.boxes.len() - 1
    }

    /// FNV-1a over element counts and link endpoints: cheap,
    /// order-sensitive, and collision-safe enough to tell "same topology as
    /// last time" (a false positive needs two *different* topologies
    /// colliding).
    fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let encode = |n: NodeRef| -> u64 {
            match n {
                NodeRef::Processor(p) => (p as u64) << 2,
                NodeRef::Box(b) => ((b as u64) << 2) | 1,
                NodeRef::Resource(r) => ((r as u64) << 2) | 2,
            }
        };
        let mut h = OFFSET;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(PRIME);
        };
        mix(self.num_processors as u64);
        mix(self.boxes.len() as u64);
        mix(self.num_resources as u64);
        mix(self.links.len() as u64);
        for link in &self.links {
            mix(encode(link.src));
            mix(encode(link.dst));
        }
        h
    }

    /// Wire processor `p` to input port `port` of box `b`.
    pub fn link_proc_to_box(&mut self, p: usize, b: usize, port: usize) {
        self.links.push(Link {
            src: NodeRef::Processor(p),
            src_port: 0,
            dst: NodeRef::Box(b),
            dst_port: port,
        });
    }

    /// Wire output `out_port` of box `b1` to input `in_port` of box `b2`.
    pub fn link_box_to_box(&mut self, b1: usize, out_port: usize, b2: usize, in_port: usize) {
        self.links.push(Link {
            src: NodeRef::Box(b1),
            src_port: out_port,
            dst: NodeRef::Box(b2),
            dst_port: in_port,
        });
    }

    /// Wire output `out_port` of box `b` to resource `r`.
    pub fn link_box_to_res(&mut self, b: usize, out_port: usize, r: usize) {
        self.links.push(Link {
            src: NodeRef::Box(b),
            src_port: out_port,
            dst: NodeRef::Resource(r),
            dst_port: 0,
        });
    }

    /// Wire processor `p` directly to resource `r` (degenerate networks).
    pub fn link_proc_to_res(&mut self, p: usize, r: usize) {
        self.links.push(Link {
            src: NodeRef::Processor(p),
            src_port: 0,
            dst: NodeRef::Resource(r),
            dst_port: 0,
        });
    }

    fn check_endpoint(
        &self,
        n: NodeRef,
        port: usize,
        output_side: bool,
    ) -> Result<(), NetworkError> {
        let bad = |msg: String| Err(NetworkError::BadEndpoint(msg));
        match n {
            NodeRef::Processor(p) => {
                if p >= self.num_processors {
                    return bad(format!("processor {p} out of range"));
                }
                if !output_side {
                    return bad("processors have no input ports".into());
                }
                if port != 0 {
                    return bad("processor port must be 0".into());
                }
            }
            NodeRef::Resource(r) => {
                if r >= self.num_resources {
                    return bad(format!("resource {r} out of range"));
                }
                if output_side {
                    return bad("resources have no output ports".into());
                }
                if port != 0 {
                    return bad("resource port must be 0".into());
                }
            }
            NodeRef::Box(b) => {
                let Some(spec) = self.boxes.get(b) else {
                    return bad(format!("box {b} out of range"));
                };
                let limit = if output_side {
                    spec.outputs
                } else {
                    spec.inputs
                };
                if port >= limit {
                    return bad(format!("box {b} port {port} out of range"));
                }
            }
        }
        Ok(())
    }

    /// Validate and freeze the network.
    pub fn build(self) -> Result<Network, NetworkError> {
        // Endpoint / port-range validation.
        for l in &self.links {
            self.check_endpoint(l.src, l.src_port, true)?;
            self.check_endpoint(l.dst, l.dst_port, false)?;
        }
        // Port-uniqueness.
        let mut proc_out: Vec<Option<LinkId>> = vec![None; self.num_processors];
        let mut res_in: Vec<Option<LinkId>> = vec![None; self.num_resources];
        let mut box_in: Vec<Vec<Option<LinkId>>> =
            self.boxes.iter().map(|b| vec![None; b.inputs]).collect();
        let mut box_out: Vec<Vec<Option<LinkId>>> =
            self.boxes.iter().map(|b| vec![None; b.outputs]).collect();
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            let conflict = |what: &str| Err(NetworkError::PortConflict(what.to_string()));
            match l.src {
                NodeRef::Processor(p) => {
                    if proc_out[p].replace(id).is_some() {
                        return conflict(&format!("processor {p} output"));
                    }
                }
                NodeRef::Box(b) => {
                    if box_out[b][l.src_port].replace(id).is_some() {
                        return conflict(&format!("box {b} output port {}", l.src_port));
                    }
                }
                NodeRef::Resource(_) => unreachable!("validated above"),
            }
            match l.dst {
                NodeRef::Resource(r) => {
                    if res_in[r].replace(id).is_some() {
                        return conflict(&format!("resource {r} input"));
                    }
                }
                NodeRef::Box(b) => {
                    if box_in[b][l.dst_port].replace(id).is_some() {
                        return conflict(&format!("box {b} input port {}", l.dst_port));
                    }
                }
                NodeRef::Processor(_) => unreachable!("validated above"),
            }
        }
        // Acyclicity over the element graph (Kahn's algorithm on boxes;
        // processors are sources and resources sinks by construction).
        let nb = self.boxes.len();
        let mut indeg = vec![0usize; nb];
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nb];
        for l in &self.links {
            if let (NodeRef::Box(a), NodeRef::Box(b)) = (l.src, l.dst) {
                succ[a].push(b);
                indeg[b] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..nb).filter(|&b| indeg[b] == 0).collect();
        let mut seen = 0;
        while let Some(b) = queue.pop() {
            seen += 1;
            for &n in &succ[b] {
                indeg[n] -= 1;
                if indeg[n] == 0 {
                    queue.push(n);
                }
            }
        }
        if seen != nb {
            return Err(NetworkError::Cyclic);
        }
        let num_stages = self.boxes.iter().map(|b| b.stage + 1).max().unwrap_or(0);
        let fingerprint = self.fingerprint();
        Ok(Network {
            name: self.name,
            num_processors: self.num_processors,
            num_resources: self.num_resources,
            boxes: self.boxes,
            links: self.links,
            proc_out,
            res_in,
            box_in,
            box_out,
            num_stages,
            fingerprint,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetworkBuilder {
        // 2 procs - one 2x2 box - 2 resources.
        let mut b = NetworkBuilder::new("tiny", 2, 2);
        let bx = b.add_box(0, 2, 2);
        b.link_proc_to_box(0, bx, 0);
        b.link_proc_to_box(1, bx, 1);
        b.link_box_to_res(bx, 0, 0);
        b.link_box_to_res(bx, 1, 1);
        b
    }

    #[test]
    fn builds_valid_network() {
        let net = tiny().build().unwrap();
        assert_eq!(net.num_processors(), 2);
        assert_eq!(net.num_resources(), 2);
        assert_eq!(net.num_boxes(), 1);
        assert_eq!(net.num_stages(), 1);
        assert_eq!(net.num_links(), 4);
        assert!(net.processor_link(0).is_some());
        assert!(net.resource_link(1).is_some());
        assert_eq!(net.out_links(NodeRef::Box(0)).len(), 2);
        assert_eq!(net.in_links(NodeRef::Box(0)).len(), 2);
        assert_eq!(net.boxes_in_stage(0), vec![0]);
        assert!(net.summary().contains("tiny"));
    }

    #[test]
    fn rejects_port_conflict() {
        let mut b = tiny();
        b.link_proc_to_box(0, 0, 1); // processor 0 already wired
        assert!(matches!(b.build(), Err(NetworkError::PortConflict(_))));
    }

    #[test]
    fn rejects_double_wired_box_input() {
        let mut b = NetworkBuilder::new("bad", 2, 1);
        let bx = b.add_box(0, 1, 1);
        b.link_proc_to_box(0, bx, 0);
        b.link_proc_to_box(1, bx, 0);
        assert!(matches!(b.build(), Err(NetworkError::PortConflict(_))));
    }

    #[test]
    fn rejects_bad_endpoints() {
        let mut b = NetworkBuilder::new("bad", 1, 1);
        b.link_proc_to_res(3, 0);
        assert!(matches!(b.build(), Err(NetworkError::BadEndpoint(_))));

        let mut b = NetworkBuilder::new("bad", 1, 1);
        let bx = b.add_box(0, 1, 1);
        b.link_proc_to_box(0, bx, 5);
        assert!(matches!(b.build(), Err(NetworkError::BadEndpoint(_))));
    }

    #[test]
    fn rejects_cycle() {
        let mut b = NetworkBuilder::new("cyclic", 1, 1);
        let b1 = b.add_box(0, 2, 2);
        let b2 = b.add_box(1, 2, 2);
        b.link_box_to_box(b1, 0, b2, 0);
        b.link_box_to_box(b2, 0, b1, 0);
        assert_eq!(b.build().unwrap_err(), NetworkError::Cyclic);
    }

    #[test]
    fn direct_proc_to_res_allowed() {
        let mut b = NetworkBuilder::new("direct", 1, 1);
        b.link_proc_to_res(0, 0);
        let net = b.build().unwrap();
        assert_eq!(net.num_stages(), 0);
        assert_eq!(net.num_links(), 1);
    }

    #[test]
    fn dot_export_lists_all_elements() {
        let net = tiny().build().unwrap();
        let dot = net.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("p0"));
        assert!(dot.contains("b0"));
        assert!(dot.contains("r1"));
        assert_eq!(dot.matches("->").count(), net.num_links());
    }

    #[test]
    fn node_display_names_match_paper_convention() {
        assert_eq!(NodeRef::Processor(0).to_string(), "p1");
        assert_eq!(NodeRef::Resource(7).to_string(), "r8");
        assert_eq!(NodeRef::Box(3).to_string(), "sb3");
    }
}
