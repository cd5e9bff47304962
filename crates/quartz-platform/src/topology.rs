//! Socket/core/NUMA-node topology of the simulated machine.
//!
//! The validation testbeds in the paper are all two-socket NUMA servers
//! (Fig. 9); the DRAM+NVM extension (§3.3) partitions sockets into sibling
//! sets where one socket's DRAM plays the role of virtual NVM.

use std::fmt;

/// Identifies a logical core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

/// Identifies a CPU socket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SocketId(pub usize);

/// Identifies a NUMA memory node (one per socket on our testbeds).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The machine's socket/core/node layout.
///
/// ```
/// use quartz_platform::Topology;
/// let topo = Topology::new(2, 8);
/// assert_eq!(topo.num_cores(), 16);
/// assert_eq!(topo.socket_of(quartz_platform::CoreId(9)).0, 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Topology {
    sockets: usize,
    cores_per_socket: usize,
}

impl Topology {
    /// Creates a topology with `sockets` sockets of `cores_per_socket`
    /// physical cores each. One NUMA node per socket.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(sockets: usize, cores_per_socket: usize) -> Self {
        assert!(sockets > 0, "need at least one socket");
        assert!(cores_per_socket > 0, "need at least one core per socket");
        Topology {
            sockets,
            cores_per_socket,
        }
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Number of NUMA nodes (one per socket).
    pub fn num_nodes(&self) -> usize {
        self.sockets
    }

    /// The socket a core belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        assert!(core.0 < self.num_cores(), "core {core} out of range");
        SocketId(core.0 / self.cores_per_socket)
    }

    /// The NUMA node local to a core.
    pub fn local_node_of(&self, core: CoreId) -> NodeId {
        NodeId(self.socket_of(core).0)
    }

    /// The NUMA node directly attached to a socket.
    pub fn node_of_socket(&self, socket: SocketId) -> NodeId {
        assert!(socket.0 < self.sockets, "socket {socket} out of range");
        NodeId(socket.0)
    }

    /// Whether `node` is local to `core`.
    pub fn is_local(&self, core: CoreId, node: NodeId) -> bool {
        self.local_node_of(core) == node
    }

    /// Iterates over the cores of one socket.
    pub fn cores_of(&self, socket: SocketId) -> impl Iterator<Item = CoreId> + use<> {
        assert!(socket.0 < self.sockets, "socket {socket} out of range");
        let base = socket.0 * self.cores_per_socket;
        (base..base + self.cores_per_socket).map(CoreId)
    }

    /// The sibling socket in a two-socket sibling set (paper §3.3 pairs
    /// socket 2k with socket 2k+1).
    ///
    /// Returns `None` if the partner index is out of range (odd socket
    /// count).
    pub fn sibling_socket(&self, socket: SocketId) -> Option<SocketId> {
        let partner = socket.0 ^ 1;
        (partner < self.sockets).then_some(SocketId(partner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_to_socket_mapping() {
        let t = Topology::new(2, 10);
        assert_eq!(t.socket_of(CoreId(0)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(9)), SocketId(0));
        assert_eq!(t.socket_of(CoreId(10)), SocketId(1));
        assert_eq!(t.socket_of(CoreId(19)), SocketId(1));
    }

    #[test]
    fn locality() {
        let t = Topology::new(2, 4);
        assert!(t.is_local(CoreId(1), NodeId(0)));
        assert!(!t.is_local(CoreId(1), NodeId(1)));
        assert!(t.is_local(CoreId(5), NodeId(1)));
    }

    #[test]
    fn sibling_sets() {
        let t = Topology::new(2, 4);
        assert_eq!(t.sibling_socket(SocketId(0)), Some(SocketId(1)));
        assert_eq!(t.sibling_socket(SocketId(1)), Some(SocketId(0)));
        let t3 = Topology::new(3, 4);
        assert_eq!(t3.sibling_socket(SocketId(2)), None);
    }

    #[test]
    fn cores_of_socket() {
        let t = Topology::new(2, 3);
        let cores: Vec<_> = t.cores_of(SocketId(1)).collect();
        assert_eq!(cores, vec![CoreId(3), CoreId(4), CoreId(5)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        Topology::new(1, 2).socket_of(CoreId(2));
    }
}
