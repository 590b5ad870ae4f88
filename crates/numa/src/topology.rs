//! Sockets, cores and node masks.

use std::fmt;

/// Identifier of a NUMA socket (a package with its attached memory node).
///
/// Socket identifiers are dense indices `0..sockets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SocketId(u16);

impl SocketId {
    /// Creates a socket identifier from a dense index.
    pub const fn new(index: u16) -> Self {
        SocketId(index)
    }

    /// Returns the dense index of this socket.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

impl From<u16> for SocketId {
    fn from(value: u16) -> Self {
        SocketId(value)
    }
}

impl From<SocketId> for u16 {
    fn from(socket: SocketId) -> Self {
        socket.0
    }
}

/// Identifier of a logical core (hardware thread).
///
/// Cores are numbered densely across the machine, socket-major: core `c`
/// belongs to socket `c / cores_per_socket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u32);

impl CoreId {
    /// Creates a core identifier from a dense index.
    pub const fn new(index: u32) -> Self {
        CoreId(index)
    }

    /// Returns the dense index of this core.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<u32> for CoreId {
    fn from(value: u32) -> Self {
        CoreId(value)
    }
}

/// A set of NUMA sockets, equivalent to Linux's `nodemask_t` / libnuma's
/// `struct bitmask`.
///
/// This is the type passed to the Mitosis policy API
/// (`numa_set_pgtable_replication_mask` in the paper) to select the sockets
/// page-tables are replicated on.
///
/// # Example
///
/// ```
/// use mitosis_numa::{NodeMask, SocketId};
///
/// let mask = NodeMask::from_sockets([SocketId::new(0), SocketId::new(2)]);
/// assert!(mask.contains(SocketId::new(0)));
/// assert!(!mask.contains(SocketId::new(1)));
/// assert_eq!(mask.count(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeMask(u64);

impl NodeMask {
    /// The empty mask (no sockets selected).
    pub const EMPTY: NodeMask = NodeMask(0);

    /// Creates an empty node mask.
    pub const fn new() -> Self {
        NodeMask(0)
    }

    /// Creates a mask containing every socket of an `n`-socket machine.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`; the mask supports at most 64 sockets.
    pub fn all(n: usize) -> Self {
        assert!(n <= 64, "NodeMask supports at most 64 sockets");
        if n == 64 {
            NodeMask(u64::MAX)
        } else {
            NodeMask((1u64 << n) - 1)
        }
    }

    /// Creates a mask containing exactly one socket.
    pub fn single(socket: SocketId) -> Self {
        let mut mask = NodeMask::new();
        mask.insert(socket);
        mask
    }

    /// Creates a mask from an iterator of sockets.
    pub fn from_sockets<I: IntoIterator<Item = SocketId>>(sockets: I) -> Self {
        let mut mask = NodeMask::new();
        for socket in sockets {
            mask.insert(socket);
        }
        mask
    }

    /// Adds a socket to the mask. Returns `true` if it was newly inserted.
    pub fn insert(&mut self, socket: SocketId) -> bool {
        let bit = 1u64 << socket.index();
        let newly = self.0 & bit == 0;
        self.0 |= bit;
        newly
    }

    /// Removes a socket from the mask. Returns `true` if it was present.
    pub fn remove(&mut self, socket: SocketId) -> bool {
        let bit = 1u64 << socket.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Returns `true` if the mask contains `socket`.
    pub const fn contains(self, socket: SocketId) -> bool {
        self.0 & (1u64 << socket.0 as usize) != 0
    }

    /// Returns the number of sockets in the mask.
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if no socket is selected.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Returns the union of two masks.
    pub const fn union(self, other: NodeMask) -> NodeMask {
        NodeMask(self.0 | other.0)
    }

    /// Returns the intersection of two masks.
    pub const fn intersection(self, other: NodeMask) -> NodeMask {
        NodeMask(self.0 & other.0)
    }

    /// Iterates over the sockets contained in the mask, in increasing order.
    pub fn iter(self) -> impl Iterator<Item = SocketId> {
        (0..64u16)
            .filter(move |i| self.0 & (1u64 << i) != 0)
            .map(SocketId::new)
    }

    /// Returns the raw 64-bit representation (bit `i` = socket `i`).
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// Creates a mask from a raw 64-bit representation.
    pub const fn from_bits(bits: u64) -> Self {
        NodeMask(bits)
    }
}

impl fmt::Display for NodeMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sockets: Vec<String> = self.iter().map(|s| s.index().to_string()).collect();
        write!(f, "{{{}}}", sockets.join(","))
    }
}

impl FromIterator<SocketId> for NodeMask {
    fn from_iter<T: IntoIterator<Item = SocketId>>(iter: T) -> Self {
        NodeMask::from_sockets(iter)
    }
}

/// Static description of the machine: sockets, cores and per-socket memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    sockets: u16,
    cores_per_socket: u32,
    memory_per_socket: u64,
    l3_bytes_per_socket: u64,
}

impl Topology {
    /// Creates a topology description.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or if `sockets > 64`.
    pub fn new(
        sockets: u16,
        cores_per_socket: u32,
        memory_per_socket: u64,
        l3_bytes_per_socket: u64,
    ) -> Self {
        assert!(sockets > 0, "a machine needs at least one socket");
        assert!(sockets as usize <= 64, "at most 64 sockets supported");
        assert!(cores_per_socket > 0, "a socket needs at least one core");
        assert!(memory_per_socket > 0, "a socket needs attached memory");
        Topology {
            sockets,
            cores_per_socket,
            memory_per_socket,
            l3_bytes_per_socket,
        }
    }

    /// Number of sockets in the machine.
    pub fn sockets(&self) -> usize {
        self.sockets as usize
    }

    /// Number of logical cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket as usize
    }

    /// Total number of logical cores.
    pub fn total_cores(&self) -> usize {
        self.sockets() * self.cores_per_socket()
    }

    /// Bytes of DRAM attached to each socket.
    pub fn memory_per_socket(&self) -> u64 {
        self.memory_per_socket
    }

    /// Bytes of last-level cache per socket.
    pub fn l3_bytes_per_socket(&self) -> u64 {
        self.l3_bytes_per_socket
    }

    /// Returns the socket identifier for a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.sockets()`.
    pub fn socket(&self, index: usize) -> SocketId {
        assert!(index < self.sockets(), "socket index out of range");
        SocketId::new(index as u16)
    }

    /// Returns the core identifier for a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.total_cores()`.
    pub fn core(&self, index: usize) -> CoreId {
        assert!(index < self.total_cores(), "core index out of range");
        CoreId::new(index as u32)
    }

    /// Returns the socket a core belongs to.
    pub fn socket_of_core(&self, core: CoreId) -> SocketId {
        SocketId::new((core.index() / self.cores_per_socket()) as u16)
    }

    /// Returns the cores belonging to a socket, in increasing order.
    pub fn cores_of_socket(&self, socket: SocketId) -> Vec<CoreId> {
        let start = socket.index() * self.cores_per_socket();
        (start..start + self.cores_per_socket())
            .map(|i| CoreId::new(i as u32))
            .collect()
    }

    /// Returns the first core of a socket (convenient for pinning one
    /// representative thread per socket).
    pub fn first_core_of_socket(&self, socket: SocketId) -> CoreId {
        CoreId::new((socket.index() * self.cores_per_socket()) as u32)
    }

    /// Iterates over all sockets.
    pub fn socket_ids(&self) -> impl Iterator<Item = SocketId> {
        (0..self.sockets).map(SocketId::new)
    }

    /// Returns a mask containing all sockets of this machine.
    pub fn all_sockets(&self) -> NodeMask {
        NodeMask::all(self.sockets())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn socket_and_core_indexing() {
        let topo = Topology::new(4, 14, 128 << 30, 35 << 20);
        assert_eq!(topo.sockets(), 4);
        assert_eq!(topo.total_cores(), 56);
        assert_eq!(topo.socket_of_core(CoreId::new(0)), SocketId::new(0));
        assert_eq!(topo.socket_of_core(CoreId::new(13)), SocketId::new(0));
        assert_eq!(topo.socket_of_core(CoreId::new(14)), SocketId::new(1));
        assert_eq!(topo.socket_of_core(CoreId::new(55)), SocketId::new(3));
    }

    #[test]
    fn cores_of_socket_are_contiguous() {
        let topo = Topology::new(2, 4, 1 << 30, 8 << 20);
        let cores = topo.cores_of_socket(SocketId::new(1));
        assert_eq!(cores.len(), 4);
        assert_eq!(cores[0], CoreId::new(4));
        assert_eq!(cores[3], CoreId::new(7));
        assert_eq!(topo.first_core_of_socket(SocketId::new(1)), CoreId::new(4));
    }

    #[test]
    #[should_panic(expected = "socket index out of range")]
    fn socket_out_of_range_panics() {
        let topo = Topology::new(2, 4, 1 << 30, 8 << 20);
        let _ = topo.socket(2);
    }

    #[test]
    fn node_mask_insert_remove_contains() {
        let mut mask = NodeMask::new();
        assert!(mask.is_empty());
        assert!(mask.insert(SocketId::new(3)));
        assert!(!mask.insert(SocketId::new(3)));
        assert!(mask.contains(SocketId::new(3)));
        assert_eq!(mask.count(), 1);
        assert!(mask.remove(SocketId::new(3)));
        assert!(!mask.remove(SocketId::new(3)));
        assert!(mask.is_empty());
    }

    #[test]
    fn node_mask_all_and_iter() {
        let mask = NodeMask::all(4);
        assert_eq!(mask.count(), 4);
        let sockets: Vec<usize> = mask.iter().map(|s| s.index()).collect();
        assert_eq!(sockets, vec![0, 1, 2, 3]);
        assert_eq!(mask.to_string(), "{0,1,2,3}");
    }

    #[test]
    fn node_mask_union_intersection() {
        let a = NodeMask::from_sockets([SocketId::new(0), SocketId::new(1)]);
        let b = NodeMask::from_sockets([SocketId::new(1), SocketId::new(2)]);
        assert_eq!(a.union(b).count(), 3);
        assert_eq!(a.intersection(b).count(), 1);
        assert!(a.intersection(b).contains(SocketId::new(1)));
    }

    #[test]
    fn node_mask_64_sockets() {
        let mask = NodeMask::all(64);
        assert_eq!(mask.count(), 64);
        assert_eq!(mask.bits(), u64::MAX);
    }

    #[test]
    fn node_mask_collect_from_iterator() {
        let mask: NodeMask = (0..3u16).map(SocketId::new).collect();
        assert_eq!(mask, NodeMask::all(3));
    }
}
