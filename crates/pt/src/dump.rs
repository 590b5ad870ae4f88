//! Page-table dumps and placement analysis.
//!
//! The paper's placement study (§3.1, Figures 3 and 4) uses a kernel module
//! that walks a process' page table every 30 seconds and records, for every
//! level and socket, how many page-table pages exist and which sockets their
//! valid entries point to.  [`PageTableDump`] is that module.

use crate::addr::Level;
use crate::store::PtStore;
use mitosis_mem::{FrameId, FrameSpace};
use mitosis_numa::SocketId;
use std::fmt;

/// Locality of a set of page-table entries as seen from one socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteLocality {
    /// Entries that reside on the observing socket.
    pub local: u64,
    /// Entries that reside on any other socket.
    pub remote: u64,
}

impl PteLocality {
    /// Fraction of entries that are remote, or 0 if there are none.
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local + self.remote;
        if total == 0 {
            0.0
        } else {
            self.remote as f64 / total as f64
        }
    }
}

/// Statistics for the page-table pages of one level residing on one socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpLevelSocket {
    /// Page-table level (L4 root .. L1 leaf).
    pub level: Level,
    /// Socket the page-table pages live on.
    pub socket: SocketId,
    /// Number of page-table pages of this level on this socket.
    pub table_pages: u64,
    /// For the valid entries stored in those pages: how many point to a
    /// physical page on each socket (indexed by socket).
    pub pointers_to_socket: Vec<u64>,
}

impl DumpLevelSocket {
    /// Total valid entries stored in this level/socket cell.
    pub fn valid_entries(&self) -> u64 {
        self.pointers_to_socket.iter().sum()
    }

    /// Fraction of valid entries pointing to a *different* socket than the
    /// one the page-table page lives on (the percentage printed in rounded
    /// brackets in Figure 3).
    pub fn remote_pointer_fraction(&self) -> f64 {
        let total = self.valid_entries();
        if total == 0 {
            return 0.0;
        }
        let local = self.pointers_to_socket[self.socket.index()];
        (total - local) as f64 / total as f64
    }
}

/// A processed snapshot of one page-table radix tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PageTableDump {
    sockets: usize,
    cells: Vec<DumpLevelSocket>,
    /// Number of leaf PTEs (L1 entries plus large-page leaf entries) whose
    /// containing page-table page resides on each socket.
    leaf_ptes_per_socket: Vec<u64>,
}

impl PageTableDump {
    /// Walks the radix tree rooted at `root` and produces the placement
    /// snapshot.
    ///
    /// `space` supplies the socket of every physical frame.  Only the tree
    /// reachable from `root` is inspected; to analyse a replicated address
    /// space, capture one dump per per-socket root.
    pub fn capture(store: &PtStore, space: &FrameSpace, root: FrameId) -> Self {
        let sockets = space.sockets();
        let mut cells: Vec<DumpLevelSocket> = Vec::with_capacity(4 * sockets);
        for level in Level::WALK_ORDER {
            for s in 0..sockets {
                cells.push(DumpLevelSocket {
                    level,
                    socket: SocketId::new(s as u16),
                    table_pages: 0,
                    pointers_to_socket: vec![0; sockets],
                });
            }
        }
        let mut dump = PageTableDump {
            sockets,
            cells,
            leaf_ptes_per_socket: vec![0; sockets],
        };
        dump.visit(store, space, root, Level::L4);
        dump
    }

    fn cell_index(&self, level: Level, socket: SocketId) -> usize {
        let level_pos = match level {
            Level::L4 => 0,
            Level::L3 => 1,
            Level::L2 => 2,
            Level::L1 => 3,
        };
        level_pos * self.sockets + socket.index()
    }

    fn visit(&mut self, store: &PtStore, space: &FrameSpace, table: FrameId, level: Level) {
        let table_socket = space.socket_of(table);
        let idx = self.cell_index(level, table_socket);
        self.cells[idx].table_pages += 1;
        // Present entries come straight off the occupancy bitmap; sparse
        // upper-level tables cost popcounts instead of 512 entry reads.
        for (_, pte) in store.present_at(store.slot(table)) {
            let target = pte.frame().expect("present entry has a frame");
            let target_socket = space.socket_of(target);
            self.cells[idx].pointers_to_socket[target_socket.index()] += 1;
            let is_leaf = level == Level::L1 || pte.is_huge();
            if is_leaf {
                self.leaf_ptes_per_socket[table_socket.index()] += 1;
            } else if let Some(next) = level.next_lower() {
                self.visit(store, space, target, next);
            }
        }
    }

    /// Number of sockets the dump covers.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// The per-level, per-socket cells of the dump (Figure 3 rows).
    pub fn cells(&self) -> &[DumpLevelSocket] {
        &self.cells
    }

    /// The cell for a specific level and socket.
    pub fn cell(&self, level: Level, socket: SocketId) -> &DumpLevelSocket {
        &self.cells[self.cell_index(level, socket)]
    }

    /// Total page-table pages of a level across all sockets.
    pub fn pages_at_level(&self, level: Level) -> u64 {
        (0..self.sockets)
            .map(|s| self.cell(level, SocketId::new(s as u16)).table_pages)
            .sum()
    }

    /// Total page-table pages in the tree.
    pub fn total_pages(&self) -> u64 {
        Level::WALK_ORDER
            .iter()
            .map(|l| self.pages_at_level(*l))
            .sum()
    }

    /// Total bytes of page-table memory in the tree.
    pub fn total_bytes(&self) -> u64 {
        self.total_pages() * 4096
    }

    /// Number of leaf PTEs residing on each socket.
    pub fn leaf_ptes_per_socket(&self) -> &[u64] {
        &self.leaf_ptes_per_socket
    }

    /// Total number of leaf PTEs.
    pub fn total_leaf_ptes(&self) -> u64 {
        self.leaf_ptes_per_socket.iter().sum()
    }

    /// Locality of leaf PTEs as observed by a thread running on `observer`:
    /// a leaf PTE is local if the page-table page holding it resides on the
    /// observer's socket (Figure 4 and the Figure 1 top tables).
    pub fn leaf_locality_from(&self, observer: SocketId) -> PteLocality {
        let local = self.leaf_ptes_per_socket[observer.index()];
        let remote = self.total_leaf_ptes() - local;
        PteLocality { local, remote }
    }

    /// Formats the dump in the style of the paper's Figure 3.
    pub fn to_paper_format(&self) -> String {
        let mut out = String::new();
        out.push_str("Level |");
        for s in 0..self.sockets {
            out.push_str(&format!(" Socket {s:<18}|"));
        }
        out.push('\n');
        for level in Level::WALK_ORDER {
            out.push_str(&format!("{level:<5} |"));
            for s in 0..self.sockets {
                let cell = self.cell(level, SocketId::new(s as u16));
                let pointers: Vec<String> = cell
                    .pointers_to_socket
                    .iter()
                    .map(|p| format!("{p:>6}"))
                    .collect();
                out.push_str(&format!(
                    " {:>5} [{}] ({:>3.0}%) |",
                    cell.table_pages,
                    pointers.join(" "),
                    cell.remote_pointer_fraction() * 100.0
                ));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for PageTableDump {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_paper_format())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{Pte, PteFlags};

    /// Builds a two-socket page table by hand:
    /// root on socket 0, one L3/L2/L1 chain on socket 0 and another L1 table
    /// on socket 1; leaf PTEs point to data on socket 1.
    fn build() -> (PtStore, FrameSpace, FrameId) {
        let space = FrameSpace::with_frames_per_socket(2, 10_000);
        let mut store = PtStore::new();
        let root = FrameId::new(0);
        let l3 = FrameId::new(1);
        let l2 = FrameId::new(2);
        let l1_local = FrameId::new(3);
        let l1_remote = FrameId::new(10_000); // socket 1
        for frame in [root, l3, l2, l1_local, l1_remote] {
            store.insert_table(frame, None);
        }
        store.write(root, 0, Pte::new(l3, PteFlags::table_pointer()));
        store.write(l3, 0, Pte::new(l2, PteFlags::table_pointer()));
        store.write(l2, 0, Pte::new(l1_local, PteFlags::table_pointer()));
        store.write(l2, 1, Pte::new(l1_remote, PteFlags::table_pointer()));
        // Data frames on socket 1.
        for i in 0..4u64 {
            let data = FrameId::new(10_100 + i);
            store.write(l1_local, i as usize, Pte::new(data, PteFlags::user_data()));
        }
        for i in 0..2u64 {
            let data = FrameId::new(10_200 + i);
            store.write(l1_remote, i as usize, Pte::new(data, PteFlags::user_data()));
        }
        (store, space, root)
    }

    #[test]
    fn page_counts_per_level_and_socket() {
        let (store, space, root) = build();
        let dump = PageTableDump::capture(&store, &space, root);
        assert_eq!(dump.pages_at_level(Level::L4), 1);
        assert_eq!(dump.pages_at_level(Level::L3), 1);
        assert_eq!(dump.pages_at_level(Level::L2), 1);
        assert_eq!(dump.pages_at_level(Level::L1), 2);
        assert_eq!(dump.total_pages(), 5);
        assert_eq!(dump.total_bytes(), 5 * 4096);
        assert_eq!(dump.cell(Level::L1, SocketId::new(0)).table_pages, 1);
        assert_eq!(dump.cell(Level::L1, SocketId::new(1)).table_pages, 1);
    }

    #[test]
    fn pointer_distribution_and_remote_fraction() {
        let (store, space, root) = build();
        let dump = PageTableDump::capture(&store, &space, root);
        // The L2 table on socket 0 points to one local L1 and one remote L1.
        let l2_cell = dump.cell(Level::L2, SocketId::new(0));
        assert_eq!(l2_cell.valid_entries(), 2);
        assert_eq!(l2_cell.pointers_to_socket, vec![1, 1]);
        assert!((l2_cell.remote_pointer_fraction() - 0.5).abs() < 1e-9);
        // The L1 table on socket 0 points only at socket-1 data: 100% remote.
        let l1_cell = dump.cell(Level::L1, SocketId::new(0));
        assert!((l1_cell.remote_pointer_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_locality_depends_on_observer() {
        let (store, space, root) = build();
        let dump = PageTableDump::capture(&store, &space, root);
        assert_eq!(dump.total_leaf_ptes(), 6);
        assert_eq!(dump.leaf_ptes_per_socket(), &[4, 2]);
        let from0 = dump.leaf_locality_from(SocketId::new(0));
        assert_eq!(from0.local, 4);
        assert_eq!(from0.remote, 2);
        let from1 = dump.leaf_locality_from(SocketId::new(1));
        assert!((from1.remote_fraction() - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn huge_leaf_entries_count_as_leaf_ptes() {
        let space = FrameSpace::with_frames_per_socket(2, 10_000);
        let mut store = PtStore::new();
        let root = FrameId::new(0);
        let l3 = FrameId::new(1);
        let l2 = FrameId::new(2);
        for frame in [root, l3, l2] {
            store.insert_table(frame, None);
        }
        let huge_data = FrameId::new(512);
        store.write(root, 0, Pte::new(l3, PteFlags::table_pointer()));
        store.write(l3, 0, Pte::new(l2, PteFlags::table_pointer()));
        store.write(
            l2,
            0,
            Pte::new(huge_data, PteFlags::user_data().huge_page()),
        );
        let dump = PageTableDump::capture(&store, &space, root);
        assert_eq!(dump.total_leaf_ptes(), 1);
        assert_eq!(dump.pages_at_level(Level::L1), 0);
    }

    #[test]
    fn paper_format_contains_all_levels() {
        let (store, space, root) = build();
        let text = PageTableDump::capture(&store, &space, root).to_string();
        for level in ["L4", "L3", "L2", "L1"] {
            assert!(text.contains(level), "missing {level} in:\n{text}");
        }
    }

    #[test]
    fn empty_locality_is_zero_remote() {
        let locality = PteLocality::default();
        assert_eq!(locality.remote_fraction(), 0.0);
    }
}
