//! Virtual memory areas.

use crate::error::VmError;
use mitosis_pt::{PageSize, VirtAddr};
use std::fmt;

/// Access protection of a VMA (a simplified `PROT_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Readable only.
    ReadOnly,
    /// Readable and writable.
    ReadWrite,
}

impl Protection {
    /// Returns `true` if writes are permitted.
    pub fn is_writable(self) -> bool {
        matches!(self, Protection::ReadWrite)
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protection::ReadOnly => write!(f, "r--"),
            Protection::ReadWrite => write!(f, "rw-"),
        }
    }
}

/// One virtual memory area established by `mmap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vma {
    start: VirtAddr,
    length: u64,
    protection: Protection,
    /// Whether transparent huge pages may back this area.
    thp_eligible: bool,
}

impl Vma {
    /// Creates a VMA.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `length` is not 4 KiB-aligned or `length` is 0.
    pub fn new(start: VirtAddr, length: u64, protection: Protection) -> Self {
        assert!(length > 0, "a VMA cannot be empty");
        assert!(
            start.is_aligned(PageSize::Base4K),
            "VMA start must be page-aligned"
        );
        assert!(
            length.is_multiple_of(PageSize::Base4K.bytes()),
            "VMA length must be page-aligned"
        );
        Vma {
            start,
            length,
            protection,
            thp_eligible: true,
        }
    }

    /// Disables transparent huge pages for this area (`madvise(MADV_NOHUGEPAGE)`).
    pub fn with_thp_disabled(mut self) -> Self {
        self.thp_eligible = false;
        self
    }

    /// First address of the area.
    pub fn start(&self) -> VirtAddr {
        self.start
    }

    /// Length of the area in bytes.
    pub fn length(&self) -> u64 {
        self.length
    }

    /// One past the last address of the area.
    pub fn end(&self) -> VirtAddr {
        self.start.add(self.length)
    }

    /// The area's protection.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// Updates the protection (`mprotect`).
    pub fn set_protection(&mut self, protection: Protection) {
        self.protection = protection;
    }

    /// Whether THP may back the area.
    pub fn thp_eligible(&self) -> bool {
        self.thp_eligible
    }

    /// Returns `true` if `addr` lies inside the area.
    pub fn contains(&self, addr: VirtAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if the two half-open ranges intersect.
    pub fn overlaps(&self, start: VirtAddr, length: u64) -> bool {
        let other_end = start.add(length);
        start < self.end() && self.start < other_end
    }

    /// Returns `true` if the whole 2 MiB-aligned huge page containing `addr`
    /// fits inside the area (a prerequisite for THP backing).
    pub fn fits_huge_page(&self, addr: VirtAddr) -> bool {
        let huge_start = addr.align_down(PageSize::Huge2M);
        huge_start >= self.start && huge_start.add(PageSize::Huge2M.bytes()) <= self.end()
    }

    /// Number of base pages spanned by the area.
    pub fn base_pages(&self) -> u64 {
        self.length / PageSize::Base4K.bytes()
    }

    /// Returns a sub-area of this VMA covering `[start, start + length)`,
    /// preserving protection and THP eligibility (the pieces a partial
    /// `munmap` splits an area into).
    ///
    /// # Panics
    ///
    /// Panics if the requested range is not fully inside the area.
    pub fn slice(&self, start: VirtAddr, length: u64) -> Vma {
        assert!(
            start >= self.start && start.add(length) <= self.end(),
            "slice must lie inside the area"
        );
        Vma {
            start,
            length,
            protection: self.protection,
            thp_eligible: self.thp_eligible,
        }
    }
}

/// The ordered set of VMAs of one address space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmaSet {
    areas: Vec<Vma>,
}

impl VmaSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        VmaSet::default()
    }

    /// Inserts a VMA.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::VmaOverlap`] if it intersects an existing area.
    pub fn insert(&mut self, vma: Vma) -> Result<(), VmError> {
        if self
            .areas
            .iter()
            .any(|existing| existing.overlaps(vma.start(), vma.length()))
        {
            return Err(VmError::VmaOverlap { addr: vma.start() });
        }
        self.areas.push(vma);
        self.areas.sort_by_key(|v| v.start());
        Ok(())
    }

    /// Removes the VMA starting exactly at `start` and returns it.
    pub fn remove(&mut self, start: VirtAddr) -> Option<Vma> {
        let index = self.areas.iter().position(|v| v.start() == start)?;
        Some(self.areas.remove(index))
    }

    /// Finds the VMA containing `addr`.
    pub fn find(&self, addr: VirtAddr) -> Option<&Vma> {
        self.areas.iter().find(|v| v.contains(addr))
    }

    /// Finds the VMA containing `addr`, mutably.
    pub fn find_mut(&mut self, addr: VirtAddr) -> Option<&mut Vma> {
        self.areas.iter_mut().find(|v| v.contains(addr))
    }

    /// Iterates over the areas in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Vma> {
        self.areas.iter()
    }

    /// Number of areas.
    pub fn len(&self) -> usize {
        self.areas.len()
    }

    /// Returns `true` if there are no areas.
    pub fn is_empty(&self) -> bool {
        self.areas.is_empty()
    }

    /// Total bytes covered by all areas.
    pub fn total_bytes(&self) -> u64 {
        self.areas.iter().map(Vma::length).sum()
    }

    /// Carves `[start, start + length)` out of the set: areas fully inside
    /// the range are removed, areas partially covered are shrunk or split
    /// (keeping their protection and THP eligibility).  Returns the removed
    /// pieces in address order — exactly the sub-areas a partial `munmap`
    /// tears down.
    pub fn remove_range(&mut self, start: VirtAddr, length: u64) -> Vec<Vma> {
        let end = start.add(length);
        let mut removed = Vec::new();
        let mut kept = Vec::new();
        for vma in self.areas.drain(..) {
            if !vma.overlaps(start, length) {
                kept.push(vma);
                continue;
            }
            let cut_start = vma.start().max(start);
            let cut_end = vma.end().min(end);
            if vma.start() < cut_start {
                kept.push(vma.slice(vma.start(), cut_start.as_u64() - vma.start().as_u64()));
            }
            removed.push(vma.slice(cut_start, cut_end.as_u64() - cut_start.as_u64()));
            if cut_end < vma.end() {
                kept.push(vma.slice(cut_end, vma.end().as_u64() - cut_end.as_u64()));
            }
        }
        kept.sort_by_key(|v| v.start());
        self.areas = kept;
        removed.sort_by_key(|v| v.start());
        removed
    }

    /// Sets the protection of `[start, start + length)` (`mprotect`):
    /// areas are split at the range edges as by [`Self::remove_range`], and
    /// every piece inside the range — across as many areas as it spans —
    /// takes `protection`.
    pub fn protect_range(&mut self, start: VirtAddr, length: u64, protection: Protection) {
        for mut piece in self.remove_range(start, length) {
            piece.set_protection(protection);
            self.areas.push(piece);
        }
        self.areas.sort_by_key(|v| v.start());
    }

    /// Returns the lowest address at or above `hint` where a `length`-byte
    /// region fits without overlapping any area.
    pub fn find_free_region(&self, hint: VirtAddr, length: u64) -> VirtAddr {
        let mut candidate = hint;
        loop {
            match self.areas.iter().find(|v| v.overlaps(candidate, length)) {
                Some(blocking) => candidate = blocking.end(),
                None => return candidate,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vma(start: u64, len: u64) -> Vma {
        Vma::new(VirtAddr::new(start), len, Protection::ReadWrite)
    }

    #[test]
    fn contains_and_overlaps() {
        let v = vma(0x10000, 0x4000);
        assert!(v.contains(VirtAddr::new(0x10000)));
        assert!(v.contains(VirtAddr::new(0x13fff)));
        assert!(!v.contains(VirtAddr::new(0x14000)));
        assert!(v.overlaps(VirtAddr::new(0x13000), 0x2000));
        assert!(!v.overlaps(VirtAddr::new(0x14000), 0x1000));
        assert_eq!(v.base_pages(), 4);
    }

    #[test]
    fn insert_rejects_overlap() {
        let mut set = VmaSet::new();
        set.insert(vma(0x10000, 0x4000)).unwrap();
        assert_eq!(
            set.insert(vma(0x12000, 0x4000)),
            Err(VmError::VmaOverlap {
                addr: VirtAddr::new(0x12000)
            })
        );
        set.insert(vma(0x14000, 0x1000)).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.total_bytes(), 0x5000);
    }

    #[test]
    fn find_and_remove() {
        let mut set = VmaSet::new();
        set.insert(vma(0x10000, 0x4000)).unwrap();
        set.insert(vma(0x20000, 0x1000)).unwrap();
        assert_eq!(
            set.find(VirtAddr::new(0x20000)).unwrap().start(),
            VirtAddr::new(0x20000)
        );
        assert!(set.find(VirtAddr::new(0x30000)).is_none());
        let removed = set.remove(VirtAddr::new(0x10000)).unwrap();
        assert_eq!(removed.length(), 0x4000);
        assert!(set.remove(VirtAddr::new(0x10000)).is_none());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn find_free_region_skips_existing_areas() {
        let mut set = VmaSet::new();
        set.insert(vma(0x10000, 0x4000)).unwrap();
        set.insert(vma(0x14000, 0x4000)).unwrap();
        let free = set.find_free_region(VirtAddr::new(0x10000), 0x2000);
        assert_eq!(free, VirtAddr::new(0x18000));
        let untouched = set.find_free_region(VirtAddr::new(0x40000), 0x2000);
        assert_eq!(untouched, VirtAddr::new(0x40000));
    }

    #[test]
    fn remove_range_splits_and_shrinks() {
        let mut set = VmaSet::new();
        set.insert(vma(0x10000, 0x8000)).unwrap();
        // Punch a hole in the middle: the VMA splits into head and tail.
        let removed = set.remove_range(VirtAddr::new(0x12000), 0x2000);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].start(), VirtAddr::new(0x12000));
        assert_eq!(removed[0].length(), 0x2000);
        assert_eq!(set.len(), 2);
        assert!(set.find(VirtAddr::new(0x11fff)).is_some());
        assert!(set.find(VirtAddr::new(0x12000)).is_none());
        assert!(set.find(VirtAddr::new(0x14000)).is_some());
        // Shrink the head from the front.
        let removed = set.remove_range(VirtAddr::new(0x10000), 0x1000);
        assert_eq!(removed.len(), 1);
        assert_eq!(
            set.find(VirtAddr::new(0x11000)).unwrap().start(),
            VirtAddr::new(0x11000)
        );
        // A range spanning the hole removes pieces of both remnants.
        let removed = set.remove_range(VirtAddr::new(0x11000), 0x4000);
        assert_eq!(removed.len(), 2);
        assert_eq!(set.total_bytes(), 0x3000);
        // A disjoint range removes nothing.
        assert!(set.remove_range(VirtAddr::new(0x40000), 0x1000).is_empty());
    }

    #[test]
    fn protect_range_splits_at_both_edges_across_areas() {
        let mut set = VmaSet::new();
        set.insert(vma(0x10000, 0x4000).with_thp_disabled())
            .unwrap();
        set.insert(vma(0x14000, 0x4000)).unwrap();
        // From inside the first area to inside the second.
        set.protect_range(VirtAddr::new(0x12000), 0x4000, Protection::ReadOnly);
        let layout: Vec<(u64, u64, Protection, bool)> = set
            .iter()
            .map(|v| {
                (
                    v.start().as_u64(),
                    v.length(),
                    v.protection(),
                    v.thp_eligible(),
                )
            })
            .collect();
        assert_eq!(
            layout,
            vec![
                (0x10000, 0x2000, Protection::ReadWrite, false),
                (0x12000, 0x2000, Protection::ReadOnly, false),
                (0x14000, 0x2000, Protection::ReadOnly, true),
                (0x16000, 0x2000, Protection::ReadWrite, true),
            ]
        );
        // A range no area covers changes nothing.
        set.protect_range(VirtAddr::new(0x40000), 0x1000, Protection::ReadOnly);
        assert_eq!(set.len(), 4);
        assert_eq!(set.total_bytes(), 0x8000);
    }

    #[test]
    fn slices_preserve_protection_and_thp_flags() {
        let v = Vma::new(VirtAddr::new(0x10000), 0x4000, Protection::ReadOnly).with_thp_disabled();
        let piece = v.slice(VirtAddr::new(0x11000), 0x1000);
        assert_eq!(piece.protection(), Protection::ReadOnly);
        assert!(!piece.thp_eligible());
        assert_eq!(piece.length(), 0x1000);
    }

    #[test]
    #[should_panic(expected = "inside the area")]
    fn slice_outside_the_area_panics() {
        let v = vma(0x10000, 0x1000);
        let _ = v.slice(VirtAddr::new(0x11000), 0x1000);
    }

    #[test]
    fn huge_page_fit() {
        let aligned = Vma::new(
            VirtAddr::new(0x4000_0000),
            4 * 1024 * 1024,
            Protection::ReadWrite,
        );
        assert!(aligned.fits_huge_page(VirtAddr::new(0x4000_0000)));
        assert!(aligned.fits_huge_page(VirtAddr::new(0x401f_f000)));
        let small = vma(0x4000_0000, 0x10_0000); // 1 MiB: no huge page fits
        assert!(!small.fits_huge_page(VirtAddr::new(0x4000_0000)));
    }

    #[test]
    fn protection_updates() {
        let mut v = vma(0x1000, 0x1000);
        assert!(v.protection().is_writable());
        v.set_protection(Protection::ReadOnly);
        assert!(!v.protection().is_writable());
        assert_eq!(v.protection().to_string(), "r--");
    }

    #[test]
    fn thp_opt_out() {
        let v = vma(0x1000, 0x1000).with_thp_disabled();
        assert!(!v.thp_eligible());
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_vma_panics() {
        let _ = Vma::new(VirtAddr::new(0x123), 0x1000, Protection::ReadWrite);
    }
}
