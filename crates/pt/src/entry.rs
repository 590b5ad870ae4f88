//! Page-table entries.

use mitosis_mem::FrameId;
use std::fmt;

/// Software view of the architectural PTE flag bits the simulator models.
///
/// The layout follows x86-64: bit 0 present, bit 1 writable, bit 2 user,
/// bit 5 accessed, bit 6 dirty, bit 7 page-size (PS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PteFlags {
    /// Entry is valid.
    pub present: bool,
    /// Page may be written.
    pub writable: bool,
    /// Page is user-accessible.
    pub user: bool,
    /// Set by the hardware walker when the page is referenced.
    pub accessed: bool,
    /// Set by the hardware walker when the page is written.
    pub dirty: bool,
    /// Entry maps a large page directly (PS bit; only meaningful at L2/L3).
    pub huge: bool,
}

impl PteFlags {
    /// Flags for a user-space, writable data mapping.
    pub fn user_data() -> Self {
        PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: false,
            dirty: false,
            huge: false,
        }
    }

    /// Flags for a read-only user mapping (e.g. after `mprotect(PROT_READ)`).
    pub fn user_readonly() -> Self {
        PteFlags {
            writable: false,
            ..PteFlags::user_data()
        }
    }

    /// Flags for a non-leaf entry pointing to a lower-level page-table page.
    pub fn table_pointer() -> Self {
        PteFlags {
            present: true,
            writable: true,
            user: true,
            accessed: false,
            dirty: false,
            huge: false,
        }
    }

    /// Returns these flags with the huge (PS) bit set.
    pub fn huge_page(mut self) -> Self {
        self.huge = true;
        self
    }
}

/// A single page-table entry: flags plus the physical frame it refers to.
///
/// A non-present entry carries no frame.  For non-leaf entries the frame is a
/// page-table page; for leaf entries (L1, or L2/L3 with the huge bit) it is
/// the first frame of the mapped data page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte {
    flags: PteFlags,
    frame: Option<FrameId>,
}

impl Pte {
    // Flag positions in the 64-bit encoding (`Pte::to_bits`).
    pub(crate) const PRESENT_BIT: u64 = 1 << 0;
    pub(crate) const WRITABLE_BIT: u64 = 1 << 1;
    const USER_BIT: u64 = 1 << 2;
    pub(crate) const ACCESSED_BIT: u64 = 1 << 5;
    pub(crate) const DIRTY_BIT: u64 = 1 << 6;
    pub(crate) const HUGE_BIT: u64 = 1 << 7;
    /// The frame number's position in the 64-bit encoding.
    pub(crate) const FRAME_SHIFT: u32 = 12;

    /// The all-zero, non-present entry.
    pub const EMPTY: Pte = Pte {
        flags: PteFlags {
            present: false,
            writable: false,
            user: false,
            accessed: false,
            dirty: false,
            huge: false,
        },
        frame: None,
    };

    /// Creates a present entry referring to `frame` with the given flags.
    ///
    /// # Panics
    ///
    /// Panics if `flags.present` is false; use [`Pte::EMPTY`] for empty
    /// entries.
    pub fn new(frame: FrameId, flags: PteFlags) -> Self {
        assert!(flags.present, "present flag required for a mapped entry");
        Pte {
            flags,
            frame: Some(frame),
        }
    }

    /// Returns `true` if the entry is present (valid).
    pub fn is_present(self) -> bool {
        self.flags.present
    }

    /// Returns `true` if this is a large-page leaf entry (PS bit set).
    pub fn is_huge(self) -> bool {
        self.flags.huge
    }

    /// The frame the entry points to, if present.
    pub fn frame(self) -> Option<FrameId> {
        self.frame
    }

    /// The entry's flags.
    pub fn flags(self) -> PteFlags {
        self.flags
    }

    /// Returns a copy of the entry with different flags (same frame).
    pub fn with_flags(self, flags: PteFlags) -> Pte {
        Pte {
            flags,
            frame: self.frame,
        }
    }

    /// Returns a copy of the entry pointing at a different frame (same
    /// flags); used when propagating non-leaf entries to replicas, where the
    /// child pointer must be redirected to the same-socket child replica.
    pub fn with_frame(self, frame: FrameId) -> Pte {
        Pte {
            flags: self.flags,
            frame: Some(frame),
        }
    }

    /// Returns a copy with the accessed bit set.
    pub fn with_accessed(mut self) -> Pte {
        self.flags.accessed = true;
        self
    }

    /// Returns a copy with the dirty bit set.
    pub fn with_dirty(mut self) -> Pte {
        self.flags.dirty = true;
        self
    }

    /// This entry under new protection `flags`: its frame, large-page bit
    /// and accessed/dirty bits stay, every other flag comes from `flags`.
    pub fn reprotected(self, flags: PteFlags) -> Pte {
        self.with_flags(PteFlags {
            huge: self.flags.huge,
            accessed: self.flags.accessed,
            dirty: self.flags.dirty,
            ..flags
        })
    }

    /// Returns a copy with accessed and dirty bits cleared.
    pub fn with_ad_cleared(mut self) -> Pte {
        self.flags.accessed = false;
        self.flags.dirty = false;
        self
    }

    /// Encodes the entry into its 64-bit architectural representation.
    ///
    /// [`Pte::from_bits`] inverts it for every entry the simulator builds:
    /// present entries (from [`Pte::new`] and the `with_*` copies) whose
    /// frame number fits in 52 bits, and [`Pte::EMPTY`].
    #[inline]
    pub fn to_bits(self) -> u64 {
        let flag = |set: bool, bit: u64| if set { bit } else { 0 };
        let flags = self.flags;
        flag(flags.present, Self::PRESENT_BIT)
            | flag(flags.writable, Self::WRITABLE_BIT)
            | flag(flags.user, Self::USER_BIT)
            | flag(flags.accessed, Self::ACCESSED_BIT)
            | flag(flags.dirty, Self::DIRTY_BIT)
            | flag(flags.huge, Self::HUGE_BIT)
            | self
                .frame
                .map_or(0, |frame| frame.pfn() << Self::FRAME_SHIFT)
    }

    /// Decodes an entry from its 64-bit architectural representation.
    #[inline]
    pub fn from_bits(bits: u64) -> Self {
        if bits & Self::PRESENT_BIT == 0 {
            return Pte::EMPTY;
        }
        Pte {
            flags: PteFlags {
                present: true,
                writable: bits & Self::WRITABLE_BIT != 0,
                user: bits & Self::USER_BIT != 0,
                accessed: bits & Self::ACCESSED_BIT != 0,
                dirty: bits & Self::DIRTY_BIT != 0,
                huge: bits & Self::HUGE_BIT != 0,
            },
            frame: Some(FrameId::new(bits >> Self::FRAME_SHIFT)),
        }
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.is_present() {
            return write!(f, "<empty>");
        }
        write!(
            f,
            "{} [{}{}{}{}{}]",
            self.frame.expect("present entry has a frame"),
            if self.flags.writable { "W" } else { "-" },
            if self.flags.user { "U" } else { "-" },
            if self.flags.accessed { "A" } else { "-" },
            if self.flags.dirty { "D" } else { "-" },
            if self.flags.huge { "H" } else { "-" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_not_present() {
        assert!(!Pte::EMPTY.is_present());
        assert_eq!(Pte::EMPTY.frame(), None);
        assert_eq!(Pte::EMPTY.to_bits(), 0);
        assert_eq!(Pte::from_bits(0), Pte::EMPTY);
    }

    #[test]
    fn bit_encoding_roundtrips() {
        let pte = Pte::new(FrameId::new(0x1234), PteFlags::user_data().huge_page())
            .with_accessed()
            .with_dirty();
        let decoded = Pte::from_bits(pte.to_bits());
        assert_eq!(decoded, pte);
        assert!(decoded.is_huge());
        assert_eq!(decoded.frame(), Some(FrameId::new(0x1234)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every present entry the simulator can build survives the 64-bit
        /// encoding the page-table store keeps.
        #[test]
        fn present_entries_roundtrip_through_their_bits(
            pfn in 0u64..(1 << 52),
            flags in (
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<bool>(),
            ),
        ) {
            let (writable, user, accessed, dirty, huge) = flags;
            let pte = Pte::new(
                FrameId::new(pfn),
                PteFlags { present: true, writable, user, accessed, dirty, huge },
            );
            proptest::prop_assert_eq!(Pte::from_bits(pte.to_bits()), pte);
            proptest::prop_assert_eq!(Pte::from_bits(pte.to_bits()).to_bits(), pte.to_bits());
        }
    }

    #[test]
    fn flag_manipulation() {
        let pte = Pte::new(FrameId::new(7), PteFlags::user_data());
        assert!(!pte.flags().accessed);
        let touched = pte.with_accessed().with_dirty();
        assert!(touched.flags().accessed && touched.flags().dirty);
        let cleared = touched.with_ad_cleared();
        assert!(!cleared.flags().accessed && !cleared.flags().dirty);
        // Frame is preserved through flag changes.
        assert_eq!(cleared.frame(), Some(FrameId::new(7)));
    }

    #[test]
    fn with_frame_redirects_pointer_only() {
        let pte = Pte::new(FrameId::new(10), PteFlags::table_pointer());
        let redirected = pte.with_frame(FrameId::new(20));
        assert_eq!(redirected.frame(), Some(FrameId::new(20)));
        assert_eq!(redirected.flags(), pte.flags());
    }

    #[test]
    fn readonly_flags_drop_writable() {
        assert!(!PteFlags::user_readonly().writable);
        assert!(PteFlags::user_readonly().present);
    }

    #[test]
    #[should_panic(expected = "present flag required")]
    fn non_present_mapped_entry_panics() {
        let _ = Pte::new(FrameId::new(1), PteFlags::default());
    }

    #[test]
    fn display_shows_flags() {
        let pte = Pte::new(FrameId::new(1), PteFlags::user_data()).with_dirty();
        let s = pte.to_string();
        assert!(s.contains("W"));
        assert!(s.contains("D"));
        assert_eq!(Pte::EMPTY.to_string(), "<empty>");
    }
}
