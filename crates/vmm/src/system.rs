//! The kernel: processes, system calls, demand paging and migration.

use crate::config::{PtPlacement, ShootdownMode, ThpMode, VmmConfig};
use crate::error::VmError;
use crate::process::{AddressSpace, Pid, Process};
use crate::vma::{Protection, Vma};
use mitosis_mem::{CowRefCounts, FrameId, FrameKind, MemError, PolicyEngine, BASE_PAGE_SIZE};
use mitosis_numa::{Machine, SocketId};
use mitosis_pt::{
    Level, Mapper, MappingTx, NativePvOps, PageSize, PageTableDump, PtContext, PtEnv, Pte,
    PteFlags, PvOps, ReplicationSpec, ShootdownPlan, Translation, VirtAddr,
};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Flags controlling an [`System::mmap`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmapFlags {
    /// Eagerly fault in every page (`MAP_POPULATE`).
    pub populate: bool,
    /// Protection of the new area.
    pub protection: Protection,
    /// Allow transparent huge pages to back the area.
    pub thp_eligible: bool,
}

impl MmapFlags {
    /// Lazily populated, read-write, THP-eligible mapping.
    pub fn lazy() -> Self {
        MmapFlags {
            populate: false,
            protection: Protection::ReadWrite,
            thp_eligible: true,
        }
    }

    /// Eagerly populated (`MAP_POPULATE`), read-write, THP-eligible mapping.
    pub fn populate() -> Self {
        MmapFlags {
            populate: true,
            ..MmapFlags::lazy()
        }
    }

    /// Disables THP for the area (`MADV_NOHUGEPAGE`).
    pub fn without_thp(mut self) -> Self {
        self.thp_eligible = false;
        self
    }

    /// Sets the protection of the area.
    pub fn with_protection(mut self, protection: Protection) -> Self {
        self.protection = protection;
        self
    }
}

impl Default for MmapFlags {
    fn default() -> Self {
        MmapFlags::lazy()
    }
}

/// Result of servicing one page fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// First virtual address of the page that was mapped.
    pub addr: VirtAddr,
    /// Size of the page that was mapped.
    pub size: PageSize,
    /// First physical frame backing the page.
    pub frame: FrameId,
    /// `true` if the page was already mapped (spurious fault) and nothing
    /// was done.
    pub already_mapped: bool,
}

/// Per-socket memory footprint of one process.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Bytes of data pages on each socket.
    pub data_bytes: Vec<u64>,
    /// Bytes of page-table pages on each socket (including replicas).
    pub pagetable_bytes: Vec<u64>,
}

impl MemoryFootprint {
    /// Total data bytes across sockets.
    pub fn total_data(&self) -> u64 {
        self.data_bytes.iter().sum()
    }

    /// Total page-table bytes across sockets.
    pub fn total_pagetables(&self) -> u64 {
        self.pagetable_bytes.iter().sum()
    }

    /// Page-table overhead relative to the data footprint, as a fraction.
    pub fn pagetable_overhead(&self) -> f64 {
        let data = self.total_data();
        if data == 0 {
            0.0
        } else {
            self.total_pagetables() as f64 / data as f64
        }
    }
}

/// The simulated kernel.
///
/// Owns the machine description, the physical page-table state ([`PtEnv`]),
/// the PV-Ops backend and every process.  See the crate-level documentation
/// for an example.
///
/// `System` is `Clone` (the PV-Ops backend clones through
/// [`PvOps::clone_box`]): a clone is a full, independent snapshot of the
/// simulated machine — page tables, frame allocator, per-frame metadata,
/// processes and VMA trees — which is what lets replay drivers prepare a
/// system once and fan identical copies out to worker threads instead of
/// re-executing the setup per worker.
#[derive(Debug, Clone)]
pub struct System {
    machine: Machine,
    env: PtEnv,
    ops: Box<dyn PvOps>,
    processes: BTreeMap<Pid, Process>,
    config: VmmConfig,
    next_pid: u32,
    cow: CowRefCounts,
    pending: MappingTx,
}

impl System {
    /// Creates a system with the stock (native, non-replicating) PV-Ops
    /// backend.
    pub fn new(machine: Machine) -> Self {
        System::with_pvops(machine, Box::new(NativePvOps::new()))
    }

    /// Creates a system with an explicit PV-Ops backend (this is how the
    /// Mitosis backend is installed).
    pub fn with_pvops(machine: Machine, ops: Box<dyn PvOps>) -> Self {
        let env = PtEnv::new(&machine);
        System {
            machine,
            env,
            ops,
            processes: BTreeMap::new(),
            config: VmmConfig::stock(),
            next_pid: 1,
            cow: CowRefCounts::new(),
            pending: MappingTx::new(),
        }
    }

    /// The address-space identifier (TLB tag) of a process — its pid's low
    /// 16 bits, the way Linux derives PCIDs.
    pub fn asid_of(pid: Pid) -> u16 {
        pid.as_u32() as u16
    }

    /// The shootdown work accumulated by mapping mutations since the last
    /// [`System::take_shootdown_plan`].  Empty in
    /// [`ShootdownMode::Broadcast`](crate::ShootdownMode::Broadcast).
    pub fn pending_shootdown(&self) -> &MappingTx {
        &self.pending
    }

    /// Drains the accumulated mapping mutations into a [`ShootdownPlan`]
    /// ready to apply against the simulated TLBs.
    pub fn take_shootdown_plan(&mut self) -> ShootdownPlan {
        self.pending.take_plan()
    }

    /// The copy-on-write share table (fork bookkeeping).
    pub fn cow_refcounts(&self) -> &CowRefCounts {
        &self.cow
    }

    /// The machine this system runs on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (e.g. to install interference).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The system-wide virtual-memory configuration.
    pub fn config(&self) -> VmmConfig {
        self.config
    }

    /// Sets the transparent-huge-page mode.
    pub fn set_thp(&mut self, mode: ThpMode) {
        self.config.thp = mode;
    }

    /// Sets the page-table placement policy.
    pub fn set_pt_placement(&mut self, placement: PtPlacement) {
        self.config.pt_placement = placement;
    }

    /// Sets the TLB-consistency model for mapping mutations.
    pub fn set_shootdown_mode(&mut self, mode: ShootdownMode) {
        self.config.shootdown = mode;
    }

    /// Replaces the whole configuration.
    pub fn set_config(&mut self, config: VmmConfig) {
        self.config = config;
    }

    /// The page-table environment (store, frame table, allocator, cache).
    pub fn pt_env(&self) -> &PtEnv {
        &self.env
    }

    /// Mutable access to the page-table environment (used by the execution
    /// engine to let the hardware walker set accessed/dirty bits).
    pub fn pt_env_mut(&mut self) -> &mut PtEnv {
        &mut self.env
    }

    /// The installed PV-Ops backend.
    pub fn pvops(&self) -> &dyn PvOps {
        self.ops.as_ref()
    }

    /// Borrows the PV-Ops backend together with a page-table context, for OS
    /// code paths that read entries *through* the backend (e.g. consolidated
    /// accessed/dirty reads across replicas).
    pub fn pvops_with_context(&mut self) -> (&dyn PvOps, mitosis_pt::PtContext<'_>) {
        (self.ops.as_ref(), self.env.context())
    }

    /// Identifiers of all live processes.
    pub fn pids(&self) -> Vec<Pid> {
        self.processes.keys().copied().collect()
    }

    /// Looks up a process.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] if it does not exist.
    pub fn process(&self, pid: Pid) -> Result<&Process, VmError> {
        self.processes
            .get(&pid)
            .ok_or(VmError::NoSuchProcess { pid })
    }

    /// Looks up a process mutably.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] if it does not exist.
    pub fn process_mut(&mut self, pid: Pid) -> Result<&mut Process, VmError> {
        self.processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })
    }

    /// Creates a new process homed on `home_socket` and returns its pid.
    ///
    /// # Errors
    ///
    /// Returns an error if the page-table root cannot be allocated.
    pub fn create_process(&mut self, home_socket: SocketId) -> Result<Pid, VmError> {
        let pt_socket = self.config.pt_placement.resolve(home_socket);
        let mut ctx = self.env.context();
        let roots = Mapper::create_roots(
            self.ops.as_mut(),
            &mut ctx,
            pt_socket,
            ReplicationSpec::none(),
        )?;
        let pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let process = Process::new(pid, home_socket, AddressSpace::new(roots));
        self.processes.insert(pid, process);
        Ok(pid)
    }

    /// Maps `length` bytes of anonymous memory into the process and returns
    /// the starting address.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero/unaligned length, an unknown process, or
    /// (with `populate`) an allocation failure.
    pub fn mmap(&mut self, pid: Pid, length: u64, flags: MmapFlags) -> Result<VirtAddr, VmError> {
        if length == 0 || !length.is_multiple_of(PageSize::Base4K.bytes()) {
            return Err(VmError::InvalidArgument);
        }
        let home = self.process(pid)?.home_socket();
        let process = self.process_mut(pid)?;
        let start = process.address_space_mut().reserve_region(length);
        let mut vma = Vma::new(start, length, flags.protection);
        if !flags.thp_eligible {
            vma = vma.with_thp_disabled();
        }
        process.address_space_mut().vmas_mut().insert(vma)?;
        if flags.populate {
            self.populate_region(pid, start, length, home)?;
        }
        Ok(start)
    }

    /// Faults in every page of `[addr, addr + length)` as if touched by a
    /// thread running on `socket`.
    ///
    /// The result is exactly that of calling [`System::handle_fault`] page
    /// by page.  Once a fault maps a 4 KiB page, the rest of that leaf
    /// table's 2 MiB window is mapped directly through the table instead of
    /// walking from the root per page, unless a transparent huge page could
    /// still back part of it.
    ///
    /// # Errors
    ///
    /// Propagates fault-handling errors; pages already mapped are skipped.
    pub fn populate_region(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        length: u64,
        socket: SocketId,
    ) -> Result<(), VmError> {
        let mut cursor = addr;
        let end = addr.add(length);
        while cursor < end {
            let outcome = self.handle_fault(pid, cursor, socket)?;
            cursor = outcome.addr.add(outcome.size.bytes());
            if outcome.size == PageSize::Base4K && !outcome.already_mapped {
                cursor = self.populate_leaf_window(pid, outcome.addr, end, socket)?;
            }
        }
        Ok(())
    }

    /// Maps the pages after `faulted` — a base page a fault just mapped — up
    /// to the next 2 MiB boundary, `end` or the end of the VMA, exactly as
    /// per-page [`System::handle_fault`] calls would, and returns the
    /// address where those calls would continue.
    ///
    /// The window shares `faulted`'s leaf table, so each page costs one
    /// entry probe plus the base-page step the fault handler runs
    /// ([`map_base_page`]); present entries are skipped like spurious
    /// faults.  A fault would try a transparent huge page first, though,
    /// and a failed attempt has side effects (a fragmentation draw, frames
    /// skipped for alignment refilling the free list), so the window is
    /// left to the per-page path unless THP provably cannot take it.
    fn populate_leaf_window(
        &mut self,
        pid: Pid,
        faulted: VirtAddr,
        end: VirtAddr,
        socket: SocketId,
    ) -> Result<VirtAddr, VmError> {
        let from = faulted.add(PageSize::Base4K.bytes());
        let huge_start = faulted.align_down(PageSize::Huge2M);
        let thp = self.config.thp.is_enabled();
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        let vma = process
            .address_space()
            .vmas()
            .find(faulted)
            .ok_or(VmError::SegmentationFault { addr: faulted })?;
        let window_end = huge_start
            .add(PageSize::Huge2M.bytes())
            .min(end)
            .min(vma.end());
        if from >= window_end {
            return Ok(from);
        }
        let root = process.address_space().roots().base();
        let store = &self.env.store;
        let thp_may_take_window = thp
            && vma.thp_eligible()
            && vma.fits_huge_page(faulted)
            && mitosis_pt::translate(store, root, huge_start).is_none();
        if thp_may_take_window {
            return Ok(from);
        }
        let flags = leaf_flags(vma.protection());
        let leaf = mitosis_pt::table_at(store, root, faulted, Level::L1)
            .expect("the page just faulted in hangs off a leaf table");
        let slot = store.slot(leaf);
        let mut ctx = self.env.context();
        let mut page = from;
        while page < window_end {
            if !ctx
                .store
                .read_at(slot, page.index_at(Level::L1))
                .is_present()
            {
                map_base_page(
                    self.ops.as_mut(),
                    &mut ctx,
                    process.data_policy_mut(),
                    socket,
                    page,
                    flags,
                    LeafPath::Table(leaf),
                )?;
            }
            page = page.add(PageSize::Base4K.bytes());
        }
        Ok(window_end)
    }

    /// Handles a page fault at `addr` raised by a thread running on
    /// `socket`: allocates a data page according to the process' placement
    /// policy and maps it, backing the area with a 2 MiB page when THP
    /// allows.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::SegmentationFault`] if no VMA covers `addr`, or an
    /// allocation/page-table error.
    pub fn handle_fault(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        socket: SocketId,
    ) -> Result<FaultOutcome, VmError> {
        let config = self.config;
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        let (protection, thp_eligible, fits_huge) = {
            let vma = process
                .address_space()
                .vmas()
                .find(addr)
                .ok_or(VmError::SegmentationFault { addr })?;
            (
                vma.protection(),
                vma.thp_eligible(),
                vma.fits_huge_page(addr),
            )
        };
        let replication = process.replication();
        let roots = process.address_space().roots().clone();
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);

        // Spurious fault: the page is already mapped.
        if let Some(existing) = mapper.translate(&ctx, addr) {
            return Ok(FaultOutcome {
                addr: addr.align_down(existing.size),
                size: existing.size,
                frame: existing.frame,
                already_mapped: true,
            });
        }

        let flags = leaf_flags(protection);
        let pt_socket = config.pt_placement.resolve(socket);

        // Try a transparent huge page first.
        if config.thp.is_enabled() && thp_eligible && fits_huge {
            let huge_addr = addr.align_down(PageSize::Huge2M);
            // The whole 2 MiB range must be unmapped.
            let range_free = mapper.translate(&ctx, huge_addr).is_none();
            if range_free {
                if let Ok(frame) = process.data_policy_mut().alloc_huge_data(ctx.alloc, socket) {
                    ctx.frames.insert(frame, FrameKind::Data);
                    match mapper.map(
                        self.ops.as_mut(),
                        &mut ctx,
                        huge_addr,
                        frame,
                        PageSize::Huge2M,
                        flags,
                        pt_socket,
                        replication,
                    ) {
                        Ok(()) => {
                            return Ok(FaultOutcome {
                                addr: huge_addr,
                                size: PageSize::Huge2M,
                                frame,
                                already_mapped: false,
                            });
                        }
                        Err(mitosis_pt::PtError::AlreadyMapped { .. }) => {
                            // Part of the range is mapped with base pages:
                            // fall back to a 4 KiB page for this fault.
                            ctx.frames.remove(frame);
                            ctx.alloc.free_huge(frame)?;
                        }
                        Err(other) => return Err(other.into()),
                    }
                }
            }
        }

        // Base-page path.
        let page_addr = addr.align_down(PageSize::Base4K);
        let frame = map_base_page(
            self.ops.as_mut(),
            &mut ctx,
            process.data_policy_mut(),
            socket,
            page_addr,
            flags,
            LeafPath::Walk {
                mapper,
                pt_socket,
                replication,
            },
        )?;
        Ok(FaultOutcome {
            addr: page_addr,
            size: PageSize::Base4K,
            frame,
            already_mapped: false,
        })
    }

    /// Handles a memory-access fault at `addr` by a thread on `socket`,
    /// distinguishing reads from writes: a store through a read-only leaf of
    /// a writable area is a copy-on-write break (the frame was shared by
    /// [`System::fork`]) and gets a private copy; everything else falls
    /// through to demand paging ([`System::handle_fault`]).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::SegmentationFault`] for an access outside any VMA
    /// or a store into a read-only area, or propagates allocation errors.
    pub fn handle_fault_access(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        socket: SocketId,
        is_write: bool,
    ) -> Result<FaultOutcome, VmError> {
        if !is_write {
            return self.handle_fault(pid, addr, socket);
        }
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        let root = process.address_space().roots().base();
        let vma_writable = process
            .address_space()
            .vmas()
            .find(addr)
            .map(|vma| vma.protection().is_writable());
        let Some((table, t)) = mitosis_pt::translate_entry(&self.env.store, root, addr) else {
            // Demand paging maps by the area's protection; a store into a
            // read-only area must not be satisfied by it.
            if vma_writable != Some(true) {
                return Err(VmError::SegmentationFault { addr });
            }
            return self.handle_fault(pid, addr, socket);
        };
        if t.pte.flags().writable {
            // Spurious: another thread already resolved the fault.
            return Ok(FaultOutcome {
                addr: addr.align_down(t.size),
                size: t.size,
                frame: t.frame,
                already_mapped: true,
            });
        }
        if vma_writable != Some(true) {
            return Err(VmError::SegmentationFault { addr });
        }
        let aligned = addr.align_down(t.size);
        let index = addr.index_at(t.level);
        let flags = PteFlags::user_data();
        let mut ctx = self.env.context();
        let frame = if self.cow.is_shared(t.frame) {
            // Still shared: copy the page to a private frame placed by the
            // process' data policy, remap, and drop our reference.  The
            // remap is Linux's `ptep_clear_flush` + `set_pte_at`: clear the
            // entry, then write the new frame.
            let new_frame = match t.size {
                PageSize::Base4K => process.data_policy_mut().alloc_data(ctx.alloc, socket)?,
                PageSize::Huge2M => process
                    .data_policy_mut()
                    .alloc_huge_data(ctx.alloc, socket)?,
                PageSize::Giant1G => return Err(VmError::InvalidArgument),
            };
            ctx.frames.insert(new_frame, FrameKind::Data);
            self.ops.set_pte(&mut ctx, table, index, Pte::EMPTY);
            self.ops.set_pte(
                &mut ctx,
                table,
                index,
                Mapper::leaf_pte(new_frame, t.size, flags),
            );
            self.cow.release(t.frame);
            new_frame
        } else {
            // The other side already copied; the frame is exclusive again
            // and can be written in place.
            Mapper::protect_entry(self.ops.as_mut(), &mut ctx, table, index, flags);
            t.frame
        };
        if ranged {
            self.pending.invalidate_page(asid, aligned, t.size);
        }
        Ok(FaultOutcome {
            addr: aligned,
            size: t.size,
            frame,
            already_mapped: false,
        })
    }

    /// Forks `parent`: the child gets its own page-table tree (honouring the
    /// parent's replication request and the system's page-table placement
    /// policy), a copy of the parent's VMAs and data policy, and shares
    /// every mapped data frame copy-on-write — writable leaves are
    /// downgraded to read-only in the parent and mapped read-only in the
    /// child, so the next store from either side faults and copies
    /// ([`System::handle_fault_access`]).
    ///
    /// The copy runs table by table, as Linux's `copy_pte_range` does: each
    /// parent table holding leaves resolves its child counterpart once.
    /// The child's tree is built first, because only its allocations can
    /// fail; a failed fork releases the partial tree and leaves the parent,
    /// the share table, the pending shootdown work and the pid counter as
    /// they were.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown parent, or
    /// propagates page-table allocation errors.
    pub fn fork(&mut self, parent: Pid) -> Result<Pid, VmError> {
        let ranged = self.config.shootdown.is_ranged();
        let parent_asid = Self::asid_of(parent);
        let (home, replication, policy, parent_root, vmas) = {
            let p = self.process(parent)?;
            (
                p.home_socket(),
                p.replication(),
                p.data_policy().policy(),
                p.address_space().roots().base(),
                p.address_space().vmas().clone(),
            )
        };
        let pt_socket = self.config.pt_placement.resolve(home);
        let mut ctx = self.env.context();
        let ops = self.ops.as_mut();
        let child_roots = Mapper::create_roots(ops, &mut ctx, pt_socket, replication)?;
        let child_mapper = Mapper::new(&child_roots);
        let readonly = PteFlags::user_readonly();
        // The child table receiving each level's leaves, with the parent
        // table they come from.
        let mut targets: [Option<(FrameId, FrameId)>; 3] = [None; 3];
        let copied = for_each_leaf_entry(&mut ctx, parent_root, &mut |ctx, leaf| {
            let target = &mut targets[usize::from(leaf.level.number()) - 1];
            let table = match *target {
                Some((from, to)) if from == leaf.table => to,
                _ => {
                    let to = child_mapper.walk_alloc(
                        ops,
                        ctx,
                        leaf.addr,
                        leaf.level,
                        pt_socket,
                        &replication,
                    )?;
                    *target = Some((leaf.table, to));
                    to
                }
            };
            let pte = Mapper::leaf_pte(leaf.frame, leaf.size, readonly);
            ops.set_pte(ctx, table, leaf.index, pte);
            Ok::<(), mitosis_pt::PtError>(())
        });
        if let Err(err) = copied {
            let mut tables = Vec::new();
            mitosis_pt::for_each_table(ctx.store, child_roots.base(), |t| tables.push(t));
            for table in tables {
                ops.release_table(&mut ctx, table)?;
            }
            return Err(err.into());
        }
        let (pending, cow) = (&mut self.pending, &mut self.cow);
        let shared = for_each_leaf_entry(&mut ctx, parent_root, &mut |ctx, leaf| {
            if leaf.writable {
                Mapper::protect_entry(ops, ctx, leaf.table, leaf.index, readonly);
                if ranged {
                    pending.invalidate_page(parent_asid, leaf.addr, leaf.size);
                }
            }
            cow.share(leaf.frame);
            Ok::<(), Infallible>(())
        });
        let Ok(()) = shared;
        let child_pid = Pid::new(self.next_pid);
        self.next_pid += 1;
        let mut child = Process::new(child_pid, home, AddressSpace::new(child_roots));
        child.set_replication(replication);
        child.set_data_policy(policy);
        for vma in vmas.iter() {
            child.address_space_mut().vmas_mut().insert(vma.clone())?;
        }
        self.processes.insert(child_pid, child);
        Ok(child_pid)
    }

    /// Maps `length` bytes of anonymous memory at exactly `addr`
    /// (`MAP_FIXED`-like, without the implicit unmap), failing if the range
    /// overlaps an existing area.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for a zero/unaligned request,
    /// [`VmError::VmaOverlap`] on overlap, or propagates fault errors when
    /// populating.
    pub fn mmap_at(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        length: u64,
        flags: MmapFlags,
    ) -> Result<VirtAddr, VmError> {
        if length == 0
            || !length.is_multiple_of(PageSize::Base4K.bytes())
            || !addr.is_aligned(PageSize::Base4K)
        {
            return Err(VmError::InvalidArgument);
        }
        let home = self.process(pid)?.home_socket();
        let process = self.process_mut(pid)?;
        let mut vma = Vma::new(addr, length, flags.protection);
        if !flags.thp_eligible {
            vma = vma.with_thp_disabled();
        }
        process.address_space_mut().vmas_mut().insert(vma)?;
        if flags.populate {
            self.populate_region(pid, addr, length, home)?;
        }
        Ok(addr)
    }

    /// Promotes the 2 MiB-aligned region at `addr` from 512 base pages to
    /// one huge page, as `khugepaged` would: allocates a huge frame on the
    /// socket of the first base page, frees the base frames and installs a
    /// single leaf.  Returns `false` — leaving the mappings untouched — when
    /// the region is not promotable (incomplete, mixed protection,
    /// copy-on-write shared, or already huge) or when the huge-frame
    /// allocation fails under fragmentation.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for an unaligned address,
    /// [`VmError::SegmentationFault`] when no VMA covers the region, or
    /// propagates page-table errors.
    pub fn promote_huge(&mut self, pid: Pid, addr: VirtAddr) -> Result<bool, VmError> {
        if !addr.is_aligned(PageSize::Huge2M) {
            return Err(VmError::InvalidArgument);
        }
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        {
            let vma = process
                .address_space()
                .vmas()
                .find(addr)
                .ok_or(VmError::SegmentationFault { addr })?;
            if !vma.contains(addr.add(PageSize::Huge2M.bytes() - 1)) {
                return Ok(false);
            }
        }
        let replication = process.replication();
        let roots = process.address_space().roots().clone();
        let home = process.home_socket();
        let pt_socket = self.config.pt_placement.resolve(home);
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        // Every base page must be present, base-sized, exclusively owned
        // and uniformly protected.
        let pages = PageSize::Huge2M.bytes() / PageSize::Base4K.bytes();
        let mut first_frame = None;
        let mut writable = true;
        for i in 0..pages {
            let page = addr.add(i * PageSize::Base4K.bytes());
            match mapper.translate(&ctx, page) {
                Some(t) if t.size == PageSize::Base4K && !self.cow.is_shared(t.frame) => {
                    if i == 0 {
                        first_frame = Some(t.frame);
                        writable = t.pte.flags().writable;
                    } else if t.pte.flags().writable != writable {
                        return Ok(false);
                    }
                }
                _ => return Ok(false),
            }
        }
        let target = ctx
            .frames
            .socket_of(first_frame.expect("512 pages were checked"));
        let huge = match ctx.alloc.alloc_huge_on(target) {
            Ok(frame) => frame,
            Err(MemError::HugeAllocationFailed { .. }) => return Ok(false),
            Err(other) => return Err(other.into()),
        };
        ctx.frames.insert(huge, FrameKind::Data);
        for i in 0..pages {
            let page = addr.add(i * PageSize::Base4K.bytes());
            let old = mapper.unmap(self.ops.as_mut(), &mut ctx, page)?;
            let frame = old.frame().expect("mapped entry has a frame");
            ctx.frames.remove(frame);
            ctx.alloc.free(frame)?;
        }
        // The unmaps left an empty L1 table linked at L2; unlink and
        // release it (and its replicas) so the huge leaf can take the slot.
        let mut table = roots.base();
        for level in [Level::L4, Level::L3] {
            table = self
                .ops
                .read_pte(&ctx, table, addr.index_at(level))
                .frame()
                .expect("intermediate tables exist for a mapped region");
        }
        let l2_index = addr.index_at(Level::L2);
        let l1 = self
            .ops
            .read_pte(&ctx, table, l2_index)
            .frame()
            .expect("the freed base pages hung off an L1 table");
        if ranged {
            for member in ctx.frames.replicas_of(l1) {
                self.pending.evict_table(member);
            }
        }
        self.ops.set_pte(&mut ctx, table, l2_index, Pte::EMPTY);
        self.ops.release_table(&mut ctx, l1)?;
        let flags = if writable {
            PteFlags::user_data()
        } else {
            PteFlags::user_readonly()
        };
        mapper.map(
            self.ops.as_mut(),
            &mut ctx,
            addr,
            huge,
            PageSize::Huge2M,
            flags,
            pt_socket,
            replication,
        )?;
        if ranged {
            self.pending
                .invalidate_bytes(asid, addr, PageSize::Huge2M.bytes(), PageSize::Base4K);
        }
        Ok(true)
    }

    /// Demotes the 2 MiB leaf at `addr` back to 512 base-page mappings of
    /// the same frames (no copy), the way a partial operation on a huge
    /// page forces a split.  Returns `false` — a no-op — when the address
    /// is not backed by an exclusively-owned huge mapping.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for an unaligned address, or
    /// propagates page-table errors.
    pub fn demote_huge(&mut self, pid: Pid, addr: VirtAddr) -> Result<bool, VmError> {
        if !addr.is_aligned(PageSize::Huge2M) {
            return Err(VmError::InvalidArgument);
        }
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        let replication = process.replication();
        let roots = process.address_space().roots().clone();
        let home = process.home_socket();
        let pt_socket = self.config.pt_placement.resolve(home);
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        let t = match mapper.translate(&ctx, addr) {
            Some(t) if t.size == PageSize::Huge2M && !self.cow.is_shared(t.frame) => t,
            _ => return Ok(false),
        };
        let old = mapper.unmap(self.ops.as_mut(), &mut ctx, addr)?;
        let flags = PteFlags {
            huge: false,
            ..old.flags()
        };
        let pages = PageSize::Huge2M.bytes() / PageSize::Base4K.bytes();
        for i in 0..pages {
            let page = addr.add(i * PageSize::Base4K.bytes());
            let frame = t.frame.offset(i);
            if i != 0 {
                ctx.frames.insert(frame, FrameKind::Data);
            }
            mapper.map(
                self.ops.as_mut(),
                &mut ctx,
                page,
                frame,
                PageSize::Base4K,
                flags,
                pt_socket,
                replication,
            )?;
        }
        if ranged {
            self.pending.invalidate_page(asid, addr, PageSize::Huge2M);
        }
        Ok(true)
    }

    /// Unmaps `[addr, addr + length)`, splitting or shrinking any areas the
    /// range partially covers (Linux `munmap` semantics: the range need not
    /// name a whole VMA, or even a mapped one).
    ///
    /// Copy-on-write shared frames are released, not freed, unless this was
    /// the last mapping of the frame.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for a zero or unaligned range,
    /// or one that would split a huge-page mapping (demote it first), and
    /// [`VmError::SegmentationFault`] when the range overlaps no area.
    pub fn munmap(&mut self, pid: Pid, addr: VirtAddr, length: u64) -> Result<(), VmError> {
        if length == 0
            || !length.is_multiple_of(PageSize::Base4K.bytes())
            || !addr.is_aligned(PageSize::Base4K)
        {
            return Err(VmError::InvalidArgument);
        }
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        // A huge mapping straddling the edge of the range cannot be split;
        // reject before mutating any state.
        let roots = process.address_space().roots().clone();
        for &edge in &[addr, addr.add(length)] {
            if let Some(t) = mitosis_pt::translate(&self.env.store, roots.base(), edge) {
                if edge.align_down(t.size) < edge {
                    return Err(VmError::InvalidArgument);
                }
            }
        }
        let removed = process
            .address_space_mut()
            .vmas_mut()
            .remove_range(addr, length);
        if removed.is_empty() {
            return Err(VmError::SegmentationFault { addr });
        }
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        for piece in &removed {
            let mut cursor = piece.start();
            let end = piece.end();
            while cursor < end {
                match mapper.translate(&ctx, cursor) {
                    Some(t) => {
                        let aligned = cursor.align_down(t.size);
                        let old = mapper.unmap(self.ops.as_mut(), &mut ctx, aligned)?;
                        let frame = old.frame().expect("mapped entry has a frame");
                        if ranged {
                            self.pending.invalidate_page(asid, aligned, t.size);
                        }
                        if self.cow.release(frame) {
                            ctx.frames.remove(frame);
                            match t.size {
                                PageSize::Base4K => ctx.alloc.free(frame)?,
                                PageSize::Huge2M => ctx.alloc.free_huge(frame)?,
                                PageSize::Giant1G => {
                                    for i in 0..PageSize::Giant1G.frames() / 512 {
                                        ctx.alloc.free_huge(frame.offset(i * 512))?;
                                    }
                                }
                            }
                        }
                        cursor = aligned.add(t.size.bytes());
                    }
                    None => cursor = cursor.add(PageSize::Base4K.bytes()),
                }
            }
        }
        Ok(())
    }

    /// Changes the protection of `[addr, addr + length)` (`mprotect`).
    ///
    /// Areas the range covers in part are split at its edges, so only the
    /// covered pieces change protection; a range may span several areas.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::InvalidArgument`] for a zero or unaligned range,
    /// or one whose edge falls inside a huge-page mapping (demote it
    /// first), and [`VmError::SegmentationFault`] if no VMA covers `addr`.
    /// Nothing changes when an error is returned.
    pub fn mprotect(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        length: u64,
        protection: Protection,
    ) -> Result<(), VmError> {
        if length == 0
            || !length.is_multiple_of(PageSize::Base4K.bytes())
            || !addr.is_aligned(PageSize::Base4K)
        {
            return Err(VmError::InvalidArgument);
        }
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        if process.address_space().vmas().find(addr).is_none() {
            return Err(VmError::SegmentationFault { addr });
        }
        let roots = process.address_space().roots().clone();
        for &edge in &[addr, addr.add(length)] {
            if let Some(t) = mitosis_pt::translate(&self.env.store, roots.base(), edge) {
                if edge.align_down(t.size) < edge {
                    return Err(VmError::InvalidArgument);
                }
            }
        }
        process
            .address_space_mut()
            .vmas_mut()
            .protect_range(addr, length, protection);
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        let flags = leaf_flags(protection);
        let mut cursor = addr;
        let end = addr.add(length);
        while cursor < end {
            match mapper.translate(&ctx, cursor) {
                Some(t) => {
                    mapper.protect(self.ops.as_mut(), &mut ctx, cursor, flags)?;
                    if ranged {
                        self.pending
                            .invalidate_page(asid, cursor.align_down(t.size), t.size);
                    }
                    cursor = cursor.add(t.size.bytes());
                }
                None => cursor = cursor.add(PageSize::Base4K.bytes()),
            }
        }
        Ok(())
    }

    /// Translates a virtual address of a process in software.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown pid.
    pub fn translate(&self, pid: Pid, addr: VirtAddr) -> Result<Option<Translation>, VmError> {
        let process = self.process(pid)?;
        Ok(mitosis_pt::translate(
            &self.env.store,
            process.address_space().roots().base(),
            addr,
        ))
    }

    /// Captures a placement dump of the process' page table (base replica).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown pid.
    pub fn page_table_dump(&self, pid: Pid) -> Result<PageTableDump, VmError> {
        let process = self.process(pid)?;
        Ok(PageTableDump::capture(
            &self.env.store,
            &self.env.frames,
            process.address_space().roots().base(),
        ))
    }

    /// Captures a placement dump of the page-table replica used by `socket`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown pid.
    pub fn page_table_dump_for_socket(
        &self,
        pid: Pid,
        socket: SocketId,
    ) -> Result<PageTableDump, VmError> {
        let process = self.process(pid)?;
        Ok(PageTableDump::capture(
            &self.env.store,
            &self.env.frames,
            process.address_space().roots().root_for_socket(socket),
        ))
    }

    /// Migrates one mapped data page to `target` socket, preserving its
    /// virtual address, protection and page size.  Returns `false` if the
    /// page already lives on `target`.
    ///
    /// # Errors
    ///
    /// Propagates allocation and page-table errors.
    pub fn migrate_data_page(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        target: SocketId,
    ) -> Result<bool, VmError> {
        let ranged = self.config.shootdown.is_ranged();
        let asid = Self::asid_of(pid);
        let process = self
            .processes
            .get_mut(&pid)
            .ok_or(VmError::NoSuchProcess { pid })?;
        let replication = process.replication();
        let roots = process.address_space().roots().clone();
        let pt_socket = self.config.pt_placement.resolve(target);
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        let t = match mapper.translate(&ctx, addr) {
            Some(t) => t,
            None => return Err(VmError::SegmentationFault { addr }),
        };
        if ctx.frames.socket_of(t.frame) == target {
            return Ok(false);
        }
        // A copy-on-write shared frame is pinned until the sharing breaks:
        // migrating it would move the page out from under the other owner.
        if self.cow.is_shared(t.frame) {
            return Ok(false);
        }
        let new_frame = match t.size {
            PageSize::Base4K => ctx.alloc.alloc_on(target)?,
            PageSize::Huge2M => ctx.alloc.alloc_huge_on(target)?,
            PageSize::Giant1G => return Err(VmError::InvalidArgument),
        };
        ctx.frames.insert(new_frame, FrameKind::Data);
        let aligned = addr.align_down(t.size);
        let old = mapper.unmap(self.ops.as_mut(), &mut ctx, aligned)?;
        let old_frame = old.frame().expect("mapped entry has a frame");
        mapper.map(
            self.ops.as_mut(),
            &mut ctx,
            aligned,
            new_frame,
            t.size,
            old.flags(),
            pt_socket,
            replication,
        )?;
        ctx.frames.remove(old_frame);
        match t.size {
            PageSize::Base4K => ctx.alloc.free(old_frame)?,
            PageSize::Huge2M => ctx.alloc.free_huge(old_frame)?,
            PageSize::Giant1G => unreachable!("rejected above"),
        }
        if ranged {
            self.pending.invalidate_page(asid, aligned, t.size);
        }
        Ok(true)
    }

    /// Migrates every data page of the process to `target`.  Returns the
    /// number of pages moved.  Page-table pages are *not* moved — this is
    /// the stock-Linux behaviour the paper contrasts with Mitosis.
    ///
    /// # Errors
    ///
    /// Propagates allocation and page-table errors.
    pub fn migrate_data(&mut self, pid: Pid, target: SocketId) -> Result<u64, VmError> {
        let mappings: Vec<VirtAddr> = {
            let process = self.process(pid)?;
            let roots = process.address_space().roots().clone();
            mitosis_pt::iter_leaf_mappings(&self.env.store, roots.base())
                .into_iter()
                .map(|m| m.addr)
                .collect()
        };
        let mut moved = 0;
        for addr in mappings {
            if self.migrate_data_page(pid, addr, target)? {
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Migrates the process to another socket, as a NUMA-aware scheduler
    /// would: the home socket changes and, if `migrate_data` is set, data
    /// pages follow.  Page-table pages never move (use the Mitosis
    /// controller for that).
    ///
    /// # Errors
    ///
    /// Propagates allocation and page-table errors.
    pub fn migrate_process(
        &mut self,
        pid: Pid,
        target: SocketId,
        migrate_data: bool,
    ) -> Result<u64, VmError> {
        self.process_mut(pid)?.set_home_socket(target);
        if migrate_data {
            self.migrate_data(pid, target)
        } else {
            Ok(0)
        }
    }

    /// Computes the per-socket memory footprint (data and page-table pages)
    /// of a process, including page-table replicas.
    ///
    /// Data bytes come from one walk of the base tree; page-table pages are
    /// counted by walking each distinct root, without reading the entries
    /// of leaf tables.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown pid.
    pub fn footprint(&self, pid: Pid) -> Result<MemoryFootprint, VmError> {
        let process = self.process(pid)?;
        let sockets = self.machine.sockets();
        let space = self.env.frames.frame_space();
        let mut footprint = MemoryFootprint {
            data_bytes: vec![0; sockets],
            pagetable_bytes: vec![0; sockets],
        };
        let roots = process.address_space().roots();
        mitosis_pt::for_each_leaf(&self.env.store, roots.base(), |leaf| {
            footprint.data_bytes[space.socket_of(leaf.frame).index()] += leaf.size.bytes();
        });
        for root in roots.distinct_roots() {
            mitosis_pt::for_each_table(&self.env.store, root, |table| {
                footprint.pagetable_bytes[space.socket_of(table).index()] += BASE_PAGE_SIZE;
            });
        }
        Ok(footprint)
    }

    /// The page-table root a core on `socket` should load for `pid`
    /// (the `write_cr3` decision, delegated to the PV-Ops backend).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoSuchProcess`] for an unknown pid.
    pub fn cr3_for(&self, pid: Pid, socket: SocketId) -> Result<FrameId, VmError> {
        let process = self.process(pid)?;
        Ok(self
            .ops
            .select_root(process.address_space().roots(), socket))
    }
}

/// One leaf entry of a page-table tree, as [`for_each_leaf_entry`] visits
/// it.
#[derive(Debug, Clone, Copy)]
struct LeafEntry {
    /// The page-table page holding the entry.
    table: FrameId,
    /// The entry's index in `table`.
    index: usize,
    /// The level of `table`.
    level: Level,
    /// First virtual address the entry maps.
    addr: VirtAddr,
    /// Size of the mapped page.
    size: PageSize,
    /// First frame of the mapped page.
    frame: FrameId,
    /// The entry allows writes.
    writable: bool,
}

/// Visits every leaf entry of the tree rooted at `root`, in address order,
/// stopping at the first error.  Unlike [`mitosis_pt::for_each_leaf`] the
/// visitor holds the context and may write the store as it goes — another
/// tree, or the entry it is handed — because each table's present entries
/// are fixed when the walk reaches it.
fn for_each_leaf_entry<E>(
    ctx: &mut PtContext<'_>,
    root: FrameId,
    visit: &mut impl FnMut(&mut PtContext<'_>, LeafEntry) -> Result<(), E>,
) -> Result<(), E> {
    visit_leaf_entries(ctx, root, Level::L4, 0, visit)
}

fn visit_leaf_entries<E>(
    ctx: &mut PtContext<'_>,
    table: FrameId,
    level: Level,
    base: u64,
    visit: &mut impl FnMut(&mut PtContext<'_>, LeafEntry) -> Result<(), E>,
) -> Result<(), E> {
    let slot = ctx.store.slot(table);
    for index in ctx.store.present_indices(slot) {
        let pte = ctx.store.read_at(slot, index);
        let addr = base + index as u64 * level.entry_coverage();
        let frame = pte.frame().expect("present entry has a frame");
        if level != Level::L1 && !pte.is_huge() {
            if let Some(lower) = level.next_lower() {
                visit_leaf_entries(ctx, frame, lower, addr, visit)?;
            }
            continue;
        }
        let size = match level {
            Level::L1 => PageSize::Base4K,
            Level::L2 => PageSize::Huge2M,
            Level::L3 => PageSize::Giant1G,
            Level::L4 => continue,
        };
        let leaf = LeafEntry {
            table,
            index,
            level,
            addr: VirtAddr::new(addr),
            size,
            frame,
            writable: pte.flags().writable,
        };
        visit(ctx, leaf)?;
    }
    Ok(())
}

/// Leaf flags for a data page of an area with `protection`.
fn leaf_flags(protection: Protection) -> PteFlags {
    if protection.is_writable() {
        PteFlags::user_data()
    } else {
        PteFlags::user_readonly()
    }
}

/// How [`map_base_page`] reaches the leaf entry of the page it maps.
enum LeafPath<'a> {
    /// Walk from the base root, allocating missing tables on `pt_socket`.
    Walk {
        mapper: Mapper<'a>,
        pt_socket: SocketId,
        replication: ReplicationSpec,
    },
    /// The page's leaf (L1) table, already resolved by the caller.
    Table(FrameId),
}

/// The base-page step of a demand fault, shared by [`System::handle_fault`]
/// and the leaf-table populate: allocates a data frame by the process'
/// placement `policy` for a thread on `socket`, records it, and maps it at
/// `page`.
fn map_base_page(
    ops: &mut dyn PvOps,
    ctx: &mut PtContext<'_>,
    policy: &mut PolicyEngine,
    socket: SocketId,
    page: VirtAddr,
    flags: PteFlags,
    leaf: LeafPath<'_>,
) -> Result<FrameId, VmError> {
    let frame = policy.alloc_data(ctx.alloc, socket)?;
    ctx.frames.insert(frame, FrameKind::Data);
    match leaf {
        LeafPath::Walk {
            mapper,
            pt_socket,
            replication,
        } => mapper.map(
            ops,
            ctx,
            page,
            frame,
            PageSize::Base4K,
            flags,
            pt_socket,
            replication,
        )?,
        LeafPath::Table(table) => {
            ops.set_pte(ctx, table, page.index_at(Level::L1), Pte::new(frame, flags));
        }
    }
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitosis_mem::PlacementPolicy;
    use mitosis_numa::MachineConfig;

    fn system() -> System {
        System::new(MachineConfig::two_socket_small().build())
    }

    #[test]
    fn create_process_allocates_a_root_on_the_home_socket() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(1)).unwrap();
        let root = sys.process(pid).unwrap().address_space().roots().base();
        assert_eq!(sys.pt_env().frames.socket_of(root), SocketId::new(1));
        assert_eq!(sys.pids(), vec![pid]);
    }

    #[test]
    fn mmap_populate_maps_every_page_with_first_touch_placement() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 64 * 4096;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        for i in 0..64u64 {
            let t = sys.translate(pid, addr.add(i * 4096)).unwrap().unwrap();
            assert_eq!(
                sys.pt_env().frames.socket_of(t.frame),
                SocketId::new(0),
                "first-touch places data on the faulting socket"
            );
        }
    }

    #[test]
    fn lazy_mmap_faults_on_demand() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys.mmap(pid, 16 * 4096, MmapFlags::lazy()).unwrap();
        assert!(sys.translate(pid, addr).unwrap().is_none());
        let outcome = sys
            .handle_fault(pid, addr.add(4096), SocketId::new(1))
            .unwrap();
        assert!(!outcome.already_mapped);
        assert_eq!(outcome.size, PageSize::Base4K);
        assert_eq!(
            sys.pt_env().frames.socket_of(outcome.frame),
            SocketId::new(1)
        );
        // Faulting again on the same page is spurious.
        let again = sys
            .handle_fault(pid, addr.add(4096), SocketId::new(0))
            .unwrap();
        assert!(again.already_mapped);
    }

    #[test]
    fn fault_outside_any_vma_is_a_segfault() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let err = sys
            .handle_fault(pid, VirtAddr::new(0x1234_5000), SocketId::new(0))
            .unwrap_err();
        assert!(matches!(err, VmError::SegmentationFault { .. }));
    }

    #[test]
    fn thp_backs_aligned_regions_with_huge_pages() {
        let mut sys = system();
        sys.set_thp(ThpMode::Always);
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys
            .mmap(pid, 4 * 1024 * 1024, MmapFlags::populate())
            .unwrap();
        let t = sys.translate(pid, addr).unwrap().unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        // The whole region needed only two huge mappings.
        let dump = sys.page_table_dump(pid).unwrap();
        assert_eq!(dump.total_leaf_ptes(), 2);
    }

    #[test]
    fn thp_falls_back_to_base_pages_under_fragmentation() {
        let mut sys = system();
        sys.set_thp(ThpMode::Always);
        sys.pt_env_mut()
            .alloc
            .set_fragmentation(mitosis_mem::FragmentationModel::with_probability(1.0));
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys
            .mmap(pid, 2 * 1024 * 1024, MmapFlags::populate())
            .unwrap();
        let t = sys.translate(pid, addr).unwrap().unwrap();
        assert_eq!(t.size, PageSize::Base4K);
    }

    #[test]
    fn interleave_policy_spreads_data_pages() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        sys.process_mut(pid)
            .unwrap()
            .set_data_policy(PlacementPolicy::interleave_all(2));
        let addr = sys.mmap(pid, 8 * 4096, MmapFlags::populate()).unwrap();
        let mut per_socket = [0u64; 2];
        for i in 0..8u64 {
            let t = sys.translate(pid, addr.add(i * 4096)).unwrap().unwrap();
            per_socket[sys.pt_env().frames.socket_of(t.frame).index()] += 1;
        }
        assert_eq!(per_socket, [4, 4]);
    }

    #[test]
    fn fixed_pt_placement_forces_page_tables_onto_one_socket() {
        let mut sys = system();
        sys.set_pt_placement(PtPlacement::Fixed(SocketId::new(1)));
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let _ = sys.mmap(pid, 32 * 4096, MmapFlags::populate()).unwrap();
        let footprint = sys.footprint(pid).unwrap();
        assert_eq!(footprint.pagetable_bytes[0], 0);
        assert!(footprint.pagetable_bytes[1] > 0);
        // Data stayed on the faulting socket.
        assert!(footprint.data_bytes[0] > 0);
        assert_eq!(footprint.data_bytes[1], 0);
    }

    #[test]
    fn munmap_frees_data_frames_and_removes_the_vma() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 16 * 4096;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        let allocated_before = sys.pt_env().alloc.total_allocated();
        sys.munmap(pid, addr, len).unwrap();
        assert!(sys.translate(pid, addr).unwrap().is_none());
        assert!(sys.pt_env().alloc.total_allocated() < allocated_before);
        assert!(sys.process(pid).unwrap().address_space().vmas().is_empty());
        // Unmapping a range no area covers is a segfault; zero-length and
        // unaligned ranges are invalid.
        assert!(matches!(
            sys.munmap(pid, addr, len),
            Err(VmError::SegmentationFault { .. })
        ));
        assert_eq!(sys.munmap(pid, addr, 0), Err(VmError::InvalidArgument));
        assert_eq!(sys.munmap(pid, addr, 123), Err(VmError::InvalidArgument));
    }

    #[test]
    fn partial_munmap_splits_the_vma_and_frees_only_the_hole() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 16 * 4096;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        // Punch a 4-page hole in the middle.
        let hole = addr.add(4 * 4096);
        sys.munmap(pid, hole, 4 * 4096).unwrap();
        assert!(sys.translate(pid, hole).unwrap().is_none());
        assert!(sys.translate(pid, hole.add(3 * 4096)).unwrap().is_none());
        // Pages either side of the hole survive.
        assert!(sys.translate(pid, addr).unwrap().is_some());
        assert!(sys.translate(pid, hole.add(4 * 4096)).unwrap().is_some());
        // The VMA split in two, and faulting in the hole now segfaults.
        assert_eq!(sys.process(pid).unwrap().address_space().vmas().len(), 2);
        assert!(matches!(
            sys.handle_fault(pid, hole, SocketId::new(0)),
            Err(VmError::SegmentationFault { .. })
        ));
        // Shrinking from the tail leaves a single smaller VMA.
        sys.munmap(pid, addr.add(12 * 4096), 4 * 4096).unwrap();
        let vmas = sys.process(pid).unwrap().address_space().vmas().len();
        assert_eq!(vmas, 2);
        assert!(sys.translate(pid, addr.add(12 * 4096)).unwrap().is_none());
    }

    #[test]
    fn partial_munmap_through_a_huge_page_is_rejected() {
        let mut sys = system();
        sys.set_thp(ThpMode::Always);
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys
            .mmap(pid, 2 * 1024 * 1024, MmapFlags::populate())
            .unwrap();
        assert_eq!(
            sys.translate(pid, addr).unwrap().unwrap().size,
            PageSize::Huge2M
        );
        // Splitting the huge leaf is not modelled: demote first.
        assert_eq!(sys.munmap(pid, addr, 4096), Err(VmError::InvalidArgument));
        assert!(sys.demote_huge(pid, addr).unwrap());
        sys.munmap(pid, addr, 4096).unwrap();
        assert!(sys.translate(pid, addr).unwrap().is_none());
        assert!(sys.translate(pid, addr.add(4096)).unwrap().is_some());
    }

    #[test]
    fn fork_shares_frames_copy_on_write() {
        let mut sys = system();
        let parent = sys.create_process(SocketId::new(0)).unwrap();
        let len = 8 * 4096;
        let addr = sys.mmap(parent, len, MmapFlags::populate()).unwrap();
        let parent_frame = sys.translate(parent, addr).unwrap().unwrap().frame;

        let child = sys.fork(parent).unwrap();
        assert_ne!(child, parent);
        // Child sees the same frames, both sides read-only.
        let pt = sys.translate(parent, addr).unwrap().unwrap();
        let ct = sys.translate(child, addr).unwrap().unwrap();
        assert_eq!(pt.frame, parent_frame);
        assert_eq!(ct.frame, parent_frame);
        assert!(!pt.pte.flags().writable);
        assert!(!ct.pte.flags().writable);
        assert_eq!(sys.cow_refcounts().shared_frames(), 8);

        // A read does not break the sharing.
        let read = sys
            .handle_fault_access(child, addr, SocketId::new(0), false)
            .unwrap();
        assert!(read.already_mapped);

        // The child's write copies the page.
        let write = sys
            .handle_fault_access(child, addr, SocketId::new(0), true)
            .unwrap();
        assert!(!write.already_mapped);
        assert_ne!(write.frame, parent_frame);
        let ct = sys.translate(child, addr).unwrap().unwrap();
        assert!(ct.pte.flags().writable);
        assert_eq!(ct.frame, write.frame);

        // The parent's write finds the frame exclusive and upgrades in
        // place.
        let wp = sys
            .handle_fault_access(parent, addr, SocketId::new(0), true)
            .unwrap();
        assert!(!wp.already_mapped);
        assert_eq!(wp.frame, parent_frame);
        assert!(
            sys.translate(parent, addr)
                .unwrap()
                .unwrap()
                .pte
                .flags()
                .writable
        );
    }

    /// A parent whose 4 KiB pages fill a two-socket machine with 16 MiB
    /// per socket, with 6 pages unmapped again: too little memory left for
    /// a child's page tables.
    fn nearly_full_system() -> (System, Pid) {
        let machine = MachineConfig::new(2, 1)
            .with_memory_per_socket(16 * 1024 * 1024)
            .build();
        let mut sys = System::new(machine);
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let mut last = None;
        while let Ok(addr) = sys.mmap(pid, 64 * 4096, MmapFlags::populate().without_thp()) {
            last = Some(addr);
        }
        sys.munmap(pid, last.unwrap(), 6 * 4096).unwrap();
        (sys, pid)
    }

    #[test]
    fn a_failed_fork_leaves_the_parent_untouched() {
        let (mut sys, parent) = nearly_full_system();
        sys.set_shootdown_mode(ShootdownMode::Ranged);
        let root = sys.process(parent).unwrap().address_space().roots().base();
        let leaves = mitosis_pt::iter_leaf_mappings(&sys.pt_env().store, root);
        let tables = sys.pt_env().store.table_count();
        let stats = sys.pvops().stats();
        let err = sys.fork(parent).unwrap_err();
        assert!(matches!(err, VmError::Mem(_)), "{err:?}");
        assert_eq!(
            mitosis_pt::iter_leaf_mappings(&sys.pt_env().store, root),
            leaves
        );
        assert!(leaves.iter().all(|leaf| leaf.pte.flags().writable));
        assert_eq!(sys.cow_refcounts().shared_frames(), 0);
        assert!(sys.pending_shootdown().is_empty());
        assert_eq!(sys.pt_env().store.table_count(), tables);
        let after = sys.pvops().stats();
        assert_eq!(
            after.tables_allocated - stats.tables_allocated,
            after.tables_freed - stats.tables_freed,
            "every child table allocated was released"
        );
        assert_eq!(sys.pids(), vec![parent]);
        // The pid the fork would have taken is still the next one.
        sys.munmap(parent, leaves[0].addr, 64 * 4096).unwrap();
        assert_eq!(sys.create_process(SocketId::new(1)), Ok(Pid::new(2)));
    }

    #[test]
    fn a_fork_failing_at_the_root_consumes_no_pid() {
        let mut sys = system();
        let parent = sys.create_process(SocketId::new(0)).unwrap();
        sys.mmap(parent, 8 * 4096, MmapFlags::populate()).unwrap();
        sys.set_pt_placement(PtPlacement::Fixed(SocketId::new(7)));
        assert!(sys.fork(parent).is_err());
        assert_eq!(sys.cow_refcounts().shared_frames(), 0);
        sys.set_pt_placement(PtPlacement::Local);
        assert_eq!(sys.create_process(SocketId::new(0)), Ok(Pid::new(2)));
    }

    #[test]
    fn munmap_of_shared_frames_releases_but_does_not_free() {
        let mut sys = system();
        let parent = sys.create_process(SocketId::new(0)).unwrap();
        let len = 4 * 4096;
        let addr = sys.mmap(parent, len, MmapFlags::populate()).unwrap();
        let child = sys.fork(parent).unwrap();
        let allocated = sys.pt_env().alloc.total_allocated();
        // The child unmaps its copy: nothing is freed, the parent still
        // owns the frames.
        sys.munmap(child, addr, len).unwrap();
        assert_eq!(sys.pt_env().alloc.total_allocated(), allocated);
        assert!(sys.translate(parent, addr).unwrap().is_some());
        assert_eq!(sys.cow_refcounts().shared_frames(), 0);
        // The parent's unmap now frees them.
        sys.munmap(parent, addr, len).unwrap();
        assert!(sys.pt_env().alloc.total_allocated() < allocated);
    }

    #[test]
    fn mmap_at_maps_fixed_addresses_and_rejects_overlap() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = VirtAddr::new(0x5000_0000_0000);
        let got = sys
            .mmap_at(pid, addr, 8 * 4096, MmapFlags::populate())
            .unwrap();
        assert_eq!(got, addr);
        assert!(sys.translate(pid, addr).unwrap().is_some());
        assert!(matches!(
            sys.mmap_at(pid, addr.add(4096), 4096, MmapFlags::lazy()),
            Err(VmError::VmaOverlap { .. })
        ));
    }

    #[test]
    fn promote_and_demote_round_trip() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 2 * 1024 * 1024;
        let addr = sys
            .mmap_at(
                pid,
                VirtAddr::new(0x6000_0000_0000),
                len,
                MmapFlags::populate(),
            )
            .unwrap();
        assert_eq!(
            sys.translate(pid, addr).unwrap().unwrap().size,
            PageSize::Base4K
        );
        assert!(sys.promote_huge(pid, addr).unwrap());
        let t = sys.translate(pid, addr).unwrap().unwrap();
        assert_eq!(t.size, PageSize::Huge2M);
        // One leaf covers the region now.
        assert_eq!(sys.page_table_dump(pid).unwrap().total_leaf_ptes(), 1);
        // Promoting again is a no-op (already huge).
        assert!(!sys.promote_huge(pid, addr).unwrap());
        // Demote splits it back into 512 base mappings of the same frames.
        assert!(sys.demote_huge(pid, addr).unwrap());
        let t2 = sys.translate(pid, addr).unwrap().unwrap();
        assert_eq!(t2.size, PageSize::Base4K);
        assert_eq!(t2.frame, t.frame);
        assert_eq!(sys.page_table_dump(pid).unwrap().total_leaf_ptes(), 512);
        assert!(!sys.demote_huge(pid, addr).unwrap());
        // Everything can still be unmapped and freed.
        sys.munmap(pid, addr, len).unwrap();
        assert!(sys.translate(pid, addr).unwrap().is_none());
    }

    #[test]
    fn promotion_fails_deterministically_under_fragmentation() {
        let mut sys = system();
        sys.pt_env_mut()
            .alloc
            .set_fragmentation(mitosis_mem::FragmentationModel::with_probability(1.0));
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys
            .mmap_at(
                pid,
                VirtAddr::new(0x6000_0000_0000),
                2 * 1024 * 1024,
                MmapFlags::populate(),
            )
            .unwrap();
        assert!(!sys.promote_huge(pid, addr).unwrap());
        assert_eq!(
            sys.translate(pid, addr).unwrap().unwrap().size,
            PageSize::Base4K
        );
    }

    #[test]
    fn ranged_mode_accumulates_shootdown_ranges() {
        let mut sys = system();
        sys.set_config(VmmConfig::stock().with_ranged_shootdowns());
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 8 * 4096;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        assert!(sys.pending_shootdown().is_empty());
        sys.munmap(pid, addr, len).unwrap();
        let plan = sys.take_shootdown_plan();
        assert!(!plan.full_flush);
        // Adjacent page invalidations coalesce into one range.
        assert_eq!(plan.ranges.len(), 1);
        assert_eq!(plan.ranges[0].pages, 8);
        assert_eq!(plan.ranges[0].asid, System::asid_of(pid));
        assert!(sys.pending_shootdown().is_empty());
    }

    #[test]
    fn broadcast_mode_records_nothing() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys.mmap(pid, 8 * 4096, MmapFlags::populate()).unwrap();
        sys.munmap(pid, addr, 8 * 4096).unwrap();
        sys.mprotect(pid, addr, 0, Protection::ReadOnly).ok();
        assert!(sys.pending_shootdown().is_empty());
        assert!(sys.take_shootdown_plan().is_empty());
    }

    #[test]
    fn mprotect_downgrades_leaf_flags() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 4 * 4096;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        sys.mprotect(pid, addr, len, Protection::ReadOnly).unwrap();
        let t = sys.translate(pid, addr).unwrap().unwrap();
        assert!(!t.pte.flags().writable);
        assert_eq!(
            sys.process(pid)
                .unwrap()
                .address_space()
                .vmas()
                .find(addr)
                .unwrap()
                .protection(),
            Protection::ReadOnly
        );
    }

    #[test]
    fn partial_mprotect_splits_the_area_and_guards_later_writes() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let addr = sys.mmap(pid, 4 * 4096, MmapFlags::lazy()).unwrap();
        sys.handle_fault(pid, addr, SocketId::new(0)).unwrap();
        sys.mprotect(pid, addr, 2 * 4096, Protection::ReadOnly)
            .unwrap();
        // Page 1 is unmapped but now read-only: a store faults, a load
        // maps it read-only.
        let page1 = addr.add(4096);
        assert_eq!(
            sys.handle_fault_access(pid, page1, SocketId::new(0), true),
            Err(VmError::SegmentationFault { addr: page1 })
        );
        let read = sys
            .handle_fault_access(pid, page1, SocketId::new(0), false)
            .unwrap();
        assert!(!read.already_mapped);
        assert!(
            !sys.translate(pid, page1)
                .unwrap()
                .unwrap()
                .pte
                .flags()
                .writable
        );
        // The tail keeps its protection.
        let page2 = addr.add(2 * 4096);
        sys.handle_fault_access(pid, page2, SocketId::new(0), true)
            .unwrap();
        assert!(
            sys.translate(pid, page2)
                .unwrap()
                .unwrap()
                .pte
                .flags()
                .writable
        );
        let layout: Vec<(VirtAddr, u64, Protection)> = sys
            .process(pid)
            .unwrap()
            .address_space()
            .vmas()
            .iter()
            .map(|v| (v.start(), v.length(), v.protection()))
            .collect();
        assert_eq!(
            layout,
            vec![
                (addr, 2 * 4096, Protection::ReadOnly),
                (page2, 2 * 4096, Protection::ReadWrite)
            ]
        );
    }

    #[test]
    fn mprotect_through_a_huge_page_is_rejected_before_any_change() {
        let mut sys = system();
        sys.set_thp(ThpMode::Always);
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 2 * 1024 * 1024;
        let addr = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        assert_eq!(
            sys.mprotect(pid, addr, 4096, Protection::ReadOnly),
            Err(VmError::InvalidArgument)
        );
        assert!(
            sys.translate(pid, addr)
                .unwrap()
                .unwrap()
                .pte
                .flags()
                .writable
        );
        let vmas = sys.process(pid).unwrap().address_space().vmas().clone();
        assert_eq!(vmas.len(), 1);
        assert_eq!(vmas.find(addr).unwrap().protection(), Protection::ReadWrite);
        // The whole huge page can change protection.
        sys.mprotect(pid, addr, len, Protection::ReadOnly).unwrap();
        assert!(
            !sys.translate(pid, addr)
                .unwrap()
                .unwrap()
                .pte
                .flags()
                .writable
        );
    }

    #[test]
    fn sockets_the_machine_lacks_are_errors_not_panics() {
        let mut sys = system();
        assert!(matches!(
            sys.create_process(SocketId::new(9)),
            Err(VmError::Mem(_))
        ));
        sys.set_pt_placement(PtPlacement::Fixed(SocketId::new(7)));
        assert!(matches!(
            sys.create_process(SocketId::new(0)),
            Err(VmError::Mem(_))
        ));
        assert!(sys.pids().is_empty());
        // A failed creation consumes no pid.
        sys.set_pt_placement(PtPlacement::Local);
        let pid = sys.create_process(SocketId::new(1)).unwrap();
        assert_eq!(pid, Pid::new(1));
    }

    #[test]
    fn process_migration_moves_data_but_not_page_tables() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let len = 64 * 4096;
        let _ = sys.mmap(pid, len, MmapFlags::populate()).unwrap();
        let before = sys.footprint(pid).unwrap();
        assert!(before.data_bytes[0] > 0);
        assert_eq!(before.data_bytes[1], 0);

        let moved = sys.migrate_process(pid, SocketId::new(1), true).unwrap();
        assert_eq!(moved, 64);
        let after = sys.footprint(pid).unwrap();
        assert_eq!(after.data_bytes[0], 0);
        assert!(after.data_bytes[1] > 0);
        // Page tables did not move: still entirely on socket 0.
        assert_eq!(after.pagetable_bytes[1], 0);
        assert_eq!(after.pagetable_bytes[0], before.pagetable_bytes[0]);
        assert_eq!(sys.process(pid).unwrap().home_socket(), SocketId::new(1));
    }

    #[test]
    fn footprint_overhead_is_small_for_base_pages() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let _ = sys.mmap(pid, 512 * 4096, MmapFlags::populate()).unwrap();
        let footprint = sys.footprint(pid).unwrap();
        assert_eq!(footprint.total_data(), 512 * 4096);
        // 1 L1 table per 2 MiB plus the upper levels: well under 1 %.
        assert!(footprint.pagetable_overhead() < 0.01);
    }

    #[test]
    fn cr3_for_uses_the_single_root_without_replication() {
        let mut sys = system();
        let pid = sys.create_process(SocketId::new(0)).unwrap();
        let base = sys.process(pid).unwrap().address_space().roots().base();
        assert_eq!(sys.cr3_for(pid, SocketId::new(0)).unwrap(), base);
        assert_eq!(sys.cr3_for(pid, SocketId::new(1)).unwrap(), base);
    }

    #[test]
    fn unknown_pid_errors() {
        let sys = system();
        assert!(matches!(
            sys.process(Pid::new(99)),
            Err(VmError::NoSuchProcess { .. })
        ));
    }
}
