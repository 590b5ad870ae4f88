//! Fork and the copy-on-write break against their reference forms.
//!
//! `System::fork` copies the parent's leaves table by table, and a store
//! to a copy-on-write leaf resolves the leaf once.  Both must leave the
//! system exactly as the per-leaf fork (`iter_leaf_mappings`, then
//! `Mapper::protect` and `Mapper::map` from the root per leaf) and the
//! `unmap` + `map` break do.  Those forms are kept here as the reference,
//! run on owned copies of the same system's state.

use mitosis::Mitosis;
use mitosis_mem::{CowRefCounts, FrameId, PlacementPolicy};
use mitosis_numa::{Machine, MachineConfig, SocketId, MIB};
use mitosis_pt::{
    iter_leaf_mappings, Mapper, MappingTx, PageSize, PtEnv, PtRoots, PteFlags, PvOps, VirtAddr,
};
use mitosis_vmm::{
    AddressSpace, FaultOutcome, MmapFlags, Pid, Process, Protection, System, ThpMode, VmError,
    VmmConfig,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

const PAGE: u64 = 4096;
const SOCKETS: u16 = 4;

fn machine() -> Machine {
    MachineConfig::new(SOCKETS, 2)
        .with_memory_per_socket(64 * MIB)
        .build()
}

/// The per-leaf fork and the `unmap` + `map` copy-on-write break, run on
/// owned copies of a system's page-table state, backend, share table,
/// pending shootdown work and processes.
struct Reference {
    env: PtEnv,
    ops: Box<dyn PvOps>,
    cow: CowRefCounts,
    pending: MappingTx,
    processes: BTreeMap<Pid, Process>,
    config: VmmConfig,
}

impl Reference {
    fn of(system: &System) -> Self {
        Reference {
            env: system.pt_env().clone(),
            ops: system.pvops().clone_box(),
            cow: system.cow_refcounts().clone(),
            pending: system.pending_shootdown().clone(),
            processes: system
                .pids()
                .into_iter()
                .map(|pid| (pid, system.process(pid).unwrap().clone()))
                .collect(),
            config: system.config(),
        }
    }

    /// Forks `parent` into `child_pid`: for every leaf in address order,
    /// downgrade it in the parent through `Mapper::protect` and map it in
    /// the child through `Mapper::map`, each walking from the root.
    fn fork(&mut self, parent: Pid, child_pid: Pid) -> Result<(), VmError> {
        let ranged = self.config.shootdown.is_ranged();
        let parent_asid = System::asid_of(parent);
        let p = &self.processes[&parent];
        let home = p.home_socket();
        let replication = p.replication();
        let policy = p.data_policy().policy();
        let parent_roots = p.address_space().roots().clone();
        let vmas = p.address_space().vmas().clone();
        let leaves = iter_leaf_mappings(&self.env.store, parent_roots.base());
        let pt_socket = self.config.pt_placement.resolve(home);
        let mut ctx = self.env.context();
        let child_roots =
            Mapper::create_roots(self.ops.as_mut(), &mut ctx, pt_socket, replication)?;
        let parent_mapper = Mapper::new(&parent_roots);
        let child_mapper = Mapper::new(&child_roots);
        let readonly = PteFlags::user_readonly();
        for leaf in leaves {
            if leaf.pte.flags().writable {
                parent_mapper.protect(self.ops.as_mut(), &mut ctx, leaf.addr, readonly)?;
                if ranged {
                    self.pending
                        .invalidate_page(parent_asid, leaf.addr, leaf.size);
                }
            }
            child_mapper.map(
                self.ops.as_mut(),
                &mut ctx,
                leaf.addr,
                leaf.frame,
                leaf.size,
                readonly,
                pt_socket,
                replication,
            )?;
            self.cow.share(leaf.frame);
        }
        let mut child = Process::new(child_pid, home, AddressSpace::new(child_roots));
        child.set_replication(replication);
        child.set_data_policy(policy);
        for vma in vmas.iter() {
            child.address_space_mut().vmas_mut().insert(vma.clone())?;
        }
        self.processes.insert(child_pid, child);
        Ok(())
    }

    /// A store by `pid` on `socket` to the read-only leaf mapping `addr`
    /// in a writable area: copy a still-shared frame and remap it through
    /// `Mapper::unmap` + `Mapper::map`, or upgrade an exclusive one through
    /// `Mapper::protect`.
    fn cow_break(
        &mut self,
        pid: Pid,
        addr: VirtAddr,
        socket: SocketId,
    ) -> Result<FaultOutcome, VmError> {
        let ranged = self.config.shootdown.is_ranged();
        let asid = System::asid_of(pid);
        let process = self.processes.get_mut(&pid).unwrap();
        let roots = process.address_space().roots().clone();
        let replication = process.replication();
        let t = mitosis_pt::translate(&self.env.store, roots.base(), addr).unwrap();
        assert!(!t.pte.flags().writable);
        let aligned = addr.align_down(t.size);
        let pt_socket = self.config.pt_placement.resolve(socket);
        let flags = PteFlags::user_data();
        let mut ctx = self.env.context();
        let mapper = Mapper::new(&roots);
        let frame = if self.cow.is_shared(t.frame) {
            let new_frame = match t.size {
                PageSize::Base4K => process.data_policy_mut().alloc_data(ctx.alloc, socket)?,
                PageSize::Huge2M => process
                    .data_policy_mut()
                    .alloc_huge_data(ctx.alloc, socket)?,
                PageSize::Giant1G => return Err(VmError::InvalidArgument),
            };
            mapper.unmap(self.ops.as_mut(), &mut ctx, aligned)?;
            mapper.map(
                self.ops.as_mut(),
                &mut ctx,
                aligned,
                new_frame,
                t.size,
                flags,
                pt_socket,
                replication,
            )?;
            self.cow.release(t.frame);
            new_frame
        } else {
            mapper.protect(self.ops.as_mut(), &mut ctx, aligned, flags)?;
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

    /// Everything observable, draining the pending shootdown work.
    fn observable(&mut self) -> String {
        let plan = self.pending.take_plan();
        let roots = self
            .processes
            .iter()
            .map(|(pid, p)| (*pid, p.address_space().roots().clone()))
            .collect();
        observable(&self.env, self.ops.as_ref(), &self.cow, plan, roots)
    }
}

/// Everything observable about a system's state, draining its pending
/// shootdown work.
fn system_observable(system: &mut System) -> String {
    let plan = system.take_shootdown_plan();
    let roots = system
        .pids()
        .into_iter()
        .map(|pid| {
            let roots = system.process(pid).unwrap().address_space().roots();
            (pid, roots.clone())
        })
        .collect();
    observable(
        system.pt_env(),
        system.pvops(),
        system.cow_refcounts(),
        plan,
        roots,
    )
}

/// The leaves under every distinct root of every process, the PV-Ops
/// counters, the shootdown plan, per-socket allocator stats, the table
/// count and the share count of every frame.
fn observable(
    env: &PtEnv,
    ops: &dyn PvOps,
    cow: &CowRefCounts,
    plan: mitosis_pt::ShootdownPlan,
    roots: Vec<(Pid, PtRoots)>,
) -> String {
    let leaves: Vec<_> = roots
        .iter()
        .map(|(pid, roots)| {
            let trees: Vec<_> = roots
                .distinct_roots()
                .into_iter()
                .map(|root| iter_leaf_mappings(&env.store, root))
                .collect();
            (*pid, roots.clone(), trees)
        })
        .collect();
    let alloc: Vec<_> = (0..SOCKETS)
        .map(|s| env.alloc.stats(SocketId::new(s)))
        .collect();
    let shared: Vec<_> = (0..env.alloc.frame_space().total_frames())
        .map(FrameId::new)
        .filter(|&frame| cow.references(frame) != 1)
        .map(|frame| (frame.pfn(), cow.references(frame)))
        .collect();
    format!(
        "leaves {leaves:?}\npvops {:?}\nplan {plan:?}\nalloc {alloc:?}\ntables {}\n\
         shared {} {shared:?}",
        ops.stats(),
        env.store.table_count(),
        cow.shared_frames(),
    )
}

/// The page-table backend a case runs on.
#[derive(Debug, Clone, Copy)]
enum Backend {
    Native,
    MitosisUnreplicated,
    MitosisReplicated,
}

/// One generated history: a writable area and a read-only one, partly
/// faulted in, forked, stored to, forked again and stored to again.
#[derive(Debug)]
struct Case {
    backend: Backend,
    thp: bool,
    policy: PlacementPolicy,
    /// Offset of the writable area from a 2 MiB boundary, in pages.
    start_page: u64,
    rw_pages: u64,
    ro_pages: u64,
    /// `(first page, pages)` of the writable area populated up front.
    populate: (u64, u64),
    /// Pages of either area read in up front, with the reading socket.
    reads: Vec<(u64, u16)>,
    /// Stores after the first fork: `(process, page, socket)`, the process
    /// indexing `[parent, child]`.
    first_stores: Vec<(u8, u64, u16)>,
    /// Stores after the second fork, indexing `[parent, child, child 2]`.
    second_stores: Vec<(u8, u64, u16)>,
    /// Accessed (and, when set, dirty) bits a walker on a socket sets in
    /// that socket's leaf entry for a page of the parent before each fork:
    /// `(page, socket, dirty)`, before the first fork and before the second.
    marks: [Vec<(u64, u16, bool)>; 2],
}

impl Case {
    /// Builds the system up to the first fork.  Returns the system, the
    /// parent and the start of the writable area.
    fn prepare(&self) -> (System, Pid, VirtAddr) {
        let mut mitosis = Mitosis::new();
        let mut system = match self.backend {
            Backend::Native => System::new(machine()),
            Backend::MitosisUnreplicated | Backend::MitosisReplicated => mitosis.install(machine()),
        };
        system.set_config(VmmConfig::stock().with_ranged_shootdowns());
        if self.thp {
            system.set_thp(ThpMode::Always);
        }
        let pid = system.create_process(SocketId::new(0)).unwrap();
        system
            .process_mut(pid)
            .unwrap()
            .set_data_policy(self.policy);
        let start = VirtAddr::new(0x40_0000_0000 + self.start_page * PAGE);
        system
            .mmap_at(pid, start, self.rw_pages * PAGE, MmapFlags::lazy())
            .unwrap();
        if self.ro_pages > 0 {
            let flags = MmapFlags::lazy()
                .without_thp()
                .with_protection(Protection::ReadOnly);
            system
                .mmap_at(
                    pid,
                    start.add(self.rw_pages * PAGE),
                    self.ro_pages * PAGE,
                    flags,
                )
                .unwrap();
        }
        let (head, len) = self.populate;
        let head = head.min(self.rw_pages - 1);
        let len = len.min(self.rw_pages - head);
        if len > 0 {
            system
                .populate_region(pid, start.add(head * PAGE), len * PAGE, SocketId::new(1))
                .unwrap();
        }
        for &(page, socket) in &self.reads {
            if page < self.rw_pages + self.ro_pages {
                system
                    .handle_fault_access(pid, start.add(page * PAGE), SocketId::new(socket), false)
                    .unwrap();
            }
        }
        if let Backend::MitosisReplicated = self.backend {
            mitosis.enable_for_process(&mut system, pid, None).unwrap();
        }
        (system, pid, start)
    }

    /// Sets the accessed and dirty bits of `marks` in the parent's leaf
    /// entries on both sides, each in the leaf table the marking socket's
    /// tree reaches (a replica of its own under replication), as that
    /// socket's hardware walker would.
    fn mark(
        &self,
        system: &System,
        reference: &Reference,
        parent: Pid,
        start: VirtAddr,
        marks: &[(u64, u16, bool)],
    ) {
        for &(page, socket, dirty) in marks {
            let addr = start.add(page % (self.rw_pages + self.ro_pages) * PAGE);
            let socket = SocketId::new(socket);
            let sides = [
                (
                    &system.pt_env().store,
                    system.process(parent).unwrap().address_space().roots(),
                ),
                (
                    &reference.env.store,
                    reference.processes[&parent].address_space().roots(),
                ),
            ];
            for (store, roots) in sides {
                let root = roots.root_for_socket(socket);
                if let Some((table, t)) = mitosis_pt::translate_entry(store, root, addr) {
                    store.mark_accessed_at(store.slot(table), addr.index_at(t.level), dirty);
                }
            }
        }
    }

    /// Runs the history on the system and on the reference side by side,
    /// comparing everything observable after every step.
    fn check(&self) -> Result<(), TestCaseError> {
        let (mut system, parent, start) = self.prepare();
        let mut reference = Reference::of(&system);
        prop_assert_eq!(system_observable(&mut system), reference.observable());

        self.mark(&system, &reference, parent, start, &self.marks[0]);
        let child = system.fork(parent).unwrap();
        reference.fork(parent, child).unwrap();
        prop_assert_eq!(
            system_observable(&mut system),
            reference.observable(),
            "first fork, {:?}",
            self
        );
        self.stores(
            &mut system,
            &mut reference,
            &[parent, child],
            start,
            &self.first_stores,
        )?;

        self.mark(&system, &reference, parent, start, &self.marks[1]);
        let second = system.fork(parent).unwrap();
        reference.fork(parent, second).unwrap();
        prop_assert_eq!(
            system_observable(&mut system),
            reference.observable(),
            "second fork, {:?}",
            self
        );
        self.stores(
            &mut system,
            &mut reference,
            &[parent, child, second],
            start,
            &self.second_stores,
        )
    }

    /// Applies each store that hits a read-only leaf of the writable area
    /// to both sides; stores elsewhere are not copy-on-write breaks.
    fn stores(
        &self,
        system: &mut System,
        reference: &mut Reference,
        pids: &[Pid],
        start: VirtAddr,
        stores: &[(u8, u64, u16)],
    ) -> Result<(), TestCaseError> {
        for &(who, page, socket) in stores {
            let pid = pids[usize::from(who) % pids.len()];
            let addr = start.add(page % self.rw_pages * PAGE);
            let socket = SocketId::new(socket);
            match system.translate(pid, addr).unwrap() {
                Some(t) if !t.pte.flags().writable => {}
                _ => continue,
            }
            let fast = system.handle_fault_access(pid, addr, socket, true);
            let slow = reference.cow_break(pid, addr, socket);
            prop_assert_eq!(fast, slow, "store to {} by {}, {:?}", addr, pid, self);
            // Drained per store, as the engine's fault path drains it.
            prop_assert_eq!(
                system.take_shootdown_plan(),
                reference.pending.take_plan(),
                "store to {} by {}, {:?}",
                addr,
                pid,
                self
            );
        }
        prop_assert_eq!(
            system_observable(system),
            reference.observable(),
            "after the stores, {:?}",
            self
        );
        Ok(())
    }
}

const BACKENDS: [Backend; 3] = [
    Backend::Native,
    Backend::MitosisUnreplicated,
    Backend::MitosisReplicated,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two forks of one parent, each after walkers on several sockets set
    /// accessed and dirty bits in their own replicas of the parent's
    /// leaves, with copy-on-write breaks by every process in between and
    /// after, leave the same page tables, PV-Ops counters, shootdown plans,
    /// allocator state, table count and share counts as the per-leaf fork
    /// and the `unmap` + `map` break.
    #[test]
    fn fork_and_cow_breaks_match_the_per_leaf_reference(
        kind in (0u8..3, 0u8..2, 0u8..3, 0usize..4),
        shape in (1u64..1300, 0u64..300, 0u64..1300, 0u64..1300),
        reads in prop::collection::vec((0u64..1600, 0u16..SOCKETS), 0..30),
        first_stores in prop::collection::vec((0u8..2, 0u64..1300, 0u16..SOCKETS), 0..30),
        second_stores in prop::collection::vec((0u8..3, 0u64..1300, 0u16..SOCKETS), 0..30),
        marks in (
            prop::collection::vec((0u64..1600, 0u16..SOCKETS, any::<bool>()), 0..40),
            prop::collection::vec((0u64..1600, 0u16..SOCKETS, any::<bool>()), 0..40),
        ),
    ) {
        let (backend, thp, policy, start_page) = kind;
        let (rw_pages, ro_pages, head, len) = shape;
        let case = Case {
            backend: BACKENDS[backend as usize],
            thp: thp == 1,
            policy: [
                PlacementPolicy::FirstTouch,
                PlacementPolicy::interleave_all(SOCKETS as usize),
                PlacementPolicy::Bind(SocketId::new(2)),
            ][policy as usize],
            start_page: [0, 1, 256, 511][start_page],
            rw_pages,
            ro_pages,
            populate: (head, len),
            reads,
            first_stores,
            second_stores,
            marks: [marks.0, marks.1],
        };
        case.check()?;
    }
}

/// A fully populated writable area — whole leaf tables, and 2 MiB leaves
/// under THP — next to a read-only one, its leaves accessed and dirtied in
/// single replicas, forked twice with stores from every process, on every
/// backend.
#[test]
fn populated_areas_fork_like_the_reference_on_every_backend() {
    for backend in BACKENDS {
        for thp in [false, true] {
            let case = Case {
                backend,
                thp,
                policy: PlacementPolicy::FirstTouch,
                start_page: 0,
                rw_pages: 2048,
                ro_pages: 40,
                populate: (0, 2048),
                reads: vec![(2050, 1), (2060, 3)],
                first_stores: (0..40)
                    .map(|i| (i as u8 % 2, i * 97, i as u16 % 4))
                    .collect(),
                second_stores: (0..60)
                    .map(|i| (i as u8 % 3, i * 61, i as u16 % 4))
                    .collect(),
                marks: [0, 1].map(|fork| {
                    (0..80)
                        .map(|i| (i * 53 + fork * 7, (i + fork) as u16 % 4, i % 3 == 0))
                        .collect()
                }),
            };
            if let Err(err) = case.check() {
                panic!("{err}");
            }
        }
    }
}
