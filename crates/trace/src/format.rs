//! The compact binary trace format.
//!
//! A trace file is a versioned header followed by a stream of varint-encoded
//! items and a trailing checksum:
//!
//! ```text
//! magic  "MTRC"                      4 bytes
//! version u32 little-endian          4 bytes
//! meta    workload name (varint length + UTF-8 bytes),
//!         footprint, seed, write_fraction bits,
//!         compute_cycles_per_access, bandwidth_intensity bits
//! items   each item is one varint v whose low two bits are a tag:
//!           00 ACCESS  payload = (zigzag(offset delta) << 1) | is_write
//!           01 EVENT   payload = event code; then argc + argc varint args
//!           10 LANE    payload = socket index; starts a new access lane
//!           11 END     payload = total access count (integrity check)
//! check   FNV-1a 64 of every preceding byte, u64 little-endian
//! ```
//!
//! Access records are delta-encoded against the previous offset in the same
//! lane (starting from zero), so the hot encoding path is "zigzag the delta,
//! fold in the write bit, LEB128 it" — sequential and windowed patterns
//! compress to one or two bytes per access.
//!
//! Events speak `mitosis-sim`'s vocabulary directly.  An event before the
//! first lane is a [`SetupStep`], decoded as [`TraceItem::Setup`]; replay
//! builds the steps with
//! [`PreparedSystem::build`](mitosis_sim::PreparedSystem::build).  An event
//! inside a lane is a [`PhaseChange`] at that access index, decoded as
//! [`TraceItem::Change`], optionally staggered.  The reader knows which
//! side of the first lane it is on: a setup-only step inside a lane, a
//! staggered flag before the first lane or on a change that cannot be
//! staggered, and any argument count other than the code's are
//! [`TraceError::Corrupt`].

use mitosis_mem::FrameSpace;
use mitosis_numa::{NodeMask, SocketId};
use mitosis_pt::VirtAddr;
use mitosis_sim::{PhaseChange, SetupStep, SimParams};
use mitosis_vmm::ThpMode;
use mitosis_workloads::{suite, Access, InitPattern, WorkloadSpec};
use std::fmt;
use std::io::{self, Read, Write};

/// Checked conversion of a dense socket index (the fingerprint's socket
/// count) to the wire format's `u16` socket field.  A [`SocketId`] already
/// is a `u16` and converts with `u16::from`.
///
/// # Errors
///
/// Returns [`TraceError::UnencodableSocket`] when the index exceeds
/// `u16::MAX`.
pub fn checked_socket_u16(index: usize) -> Result<u16, TraceError> {
    u16::try_from(index).map_err(|_| TraceError::UnencodableSocket(index))
}

/// The format version [`TraceWriter`] writes and the only one
/// [`TraceReader`] accepts.
///
/// Version history:
/// * 1 — initial format (workload spec + seed in the header).
/// * 2 — header additionally records the [`MachineFingerprint`], so replay
///   can refuse a trace captured on a differently sized machine instead of
///   silently producing different metrics.
/// * 3 — new event codes for dynamic scenarios: the mid-lane phase-change
///   markers `MigrateData` (11), `Replicate` (12) and `AutoNumaRebalance`
///   (13), with `MigratePageTable` and `Interference` now also valid
///   inside lanes, and the multi-socket scenario's setup event
///   `InterleaveData` (14).  The wire format is unchanged; the version
///   bump marks traces that may carry the new codes.
/// * 4 — staggered (per-thread) phase boundaries: the mid-lane markers
///   `MigrateData`, `AutoNumaRebalance` and `Interference` gain an optional
///   trailing `staggered` argument.  A staggered marker applies only to the
///   lane it is recorded in, so lanes of one trace may legitimately carry
///   *different* markers (the pre-v4 invariant was all-lanes-agree).
///   Unstaggered events omit the argument.
/// * 5 — periodic per-lane checkpoint markers: an *internal* event (code
///   15, never surfaced as a [`TraceItem`]) carrying `(accesses so far in
///   this lane, running FNV-64 state of every byte preceding the
///   marker)`.  [`TraceWriter`] emits one every 4,096 accesses within a
///   lane; [`TraceReader`] validates each marker against the stream it
///   actually read, then swallows it, so decoded traces are unchanged and
///   small traces carry no markers at all.  A marker that does not match
///   is a decode error like any other damage.
/// * 6 — address-space-churn and fork/CoW events: `Fork`, `MmapAt`,
///   `MunmapAt`, `PromoteHuge` and `DemoteHuge` (codes 16–20), valid as
///   mid-lane phase-change markers.
///
/// Within version 6 the reader has grown stricter about bytes no capture
/// writes.  Code 10, a free-form positional marker, is no longer read: it
/// is [`TraceError::UnknownEvent`].  Each code, the checkpoint marker
/// included, must carry exactly its own arguments, and the staggered flag
/// only where a change can be staggered.  A varint whose tenth byte is
/// above 1 does not fit 64 bits and is [`TraceError::Corrupt`].
///
/// The reader decodes this version only: any other version word is
/// [`TraceError::UnsupportedVersion`].
pub const TRACE_VERSION: u32 = 6;

/// File magic, `b"MTRC"`.
pub const TRACE_MAGIC: [u8; 4] = *b"MTRC";

const TAG_ACCESS: u64 = 0b00;
const TAG_EVENT: u64 = 0b01;
const TAG_LANE: u64 = 0b10;
const TAG_END: u64 = 0b11;

/// Wire code of every event in the stream: one named constant per
/// [`SetupStep`] and [`PhaseChange`] variant plus the internal per-lane
/// checkpoint marker.  The encoders, `decode_event` and the checkpoint
/// writer and reader match on these names, never on bare literals.  The
/// round-trip proptests in `replay.rs` walk every variant through the
/// codec, and a constant here that goes unused is a `dead_code` warning.
pub(crate) mod event_code {
    /// `SetupStep::InstallMitosis`.
    pub const INSTALL_MITOSIS: u64 = 1;
    /// `SetupStep::SetThp`.
    pub const SET_THP: u64 = 2;
    /// `SetupStep::PtPlacement`.
    pub const PT_PLACEMENT: u64 = 3;
    /// `SetupStep::CreateProcess`.
    pub const CREATE_PROCESS: u64 = 4;
    /// `SetupStep::BindData`.
    pub const BIND_DATA: u64 = 5;
    /// `SetupStep::Mmap`.
    pub const MMAP: u64 = 6;
    /// `SetupStep::Populate`.
    pub const POPULATE: u64 = 7;
    /// `PhaseChange::MigratePageTable`.
    pub const MIGRATE_PAGE_TABLE: u64 = 8;
    /// `PhaseChange::SetInterference`.
    pub const INTERFERENCE: u64 = 9;
    // Code 10 is retired: the reader reports it as an unknown event.
    /// `PhaseChange::MigrateData`.
    pub const MIGRATE_DATA: u64 = 11;
    /// `PhaseChange::SetReplicas`.
    pub const REPLICATE: u64 = 12;
    /// `PhaseChange::AutoNumaRebalance`.
    pub const AUTO_NUMA_REBALANCE: u64 = 13;
    /// `SetupStep::InterleaveData`.
    pub const INTERLEAVE_DATA: u64 = 14;
    /// The internal per-lane checkpoint marker (format v5), never surfaced
    /// as a [`super::TraceItem`].
    pub const CHECKPOINT: u64 = 15;
    /// `PhaseChange::Fork`.
    pub const FORK: u64 = 16;
    /// `PhaseChange::MmapAt`.
    pub const MMAP_AT: u64 = 17;
    /// `PhaseChange::MunmapAt`.
    pub const MUNMAP_AT: u64 = 18;
    /// `PhaseChange::PromoteHuge`.
    pub const PROMOTE_HUGE: u64 = 19;
    /// `PhaseChange::DemoteHuge`.
    pub const DEMOTE_HUGE: u64 = 20;
}

/// Accesses between two checkpoint markers within a lane.  The markers
/// (~4–12 bytes each) are part of every capture's bytes, so the interval
/// is part of the format.
const CHECKPOINT_INTERVAL: u64 = 4096;

/// Errors produced while encoding or decoding a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with the trace magic.
    BadMagic,
    /// The trace was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The trailing checksum does not match the stream contents.
    ChecksumMismatch {
        /// Checksum stored in the trace.
        stored: u64,
        /// Checksum computed over the bytes actually read.
        computed: u64,
    },
    /// Structurally invalid trace data.
    Corrupt(&'static str),
    /// An event with an unknown code (written by a newer version).
    UnknownEvent(u64),
    /// The capture machine's socket count does not fit the wire format's
    /// `u16`.  Raised at *capture* time: encoding it with a silent
    /// `as u16` cast would produce a wrong-but-checksummed fingerprint.
    UnencodableSocket(usize),
    /// Decoding stopped at byte `offset` of the stream because of `error`.
    /// Every error [`TraceReader`] and [`Trace::read_from`] return has this
    /// shape; the encoding side never does.
    Decode {
        /// Bytes read from the stream when decoding stopped, the partial
        /// bytes of a failed read included.
        offset: u64,
        /// Why decoding stopped.
        error: Box<TraceError>,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a mitosis trace (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (supported: {TRACE_VERSION})"
                )
            }
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::UnknownEvent(code) => write!(f, "unknown trace event code {code}"),
            TraceError::UnencodableSocket(index) => write!(
                f,
                "socket index {index} does not fit the trace format's u16 \
                 socket field (capture machine too large to describe)"
            ),
            TraceError::Decode { offset, error } => {
                write!(f, "{error} (decoding stopped at byte {offset})")
            }
        }
    }
}

impl std::error::Error for TraceError {
    /// Exposes the underlying [`io::Error`] of [`TraceError::Io`] so
    /// callers can walk the chain.  [`TraceError::Decode`] only adds a
    /// position, so its source is its error's.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Decode { error, .. } => error.source(),
            _ => None,
        }
    }
}

impl TraceError {
    /// This error, as found at byte `offset` of the stream being decoded.
    fn at(self, offset: u64) -> TraceError {
        TraceError::Decode {
            offset,
            error: Box::new(self),
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Incremental FNV-1a 64 checksum.
#[derive(Debug, Clone, Copy)]
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Fnv64(0xcbf29ce484222325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Write half: counts bytes through the checksum.
struct HashingWriter<W: Write> {
    inner: W,
    hash: Fnv64,
}

impl<W: Write> HashingWriter<W> {
    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash.update(bytes);
        self.inner.write_all(bytes)
    }

    fn varint(&mut self, mut v: u64) -> io::Result<()> {
        let mut buf = [0u8; 10];
        let mut n = 0;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            buf[n] = if v == 0 { byte } else { byte | 0x80 };
            n += 1;
            if v == 0 {
                break;
            }
        }
        self.write_all(&buf[..n])
    }
}

/// Read half: counts bytes through the checksum and keeps the offset
/// decoding has reached.
struct HashingReader<R: Read> {
    inner: R,
    hash: Fnv64,
    /// Bytes read from `inner` so far, the partial bytes of a failed read
    /// included.
    offset: u64,
}

impl<R: Read> HashingReader<R> {
    /// Fills `buf` from the stream, counting every byte read, without
    /// hashing it (the trailing checksum is not part of what it covers).
    fn read_unhashed(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    filled += n;
                    self.offset += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.read_unhashed(buf)?;
        self.hash.update(buf);
        Ok(())
    }

    fn byte(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.read_exact(&mut b)?;
        Ok(b[0])
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                // The tenth byte (shift 63) holds bit 63 alone: the shift
                // would drop any higher bit.
                if shift == 63 && byte > 1 {
                    break;
                }
                return Ok(v);
            }
        }
        Err(TraceError::Corrupt("varint longer than 64 bits"))
    }
}

/// The machine a trace was captured on, as far as metrics depend on it.
///
/// Replaying on a machine with a different scale, socket count or
/// frames-per-socket layout silently yields different metrics (frame
/// numbers map to different sockets, cache capacities differ), so the
/// fingerprint is recorded in the header and checked at replay time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineFingerprint {
    /// Capacity scale factor the machine was built with.
    pub machine_scale: u64,
    /// Number of sockets.
    pub sockets: u16,
    /// Number of 4 KiB frames attached to each socket.
    pub frames_per_socket: u64,
}

impl MachineFingerprint {
    /// The fingerprint of the machine `params` builds.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnencodableSocket`] when the machine has more
    /// sockets than the format's `u16` field can record — a truncated
    /// fingerprint would checksum fine and then (mis)match at replay time.
    pub fn for_params(params: &SimParams) -> Result<Self, TraceError> {
        let machine = params.machine();
        let space = FrameSpace::new(&machine);
        Ok(MachineFingerprint {
            machine_scale: params.machine_scale,
            sockets: checked_socket_u16(machine.sockets())?,
            frames_per_socket: space.frames_per_socket(),
        })
    }
}

impl fmt::Display for MachineFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scale {}, {} sockets, {} frames/socket",
            self.machine_scale, self.sockets, self.frames_per_socket
        )
    }
}

/// Identifying metadata of a captured run, stored in the trace header.
///
/// A trace is self-describing: `workload` plus the spec parameters below
/// are enough to rebuild the exact [`WorkloadSpec`] the capture ran (via
/// [`TraceMeta::resolve_spec`]) and to refuse replay against a mismatched
/// one; `machine` identifies the captured machine the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Paper name of the captured workload (e.g. `"GUPS"`).
    pub workload: String,
    /// Footprint in bytes the capture actually used (after scaling).
    pub footprint: u64,
    /// Base seed of the captured access streams (lane `i` used `seed + i`).
    pub seed: u64,
    /// The spec's write fraction, for validation at replay time.
    pub write_fraction: f64,
    /// The spec's compute cycles per access, for validation.
    pub compute_cycles_per_access: u64,
    /// The spec's bandwidth intensity, for validation.
    pub bandwidth_intensity: f64,
    /// The machine the capture ran on.
    pub machine: MachineFingerprint,
}

impl TraceMeta {
    /// Captures the identifying parameters of `spec` and the machine built
    /// from `params`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnencodableSocket`] when the machine's
    /// fingerprint does not fit the format (see
    /// [`MachineFingerprint::for_params`]).
    pub fn for_spec(spec: &WorkloadSpec, params: &SimParams) -> Result<Self, TraceError> {
        Ok(TraceMeta {
            workload: spec.name().to_string(),
            footprint: spec.footprint(),
            seed: params.seed,
            write_fraction: spec.write_fraction(),
            compute_cycles_per_access: spec.compute_cycles_per_access(),
            bandwidth_intensity: spec.bandwidth_intensity(),
            machine: MachineFingerprint::for_params(params)?,
        })
    }

    /// Rebuilds the captured workload spec from the paper suite, applying
    /// the captured footprint.  Returns `None` for workloads not in the
    /// suite or whose suite parameters no longer match the trace.
    pub fn resolve_spec(&self) -> Option<WorkloadSpec> {
        let spec = suite::by_name(&self.workload)?.with_footprint(self.footprint);
        self.matches_spec(&spec).then_some(spec)
    }

    /// Whether `spec` is the workload this trace was captured from.
    pub fn matches_spec(&self, spec: &WorkloadSpec) -> bool {
        spec.name() == self.workload
            && spec.footprint() == self.footprint
            && spec.write_fraction() == self.write_fraction
            && spec.compute_cycles_per_access() == self.compute_cycles_per_access
            && spec.bandwidth_intensity() == self.bandwidth_intensity
    }
}

/// The wire code and arguments of a setup step: a phase change is written
/// as its unstaggered mid-lane marker.
fn encode_step(step: SetupStep) -> (u64, [u64; 3], usize) {
    let socket = |socket: SocketId| u64::from(u16::from(socket));
    match step {
        SetupStep::InstallMitosis => (event_code::INSTALL_MITOSIS, [0; 3], 0),
        SetupStep::SetThp(mode) => (event_code::SET_THP, [u64::from(mode.is_enabled()), 0, 0], 1),
        SetupStep::PtPlacement(target) => (event_code::PT_PLACEMENT, [socket(target), 0, 0], 1),
        SetupStep::CreateProcess(home) => (event_code::CREATE_PROCESS, [socket(home), 0, 0], 1),
        SetupStep::BindData(target) => (event_code::BIND_DATA, [socket(target), 0, 0], 1),
        SetupStep::InterleaveData(sockets) => {
            (event_code::INTERLEAVE_DATA, [sockets.bits(), 0, 0], 1)
        }
        SetupStep::Mmap { len, populate, thp } => (
            event_code::MMAP,
            [len, u64::from(populate), u64::from(thp)],
            3,
        ),
        SetupStep::Populate { len, init, sockets } => (
            event_code::POPULATE,
            [
                len,
                u64::from(init == InitPattern::Parallel),
                sockets.bits(),
            ],
            3,
        ),
        SetupStep::Change(change) => encode_change(change, false),
    }
}

/// The wire code and arguments of a phase change.  A staggered one
/// appends the flag `1` (format v4); the writer appends it to any change,
/// and the reader refuses it on one that cannot be staggered.
fn encode_change(change: PhaseChange, staggered: bool) -> (u64, [u64; 3], usize) {
    let socket = |socket: SocketId| u64::from(u16::from(socket));
    let (code, mut args, argc) = match change {
        PhaseChange::MigrateData { target } => {
            (event_code::MIGRATE_DATA, [socket(target), 0, 0], 1)
        }
        PhaseChange::MigratePageTable { target } => {
            (event_code::MIGRATE_PAGE_TABLE, [socket(target), 0, 0], 1)
        }
        PhaseChange::SetReplicas { sockets } => (event_code::REPLICATE, [sockets.bits(), 0, 0], 1),
        PhaseChange::AutoNumaRebalance { sockets } => {
            (event_code::AUTO_NUMA_REBALANCE, [sockets.bits(), 0, 0], 1)
        }
        PhaseChange::SetInterference { sockets } => {
            (event_code::INTERFERENCE, [sockets.bits(), 0, 0], 1)
        }
        PhaseChange::Fork => (event_code::FORK, [0; 3], 0),
        PhaseChange::MmapAt { addr, length } => {
            (event_code::MMAP_AT, [addr.as_u64(), length, 0], 2)
        }
        PhaseChange::MunmapAt { addr, length } => {
            (event_code::MUNMAP_AT, [addr.as_u64(), length, 0], 2)
        }
        PhaseChange::PromoteHuge { addr } => (event_code::PROMOTE_HUGE, [addr.as_u64(), 0, 0], 1),
        PhaseChange::DemoteHuge { addr } => (event_code::DEMOTE_HUGE, [addr.as_u64(), 0, 0], 1),
    };
    if !staggered {
        return (code, args, argc);
    }
    args[argc] = 1;
    (code, args, argc + 1)
}

/// Decodes one event record into the setup step it stands for — a phase
/// change as a [`SetupStep::Change`] — and whether it carries the
/// staggered flag.  Every code takes a fixed number of arguments, and only
/// the flag `1` may follow them; where the event stands decides whether
/// the step and the flag are allowed there ([`TraceReader::next_item`]).
fn decode_event(code: u64, args: &[u64]) -> Result<(SetupStep, bool), TraceError> {
    let mut rest = args.iter();
    let mut arg = || {
        rest.next()
            .copied()
            .ok_or(TraceError::Corrupt("event is missing arguments"))
    };
    let socket = |value: u64| {
        u16::try_from(value)
            .map(SocketId::from)
            .map_err(|_| TraceError::Corrupt("socket index overflows u16"))
    };
    let addr = |value: u64| {
        if value < 1 << 48 {
            Ok(VirtAddr::new(value))
        } else {
            Err(TraceError::Corrupt("virtual address exceeds 48 bits"))
        }
    };
    let change = SetupStep::Change;
    let step = match code {
        event_code::INSTALL_MITOSIS => SetupStep::InstallMitosis,
        event_code::SET_THP => SetupStep::SetThp(if arg()? != 0 {
            ThpMode::Always
        } else {
            ThpMode::Never
        }),
        event_code::PT_PLACEMENT => SetupStep::PtPlacement(socket(arg()?)?),
        event_code::CREATE_PROCESS => SetupStep::CreateProcess(socket(arg()?)?),
        event_code::BIND_DATA => SetupStep::BindData(socket(arg()?)?),
        event_code::INTERLEAVE_DATA => SetupStep::InterleaveData(NodeMask::from_bits(arg()?)),
        event_code::MMAP => SetupStep::Mmap {
            len: arg()?,
            populate: arg()? != 0,
            thp: arg()? != 0,
        },
        event_code::POPULATE => SetupStep::Populate {
            len: arg()?,
            init: if arg()? != 0 {
                InitPattern::Parallel
            } else {
                InitPattern::SingleThread
            },
            sockets: NodeMask::from_bits(arg()?),
        },
        event_code::MIGRATE_DATA => change(PhaseChange::MigrateData {
            target: socket(arg()?)?,
        }),
        event_code::MIGRATE_PAGE_TABLE => change(PhaseChange::MigratePageTable {
            target: socket(arg()?)?,
        }),
        event_code::REPLICATE => change(PhaseChange::SetReplicas {
            sockets: NodeMask::from_bits(arg()?),
        }),
        event_code::AUTO_NUMA_REBALANCE => change(PhaseChange::AutoNumaRebalance {
            sockets: NodeMask::from_bits(arg()?),
        }),
        event_code::INTERFERENCE => change(PhaseChange::SetInterference {
            sockets: NodeMask::from_bits(arg()?),
        }),
        event_code::FORK => change(PhaseChange::Fork),
        event_code::MMAP_AT => change(PhaseChange::MmapAt {
            addr: addr(arg()?)?,
            length: arg()?,
        }),
        event_code::MUNMAP_AT => change(PhaseChange::MunmapAt {
            addr: addr(arg()?)?,
            length: arg()?,
        }),
        event_code::PROMOTE_HUGE => change(PhaseChange::PromoteHuge {
            addr: addr(arg()?)?,
        }),
        event_code::DEMOTE_HUGE => change(PhaseChange::DemoteHuge {
            addr: addr(arg()?)?,
        }),
        other => return Err(TraceError::UnknownEvent(other)),
    };
    match rest.as_slice() {
        [] => Ok((step, false)),
        [1] => Ok((step, true)),
        _ => Err(TraceError::Corrupt("event has extra arguments")),
    }
}

/// Streaming trace encoder.
///
/// Wrap the sink in a `BufWriter` for file output; every record is written
/// through individually.
pub struct TraceWriter<W: Write> {
    sink: HashingWriter<W>,
    prev_offset: u64,
    in_lane: bool,
    total_accesses: u64,
    lane_accesses: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace on `sink`, writing the header immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(sink: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        let mut sink = HashingWriter {
            inner: sink,
            hash: Fnv64::new(),
        };
        sink.write_all(&TRACE_MAGIC)?;
        sink.write_all(&TRACE_VERSION.to_le_bytes())?;
        sink.varint(meta.workload.len() as u64)?;
        sink.write_all(meta.workload.as_bytes())?;
        sink.varint(meta.footprint)?;
        sink.varint(meta.seed)?;
        sink.varint(meta.write_fraction.to_bits())?;
        sink.varint(meta.compute_cycles_per_access)?;
        sink.varint(meta.bandwidth_intensity.to_bits())?;
        sink.varint(meta.machine.machine_scale)?;
        sink.varint(meta.machine.sockets as u64)?;
        sink.varint(meta.machine.frames_per_socket)?;
        Ok(TraceWriter {
            sink,
            prev_offset: 0,
            in_lane: false,
            total_accesses: 0,
            lane_accesses: 0,
        })
    }

    /// Records a setup step.  It belongs before the first lane; the writer
    /// does not check where it stands, the reader does.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn setup_step(&mut self, step: SetupStep) -> Result<(), TraceError> {
        let (code, args, argc) = encode_step(step);
        self.event(code, &args[..argc])
    }

    /// Records a phase change as a mid-lane marker before the next access,
    /// `staggered` when only this lane's thread observed it.  Like
    /// [`TraceWriter::setup_step`] it records what it is given; the reader
    /// refuses a marker before the first lane and a staggered flag on a
    /// change that cannot be staggered.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn phase_change(&mut self, change: PhaseChange, staggered: bool) -> Result<(), TraceError> {
        let (code, args, argc) = encode_change(change, staggered);
        self.event(code, &args[..argc])
    }

    fn event(&mut self, code: u64, args: &[u64]) -> Result<(), TraceError> {
        self.sink.varint((code << 2) | TAG_EVENT)?;
        self.sink.varint(args.len() as u64)?;
        for &arg in args {
            self.sink.varint(arg)?;
        }
        Ok(())
    }

    /// Starts a new access lane for a thread pinned to `socket`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn begin_lane(&mut self, socket: u16) -> Result<(), TraceError> {
        self.sink.varint(((socket as u64) << 2) | TAG_LANE)?;
        self.prev_offset = 0;
        self.in_lane = true;
        self.lane_accesses = 0;
        Ok(())
    }

    /// Appends one access to the current lane.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails if no lane has been started.
    pub fn access(&mut self, access: Access) -> Result<(), TraceError> {
        if !self.in_lane {
            return Err(TraceError::Corrupt("access recorded outside a lane"));
        }
        let delta = access.offset.wrapping_sub(self.prev_offset) as i64;
        self.prev_offset = access.offset;
        let payload = (zigzag(delta) << 1) | access.is_write as u64;
        self.sink.varint((payload << 2) | TAG_ACCESS)?;
        self.total_accesses += 1;
        self.lane_accesses += 1;
        if self.lane_accesses.is_multiple_of(CHECKPOINT_INTERVAL) {
            self.write_checkpoint()?;
        }
        Ok(())
    }

    /// Emits one checkpoint marker: the lane's access count so far plus the
    /// running stream hash *before* the marker's own bytes — the reader
    /// recomputes exactly that value ahead of decoding the marker, so a
    /// matching marker attests every byte up to itself.
    fn write_checkpoint(&mut self) -> Result<(), TraceError> {
        let hash = self.sink.hash.0;
        self.event(event_code::CHECKPOINT, &[self.lane_accesses, hash])
    }

    /// Terminates the trace, writing the end marker and checksum, and
    /// returns the sink.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> Result<W, TraceError> {
        self.sink.varint((self.total_accesses << 2) | TAG_END)?;
        let checksum = self.sink.hash.0;
        self.sink.inner.write_all(&checksum.to_le_bytes())?;
        Ok(self.sink.inner)
    }
}

/// One decoded item from a trace body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceItem {
    /// A setup event: one step of the setup, before the first lane.
    Setup(SetupStep),
    /// A mid-lane marker: a phase change before the lane's next access.
    Change {
        /// The change.
        change: PhaseChange,
        /// Only this lane's thread observed the change (format v4).
        staggered: bool,
    },
    /// Start of a new lane for a thread on `socket`.
    LaneStart {
        /// Socket the lane's thread was pinned to.
        socket: u16,
    },
    /// One access in the current lane.
    Access(Access),
    /// End of the trace (checksum verified).
    End,
}

/// Streaming trace decoder.
///
/// Wrap the source in a `BufReader` for file input; bytes are consumed
/// record by record and the checksum is verified when [`TraceItem::End`] is
/// reached.  Format-v5 checkpoint markers are validated against the bytes
/// actually read and swallowed (never surfaced as a [`TraceItem`]).  Every
/// error is a [`TraceError::Decode`] naming the byte offset where decoding
/// stopped.
pub struct TraceReader<R: Read> {
    source: HashingReader<R>,
    meta: TraceMeta,
    prev_offset: u64,
    accesses_seen: u64,
    finished: bool,
    /// Lanes started so far; the current lane is `lanes_seen - 1`.
    lanes_seen: usize,
    /// Accesses decoded in the current lane.
    lane_accesses: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, parsing and validating the header.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a bad magic or an unsupported version, as a
    /// [`TraceError::Decode`] naming the byte offset where decoding
    /// stopped.
    pub fn new(source: R) -> Result<Self, TraceError> {
        let mut source = HashingReader {
            inner: source,
            hash: Fnv64::new(),
            offset: 0,
        };
        match Self::read_meta(&mut source) {
            Ok(meta) => Ok(TraceReader {
                source,
                meta,
                prev_offset: 0,
                accesses_seen: 0,
                finished: false,
                lanes_seen: 0,
                lane_accesses: 0,
            }),
            Err(error) => Err(error.at(source.offset)),
        }
    }

    fn read_meta(source: &mut HashingReader<R>) -> Result<TraceMeta, TraceError> {
        let mut magic = [0u8; 4];
        source.read_exact(&mut magic)?;
        if magic != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut version = [0u8; 4];
        source.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let name_len = usize::try_from(source.varint()?)
            .ok()
            .filter(|&len| len <= 4096)
            .ok_or(TraceError::Corrupt("implausible workload name length"))?;
        let mut name = vec![0u8; name_len];
        source.read_exact(&mut name)?;
        let workload = String::from_utf8(name)
            .map_err(|_| TraceError::Corrupt("workload name is not UTF-8"))?;
        let footprint = source.varint()?;
        let seed = source.varint()?;
        let write_fraction = f64::from_bits(source.varint()?);
        let compute_cycles_per_access = source.varint()?;
        let bandwidth_intensity = f64::from_bits(source.varint()?);
        let machine = MachineFingerprint {
            machine_scale: source.varint()?,
            sockets: u16::try_from(source.varint()?)
                .map_err(|_| TraceError::Corrupt("socket count overflows u16"))?,
            frames_per_socket: source.varint()?,
        };
        Ok(TraceMeta {
            workload,
            footprint,
            seed,
            write_fraction,
            compute_cycles_per_access,
            bandwidth_intensity,
            machine,
        })
    }

    /// The trace header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Decodes the next item; [`TraceItem::End`] is returned exactly once,
    /// after which further calls fail.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt records or a checksum mismatch, as a
    /// [`TraceError::Decode`] naming the byte offset where decoding
    /// stopped.
    pub fn next_item(&mut self) -> Result<TraceItem, TraceError> {
        self.decode_item()
            .map_err(|error| error.at(self.source.offset))
    }

    fn decode_item(&mut self) -> Result<TraceItem, TraceError> {
        if self.finished {
            return Err(TraceError::Corrupt("read past end of trace"));
        }
        // Checkpoint markers validate and swallow without surfacing, hence
        // the loop: one call still returns exactly one real item.
        loop {
            // Snapshot of the running hash *before* this item's bytes —
            // the value a checkpoint marker attests.
            let stream_hash = self.source.hash.0;
            let v = self.source.varint()?;
            let payload = v >> 2;
            match v & 0b11 {
                TAG_ACCESS => {
                    let is_write = payload & 1 == 1;
                    let delta = unzigzag(payload >> 1);
                    self.prev_offset = self.prev_offset.wrapping_add(delta as u64);
                    self.accesses_seen += 1;
                    self.lane_accesses += 1;
                    return Ok(TraceItem::Access(Access {
                        offset: self.prev_offset,
                        is_write,
                    }));
                }
                TAG_EVENT => {
                    let argc = usize::try_from(self.source.varint()?)
                        .ok()
                        .filter(|&argc| argc <= 16)
                        .ok_or(TraceError::Corrupt("implausible event argument count"))?;
                    let mut args = [0u64; 16];
                    for slot in args.iter_mut().take(argc) {
                        *slot = self.source.varint()?;
                    }
                    if payload == event_code::CHECKPOINT {
                        self.validate_checkpoint(stream_hash, &args[..argc])?;
                        continue;
                    }
                    return self.event_item(payload, &args[..argc]);
                }
                TAG_LANE => {
                    let socket = u16::try_from(payload)
                        .map_err(|_| TraceError::Corrupt("lane socket overflows u16"))?;
                    self.prev_offset = 0;
                    self.lanes_seen += 1;
                    self.lane_accesses = 0;
                    return Ok(TraceItem::LaneStart { socket });
                }
                _ => {
                    if payload != self.accesses_seen {
                        return Err(TraceError::Corrupt("access count mismatch at end marker"));
                    }
                    let computed = self.source.hash.0;
                    let mut stored = [0u8; 8];
                    self.source.read_unhashed(&mut stored)?;
                    let stored = u64::from_le_bytes(stored);
                    if stored != computed {
                        return Err(TraceError::ChecksumMismatch { stored, computed });
                    }
                    self.finished = true;
                    return Ok(TraceItem::End);
                }
            }
        }
    }

    /// The item an event record stands for where it stands: a setup step
    /// before the first lane, a phase change inside one.
    fn event_item(&self, code: u64, args: &[u64]) -> Result<TraceItem, TraceError> {
        let (step, staggered) = decode_event(code, args)?;
        if self.lanes_seen == 0 {
            return match staggered {
                false => Ok(TraceItem::Setup(step)),
                true => Err(TraceError::Corrupt("staggered event before the first lane")),
            };
        }
        match step {
            SetupStep::Change(change) if !staggered || change.supports_thread_filter() => {
                Ok(TraceItem::Change { change, staggered })
            }
            SetupStep::Change(_) => Err(TraceError::Corrupt(
                "staggered flag on a change that cannot be staggered",
            )),
            _ => Err(TraceError::Corrupt("setup-only event inside a lane")),
        }
    }

    /// Validates one checkpoint marker against the stream actually read:
    /// the recorded lane access count must match the decode position, and
    /// the recorded running hash must match the hash of every byte read
    /// before the marker.
    fn validate_checkpoint(&mut self, stream_hash: u64, args: &[u64]) -> Result<(), TraceError> {
        if self.lanes_seen == 0 {
            return Err(TraceError::Corrupt(
                "checkpoint marker before the first lane",
            ));
        }
        // Like every event code, the marker carries exactly its own
        // arguments: the lane's access count and the running hash.
        let &[count, stored] = args else {
            return Err(TraceError::Corrupt(
                "checkpoint marker must carry exactly two arguments",
            ));
        };
        if count != self.lane_accesses {
            return Err(TraceError::Corrupt(
                "checkpoint marker access count disagrees with the stream",
            ));
        }
        if stored != stream_hash {
            return Err(TraceError::ChecksumMismatch {
                stored,
                computed: stream_hash,
            });
        }
        Ok(())
    }
}

/// One thread's captured access sequence plus its mid-lane markers.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLane {
    /// Socket the captured thread was pinned to.
    pub socket: u16,
    /// The access sequence, in execution order.
    pub accesses: Vec<Access>,
    /// Phase changes recorded inside the lane, as `(position, change,
    /// staggered)`: `position` is the number of accesses preceding the
    /// marker, and a `staggered` change was observed by this lane's thread
    /// alone (format v4).
    pub events: Vec<(u64, PhaseChange, bool)>,
}

impl TraceLane {
    /// An empty lane for a thread on `socket`.
    pub fn new(socket: u16) -> Self {
        TraceLane {
            socket,
            accesses: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// A fully decoded, in-memory trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Header metadata identifying the captured workload.
    pub meta: TraceMeta,
    /// Setup events recorded before the first lane: the steps
    /// [`PreparedSystem::build`](mitosis_sim::PreparedSystem::build) ran,
    /// in order.
    pub setup_events: Vec<SetupStep>,
    /// Per-thread access lanes.
    pub lanes: Vec<TraceLane>,
}

impl Trace {
    /// Total number of accesses across all lanes.
    pub fn accesses(&self) -> u64 {
        self.lanes.iter().map(|l| l.accesses.len() as u64).sum()
    }

    /// Serialises the trace to `sink`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink; fails if a lane's markers are
    /// out of order or positioned beyond the lane's access count (such
    /// positions cannot be represented and would not round-trip).
    pub fn write_to<W: Write>(&self, sink: W) -> Result<W, TraceError> {
        let mut writer = TraceWriter::new(sink, &self.meta)?;
        for &step in &self.setup_events {
            writer.setup_step(step)?;
        }
        for lane in &self.lanes {
            if lane.events.windows(2).any(|pair| pair[0].0 > pair[1].0) {
                return Err(TraceError::Corrupt("lane markers are out of order"));
            }
            if lane
                .events
                .last()
                .is_some_and(|&(pos, ..)| pos > lane.accesses.len() as u64)
            {
                return Err(TraceError::Corrupt(
                    "lane marker position beyond the lane's access count",
                ));
            }
            writer.begin_lane(lane.socket)?;
            let mut markers = lane.events.iter().peekable();
            for (i, access) in lane.accesses.iter().enumerate() {
                // The peek above proves the iterator is non-empty; `while
                // let` re-peeks instead of unwrapping the following `next`.
                while let Some(&&(pos, change, staggered)) = markers.peek() {
                    if pos != i as u64 {
                        break;
                    }
                    writer.phase_change(change, staggered)?;
                    markers.next();
                }
                writer.access(*access)?;
            }
            for &(_, change, staggered) in markers {
                writer.phase_change(change, staggered)?;
            }
        }
        writer.finish()
    }

    /// Deserialises a trace from `source`, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, corrupt or truncated data, an unsupported
    /// version or a checksum mismatch, as a [`TraceError::Decode`] naming
    /// the byte offset where decoding stopped.
    pub fn read_from<R: Read>(source: R) -> Result<Trace, TraceError> {
        let mut reader = TraceReader::new(source)?;
        let mut trace = Trace::empty(reader.meta());
        loop {
            match trace.absorb(reader.next_item()?) {
                Ok(false) => {}
                Ok(true) => return Ok(trace),
                Err(error) => return Err(error.at(reader.source.offset)),
            }
        }
    }

    fn empty(meta: &TraceMeta) -> Trace {
        Trace {
            meta: meta.clone(),
            setup_events: Vec::new(),
            lanes: Vec::new(),
        }
    }

    /// Adds one decoded item to the trace; `true` at its end.
    // Runs once per decoded access: a call here doubles decode time.
    #[inline(always)]
    fn absorb(&mut self, item: TraceItem) -> Result<bool, TraceError> {
        let lane = self.lanes.last_mut();
        match (item, lane) {
            (TraceItem::Setup(step), _) => self.setup_events.push(step),
            (TraceItem::LaneStart { socket }, _) => self.lanes.push(TraceLane::new(socket)),
            (TraceItem::Change { change, staggered }, Some(lane)) => {
                let position = lane.accesses.len() as u64;
                lane.events.push((position, change, staggered));
            }
            (TraceItem::Access(access), Some(lane)) => lane.accesses.push(access),
            (TraceItem::Change { .. } | TraceItem::Access(_), None) => {
                return Err(TraceError::Corrupt("access before first lane"))
            }
            (TraceItem::End, _) => return Ok(true),
        }
        Ok(false)
    }

    /// Serialises to an in-memory buffer.
    ///
    /// # Errors
    ///
    /// Never fails for the `Vec` sink in practice; returns encoding errors.
    pub fn to_bytes(&self) -> Result<Vec<u8>, TraceError> {
        self.write_to(Vec::new())
    }

    /// Deserialises from an in-memory buffer.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Trace::read_from`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        Trace::read_from(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> MachineFingerprint {
        MachineFingerprint {
            machine_scale: 512,
            sockets: 4,
            frames_per_socket: 65_536,
        }
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            workload: "GUPS".into(),
            footprint: 1 << 27,
            seed: 7,
            write_fraction: 0.5,
            compute_cycles_per_access: 5,
            bandwidth_intensity: 0.9,
            machine: machine(),
        }
    }

    #[test]
    fn socket_conversion_is_checked_not_truncating() {
        assert_eq!(checked_socket_u16(0).unwrap(), 0);
        assert_eq!(checked_socket_u16(65_535).unwrap(), 65_535);
        // One past the wire format's range: the old `as u16` cast would
        // have silently wrapped this to socket 0.
        let err = checked_socket_u16(65_536).unwrap_err();
        assert!(
            matches!(err, TraceError::UnencodableSocket(65_536)),
            "{err}"
        );
        assert!(err.to_string().contains("65536"));
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 47, -(1 << 47)] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = Trace {
            meta: meta(),
            setup_events: vec![],
            lanes: vec![],
        };
        let bytes = trace.to_bytes().unwrap();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    fn socket(index: u16) -> SocketId {
        SocketId::new(index)
    }

    fn mask(bits: u64) -> NodeMask {
        NodeMask::from_bits(bits)
    }

    #[test]
    fn events_and_lanes_roundtrip() {
        let trace = Trace {
            meta: meta(),
            setup_events: vec![
                SetupStep::InstallMitosis,
                SetupStep::SetThp(ThpMode::Always),
                SetupStep::PtPlacement(socket(1)),
                SetupStep::CreateProcess(socket(0)),
                SetupStep::BindData(socket(1)),
                SetupStep::Mmap {
                    len: 1 << 27,
                    populate: false,
                    thp: true,
                },
                SetupStep::Populate {
                    len: 1 << 27,
                    init: InitPattern::Parallel,
                    sockets: mask(0b1111),
                },
                SetupStep::Change(PhaseChange::MigratePageTable { target: socket(0) }),
                SetupStep::Change(PhaseChange::SetInterference {
                    sockets: mask(0b10),
                }),
                SetupStep::InterleaveData(mask(0b1111)),
            ],
            lanes: vec![
                TraceLane {
                    socket: 0,
                    accesses: vec![
                        Access {
                            offset: 4096,
                            is_write: false,
                        },
                        Access {
                            offset: 0,
                            is_write: true,
                        },
                    ],
                    events: vec![
                        (1, PhaseChange::MigrateData { target: socket(1) }, false),
                        (
                            1,
                            PhaseChange::SetReplicas {
                                sockets: mask(0b11),
                            },
                            false,
                        ),
                        (2, PhaseChange::SetReplicas { sockets: mask(0) }, false),
                        (
                            2,
                            PhaseChange::AutoNumaRebalance {
                                sockets: mask(0b1111),
                            },
                            false,
                        ),
                        (2, PhaseChange::MigrateData { target: socket(2) }, true),
                        (2, PhaseChange::SetInterference { sockets: mask(0b1) }, true),
                    ],
                },
                TraceLane {
                    socket: 3,
                    accesses: vec![Access {
                        offset: (1 << 27) - 8,
                        is_write: true,
                    }],
                    events: vec![],
                },
            ],
        };
        let bytes = trace.to_bytes().unwrap();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    #[test]
    fn churn_and_fork_events_roundtrip() {
        let region = VirtAddr::new(0x5000_0000_0000);
        let huge = VirtAddr::new(0x5000_0010_0000);
        let trace = Trace {
            meta: meta(),
            setup_events: vec![SetupStep::CreateProcess(socket(0))],
            lanes: vec![TraceLane {
                socket: 0,
                accesses: vec![
                    Access {
                        offset: 0,
                        is_write: false,
                    },
                    Access {
                        offset: 8,
                        is_write: true,
                    },
                ],
                events: vec![
                    (1, PhaseChange::Fork, false),
                    (
                        1,
                        PhaseChange::MmapAt {
                            addr: region,
                            length: 1 << 21,
                        },
                        false,
                    ),
                    (
                        2,
                        PhaseChange::MunmapAt {
                            addr: region,
                            length: 1 << 20,
                        },
                        false,
                    ),
                    (2, PhaseChange::PromoteHuge { addr: huge }, false),
                    (2, PhaseChange::DemoteHuge { addr: huge }, false),
                ],
            }],
        };
        let bytes = trace.to_bytes().unwrap();
        assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
    }

    /// The bytes of a trace with one setup event (`code`, `setup_args`),
    /// then one lane of two accesses with one marker (`code`, `lane_args`)
    /// between them.  `None` leaves the event out.
    fn with_raw_events(setup: Option<(u64, &[u64])>, lane: Option<(u64, &[u64])>) -> Vec<u8> {
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        writer
            .setup_step(SetupStep::CreateProcess(socket(0)))
            .unwrap();
        if let Some((code, args)) = setup {
            writer.event(code, args).unwrap();
        }
        writer.begin_lane(0).unwrap();
        let access = Access {
            offset: 0,
            is_write: false,
        };
        writer.access(access).unwrap();
        if let Some((code, args)) = lane {
            writer.event(code, args).unwrap();
        }
        writer.access(access).unwrap();
        writer.finish().unwrap()
    }

    /// The error decoding `bytes` stopped with, without its position.
    fn decode_error(bytes: &[u8]) -> TraceError {
        match Trace::from_bytes(bytes) {
            Err(TraceError::Decode { error, .. }) => *error,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    fn corrupt(bytes: &[u8]) -> &'static str {
        match decode_error(bytes) {
            TraceError::Corrupt(what) => what,
            other => panic!("expected a corrupt trace, got {other:?}"),
        }
    }

    #[test]
    fn each_code_takes_exactly_its_arguments() {
        use event_code::*;
        // The exact counts decode, as setup events and as markers.
        Trace::from_bytes(&with_raw_events(Some((MMAP, &[1 << 21, 0, 1])), None)).unwrap();
        Trace::from_bytes(&with_raw_events(None, Some((MIGRATE_DATA, &[1, 1])))).unwrap();
        Trace::from_bytes(&with_raw_events(None, Some((MUNMAP_AT, &[1 << 30, 4096])))).unwrap();
        // Too few arguments.
        for (code, args) in [(MMAP, &[1 << 21, 0][..]), (MMAP_AT, &[1 << 30][..])] {
            let setup = with_raw_events(Some((code, args)), None);
            assert_eq!(corrupt(&setup), "event is missing arguments");
        }
        // Too many: a staggered migration recoded as a replica change
        // used to decode as `SetReplicas` and drop the flag.
        let recoded = with_raw_events(None, Some((REPLICATE, &[1, 1])));
        assert_eq!(
            corrupt(&recoded),
            "staggered flag on a change that cannot be staggered"
        );
        for (code, args) in [
            (MIGRATE_DATA, &[1, 0][..]),
            (MIGRATE_DATA, &[1, 1, 1][..]),
            (FORK, &[7][..]),
            (MMAP, &[1 << 21, 0, 1, 0][..]),
        ] {
            let marker = with_raw_events(None, Some((code, args)));
            let setup = with_raw_events(Some((code, args)), None);
            for bytes in [marker, setup] {
                assert!(
                    corrupt(&bytes).contains("extra arguments"),
                    "{code} {args:?}"
                );
            }
        }
    }

    #[test]
    fn the_reader_knows_which_side_of_the_first_lane_it_is_on() {
        use event_code::*;
        let inside = with_raw_events(None, Some((CREATE_PROCESS, &[1])));
        assert_eq!(corrupt(&inside), "setup-only event inside a lane");
        let staggered_setup = with_raw_events(Some((INTERFERENCE, &[0b10, 1])), None);
        assert_eq!(
            corrupt(&staggered_setup),
            "staggered event before the first lane"
        );
        // A setup step with a trailing flag is refused on either side.
        let flagged = with_raw_events(Some((INSTALL_MITOSIS, &[1])), None);
        assert_eq!(corrupt(&flagged), "staggered event before the first lane");
        let flagged = with_raw_events(None, Some((SET_THP, &[1, 1])));
        assert_eq!(corrupt(&flagged), "setup-only event inside a lane");
    }

    #[test]
    fn code_10_the_old_free_form_marker_is_an_unknown_event() {
        let bytes = with_raw_events(None, Some((10, &[42])));
        assert!(matches!(decode_error(&bytes), TraceError::UnknownEvent(10)));
    }

    #[test]
    fn an_address_beyond_48_bits_is_corrupt_not_a_panic() {
        let bytes = with_raw_events(None, Some((event_code::PROMOTE_HUGE, &[1 << 48])));
        assert_eq!(corrupt(&bytes), "virtual address exceeds 48 bits");
    }

    fn lane_of(accesses: usize) -> TraceLane {
        TraceLane {
            socket: 0,
            accesses: (0..accesses)
                .map(|i| Access {
                    offset: (i as u64 % 31) * 8,
                    is_write: i % 3 == 0,
                })
                .collect(),
            events: vec![],
        }
    }

    #[test]
    fn checkpoint_markers_are_transparent_to_decoding() {
        // The writer emits a marker after every 4,096th access of a lane;
        // the reader validates and swallows each, so lanes that carry
        // markers round-trip unchanged.
        let encoded_len = |accesses: usize| {
            let trace = Trace {
                meta: meta(),
                setup_events: vec![],
                lanes: vec![lane_of(accesses)],
            };
            let bytes = trace.to_bytes().unwrap();
            assert_eq!(Trace::from_bytes(&bytes).unwrap(), trace);
            bytes.len()
        };
        // Access 4,096 costs at most two bytes; its marker (tag, argument
        // count, lane count and running hash) at least ten more.
        assert!(encoded_len(4096) > encoded_len(4095) + 10);
        let trace = Trace {
            meta: meta(),
            setup_events: vec![SetupStep::CreateProcess(socket(0))],
            lanes: vec![lane_of(9000), lane_of(9000)],
        };
        assert_eq!(
            Trace::from_bytes(&trace.to_bytes().unwrap()).unwrap(),
            trace
        );
    }

    #[test]
    fn a_checkpoint_marker_takes_exactly_its_two_arguments() {
        // A marker after the first access with the true count and running
        // hash, and `extra` appended.
        let marked = |extra: &[u64]| {
            let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
            writer.begin_lane(0).unwrap();
            let access = Access {
                offset: 0,
                is_write: false,
            };
            writer.access(access).unwrap();
            let mut args = vec![1, writer.sink.hash.0];
            args.extend_from_slice(extra);
            writer.event(event_code::CHECKPOINT, &args).unwrap();
            writer.access(access).unwrap();
            writer.finish().unwrap()
        };
        assert_eq!(Trace::from_bytes(&marked(&[])).unwrap().accesses(), 2);
        assert_eq!(
            corrupt(&marked(&[7])),
            "checkpoint marker must carry exactly two arguments"
        );
    }

    #[test]
    fn an_overlong_varint_is_corrupt_even_under_a_matching_checksum() {
        // Lane tag 0b110 (socket 1) as ten bytes whose tenth is 2: bit 64
        // of the value, which a u64 cannot hold.  The writer hashes the raw
        // bytes, so the trailing checksum matches them.
        let overlong = [0x86, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        let mut writer = TraceWriter::new(Vec::new(), &meta()).unwrap();
        let header_len = writer.sink.inner.len();
        writer.sink.write_all(&overlong).unwrap();
        let bytes = writer.finish().unwrap();
        match Trace::from_bytes(&bytes) {
            Err(TraceError::Decode { offset, error }) => {
                assert!(
                    matches!(*error, TraceError::Corrupt("varint longer than 64 bits")),
                    "{error}"
                );
                assert_eq!(offset, (header_len + overlong.len()) as u64);
            }
            other => panic!("an overlong varint must be corrupt, got {other:?}"),
        }
        // Tenth bytes 0 and 1 are the values that fit.
        for last in [0x00, 0x01] {
            let mut bytes = overlong;
            bytes[9] = last;
            let mut source = HashingReader {
                inner: &bytes[..],
                hash: Fnv64::new(),
                offset: 0,
            };
            assert_eq!(source.varint().unwrap(), 6 | u64::from(last) << 63);
        }
    }

    #[test]
    fn trace_error_source_exposes_the_io_chain() {
        use std::error::Error as _;
        let io = io::Error::new(io::ErrorKind::UnexpectedEof, "short read");
        let err = TraceError::Io(io);
        let source = err.source().expect("Io carries a source");
        assert!(source.to_string().contains("short read"));
        assert!(TraceError::BadMagic.source().is_none());
        // A position adds no link to the chain.
        let located = err.at(12);
        let source = located.source().expect("Decode keeps its error's source");
        assert!(source.to_string().contains("short read"));
        assert!(located.to_string().contains("at byte 12"), "{located}");
        assert!(TraceError::BadMagic.at(4).source().is_none());
    }

    #[test]
    fn corruption_is_detected() {
        let trace = Trace {
            meta: meta(),
            setup_events: vec![SetupStep::CreateProcess(socket(0))],
            lanes: vec![TraceLane {
                socket: 0,
                accesses: vec![Access {
                    offset: 123456,
                    is_write: false,
                }],
                events: vec![],
            }],
        };
        let good = trace.to_bytes().unwrap();
        // Flip one bit in the body (after the 8-byte magic+version prefix,
        // before the 8-byte checksum suffix).
        for position in [8, good.len() / 2, good.len() - 9] {
            let mut bad = good.clone();
            bad[position] ^= 0x40;
            assert!(
                Trace::from_bytes(&bad).is_err(),
                "flip at {position} went undetected"
            );
        }
        // Truncation is detected too.
        assert!(Trace::from_bytes(&good[..good.len() - 4]).is_err());
    }

    #[test]
    fn unrepresentable_marker_positions_are_rejected() {
        let marker = |pos| (pos, PhaseChange::Fork, false);
        let lane = |events: Vec<(u64, PhaseChange, bool)>| TraceLane {
            socket: 0,
            accesses: vec![
                Access {
                    offset: 0,
                    is_write: false,
                },
                Access {
                    offset: 8,
                    is_write: false,
                },
            ],
            events,
        };
        // A marker *at* the end of the lane is fine...
        let ok = Trace {
            meta: meta(),
            setup_events: vec![],
            lanes: vec![lane(vec![marker(2)])],
        };
        let decoded = Trace::from_bytes(&ok.to_bytes().unwrap()).unwrap();
        assert_eq!(decoded, ok);
        // ...but beyond it cannot round-trip, and out-of-order markers
        // would be silently reordered: both must be refused.
        for events in [vec![marker(5)], vec![marker(2), marker(1)]] {
            let bad = Trace {
                meta: meta(),
                setup_events: vec![],
                lanes: vec![lane(events)],
            };
            assert!(matches!(bad.to_bytes(), Err(TraceError::Corrupt(_))));
        }
    }

    #[test]
    fn header_validation_rejects_garbage() {
        let located = |bytes: &[u8]| match Trace::from_bytes(bytes) {
            Err(TraceError::Decode { offset, error }) => (offset, *error),
            other => panic!("expected a decode error, got {other:?}"),
        };
        assert!(matches!(located(b"NOPE"), (4, TraceError::BadMagic)));
        assert!(matches!(located(b"MT"), (2, TraceError::Io(_))));
        let mut future = Trace {
            meta: meta(),
            setup_events: vec![],
            lanes: vec![],
        }
        .to_bytes()
        .unwrap();
        future[4] = 99; // bump version
        assert!(matches!(
            located(&future),
            (8, TraceError::UnsupportedVersion(99))
        ));
        // Older version words are refused too: the reader decodes exactly
        // the current format.
        for version in [0u32, 1, 5] {
            let mut old = future.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    decode_error(&old),
                    TraceError::UnsupportedVersion(v) if v == version
                ),
                "version {version} must be unsupported"
            );
        }
    }

    #[test]
    fn sequential_accesses_encode_compactly() {
        // 64-byte strides: one byte of tag+payload each after the first.
        let accesses: Vec<Access> = (0..1000)
            .map(|i| Access {
                offset: i * 64,
                is_write: false,
            })
            .collect();
        let trace = Trace {
            meta: meta(),
            setup_events: vec![],
            lanes: vec![TraceLane {
                socket: 0,
                accesses,
                events: vec![],
            }],
        };
        let bytes = trace.to_bytes().unwrap();
        let overhead = 64; // header + end marker + checksum, roughly
        assert!(
            bytes.len() < 2 * 1000 + overhead,
            "sequential encoding too large: {} bytes",
            bytes.len()
        );
    }

    #[test]
    fn meta_resolves_the_suite_spec() {
        let spec = suite::gups().with_footprint(1 << 27);
        let params = SimParams::quick_test();
        let m = TraceMeta::for_spec(&spec, &params).unwrap();
        assert_eq!(m.machine, MachineFingerprint::for_params(&params).unwrap());
        assert_eq!(m, meta());
        let resolved = m.resolve_spec().unwrap();
        assert!(m.matches_spec(&resolved));
        assert_eq!(resolved.footprint(), 1 << 27);
        let unknown = TraceMeta {
            workload: "doom".into(),
            ..m
        };
        assert!(unknown.resolve_spec().is_none());
    }
}
