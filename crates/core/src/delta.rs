//! Epoch-delta replication codec: `SUPADELTAv002` / `SUPABASEv0002`.
//!
//! The serving layer publishes one [`crate::ServingSnapshot`] per epoch; the
//! instant-update property means each epoch only *changes* the rows touched
//! by that epoch's events. A [`DeltaFrame`] encodes exactly that touched set
//! — the snapshot's rows per stored table (one base row and one composite
//! row per context table), the raw edge events (so a replica can extend
//! its adjacency and candidate catalogs), the ANN dirty list, and the
//! writer's degradation/guard state — chained to its parent epoch so a
//! replica can detect gaps. A [`BaselineFrame`] carries a full snapshot and
//! (re)seeds a replica at a known epoch.
//!
//! Framing follows the same envelope discipline as the `SUPAv002`
//! checkpoint ([`crate::checkpoint`]), sharing its CRC-32 implementation
//! ([`crate::framing`]):
//!
//! ```text
//! magic (13 bytes) | payload_len (u64 LE) | payload | crc32 (u32 LE)
//! ```
//!
//! with the CRC computed over everything after the magic (length header +
//! payload). Every malformed input maps to a named [`WireError`] — decode
//! and apply never panic, and [`ServingSnapshot::apply_delta`] validates the
//! whole frame before writing a single row, so a failed apply leaves the
//! replica state untouched.
//!
//! The `v001` layouts carried the model's component rows instead (`h_long`,
//! `h_short` when present, then each `ctx` table). They still decode: the
//! decoder sums the rows in `gamma`'s association, `(h_long + h_short) +
//! ctx`, into the stored tables a `v002` frame carries, so a `v001` frame
//! applies to the same bits.

use std::fmt;

use supa_embed::codec::{put_f32s, put_u16, put_u32, put_u32s, put_u64, Reader, Truncated};
use supa_embed::EmbeddingValues;
use supa_graph::{NodeId, RelationId, TemporalEdge};

use crate::framing::{check_crc, crc32, CrcMismatch};
use crate::serving::ServingSnapshot;

/// Magic prefix of a delta frame.
pub const MAGIC_DELTA: &[u8; 13] = b"SUPADELTAv002";
/// Magic prefix of a full-snapshot baseline frame.
pub const MAGIC_BASELINE: &[u8; 13] = b"SUPABASEv0002";
/// Magic prefix of a first-layout delta frame (component rows); decoded,
/// never written.
const MAGIC_DELTA_V1: &[u8; 13] = b"SUPADELTAv001";
/// Magic prefix of a first-layout baseline frame (component tables);
/// decoded, never written.
const MAGIC_BASELINE_V1: &[u8; 13] = b"SUPABASEv0001";

/// What a frame magic announces: the frame kind, and whether its rows are
/// in the first (component) layout.
#[derive(Debug, Clone, Copy)]
struct Magic {
    delta: bool,
    v1: bool,
}

impl Magic {
    fn parse(bytes: &[u8]) -> Option<Magic> {
        let (delta, v1) = match bytes {
            m if m == MAGIC_DELTA => (true, false),
            m if m == MAGIC_BASELINE => (false, false),
            m if m == MAGIC_DELTA_V1 => (true, true),
            m if m == MAGIC_BASELINE_V1 => (false, true),
            _ => return None,
        };
        Some(Magic { delta, v1 })
    }
}

/// Whether `bytes` is a frame magic of either kind and either layout — the
/// resync scan of a segment file looks for these.
pub fn is_frame_magic(bytes: &[u8]) -> bool {
    Magic::parse(bytes).is_some()
}

/// Whether `bytes` is a baseline frame magic of either layout.
pub fn is_baseline_magic(bytes: &[u8]) -> bool {
    Magic::parse(bytes).is_some_and(|m| !m.delta)
}

/// Upper bound on a frame payload (1 GiB). A corrupt length header would
/// otherwise make a reader attempt an absurd allocation before the CRC
/// check can catch the corruption.
pub const MAX_PAYLOAD: u64 = 1 << 30;

/// A named replication wire/apply error. Every way a frame can be malformed
/// or inapplicable maps to one of these — never a panic.
#[derive(Debug)]
pub enum WireError {
    /// The 13-byte magic matched neither known frame kind.
    WrongMagic,
    /// The input ended mid-frame (torn write / truncated segment).
    Truncated,
    /// The CRC-32 footer did not match the received bytes.
    CrcMismatch { expected: u32, got: u32 },
    /// The length header exceeds [`MAX_PAYLOAD`] — treated as corruption
    /// without attempting the allocation.
    ImplausibleLength(u64),
    /// The frame chain skipped an epoch: a delta's parent did not match the
    /// replica's current epoch. Recovery is a checkpoint/baseline resync.
    EpochGap { expected: u64, got: u64 },
    /// The frame's layout (dim, variant flags, table count, row ids) is
    /// inconsistent with itself or with the snapshot it is applied to.
    LayoutMismatch(&'static str),
    /// An underlying transport error.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::WrongMagic => write!(f, "unrecognised frame magic"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::CrcMismatch { expected, got } => {
                write!(
                    f,
                    "frame crc mismatch (expected {expected:#010x}, got {got:#010x})"
                )
            }
            WireError::ImplausibleLength(n) => {
                write!(
                    f,
                    "implausible frame payload length {n} (max {MAX_PAYLOAD})"
                )
            }
            WireError::EpochGap { expected, got } => {
                write!(
                    f,
                    "epoch chain gap: expected parent {expected}, frame has {got}"
                )
            }
            WireError::LayoutMismatch(what) => write!(f, "frame layout mismatch: {what}"),
            WireError::Io(e) => write!(f, "replication i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// The writer's degradation/guard state at an epoch boundary, mirrored to
/// replicas so operators see the same overload picture on every process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuardState {
    /// Degradation ladder level (0 = Full service).
    pub level: u8,
    /// Cumulative events shed by admission control.
    pub events_shed: u64,
    /// Cumulative events quarantined by the stream guard.
    pub events_quarantined: u64,
}

/// Per-epoch delta: everything a replica needs to advance its snapshot,
/// graph, and ANN index from `parent` to `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// Epoch this delta produces.
    pub epoch: u64,
    /// Epoch this delta applies on top of (chain link).
    pub parent: u64,
    /// Embedding dimensionality (layout check).
    pub dim: u32,
    /// Variant flag: no short-term memory table.
    pub no_forget: bool,
    /// Variant flag: one shared context table.
    pub shared_context: bool,
    /// Number of context tables.
    pub n_ctx: u16,
    /// Strictly ascending node ids whose rows changed this epoch.
    pub touched: Vec<u32>,
    /// `touched.len() × dim` replacement rows for the snapshot's base table
    /// (`h_long + h_short`).
    pub base: Vec<f32>,
    /// Replacement rows per composite table (`base + ctx_c`), `n_ctx` blocks.
    pub comp: Vec<Vec<f32>>,
    /// The raw edge events absorbed during this epoch, in arrival order —
    /// replicas extend adjacency and candidate catalogs from these.
    pub events: Vec<TemporalEdge>,
    /// Nodes whose ANN entries must be refreshed, in the writer's refresh
    /// order (ascending, matching the touched set).
    pub ann_dirty: Vec<u32>,
    /// Writer guard/degradation state at publish time.
    pub guard: GuardState,
}

/// Full-snapshot baseline: (re)seeds a replica at `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineFrame {
    /// Epoch the snapshot corresponds to.
    pub epoch: u64,
    /// The complete serving snapshot at that epoch.
    pub snapshot: ServingSnapshot,
    /// Writer guard/degradation state at publish time.
    pub guard: GuardState,
    /// Opaque serialized ANN index state, when the writer chose to carry it.
    /// The codec never interprets these bytes — the serving layer owns the
    /// framing — so a replica without them (or one that fails to decode
    /// them) falls back to rebuilding its indexes from the snapshot. Frames
    /// written before this section existed decode as `None`.
    pub index: Option<Vec<u8>>,
}

/// A decoded replication frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Full snapshot (stream head / resync point).
    Baseline(BaselineFrame),
    /// Incremental epoch delta.
    Delta(DeltaFrame),
}

impl Frame {
    /// The epoch this frame produces when applied.
    pub fn epoch(&self) -> u64 {
        match self {
            Frame::Baseline(b) => b.epoch,
            Frame::Delta(d) => d.epoch,
        }
    }

    /// Encodes the frame with magic, length header and CRC footer.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Frame::Baseline(b) => b.encode(),
            Frame::Delta(d) => d.encode(),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_guard(out: &mut Vec<u8>, g: &GuardState) {
    out.push(g.level);
    put_u64(out, g.events_shed);
    put_u64(out, g.events_quarantined);
}

/// Bytes [`put_guard`] appends.
const GUARD_LEN: usize = 1 + 8 + 8;

/// Bytes one edge event occupies in a delta payload: src, dst (u32),
/// relation (u16), time (f64 bits).
const EVENT_LEN: usize = 4 + 4 + 2 + 8;

/// Builds a frame in one buffer: magic, length header, the payload that
/// `put_payload` appends, then the CRC over (length bytes + payload).
/// `payload_len` sizes the buffer exactly; the header records the length
/// actually written, so the estimate can never corrupt a frame.
fn seal(magic: &[u8; 13], payload_len: usize, put_payload: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + 8 + payload_len + 4);
    out.extend_from_slice(magic);
    put_u64(&mut out, 0);
    put_payload(&mut out);
    let len = out.len() - 21;
    debug_assert_eq!(len, payload_len, "frame payload sized wrong");
    out[13..21].copy_from_slice(&(len as u64).to_le_bytes());
    let crc = crc32(&out[13..]);
    put_u32(&mut out, crc);
    out
}

impl DeltaFrame {
    /// Encodes the delta as a complete `SUPADELTAv002` frame.
    pub fn encode(&self) -> Vec<u8> {
        let floats = self.base.len() + self.comp.iter().map(Vec::len).sum::<usize>();
        // Epoch, parent, dim, two flags, n_ctx, three counts and the guard;
        // then the u32/f32 words and the events.
        let fixed = 8 + 8 + 4 + 1 + 1 + 2 + 3 * 4 + GUARD_LEN;
        let words = self.touched.len() + floats + self.ann_dirty.len();
        let payload_len = fixed + 4 * words + EVENT_LEN * self.events.len();
        seal(MAGIC_DELTA, payload_len, |p| {
            put_u64(p, self.epoch);
            put_u64(p, self.parent);
            put_u32(p, self.dim);
            p.push(self.no_forget as u8);
            p.push(self.shared_context as u8);
            put_u16(p, self.n_ctx);
            put_u32(p, self.touched.len() as u32);
            put_u32s(p, &self.touched);
            put_f32s(p, &self.base);
            for block in &self.comp {
                put_f32s(p, block);
            }
            put_u32(p, self.events.len() as u32);
            for e in &self.events {
                put_u32(p, e.src.0);
                put_u32(p, e.dst.0);
                put_u16(p, e.relation.0);
                put_u64(p, e.time.to_bits());
            }
            put_u32(p, self.ann_dirty.len() as u32);
            put_u32s(p, &self.ann_dirty);
            put_guard(p, &self.guard);
        })
    }
}

impl BaselineFrame {
    /// Encodes the baseline as a complete `SUPABASEv0002` frame.
    pub fn encode(&self) -> Vec<u8> {
        encode_baseline_with_index(
            self.epoch,
            &self.snapshot,
            self.guard,
            self.index.as_deref(),
        )
    }
}

/// Encodes a baseline frame without taking ownership of the snapshot (the
/// publisher serves one baseline per subscriber from a shared copy).
pub fn encode_baseline(epoch: u64, s: &ServingSnapshot, guard: GuardState) -> Vec<u8> {
    encode_baseline_with_index(epoch, s, guard, None)
}

/// [`encode_baseline`] plus an optional trailing opaque index section, so a
/// replica cold-start can adopt the writer's ANN indexes instead of
/// rebuilding them. The section is written only when `index` holds bytes;
/// without it the frame is byte-identical to the pre-index format.
pub fn encode_baseline_with_index(
    epoch: u64,
    s: &ServingSnapshot,
    guard: GuardState,
    index: Option<&[u8]>,
) -> Vec<u8> {
    let index = index.filter(|bytes| !bytes.is_empty());
    let floats: usize = (1 + s.comp.len()) * s.base.data().len();
    // Epoch, dim, two flags, n_ctx, n_nodes and the guard; then the rows
    // and the index section.
    let fixed = 8 + 4 + 1 + 1 + 2 + 8 + GUARD_LEN;
    let payload_len = fixed + 4 * floats + index.map_or(0, |bytes| 8 + bytes.len());
    seal(MAGIC_BASELINE, payload_len, |p| {
        put_u64(p, epoch);
        put_u32(p, s.dim as u32);
        p.push(s.no_forget as u8);
        p.push(s.shared_context as u8);
        put_u16(p, s.comp.len() as u16);
        put_u64(p, s.base.len() as u64);
        put_f32s(p, s.base.data());
        for t in &s.comp {
            put_f32s(p, t.data());
        }
        put_guard(p, &guard);
        if let Some(bytes) = index {
            put_u64(p, bytes.len() as u64);
            p.extend_from_slice(bytes);
        }
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

fn flag(c: &mut Reader<'_>) -> Result<bool, WireError> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(WireError::LayoutMismatch("boolean flag out of range")),
    }
}

fn guard(c: &mut Reader<'_>) -> Result<GuardState, WireError> {
    Ok(GuardState {
        level: c.u8()?,
        events_shed: c.u64()?,
        events_quarantined: c.u64()?,
    })
}

fn done(c: &Reader<'_>) -> Result<(), WireError> {
    if c.is_empty() {
        Ok(())
    } else {
        Err(WireError::LayoutMismatch("trailing bytes after payload"))
    }
}

/// Reads a first-layout row block — `h_long`, the `h_short` presence flag
/// and rows, then `n_ctx` context blocks, each `cells` values — and sums it
/// into the stored layout: `base = h_long + h_short` (`h_long` under
/// `no_forget`) and `comp_c = base + ctx_c`, `gamma`'s association.
fn v1_rows(
    c: &mut Reader<'_>,
    cells: usize,
    no_forget: bool,
    n_ctx: usize,
) -> Result<(Vec<f32>, Vec<Vec<f32>>), WireError> {
    let mut base = c.f32s(cells)?;
    let h_short = if flag(c)? { Some(c.f32s(cells)?) } else { None };
    match (no_forget, h_short) {
        (true, Some(_)) => {
            return Err(WireError::LayoutMismatch("no_forget frame carries h_short"));
        }
        (false, None) => {
            return Err(WireError::LayoutMismatch(
                "full-variant frame lacks h_short",
            ));
        }
        (false, Some(hs)) => {
            for (hl, s) in base.iter_mut().zip(&hs) {
                *hl += s;
            }
        }
        (true, None) => {}
    }
    let mut comp = Vec::with_capacity(n_ctx);
    for _ in 0..n_ctx {
        let mut rows = c.f32s(cells)?;
        // `base + ctx`, in `gamma`'s operand order.
        #[allow(clippy::assign_op_pattern)]
        for (ctx, b) in rows.iter_mut().zip(&base) {
            *ctx = b + *ctx;
        }
        comp.push(rows);
    }
    Ok((base, comp))
}

fn decode_delta_payload(payload: &[u8], v1: bool) -> Result<DeltaFrame, WireError> {
    let mut c = Reader::new(payload);
    let epoch = c.u64()?;
    let parent = c.u64()?;
    let dim = c.u32()?;
    if dim == 0 {
        return Err(WireError::LayoutMismatch("zero embedding dimension"));
    }
    let no_forget = flag(&mut c)?;
    let shared_context = flag(&mut c)?;
    let n_ctx = c.u16()?;
    let n_touched = c.u32()? as usize;
    let touched = c.u32s(n_touched)?;
    if !touched.windows(2).all(|w| w[0] < w[1]) {
        return Err(WireError::LayoutMismatch(
            "touched ids not strictly ascending",
        ));
    }
    let rows = n_touched
        .checked_mul(dim as usize)
        .ok_or(WireError::LayoutMismatch("touched row block overflows"))?;
    let (base, comp) = if v1 {
        v1_rows(&mut c, rows, no_forget, n_ctx as usize)?
    } else {
        let base = c.f32s(rows)?;
        let comp = (0..n_ctx).map(|_| c.f32s(rows)).collect::<Result<_, _>>()?;
        (base, comp)
    };
    let n_events = c.u32()? as usize;
    let mut events = Vec::with_capacity(n_events.min(c.remaining() / EVENT_LEN));
    for _ in 0..n_events {
        let src = NodeId(c.u32()?);
        let dst = NodeId(c.u32()?);
        let relation = RelationId(c.u16()?);
        let time = f64::from_bits(c.u64()?);
        events.push(TemporalEdge::new(src, dst, relation, time));
    }
    let n_dirty = c.u32()? as usize;
    let ann_dirty = c.u32s(n_dirty)?;
    let guard = guard(&mut c)?;
    done(&c)?;
    Ok(DeltaFrame {
        epoch,
        parent,
        dim,
        no_forget,
        shared_context,
        n_ctx,
        touched,
        base,
        comp,
        events,
        ann_dirty,
        guard,
    })
}

fn decode_baseline_payload(payload: &[u8], v1: bool) -> Result<BaselineFrame, WireError> {
    let mut c = Reader::new(payload);
    let epoch = c.u64()?;
    let dim = c.u32()? as usize;
    if dim == 0 {
        return Err(WireError::LayoutMismatch("zero embedding dimension"));
    }
    let no_forget = flag(&mut c)?;
    let shared_context = flag(&mut c)?;
    let n_ctx = c.u16()? as usize;
    let n_nodes = c.u64()? as usize;
    let cells = n_nodes
        .checked_mul(dim)
        .ok_or(WireError::LayoutMismatch("table size overflows"))?;
    let (base, comp) = if v1 {
        v1_rows(&mut c, cells, no_forget, n_ctx)?
    } else {
        let base = c.f32s(cells)?;
        let comp = (0..n_ctx)
            .map(|_| c.f32s(cells))
            .collect::<Result<_, _>>()?;
        (base, comp)
    };
    let table = |rows| EmbeddingValues::from_vec(dim, rows);
    let guard = guard(&mut c)?;
    // Optional trailing index section: pre-index frames end at the guard,
    // newer writers may append `len (u64 LE) | bytes`.
    let index = if c.is_empty() {
        None
    } else {
        Some(c.section()?).filter(|bytes| !bytes.is_empty())
    };
    done(&c)?;
    Ok(BaselineFrame {
        epoch,
        snapshot: ServingSnapshot {
            dim,
            no_forget,
            shared_context,
            base: table(base),
            comp: comp.into_iter().map(table).collect(),
            bypass_gen: 0,
        },
        guard,
        index: index.map(<[u8]>::to_vec),
    })
}

/// Bytes before a frame's payload: the 13-byte magic and the `u64` length.
const HEADER_LEN: usize = 13 + 8;

impl From<CrcMismatch> for WireError {
    fn from(CrcMismatch { expected, got }: CrcMismatch) -> Self {
        WireError::CrcMismatch { expected, got }
    }
}

/// Reads a frame header: the magic, then the payload length, checked for
/// plausibility before anyone allocates for it.
fn header(r: &mut Reader<'_>) -> Result<(Magic, usize), WireError> {
    let magic = Magic::parse(r.take(13)?).ok_or(WireError::WrongMagic)?;
    let len = r.u64()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::ImplausibleLength(len));
    }
    Ok((magic, len as usize))
}

/// Decodes one frame from the front of `buf`, returning the frame and the
/// number of bytes it occupied. Validation order: magic, length plausibility,
/// completeness, CRC, then payload layout — so a torn tail reads as
/// [`WireError::Truncated`] and bit-rot as [`WireError::CrcMismatch`] before
/// any layout interpretation happens.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), WireError> {
    let mut r = Reader::new(buf);
    let (magic, len) = header(&mut r)?;
    let payload = r.take(len)?;
    check_crc(&buf[13..HEADER_LEN + len], r.u32()?)?;
    let frame = if magic.delta {
        Frame::Delta(decode_delta_payload(payload, magic.v1)?)
    } else {
        Frame::Baseline(decode_baseline_payload(payload, magic.v1)?)
    };
    Ok((frame, HEADER_LEN + len + 4))
}

/// Reads one frame from a byte stream (the TCP transport) into one buffer
/// and decodes it as [`decode_frame`] does, returning the frame and its
/// length on the wire. Returns `Ok(None)` on a clean EOF at a frame
/// boundary; an EOF mid-frame is a [`WireError::Truncated`].
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Option<(Frame, usize)>, WireError> {
    let mut buf = vec![0u8; HEADER_LEN];
    let got = fill(r, &mut buf)?;
    if got == 0 {
        return Ok(None);
    }
    // A short header fails here as a slice would: wrong magic or truncated.
    let (_, len) = header(&mut Reader::new(&buf[..got]))?;
    buf.resize(HEADER_LEN + len + 4, 0);
    if fill(r, &mut buf[HEADER_LEN..])? < len + 4 {
        return Err(WireError::Truncated);
    }
    decode_frame(&buf).map(Some)
}

/// Reads into `buf` until it is full or the stream ends, returning the
/// bytes read.
fn fill<R: std::io::Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(got)
}

// ---------------------------------------------------------------------------
// Snapshot extract / apply
// ---------------------------------------------------------------------------

impl ServingSnapshot {
    /// Extracts the delta that carries this snapshot's rows for `touched`
    /// (writer side). `touched` must be strictly ascending and in bounds —
    /// [`crate::Supa::take_touched`] guarantees both.
    pub fn extract_delta(
        &self,
        epoch: u64,
        parent: u64,
        touched: &[u32],
        events: Vec<TemporalEdge>,
        guard: GuardState,
    ) -> DeltaFrame {
        debug_assert!(touched.windows(2).all(|w| w[0] < w[1]));
        let dim = self.dim;
        let gather = |t: &EmbeddingValues| {
            let mut rows = Vec::with_capacity(touched.len() * dim);
            for &id in touched {
                rows.extend_from_slice(t.row(id as usize));
            }
            rows
        };
        DeltaFrame {
            epoch,
            parent,
            dim: dim as u32,
            no_forget: self.no_forget,
            shared_context: self.shared_context,
            n_ctx: self.comp.len() as u16,
            touched: touched.to_vec(),
            base: gather(&self.base),
            comp: self.comp.iter().map(&gather).collect(),
            ann_dirty: touched.to_vec(),
            events,
            guard,
        }
    }

    /// Applies a delta's rows in place (replica side). Validates the entire
    /// frame against this snapshot's layout *before* writing anything, so a
    /// rejected frame leaves the snapshot bit-identical to before the call.
    /// Epoch-chain checking is the caller's job ([`WireError::EpochGap`]) —
    /// this method only cares about shape.
    pub fn apply_delta(&mut self, d: &DeltaFrame) -> Result<(), WireError> {
        if d.dim as usize != self.dim {
            return Err(WireError::LayoutMismatch("dimension differs from snapshot"));
        }
        if d.no_forget != self.no_forget || d.shared_context != self.shared_context {
            return Err(WireError::LayoutMismatch(
                "variant flags differ from snapshot",
            ));
        }
        if d.n_ctx as usize != self.comp.len() || d.comp.len() != self.comp.len() {
            return Err(WireError::LayoutMismatch("context table count differs"));
        }
        if !d.touched.windows(2).all(|w| w[0] < w[1]) {
            return Err(WireError::LayoutMismatch(
                "touched ids not strictly ascending",
            ));
        }
        if let Some(&max) = d.touched.last() {
            if max as usize >= self.num_nodes() {
                return Err(WireError::LayoutMismatch("touched id beyond snapshot rows"));
            }
        }
        let rows = d.touched.len() * self.dim;
        if d.base.len() != rows || d.comp.iter().any(|b| b.len() != rows) {
            return Err(WireError::LayoutMismatch("row block size differs"));
        }
        let dim = self.dim;
        let scatter = |t: &mut EmbeddingValues, rows: &[f32]| {
            for (k, &id) in d.touched.iter().enumerate() {
                t.row_mut(id as usize)
                    .copy_from_slice(&rows[k * dim..(k + 1) * dim]);
            }
        };
        scatter(&mut self.base, &d.base);
        for (t, b) in self.comp.iter_mut().zip(&d.comp) {
            scatter(t, b);
        }
        Ok(())
    }
}

/// The first-layout (`v001`) encoders, kept for tests only: they write
/// what the `v001` writers wrote — the model's component rows — so the
/// compatibility decoder can be driven from any model state.
/// `wire_golden` pins their bytes to the hashes the `v001` writer produced.
#[cfg(test)]
pub(crate) mod v001 {
    use super::*;
    use crate::model::Supa;
    use supa_embed::EmbeddingTable;

    /// `h_long`, `h_short` unless `no_forget`, then each `ctx` table.
    fn tables(m: &Supa) -> (&EmbeddingTable, Option<&EmbeddingTable>, &[EmbeddingTable]) {
        let s = m.state();
        let short = (!m.variant().no_forget).then_some(&s.h_short);
        (&s.h_long, short, &s.ctx)
    }

    /// The `SUPADELTAv001` frame of `m`'s rows `touched`, with
    /// `extract_delta`'s dirty list (the touched set).
    pub(crate) fn encode_delta(
        m: &Supa,
        epoch: u64,
        parent: u64,
        touched: &[u32],
        events: &[TemporalEdge],
        guard: GuardState,
    ) -> Vec<u8> {
        let (h_long, h_short, ctx) = tables(m);
        let dim = m.config().dim;
        let n_tables = 1 + usize::from(h_short.is_some()) + ctx.len();
        let fixed = 8 + 8 + 4 + 1 + 1 + 2 + 3 * 4 + 1 + GUARD_LEN;
        let words = 2 * touched.len() + n_tables * touched.len() * dim;
        let payload_len = fixed + 4 * words + EVENT_LEN * events.len();
        let rows = |p: &mut Vec<u8>, t: &EmbeddingTable| {
            for &id in touched {
                put_f32s(p, t.row(id as usize));
            }
        };
        seal(MAGIC_DELTA_V1, payload_len, |p| {
            put_u64(p, epoch);
            put_u64(p, parent);
            put_u32(p, dim as u32);
            p.push(m.variant().no_forget as u8);
            p.push(m.variant().shared_context as u8);
            put_u16(p, ctx.len() as u16);
            put_u32(p, touched.len() as u32);
            put_u32s(p, touched);
            rows(p, h_long);
            p.push(h_short.is_some() as u8);
            if let Some(t) = h_short {
                rows(p, t);
            }
            for t in ctx {
                rows(p, t);
            }
            put_u32(p, events.len() as u32);
            for e in events {
                put_u32(p, e.src.0);
                put_u32(p, e.dst.0);
                put_u16(p, e.relation.0);
                put_u64(p, e.time.to_bits());
            }
            put_u32(p, touched.len() as u32);
            put_u32s(p, touched);
            put_guard(p, &guard);
        })
    }

    /// The `SUPABASEv0001` frame of `m`'s whole state.
    pub(crate) fn encode_baseline(
        m: &Supa,
        epoch: u64,
        guard: GuardState,
        index: Option<&[u8]>,
    ) -> Vec<u8> {
        let index = index.filter(|bytes| !bytes.is_empty());
        let (h_long, h_short, ctx) = tables(m);
        let n_tables = 1 + usize::from(h_short.is_some()) + ctx.len();
        let fixed = 8 + 4 + 1 + 1 + 2 + 8 + 1 + GUARD_LEN;
        let floats = n_tables * h_long.data().len();
        let payload_len = fixed + 4 * floats + index.map_or(0, |bytes| 8 + bytes.len());
        seal(MAGIC_BASELINE_V1, payload_len, |p| {
            put_u64(p, epoch);
            put_u32(p, m.config().dim as u32);
            p.push(m.variant().no_forget as u8);
            p.push(m.variant().shared_context as u8);
            put_u16(p, ctx.len() as u16);
            put_u64(p, h_long.len() as u64);
            put_f32s(p, h_long.data());
            p.push(h_short.is_some() as u8);
            if let Some(t) = h_short {
                put_f32s(p, t.data());
            }
            for t in ctx {
                put_f32s(p, t.data());
            }
            put_guard(p, &guard);
            if let Some(bytes) = index {
                put_u64(p, bytes.len() as u64);
                p.extend_from_slice(bytes);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupaConfig;
    use crate::model::Supa;
    use crate::variants::SupaVariant;
    use supa_datasets::taobao;

    fn trained_pair() -> (
        ServingSnapshot,
        ServingSnapshot,
        Vec<u32>,
        Vec<TemporalEdge>,
    ) {
        let d = taobao(0.02, 21);
        let mut m = Supa::from_dataset(&d, SupaConfig::small(), 21).unwrap();
        let g = d.full_graph();
        m.resolve_time_scale(&g);
        m.rebuild_negative_samplers(&g);
        m.enable_touch_tracking();
        m.train_pass(&g, &d.edges[..200]);
        m.take_touched();
        let before = m.export_serving_snapshot();
        let events: Vec<TemporalEdge> = d.edges[200..260].to_vec();
        m.train_pass(&g, &events);
        let touched = m.take_touched();
        assert!(!touched.is_empty());
        let after = m.export_serving_snapshot();
        (before, after, touched, events)
    }

    fn assert_snapshots_bit_identical(a: &ServingSnapshot, b: &ServingSnapshot) {
        let bits = |t: &EmbeddingValues| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.no_forget, b.no_forget);
        assert_eq!(bits(&a.base), bits(&b.base));
        assert_eq!(a.comp.len(), b.comp.len());
        for (x, y) in a.comp.iter().zip(&b.comp) {
            assert_eq!(bits(x), bits(y));
        }
    }

    #[test]
    fn extract_apply_reproduces_trained_snapshot_bit_for_bit() {
        let (mut before, after, touched, events) = trained_pair();
        let guard = GuardState {
            level: 2,
            events_shed: 7,
            events_quarantined: 1,
        };
        let delta = after.extract_delta(5, 4, &touched, events, guard);
        before.apply_delta(&delta).unwrap();
        assert_snapshots_bit_identical(&before, &after);
    }

    #[test]
    fn delta_frame_round_trips_through_wire_bytes() {
        let (_, after, touched, events) = trained_pair();
        let delta = after.extract_delta(9, 8, &touched, events, GuardState::default());
        let bytes = delta.encode();
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        match frame {
            Frame::Delta(d) => {
                assert_eq!(d.epoch, 9);
                assert_eq!(d.parent, 8);
                assert_eq!(d, delta);
            }
            other => panic!("expected delta frame, got {other:?}"),
        }
    }

    #[test]
    fn baseline_frame_round_trips_through_wire_bytes() {
        let (_, after, _, _) = trained_pair();
        let b = BaselineFrame {
            epoch: 3,
            snapshot: after.clone(),
            guard: GuardState {
                level: 1,
                events_shed: 2,
                events_quarantined: 3,
            },
            index: None,
        };
        let bytes = b.encode();
        let (frame, consumed) = decode_frame(&bytes).unwrap();
        assert_eq!(consumed, bytes.len());
        match frame {
            Frame::Baseline(got) => {
                assert_eq!(got.epoch, 3);
                assert_eq!(got.guard, b.guard);
                assert_snapshots_bit_identical(&got.snapshot, &after);
            }
            other => panic!("expected baseline frame, got {other:?}"),
        }
    }

    #[test]
    fn no_forget_variant_round_trips_without_short_term_rows() {
        let d = taobao(0.02, 22);
        let mut m =
            Supa::from_dataset_variant(&d, SupaConfig::small(), SupaVariant::nf(), 22).unwrap();
        let g = d.full_graph();
        m.resolve_time_scale(&g);
        m.rebuild_negative_samplers(&g);
        m.enable_touch_tracking();
        m.train_pass(&g, &d.edges[..100]);
        let touched = m.take_touched();
        let snap = m.export_serving_snapshot();
        let delta = snap.extract_delta(1, 0, &touched, Vec::new(), GuardState::default());
        assert_eq!(delta.base.len(), touched.len() * snap.dim());
        let bytes = delta.encode();
        match decode_frame(&bytes).unwrap().0 {
            Frame::Delta(got) => assert_eq!(got, delta),
            other => panic!("expected delta frame, got {other:?}"),
        }
        let bytes = BaselineFrame {
            epoch: 1,
            snapshot: snap.clone(),
            guard: GuardState::default(),
            index: None,
        }
        .encode();
        match decode_frame(&bytes).unwrap().0 {
            Frame::Baseline(got) => assert_snapshots_bit_identical(&got.snapshot, &snap),
            other => panic!("expected baseline frame, got {other:?}"),
        }
    }

    #[test]
    fn baseline_index_section_round_trips_and_is_optional() {
        let (_, after, _, _) = trained_pair();
        // With an index: the opaque bytes come back verbatim.
        let index: Vec<u8> = (0u16..512).map(|x| (x % 251) as u8).collect();
        let b = BaselineFrame {
            epoch: 7,
            snapshot: after.clone(),
            guard: GuardState::default(),
            index: Some(index.clone()),
        };
        let bytes = b.encode();
        match decode_frame(&bytes).unwrap().0 {
            Frame::Baseline(got) => {
                assert_eq!(got.index.as_deref(), Some(index.as_slice()));
                assert_snapshots_bit_identical(&got.snapshot, &after);
            }
            other => panic!("expected baseline frame, got {other:?}"),
        }
        // Pre-index wire format (no trailing section) decodes as None —
        // encode_baseline writes exactly that format.
        let legacy = encode_baseline(7, &after, GuardState::default());
        assert!(legacy.len() < bytes.len());
        match decode_frame(&legacy).unwrap().0 {
            Frame::Baseline(got) => assert!(got.index.is_none()),
            other => panic!("expected baseline frame, got {other:?}"),
        }
        // A torn index section (length claims more than remains) is a named
        // truncation error, never a panic or a silent partial read.
        let with_index =
            encode_baseline_with_index(7, &after, GuardState::default(), Some(index.as_slice()));
        let mut torn = with_index.clone();
        let cut = torn.len() - 4 - 100; // keep CRC position, drop index bytes
        torn.drain(cut..cut + 100);
        // Fix up the length header so the frame parses to payload stage.
        let new_len = (with_index.len() - 13 - 8 - 4 - 100) as u64;
        torn[13..21].copy_from_slice(&new_len.to_le_bytes());
        let n = torn.len();
        let crc = crc32(&torn[13..n - 4]);
        torn[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(decode_frame(&torn), Err(WireError::Truncated)));
    }

    #[test]
    fn wrong_magic_is_a_named_error() {
        let (_, after, touched, _) = trained_pair();
        let mut bytes = after
            .extract_delta(1, 0, &touched, Vec::new(), GuardState::default())
            .encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bytes), Err(WireError::WrongMagic)));
    }

    #[test]
    fn truncation_at_every_prefix_is_a_named_error() {
        let (_, after, touched, events) = trained_pair();
        let bytes = after
            .extract_delta(1, 0, &touched, events, GuardState::default())
            .encode();
        // Every proper prefix must fail with Truncated (or WrongMagic for
        // sub-magic prefixes read as a partial magic) — never a panic.
        for cut in [0, 5, 13, 15, 21, 30, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_frame(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_anywhere_after_magic_are_caught_by_crc() {
        let (_, after, touched, events) = trained_pair();
        let bytes = after
            .extract_delta(1, 0, &touched, events, GuardState::default())
            .encode();
        // Flip a bit in the length header, payload head/middle/tail and the
        // CRC footer itself.
        for pos in [
            13,
            21,
            25,
            bytes.len() / 2,
            bytes.len() - 5,
            bytes.len() - 1,
        ] {
            let mut b = bytes.clone();
            b[pos] ^= 0x10;
            let err = decode_frame(&b).unwrap_err();
            assert!(
                matches!(
                    err,
                    WireError::CrcMismatch { .. }
                        | WireError::Truncated
                        | WireError::ImplausibleLength(_)
                ),
                "flip at {pos} gave {err:?}"
            );
        }
    }

    #[test]
    fn implausible_length_is_rejected_before_allocation() {
        let (_, after, touched, _) = trained_pair();
        let mut bytes = after
            .extract_delta(1, 0, &touched, Vec::new(), GuardState::default())
            .encode();
        bytes[13..21].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::ImplausibleLength(u64::MAX))
        ));
    }

    #[test]
    fn failed_apply_leaves_snapshot_untouched() {
        let (before, after, touched, events) = trained_pair();
        let mut replica = before.clone();
        let mut delta = after.extract_delta(2, 1, &touched, events, GuardState::default());
        // Sabotage layout: wrong dimension must be rejected up front.
        delta.dim += 1;
        assert!(matches!(
            replica.apply_delta(&delta),
            Err(WireError::LayoutMismatch(_))
        ));
        assert_snapshots_bit_identical(&replica, &before);
        // Out-of-bounds row id likewise.
        delta.dim -= 1;
        let n = replica.num_nodes() as u32;
        delta.touched.push(n + 10);
        assert!(matches!(
            replica.apply_delta(&delta),
            Err(WireError::LayoutMismatch(_))
        ));
        assert_snapshots_bit_identical(&replica, &before);
    }

    #[test]
    fn read_frame_streams_frames_and_reports_clean_eof() {
        let (_, after, touched, events) = trained_pair();
        let b = BaselineFrame {
            epoch: 1,
            snapshot: after.clone(),
            guard: GuardState::default(),
            index: None,
        };
        let d = after.extract_delta(2, 1, &touched, events, GuardState::default());
        let mut stream = b.encode();
        stream.extend_from_slice(&d.encode());
        let mut r = &stream[..];
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            Some((Frame::Baseline(_), _))
        ));
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            Some((Frame::Delta(_), _))
        ));
        assert!(read_frame(&mut r).unwrap().is_none());
        // Torn tail: EOF mid-frame is Truncated, not a clean end.
        let torn = &stream[..stream.len() - 3];
        let mut r = torn;
        assert!(matches!(
            read_frame(&mut r).unwrap(),
            Some((Frame::Baseline(_), _))
        ));
        assert!(matches!(read_frame(&mut r), Err(WireError::Truncated)));
    }

    /// The stream reader and the slice decoder agree frame for frame, and
    /// both report each frame's length as written — for a `v001` frame too,
    /// which decodes into the `v002` layout and so re-encodes to other bytes.
    #[test]
    fn read_frame_yields_what_decode_frame_yields() {
        let (before, after, touched, events) = trained_pair();
        let mut stream = encode_baseline(1, &before, GuardState::default());
        for (epoch, cut) in [(2u64, 10usize), (3, 35), (4, 60)] {
            let delta = after.extract_delta(
                epoch,
                epoch - 1,
                &touched[..cut.min(touched.len())],
                events[..cut].to_vec(),
                GuardState::default(),
            );
            stream.extend_from_slice(&delta.encode());
        }
        let v001 = include_bytes!("../../../tests/data/golden_delta_v001.bin");
        stream.extend_from_slice(v001);

        let (mut sliced, mut pos) = (Vec::new(), 0);
        while pos < stream.len() {
            let (frame, used) = decode_frame(&stream[pos..]).unwrap();
            sliced.push((frame, used));
            pos += used;
        }
        let mut streamed = Vec::new();
        let mut r = &stream[..];
        while let Some(next) = read_frame(&mut r).unwrap() {
            streamed.push(next);
        }
        assert_eq!(sliced.len(), 5);
        assert_eq!(streamed, sliced);
        let last = &streamed[4];
        assert_eq!(last.1, v001.len());
        assert_ne!(last.0.encode().len(), v001.len());
    }
}
