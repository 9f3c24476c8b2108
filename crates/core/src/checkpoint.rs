//! Crash-safe binary checkpointing of the SUPA learnable state.
//!
//! An online recommender must survive restarts without retraining; SUPA's
//! whole model *is* its embedding state, so a checkpoint is the three table
//! families plus the α scalars (with Adam moments, so training resumes
//! bit-exactly). The graph itself is not checkpointed (platforms already
//! persist their event logs).
//!
//! # Format (v2 / v3)
//!
//! Little-endian throughout:
//!
//! ```text
//! magic            8 bytes  b"SUPAv002" | b"SUPAv003"
//! events_consumed  u64      stream position the state corresponds to
//! payload_len      u64      byte length of the payload that follows
//! payload          ...      h_long, h_short, ctx count + tables, α count + αs
//! index_len        u64      (v3 only) byte length of the index section
//! index            ...      (v3 only) opaque serving-index bytes
//! crc32            u32      IEEE CRC-32 over everything after the magic
//!                           (header fields + payload + index section)
//! ```
//!
//! The v3 index section carries the serving layer's ANN index state as
//! *opaque bytes* — this crate does not depend on `supa-ann`; the serving
//! engine serializes/deserializes the section itself, and its own
//! per-index fingerprints catch corruption inside it independently of the
//! whole-file CRC. A v2 (or index-less v3) checkpoint simply yields no
//! index bytes, and the engine rebuilds — a named fallback, never silent
//! corruption.
//!
//! The CRC footer turns silent bit-rot and torn writes into clean load
//! errors. v1 checkpoints (`SUPAv001`, no header fields, no CRC) are still
//! readable. Loading stages every read into locals and only touches the
//! model after the whole blob has validated, so a failed load provably
//! leaves the model unchanged.
//!
//! [`CheckpointManager`] layers crash-safety on top: checkpoints are
//! written to a temp file, fsynced, then atomically renamed into place, and
//! [`CheckpointManager::resume`] walks existing checkpoints newest-first,
//! skipping truncated or corrupt ones with a reported reason.

use std::fs;
use std::io::{Error, ErrorKind, Result, Write};
use std::path::{Path, PathBuf};

use supa_embed::codec::{put_f64, put_u32, put_u64, Reader};
use supa_embed::EmbeddingTable;

use crate::framing::{check_crc, crc32_finish, crc32_update, CRC_INIT};
use crate::model::{AdamScalar, Supa, SupaState};

const MAGIC_V1: &[u8; 8] = b"SUPAv001";
const MAGIC_V2: &[u8; 8] = b"SUPAv002";
const MAGIC_V3: &[u8; 8] = b"SUPAv003";

/// Metadata recovered from a checkpoint header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Number of stream events the checkpointed state had consumed (0 for
    /// v1 checkpoints, which predate the field).
    pub events_consumed: u64,
    /// Format version (1, 2 or 3).
    pub version: u8,
}

/// Bytes [`write_state_body`] appends for `st`.
fn state_body_len(st: &SupaState) -> usize {
    let tables: usize = [&st.h_long, &st.h_short]
        .into_iter()
        .chain(&st.ctx)
        .map(EmbeddingTable::encoded_len)
        .sum();
    tables + 8 + 8 + st.alpha.len() * AdamScalar::ENCODED_LEN
}

/// Writes the state body (h_long, h_short, the ctx count and tables, the
/// α count and αs) to `w`, one table at a time through a buffer the size
/// of the largest table, never the whole body at once. The v2/v3 header
/// declares the body's length ([`state_body_len`]) before the body, so a
/// body of any other length is an error, and the checkpoint is left
/// without its CRC footer.
fn write_state_body<W: Write>(st: &SupaState, w: &mut W) -> Result<()> {
    let mut buf = Vec::new();
    let mut written = 0;
    let mut flush = |buf: &mut Vec<u8>| {
        written += buf.len();
        let out = w.write_all(buf);
        buf.clear();
        out
    };
    st.h_long.encode_into(&mut buf);
    flush(&mut buf)?;
    st.h_short.encode_into(&mut buf);
    flush(&mut buf)?;
    put_u64(&mut buf, st.ctx.len() as u64);
    for t in &st.ctx {
        t.encode_into(&mut buf);
        flush(&mut buf)?;
    }
    put_u64(&mut buf, st.alpha.len() as u64);
    for a in &st.alpha {
        a.encode_into(&mut buf);
    }
    flush(&mut buf)?;
    if written != state_body_len(st) {
        return Err(Error::other(
            "checkpoint body length differs from its header",
        ));
    }
    Ok(())
}

/// Forwards writes to `inner`, folding every byte written into a running
/// CRC-32.
struct CrcWriter<'a, W> {
    inner: &'a mut W,
    crc: u32,
}

impl<W: Write> Write for CrcWriter<'_, W> {
    fn write(&mut self, data: &[u8]) -> Result<usize> {
        let n = self.inner.write(data)?;
        self.crc = crc32_update(self.crc, &data[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> Result<()> {
        self.inner.flush()
    }
}

fn read_state_body(r: &mut Reader<'_>) -> Result<SupaState> {
    let h_long = EmbeddingTable::decode(r)?;
    let h_short = EmbeddingTable::decode(r)?;
    let n_ctx = r.u64()?;
    // An absurd table count means a corrupt length field; bail before
    // looping on it.
    if n_ctx > u16::MAX as u64 {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "corrupt checkpoint: implausible context table count",
        ));
    }
    let ctx = (0..n_ctx)
        .map(|_| EmbeddingTable::decode(r))
        .collect::<Result<_>>()?;
    let n_alpha = r.u64()?;
    if n_alpha > u16::MAX as u64 {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "corrupt checkpoint: implausible α count",
        ));
    }
    let alpha = (0..n_alpha)
        .map(|_| AdamScalar::decode(r))
        .collect::<Result<_>>()?;
    Ok(SupaState {
        h_long,
        h_short,
        ctx,
        alpha,
    })
}

impl Supa {
    /// Checks that a deserialised state structurally matches this model
    /// (same relation count, α count and dimension).
    fn validate_state_layout(&self, st: &SupaState) -> Result<()> {
        if st.ctx.len() != self.state().ctx.len() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "checkpoint has a different relation/context layout",
            ));
        }
        if st.alpha.len() != self.state().alpha.len() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "checkpoint has a different α layout",
            ));
        }
        if st.h_long.dim() != self.config().dim || st.h_short.dim() != self.config().dim {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "checkpoint dimension differs from the model's",
            ));
        }
        Ok(())
    }

    /// Writes the learnable state (Eq. 5/6 memories, context embeddings,
    /// α drift scalars, all optimiser moments) to `w`, recording the stream
    /// position (`events_consumed`) the state corresponds to, so a restart
    /// can skip already-trained events. The format is v2, or v3 when
    /// `index` is given: an opaque serving-index section (the serving
    /// engine's serialized ANN indexes) under the same CRC, which
    /// [`Supa::load_checkpoint`] hands back so a resume can skip the index
    /// rebuild.
    ///
    /// The state body streams out one table at a time (see
    /// `write_state_body`) and the CRC is folded in as the bytes go, so a
    /// save holds no copy of the whole state: at Taobao 1.0 that copy is
    /// 29.4 MB, enough to set the peak memory of a serving process that
    /// checkpoints.
    pub fn save_checkpoint<W: Write>(
        &self,
        w: &mut W,
        events_consumed: u64,
        index: Option<&[u8]>,
    ) -> Result<()> {
        let st = self.state();
        w.write_all(if index.is_some() { MAGIC_V3 } else { MAGIC_V2 })?;
        let mut body = CrcWriter {
            inner: w,
            crc: CRC_INIT,
        };
        body.write_all(&events_consumed.to_le_bytes())?;
        body.write_all(&(state_body_len(st) as u64).to_le_bytes())?;
        write_state_body(st, &mut body)?;
        if let Some(index) = index {
            body.write_all(&(index.len() as u64).to_le_bytes())?;
            body.write_all(index)?;
        }
        let crc = crc32_finish(body.crc);
        w.write_all(&crc.to_le_bytes())
    }

    /// Restores a checkpoint of any format version from its bytes,
    /// returning the header metadata (stream position, format version) and
    /// the v3 opaque index section. The section is `None` for v1/v2
    /// checkpoints and for v3 checkpoints saved without an index — the
    /// caller's rebuild fallback, reported by version, never silently wrong
    /// (the whole file is CRC'd).
    ///
    /// The checkpoint must pass its CRC (v2/v3) and structurally match
    /// this model (same relation count, α count and dimension); any
    /// failure is an error and leaves the model unchanged.
    pub fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(CheckpointMeta, Option<Vec<u8>>)> {
        let truncated = |_| Error::new(ErrorKind::UnexpectedEof, "truncated checkpoint");
        let mut r = Reader::new(bytes);
        let version = match r.take(8).map_err(truncated)? {
            m if m == MAGIC_V1 => 1,
            m if m == MAGIC_V2 => 2,
            m if m == MAGIC_V3 => 3,
            _ => return Err(Error::new(ErrorKind::InvalidData, "not a SUPA checkpoint")),
        };
        // A v1 checkpoint is a bare body running to the end of the file: no
        // stream position, no CRC, and bytes after the body are ignored.
        let (events_consumed, mut body, index) = match version {
            1 => (0, r, None),
            _ => {
                let events_consumed = r.u64().map_err(truncated)?;
                let body = r.section().map_err(truncated)?;
                let index = match version {
                    3 => Some(r.section().map_err(truncated)?),
                    _ => None,
                };
                let covered = &bytes[8..bytes.len() - r.remaining()];
                check_crc(covered, r.u32().map_err(truncated)?).map_err(|e| {
                    Error::new(ErrorKind::InvalidData, format!("corrupt checkpoint: {e}"))
                })?;
                (events_consumed, Reader::new(body), index)
            }
        };
        let staged = read_state_body(&mut body)?;
        if version > 1 && !body.is_empty() {
            return Err(Error::new(
                ErrorKind::InvalidData,
                "corrupt checkpoint: trailing bytes after state",
            ));
        }
        self.validate_state_layout(&staged)?;
        self.restore(staged);
        let meta = CheckpointMeta {
            events_consumed,
            version,
        };
        let index = index.filter(|bytes| !bytes.is_empty());
        Ok((meta, index.map(<[u8]>::to_vec)))
    }
}

impl AdamScalar {
    /// Bytes [`AdamScalar::encode_into`] appends.
    const ENCODED_LEN: usize = 3 * 8 + 4;

    /// Binary form: value, m, v as f64 LE, then t as u32 LE.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let (value, m, v, t) = self.raw_parts();
        for x in [value, m, v] {
            put_f64(out, x);
        }
        put_u32(out, t);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(AdamScalar::from_raw_parts(
            r.f64()?,
            r.f64()?,
            r.f64()?,
            r.u32()?,
        ))
    }
}

/// What [`CheckpointManager::resume`] found on disk.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The checkpoint that loaded, with its stream position — `None` if no
    /// valid checkpoint existed.
    pub loaded: Option<(PathBuf, u64)>,
    /// The loaded checkpoint's opaque index section (`None` when it is
    /// v1/v2 or carries no index — the caller rebuilds).
    pub index: Option<Vec<u8>>,
    /// Checkpoints that were skipped, newest-first, with the reason each
    /// failed to load.
    pub skipped: Vec<(PathBuf, String)>,
}

/// Rotating on-disk checkpoint store with atomic writes.
///
/// Each save goes to `ckpt-<seq>.supa` via write-temp + fsync + rename, so
/// a crash mid-write can never clobber an existing good checkpoint — at
/// worst it leaves a stale `.tmp` file, which is ignored (and cleaned up on
/// the next save). The newest `keep` checkpoints are retained.
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

const CKPT_PREFIX: &str = "ckpt-";
const CKPT_SUFFIX: &str = ".supa";

fn parse_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let digits = name.strip_prefix(CKPT_PREFIX)?.strip_suffix(CKPT_SUFFIX)?;
    digits.parse().ok()
}

impl CheckpointManager {
    /// Opens (creating if needed) a checkpoint directory, keeping the
    /// newest `keep` checkpoints. `keep` is clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_seq = Self::scan(&dir)?
            .last()
            .map(|&(seq, _)| seq + 1)
            .unwrap_or(0);
        Ok(CheckpointManager {
            dir,
            keep: keep.max(1),
            next_seq,
        })
    }

    /// The directory checkpoints live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Existing checkpoints, oldest-first, as `(sequence, path)`.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>> {
        Self::scan(&self.dir)
    }

    fn scan(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
        let mut found = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if let Some(seq) = parse_seq(&path) {
                found.push((seq, path));
            }
        }
        found.sort_unstable_by_key(|&(seq, _)| seq);
        Ok(found)
    }

    /// Atomically writes a new checkpoint of `model` at stream position
    /// `events_consumed`, then prunes beyond the retention limit. Returns
    /// the final path.
    pub fn save(&mut self, model: &Supa, events_consumed: u64) -> Result<PathBuf> {
        self.save_inner(model, events_consumed, None)
    }

    /// Like [`CheckpointManager::save`], writing the v3 format with the
    /// given opaque serving-index section (the serving engine's serialized
    /// ANN indexes), so a resume can skip the index rebuild.
    pub fn save_with_index(
        &mut self,
        model: &Supa,
        events_consumed: u64,
        index: &[u8],
    ) -> Result<PathBuf> {
        self.save_inner(model, events_consumed, Some(index))
    }

    fn save_inner(
        &mut self,
        model: &Supa,
        events_consumed: u64,
        index: Option<&[u8]>,
    ) -> Result<PathBuf> {
        let seq = self.next_seq;
        let final_path = self
            .dir
            .join(format!("{CKPT_PREFIX}{seq:010}{CKPT_SUFFIX}"));
        let tmp_path = self.dir.join(format!(".tmp-{seq:010}"));
        {
            let mut f = fs::File::create(&tmp_path)?;
            let mut w = std::io::BufWriter::new(&mut f);
            model.save_checkpoint(&mut w, events_consumed, index)?;
            w.flush()?;
            drop(w);
            // Durability point: the bytes must be on disk *before* the
            // rename publishes the file, or a crash could publish garbage.
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        #[cfg(unix)]
        {
            // Persist the rename itself (directory entry).
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
        }
        self.next_seq = seq + 1;
        self.prune()?;
        Ok(final_path)
    }

    fn prune(&self) -> Result<()> {
        let found = Self::scan(&self.dir)?;
        if found.len() > self.keep {
            for (_, path) in &found[..found.len() - self.keep] {
                let _ = fs::remove_file(path);
            }
        }
        // Stale temp files from interrupted saves are dead weight.
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let is_tmp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-"));
            if is_tmp {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(())
    }

    /// Loads the newest valid checkpoint into `model`, skipping (and
    /// reporting) any that are truncated, corrupt, or structurally
    /// incompatible, and hands back its index section. The model is
    /// untouched unless a checkpoint loads.
    pub fn resume(&self, model: &mut Supa) -> Result<ResumeOutcome> {
        let mut outcome = ResumeOutcome {
            loaded: None,
            index: None,
            skipped: Vec::new(),
        };
        for (_, path) in Self::scan(&self.dir)?.into_iter().rev() {
            match fs::read(&path).and_then(|bytes| model.load_checkpoint(&bytes)) {
                Ok((meta, index)) => {
                    outcome.loaded = Some((path, meta.events_consumed));
                    outcome.index = index;
                    break;
                }
                Err(e) => outcome.skipped.push((path, e.to_string())),
            }
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SupaConfig;
    use supa_datasets::taobao;
    use supa_graph::{NodeId, RelationId};

    fn trained_model() -> (Supa, supa_datasets::Dataset) {
        let d = taobao(0.02, 31);
        let g = d.full_graph();
        let mut m = Supa::from_dataset(
            &d,
            SupaConfig {
                dim: 12,
                ..SupaConfig::small()
            },
            31,
        )
        .unwrap();
        m.resolve_time_scale(&g);
        m.rebuild_negative_samplers(&g);
        m.train_pass(&g, &d.edges[..400]);
        (m, d)
    }

    fn fresh_model(d: &supa_datasets::Dataset, seed: u64) -> Supa {
        Supa::from_dataset(
            d,
            SupaConfig {
                dim: 12,
                ..SupaConfig::small()
            },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn checkpoint_roundtrip_is_exact() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 0, None).unwrap();

        // A fresh model with the same layout but different seed.
        let mut m2 = fresh_model(&d, 999);
        let probe = (NodeId(3), NodeId(200), RelationId(1));
        assert_ne!(
            m.gamma(probe.0, probe.1, probe.2),
            m2.gamma(probe.0, probe.1, probe.2)
        );
        m2.load_checkpoint(&blob).unwrap();
        assert_eq!(
            m.gamma(probe.0, probe.1, probe.2),
            m2.gamma(probe.0, probe.1, probe.2)
        );
        assert_eq!(m.state().alpha, m2.state().alpha);
    }

    #[test]
    fn resumed_training_is_bit_identical() {
        let (m, d) = trained_model();
        let g = d.full_graph();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 0, None).unwrap();

        // Continue training the original…
        let mut a = m;
        let mut b = fresh_model(&d, 31);
        // …and a restored copy. The RNG streams differ, so compare through a
        // deterministic path: the loss of a fixed event sample must match
        // before any further randomness is drawn.
        b.resolve_time_scale(&g);
        b.rebuild_negative_samplers(&g);
        b.load_checkpoint(&blob).unwrap();
        let e = d.edges[500];
        // Both models score identically now.
        assert_eq!(
            a.gamma(e.src, e.dst, e.relation),
            b.gamma(e.src, e.dst, e.relation)
        );
        // And a zero-randomness state mutation (direct Adam row step) stays
        // in lockstep, proving the optimiser moments travelled too.
        let grad = vec![0.1f32; 12];
        a.state_mut_for_tests().h_long.adam_step_row(7, &grad, 0.01);
        b.state_mut_for_tests().h_long.adam_step_row(7, &grad, 0.01);
        assert_eq!(a.state().h_long.row(7), b.state().h_long.row(7));
    }

    #[test]
    fn garbage_and_mismatches_are_rejected() {
        let (mut m, d) = trained_model();
        assert!(m.load_checkpoint(b"not a checkpoint").is_err());

        // A checkpoint from a model with a different dimension.
        let other = Supa::from_dataset(&d, SupaConfig::small(), 1).unwrap(); // dim 32
        let mut blob = Vec::new();
        other.save_checkpoint(&mut blob, 0, None).unwrap();
        assert!(m.load_checkpoint(&blob).is_err());
    }

    #[test]
    fn header_carries_stream_position() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 12345, None).unwrap();
        let mut m2 = fresh_model(&d, 7);
        let meta = m2.load_checkpoint(&blob).unwrap().0;
        assert_eq!(meta.events_consumed, 12345);
        assert_eq!(meta.version, 2);
    }

    #[test]
    fn every_flipped_byte_region_is_detected_and_model_unchanged() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 777, None).unwrap();

        let mut m2 = fresh_model(&d, 55);
        let before = m2.snapshot();
        // Flip one byte in the header, middle of the payload, and the CRC.
        for &pos in &[10usize, blob.len() / 2, blob.len() - 2] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            let err = m2.load_checkpoint(&bad).unwrap_err();
            assert!(
                err.to_string().contains("CRC")
                    || err.kind() == ErrorKind::UnexpectedEof
                    || err.kind() == ErrorKind::InvalidData,
                "unexpected error: {err}"
            );
        }
        // Provably untouched after all the failed loads.
        assert_eq!(m2.state().h_long.data(), before.h_long.data());
        assert_eq!(m2.state().alpha, before.alpha);
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 0, None).unwrap();
        let mut m2 = fresh_model(&d, 55);
        for cut in [blob.len() - 1, blob.len() / 2, 9, 20] {
            let mut bad = blob.clone();
            bad.truncate(cut);
            assert!(m2.load_checkpoint(&bad).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn v3_roundtrip_carries_the_index_section() {
        let (m, d) = trained_model();
        let index: Vec<u8> = (0..1000u32).flat_map(|x| x.to_le_bytes()).collect();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 4242, Some(&index)).unwrap();

        let mut m2 = fresh_model(&d, 9);
        let (meta, got) = m2.load_checkpoint(&blob).unwrap();
        assert_eq!(meta.version, 3);
        assert_eq!(meta.events_consumed, 4242);
        assert_eq!(got.as_deref(), Some(index.as_slice()));
        assert_eq!(m.state().h_long.data(), m2.state().h_long.data());

        // The plain meta loader accepts v3 too (drops the index).
        let mut m3 = fresh_model(&d, 10);
        let meta = m3.load_checkpoint(&blob).unwrap().0;
        assert_eq!(meta.version, 3);

        // An empty index section reads back as None (rebuild fallback).
        let mut empty = Vec::new();
        m.save_checkpoint(&mut empty, 1, Some(&[])).unwrap();
        let (_, got) = m2.load_checkpoint(&empty).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn v2_checkpoints_yield_no_index_bytes() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 77, None).unwrap();
        let mut m2 = fresh_model(&d, 9);
        let (meta, idx) = m2.load_checkpoint(&blob).unwrap();
        assert_eq!(meta.version, 2);
        assert!(
            idx.is_none(),
            "v2 must fall back to rebuild, not invent bytes"
        );
    }

    #[test]
    fn v3_index_corruption_fails_the_crc_and_leaves_the_model_unchanged() {
        let (m, d) = trained_model();
        let index = vec![0xABu8; 512];
        let mut blob = Vec::new();
        m.save_checkpoint(&mut blob, 5, Some(&index)).unwrap();
        let mut m2 = fresh_model(&d, 9);
        let before = m2.snapshot();
        // Flip a byte inside the index section (it sits just before the CRC).
        let mut bad = blob.clone();
        let pos = blob.len() - 100;
        bad[pos] ^= 0x10;
        let err = m2.load_checkpoint(&bad).unwrap_err();
        assert!(err.to_string().contains("CRC"), "{err}");
        // Truncating the index mid-section is a clean EOF error.
        let mut cut = blob.clone();
        cut.truncate(blob.len() - 50);
        assert!(m2.load_checkpoint(&cut).is_err());
        assert_eq!(m2.state().h_long.data(), before.h_long.data());
    }

    #[test]
    fn manager_save_with_index_resumes_with_the_bytes() {
        let dir = tempdir("with-index");
        let (m, d) = trained_model();
        let mut mgr = CheckpointManager::new(&dir, 3).unwrap();
        // Mixed history: a v2 save, then a v3 save with index bytes.
        mgr.save(&m, 100).unwrap();
        let index = b"opaque serving index bytes".to_vec();
        mgr.save_with_index(&m, 200, &index).unwrap();

        let mut m2 = fresh_model(&d, 5);
        let out = mgr.resume(&mut m2).unwrap();
        assert_eq!(out.loaded.as_ref().unwrap().1, 200);
        assert_eq!(out.index.as_deref(), Some(index.as_slice()));

        // Corrupt the newest: resume falls back to the v2 save, no index.
        let newest = mgr.list().unwrap().last().unwrap().1.clone();
        let blob = fs::read(&newest).unwrap();
        fs::write(&newest, &blob[..blob.len() - 8]).unwrap();
        let mut m3 = fresh_model(&d, 5);
        let out = mgr.resume(&mut m3).unwrap();
        assert_eq!(out.loaded.as_ref().unwrap().1, 100);
        assert!(out.index.is_none());
        assert_eq!(out.skipped.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_v1_checkpoints_still_load() {
        let (m, d) = trained_model();
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC_V1);
        write_state_body(m.state(), &mut blob).unwrap();
        let mut m2 = fresh_model(&d, 999);
        let meta = m2.load_checkpoint(&blob).unwrap().0;
        assert_eq!(meta.version, 1);
        assert_eq!(meta.events_consumed, 0);
        assert_eq!(m.state().h_long.data(), m2.state().h_long.data());
    }

    /// `blob` with `h_long`'s row count, the first field of the state body
    /// at `body`, replaced by 2^58 — the count one flipped high bit makes.
    fn with_huge_row_count(mut blob: Vec<u8>, body: usize) -> Vec<u8> {
        blob[body..body + 8].copy_from_slice(&(1u64 << 58).to_le_bytes());
        blob
    }

    #[test]
    fn a_huge_table_row_count_is_invalid_data_not_a_panic() {
        let (m, d) = trained_model();
        let mut m2 = fresh_model(&d, 5);
        let before = m2.snapshot();
        // v1 has no CRC: the count reaches the table decoder as written.
        let mut v1 = MAGIC_V1.to_vec();
        write_state_body(m.state(), &mut v1).unwrap();
        let v1 = with_huge_row_count(v1, 8);
        let err = m2.load_checkpoint(&v1).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        // v2 with the CRC recomputed, so the count gets past the checksum.
        let mut v2 = Vec::new();
        m.save_checkpoint(&mut v2, 9, None).unwrap();
        let mut v2 = with_huge_row_count(v2, 24);
        let n = v2.len();
        let crc = crate::framing::crc32(&v2[8..n - 4]);
        v2[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = m2.load_checkpoint(&v2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        assert_eq!(m2.state().h_long.data(), before.h_long.data());
    }

    #[test]
    fn resume_skips_a_checkpoint_with_a_huge_row_count() {
        let dir = tempdir("huge-count");
        let (m, d) = trained_model();
        let mut mgr = CheckpointManager::new(&dir, 3).unwrap();
        mgr.save(&m, 100).unwrap();
        let mut v1 = MAGIC_V1.to_vec();
        write_state_body(m.state(), &mut v1).unwrap();
        let newer = dir.join("ckpt-0000000001.supa");
        fs::write(&newer, with_huge_row_count(v1, 8)).unwrap();

        let mut m2 = fresh_model(&d, 5);
        let out = mgr.resume(&mut m2).unwrap();
        assert_eq!(out.loaded.expect("the older checkpoint loads").1, 100);
        assert_eq!(out.skipped.len(), 1);
        assert_eq!(out.skipped[0].0, newer);
        assert!(!out.skipped[0].1.is_empty());
        assert_eq!(m2.state().h_long.data(), m.state().h_long.data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manager_rotates_and_resumes_newest() {
        let dir = tempdir("rotate");
        let (mut m, d) = trained_model();
        let mut mgr = CheckpointManager::new(&dir, 2).unwrap();
        mgr.save(&m, 100).unwrap();
        // Change the state between saves so the checkpoints differ.
        m.state_mut_for_tests().h_long.row_mut(0)[0] = 42.0;
        mgr.save(&m, 200).unwrap();
        m.state_mut_for_tests().h_long.row_mut(0)[0] = 43.0;
        mgr.save(&m, 300).unwrap();
        let listed = mgr.list().unwrap();
        assert_eq!(listed.len(), 2, "retention limit");
        assert_eq!(listed[0].0, 1);
        assert_eq!(listed[1].0, 2);

        let mut m2 = fresh_model(&d, 5);
        let out = mgr.resume(&mut m2).unwrap();
        let (path, events) = out.loaded.expect("should resume");
        assert_eq!(events, 300);
        assert!(path.to_string_lossy().contains("ckpt-0000000002"));
        assert!(out.skipped.is_empty());
        assert_eq!(m2.state().h_long.row(0)[0], 43.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_skips_corrupt_newest_with_reason() {
        let dir = tempdir("skip-corrupt");
        let (mut m, d) = trained_model();
        let mut mgr = CheckpointManager::new(&dir, 3).unwrap();
        mgr.save(&m, 100).unwrap();
        m.state_mut_for_tests().h_long.row_mut(0)[0] = 7.0;
        let newest = mgr.save(&m, 200).unwrap();
        // Truncate the newest checkpoint, as a crash mid-write would have
        // (had the write not been atomic — simulates torn storage).
        let blob = fs::read(&newest).unwrap();
        fs::write(&newest, &blob[..blob.len() / 2]).unwrap();

        let mut m2 = fresh_model(&d, 5);
        let out = mgr.resume(&mut m2).unwrap();
        let (_, events) = out.loaded.expect("older checkpoint should load");
        assert_eq!(events, 100, "must fall back to the previous checkpoint");
        assert_eq!(out.skipped.len(), 1);
        assert!(out.skipped[0].0.ends_with("ckpt-0000000001.supa"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_on_empty_dir_is_a_noop() {
        let dir = tempdir("empty");
        let (_, d) = trained_model();
        let mgr = CheckpointManager::new(&dir, 2).unwrap();
        let mut m = fresh_model(&d, 5);
        let before = m.snapshot();
        let out = mgr.resume(&mut m).unwrap();
        assert!(out.loaded.is_none());
        assert!(out.skipped.is_empty());
        assert_eq!(m.state().h_long.data(), before.h_long.data());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manager_continues_sequence_after_reopen() {
        let dir = tempdir("reopen");
        let (m, _) = trained_model();
        let mut mgr = CheckpointManager::new(&dir, 5).unwrap();
        mgr.save(&m, 1).unwrap();
        drop(mgr);
        let mut mgr2 = CheckpointManager::new(&dir, 5).unwrap();
        let p = mgr2.save(&m, 2).unwrap();
        assert!(p.to_string_lossy().contains("ckpt-0000000001"));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("supa-ckpt-test-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}
