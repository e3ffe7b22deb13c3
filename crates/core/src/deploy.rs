//! Deployment packing: the on-DRAM image MIME actually stores.
//!
//! The paper's memory-efficiency claim is about what sits in off-chip
//! DRAM: one 16-bit `W_parent` plus one 16-bit threshold bank per child
//! task. This module serializes exactly that artifact —
//! `{W_parent, T_child-1..n}` — into a length-framed binary image (using
//! the 16-bit quantizer from [`mime_nn::quant`]) and restores it into a
//! [`MultiTaskModel`]. The byte counts it produces are the ground truth
//! the Fig. 4 storage model predicts.
//!
//! ## Wire format v2 (written by [`pack_model`])
//!
//! ```text
//! magic "MIME" | version u16 (=2) | total-len u32 |
//! backbone section:
//!   sec-len u32 | crc32 u32 | payload {
//!     count u32, { name-len u16, name, tensor }…
//!   }
//! task-count u32 |
//! per-task section:
//!   sec-len u32 | crc32 u32 | payload {
//!     name-len u16, name, bank-count u32, { tensor }…
//!   }
//! ```
//!
//! where `tensor` is `rank u16, dims u32…, scale f32, len u32, i16…`,
//! all integers big-endian. `total-len` is the byte length of the whole
//! image; each `sec-len` is its section's payload length, and each
//! `crc32` is the CRC32 (IEEE, reflected, as in zip/zlib) of exactly
//! those payload bytes.
//!
//! ### Integrity and fault containment
//!
//! The backbone and **every task bank are checksummed independently**, so
//! corruption is attributable to one section: a damaged child task is
//! rejected (reported in [`UnpackReport::rejected`]) while the backbone
//! and sibling tasks load cleanly. Backbone corruption is a hard error —
//! without `W_parent` no task can run. The length framing makes a
//! corrupted section skippable; the one non-recoverable fault is a
//! corrupted `sec-len`/`total-len` field itself, which makes the tail of
//! the image unframeable — the damaged section and everything after it
//! are then rejected (never silently mis-parsed, because the CRC over a
//! mis-framed range fails).
//!
//! The readers accept only this version; any other is
//! [`MimeError::VersionSkew`].

use crate::{ImageSection, MimeError, MimeNetwork, MultiTaskModel, TaskEntry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use mime_nn::quant::QuantizedTensor;
use mime_tensor::{Tensor, TensorError};
use std::collections::HashMap;
use std::path::Path;

const MAGIC: &[u8; 4] = b"MIME";
/// Version written by [`pack_model`], and the only one the readers
/// accept.
pub const VERSION: u16 = 2;

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected — the zip/zlib polynomial)
// ---------------------------------------------------------------------

/// The byte-at-a-time table (`[0]`) and the seven tables that fold the
/// next byte positions of an 8-byte block into the same step
/// (slice-by-8): `[k][i]` is the CRC state of byte `i` followed by `k`
/// zero bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Advances the (pre-inverted) CRC state over `data` one byte at a time.
fn crc32_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 (IEEE) of `data` — the checksum stored in v2 section headers.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    !crc32_bytewise(crc, blocks.remainder())
}

// ---------------------------------------------------------------------
// Field writers (checked: every narrowing cast can fail loudly)
// ---------------------------------------------------------------------

fn check_u16(field: &'static str, value: usize) -> crate::Result<u16> {
    u16::try_from(value).map_err(|_| MimeError::FieldOverflow {
        field,
        value: value as u64,
        max: u16::MAX as u64,
    })
}

fn check_u32(field: &'static str, value: usize) -> crate::Result<u32> {
    u32::try_from(value).map_err(|_| MimeError::FieldOverflow {
        field,
        value: value as u64,
        max: u32::MAX as u64,
    })
}

fn put_tensor(buf: &mut BytesMut, t: &Tensor) -> crate::Result<()> {
    let q = QuantizedTensor::quantize(t);
    buf.put_u16(check_u16("tensor rank", q.dims().len())?);
    for &d in q.dims() {
        buf.put_u32(check_u32("tensor dim", d)?);
    }
    buf.put_f32(q.scale());
    buf.put_u32(check_u32("tensor len", q.values().len())?);
    for &v in q.values() {
        buf.put_i16(v);
    }
    Ok(())
}

fn put_name(buf: &mut BytesMut, name: &str) -> crate::Result<()> {
    buf.put_u16(check_u16("name-len", name.len())?);
    buf.put_slice(name.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// Field readers (every failure attributed to the section being read)
// ---------------------------------------------------------------------

fn truncated(section: &ImageSection, what: &'static str) -> MimeError {
    MimeError::Truncated { section: section.clone(), what }
}

/// A tensor record's header, checked against its own dims and the
/// bytes left for its `len` big-endian i16 words.
struct TensorHeader {
    dims: Vec<usize>,
    scale: f32,
    len: usize,
}

fn get_tensor_header(
    buf: &mut Bytes,
    section: &ImageSection,
) -> crate::Result<TensorHeader> {
    if buf.remaining() < 2 {
        return Err(truncated(section, "tensor header"));
    }
    let rank = buf.get_u16() as usize;
    if buf.remaining() < rank * 4 + 8 {
        return Err(truncated(section, "tensor dims"));
    }
    let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32() as usize).collect();
    let scale = buf.get_f32();
    let len = buf.get_u32() as usize;
    if buf.remaining() < len * 2 {
        return Err(truncated(section, "tensor payload"));
    }
    if !scale.is_finite() {
        return Err(MimeError::MalformedImage {
            section: section.clone(),
            reason: format!("non-finite quantization scale {scale}"),
        });
    }
    let expected = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
    if expected != Some(len) {
        return Err(TensorError::LengthMismatch {
            expected: expected.unwrap_or(usize::MAX),
            actual: len,
        }
        .into());
    }
    Ok(TensorHeader { dims, scale, len })
}

fn get_tensor(buf: &mut Bytes, section: &ImageSection) -> crate::Result<Tensor> {
    let TensorHeader { dims, scale, len } = get_tensor_header(buf, section)?;
    // One pass from the big-endian i16 words to f32, with
    // `QuantizedTensor::dequantize`'s own arithmetic (`q as f32 * scale`)
    // so the restored weights are bit-identical to a dequantize.
    let data = buf.chunk()[..len * 2]
        .chunks_exact(2)
        .map(|w| i16::from_be_bytes([w[0], w[1]]) as f32 * scale)
        .collect();
    buf.advance(len * 2);
    Ok(Tensor::from_vec(data, &dims)?)
}

fn get_name(buf: &mut Bytes, section: &ImageSection) -> crate::Result<String> {
    if buf.remaining() < 2 {
        return Err(truncated(section, "name length"));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(truncated(section, "name bytes"));
    }
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| MimeError::MalformedImage {
        section: section.clone(),
        reason: "invalid utf-8 in name".into(),
    })
}

// ---------------------------------------------------------------------
// Packing (v2 writer)
// ---------------------------------------------------------------------

fn backbone_payload(net: &MimeNetwork) -> crate::Result<BytesMut> {
    let mut buf = BytesMut::new();
    let backbone = net.backbone_params();
    buf.put_u32(check_u32("backbone count", backbone.len())?);
    for p in backbone {
        put_name(&mut buf, p.name())?;
        put_tensor(&mut buf, &p.value)?;
    }
    Ok(buf)
}

fn task_payload(entry: &TaskEntry) -> crate::Result<BytesMut> {
    let mut buf = BytesMut::new();
    put_name(&mut buf, &entry.name)?;
    buf.put_u32(check_u32("bank count", entry.thresholds.len())?);
    for bank in &entry.thresholds {
        put_tensor(&mut buf, bank)?;
    }
    Ok(buf)
}

fn put_section(buf: &mut BytesMut, payload: &BytesMut) -> crate::Result<()> {
    buf.put_u32(check_u32("sec-len", payload.len())?);
    buf.put_u32(crc32(payload));
    buf.put_slice(payload);
    Ok(())
}

/// Serializes a multi-task model's DRAM-resident parameters
/// (`W_parent` + every registered task's threshold banks) at 16-bit
/// precision, as a v2 image with per-section CRC32 checksums.
///
/// # Errors
///
/// Returns [`MimeError::FieldOverflow`] when a count, name, or tensor
/// dimension exceeds its wire-format field.
pub fn pack_model(model: &MultiTaskModel) -> crate::Result<Bytes> {
    pack_image(model.network(), model.tasks())
}

/// [`pack_model`] without the [`MultiTaskModel`] wrapper: packs a bare
/// network's backbone plus an explicit list of task entries. This is
/// what the training checkpointer uses — mid-epoch the trainer only
/// holds a [`MimeNetwork`] (which is not `Clone`), so it cannot build a
/// throwaway model to call [`pack_model`] on.
///
/// # Errors
///
/// As [`pack_model`].
pub fn pack_image(net: &MimeNetwork, tasks: &[TaskEntry]) -> crate::Result<Bytes> {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u32(0); // total-len placeholder, patched below
    put_section(&mut buf, &backbone_payload(net)?)?;
    buf.put_u32(check_u32("task count", tasks.len())?);
    for entry in tasks {
        put_section(&mut buf, &task_payload(entry)?)?;
    }
    let total = check_u32("total-len", buf.len())?;
    buf.as_mut_slice()[6..10].copy_from_slice(&total.to_be_bytes());
    Ok(buf.freeze())
}

/// Writes `bytes` to `path` crash-safely: the payload goes to a
/// sibling `<path>.tmp` first, is fsynced, and only then renamed over
/// the destination — after which the *parent directory* is fsynced
/// too. The guarantee after `Ok(())`: both the file contents and the
/// directory entry pointing at them are durable; a crash at any point
/// leaves either the complete old file or the complete new file —
/// never a torn image, and never a rename that silently evaporates
/// because the directory block holding it was still only in the page
/// cache. The temp file is removed on any failure.
///
/// # Errors
///
/// Returns [`MimeError::Io`] carrying the destination path and the
/// rendered OS error.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> crate::Result<()> {
    use std::io::Write;
    let display = path.display().to_string();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let attempt = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Durability of the rename itself: on POSIX the new directory
        // entry lives in the parent directory's data, which has its own
        // cache lifetime — without this fsync a crash after "success"
        // can lose the whole file despite the data fsync above.
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        std::fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()
    })();
    if let Err(e) = attempt {
        let _ = std::fs::remove_file(&tmp);
        return Err(MimeError::io(display, &e));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Unpacking
// ---------------------------------------------------------------------

/// One task section that failed to load, with the reason.
#[derive(Debug, Clone)]
pub struct RejectedTask {
    /// Zero-based position of the task section in the image.
    pub index: usize,
    /// Task name, when it could be recovered from the section.
    pub name: Option<String>,
    /// Why the task was rejected.
    pub error: MimeError,
}

/// Outcome of a resilient [`unpack_model`]: which tasks loaded and which
/// were rejected (with per-section attribution).
#[derive(Debug, Clone, Default)]
pub struct UnpackReport {
    /// Image version that was read.
    pub version: u16,
    /// Names of the tasks registered into the receiving model, in image
    /// order.
    pub loaded: Vec<String>,
    /// Task sections that failed their checksum, failed to parse, or
    /// failed registration — skipped without affecting siblings.
    pub rejected: Vec<RejectedTask>,
}

impl UnpackReport {
    /// `true` when every task section loaded.
    pub fn is_clean(&self) -> bool {
        self.rejected.is_empty()
    }
}

struct SectionHeader {
    len: usize,
    crc: u32,
}

/// Reads a `sec-len | crc32` section header, bounds-checking `sec-len`
/// against the remaining bytes.
fn get_section_header(
    buf: &mut Bytes,
    section: &ImageSection,
) -> crate::Result<SectionHeader> {
    if buf.remaining() < 8 {
        return Err(truncated(section, "section header"));
    }
    let len = buf.get_u32() as usize;
    let crc = buf.get_u32();
    if buf.remaining() < len {
        return Err(truncated(section, "section payload"));
    }
    Ok(SectionHeader { len, crc })
}

/// Splits off and CRC-verifies one section payload.
fn get_section_payload(buf: &mut Bytes, section: &ImageSection) -> crate::Result<Bytes> {
    let header = get_section_header(buf, section)?;
    let payload = buf.copy_to_bytes(header.len);
    let actual = crc32(&payload);
    if actual != header.crc {
        return Err(MimeError::ChecksumMismatch {
            section: section.clone(),
            expected: header.crc,
            actual,
        });
    }
    Ok(payload)
}

/// Reads the task count, rejecting values the remaining bytes could
/// not possibly frame (each task section needs at least an 8-byte
/// header). Without this plausibility check a corrupted count drives
/// the per-task rejection walk through billions of phantom sections.
fn checked_task_count(buf: &mut Bytes) -> crate::Result<usize> {
    if buf.remaining() < 4 {
        return Err(truncated(&ImageSection::Header, "task count"));
    }
    let n_tasks = buf.get_u32() as usize;
    let max = buf.remaining() / 8;
    if n_tasks > max {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!(
                "task count {n_tasks} exceeds the {max} sections the remaining {} bytes could frame",
                buf.remaining()
            ),
        });
    }
    Ok(n_tasks)
}

/// Reads `magic | version`, accepting only [`VERSION`].
fn get_header(buf: &mut Bytes) -> crate::Result<()> {
    let section = ImageSection::Header;
    if buf.remaining() < 6 {
        return Err(truncated(&section, "magic/version"));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(MimeError::BadMagic);
    }
    let version = buf.get_u16();
    if version != VERSION {
        return Err(MimeError::VersionSkew {
            found: version,
            min_supported: VERSION,
            max_supported: VERSION,
        });
    }
    Ok(())
}

fn parse_backbone(payload: &mut Bytes) -> crate::Result<HashMap<String, Tensor>> {
    let section = ImageSection::Backbone;
    let n = get_backbone_count(payload)?;
    let mut backbone = HashMap::with_capacity(n);
    for _ in 0..n {
        let name = get_name(payload, &section)?;
        let tensor = get_tensor(payload, &section)?;
        backbone.insert(name, tensor);
    }
    Ok(backbone)
}

/// Walks a backbone's names and tensor headers as [`parse_backbone`]
/// does, with the same errors, but skips the weight words instead of
/// decoding them.
fn check_backbone(payload: &mut Bytes) -> crate::Result<()> {
    let section = ImageSection::Backbone;
    for _ in 0..get_backbone_count(payload)? {
        get_name(payload, &section)?;
        let header = get_tensor_header(payload, &section)?;
        payload.advance(header.len * 2);
    }
    Ok(())
}

fn get_backbone_count(payload: &mut Bytes) -> crate::Result<usize> {
    if payload.remaining() < 4 {
        return Err(truncated(&ImageSection::Backbone, "backbone count"));
    }
    Ok(payload.get_u32() as usize)
}

/// Parses one task payload into `(name, banks)`, checking every bank
/// for non-finite values (a corrupted-but-CRC-valid bank cannot occur,
/// but a bank poisoned *before* packing can).
fn parse_task(payload: &mut Bytes, index: usize) -> crate::Result<(String, Vec<Tensor>)> {
    let unnamed = ImageSection::task_unnamed(index);
    let name = get_name(payload, &unnamed)?;
    let section = ImageSection::task(index, name.clone());
    if payload.remaining() < 4 {
        return Err(truncated(&section, "bank count"));
    }
    let n_banks = payload.get_u32() as usize;
    let mut banks = Vec::with_capacity(n_banks);
    for layer in 0..n_banks {
        let bank = get_tensor(payload, &section)?;
        if let Some(idx) = crate::faults::first_non_finite(bank.as_slice()) {
            return Err(MimeError::NonFinite {
                stage: "threshold bank",
                layer,
                index: idx,
            });
        }
        banks.push(bank);
    }
    Ok((name, banks))
}

/// Restores a packed image into a model built over the **same
/// architecture**: backbone values are overwritten and every intact
/// packed task is registered.
///
/// Images load resiliently: a task section that fails its checksum,
/// fails to parse, or fails registration (shape mismatch, name
/// collision) is skipped and reported in [`UnpackReport::rejected`];
/// the backbone and the remaining tasks still load. Backbone corruption
/// is always a hard error.
///
/// # Errors
///
/// Returns an error for a bad magic, an unsupported version, or a
/// truncated or checksum-failing header/backbone.
pub fn unpack_model(
    bytes: &Bytes,
    model: &mut MultiTaskModel,
) -> crate::Result<UnpackReport> {
    let mut buf = bytes.clone();
    get_header(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(truncated(&ImageSection::Header, "total length"));
    }
    let total = buf.get_u32() as usize;
    if total != bytes.len() {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!("total-len {total} but image is {} bytes", bytes.len()),
        });
    }
    let mut backbone_payload = get_section_payload(&mut buf, &ImageSection::Backbone)?;
    let backbone = parse_backbone(&mut backbone_payload)?;
    model.network_mut().import_backbone(&backbone)?;
    let n_tasks = checked_task_count(&mut buf)?;
    let mut report = UnpackReport { version: VERSION, ..Default::default() };
    let mut framing_lost = false;
    for index in 0..n_tasks {
        let unnamed = ImageSection::task_unnamed(index);
        let mut payload = match get_section_payload(&mut buf, &unnamed) {
            Ok(p) => p,
            Err(e) => {
                // Framing is unrecoverable past a truncated/overlong
                // section: reject this task and everything after it.
                let fatal = matches!(e, MimeError::Truncated { .. });
                report.rejected.push(RejectedTask { index, name: None, error: e });
                if fatal {
                    framing_lost = true;
                    for rest in index + 1..n_tasks {
                        report.rejected.push(RejectedTask {
                            index: rest,
                            name: None,
                            error: truncated(
                                &ImageSection::task_unnamed(rest),
                                "section lost after framing damage",
                            ),
                        });
                    }
                    break;
                }
                continue;
            }
        };
        match parse_task(&mut payload, index) {
            Ok((name, banks)) => match model.register_task(name.clone(), banks) {
                Ok(()) => report.loaded.push(name),
                Err(e) => {
                    report.rejected.push(RejectedTask { index, name: Some(name), error: e })
                }
            },
            Err(e) => report.rejected.push(RejectedTask { index, name: None, error: e }),
        }
    }
    // Trailing bytes mean the task count under-reports the sections
    // actually present (e.g. a flipped task-count byte) — a silently
    // shrunken model would otherwise look clean.
    if !framing_lost && buf.remaining() > 0 {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!(
                "{} trailing bytes after the last task section",
                buf.remaining()
            ),
        });
    }
    Ok(report)
}

/// Strict checkpoint reader: restores an image produced by
/// [`pack_image`] into a bare network, returning the task entries it
/// carried instead of registering them anywhere.
///
/// Unlike [`unpack_model`] this is all-or-nothing — a checkpoint with
/// *any* damaged section is useless for resuming (the caller falls back
/// to an older one), so the first failure aborts the restore before the
/// network has been mutated.
///
/// # Errors
///
/// Any framing, checksum, parse, or backbone-import failure.
pub fn unpack_checkpoint(
    bytes: &Bytes,
    net: &mut MimeNetwork,
) -> crate::Result<Vec<TaskEntry>> {
    let mut buf = bytes.clone();
    get_header(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(truncated(&ImageSection::Header, "total length"));
    }
    let total = buf.get_u32() as usize;
    if total != bytes.len() {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!("total-len {total} but image is {} bytes", bytes.len()),
        });
    }
    let mut backbone_payload = get_section_payload(&mut buf, &ImageSection::Backbone)?;
    let backbone = parse_backbone(&mut backbone_payload)?;
    let n_tasks = checked_task_count(&mut buf)?;
    let mut entries = Vec::with_capacity(n_tasks);
    for index in 0..n_tasks {
        let unnamed = ImageSection::task_unnamed(index);
        let mut payload = get_section_payload(&mut buf, &unnamed)?;
        let (name, thresholds) = parse_task(&mut payload, index)?;
        entries.push(TaskEntry { name, thresholds });
    }
    if buf.remaining() > 0 {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!(
                "{} trailing bytes after the last task section",
                buf.remaining()
            ),
        });
    }
    // Everything parsed: only now mutate the receiving network.
    net.import_backbone(&backbone)?;
    Ok(entries)
}

// ---------------------------------------------------------------------
// Receiver-less verification
// ---------------------------------------------------------------------

/// Integrity status of one image section, as reported by
/// [`verify_image`].
#[derive(Debug, Clone)]
pub struct SectionStatus {
    /// Which section this is.
    pub section: ImageSection,
    /// Payload byte length (0 when the section could not be framed).
    pub payload_bytes: usize,
    /// `None` when the section verified clean; otherwise the defect.
    pub error: Option<MimeError>,
}

/// Receiver-less summary of a deployment image's integrity.
#[derive(Debug, Clone)]
pub struct ImageSummary {
    /// Image version.
    pub version: u16,
    /// Total image bytes.
    pub total_bytes: usize,
    /// Per-section status: backbone first, then each task section.
    pub sections: Vec<SectionStatus>,
}

impl ImageSummary {
    /// `true` when every section verified clean.
    pub fn is_clean(&self) -> bool {
        self.sections.iter().all(|s| s.error.is_none())
    }
}

/// Verifies an image's framing and per-section checksums without a
/// receiving model — the cheap integrity walk behind the `verify-image`
/// CLI subcommand. The walk reads `bytes` in place and decodes no
/// weight: backbone tensors are checked by their headers and skipped.
///
/// Sections are CRC-checked and parsed structurally (names, tensor
/// framing).
///
/// # Errors
///
/// Returns an error only when the header itself is unreadable (bad
/// magic, version skew, truncation, total-length mismatch) — all
/// section-level damage, including a corrupt backbone, is reported per
/// section in the summary. (This differs from [`unpack_model`], where a
/// damaged backbone is a hard error because nothing can execute without
/// it; `verify_image` is a diagnostic and keeps walking.)
pub fn verify_image(bytes: &Bytes) -> crate::Result<ImageSummary> {
    let mut buf = bytes.clone();
    get_header(&mut buf)?;
    let mut summary =
        ImageSummary { version: VERSION, total_bytes: bytes.len(), sections: Vec::new() };
    if buf.remaining() < 4 {
        return Err(truncated(&ImageSection::Header, "total length"));
    }
    let total = buf.get_u32() as usize;
    if total != bytes.len() {
        return Err(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!("total-len {total} but image is {} bytes", bytes.len()),
        });
    }
    match get_section_payload(&mut buf, &ImageSection::Backbone) {
        Ok(mut payload) => {
            let backbone_bytes = payload.remaining();
            let error = check_backbone(&mut payload).err();
            summary.sections.push(SectionStatus {
                section: ImageSection::Backbone,
                payload_bytes: backbone_bytes,
                error,
            });
        }
        Err(e) => {
            // A CRC mismatch still consumed the (correctly framed)
            // payload, so the task walk below stays aligned; truncation
            // means framing itself is gone and nothing after the
            // backbone can be attributed.
            let fatal = matches!(e, MimeError::Truncated { .. });
            summary.sections.push(SectionStatus {
                section: ImageSection::Backbone,
                payload_bytes: 0,
                error: Some(e),
            });
            if fatal {
                return Ok(summary);
            }
        }
    }
    let n_tasks = checked_task_count(&mut buf)?;
    let mut framing_lost = false;
    for index in 0..n_tasks {
        let unnamed = ImageSection::task_unnamed(index);
        match get_section_payload(&mut buf, &unnamed) {
            Ok(mut payload) => {
                let payload_bytes = payload.remaining();
                let (section, error) = match parse_task(&mut payload, index) {
                    Ok((name, _)) => (ImageSection::task(index, name), None),
                    Err(e) => (unnamed, Some(e)),
                };
                summary.sections.push(SectionStatus { section, payload_bytes, error });
            }
            Err(e) => {
                let fatal = matches!(e, MimeError::Truncated { .. });
                summary.sections.push(SectionStatus {
                    section: unnamed,
                    payload_bytes: 0,
                    error: Some(e),
                });
                if fatal {
                    framing_lost = true;
                    for rest in index + 1..n_tasks {
                        summary.sections.push(SectionStatus {
                            section: ImageSection::task_unnamed(rest),
                            payload_bytes: 0,
                            error: Some(truncated(
                                &ImageSection::task_unnamed(rest),
                                "section lost after framing damage",
                            )),
                        });
                    }
                    break;
                }
            }
        }
    }
    if !framing_lost {
        if let Some(rest) = trailing_bytes_error(&buf) {
            summary.sections.push(rest);
        }
    }
    Ok(summary)
}

/// A [`SectionStatus`] flagging unaccounted trailing bytes (a shrunken
/// task count would otherwise verify clean), or `None` when the buffer
/// was fully consumed.
fn trailing_bytes_error(buf: &Bytes) -> Option<SectionStatus> {
    if buf.remaining() == 0 {
        return None;
    }
    Some(SectionStatus {
        section: ImageSection::Header,
        payload_bytes: 0,
        error: Some(MimeError::MalformedImage {
            section: ImageSection::Header,
            reason: format!(
                "{} trailing bytes after the last task section",
                buf.remaining()
            ),
        }),
    })
}

/// Parameter-payload bytes of a packed model (16-bit values only,
/// excluding names and framing) — directly comparable to the Fig. 4
/// storage model.
pub fn payload_bytes(model: &MultiTaskModel) -> usize {
    let (w, t, n) = model.storage_profile();
    (w + t * n) * 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MimeNetwork;
    use mime_nn::{build_network, vgg16_arch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_with_tasks(seed: u64, n_tasks: usize) -> MultiTaskModel {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(seed);
        let parent = build_network(&arch, &mut rng);
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        let mut model = MultiTaskModel::new(net);
        for i in 0..n_tasks {
            let banks = model
                .network()
                .export_thresholds()
                .into_iter()
                .map(|t| t.map(|_| 0.05 + 0.1 * i as f32))
                .collect();
            model.register_task(format!("task{i}"), banks).unwrap();
        }
        model
    }

    /// Byte offset where the first task's section begins (after magic,
    /// version, total-len, backbone section, task count).
    fn first_task_section_offset(image: &[u8]) -> usize {
        let backbone_len = u32::from_be_bytes(image[10..14].try_into().unwrap()) as usize;
        10 + 8 + backbone_len + 4
    }

    #[test]
    fn pack_unpack_round_trip() {
        let model = model_with_tasks(1, 2);
        let image = pack_model(&model).unwrap();
        // receiver: same arch, different weights, no tasks
        let mut receiver = model_with_tasks(99, 0);
        let report = unpack_model(&image, &mut receiver).unwrap();
        assert_eq!(report.version, VERSION);
        assert!(report.is_clean());
        assert_eq!(report.loaded, vec!["task0", "task1"]);
        assert_eq!(receiver.tasks().len(), 2);
        // thresholds restored within quantization error
        receiver.activate("task1").unwrap();
        let bank = receiver.network().masks()[0].thresholds();
        for &t in bank.as_slice() {
            assert!((t - 0.15).abs() < 1e-3, "{t}");
        }
        // backbone restored: forward outputs match the source closely
        let probe =
            mime_tensor::Tensor::from_fn(&[1, 3, 32, 32], |i| ((i % 11) as f32) * 0.05);
        let mut src = model_with_tasks(1, 2);
        src.activate("task1").unwrap();
        let want = src.network_mut().forward(&probe).unwrap();
        let got = receiver.network_mut().forward(&probe).unwrap();
        for (a, b) in want.as_slice().iter().zip(got.as_slice()) {
            assert!((a - b).abs() < 0.05 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let model = model_with_tasks(2, 1);
        let image = pack_model(&model).unwrap();
        let mut receiver = model_with_tasks(3, 0);

        let mut bad = image.to_vec();
        bad[0] = b'X';
        assert!(matches!(
            unpack_model(&Bytes::from(bad), &mut receiver),
            Err(MimeError::BadMagic)
        ));

        let truncated = image.slice(0..image.len() / 2);
        assert!(unpack_model(&truncated, &mut receiver).is_err());

        assert!(unpack_model(&Bytes::from_static(b"MI"), &mut receiver).is_err());
    }

    #[test]
    fn rejects_wrong_version() {
        let model = model_with_tasks(4, 0);
        let mut image = pack_model(&model).unwrap().to_vec();
        image[4] = 0xFF;
        let mut receiver = model_with_tasks(5, 0);
        assert!(matches!(
            unpack_model(&Bytes::from(image.clone()), &mut receiver),
            Err(MimeError::VersionSkew { .. })
        ));
        // every reader refuses v1 (no checksums, no framing) at the
        // header, whatever follows
        image[4..6].copy_from_slice(&1u16.to_be_bytes());
        let v1 = Bytes::from(image);
        let skew = |r: crate::Result<()>| {
            matches!(r, Err(MimeError::VersionSkew { found: 1, .. }))
        };
        assert!(skew(unpack_model(&v1, &mut receiver).map(drop)));
        assert!(skew(unpack_checkpoint(&v1, receiver.network_mut()).map(drop)));
        assert!(skew(verify_image(&v1).map(drop)));
    }

    #[test]
    fn corrupt_backbone_is_a_hard_checksum_error() {
        let model = model_with_tasks(12, 1);
        let mut image = pack_model(&model).unwrap().to_vec();
        // flip one payload bit well inside the backbone section
        image[200] ^= 0x10;
        let mut receiver = model_with_tasks(13, 0);
        match unpack_model(&Bytes::from(image.clone()), &mut receiver) {
            Err(MimeError::ChecksumMismatch {
                section: ImageSection::Backbone, ..
            }) => {}
            other => panic!("expected backbone checksum error, got {other:?}"),
        }
        assert!(receiver.tasks().is_empty(), "nothing registered from a bad backbone");

        // verify_image, by contrast, records the damage and keeps
        // walking: the task section after the bad backbone still
        // verifies clean.
        let summary = verify_image(&Bytes::from(image)).unwrap();
        assert!(!summary.is_clean());
        assert_eq!(summary.sections.len(), 2);
        assert!(matches!(
            summary.sections[0].error,
            Some(MimeError::ChecksumMismatch { .. })
        ));
        assert!(summary.sections[1].error.is_none(), "task section unaffected");
    }

    #[test]
    fn corrupt_task_rejected_siblings_survive() {
        let model = model_with_tasks(14, 3);
        let image = pack_model(&model).unwrap();
        let mut bytes = image.to_vec();
        // flip a bit inside task0's payload (past its 8-byte section
        // header and 7-byte name field, inside the bank values)
        let t0 = first_task_section_offset(&bytes);
        bytes[t0 + 8 + 9 + 40] ^= 0x04;
        let mut receiver = model_with_tasks(15, 0);
        let report = unpack_model(&Bytes::from(bytes.clone()), &mut receiver).unwrap();
        assert_eq!(report.loaded, vec!["task1", "task2"]);
        assert_eq!(report.rejected.len(), 1);
        let rej = &report.rejected[0];
        assert_eq!(rej.index, 0);
        assert!(matches!(
            rej.error,
            MimeError::ChecksumMismatch {
                section: ImageSection::Task { index: 0, .. },
                ..
            }
        ));
        // siblings are fully usable
        receiver.activate("task2").unwrap();
        assert!(receiver.activate("task0").is_err());

        // verify_image attributes the same fault without a receiver
        let summary = verify_image(&Bytes::from(bytes)).unwrap();
        assert!(!summary.is_clean());
        let bad: Vec<_> = summary.sections.iter().filter(|s| s.error.is_some()).collect();
        assert_eq!(bad.len(), 1);
        assert!(matches!(bad[0].section, ImageSection::Task { index: 0, .. }));
    }

    #[test]
    fn corrupt_section_length_loses_tail_but_never_misparses() {
        let model = model_with_tasks(16, 2);
        let image = pack_model(&model).unwrap();
        let mut bytes = image.to_vec();
        // corrupt task0's sec-len field itself (first 4 bytes of its
        // section header): framing past this point is unrecoverable
        let t0 = first_task_section_offset(&bytes);
        bytes[t0 + 2] ^= 0xFF;
        let mut receiver = model_with_tasks(17, 0);
        let report = unpack_model(&Bytes::from(bytes), &mut receiver).unwrap();
        // both tasks rejected (task0 damaged, task1 unframeable) — but
        // backbone loaded and nothing was silently mis-parsed
        assert!(report.loaded.is_empty());
        assert_eq!(report.rejected.len(), 2);
        assert!(receiver.tasks().is_empty());
    }

    #[test]
    fn image_size_tracks_storage_model() {
        let model1 = model_with_tasks(6, 1);
        let model3 = model_with_tasks(6, 3);
        let img1 = pack_model(&model1).unwrap().len();
        let img3 = pack_model(&model3).unwrap().len();
        // marginal cost of two more tasks ≈ 2 threshold banks at 16-bit
        let expected_delta = 2 * model1.network().num_thresholds() * 2;
        let delta = img3 - img1;
        assert!(
            (delta as i64 - expected_delta as i64).unsigned_abs() < 2048,
            "delta {delta} vs expected {expected_delta}"
        );
        // framing overhead is small against the payload
        assert!(img1 as f64 <= payload_bytes(&model1) as f64 * 1.05 + 4096.0);
    }

    #[test]
    fn double_unpack_contains_duplicate_tasks() {
        let model = model_with_tasks(10, 1);
        let image = pack_model(&model).unwrap();
        let mut receiver = model_with_tasks(11, 0);
        assert!(unpack_model(&image, &mut receiver).unwrap().is_clean());
        assert_eq!(receiver.tasks().len(), 1);
        // a second restore collides on the task name — contained, not
        // fatal, and no duplicate registration happens
        let report = unpack_model(&image, &mut receiver).unwrap();
        assert!(report.loaded.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert!(matches!(report.rejected[0].error, MimeError::DuplicateTask { .. }));
        assert_eq!(receiver.tasks().len(), 1, "no partial duplicate registration");
    }

    #[test]
    fn shape_mismatch_rejected() {
        // pack from one arch, unpack into a different width → the
        // backbone import fails hard (wrong-architecture receiver)
        let model = model_with_tasks(7, 1);
        let image = pack_model(&model).unwrap();
        let arch = vgg16_arch(0.125, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(8);
        let parent = build_network(&arch, &mut rng);
        let net = MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap();
        let mut receiver = MultiTaskModel::new(net);
        assert!(unpack_model(&image, &mut receiver).is_err());
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // standard check values for CRC-32/ISO-HDLC
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_reference() {
        let reference = |d: &[u8]| !crc32_bytewise(0xFFFF_FFFF, d);
        // xorshift64: deterministic bytes with no structure a table
        // mix-up could hide behind
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..(3 << 20) + 13)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=4096 {
                let d = &data[start..start + len];
                assert_eq!(crc32(d), reference(d), "start {start}, len {len}");
            }
            let d = &data[start..];
            assert_eq!(crc32(d), reference(d), "{} bytes at start {start}", d.len());
        }
    }

    #[test]
    fn one_pass_decode_matches_dequantize_bitwise() {
        let model = model_with_tasks(60, 1);
        // the scale a real layer packs with
        let conv1 = &model.network().backbone_params()[0].value;
        let scale = QuantizedTensor::quantize(conv1).scale();
        let words = vec![i16::MIN, -1, 0, 1, i16::MAX];
        let mut buf = BytesMut::new();
        buf.put_u16(1);
        buf.put_u32(words.len() as u32);
        buf.put_f32(scale);
        buf.put_u32(words.len() as u32);
        for &w in &words {
            buf.put_i16(w);
        }
        let got = get_tensor(&mut buf.freeze(), &ImageSection::Backbone).unwrap();
        let want = QuantizedTensor::from_parts(vec![5], scale, words).unwrap().dequantize();
        let bits =
            |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));

        // every restored backbone tensor is the dequantize of its packing
        let image = pack_model(&model).unwrap();
        let mut receiver = model_with_tasks(61, 0);
        unpack_model(&image, &mut receiver).unwrap();
        let restored = receiver.network().backbone_params();
        for (src, got) in model.network().backbone_params().iter().zip(restored) {
            let want = QuantizedTensor::quantize(&src.value).dequantize();
            assert_eq!(got.value.dims(), want.dims(), "{}", src.name());
            assert_eq!(bits(&got.value), bits(&want), "{}", src.name());
        }
    }

    #[test]
    fn implausible_task_count_is_rejected_cheaply() {
        // A flipped high byte can turn task-count 2 into ~4 billion; the
        // reader must reject that outright instead of enumerating
        // phantom sections.
        let model = model_with_tasks(40, 2);
        let mut image = pack_model(&model).unwrap().to_vec();
        let offset = first_task_section_offset(&image) - 4; // task-count u32
        image[offset] ^= 0xFF;
        let mut receiver = model_with_tasks(41, 0);
        let started = std::time::Instant::now();
        assert!(matches!(
            unpack_model(&Bytes::from(image.clone()), &mut receiver),
            Err(MimeError::MalformedImage { .. })
        ));
        assert!(matches!(
            verify_image(&Bytes::from(image)),
            Err(MimeError::MalformedImage { .. })
        ));
        assert!(started.elapsed().as_secs() < 5, "rejection must not enumerate");
    }

    #[test]
    fn shrunken_task_count_leaves_trailing_bytes_error() {
        // task-count lowered from 2 to 1: one whole section dangles. A
        // silently shrunken model must not pass as clean.
        let model = model_with_tasks(42, 2);
        let mut image = pack_model(&model).unwrap().to_vec();
        let offset = first_task_section_offset(&image) - 1; // count low byte
        assert_eq!(image[offset], 2);
        image[offset] = 1;
        let mut receiver = model_with_tasks(43, 0);
        match unpack_model(&Bytes::from(image.clone()), &mut receiver) {
            Err(MimeError::MalformedImage { reason, .. }) => {
                assert!(reason.contains("trailing"), "{reason}");
            }
            other => panic!("expected trailing-bytes error, got {other:?}"),
        }
        let summary = verify_image(&Bytes::from(image)).unwrap();
        assert!(!summary.is_clean());
    }

    /// Fresh scratch directory under the OS temp dir, removed by the
    /// returned guard.
    fn scratch_dir(tag: &str) -> (std::path::PathBuf, impl Drop) {
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            std::env::temp_dir().join(format!("mime-deploy-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        (dir.clone(), Cleanup(dir))
    }

    #[test]
    fn pack_image_matches_pack_model() {
        let model = model_with_tasks(50, 2);
        let via_model = pack_model(&model).unwrap();
        let via_parts = pack_image(model.network(), model.tasks()).unwrap();
        assert_eq!(via_model, via_parts);
    }

    #[test]
    fn unpack_checkpoint_round_trip_and_strictness() {
        let model = model_with_tasks(51, 2);
        let image = pack_model(&model).unwrap();
        let mut receiver = model_with_tasks(52, 0);
        let entries = unpack_checkpoint(&image, receiver.network_mut()).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "task0");
        assert_eq!(entries[1].name, "task1");
        // thresholds survive the quantization round trip
        for &t in entries[1].thresholds[0].as_slice() {
            assert!((t - 0.15).abs() < 1e-3, "{t}");
        }

        // any damaged section is a hard error and leaves the receiving
        // network's backbone untouched
        let mut damaged = image.to_vec();
        let t0 = first_task_section_offset(&damaged);
        damaged[t0 + 8 + 9 + 40] ^= 0x04;
        let mut untouched = model_with_tasks(53, 0);
        let before: Vec<f32> =
            untouched.network().backbone_params()[0].value.as_slice().to_vec();
        assert!(unpack_checkpoint(&Bytes::from(damaged), untouched.network_mut()).is_err());
        let after = untouched.network().backbone_params()[0].value.as_slice().to_vec();
        assert_eq!(before, after, "failed restore must not mutate the network");
    }

    #[test]
    fn write_file_atomic_writes_and_cleans_up() {
        let (dir, _guard) = scratch_dir("atomic");
        let dest = dir.join("image.mime");
        write_file_atomic(&dest, b"hello").unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"hello");
        assert!(!dir.join("image.mime.tmp").exists(), "temp file must not linger");
        // overwrite is atomic too: the old content is fully replaced
        write_file_atomic(&dest, b"goodbye, world").unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), b"goodbye, world");

        // a destination whose parent does not exist fails with Io and
        // leaves no temp file behind
        let bad = dir.join("missing").join("image.mime");
        match write_file_atomic(&bad, b"x") {
            Err(MimeError::Io { path, .. }) => assert!(path.contains("missing")),
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[test]
    fn verify_image_rejects_header_damage() {
        let model = model_with_tasks(20, 1);
        let image = pack_model(&model).unwrap().to_vec();
        assert!(verify_image(&Bytes::from(image.clone())).unwrap().is_clean());
        let mut bad = image.clone();
        bad[0] = b'Z';
        assert!(matches!(verify_image(&Bytes::from(bad)), Err(MimeError::BadMagic)));
        let mut skew = image.clone();
        skew[5] = 9;
        assert!(matches!(
            verify_image(&Bytes::from(skew)),
            Err(MimeError::VersionSkew { .. })
        ));
        // total-len disagreeing with the byte count
        let mut short = image;
        short.pop();
        assert!(matches!(
            verify_image(&Bytes::from(short)),
            Err(MimeError::MalformedImage { .. })
        ));
    }
}
