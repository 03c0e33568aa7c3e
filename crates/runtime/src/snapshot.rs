//! Versioned, self-describing, CRC-protected snapshot files with atomic
//! writes and a keep-last-K retention policy.
//!
//! # File layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"EDDSNAP\0"
//! 8       4     format version (u32 LE, currently 1)
//! 12      8     payload length in bytes (u64 LE)
//! 20      4     CRC-32 over the payload (u32 LE)
//! 24      n     payload
//! ```
//!
//! The payload itself is a sequence of named **sections**
//! (`[u16 name_len][name bytes][u64 data_len][data]`), so readers can skip
//! sections they do not understand and future schema versions can add
//! sections without breaking old files. Section *contents* are encoded with
//! [`ByteWriter`]/[`ByteReader`]: fixed-width little-endian integers and
//! `f32` values stored via their IEEE-754 bit patterns, so a round trip is
//! bit-exact (NaN payloads included).
//!
//! # Crash safety
//!
//! [`write_atomic`] writes to a `.tmp` sibling, `fsync`s it, renames it
//! over the destination, then `fsync`s the directory: a crash at any point
//! leaves either the complete old file or the complete new file, never a
//! torn one. Readers verify magic, version, length, and CRC before handing
//! the payload out — every corruption mode (truncation, bit flip, foreign
//! file) surfaces as a [`SnapshotError`], not a panic.

use crate::crc32::crc32;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"EDDSNAP\0";

/// Current snapshot container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Size of the fixed header preceding the payload.
const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Refusal threshold for unreasonable payload lengths (a corrupted length
/// field must not trigger a multi-gigabyte allocation).
const MAX_PAYLOAD: u64 = 1 << 32;

/// Everything that can go wrong reading or writing a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with the magic of the format being read.
    BadMagic {
        /// Magic of the format the reader expected.
        expected: [u8; 8],
    },
    /// The file's container version is not the one this build reads for
    /// its format.
    UnsupportedVersion {
        /// Magic of the format being read.
        magic: [u8; 8],
        /// Version the file declares.
        found: u32,
        /// The one version this build reads.
        expected: u32,
    },
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload checksum does not match the stored CRC.
    CrcMismatch {
        /// CRC recorded in the header.
        stored: u32,
        /// CRC computed over the payload read from disk.
        computed: u32,
    },
    /// The payload structure is malformed (bad section framing, a field
    /// read past a section end, a count that contradicts the data, …).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { expected } => {
                write!(f, "not a {} file (bad magic)", format_name(expected))
            }
            SnapshotError::UnsupportedVersion {
                magic,
                found,
                expected,
            } => write!(
                f,
                "{} format version {found} is not supported; this build reads version {expected}",
                format_name(magic)
            ),
            SnapshotError::Truncated { expected, got } => {
                write!(
                    f,
                    "snapshot truncated: expected {expected} payload bytes, got {got}"
                )
            }
            SnapshotError::CrcMismatch { stored, computed } => write!(
                f,
                "snapshot CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// What the formats that share this container are called in messages:
/// training snapshots, `edd-ir`'s compiled-model artifacts and pulse-state
/// blobs, or the magic's own text for any other.
fn format_name(magic: &[u8; 8]) -> String {
    match magic {
        b"EDDSNAP\0" => "snapshot".into(),
        b"EDDMODL\0" => "model artifact".into(),
        b"EDDPULS\0" => "pulse state".into(),
        other => String::from_utf8_lossy(other)
            .trim_end_matches('\0')
            .to_owned(),
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Convenience alias for snapshot results.
pub type Result<T> = std::result::Result<T, SnapshotError>;

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

/// Little-endian byte-stream writer for section contents.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f32` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.put_f32(v);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an `i32` via its two's-complement bit pattern.
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Appends a length-prefixed raw byte slice.
    pub fn put_bytes(&mut self, vs: &[u8]) {
        self.put_u64(vs.len() as u64);
        self.buf.extend_from_slice(vs);
    }

    /// Appends a length-prefixed `i8` slice (one byte per element).
    pub fn put_i8_slice(&mut self, vs: &[i8]) {
        self.put_u64(vs.len() as u64);
        self.buf.reserve(vs.len());
        for &v in vs {
            self.buf.push(v as u8);
        }
    }

    /// Appends a length-prefixed `i32` slice.
    pub fn put_i32_slice(&mut self, vs: &[i32]) {
        self.put_u64(vs.len() as u64);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.put_i32(v);
        }
    }
}

/// Little-endian byte-stream reader; every accessor returns an error (never
/// panics) when the stream runs dry.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `data` for reading from the start.
    #[must_use]
    pub fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "field of {n} bytes overruns section ({} left)",
                self.remaining()
            )));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u64` and checks it fits a `usize` count bounded by the
    /// bytes remaining (each element occupying at least `elem_size` bytes),
    /// so corrupted counts fail instead of driving huge allocations.
    pub fn get_count(&mut self, elem_size: usize) -> Result<usize> {
        let n = self.get_u64()?;
        let bound = self.remaining() / elem_size.max(1);
        if n as usize > bound {
            return Err(corrupt(format!(
                "count {n} exceeds the {bound} elements the section could hold"
            )));
        }
        Ok(n as usize)
    }

    /// Reads an `f32` from its stored bit pattern.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Reads a length-prefixed `f32` slice written by
    /// [`ByteWriter::put_f32_slice`].
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let n = self.get_count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string written by
    /// [`ByteWriter::put_str`].
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// Reads an `i32` from its stored bit pattern.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads a length-prefixed raw byte slice written by
    /// [`ByteWriter::put_bytes`].
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed `i8` slice written by
    /// [`ByteWriter::put_i8_slice`].
    pub fn get_i8_vec(&mut self) -> Result<Vec<i8>> {
        let n = self.get_count(1)?;
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    /// Reads a length-prefixed `i32` slice written by
    /// [`ByteWriter::put_i32_slice`].
    pub fn get_i32_vec(&mut self) -> Result<Vec<i32>> {
        let n = self.get_count(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_i32()?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// Builds a snapshot payload out of named sections.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// Creates an empty payload.
    #[must_use]
    pub fn new() -> Self {
        SectionWriter::default()
    }

    /// Appends a section. Names longer than `u16::MAX` bytes are a caller
    /// bug (all names in this workspace are short identifiers).
    ///
    /// # Panics
    ///
    /// Panics if `name` exceeds `u16::MAX` bytes.
    pub fn add(&mut self, name: &str, data: &[u8]) {
        let name_len = u16::try_from(name.len()).expect("section name too long");
        self.buf.extend_from_slice(&name_len.to_le_bytes());
        self.buf.extend_from_slice(name.as_bytes());
        self.buf
            .extend_from_slice(&(data.len() as u64).to_le_bytes());
        self.buf.extend_from_slice(data);
    }

    /// Consumes the writer, returning the payload bytes.
    #[must_use]
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }
}

/// Parsed view of a snapshot payload's sections.
#[derive(Debug)]
pub struct Sections<'a> {
    entries: Vec<(&'a str, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Parses `payload` into its sections.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] on malformed framing.
    pub fn parse(payload: &'a [u8]) -> Result<Self> {
        let mut entries = Vec::new();
        let mut pos = 0usize;
        while pos < payload.len() {
            if payload.len() - pos < 2 {
                return Err(corrupt("dangling bytes after last section"));
            }
            let name_len = u16::from_le_bytes([payload[pos], payload[pos + 1]]) as usize;
            pos += 2;
            if payload.len() - pos < name_len + 8 {
                return Err(corrupt("section header overruns payload"));
            }
            let name = std::str::from_utf8(&payload[pos..pos + name_len])
                .map_err(|_| corrupt("section name is not valid UTF-8"))?;
            pos += name_len;
            let mut len_bytes = [0u8; 8];
            len_bytes.copy_from_slice(&payload[pos..pos + 8]);
            let data_len = u64::from_le_bytes(len_bytes);
            pos += 8;
            let data_len = usize::try_from(data_len).map_err(|_| corrupt("section too large"))?;
            if payload.len() - pos < data_len {
                return Err(corrupt(format!(
                    "section `{name}` claims {data_len} bytes but only {} remain",
                    payload.len() - pos
                )));
            }
            entries.push((name, &payload[pos..pos + data_len]));
            pos += data_len;
        }
        Ok(Sections { entries })
    }

    /// The data of section `name`, if present (first match wins).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&'a [u8]> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
    }

    /// Like [`Sections::get`] but a missing section is a corruption error.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] naming the missing section.
    pub fn require(&self, name: &str) -> Result<&'a [u8]> {
        self.get(name)
            .ok_or_else(|| corrupt(format!("required section `{name}` missing")))
    }

    /// Names of all sections, in file order.
    #[must_use]
    pub fn names(&self) -> Vec<&'a str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

/// Serializes `payload` into the container format (header + CRC) under a
/// caller-chosen magic and version. The snapshot file format uses this with
/// [`MAGIC`]/[`FORMAT_VERSION`]; other artifact kinds (e.g. compiled-model
/// files in `edd-ir`) reuse the same header/CRC layout under their own
/// magic so one set of corruption checks covers every on-disk format.
#[must_use]
pub fn encode_container_as(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Serializes `payload` into the snapshot container format (header + CRC).
#[must_use]
pub fn encode_container(payload: &[u8]) -> Vec<u8> {
    encode_container_as(&MAGIC, FORMAT_VERSION, payload)
}

/// Parses and verifies a container written by [`encode_container_as`] with
/// the given magic and exactly the given version, and returns the payload.
/// A file of any other version is refused before its payload is read, so
/// no format is ever parsed with another version's layout.
///
/// # Errors
///
/// Returns the specific [`SnapshotError`] for bad magic, another version,
/// truncation, or CRC mismatch.
pub fn decode_container_as(magic: &[u8; 8], version: u32, file: &[u8]) -> Result<Vec<u8>> {
    if file.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            expected: HEADER_LEN as u64,
            got: file.len() as u64,
        });
    }
    if file[..8] != magic[..] {
        return Err(SnapshotError::BadMagic { expected: *magic });
    }
    let found = u32::from_le_bytes([file[8], file[9], file[10], file[11]]);
    if found != version {
        return Err(SnapshotError::UnsupportedVersion {
            magic: *magic,
            found,
            expected: version,
        });
    }
    let mut len_bytes = [0u8; 8];
    len_bytes.copy_from_slice(&file[12..20]);
    let payload_len = u64::from_le_bytes(len_bytes);
    if payload_len > MAX_PAYLOAD {
        return Err(corrupt(format!("implausible payload length {payload_len}")));
    }
    let stored_crc = u32::from_le_bytes([file[20], file[21], file[22], file[23]]);
    let body = &file[HEADER_LEN..];
    if (body.len() as u64) != payload_len {
        return Err(SnapshotError::Truncated {
            expected: payload_len,
            got: body.len() as u64,
        });
    }
    let computed = crc32(body);
    if computed != stored_crc {
        return Err(SnapshotError::CrcMismatch {
            stored: stored_crc,
            computed,
        });
    }
    Ok(body.to_vec())
}

/// Parses and verifies a snapshot container, returning the payload.
///
/// # Errors
///
/// Returns the specific [`SnapshotError`] for bad magic, unknown version,
/// truncation, or CRC mismatch.
pub fn decode_container(file: &[u8]) -> Result<Vec<u8>> {
    decode_container_as(&MAGIC, FORMAT_VERSION, file)
}

/// Atomically writes raw `bytes` (already containing whatever framing the
/// caller wants) to `path`: temp file in the same directory, `fsync`,
/// rename, directory `fsync`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic_raw(path: &Path, bytes: &[u8]) -> Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Durability of the rename itself: fsync the containing directory.
    // Failure here is not fatal to correctness (the rename is already
    // atomic), so fall through on platforms/filesystems that refuse it.
    if let Some(dir) = dir {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Atomically writes `payload` (wrapped in the snapshot container format)
/// to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_atomic(path: &Path, payload: &[u8]) -> Result<()> {
    write_atomic_raw(path, &encode_container(payload))
}

/// Reads, verifies, and returns the payload of the snapshot at `path`.
///
/// # Errors
///
/// Propagates I/O errors and every verification failure.
pub fn read(path: &Path) -> Result<Vec<u8>> {
    let mut bytes = Vec::new();
    fs::File::open(path)?.read_to_end(&mut bytes)?;
    decode_container(&bytes)
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

/// The extension snapshots are written with.
pub const SNAPSHOT_EXT: &str = "edds";

/// Lists the snapshot files (`*.edds`) in `dir` whose file name satisfies
/// `matches`, sorted by file name ascending (names embed zero-padded epoch
/// numbers, so lexicographic order is chronological order). A predicate
/// rather than a plain prefix, because several runs may share a directory
/// with *overlapping* prefixes (`search-…` vs `search-gpu-…`): a prefix
/// match alone cannot tell one run's snapshots from another's.
///
/// # Errors
///
/// Propagates directory-read errors; a missing directory lists as empty.
pub fn list_snapshots(dir: &Path, matches: &dyn Fn(&str) -> bool) -> std::io::Result<Vec<PathBuf>> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    for entry in entries {
        let path = entry?.path();
        let is_snap = path.extension().is_some_and(|e| e == SNAPSHOT_EXT)
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(matches);
        if is_snap {
            out.push(path);
        }
    }
    out.sort();
    Ok(out)
}

/// Deletes the oldest snapshots matching `matches` beyond the newest
/// `keep`, returning the paths removed. Only matching files are counted
/// against `keep` or deleted, so co-located snapshot families prune
/// independently. `keep == 0` is treated as 1 (never delete the snapshot
/// just written).
///
/// # Errors
///
/// Propagates directory-read and delete errors.
pub fn prune_snapshots(
    dir: &Path,
    keep: usize,
    matches: &dyn Fn(&str) -> bool,
) -> std::io::Result<Vec<PathBuf>> {
    let all = list_snapshots(dir, matches)?;
    let keep = keep.max(1);
    let excess = all.len().saturating_sub(keep);
    let mut removed = Vec::with_capacity(excess);
    for path in &all[..excess] {
        fs::remove_file(path)?;
        removed.push(path.clone());
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("edd-runtime-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn container_roundtrip() {
        let payload = b"hello snapshot".to_vec();
        let file = encode_container(&payload);
        assert_eq!(decode_container(&file).unwrap(), payload);
    }

    #[test]
    fn byte_stream_roundtrip_bit_exact() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f32(f32::from_bits(0x7FC0_1234)); // NaN with payload bits
        w.put_f32_slice(&[0.1, -0.0, f32::INFINITY]);
        w.put_str("Θ/Φ/pf");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f32().unwrap().to_bits(), 0x7FC0_1234);
        let v = r.get_f32_vec().unwrap();
        assert_eq!(v[0].to_bits(), 0.1f32.to_bits());
        assert_eq!(v[1].to_bits(), (-0.0f32).to_bits());
        assert_eq!(v[2], f32::INFINITY);
        assert_eq!(r.get_str().unwrap(), "Θ/Φ/pf");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn custom_magic_container_roundtrip() {
        const ART: [u8; 8] = *b"EDDTEST\0";
        let payload = b"artifact payload".to_vec();
        let file = encode_container_as(&ART, 3, &payload);
        assert_eq!(decode_container_as(&ART, 3, &file).unwrap(), payload);
        // A snapshot reader must not accept a foreign magic, and vice versa.
        let err = decode_container(&file).unwrap_err();
        assert!(
            matches!(err, SnapshotError::BadMagic { expected } if expected == MAGIC),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "not a snapshot file (bad magic)");
        let snap = encode_container(&payload);
        let err = decode_container_as(&ART, 3, &snap).unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { expected } if expected == ART));
        assert_eq!(err.to_string(), "not a EDDTEST file (bad magic)");
        // Version gate still applies per-format, and in both directions.
        for want in [2, 4] {
            let err = decode_container_as(&ART, want, &file).unwrap_err();
            assert!(matches!(
                err,
                SnapshotError::UnsupportedVersion { magic: ART, found: 3, expected } if expected == want
            ));
            assert_eq!(
                err.to_string(),
                format!(
                    "EDDTEST format version 3 is not supported; this build reads version {want}"
                )
            );
        }
    }

    #[test]
    fn raw_slices_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_i32(-123_456_789);
        w.put_bytes(&[0xDE, 0xAD, 0xBE]);
        w.put_i8_slice(&[-128, -1, 0, 1, 127]);
        w.put_i32_slice(&[i32::MIN, -1, 0, i32::MAX]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_i32().unwrap(), -123_456_789);
        assert_eq!(r.get_bytes().unwrap(), vec![0xDE, 0xAD, 0xBE]);
        assert_eq!(r.get_i8_vec().unwrap(), vec![-128, -1, 0, 1, 127]);
        assert_eq!(r.get_i32_vec().unwrap(), vec![i32::MIN, -1, 0, i32::MAX]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_errors_on_overrun() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.get_u64().is_err());
        // Corrupted count far beyond the data must error, not allocate.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 8);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_f32_vec().is_err());
    }

    #[test]
    fn sections_roundtrip_and_lookup() {
        let mut sw = SectionWriter::new();
        sw.add("meta", b"m");
        sw.add("weights", &[1, 2, 3, 4]);
        sw.add("empty", b"");
        let payload = sw.into_payload();
        let s = Sections::parse(&payload).unwrap();
        assert_eq!(s.names(), vec!["meta", "weights", "empty"]);
        assert_eq!(s.get("weights").unwrap(), &[1, 2, 3, 4]);
        assert_eq!(s.get("empty").unwrap(), b"");
        assert!(s.get("absent").is_none());
        assert!(s.require("absent").is_err());
    }

    #[test]
    fn sections_reject_bad_framing() {
        let mut sw = SectionWriter::new();
        sw.add("a", &[9; 16]);
        let mut payload = sw.into_payload();
        payload.truncate(payload.len() - 3);
        assert!(Sections::parse(&payload).is_err());
        assert!(Sections::parse(&[0xFF]).is_err());
    }

    #[test]
    fn decode_rejects_every_header_corruption() {
        let file = encode_container(b"payload bytes here");
        // Magic.
        let mut bad = file.clone();
        bad[0] ^= 0x01;
        assert!(matches!(
            decode_container(&bad),
            Err(SnapshotError::BadMagic { .. })
        ));
        // Version.
        let mut bad = file.clone();
        bad[8] = 0xFF;
        assert!(matches!(
            decode_container(&bad),
            Err(SnapshotError::UnsupportedVersion { .. })
        ));
        // Truncation.
        assert!(matches!(
            decode_container(&file[..file.len() - 1]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            decode_container(&file[..10]),
            Err(SnapshotError::Truncated { .. })
        ));
        // Payload bit flip.
        let mut bad = file.clone();
        *bad.last_mut().unwrap() ^= 0x80;
        assert!(matches!(
            decode_container(&bad),
            Err(SnapshotError::CrcMismatch { .. })
        ));
        // Stored-CRC bit flip.
        let mut bad = file;
        bad[20] ^= 0x40;
        assert!(matches!(
            decode_container(&bad),
            Err(SnapshotError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn write_atomic_then_read() {
        let dir = temp_dir("atomic");
        let path = dir.join("snap-00000001.edds");
        write_atomic(&path, b"state").unwrap();
        assert_eq!(read(&path).unwrap(), b"state");
        // Overwrite in place.
        write_atomic(&path, b"state2").unwrap();
        assert_eq!(read(&path).unwrap(), b"state2");
        // No temp litter.
        assert_eq!(
            list_snapshots(&dir, &|n| n.starts_with("snap-"))
                .unwrap()
                .len(),
            1
        );
        assert!(!dir.join("snap-00000001.edds.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_last_k() {
        let dir = temp_dir("retention");
        for e in 0..5 {
            write_atomic(&dir.join(format!("snap-{e:08}.edds")), &[e]).unwrap();
        }
        let snap = |n: &str| n.starts_with("snap-");
        let removed = prune_snapshots(&dir, 2, &snap).unwrap();
        assert_eq!(removed.len(), 3);
        let left = list_snapshots(&dir, &snap).unwrap();
        assert_eq!(left.len(), 2);
        assert_eq!(left.last(), Some(&dir.join("snap-00000004.edds")));
        // keep = 0 never deletes everything.
        let removed = prune_snapshots(&dir, 0, &snap).unwrap();
        assert_eq!(removed.len(), 1);
        assert_eq!(list_snapshots(&dir, &snap).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_lists_empty() {
        let dir = std::env::temp_dir().join("edd-runtime-test-definitely-absent");
        assert!(list_snapshots(&dir, &|n| n.starts_with("snap-"))
            .unwrap()
            .is_empty());
    }
}
