//! Atomic, checksummed artifact IO: the durability primitive under the
//! crash-safe run layer.
//!
//! Every run artifact is written with [`write_atomic`] (write to a
//! `*.tmp` sibling, fsync, rename over the destination, fsync the
//! parent directory) so a crash at any instant leaves either the old
//! bytes or the new bytes on disk — never a torn prefix. [`seal`]
//! additionally records a CRC32 + length sidecar (`<name>.crc`), and
//! [`verify`] classifies what a reader finds:
//!
//! * [`ArtifactState::Clean`] — the bytes match the seal exactly;
//! * [`ArtifactState::Torn`] — the seal is missing, unreadable or
//!   malformed, the artifact is unreadable or not a regular file, or the
//!   length disagrees (truncation, interrupted seal);
//! * [`ArtifactState::Corrupt`] — the length matches but the checksum
//!   does not (bit rot, in-place mutation);
//! * [`ArtifactState::Missing`] — no artifact at all.
//!
//! `hprc-exp resume` salvages a sweep point only when every one of its
//! sealed artifacts verifies `Clean`; anything else is re-executed.

use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial).
///
/// Hand-rolled because `hprc-obs` stays dependency-free by design (the
/// CI `obs-zero-deps` job pins it).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Extends a finished CRC32 `crc` (of some prefix) over `bytes`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)`, and `0` is the CRC of
/// the empty prefix. This is what lets [`verify`] checksum a file in
/// chunks.
///
/// Slicing-by-16: each step folds 16 input bytes through 16 lookup
/// tables at once instead of one byte through one table, which breaks
/// the byte-to-byte dependency chain of the classic loop.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 16] = crc32_tables();
    let mut c = !crc;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = TABLES[15][(lo & 0xFF) as usize]
            ^ TABLES[14][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[13][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[12][(lo >> 24) as usize];
        for (k, &byte) in b[4..].iter().enumerate() {
            c ^= TABLES[11 - k][byte as usize];
        }
    }
    for &byte in blocks.remainder() {
        c = TABLES[0][((c ^ byte as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC
/// register contribution of byte `i` followed by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The `<name>.crc` sidecar path for an artifact.
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".crc");
    PathBuf::from(os)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync the parent directory so the rename itself is durable. Best
/// effort: not every platform lets a directory be opened and synced,
/// and a failure here only widens the crash window, it can never tear
/// the artifact.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

/// Writes `bytes` to `path` atomically: `<path>.tmp`, fsync, rename,
/// then a parent-directory fsync. A crash at any point leaves the
/// previous contents of `path` (or nothing) — never a torn prefix.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent(path);
    Ok(())
}

/// Writes `bytes` to `path` atomically and records a `<name>.crc`
/// sidecar (`"<crc32 hex> <length>\n"`, itself written atomically).
/// Returns the CRC32 of `bytes`.
///
/// The artifact lands before its seal, so an interruption between the
/// two leaves a stale or missing sidecar — which [`verify`] classifies
/// as not-`Clean`, and resume re-executes the point. Re-sealing the
/// same bytes converges back to `Clean`.
pub fn seal(path: &Path, bytes: &[u8]) -> io::Result<u32> {
    let crc = crc32(bytes);
    write_atomic(path, bytes)?;
    write_atomic(
        &sidecar_path(path),
        format!("{crc:08x} {}\n", bytes.len()).as_bytes(),
    )?;
    Ok(crc)
}

/// What [`verify`] found on disk for a sealed artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactState {
    /// Bytes match the seal: safe to salvage.
    Clean {
        /// CRC32 of the artifact bytes (== the sealed value).
        crc: u32,
        /// Artifact length in bytes (== the sealed value).
        bytes: u64,
    },
    /// The seal is missing, unreadable or malformed, the artifact cannot
    /// be read as a regular file, or the length disagrees — truncation or
    /// an interrupted seal. The reason is human-readable.
    Torn(String),
    /// The length matches the seal but the checksum does not — the
    /// content was altered in place. The reason is human-readable.
    Corrupt(String),
    /// No artifact on disk.
    Missing,
}

impl ArtifactState {
    /// True only for [`ArtifactState::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, ArtifactState::Clean { .. })
    }
}

impl fmt::Display for ArtifactState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactState::Clean { crc, bytes } => write!(f, "clean (crc {crc:08x}, {bytes} B)"),
            ArtifactState::Torn(reason) => write!(f, "torn: {reason}"),
            ArtifactState::Corrupt(reason) => write!(f, "corrupt: {reason}"),
            ArtifactState::Missing => write!(f, "missing"),
        }
    }
}

/// Bytes [`verify`] reads per step: large artifacts stream through one
/// buffer of this size instead of being read whole.
const VERIFY_CHUNK: usize = 1 << 20;

/// The longest sidecar [`seal`] writes: 8 hex digits, a space, a `u64`
/// length in decimal, a newline.
const SEAL_MAX_BYTES: u64 = 8 + 1 + 20 + 1;

/// Parses a sidecar strictly as the exact text [`seal`] writes,
/// `"{8 lowercase hex} {decimal length}\n"`: no sign, no leading zeros,
/// no extra whitespace or tokens.
fn parse_seal(text: &str) -> Option<(u32, u64)> {
    let (hex, len) = text.strip_suffix('\n')?.split_once(' ')?;
    let hex_ok = hex.len() == 8 && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    let len_ok = len.bytes().all(|b| b.is_ascii_digit()) && (len == "0" || !len.starts_with('0'));
    if !(hex_ok && len_ok) {
        return None;
    }
    Some((u32::from_str_radix(hex, 16).ok()?, len.parse().ok()?))
}

/// Reads and parses the `<name>.crc` sidecar of `path`; the error is the
/// human-readable `Torn` reason.
fn read_seal(path: &Path) -> Result<(u32, u64), String> {
    let mut raw = Vec::new();
    match fs::File::open(sidecar_path(path))
        .and_then(|f| f.take(SEAL_MAX_BYTES + 1).read_to_end(&mut raw))
    {
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err("no .crc sidecar".to_string()),
        Err(e) => return Err(format!("unreadable .crc sidecar: {e}")),
    }
    let text = String::from_utf8(raw).map_err(|e| format!("unreadable .crc sidecar: {e}"))?;
    parse_seal(&text).ok_or_else(|| format!("unparseable .crc sidecar: {:?}", text.trim()))
}

/// Streams `file` through [`crc32_update`] in [`VERIFY_CHUNK`] steps and
/// returns the CRC and the number of bytes read.
fn crc32_stream(file: &mut fs::File) -> io::Result<(u32, u64)> {
    let mut buf = vec![0u8; VERIFY_CHUNK];
    let (mut crc, mut len) = (0u32, 0u64);
    loop {
        match file.read(&mut buf) {
            Ok(0) => return Ok((crc, len)),
            Ok(n) => {
                crc = crc32_update(crc, &buf[..n]);
                len += n as u64;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Reads `path` and its `<name>.crc` sidecar and classifies the result.
/// Never panics; every failure mode maps to a non-`Clean` state.
///
/// A length mismatch is caught from the file's metadata before any data
/// is read; otherwise the bytes stream through a fixed buffer, and the
/// length is checked again against what was actually read (the file may
/// change between the two).
pub fn verify(path: &Path) -> ArtifactState {
    let mut file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return ArtifactState::Missing,
        Err(e) => return ArtifactState::Torn(format!("unreadable: {e}")),
    };
    let (sealed_crc, sealed_len) = match read_seal(path) {
        Ok(seal) => seal,
        Err(reason) => return ArtifactState::Torn(reason),
    };
    match file.metadata() {
        Ok(meta) if !meta.is_file() => {
            return ArtifactState::Torn("not a regular file".to_string())
        }
        Ok(meta) if meta.len() != sealed_len => {
            return ArtifactState::Torn(format!("length {} != sealed {sealed_len}", meta.len()))
        }
        Ok(_) => {}
        Err(e) => return ArtifactState::Torn(format!("unreadable: {e}")),
    }
    let (actual, len) = match crc32_stream(&mut file) {
        Ok(read) => read,
        Err(e) => return ArtifactState::Torn(format!("unreadable: {e}")),
    };
    if len != sealed_len {
        return ArtifactState::Torn(format!("length {len} != sealed {sealed_len}"));
    }
    if actual != sealed_crc {
        return ArtifactState::Corrupt(format!("crc {actual:08x} != sealed {sealed_crc:08x}"));
    }
    ArtifactState::Clean {
        crc: sealed_crc,
        bytes: sealed_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hprc-artifact-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The oracle: CRC-32/IEEE one bit at a time, straight from the
    /// polynomial, sharing no table or code with [`crc32`].
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Deterministic test randomness: one splitmix64 step.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len).map(|_| splitmix64(&mut state) as u8).collect()
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_matches_the_bitwise_oracle_at_every_offset_and_length() {
        // Every `len % 16` remainder at every start offset 0..16 (every
        // misalignment of the 16-byte blocks against the buffer).
        let buf = random_bytes(1, 256 + 16);
        for len in 0..=256 {
            for off in 0..16 {
                let slice = &buf[off..off + len];
                assert_eq!(crc32(slice), crc32_bitwise(slice), "len {len} off {off}");
            }
        }
        // Random inputs of 0..=4096 bytes, each at all 16 offsets.
        let mut rng = 2;
        for case in 0..64 {
            let len = (splitmix64(&mut rng) % 4097) as usize;
            let buf = random_bytes(splitmix64(&mut rng), len + 16);
            for off in 0..16 {
                let slice = &buf[off..off + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "case {case} len {len} off {off}"
                );
            }
        }
    }

    #[test]
    fn crc32_update_is_invariant_to_where_the_input_splits() {
        for (seed, len) in [(3u64, 0usize), (4, 1), (5, 15), (6, 16), (7, 17), (8, 333)] {
            let buf = random_bytes(seed, len);
            let whole = crc32(&buf);
            for split in 0..=len {
                let (a, b) = buf.split_at(split);
                assert_eq!(crc32_update(crc32(a), b), whole, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sidecars_parse_only_in_the_exact_sealed_format() {
        assert_eq!(parse_seal("cbf43926 9\n"), Some((0xCBF4_3926, 9)));
        assert_eq!(parse_seal("00000000 0\n"), Some((0, 0)));
        let longest = format!("ffffffff {}\n", u64::MAX);
        assert_eq!(longest.len() as u64, SEAL_MAX_BYTES);
        assert_eq!(parse_seal(&longest), Some((u32::MAX, u64::MAX)));
        for bad in [
            "cbf43926 9",     // no newline
            "cbf43926 9\n\n", // extra line
            "cbf43926 9 x\n", // trailing token
            "cbf43926  9\n",  // double space
            " cbf43926 9\n",  // leading space
            "cbf43926 +9\n",  // sign
            "cbf43926 09\n",  // leading zero
            "cbf43926 -1\n",
            "CBF43926 9\n",  // uppercase hex
            "cbf4392 9\n",   // short hex
            "0cbf43926 9\n", // long hex
            "cbf43926 \n",
            "cbf43926 99999999999999999999\n", // > u64::MAX
            "",
        ] {
            assert_eq!(parse_seal(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn an_unreadable_sidecar_is_torn_not_missing() {
        let dir = tmp_dir("unreadable");
        let path = dir.join("r.json");
        seal(&path, b"payload").unwrap();
        // Not UTF-8.
        fs::write(sidecar_path(&path), [0xFFu8, 0xFE, b'\n']).unwrap();
        match verify(&path) {
            ArtifactState::Torn(reason) => {
                assert!(reason.starts_with("unreadable .crc sidecar: "), "{reason}")
            }
            other => panic!("non-UTF-8 sidecar must be torn, got {other}"),
        }
        // Exists but cannot be read as a file.
        fs::remove_file(sidecar_path(&path)).unwrap();
        fs::create_dir(sidecar_path(&path)).unwrap();
        match verify(&path) {
            ArtifactState::Torn(reason) => {
                assert!(reason.starts_with("unreadable .crc sidecar: "), "{reason}")
            }
            other => panic!("directory sidecar must be torn, got {other}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_directory_in_place_of_the_artifact_is_never_clean() {
        let dir = tmp_dir("isdir");
        let path = dir.join("r.json");
        fs::create_dir(&path).unwrap();
        assert!(!verify(&path).is_clean(), "no sidecar");
        // Even a sidecar claiming the directory's own metadata length.
        let len = fs::metadata(&path).unwrap().len();
        fs::write(sidecar_path(&path), format!("{:08x} {len}\n", crc32(b""))).unwrap();
        assert_eq!(
            verify(&path),
            ArtifactState::Torn("not a regular file".to_string())
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn multi_chunk_artifacts_stream_and_classify_like_small_ones() {
        let dir = tmp_dir("large");
        let path = dir.join("big.jsonl");
        let payload = random_bytes(9, 3 * VERIFY_CHUNK);
        let crc = seal(&path, &payload).unwrap();
        assert_eq!(crc, crc32_bitwise(&payload));
        assert_eq!(
            verify(&path),
            ArtifactState::Clean {
                crc,
                bytes: payload.len() as u64
            }
        );
        // One bit flipped in the last chunk: same length, wrong CRC.
        let mut flipped = payload.clone();
        flipped[3 * VERIFY_CHUNK - 7] ^= 0x10;
        fs::write(&path, &flipped).unwrap();
        assert!(matches!(verify(&path), ArtifactState::Corrupt(_)));
        // One byte removed, one byte appended: length mismatch.
        fs::write(&path, &payload[..payload.len() - 1]).unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        let mut longer = payload.clone();
        longer.push(0);
        fs::write(&path, &longer).unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        // Re-sealing converges back to clean.
        seal(&path, &payload).unwrap();
        assert!(verify(&path).is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_whole_contents_and_leaves_no_tmp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("a.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second contents");
        assert!(!tmp_path(&path).exists(), "tmp renamed away");
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn seal_then_verify_is_clean() {
        let dir = tmp_dir("seal");
        let path = dir.join("r.json");
        let crc = seal(&path, b"{\"x\": 1}\n").unwrap();
        match verify(&path) {
            ArtifactState::Clean { crc: c, bytes } => {
                assert_eq!(c, crc);
                assert_eq!(bytes, 9);
            }
            other => panic!("expected clean, got {other}"),
        }
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn truncation_is_torn_and_bit_flips_are_corrupt() {
        let dir = tmp_dir("classify");
        let path = dir.join("r.csv");
        seal(&path, b"label,x,y\na,1,2\n").unwrap();
        // Truncate: length mismatch -> Torn.
        fs::write(&path, b"label,x,y\n").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        // Same-length mutation: checksum mismatch -> Corrupt.
        fs::write(&path, b"label,x,y\nb,1,2\n").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Corrupt(_)));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_pieces_classify_as_missing_or_torn() {
        let dir = tmp_dir("missing");
        let path = dir.join("r.json");
        assert_eq!(verify(&path), ArtifactState::Missing);
        // Artifact without a sidecar (e.g. a pre-manifest writer).
        fs::write(&path, b"{}").unwrap();
        assert!(matches!(verify(&path), ArtifactState::Torn(_)));
        // Garbage sidecars, including near-misses of the sealed format:
        // the right CRC and length plus a trailing token, or a sign.
        let crc = crc32(b"{}");
        for text in [
            "not a seal".to_string(),
            format!("{crc:08x} 2 extra\n"),
            format!("{crc:08x} +2\n"),
        ] {
            fs::write(sidecar_path(&path), &text).unwrap();
            assert_eq!(
                verify(&path),
                ArtifactState::Torn(format!("unparseable .crc sidecar: {:?}", text.trim())),
            );
        }
        fs::write(sidecar_path(&path), format!("{crc:08x} 2\n")).unwrap();
        assert!(verify(&path).is_clean());
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resealing_identical_bytes_converges_to_clean() {
        let dir = tmp_dir("reseal");
        let path = dir.join("r.json");
        seal(&path, b"stable").unwrap();
        // Simulate a crash after the artifact rename but before the
        // sidecar update: re-seal with the same bytes must verify.
        seal(&path, b"stable").unwrap();
        assert!(verify(&path).is_clean());
        fs::remove_dir_all(dir).unwrap();
    }
}
