//! Fuzzes the `.crc` sidecar parser behind [`hprc_obs::artifact::verify`]:
//! whatever bytes sit in a sidecar, and whatever happened to the
//! artifact after it was sealed, `verify` must classify the pair as an
//! [`ArtifactState`] and never panic. Only the exact text `seal` writes
//! for the artifact's bytes may come back `Clean`; a truncated artifact
//! is `Torn` and a bit-flipped one `Corrupt`.
//!
//! These live at the workspace root because the obs crate's own
//! manifest is CI-guarded to its minimal dependency set (no dev-deps),
//! while the root crate already links proptest.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use hprc_obs::artifact::{crc32, seal, sidecar_path, verify};
use hprc_obs::ArtifactState;
use proptest::prelude::*;

/// A fresh artifact path in its own directory, unique per process and
/// per case; the guard removes the directory again.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "hprc-sidecar-fuzz-{tag}-{}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn artifact(&self) -> PathBuf {
        self.0.join("point.json")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// The sidecar text `seal` writes for `bytes`.
fn canonical(bytes: &[u8]) -> Vec<u8> {
    format!("{:08x} {}\n", crc32(bytes), bytes.len()).into_bytes()
}

/// Near-canonical sidecars: the sealed text with one byte replaced,
/// removed, or inserted, or cut short — the malformations random bytes
/// almost never hit.
fn mutate(mut text: Vec<u8>, op: u8, pos: usize, byte: u8) -> Vec<u8> {
    let at = pos % (text.len() + 1);
    match op % 4 {
        0 if at < text.len() => text[at] = byte,
        1 if at < text.len() => {
            text.remove(at);
        }
        2 => text.insert(at, byte),
        _ => text.truncate(at),
    }
    text
}

/// Runs `verify` on `artifact` sealed by `sidecar`, asserting the one
/// property every case shares: `Clean` only for the canonical text, and
/// then with the artifact's true CRC and length.
fn check(artifact: &[u8], sidecar: &[u8], tag: &str) -> Result<ArtifactState, TestCaseError> {
    let dir = Scratch::new(tag);
    let path = dir.artifact();
    fs::write(&path, artifact).unwrap();
    fs::write(sidecar_path(&path), sidecar).unwrap();
    let state = verify(&path);
    let expect_clean = sidecar == canonical(artifact).as_slice();
    prop_assert_eq!(state.is_clean(), expect_clean);
    if let ArtifactState::Clean { crc, bytes } = state {
        prop_assert_eq!(crc, crc32(artifact));
        prop_assert_eq!(bytes, artifact.len() as u64);
    }
    prop_assert!(state != ArtifactState::Missing);
    Ok(state)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_sidecar_bytes_never_panic(
        artifact in proptest::collection::vec(any::<u8>(), 0..64),
        sidecar in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        check(&artifact, &sidecar, "bytes")?;
    }

    #[test]
    fn near_canonical_sidecars_are_clean_only_when_exact(
        artifact in proptest::collection::vec(any::<u8>(), 0..64),
        op in any::<u8>(),
        pos in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let sidecar = mutate(canonical(&artifact), op, pos, byte);
        check(&artifact, &sidecar, "mutated")?;
    }

    #[test]
    fn truncated_or_flipped_artifacts_are_never_clean(
        artifact in proptest::collection::vec(any::<u8>(), 1..256),
        cut in any::<usize>(),
        flip in any::<usize>(),
        bit in 0..8u8,
    ) {
        let dir = Scratch::new("damaged");
        let path = dir.artifact();
        seal(&path, &artifact).unwrap();
        prop_assert!(verify(&path).is_clean());

        // Truncation changes the length: torn, caught before any read.
        let keep = cut % artifact.len();
        fs::write(&path, &artifact[..keep]).unwrap();
        let torn = verify(&path);
        prop_assert!(matches!(torn, ArtifactState::Torn(_)), "{}", torn);

        // A flipped bit keeps the length; CRC32 catches every one.
        let mut flipped = artifact.clone();
        flipped[flip % artifact.len()] ^= 1 << bit;
        fs::write(&path, &flipped).unwrap();
        let corrupt = verify(&path);
        prop_assert!(matches!(corrupt, ArtifactState::Corrupt(_)), "{}", corrupt);
    }
}
