//! Fuzzes the write-ahead manifest parser `resume` reads,
//! [`hprc_exp::recover::parse_manifest`]: arbitrary text, damaged copies
//! of a manifest the real commit path wrote, and lines nested far past
//! the JSON parser's depth limit must all come back `Ok` or `Err`,
//! never as a panic or a stack overflow.
//!
//! Where the outcome is determined, it is checked too: a cut manifest
//! keeps exactly its complete lines, two swapped entries are a seq
//! error, and whatever prefix an `Ok` keeps re-parses to the same state
//! (resume truncates the file to that prefix before appending).

use std::sync::OnceLock;

use hprc_ctx::ExecCtx;
use hprc_exp::recover::{manifest_path, parse_manifest, run_and_commit};
use hprc_obs::manifest::Manifest;
use proptest::prelude::*;
use serde_json::MAX_DEPTH;

/// The manifest a complete two-experiment run writes, produced once by
/// the same commit path the CLI uses.
fn real_manifest() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("hprc-manifest-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ids = vec!["table1".to_string(), "table2".to_string()];
        let contexts = vec![ExecCtx::default(); ids.len()];
        let path = manifest_path(&dir, "fuzz");
        let mut manifest = Manifest::create(&path, None).unwrap();
        manifest.intent("fuzz", &ids, 0, false).unwrap();
        let failures = run_and_commit(&ids, &contexts, 1, &dir, None, &mut manifest).unwrap();
        assert_eq!(failures, 0);
        manifest.run_complete().unwrap();
        drop(manifest);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        text
    })
}

/// Fragments that steer random text into the parser's deeper branches:
/// JSON syntax, the manifest's keys and events, and multi-byte text.
/// Whitespace separates them; a space and a newline are fragments too.
const TOKENS: &str = r#"
    { } [ ] , : " \ 0 1 - 1e9 null true
    "seq": "ev": "intent" "point-begin" "artifact-sealed" "point-complete"
    "run-complete" "resume" "schema": "hprc-manifest/v1" "ids": "id": "dir":
    "out" "crc": "name": "bytes": "run": "seed": "trace": é 😀
"#;

fn tokens_text(picks: &[usize]) -> String {
    let tokens: Vec<&str> = TOKENS.split_whitespace().chain([" ", "\n"]).collect();
    picks.iter().map(|&i| tokens[i % tokens.len()]).collect()
}

/// `depth` arrays or single-key objects nested around `0`.
fn nested(depth: usize, objects: bool) -> String {
    let (open, close) = if objects {
        ("{\"k\":", "}")
    } else {
        ("[", "]")
    };
    format!("{}0{}", open.repeat(depth), close.repeat(depth))
}

/// Parses `text`, which must not panic, and checks what holds of every
/// `Ok`: the kept prefix is whole lines of `text` and re-parses alone to
/// the same manifest.
fn check(text: &str) -> Result<bool, TestCaseError> {
    let Ok(parsed) = parse_manifest(text) else {
        return Ok(false);
    };
    let keep = parsed.valid_bytes;
    prop_assert!(keep <= text.len());
    prop_assert!(keep == 0 || text.as_bytes()[keep - 1] == b'\n');
    let again = parse_manifest(&text[..keep]);
    prop_assert!(again.is_ok(), "kept prefix must re-parse");
    prop_assert_eq!(format!("{:?}", again.unwrap()), format!("{parsed:?}"));
    Ok(true)
}

#[test]
fn the_real_manifest_parses_complete() {
    let text = real_manifest();
    let parsed = parse_manifest(text).unwrap();
    assert!(parsed.run_complete);
    assert_eq!(parsed.valid_bytes, text.len());
    assert_eq!(parsed.next_seq, text.lines().count() as u64);
    assert!(parsed.points.values().all(|p| p.complete));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in proptest::collection::vec(any::<usize>(), 0..96),
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        check(&tokens_text(&picks))?;
        check(&String::from_utf8_lossy(&bytes))?;
        // Random text after a valid prefix reaches the per-entry checks.
        check(&format!("{}{}", real_manifest(), tokens_text(&picks)))?;
    }

    #[test]
    fn truncation_keeps_exactly_the_complete_lines(cut in any::<usize>()) {
        let text = real_manifest();
        let cut = cut % (text.len() + 1);
        let head = &text[..cut];
        let first_line = text.find('\n').unwrap() + 1;
        let ok = check(head)?;
        prop_assert_eq!(ok, cut >= first_line, "cut at {}", cut);
        if ok {
            let parsed = parse_manifest(head).unwrap();
            prop_assert_eq!(parsed.valid_bytes, head.rfind('\n').unwrap() + 1);
            prop_assert_eq!(parsed.run_complete, cut == text.len());
        }
    }

    #[test]
    fn flipped_bytes_never_panic(flips in proptest::collection::vec((any::<usize>(), 0..8u8), 1..4)) {
        let mut bytes = real_manifest().as_bytes().to_vec();
        for (at, bit) in flips {
            let at = at % bytes.len();
            bytes[at] ^= 1 << bit;
        }
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn reordered_entries_are_a_seq_error(a in any::<usize>(), b in any::<usize>()) {
        let mut lines: Vec<&str> = real_manifest().split_inclusive('\n').collect();
        let (i, j) = (a % lines.len(), b % lines.len());
        prop_assume!(i != j && lines[i] != lines[j]);
        lines.swap(i, j);
        let text = lines.concat();
        prop_assert!(!check(&text)?, "swapped lines {} and {} must not parse", i, j);
    }
}

proptest! {
    // Each case builds megabyte-long lines; fewer cases keep it quick.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deep_nesting_is_an_error_not_an_overflow(
        shallow in 0..2 * MAX_DEPTH,
        deep in 100_000..1_000_000usize,
        objects in any::<bool>(),
        line in any::<usize>(),
    ) {
        let lines: Vec<&str> = real_manifest().split_inclusive('\n').collect();
        let at = line % lines.len();
        for depth in [shallow, deep] {
            let deep_value = nested(depth, objects);
            check(&deep_value)?;
            // As a field of an otherwise valid entry, in place of line `at`.
            let entry = format!("{{\"seq\":{at},\"ev\":\"resume\",\"salvaged\":{deep_value}}}\n");
            let mut damaged = lines.clone();
            damaged[at] = &entry;
            let ok = check(&damaged.concat())?;
            if depth >= MAX_DEPTH && at + 1 < lines.len() {
                // Too deep to parse and not the tail: never skipped.
                prop_assert!(!ok, "depth {} at line {} must fail", depth, at);
            }
        }
    }
}
