//! Host crate for the cross-crate integration tests in `tests/`.
//!
//! Also home of the golden-hash helper shared by the invariant oracles
//! and the scenario conformance matrix.

#![forbid(unsafe_code)]

use std::sync::Mutex;

/// Serializes golden-file rewrites when `UPDATE_GOLDEN=1` (tests run on
/// parallel threads within one process).
static GOLDEN_LOCK: Mutex<()> = Mutex::new(());

/// Compare `hash` against the golden entry `name` in the file at
/// `golden_path`, or record it when `UPDATE_GOLDEN=1` is set. `header`
/// is the comment line written when creating the file from scratch.
///
/// # Panics
///
/// Panics (failing the calling test) when the entry is absent or the
/// hash diverges from the recorded golden value.
pub fn check_golden_in(golden_path: &str, header: &str, name: &str, hash: u64) {
    let _guard = GOLDEN_LOCK.lock().unwrap();
    let text = std::fs::read_to_string(golden_path).unwrap_or_default();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let mut lines: Vec<String> = text
            .lines()
            .filter(|l| l.starts_with('#') || l.split_whitespace().next() != Some(name))
            .map(String::from)
            .collect();
        if lines.is_empty() {
            lines.push(format!("# {header}"));
        }
        lines.push(format!("{name} {hash:016x}"));
        lines.sort_by_key(|l| !l.starts_with('#')); // comments first, then entries
        std::fs::write(golden_path, lines.join("\n") + "\n").expect("write goldens");
        return;
    }
    let want = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().expect("hash column").to_string())
        })
        .unwrap_or_else(|| {
            panic!("no golden entry {name:?} in {golden_path}; run with UPDATE_GOLDEN=1")
        });
    assert_eq!(
        format!("{hash:016x}"),
        want,
        "hash for {name:?} diverged from the golden snapshot in {golden_path} — \
         if the event sequence changed intentionally, regenerate with UPDATE_GOLDEN=1"
    );
}

/// FNV-1a of a whole text: the fingerprint `golden/log_hashes.txt`
/// records of a run's `log.txt` contents.
pub fn fnv1a_text(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
