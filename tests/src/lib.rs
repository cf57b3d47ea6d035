//! Host crate for the cross-crate integration tests in `tests/`.
//!
//! Also home of the golden-hash helper shared by the invariant oracles
//! and the scenario conformance matrix.

#![forbid(unsafe_code)]

use std::sync::Mutex;

use cs_proto::SessionRecord;
use cs_sim::SimTime;

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

/// The ground-truth session table as text: one line per record in
/// node-id order, every [`SessionRecord`] field in declaration order
/// (times in µs, `-` for an absent one). The destructuring is
/// exhaustive, so a new field cannot be left out of
/// `golden/session_hashes.txt` silently.
pub fn session_table_text(sessions: &[SessionRecord]) -> String {
    use std::fmt::Write;
    let time = |t: Option<SimTime>| t.map_or("-".to_string(), |t| t.as_micros().to_string());
    let mut out = String::new();
    for rec in sessions {
        let SessionRecord {
            user,
            node,
            class,
            upload,
            retry_index,
            join,
            start_sub,
            ready,
            leave,
            reason,
            up_bytes,
            down_bytes,
            due,
            missed,
            adaptations,
        } = *rec;
        writeln!(
            out,
            "{} {} {class:?} {} {retry_index} {} {} {} {} {reason:?} {up_bytes} {down_bytes} {due} {missed} {adaptations}",
            user.0,
            node.0,
            upload.as_bps(),
            join.as_micros(),
            time(start_sub),
            time(ready),
            time(leave),
        )
        .expect("writing to a String cannot fail");
    }
    out
}

/// FNV-1a of a whole text: the fingerprint `golden/log_hashes.txt`
/// records of a run's `log.txt` contents.
pub fn fnv1a_text(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
