//! The committed digest registry, `crates/bench/DIGESTS`: every pinned
//! output of the workspace (run manifests, rendered figures, wire-trace
//! captures) in one table, read by this module and nothing else.
//!
//! The table holds one `name value` line per pin, the value a decimal
//! `u64`; lines starting with `#` are comments. [`check`] is the one
//! gate. A deliberate re-pin names what it moves:
//! `REGEN_DIGESTS=name[,name…]` makes [`check`] rewrite exactly the
//! listed entries to the values it observes. There is no wildcard.
//!
//! The module is `pub` only because the integration tests under
//! `tests/` can reach nothing else.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The switch listing the entries [`check`] re-pins, comma-separated.
const REGEN_VAR: &str = "REGEN_DIGESTS";

/// Every registry read and rewrite in this process holds this lock. It
/// also records each `(file, entry, value)` a re-pin wrote, so a re-pin
/// that observes two values for one entry (a determinism break, e.g.
/// across shard counts) fails instead of keeping the last.
static REPINNED: Mutex<Vec<(PathBuf, String, u64)>> = Mutex::new(Vec::new());

fn lock() -> MutexGuard<'static, Vec<(PathBuf, String, u64)>> {
    // A failed gate panics while holding the lock; the table stays valid.
    REPINNED.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The committed table. Read at run time, not embedded, so a re-pin is
/// seen without a rebuild.
fn registry() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("DIGESTS")
}

/// The pinned value of entry `name`.
///
/// # Panics
/// If the table has a malformed line or a duplicate name, or has no
/// entry `name`; the message names the file and, for an unknown name,
/// lists the known ones.
pub fn pinned(name: &str) -> u64 {
    pinned_in(&registry(), name)
}

/// The one digest gate: `got` must equal the pinned value of `name`.
/// When `REGEN_DIGESTS` lists `name`, the entry is rewritten to `got`
/// instead (only its value changes, every other byte of the file is
/// kept) and the gate passes.
///
/// # Panics
/// On a mismatch, with the entry name, both values and the command that
/// re-pins it; on a name in `REGEN_DIGESTS` that the table lacks; and
/// wherever [`pinned`] panics.
pub fn check(name: &str, got: u64) {
    let repin = std::env::var(REGEN_VAR).unwrap_or_default();
    check_in(&registry(), name, got, &repin);
}

/// One parsed `name value` line; `span` is the value's byte range in
/// the file.
struct Entry<'a> {
    name: &'a str,
    value: u64,
    span: Range<usize>,
}

fn read(file: &Path) -> String {
    std::fs::read_to_string(file)
        .unwrap_or_else(|e| panic!("cannot read digest registry {}: {e}", file.display()))
}

fn parse<'a>(file: &Path, text: &'a str) -> Vec<Entry<'a>> {
    let mut entries: Vec<Entry<'a>> = Vec::new();
    for (number, line) in text.lines().enumerate().map(|(i, l)| (i + 1, l)) {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        // Canonical decimal only, so `awk` in CI reads the same string
        // the tests compare against.
        let value = match tokens[..] {
            [_, value] => value.parse::<u64>().ok().filter(|v| v.to_string() == value),
            _ => None,
        };
        let Some(value) = value else {
            panic!(
                "{}:{number}: malformed digest entry `{line}`; want `name value` \
                 with a decimal u64",
                file.display()
            );
        };
        let name = tokens[0];
        if entries.iter().any(|e| e.name == name) {
            panic!(
                "{}:{number}: duplicate digest entry `{name}`",
                file.display()
            );
        }
        let start = tokens[1].as_ptr() as usize - text.as_ptr() as usize;
        entries.push(Entry {
            name,
            value,
            span: start..start + tokens[1].len(),
        });
    }
    entries
}

fn lookup<'e, 'a>(file: &Path, entries: &'e [Entry<'a>], name: &str) -> &'e Entry<'a> {
    entries.iter().find(|e| e.name == name).unwrap_or_else(|| {
        let known: Vec<&str> = entries.iter().map(|e| e.name).collect();
        panic!(
            "{}: no digest entry `{name}`; known entries: {}",
            file.display(),
            known.join(", ")
        )
    })
}

fn pinned_in(file: &Path, name: &str) -> u64 {
    let _lock = lock();
    let text = read(file);
    lookup(file, &parse(file, &text), name).value
}

/// The cargo selector of the running test binary: `--test NAME` for an
/// integration test (binary `NAME-HASH`), `--lib` for this crate's unit
/// tests.
fn test_selector() -> String {
    let exe = std::env::current_exe().ok();
    let stem = exe
        .as_deref()
        .and_then(Path::file_stem)
        .and_then(|s| s.to_str());
    match stem.and_then(|s| s.rsplit_once('-')) {
        Some(("rpclens_bench", _)) => " --lib".to_string(),
        Some((test, _)) => format!(" --test {test}"),
        None => String::new(),
    }
}

fn check_in(file: &Path, name: &str, got: u64, repin: &str) {
    let mut repinned = lock();
    let text = read(file);
    let entries = parse(file, &text);
    let listed: Vec<&str> = repin
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .collect();
    for listed_name in &listed {
        lookup(file, &entries, listed_name);
    }
    let entry = lookup(file, &entries, name);
    if !listed.contains(&name) {
        assert!(
            entry.value == got,
            "digest `{name}` drifted from {}: pinned {}, observed {got}. If the \
             behaviour change is intentional, re-pin it with a changelog entry:\n  \
             {REGEN_VAR}={name} cargo test --release -p rpclens-bench{}",
            file.display(),
            entry.value,
            test_selector()
        );
        return;
    }
    match repinned.iter().find(|(f, n, _)| f == file && n == name) {
        Some(&(_, _, first)) => assert!(
            first == got,
            "{REGEN_VAR} re-pinned `{name}` to {first} in this run but then observed \
             {got}: the output is not deterministic, nothing to pin"
        ),
        None => repinned.push((file.to_path_buf(), name.to_string(), got)),
    }
    if entry.value != got {
        let rewritten = format!(
            "{}{got}{}",
            &text[..entry.span.start],
            &text[entry.span.end..]
        );
        std::fs::write(file, rewritten)
            .unwrap_or_else(|e| panic!("cannot re-pin {}: {e}", file.display()));
        eprintln!(
            "re-pinned `{name}` in {}: {} -> {got}",
            file.display(),
            entry.value
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, UnwindSafe};

    /// A private copy of the committed table plus `extra` lines; the
    /// tests never touch the committed file.
    fn scratch_copy(tag: &str, extra: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("rpclens-digests-{}-{tag}", std::process::id()));
        std::fs::write(&path, read(&registry()) + extra).expect("write scratch registry");
        path
    }

    fn panic_message(f: impl FnOnce() + UnwindSafe) -> String {
        let payload = catch_unwind(f).expect_err("expected a panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn bad_tables_and_unknown_names_panic_naming_file_and_entry() {
        for (tag, extra, name, wanted) in [
            (
                "malformed",
                "figures/extra 12x\n",
                "figures/smoke",
                "malformed digest entry `figures/extra 12x`",
            ),
            (
                "duplicate",
                "wire-trace/7 1\n",
                "figures/smoke",
                "duplicate digest entry `wire-trace/7`",
            ),
            (
                "unknown",
                "",
                "figures/default",
                "no digest entry `figures/default`; known entries: manifest/smoke, ",
            ),
        ] {
            let file = scratch_copy(tag, extra);
            let message = panic_message(|| {
                pinned_in(&file, name);
            });
            assert!(message.contains(&file.display().to_string()), "{message}");
            assert!(message.contains(wanted), "{message}");
            if tag == "unknown" {
                // A misspelt re-pin name fails too, rather than pinning
                // nothing.
                let message = panic_message(|| check_in(&file, "wire-trace/7", 1, "figures/smok"));
                assert!(message.contains("`figures/smok`"), "{message}");
            }
            let _ = std::fs::remove_file(file);
        }
    }

    #[test]
    fn mismatch_names_entry_values_and_repin_command() {
        let file = scratch_copy("mismatch", "");
        let pinned = pinned_in(&file, "manifest/chaos-smoke");
        check_in(&file, "manifest/chaos-smoke", pinned, "");
        let message = panic_message(|| check_in(&file, "manifest/chaos-smoke", 17, ""));
        for part in [
            "`manifest/chaos-smoke`",
            &format!("pinned {pinned}"),
            "observed 17",
            "REGEN_DIGESTS=manifest/chaos-smoke cargo test --release -p rpclens-bench --lib",
        ] {
            assert!(message.contains(part), "missing {part:?} in: {message}");
        }
        let _ = std::fs::remove_file(file);
    }

    #[test]
    fn repin_rewrites_only_the_listed_value() {
        let file = scratch_copy("repin", "");
        let before = read(&file);
        check_in(
            &file,
            "figures/smoke",
            12_345,
            "wire-trace/7, figures/smoke",
        );
        let after = read(&file);
        assert_eq!(pinned_in(&file, "figures/smoke"), 12_345);
        let changed: Vec<(&str, &str)> = before
            .split_inclusive('\n')
            .zip(after.split_inclusive('\n'))
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(
            changed,
            [(
                format!("figures/smoke {}\n", pinned("figures/smoke")).as_str(),
                "figures/smoke 12345\n"
            )]
        );
        assert_eq!(before.lines().count(), after.lines().count());
        // Unlisted entries still gate, against the unchanged table.
        check_in(&file, "figures/smoke", 12_345, "");
        check_in(
            &file,
            "wire-trace/42",
            pinned("wire-trace/42"),
            "figures/smoke",
        );
        // One run observing two values for a re-pinned entry fails.
        let message = panic_message(|| check_in(&file, "figures/smoke", 9, "figures/smoke"));
        assert!(message.contains("not deterministic"), "{message}");
        assert_eq!(read(&file), after);
        let _ = std::fs::remove_file(file);
    }
}
