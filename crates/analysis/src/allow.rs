//! The `compat/ndlint.allow` allowlist: parser and matcher.
//!
//! Format — one entry per line:
//!
//! ```text
//! # comment
//! <lint-name> <path> <fn|*> <rationale…>
//! ```
//!
//! * `lint-name` — one of the registered lint names (`clock-discipline`,
//!   `no-lock-across-io`, `panic-path`, `metric-name-registry`,
//!   `wire-tag-freeze`).
//! * `path` — matched against the diagnostic's workspace-relative path:
//!   a trailing `/` makes it a directory prefix, otherwise it must match
//!   the full path or a path suffix (so `disk.rs` and
//!   `crates/pager/src/disk.rs` both work).
//! * `fn` — the enclosing function name, or `*` for the whole file.
//! * `rationale` — required free text; entries without one are rejected
//!   so the file stays an *argued* exception list, not a mute button.
//!
//! Unused entries are reported at the end of a run (warning, not error)
//! so the list cannot silently outlive the code it excuses.

use std::cell::Cell;

/// One parsed allowlist entry.
#[derive(Debug)]
pub struct AllowEntry {
    /// Lint this entry silences.
    pub lint: String,
    /// Path pattern (suffix match, or prefix match with trailing `/`).
    pub path: String,
    /// Function name, or `*`.
    pub func: String,
    /// Why this exception is sound.
    pub rationale: String,
    /// Source line in the allow file (for diagnostics about the file).
    pub line: u32,
    used: Cell<bool>,
}

/// The parsed allowlist.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parse the allow-file text. Returns the list plus any format
    /// errors (`(line, message)`).
    pub fn parse(text: &str) -> (Allowlist, Vec<(u32, String)>) {
        let mut entries = Vec::new();
        let mut errors = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(4, char::is_whitespace);
            let lint = parts.next().unwrap_or("").to_string();
            let path = parts.next().unwrap_or("").to_string();
            let func = parts.next().unwrap_or("").to_string();
            let rationale = parts.next().unwrap_or("").trim().to_string();
            if path.is_empty() || func.is_empty() {
                errors.push((line_no, "expected `<lint> <path> <fn|*> <rationale>`".into()));
                continue;
            }
            if rationale.is_empty() {
                errors.push((line_no, format!("allow entry for `{lint}` has no rationale")));
                continue;
            }
            entries.push(AllowEntry {
                lint,
                path,
                func,
                rationale,
                line: line_no,
                used: Cell::new(false),
            });
        }
        (Allowlist { entries }, errors)
    }

    /// Does some entry silence `lint` at `file` inside `func`? Marks the
    /// matching entry used.
    pub fn allows(&self, lint: &str, file: &str, func: Option<&str>) -> bool {
        for e in &self.entries {
            if e.lint != lint {
                continue;
            }
            let path_hit = if let Some(dir) = e.path.strip_suffix('/') {
                file.starts_with(dir)
            } else {
                file == e.path
                    || file
                        .strip_suffix(e.path.as_str())
                        .is_some_and(|rest| rest.is_empty() || rest.ends_with('/'))
            };
            if !path_hit {
                continue;
            }
            if e.func != "*" && Some(e.func.as_str()) != func {
                continue;
            }
            e.used.set(true);
            return true;
        }
        false
    }

    /// Entries that never matched a diagnostic this run.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used.get()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "\
# latency simulation is the point of this type
clock-discipline crates/pager/src/disk.rs * LatencyDisk models real device latency
panic-path cluster.rs router startup-only accessor, unreachable from serve_conn
clock-discipline crates/bench/ * measurement harness reads wall time by design
";

    #[test]
    fn parses_and_matches() {
        let (al, errs) = Allowlist::parse(FILE);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(al.entries.len(), 3);
        assert!(al.allows("clock-discipline", "crates/pager/src/disk.rs", Some("read_page")));
        assert!(!al.allows("clock-discipline", "crates/pager/src/pool.rs", None));
        // Suffix path match requires a path-component boundary.
        assert!(al.allows("panic-path", "crates/wire/src/cluster.rs", Some("router")));
        assert!(!al.allows("panic-path", "crates/wire/src/supercluster.rs", Some("router")));
        // fn must match when not `*`.
        assert!(!al.allows("panic-path", "crates/wire/src/cluster.rs", Some("other")));
        // Directory prefix.
        assert!(al.allows("clock-discipline", "crates/bench/src/lib.rs", Some("x")));
    }

    #[test]
    fn rationale_is_mandatory() {
        let (al, errs) = Allowlist::parse("panic-path foo.rs *\n");
        assert_eq!(al.entries.len(), 0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].1.contains("rationale"));
    }

    #[test]
    fn unused_entries_are_reported() {
        let (al, _) = Allowlist::parse(FILE);
        al.allows("panic-path", "crates/wire/src/cluster.rs", Some("router"));
        let unused: Vec<u32> = al.unused().iter().map(|e| e.line).collect();
        assert_eq!(unused, vec![2, 4]);
    }
}
