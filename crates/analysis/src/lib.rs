//! netdir-analysis: `ndlint`, a workspace invariant linter, plus an
//! exhaustive-interleaving model of the buffer pool's loading-frame
//! protocol.
//!
//! PRs 1–7 accumulated invariants that previously existed only as
//! reviewer folklore. This crate makes them machine-checked:
//!
//! | lint                   | invariant                                              |
//! |------------------------|--------------------------------------------------------|
//! | `clock-discipline`     | all time flows through the injectable `obs::Clock`      |
//! | `wire-tag-freeze`      | wire tag constants match `compat/wire_tags.lock`        |
//! | `metric-name-registry` | every metric-name literal is registered in `obs::names` |
//! | `no-lock-across-io`    | no lock guard held across pager disk I/O                |
//! | `panic-path`           | no `unwrap`/`expect`/`panic!` reachable from request serving |
//!
//! Exceptions live in `compat/ndlint.allow`, one rationale per entry
//! (see [`allow`]). The dynamic side — things a lexical lint cannot see
//! — is covered by [`model`], which drives the loading-frame protocol
//! through *every* interleaving of racing cold fetchers.

pub mod allow;
pub mod interleave;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod parse;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use allow::Allowlist;
use parse::SourceFile;

/// A lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Lint name (e.g. `clock-discipline`).
    pub lint: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Enclosing function, when known (used for allowlist matching).
    pub func: Option<String>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.lint, self.message
        )?;
        if let Some(func) = &self.func {
            write!(f, " (in fn {func})")?;
        }
        Ok(())
    }
}

/// Paths and roots the lints key on. The defaults describe this
/// repository; fixture tests override nothing — fixtures mirror the
/// same layout so the production configuration is what gets tested.
#[derive(Debug, Clone)]
pub struct Config {
    /// Files where raw `Instant::now`/`thread::sleep` are the point.
    pub clock_sanctum: Vec<&'static str>,
    /// File holding the frozen wire tag constants.
    pub codec_file: &'static str,
    /// The committed tag lockfile, relative to the workspace root.
    pub tag_lock: &'static str,
    /// File registering all metric names.
    pub names_file: &'static str,
    /// Files whose lock-across-I/O behaviour is audited by hand (the
    /// loading-frame protocol; see `model`).
    pub lock_audited: Vec<&'static str>,
    /// Root functions for the panic-path reachability walk.
    pub panic_roots: Vec<&'static str>,
    /// Directory prefixes the panic-path walk is confined to.
    pub panic_scope: Vec<&'static str>,
    /// The allowlist file, relative to the workspace root.
    pub allow_file: &'static str,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            clock_sanctum: vec!["crates/obs/src/clock.rs"],
            codec_file: "crates/wire/src/codec.rs",
            tag_lock: "compat/wire_tags.lock",
            names_file: "crates/obs/src/names.rs",
            lock_audited: vec!["crates/pager/src/pool.rs"],
            panic_roots: vec!["serve_conn"],
            panic_scope: vec![
                "crates/wire/src/",
                "crates/server/src/",
                "crates/journal/src/",
            ],
            allow_file: "compat/ndlint.allow",
        }
    }
}

/// The scanned workspace: every first-party `.rs` file, lexed and
/// structurally indexed.
pub struct Workspace {
    /// Absolute root.
    pub root: PathBuf,
    /// Files in sorted path order.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Load all first-party sources under `root`: `crates/*/src/**/*.rs`
    /// and the top-level `src/` if present. `compat/` (vendored shims),
    /// `target/`, and per-crate `tests/`/`examples/`/`benches/` trees
    /// are out of scope: the invariants govern the product, and
    /// integration-test style is policed by review.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates = root.join("crates");
        if crates.is_dir() {
            let mut krates: Vec<PathBuf> = fs::read_dir(&crates)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            krates.sort();
            for k in krates {
                collect_rs(&k.join("src"), root, &mut files)?;
            }
        }
        collect_rs(&root.join("src"), root, &mut files)?;
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
        })
    }

    /// Read a file relative to the workspace root.
    pub fn read_rel(&self, rel: &str) -> io::Result<String> {
        fs::read_to_string(self.root.join(rel))
    }

    /// The scanned file at `rel`, if in scope.
    pub fn file(&self, rel: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path == rel)
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<SourceFile>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            collect_rs(&p, root, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(&p)?;
            out.push(SourceFile::parse(rel, &text));
        }
    }
    Ok(())
}

/// Everything one `ndlint` run produced.
pub struct Report {
    /// Violations that survived the allowlist, in path order.
    pub violations: Vec<Diagnostic>,
    /// Findings silenced by `compat/ndlint.allow`.
    pub allowed: usize,
    /// Allow-file entries that matched nothing (stale exceptions).
    pub unused_allows: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Did the run find anything actionable?
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run every lint over the workspace at `root`.
pub fn run(root: &Path, config: &Config) -> io::Result<Report> {
    let ws = Workspace::load(root)?;
    let allow_text = ws.read_rel(config.allow_file).unwrap_or_default();
    let (allowlist, allow_errors) = Allowlist::parse(&allow_text);

    let mut raw: Vec<Diagnostic> = Vec::new();
    for (line, msg) in allow_errors {
        raw.push(Diagnostic {
            lint: "allow-file",
            file: config.allow_file.to_string(),
            line,
            col: 1,
            func: None,
            message: msg,
        });
    }
    raw.extend(lints::clock::check(&ws, config));
    raw.extend(lints::wire_tags::check(&ws, config));
    raw.extend(lints::metrics::check(&ws, config));
    raw.extend(lints::locks::check(&ws, config));
    raw.extend(lints::panics::check(&ws, config));

    let mut violations = Vec::new();
    let mut allowed = 0usize;
    for d in raw {
        if allowlist.allows(d.lint, &d.file, d.func.as_deref()) {
            allowed += 1;
        } else {
            violations.push(d);
        }
    }
    violations.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.lint).cmp(&(b.file.as_str(), b.line, b.col, b.lint))
    });
    let unused_allows = allowlist
        .unused()
        .iter()
        .map(|e| {
            format!(
                "{}:{}: unused allow entry ({} {} {})",
                config.allow_file, e.line, e.lint, e.path, e.func
            )
        })
        .collect();
    Ok(Report {
        violations,
        allowed,
        unused_allows,
        files_scanned: ws.files.len(),
    })
}
