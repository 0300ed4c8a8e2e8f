//! Shrink-only allowlist ledgers.
//!
//! A ledger sanctions a bounded number of known-bad sites per file:
//! `<path> <count>` entries, `#` comments, optionally followed by a
//! one-line rationale (required for the atomic and unsafe ledgers —
//! every entry must say *why* the sites are sound). The gate is
//! one-way: a source file gaining a site beyond its allowance fails,
//! and so does an entry granting more sites than remain — the ledger
//! can only shrink over time.

use crate::diag::{Diagnostic, RuleCode};
use std::path::{Path, PathBuf};

/// One `<path> <count> [rationale]` line of a ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Workspace-relative source path the allowance applies to.
    pub path: PathBuf,
    /// Number of sanctioned sites in that file.
    pub count: usize,
    /// Why the sites are sound (empty unless the ledger requires it).
    pub rationale: String,
    /// 1-based line of the entry in the ledger file, so overshoot
    /// diagnostics can point at the entry itself.
    pub line: usize,
}

/// A parsed ledger file.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// File name under the ledger directory (`allowlist.txt`, …).
    pub name: &'static str,
    /// Parsed entries in file order.
    pub entries: Vec<LedgerEntry>,
}

impl Ledger {
    /// The allowance for `path` (0 when absent).
    pub fn allowance(&self, path: &Path) -> usize {
        self.entries.iter().find(|e| e.path == path).map_or(0, |e| e.count)
    }
}

/// Which ledger a rule reads and how its findings are worded.
pub struct LedgerSpec {
    /// Ledger file name under the ledger directory.
    pub file: &'static str,
    /// Rule the ledger belongs to.
    pub code: RuleCode,
    /// What the forbidden construct is, for messages.
    pub what: &'static str,
    /// What to do instead of growing the ledger.
    pub advice: &'static str,
    /// Whether every entry must carry a rationale.
    pub rationale_required: bool,
}

/// The five ledgers the workspace gate reads.
pub const LEDGERS: [LedgerSpec; 5] = [
    LedgerSpec {
        file: "allowlist.txt",
        code: RuleCode::L001UnwrapExpect,
        what: "`.unwrap()`/`.expect(` in library code",
        advice: "propagate the error instead",
        rationale_required: false,
    },
    LedgerSpec {
        file: "instant_allowlist.txt",
        code: RuleCode::L005ClockOutsideObs,
        what: "direct `Instant::now()`/`SystemTime::now()` outside nshd-obs",
        advice: "route timing through `nshd_obs::clock::now()`",
        rationale_required: false,
    },
    LedgerSpec {
        file: "thread_allowlist.txt",
        code: RuleCode::L006AdHocThread,
        what: "ad-hoc thread creation outside the sanctioned sites",
        advice: "use `nshd_tensor::par` for data parallelism; serving threads belong to the \
                 nshd-runtime collector and the nshd-net server",
        rationale_required: false,
    },
    LedgerSpec {
        file: "atomic_allowlist.txt",
        code: RuleCode::L008UnledgeredAtomic,
        what: "atomic `Ordering::` site",
        advice: "every memory-ordering choice is a reviewed decision: ledger the site with a \
                 one-line rationale in crates/xtask/atomic_allowlist.txt, or use a lock",
        rationale_required: true,
    },
    LedgerSpec {
        file: "unsafe_allowlist.txt",
        code: RuleCode::L009UnsafeAudit,
        what: "`unsafe` code",
        advice: "keep the workspace safe Rust; a genuinely necessary block needs an adjacent \
                 `// SAFETY:` comment and a rationale entry in crates/xtask/unsafe_allowlist.txt",
        rationale_required: true,
    },
];

/// Parses `dir/<spec.file>`. Zero counts, duplicate paths, malformed
/// lines, and (where required) missing rationales are hard errors —
/// the same conditions `xtask ledgers` asserts in CI.
pub fn parse_ledger(dir: &Path, spec: &LedgerSpec) -> Result<Ledger, String> {
    let path = dir.join(spec.file);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut entries: Vec<LedgerEntry> = Vec::new();
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Fields are separated by whitespace *runs* (entries align
        // their counts into columns); the rationale is everything
        // after the count.
        let mut rest = line;
        let (Some(file), Some(count)) = (take_field(&mut rest), take_field(&mut rest)) else {
            return Err(format!("{}:{}: expected `<path> <count> [rationale]`", spec.file, no + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{}:{}: `{count}` is not a count", spec.file, no + 1))?;
        if count == 0 {
            return Err(format!("{}:{}: zero-count entries must be removed", spec.file, no + 1));
        }
        let rationale = rest.trim().to_string();
        if spec.rationale_required && rationale.is_empty() {
            return Err(format!(
                "{}:{}: entry needs a one-line rationale after the count",
                spec.file,
                no + 1
            ));
        }
        let path = PathBuf::from(file);
        if entries.iter().any(|e| e.path == path) {
            return Err(format!(
                "{}:{}: duplicate entry for {}; merge the counts",
                spec.file,
                no + 1,
                path.display()
            ));
        }
        entries.push(LedgerEntry { path, count, rationale, line: no + 1 });
    }
    Ok(Ledger { name: spec.file, entries })
}

/// Takes the next whitespace-delimited field off the front of `rest`,
/// or `None` when nothing remains.
fn take_field<'a>(rest: &mut &'a str) -> Option<&'a str> {
    let trimmed = rest.trim_start();
    if trimmed.is_empty() {
        *rest = trimmed;
        return None;
    }
    let end = trimmed.find(char::is_whitespace).unwrap_or(trimmed.len());
    let (field, tail) = trimmed.split_at(end);
    *rest = tail;
    Some(field)
}

/// Compares found sites against a ledger. New sites beyond the
/// allowance are reported at their source line; an allowance larger
/// than reality is reported as a dedicated ledger-entry finding at the
/// ledger file itself (`ledger_path`) and the entry's line — not a
/// bogus `path:0:` source location.
pub fn check_ledger(
    ledger: &Ledger,
    spec: &LedgerSpec,
    counts: &[(PathBuf, Vec<usize>)],
    ledger_path: &Path,
    out: &mut Vec<Diagnostic>,
) {
    for (path, lines) in counts {
        let allowed = ledger.allowance(path);
        if lines.len() > allowed {
            for &line in &lines[allowed..] {
                out.push(Diagnostic::error(
                    spec.code,
                    path.clone(),
                    line,
                    format!("{} ({} site(s), {} allowlisted)", spec.what, lines.len(), allowed),
                    spec.advice,
                ));
            }
        }
    }
    for entry in &ledger.entries {
        let actual =
            counts.iter().find(|(p, _)| *p == entry.path).map_or(0, |(_, lines)| lines.len());
        if actual < entry.count {
            out.push(Diagnostic::error(
                spec.code,
                ledger_path.to_path_buf(),
                entry.line,
                format!(
                    "ledger entry grants {} site(s) of {} in {} but only {actual} remain",
                    entry.count,
                    spec.what,
                    entry.path.display()
                ),
                format!("shrink the entry to {actual} (ledgers are one-way: they may only shrink)"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> &'static LedgerSpec {
        &LEDGERS[3] // atomic: rationale required
    }

    fn write_ledger(dir: &Path, body: &str) {
        std::fs::write(dir.join(spec().file), body).expect("write ledger");
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nshd-lint-ledger-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    #[test]
    fn parses_counts_and_rationales() {
        let dir = tempdir("ok");
        write_ledger(&dir, "# comment\ncrates/a/src/x.rs 2  relaxed counter, no invariants\n");
        let ledger = parse_ledger(&dir, spec()).expect("parse");
        assert_eq!(ledger.entries.len(), 1);
        let e = &ledger.entries[0];
        assert_eq!((e.count, e.line), (2, 2));
        assert_eq!(e.rationale, "relaxed counter, no invariants");
    }

    #[test]
    fn rejects_zero_duplicate_and_missing_rationale() {
        let dir = tempdir("bad");
        for (body, needle) in [
            ("crates/a.rs 0 x\n", "zero-count"),
            ("crates/a.rs 1 x\ncrates/a.rs 2 y\n", "duplicate"),
            ("crates/a.rs 1\n", "rationale"),
            ("crates/a.rs\n", "expected"),
        ] {
            write_ledger(&dir, body);
            let err = parse_ledger(&dir, spec()).expect_err(body);
            assert!(err.contains(needle), "{body:?}: {err}");
        }
    }

    #[test]
    fn overshoot_points_at_the_ledger_entry_line() {
        let ledger = Ledger {
            name: spec().file,
            entries: vec![LedgerEntry {
                path: PathBuf::from("crates/a/src/x.rs"),
                count: 3,
                rationale: "why".into(),
                line: 7,
            }],
        };
        let counts = vec![(PathBuf::from("crates/a/src/x.rs"), vec![10])];
        let mut out = Vec::new();
        let at = PathBuf::from("crates/xtask/atomic_allowlist.txt");
        check_ledger(&ledger, spec(), &counts, &at, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].path, at);
        assert_eq!(out[0].line, 7);
        assert!(out[0].message.contains("only 1 remain"), "{}", out[0].message);
    }

    #[test]
    fn new_sites_beyond_allowance_point_at_source_lines() {
        let ledger = Ledger {
            name: spec().file,
            entries: vec![LedgerEntry {
                path: PathBuf::from("crates/a/src/x.rs"),
                count: 1,
                rationale: "why".into(),
                line: 1,
            }],
        };
        let counts = vec![(PathBuf::from("crates/a/src/x.rs"), vec![4, 9])];
        let mut out = Vec::new();
        check_ledger(&ledger, spec(), &counts, Path::new("l.txt"), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!((out[0].path.clone(), out[0].line), (PathBuf::from("crates/a/src/x.rs"), 9));
    }
}
