//! The lint registry: stable IDs, names, default levels, and per-run
//! level configuration.
//!
//! Every class of problem the analyzer can report is a [`Lint`] with a
//! stable `SBxxx` ID. IDs are append-only: a lint is never renumbered and
//! never reused, so `--allow`/`--deny` flags, CI suppressions, and JSON
//! consumers keep working across releases. [`LintConfig`] carries the
//! per-run overrides (`allow`/`warn`/`deny` by ID).

use std::collections::BTreeMap;
use std::fmt;

/// How a diagnostic is treated for exit-code and filtering purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Suppressed: the diagnostic is not reported at all.
    Allow,
    /// Reported; the script may still run.
    Warn,
    /// Reported; the script is refused (`sb-lint` exits 1, `sb-run`
    /// refuses to launch).
    Deny,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Allow => write!(f, "allow"),
            Level::Warn => write!(f, "warning"),
            Level::Deny => write!(f, "error"),
        }
    }
}

/// One registered lint: a stable ID, a short kebab-case name, the default
/// level, and a one-line summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lint {
    /// Stable `SBxxx` identifier (append-only, never reused).
    pub id: &'static str,
    /// Short kebab-case name shown next to the ID.
    pub name: &'static str,
    /// Level when no override is configured.
    pub default_level: Level,
    /// One-line description for `--help`-style listings and docs.
    pub summary: &'static str,
}

/// Every lint ID ever registered, in ID order. A retired lint keeps its
/// entry at [`Level::Allow`] and is never emitted.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "SB000",
        name: "script-error",
        default_level: Level::Deny,
        summary: "the script does not parse, or a component rejects its arguments outright",
    },
    Lint {
        id: "SB001",
        name: "no-writer",
        default_level: Level::Deny,
        summary: "a stream is read but nothing writes it; its readers block forever",
    },
    Lint {
        id: "SB002",
        name: "no-reader",
        default_level: Level::Warn,
        summary: "a stream is written but nothing reads it; the writer stalls when its queue fills",
    },
    Lint {
        id: "SB003",
        name: "multiple-writers",
        default_level: Level::Deny,
        summary: "two components write the same stream; a stream has exactly one writer group",
    },
    Lint {
        id: "SB004",
        name: "duplicate-subscription",
        default_level: Level::Allow,
        summary: "retired, never emitted: it flagged two components sharing one reader group; \
                  each component now reads under its own workflow label",
    },
    Lint {
        id: "SB005",
        name: "subscription-cycle",
        default_level: Level::Deny,
        summary: "components subscribe to each other in a cycle: a guaranteed deadlock",
    },
    Lint {
        id: "SB006",
        name: "contract-violation",
        default_level: Level::Deny,
        summary: "a component's declared contract provably fails on its input specs",
    },
    Lint {
        id: "SB007",
        name: "degenerate-bins",
        default_level: Level::Warn,
        summary: "more histogram bins than the input can have elements",
    },
    Lint {
        id: "SB008",
        name: "over-decomposition",
        default_level: Level::Deny,
        summary: "more ranks than the partitioned dimension has slices",
    },
    Lint {
        id: "SB009",
        name: "cadence-mismatch",
        default_level: Level::Deny,
        summary: "a join reads streams with provably different step counts; the slower side \
                  ends the join early or the faster side deadlocks",
    },
    Lint {
        id: "SB010",
        name: "starved-writer",
        default_level: Level::Allow,
        summary: "retired, never emitted: it flagged a writer declaring more reader groups than \
                  the script subscribes; the workflow now derives each stream's count",
    },
    Lint {
        id: "SB011",
        name: "restart-unsound",
        default_level: Level::Deny,
        summary: "a Restart policy on a stateful component: upstream cannot replay committed \
                  steps, so the restarted component recomputes from a silently truncated window",
    },
    Lint {
        id: "SB012",
        name: "degrade-terminal",
        default_level: Level::Warn,
        summary: "a Degrade policy on a terminal sink: the workflow finishes 'successfully' \
                  with its results silently truncated",
    },
    Lint {
        id: "SB013",
        name: "zero-restart-budget",
        default_level: Level::Warn,
        summary: "a Restart policy with max_restarts = 0 behaves exactly like Abort",
    },
    Lint {
        id: "SB014",
        name: "unknown-policy-target",
        default_level: Level::Deny,
        summary: "a fault policy names a component the script does not define",
    },
    Lint {
        id: "SB015",
        name: "invalid-partition",
        default_level: Level::Deny,
        summary: "the process plan does not assign every component to exactly one process",
    },
    Lint {
        id: "SB016",
        name: "bad-transport",
        default_level: Level::Deny,
        summary: "a cross-process stream has no usable transport endpoint (tcp:// or shm://)",
    },
    Lint {
        id: "SB017",
        name: "wire-amplification",
        default_level: Level::Warn,
        summary: "the estimated bytes-on-the-wire per payload byte of a cross-process stream \
                  exceeds the threshold",
    },
    Lint {
        id: "SB018",
        name: "spec-unknown-key",
        default_level: Level::Allow,
        summary: "retired, never emitted: it flagged unknown keys of the deleted declarative \
                  spec language; an unknown `#@` directive is an SB000 line error",
    },
    Lint {
        id: "SB019",
        name: "spec-undeclared-ref",
        default_level: Level::Deny,
        summary: "a `#@ trigger` clause references a component the script does not declare; \
                  the clause could never fire or act",
    },
    Lint {
        id: "SB020",
        name: "spec-conflict",
        default_level: Level::Deny,
        summary: "two directives contradict each other: a second `#@ policy` for one component",
    },
];

/// Looks up a lint by its `SBxxx` ID.
pub fn lint_by_id(id: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.id == id)
}

/// Looks up a lint by its kebab-case name.
pub fn lint_by_name(name: &str) -> Option<&'static Lint> {
    LINTS.iter().find(|l| l.name == name)
}

/// Per-run lint levels: the registry defaults plus explicit overrides.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintConfig {
    overrides: BTreeMap<&'static str, Level>,
}

impl LintConfig {
    /// The default configuration (registry levels, no overrides).
    pub fn new() -> LintConfig {
        LintConfig::default()
    }

    /// Overrides one lint's level by ID or name; errors on an unknown
    /// lint so typos in `--allow`/`--deny` flags fail loudly.
    pub fn set(&mut self, lint: &str, level: Level) -> Result<(), String> {
        match lint_by_id(lint).or_else(|| lint_by_name(lint)) {
            Some(l) => {
                self.overrides.insert(l.id, level);
                Ok(())
            }
            None => Err(format!(
                "unknown lint {lint:?} (IDs SB000..SB{:03}, or kebab-case names)",
                LINTS.len() - 1
            )),
        }
    }

    /// The effective level for a lint under this configuration.
    pub fn level_for(&self, lint: &Lint) -> Level {
        self.overrides
            .get(lint.id)
            .copied()
            .unwrap_or(lint.default_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_ordered() {
        for (i, lint) in LINTS.iter().enumerate() {
            assert_eq!(
                lint.id,
                format!("SB{i:03}"),
                "registry must stay append-only"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        for a in LINTS {
            assert_eq!(
                LINTS.iter().filter(|b| b.name == a.name).count(),
                1,
                "{}",
                a.name
            );
        }
    }

    #[test]
    fn config_overrides_by_id_and_name() {
        let mut config = LintConfig::new();
        let no_reader = lint_by_id("SB002").unwrap();
        assert_eq!(config.level_for(no_reader), Level::Warn);
        config.set("SB002", Level::Deny).unwrap();
        assert_eq!(config.level_for(no_reader), Level::Deny);
        config.set("no-reader", Level::Allow).unwrap();
        assert_eq!(config.level_for(no_reader), Level::Allow);
        assert!(config.set("SB999", Level::Allow).is_err());
    }
}
