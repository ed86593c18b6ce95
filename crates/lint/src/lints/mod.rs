//! The lint registry: every named contract check, each grounded in a real
//! past bug or standing workspace contract (see `docs/LINTS.md`).

use crate::diag::{Diagnostic, Severity};
use crate::source::FileContext;

mod l001_seed_arithmetic;
mod l002_wallclock_in_sim;
mod l003_nondet_iteration;
mod l004_unseeded_rng;
mod l005_println_in_library;
mod l007_blocking_in_reactor;
mod l008_raw_shard_index;
mod l009_ledger_arithmetic;

/// Static description of one lint.
#[derive(Debug, Clone, Copy)]
pub struct LintInfo {
    /// Stable error code (`L001`).
    pub code: &'static str,
    /// Kebab-case name (`seed-arithmetic`).
    pub name: &'static str,
    /// Default severity; `--deny-all` promotes warnings.
    pub severity: Severity,
    /// One-line contract statement for `--list` and docs.
    pub summary: &'static str,
}

/// The engine-level "suppression comment is wrong" pseudo-lint: a typoed
/// directive would otherwise silently stop suppressing — or, worse, read
/// like it disables a check it doesn't.
pub const L000: LintInfo = LintInfo {
    code: "L000",
    name: "bad-suppression",
    severity: Severity::Deny,
    summary: "`balloc-lint:` comments must parse and reference known lint codes",
};

/// One registered lint.
pub trait Lint: Sync {
    /// The lint's static description.
    fn info(&self) -> &'static LintInfo;

    /// Scans one analyzed file, pushing findings. Suppressions are applied
    /// by the engine afterwards, so lints stay oblivious to them.
    fn check(&self, cx: &FileContext, out: &mut Vec<Diagnostic>);
}

/// Every registered lint in code order. Retired codes (L006) stay
/// reserved: a code is never reused for a different contract.
#[must_use]
pub fn registry() -> &'static [&'static dyn Lint] {
    static REGISTRY: &[&dyn Lint] = &[
        &l001_seed_arithmetic::SeedArithmetic,
        &l002_wallclock_in_sim::WallclockInSim,
        &l003_nondet_iteration::NondetIteration,
        &l004_unseeded_rng::UnseededRng,
        &l005_println_in_library::PrintlnInLibrary,
        &l007_blocking_in_reactor::BlockingInReactor,
        &l008_raw_shard_index::RawShardIndex,
        &l009_ledger_arithmetic::LedgerArithmetic,
    ];
    REGISTRY
}

/// All known codes (the registry plus [`L000`]), for suppression
/// validation and `--list`.
#[must_use]
pub fn known_codes() -> Vec<&'static str> {
    std::iter::once(L000.code)
        .chain(registry().iter().map(|l| l.info().code))
        .collect()
}

/// Shared helper: pushes a diagnostic for lint `info` at byte `offset`.
pub(crate) fn emit(
    info: &'static LintInfo,
    cx: &FileContext,
    offset: usize,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let (line, col) = cx.line_col(offset);
    out.push(Diagnostic {
        code: info.code,
        name: info.name,
        severity: info.severity,
        path: cx.path.clone(),
        line,
        col,
        message,
    });
}
