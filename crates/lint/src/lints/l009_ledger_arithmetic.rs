//! L009 `ledger-arithmetic` — conservation sums live in the `Ledger`.
//!
//! Every deterministic serving engine closes the same identity: each
//! offered request ends in exactly one bucket (allocated, shed, timed
//! out, broken, in migration, departed) and the store holds exactly the
//! allocated balls. The engines used to sum those buckets by hand, one
//! copy each, and each copy was free to drift from the others — a bucket
//! added to one engine's outcome silently missing from another's check.
//! `balloc_serve::Ledger` now owns the sum and its check, so a binary `+`
//! between two bucket identifiers anywhere else is a hand-written copy of
//! the identity. `crates/serve/src/ledger.rs` is the one exempt home of
//! the real thing; `perfbench/` is exempt because its `check_ledgers`
//! re-checks the engines' reports independently on purpose.

use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;
use crate::lints::{emit, Lint, LintInfo};
use crate::source::{FileContext, Role};

/// The ledger's bucket names, plus the churn outcome's historical
/// spelling of `departed`.
const BUCKET_IDENTS: &[&str] = &[
    "allocated",
    "shed",
    "timed_out",
    "broken",
    "in_migration",
    "departed",
    "departures",
];

pub struct LedgerArithmetic;

static INFO: LintInfo = LintInfo {
    code: "L009",
    name: "ledger-arithmetic",
    severity: Severity::Deny,
    summary: "conservation sums belong to balloc_serve::Ledger: fill its buckets and call check",
};

impl Lint for LedgerArithmetic {
    fn info(&self) -> &'static LintInfo {
        &INFO
    }

    fn check(&self, cx: &FileContext, out: &mut Vec<Diagnostic>) {
        if cx.role != Role::Library && cx.role != Role::Reactor {
            return;
        }
        if cx.path_matches(&["crates/serve/src/ledger.rs"]) || cx.path.starts_with("perfbench/") {
            return;
        }
        for k in 1..cx.sig.len() {
            if cx.sig_text(k) != Some("+") {
                continue;
            }
            let offset = cx.sig_start(k);
            if cx.in_test_region(offset) {
                continue;
            }
            // Each operand is a (possibly dotted) field or variable read:
            // `a.shed + b.broken` and `shed + broken` qualify; `shed + 1`,
            // `f(shed) + broken` and `x + y.broken()` do not.
            let mut j = k + 1;
            while cx.sig_text(j + 1) == Some(".") {
                j += 2;
            }
            let bucket = |i: usize| {
                cx.sig_kind(i) == Some(TokenKind::Ident)
                    && cx.sig_text(i).is_some_and(|t| BUCKET_IDENTS.contains(&t))
            };
            if bucket(k - 1) && bucket(j) && cx.sig_text(j + 1) != Some("(") {
                let (left, right) = (cx.sig_text(k - 1), cx.sig_text(j));
                emit(
                    &INFO,
                    cx,
                    offset,
                    format!(
                        "`{} + {}` hand-sums conservation-ledger buckets; fill a \
                         `balloc_serve::Ledger` and call `check` instead \
                         (docs/LINTS.md#l009)",
                        left.unwrap_or_default(),
                        right.unwrap_or_default()
                    ),
                    out,
                );
            }
        }
    }
}
