#!/usr/bin/env sh
# Ratchet gate for panicking escape hatches in library code.
#
# The workspace lints (Cargo.toml [workspace.lints.clippy]) surface every
# `unwrap()` / `expect()` in the library crates as a clippy warning. Input-
# facing code must use the checked `_checked` variants and the degradation
# taxonomy instead. This script pins their count at BUDGET; never raise it.
set -eu

BUDGET=0

cd "$(dirname "$0")/.."

# The clippy sweep only counts crates that opt into the workspace lints.
# Require the opt-in in every first-party crate manifest, so adding a crate
# (e.g. crates/obs) cannot silently shrink the gate's coverage. Vendored
# stubs (vendor/*) are third-party stand-ins and stay out of the budget.
for manifest in Cargo.toml crates/*/Cargo.toml; do
    if ! grep -A1 '^\[lints\]' "$manifest" | grep -q '^workspace = true'; then
        echo "lint_gate: FAIL — $manifest does not opt into the workspace" >&2
        echo "lints ([lints] workspace = true), so its unwrap()/expect()" >&2
        echo "sites would escape the budget below." >&2
        exit 1
    fi
done

# Only non-test targets count: the budget covers library and binary code,
# where a panic reaches users. Tests, benches and examples are free to
# unwrap.
count=$(cargo clippy --workspace 2>&1 |
    grep -c 'used `unwrap()`\|used `expect()`' || true)

echo "lint_gate: $count panicking call sites (budget $BUDGET)"
if [ "$count" -gt "$BUDGET" ]; then
    echo "lint_gate: FAIL — new unwrap()/expect() in library code." >&2
    echo "Use the checked degradation path (see DESIGN.md) or justify and" >&2
    echo "raise BUDGET in scripts/lint_gate.sh in the same change." >&2
    exit 1
fi
echo "lint_gate: OK"
