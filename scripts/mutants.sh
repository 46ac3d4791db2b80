#!/usr/bin/env bash
# The mutation ledger: every scripts/mutations/NNN-name.patch is one
# deliberate fault, and one named test must catch it. For each patch
# this applies it to a fresh copy of HEAD outside the repository, runs
# only that test and prints `killed` or `survived` with the seconds
# taken. Uses only git and cargo.
#
#   bash scripts/mutants.sh [PATCH...]      every patch when none is named
#
# A patch starts with a free-text description, then two header lines
# before its `git diff`:
#
#   Test: <name>          the killing test, as `cargo test -- --exact` names it
#   Target: <args>        the cargo args that select its binary, e.g.
#                         `--test durability` or `-p rma-core --lib`;
#                         a test that needs `--release` adds it here
#
# First every named test runs once on the unpatched copy and must pass
# as exactly one test: a test that fails there, or a name that matches
# nothing, kills no mutant. All builds share one target directory
# (CARGO_TARGET_DIR, or one beside the copy that is removed at the
# end) and one copy: the copy's files are dated at extraction, so its
# first build recompiles whatever an earlier run left there, and each
# patch is reverse-applied after its run, so the next build recompiles
# exactly the crates the last two patches touched.
#
# Exits non-zero when a named test does not pass at HEAD, a patch does
# not apply or does not build, or a mutant survives.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
if (($# == 0)); then
    set -- "$repo"/scripts/mutations/*.patch
fi
work=$(mktemp -d "${TMPDIR:-/tmp}/mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
copy="$work/src"
# A killed test may leave its scratch files behind: keep them in here.
export TMPDIR="$work/tmp"
mkdir -p "$TMPDIR"

field() { sed -n "s/^$1: //p" "$2" | head -1; }

# Runs one patch's test in the copy; prints cargo's output.
run_test() {
    local patch=$1
    # shellcheck disable=SC2046  # Target is a list of cargo args
    (cd "$copy" && cargo test -q $(field Target "$patch") \
        -- --exact "$(field Test "$patch")" 2>&1)
}

status=0
mkdir -p "$copy"
git -C "$repo" archive HEAD | tar -x -m -C "$copy"
git -C "$copy" init -q
for patch in "$@"; do
    out=$(run_test "$patch") || {
        printf '%s: its test fails at HEAD\n%s\n' "$(basename "$patch")" "$out" >&2
        exit 1
    }
    grep -q '^test result: ok\. 1 passed' <<<"$out" || {
        printf '%s: `%s` is not one test at HEAD\n' "$(basename "$patch")" \
            "$(field Test "$patch")" >&2
        exit 1
    }
done

printf '%-48s %-9s %6s\n' patch result seconds
for patch in "$@"; do
    name=$(basename "$patch")
    if ! git -C "$copy" apply "$patch"; then
        printf '%-48s %-9s %6s\n' "$name" 'no-apply' -
        status=1
        continue
    fi
    t0=$SECONDS
    if out=$(run_test "$patch"); then
        result=survived
        status=1
    elif grep -q '^test result: FAILED' <<<"$out"; then
        result=killed
    else
        # No test result line: the mutant did not build.
        printf '%s\n' "$out" >&2
        result=no-build
        status=1
    fi
    git -C "$copy" apply -R "$patch"
    printf '%-48s %-9s %6d\n' "$name" "$result" $((SECONDS - t0))
done
exit "$status"
