#!/usr/bin/env bash
# Non-test lines per crate: for every file under a crate's src/, the
# lines above its first `#[cfg(test)]`. The one count ROADMAP.md and
# CHANGES.md quote when a PR says how many lines it removed.
set -euo pipefail
cd "$(dirname "$0")/.."
printf '%-16s %7s\n' crate lines
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { printf "%-16s %7d\n", crate, n }' crate="$crate"
done
