#!/usr/bin/env bash
# Non-test lines per crate: for every file under a crate's src/, the
# lines above its first `#[cfg(test)]` in column 0 — the one that opens
# the file's test module; an indented one on a field or method inside
# the code does not end the count. The one count ROADMAP.md and
# CHANGES.md quote when a PR says how many lines it removed. The last
# row, `engine`, sums the three crates above the core: rma-shard,
# rma-db and rma-net.
set -euo pipefail
cd "$(dirname "$0")/.."
printf '%-16s %7s\n' crate lines
engine=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }')
    printf '%-16s %7d\n' "$crate" "$n"
    case $crate in
        rma-shard | rma-db | rma-net) engine=$((engine + n)) ;;
    esac
done
printf '%-16s %7d\n' engine "$engine"
