#!/usr/bin/env bash
# `unsafe` sites per crate: for every file under a crate's src/, the
# lines above its first column-0 `#[cfg(test)]` (the nontest-lines.sh
# rule)
# that use `unsafe` outside a `//` comment, and the `SAFETY:` lines
# among them, with the totals. The one count ROADMAP.md and
# CHANGES.md quote when a PR says how many sites it retired.
#
# A ratchet: exits non-zero when the total of sites is above
# MAX_UNSAFE, so a site cannot come in unnoticed. A change that retires
# sites lowers MAX_UNSAFE to the new total; one that must add a site
# raises it and says why.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX_UNSAFE=36
printf '%-16s %7s %7s\n' crate unsafe SAFETY
total_sites=0
total_safety=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    read -r sites safety < <(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        /SAFETY:/ { safety++ }
        { code = $0; sub(/\/\/.*/, "", code) }
        code ~ /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { sites++ }
        END { print sites + 0, safety + 0 }')
    printf '%-16s %7d %7d\n' "$crate" "$sites" "$safety"
    total_sites=$((total_sites + sites))
    total_safety=$((total_safety + safety))
done
printf '%-16s %7d %7d\n' total "$total_sites" "$total_safety"
if ((total_sites > MAX_UNSAFE)); then
    echo "unsafe: $total_sites sites, above the ratchet of $MAX_UNSAFE" >&2
    exit 1
fi
