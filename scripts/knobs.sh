#!/usr/bin/env bash
# Settable configuration fields: for each config struct, the `pub`
# fields of its definition under crates/*/src, and the total. A struct
# that no longer exists counts 0. The one count ROADMAP.md and
# CHANGES.md quote when a PR says how many knobs it removed.
#
# A ratchet: exits non-zero when the total is above MAX_KNOBS, so a
# knob cannot come back unnoticed. A change that removes knobs lowers
# MAX_KNOBS to the new total; one that must add a knob raises it and
# says why.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX_KNOBS=12
printf '%-18s %6s\n' struct fields
total=0
for name in ShardConfig MaintainerConfig NetConfig ObsConfig DurabilityConfig \
    RmaConfig Thresholds DetectorConfig; do
    n=$(find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="$name" '
        $0 ~ "^pub struct " name " \\{" { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub [a-z_0-9]+:/ { n++ }
        END { print n + 0 }')
    printf '%-18s %6d\n' "$name" "$n"
    total=$((total + n))
done
printf '%-18s %6d\n' total "$total"
if ((total > MAX_KNOBS)); then
    echo "knobs: $total settable fields, above the ratchet of $MAX_KNOBS" >&2
    exit 1
fi
