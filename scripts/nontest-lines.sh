#!/usr/bin/env bash
# Non-test lines per crate: for every file under a crate's src/, the
# lines above its first `#[cfg(test)]` in column 0 — the one that opens
# the file's test module; an indented one on a field or method inside
# the code does not end the count. The one count ROADMAP.md and
# CHANGES.md quote when a PR says how many lines it removed. The last
# two rows sum crates: `core` the two under the shards, rewiring and
# rma-core; `engine` the three above them, rma-shard, rma-db and
# rma-net.
#
# A ratchet: exits non-zero when `core` is above MAX_CORE, `engine`
# above MAX_ENGINE, the `rma-wal` row above MAX_WAL or the
# `bench-harness` row above MAX_HARNESS, so removed code cannot grow
# back unnoticed. A change that shrinks a row lowers its
# bound to the new total; one that must grow it raises it and says
# why.
set -euo pipefail
cd "$(dirname "$0")/.."
MAX_CORE=4029
MAX_ENGINE=6819
MAX_WAL=1342
MAX_HARNESS=3500
printf '%-16s %7s\n' crate lines
core=0
engine=0
wal=0
harness=0
for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { n++ }
        END { print n + 0 }')
    printf '%-16s %7d\n' "$crate" "$n"
    case $crate in
        rewiring | rma-core) core=$((core + n)) ;;
        rma-shard | rma-db | rma-net) engine=$((engine + n)) ;;
        rma-wal) wal=$n ;;
        bench-harness) harness=$n ;;
    esac
done
printf '%-16s %7d\n' core "$core" engine "$engine"
status=0
if ((core > MAX_CORE)); then
    echo "core: $core non-test lines, above the ratchet of $MAX_CORE" >&2
    status=1
fi
if ((engine > MAX_ENGINE)); then
    echo "engine: $engine non-test lines, above the ratchet of $MAX_ENGINE" >&2
    status=1
fi
if ((wal > MAX_WAL)); then
    echo "rma-wal: $wal non-test lines, above the ratchet of $MAX_WAL" >&2
    status=1
fi
if ((harness > MAX_HARNESS)); then
    echo "bench-harness: $harness non-test lines, above the ratchet of $MAX_HARNESS" >&2
    status=1
fi
exit $status
