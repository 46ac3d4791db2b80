#!/usr/bin/env bash
# Front door of the benchmark: builds the package, then runs it.
#
#   bench/run.sh                       the suite: 3 interleaved untraced rounds of
#                                      every workload, then each workload's traced
#                                      ladder; writes bench/out/result.json and
#                                      bench/out/trace-<workload>.json
#   bench/run.sh --smoke               the same at 1/64 scale, one round (< 30 s)
#   bench/run.sh --repeat N            N untraced runs per workload, each with another
#                                      seed, and the spread table against the bounds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one run, as the benchmark driver calls it; the
#                                      last line of stdout is the JSON result
#
# Exits non-zero on any wrong answer, and before printing anything when
# the repository is not around it to build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
export STACKBENCH_COMMIT="${STACKBENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}"
cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/stackbench" --out "$here/out" "$@"
