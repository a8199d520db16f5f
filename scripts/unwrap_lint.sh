#!/usr/bin/env bash
# Unwrap audit lint: the simulation layer's step and recovery paths return
# typed errors (`GuardError`, `SnapshotError`, `CheckpointError`,
# `ComputeError`) — a bare `unwrap()`/`expect(` in production code is
# either a latent panic on a path that should degrade loudly-but-typed, or
# it is provably infallible and must say why. Every such call in
# `crates/sim/src` must carry a `// unwrap-ok:` justification on the same
# line or within the six preceding lines, so a new unwrap cannot land
# without an argument.
#
# Scope: production code only. Scanning stops at the `#[cfg(test)]` module
# marker — tests unwrap freely, that is what they are for. Doc-comment
# lines (`///`, `//!`) are skipped: example code in docs is rendered, not
# executed on the step path (doctests still run it under the test harness).
set -euo pipefail

cd "$(dirname "$0")/.."

status=0
for file in crates/sim/src/*.rs; do
    out=$(awk '
        /^#\[cfg\(test\)\]/ { exit }
        {
            hist[NR] = $0
            line = $0
            # Strip doc comments and trailing line comments so the match
            # only fires on executable code.
            sub(/^[[:space:]]*\/\/.*/, "", line)
            sub(/\/\/.*/, "", line)
            if (line ~ /\.unwrap\(\)/ || line ~ /\.expect\(/) {
                ok = 0
                for (i = NR; i >= NR - 6 && i > 0; i--)
                    if (hist[i] ~ /\/\/ unwrap-ok/) ok = 1
                if (!ok) printf "%s:%d: unwrap()/expect() without an unwrap-ok justification\n", FILENAME, NR
            }
        }
    ' "$file")
    if [[ -n "$out" ]]; then
        echo "$out" >&2
        status=1
    fi
done

if [[ $status -ne 0 ]]; then
    echo "unwrap_lint: convert to a typed error (GuardError/SnapshotError/...) or add \`// unwrap-ok: <why>\` (same line or the 6 above)" >&2
    exit $status
fi
echo "unwrap_lint: all unwrap()/expect() sites in crates/sim/src are typed or justified"
