#!/usr/bin/env bash
# Non-test Rust lines per crate: every line of each file under crates/*/src
# (and the root package's src/) up to its first `#[cfg(test)]`.
# tests/, benches/ and examples/ are not counted.
# Usage: scripts/loc.sh [repo-root]
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() {
    find "$1" -name '*.rs' -print0 | sort -z \
        | xargs -0 -r awk 'FNR == 1 { stop = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ }
                           END { print n + 0 }' \
        | awk '{ n += $1 } END { print n + 0 }'
}

total=0
for src in crates/*/src src; do
    [ -d "$src" ] || continue
    name="${src%/src}"
    name="${name#crates/}"
    [ "$name" = src ] && name=root
    n="$(count "$src")"
    total=$((total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d\n' total "$total"
