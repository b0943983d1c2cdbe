#!/bin/sh
# Regenerate the full-scale figure goldens from a build tree:
#
#   tests/figures/regen_goldens.sh <build-dir>
#
# Each bench/fig* and bench/ablation_* harness runs at DESC_SIM_SCALE=1
# with the run cache off; its stdout (the figure table) becomes
# tests/figures/golden/<harness>.txt. The [runner] summary and progress
# lines go to stderr and are not part of a golden. A golden changes only
# for a stated model reason, never to make a diff pass.
set -eu
build=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
for v in $(env | sed -n 's/^\(DESC_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for src in "$root"/bench/fig*.cpp "$root"/bench/ablation_*.cpp; do
    name=$(basename "$src" .cpp)
    echo "golden: $name" >&2
    DESC_SIM_SCALE=1 DESC_SIM_CACHE=0 "$build/bench/$name" \
        > "$here/golden/$name.txt"
done
