#!/bin/sh
# Run one figure harness at full scale with the run cache off and diff
# its stdout (the figure table) against the committed golden.
#
#   check_figure.sh <harness-binary> <golden-file>
#
# Every inherited DESC_* knob is cleared first, so the result depends
# only on the model. DESC_SIM_JOBS may be passed through: a harness
# prints the same table at any job count.
set -eu
exe=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
golden=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
jobs=${DESC_SIM_JOBS:-2}
for v in $(env | sed -n 's/^\(DESC_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$v"
done
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
DESC_SIM_SCALE=1 DESC_SIM_CACHE=0 DESC_SIM_JOBS=$jobs "$exe" > out.txt
diff -u "$golden" out.txt
