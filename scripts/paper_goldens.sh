#!/usr/bin/env bash
# Regenerate the paper's artifacts and the extension studies through
# `hcm` and compare them byte for byte with the goldens in tests/golden:
#   paper/table<N>.txt   stdout of `hcm table N`, N = 1..6
#   paper/fig<N>.txt     stdout of `hcm figure N`, N = 2..10, without
#                        the `[files]` line (it names the output
#                        directory)
#   paper/out/           every CSV, gnuplot .dat and .gp file the
#                        figures write
#   paper/scenarios.txt  `hcm scenarios` for FFT-1024, MMM and
#                        Black-Scholes at f = 0.9 and 0.99, in that order
#   paper/project/fig<N>_f<f>.csv
#                        `hcm project --csv` (17 significant digits) for
#                        every series of Figures 6-10 at each figure's
#                        own f values
#   studies/<name>.txt   stdout of `hcm study <name>`, for each name in
#                        the `studies:` line of `hcm list`
#   cli/help.txt         stdout of `hcm help`
#
# Usage: scripts/paper_goldens.sh <hcm> [--refresh]
#
# Without --refresh, exits 1 and prints the diff when any byte moved.
# --refresh rewrites the goldens from <hcm>. A refresh is a behaviour
# change: CHANGES.md says why.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ] || { [ $# -eq 2 ] && [ "$2" != --refresh ]; }; then
    echo "usage: $0 <hcm> [--refresh]" >&2
    exit 2
fi
HCM=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
GOLDEN=$(cd "$(dirname "$0")/../tests/golden" && pwd)

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir -p "$WORK/paper/out" "$WORK/paper/project" "$WORK/studies" "$WORK/cli"
cd "$WORK/paper"
for n in 1 2 3 4 5 6; do
    "$HCM" table "$n" > "table$n.txt"
done
for n in 2 3 4 5 6 7 8 9 10; do
    "$HCM" figure "$n" --out out > "fig$n.stdout"
    grep -v '^\[files\] ' "fig$n.stdout" > "fig$n.txt"
    rm "fig$n.stdout"
done
for w in fft:1024 mmm bs; do
    for f in 0.9 0.99; do
        "$HCM" scenarios --workload "$w" --f "$f"
    done
done > scenarios.txt

# figure, workload, scenario, f values: as in src/report/paper.cc.
while read -r fig w s fs; do
    for f in $fs; do
        "$HCM" project --csv --workload "$w" --scenario "$s" --f "$f" \
            > "project/${fig}_f$f.csv"
    done
done <<'EOF'
fig6 fft:1024 baseline 0.5 0.9 0.99 0.999
fig7 mmm baseline 0.5 0.9 0.99 0.999
fig8 bs baseline 0.5 0.9
fig9 fft:1024 bandwidth-1tb 0.5 0.9 0.99 0.999
fig10 mmm baseline 0.5 0.9 0.99
EOF

for name in $("$HCM" list | sed -n 's/^studies: //p'); do
    "$HCM" study "$name" > "$WORK/studies/$name.txt"
done
"$HCM" help > "$WORK/cli/help.txt"

if [ "${2:-}" = --refresh ]; then
    rm -rf "${GOLDEN:?}/paper" "${GOLDEN:?}/studies" "${GOLDEN:?}/cli"
    cp -R "$WORK"/. "$GOLDEN"/
    echo "refreshed $GOLDEN"
    exit 0
fi
diff -r "$GOLDEN" "$WORK"
echo "goldens match: $GOLDEN"
