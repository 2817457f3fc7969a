#!/usr/bin/env bash
# Regenerate every paper figure's data and render PNGs with gnuplot.
#
# Usage: scripts/render_figures.sh [build_dir] [out_dir]
set -euo pipefail

BUILD=${1:-build}
OUT=${2:-bench_out}
HCM="$BUILD/tools/hcm"

if [ ! -x "$HCM" ]; then
    echo "error: $HCM not found — build the project first" >&2
    exit 1
fi

for n in 2 3 4 5 6 7 8 9 10; do
    echo "== figure $n"
    "$HCM" figure "$n" --out "$OUT" > /dev/null
done

if ! command -v gnuplot > /dev/null; then
    echo "gnuplot not installed: data and scripts are in $OUT/," \
         "render them elsewhere with: (cd $OUT && for g in *.gp; do" \
         "gnuplot \$g; done)"
    exit 0
fi

(
    cd "$OUT"
    shopt -s nullglob
    for g in *.gp; do
        gnuplot "$g"
    done
)
echo "PNGs written to $OUT/"
