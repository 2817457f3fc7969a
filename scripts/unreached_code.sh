#!/usr/bin/env bash
# Link-time dead-code audit: list the functions that the libhcm_*
# archives define and that no shipped binary keeps. The shipped binaries
# are tools/hcm, the examples, the gbench suites named in
# bench/gbench_manifest.txt and perfbench/perfbench. Inline functions
# are emitted too (-fkeep-inline-functions), so a header-only member
# that no binary calls is listed like an out-of-line one.
#
# Usage: scripts/unreached_code.sh <build-dir>
#
# <build-dir> is a scratch directory (not build/): the script configures
# it with one section per function, --gc-sections, -fno-inline and
# -fkeep-inline-functions, builds only the shipped binaries, and diffs
# the global text symbols of the archives (strong and weak) against the
# text symbols the linked binaries keep. Template instances, lambdas
# and local statics are dropped: a template or lambda is dead only with
# its enclosing function, which is listed itself.
#
# Each output line is "<refs><TAB><function>". <refs> counts the lines
# under src/, tools/, examples/, bench/ and perfbench/ that call the
# function by name outside comments, declarations and definitions (a
# member through . -> or ::, and only in files that name its class).
# refs > 0 marks a call the build compiles out, or a name another
# function or class shares: read the callers before deleting. The
# counts are a grep heuristic, so this is a review aid, not a CI gate.
set -euo pipefail
[ $# -eq 1 ] || { echo "usage: $0 <build-dir>" >&2; exit 2; }
ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=$1
cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fno-inline -fkeep-inline-functions -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections \
    -DCMAKE_PROJECT_hcm_INCLUDE="$ROOT/perfbench/perfbench.cmake" >/dev/null
examples=$(sed -n 's/^hcm_add_example(\([a-z_]*\) .*/\1/p' \
    "$ROOT/examples/CMakeLists.txt")
benches=$(grep -v '^#' "$BUILD/bench/gbench_manifest.txt")
cmake --build "$BUILD" -j"$(nproc)" \
    --target hcm perfbench $examples $benches >/dev/null

bins=("$BUILD/tools/hcm" "$BUILD/perfbench/perfbench")
for b in $examples; do bins+=("$BUILD/examples/$b"); done
for b in $benches; do bins+=("$BUILD/bench/$b"); done
kept=$(nm -C --defined-only "${bins[@]}" | sed -n 's/^[0-9a-f]* [TtWw] //p' |
       sed 's/ \[clone [^]]*\]//' | sort -u)

cd "$ROOT"
for lib in "$BUILD"/src/*/libhcm_*.a; do
    nm -C --defined-only "$lib" | sed -n 's/^[0-9a-f]* [TW] //p'
done | sed 's/ \[clone [^]]*\]//' | sort -u | comm -23 - <(echo "$kept") |
{ grep '^hcm::' || true; } | { grep -Ev '\)::|\{lambda' || true; } |
while IFS= read -r fn; do
    qual=$(echo "${fn%%(*}" | sed 's/\[abi:[^]]*\]//g')
    [[ ${qual%%::operator*} == *'<'* ]] && continue # a template instance
    name=${qual##*::} owner=${qual%::*}
    owner=${owner##*::}
    # Default, copy and move constructors and destructors: the compiler
    # writes them, so an unused one is no code to delete.
    args=${fn#*(} cls=${qual%::*}
    if [[ $name == "~$owner" ]] || { [[ $name == "$owner" ]] &&
        [[ $args == ')'* || $args == "$cls&&)"* ||
           $args == "$cls const&)"* ]]; }; then
        continue
    fi
    files=(src tools examples bench perfbench)
    use="(^|[^.>:[:alnum:]_]|::)$name\b" # a free function's call
    if [[ $owner == [A-Z]* ]]; then
        mapfile -t files < <(grep -rlw "$owner" "${files[@]}")
        use="(\.|->|::)$name\b" # a member's call
    fi
    refs=0
    if ((${#files[@]})); then
        refs=$(grep -rnE "$use" "${files[@]}" |
            grep -Ev ":[0-9]+:\s*(\*|//|/\*)" |
            grep -Ev ":[0-9]+:([A-Za-z_]\w*::)*$name\(" |
            grep -Pv "\.hh?:[0-9]+:\s*+(?!return\b)[\w:<>, ]+[ *&]$name\(" |
            wc -l) || true
    fi
    printf '%s\t%s\n' "$refs" "$fn"
done
