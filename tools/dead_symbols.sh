#!/bin/sh
# Dead-symbol gate: list the out-of-line functions defined in src/
# that no non-test binary (bench drivers, tools, examples) links, and
# require that list to equal the committed allowlist
# tools/dead_symbols.allow, where every entry carries its reason.
#
# The non-test tree is built at -O0 with -ffunction-sections and
# linked with -Wl,--gc-sections, so a function survives in a binary
# exactly when something in that binary references it (no inlining
# hides a call).  The src/ candidates are the global text symbols (nm
# type T) of the src/ static libraries; inline and template code
# (weak symbols) is out of scope.  Names are compared demangled
# without parameters, so one entry covers every overload.
#
# Fails (exit 1) on a dead function missing from the allowlist (new
# dead code: delete it, or list it with a reason) and on an allowlist
# entry that is no longer dead (stale: drop the line).
#
# Usage: tools/dead_symbols.sh [build-dir]   (default build-deadsym)
# Needs cmake, a C++ compiler, nm and c++filt.

set -eu
cd "$(dirname "$0")/.."

dir="${1:-build-deadsym}"
allow="tools/dead_symbols.allow"
jobs="$(nproc 2>/dev/null || echo 2)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

if ! { cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS_DEBUG="-O0" \
        -DCMAKE_CXX_FLAGS="-ffunction-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" \
        -DMOPAC_BUILD_TESTS=OFF -DMOPAC_BUILD_BENCH=ON \
        -DMOPAC_BUILD_EXAMPLES=ON &&
        cmake --build "$dir" -j "$jobs"; } >"$tmp/build.log" 2>&1; then
    cat "$tmp/build.log"
    echo "dead_symbols: build failed" >&2
    exit 2
fi

# Global functions defined in the src/ libraries (mangled names).
find "$dir/src" -name 'libmopac_*.a' -exec \
    nm --defined-only -g --format=posix {} + |
    awk '$2 == "T" { print $1 }' | sort -u >"$tmp/defined"

# Every symbol that survived garbage collection in a non-test binary.
find "$dir/bench" "$dir/tools" "$dir/examples" -type f -perm -u+x \
    ! -path '*/CMakeFiles/*' -exec \
    nm --defined-only --format=posix {} + 2>/dev/null |
    awk 'NF >= 2 { print $1 }' | sort -u >"$tmp/linked"

comm -23 "$tmp/defined" "$tmp/linked" | c++filt -p | sort -u \
    >"$tmp/dead"
sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$allow" |
    sort -u >"$tmp/allowed"

comm -23 "$tmp/dead" "$tmp/allowed" >"$tmp/unlisted"
comm -13 "$tmp/dead" "$tmp/allowed" >"$tmp/stale"

status=0
if [ -s "$tmp/unlisted" ]; then
    echo "dead_symbols: src/ functions no non-test binary links" \
        "(delete them, or list them in $allow with a reason):"
    sed 's/^/  /' "$tmp/unlisted"
    status=1
fi
if [ -s "$tmp/stale" ]; then
    echo "dead_symbols: $allow entries that are linked now" \
        "(drop the lines):"
    sed 's/^/  /' "$tmp/stale"
    status=1
fi
if [ "$status" -eq 0 ]; then
    echo "dead_symbols: $(wc -l <"$tmp/dead") dead src/ functions," \
        "all listed in $allow"
fi
exit "$status"
