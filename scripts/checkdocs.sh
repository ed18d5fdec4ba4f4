#!/bin/sh
# checkdocs.sh - CI gate: every exported declaration in the analysis,
# table, runtime, pipeline and cache packages must carry a doc comment.
#
# A line starting a top-level exported func/type whose preceding line is
# not a comment is flagged. Test files are exempt (Go test names are
# their own documentation). Exits non-zero listing offenders.
set -eu
cd "$(dirname "$0")/.."

PKGS="internal/core internal/tables internal/ipds internal/pipeline internal/tcache internal/obs internal/obs/tsdb internal/incident internal/ring internal/server internal/fleet internal/registry"

fail=0
for pkg in $PKGS; do
    for f in "$pkg"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        out=$(awk '
            /^(func|type) [A-Z]/ || /^func \([^)]*\) [A-Z]/ {
                if (prev !~ /^\/\//) printf "%s:%d: undocumented export: %s\n", FILENAME, FNR, $0
            }
            { prev = $0 }
        ' "$f")
        if [ -n "$out" ]; then
            echo "$out"
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    echo "checkdocs: undocumented exported declarations found" >&2
    exit 1
fi

# The performance handbook must stay linked from the README.
grep -q 'docs/PERFORMANCE.md' README.md || {
    echo "checkdocs: README.md does not link docs/PERFORMANCE.md" >&2
    exit 1
}

echo "checkdocs: all exports documented in: $PKGS"
