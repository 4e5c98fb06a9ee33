#!/bin/sh
# Cross-checks the keys of rcserve's one metrics exposition, the flat
# JSON map built in internal/serve/metrics.go, against the metric table
# in DESIGN.md §15, in both directions: a key registered in code but
# missing from the table is undocumented; a table row without a
# registration is stale documentation. It also fails when cmd/rctop
# reads a key (m["..."]) that the code does not register. Any finding
# fails the build (a make verify step).
#
# Per-peer keys are registered as "peer_ok_age_s;peer="+peer and
# documented as `peer_ok_age_s;peer=<url>`.
#
# Run from the repository root: sh scripts/metricslint.sh
set -u

CODE=internal/serve/metrics.go
DOC=DESIGN.md
TOP=cmd/rctop

if [ ! -f "$CODE" ] || [ ! -f "$DOC" ] || [ ! -d "$TOP" ]; then
    echo "metricslint: run from the repository root" >&2
    exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

# Keys registered in code: every entry is put into the map by a
# v.Set("key", ...) call naming its key in a string literal; a literal
# ending in "=" is a per-peer prefix.
grep -o 'v\.Set("[a-z0-9_;=]*"' "$CODE" |
    sed 's/.*"\([a-z0-9_;=]*\)"/\1/; s/=$/=<url>/' | sort -u >"$TMP/code"

# Keys documented in the DESIGN.md §15 table: rows of the form
# "| `key` | kind | meaning |".
grep -o '^| `[a-z0-9_;=<>]*` |' "$DOC" | sed 's/| `\([^`]*\)` |/\1/' | sort -u >"$TMP/doc"

# Keys rctop reads from a scraped map.
cat "$TOP"/*.go | grep -o 'm\["[a-z0-9_;=]*"\]' |
    sed 's/m\["\([^"]*\)"\]/\1/' | sort -u >"$TMP/top"

if [ ! -s "$TMP/code" ]; then
    echo "metricslint: no registrations found in $CODE (extraction broken?)" >&2
    exit 1
fi
if [ ! -s "$TMP/doc" ]; then
    echo "metricslint: no metric table rows found in $DOC (extraction broken?)" >&2
    exit 1
fi
if [ ! -s "$TMP/top" ]; then
    echo "metricslint: no metric reads found in $TOP (extraction broken?)" >&2
    exit 1
fi

fails=0
undocumented=$(comm -23 "$TMP/code" "$TMP/doc")
if [ -n "$undocumented" ]; then
    echo "metricslint: registered in $CODE but missing from the $DOC metric table:"
    echo "$undocumented" | sed 's/^/  /'
    fails=1
fi
stale=$(comm -13 "$TMP/code" "$TMP/doc")
if [ -n "$stale" ]; then
    echo "metricslint: documented in $DOC but not registered in $CODE:"
    echo "$stale" | sed 's/^/  /'
    fails=1
fi
unknown=$(comm -13 "$TMP/code" "$TMP/top")
if [ -n "$unknown" ]; then
    echo "metricslint: read by $TOP but not registered in $CODE:"
    echo "$unknown" | sed 's/^/  /'
    fails=1
fi

if [ "$fails" -ne 0 ]; then
    exit 1
fi
echo "metricslint: $(wc -l <"$TMP/code" | tr -d ' ') keys match the DESIGN.md table; rctop reads $(wc -l <"$TMP/top" | tr -d ' ') of them"
