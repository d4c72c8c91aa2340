#!/bin/sh
# Non-test source lines: per crate, the lines before the first `#[cfg(test)]`
# of every src/**/*.rs, then the workspace's own (crates/* and the root
# package), the vendored shims' and the total. CHANGES.md reports these.
#
# `--check` also compares them with scripts/nontest-loc.expected and fails on
# any difference: a PR that moves a count moves that file in the same diff
# (`scripts/nontest-loc.sh > scripts/nontest-loc.expected`).
cd "$(dirname "$0")/.." || exit 1
if [ "$1" = --check ]; then
    counts=$("$0") || exit 1
    printf '%s\n' "$counts"
    printf '%s\n' "$counts" | diff -u scripts/nontest-loc.expected - && exit 0
    echo "nontest-loc: counts differ from scripts/nontest-loc.expected" >&2
    exit 1
fi
for crate in crates/* . vendor/*; do
    [ -d "$crate/src" ] || continue
    find "$crate/src" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk -v name="$crate" '{ n += $1 } END { printf "%-20s %6d\n", name, n }'
done | awk '{ print; if ($1 ~ /^vendor/) v += $2; else w += $2 }
    END { printf "%-20s %6d\n%-20s %6d\n%-20s %6d\n", "workspace", w, "vendor", v, "total", w + v }'
