#!/bin/sh
# Non-test source lines: per crate, the lines before the first `#[cfg(test)]`
# of every src/**/*.rs, then the workspace's own (crates/* and the root
# package), the vendored shims' and the total. CHANGES.md reports these.
cd "$(dirname "$0")/.." || exit 1
for crate in crates/* . vendor/*; do
    [ -d "$crate/src" ] || continue
    find "$crate/src" -name '*.rs' -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk -v name="$crate" '{ n += $1 } END { printf "%-20s %6d\n", name, n }'
done | awk '{ print; if ($1 ~ /^vendor/) v += $2; else w += $2 }
    END { printf "%-20s %6d\n%-20s %6d\n%-20s %6d\n", "workspace", w, "vendor", v, "total", w + v }'
