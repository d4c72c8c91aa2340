#!/bin/sh
# ROADMAP's "every stream endpoint is a `Stage`", made executable: count the
# `impl EjectBehavior for` lines before the first `#[cfg(test)]` of every
# src/*.rs of the two crates that speak the stream protocol, and fail
# unless `eden-transput` has exactly one (the stage) and `eden-fs` five.
cd "$(dirname "$0")/.." || exit 1
status=0
for want in eden-transput:1 eden-fs:5; do
    crate=${want%:*}
    found=$(find "crates/$crate/src" -name '*.rs' -exec awk \
        '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } /impl EjectBehavior for/ { print FILENAME ": " $0 }' {} +)
    count=$(printf '%s' "$found" | grep -c .)
    if [ "$count" -ne "${want#*:}" ]; then
        echo "$crate: $count behaviours, expected ${want#*:}" >&2
        printf '%s\n' "$found" >&2
        status=1
    fi
done
exit $status
