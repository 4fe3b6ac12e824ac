#!/usr/bin/env bash
# Planted mutations: every patch in this directory is a deliberate bug,
# and the command on its `check:` line must fail with it applied. For
# each patch (all of them, or those named) this applies it with
# `git apply`, runs the command, requires a failure and reverts the patch.
# Exits non-zero if a patch does not apply or a mutant survives.
#
#   bash mutants/check.sh                       # every patch
#   bash mutants/check.sh mutants/09-*.patch    # some of them
set -u
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- mutants/*.patch
mkdir -p target/mutants
status=0
for patch in "$@"; do
    cmd=$(sed -n 's/^check: //p' "$patch" | head -n 1)
    if [ -z "$cmd" ]; then
        echo "::error::$patch names no check: command"
        status=1
        continue
    fi
    if ! git apply "$patch"; then
        echo "::error::$patch does not apply"
        status=1
        continue
    fi
    trap 'git apply -R "$patch"; exit 130' INT TERM
    log="target/mutants/$(basename "$patch" .patch).log"
    echo "$patch: $cmd"
    if bash -c "$cmd" > "$log" 2>&1; then
        echo "::error::$patch survived: the command passed (log: $log)"
        status=1
    else
        echo "  caught (log: $log)"
    fi
    git apply -R "$patch"
    trap - INT TERM
done
exit $status
