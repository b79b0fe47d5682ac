#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l over tracked *.go files that are not
# *_test.go) of the root module and of the nested bench/ module, one line
# each: the number ROADMAP item 5's "net non-test LoC" gate is read from.
# Run it on the parent commit and on the change and report the difference.
#
# Usage:
#   scripts/loc.sh            print both counts
#   scripts/loc.sh --max N    ...and exit 1 when the root module exceeds N (the
#                             CI ceiling: a PR that grows the module past it
#                             edits N in the workflow and says why)
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "--max" ]; then
    max="${2:?--max needs a line count}"
elif [ $# -gt 0 ]; then
    echo "usage: scripts/loc.sh [--max N]" >&2
    exit 2
fi

count() { git ls-files -- "$@" | grep -v '_test\.go$' | xargs cat | wc -l; }

root=$(count '*.go' ':!bench')
echo "root module: $root non-test Go lines"
echo "bench/:      $(count 'bench/*.go') non-test Go lines"
if [ -n "$max" ] && [ "$root" -gt "$max" ]; then
    echo "root module is over its ceiling of $max non-test Go lines" >&2
    exit 1
fi
