#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l over tracked *.go files that are not
# *_test.go) of the root module and of the nested bench/ module, one line
# each: the number ROADMAP item 5's "net non-test LoC" gate is read from.
# Run it on the parent commit and on the change and report the difference.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { git ls-files -- "$@" | grep -v '_test\.go$' | xargs cat | wc -l; }

echo "root module: $(count '*.go' ':!bench') non-test Go lines"
echo "bench/:      $(count 'bench/*.go') non-test Go lines"
