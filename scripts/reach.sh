#!/usr/bin/env bash
# reach.sh — root-module functions that no binary contains. Builds the eight
# mains the tree has (cmd/*, examples/*, bench/cmd/classbench) with inlining
# off (-gcflags=all=-l, so a function that is only ever inlined still keeps
# its symbol), reads each binary's text symbols with `go tool nm`, and prints
# every `func` declared in a non-test file of the root module that is in none
# of them, as <file>:<line>: <symbol>.
#
# A function absent from every binary may still be a seam or an oracle a test
# in another package uses (Grid.Neighbors, ...). Deciding
# which of those stay is a judgement; this is the list to judge.
#
# Usage:
#   scripts/reach.sh            print the list and its length
#   scripts/reach.sh --max N    ...and exit 1 when more than N functions are
#                               in no binary (the CI ceiling: a PR that adds
#                               one edits N in the workflow and says why)
set -euo pipefail
cd "$(dirname "$0")/.."

max=""
if [ "${1:-}" = "--max" ]; then
    max="${2:?--max needs a function count}"
elif [ $# -gt 0 ]; then
    echo "usage: scripts/reach.sh [--max N]" >&2
    exit 2
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Text symbols of one main, with its own `main.` spelled as its import path so
# that eight mains' symbols can share one file.
syms() { # syms <binary> <import path of the main package>
    go tool nm "$1" | awk -v main="$2" '$2 ~ /^[Tt]$/ {
        s = $3
        sub(/\[.*$/, "", s)          # generic instantiations: pkg.F[go.shape...]
        sub(/-fm$/, "", s)           # method values
        if (index(s, "main.") == 1) s = main substr(s, 5)
        print s
    }'
}

for dir in cmd/* examples/*; do
    go build -gcflags=all=-l -o "$out/$(basename "$dir")" "./$dir"
    syms "$out/$(basename "$dir")" "metaclass/$dir"
done >"$out/linked"
(cd bench && go build -gcflags=all=-l -o "$out/classbench" ./cmd/classbench)
syms "$out/classbench" "metaclass/bench/cmd/classbench" >>"$out/linked"
sort -u -o "$out/linked" "$out/linked"

# Every declared function of the root module, spelled the way nm spells it:
# pkg.F, pkg.T.M, pkg.(*T).M.
git ls-files -- '*.go' ':!bench' | grep -v '_test\.go$' | while read -r f; do
    awk -v file="$f" -v pkg="metaclass/$(dirname "$f")" '
        /^func / {
            line = $0
            sub(/^func /, "", line)
            recv = ""
            if (substr(line, 1, 1) == "(") {
                recv = line
                sub(/\).*$/, "", recv)                  # "(r *T[K]"
                sub(/^\(([A-Za-z_0-9]+ +)?/, "", recv)   # "*T[K]"; the receiver may be unnamed
                sub(/\[.*$/, "", recv)                   # "*T"
                sub(/^[^)]*\) */, "", line)
            }
            name = line
            sub(/[(\[].*$/, "", name)
            if (recv == "")                     sym = pkg "." name
            else if (substr(recv, 1, 1) == "*") sym = pkg ".(" recv ")." name
            else                                sym = pkg "." recv "." name
            print sym "\t" file ":" NR
        }' "$f"
done | sort >"$out/declared"

# A value-receiver method is linked under either spelling (pkg.T.M, or the
# pointer wrapper pkg.(*T).M alone when only an interface reaches it).
awk -F'\t' 'NR == FNR { linked[$1] = 1; next }
    {
        alt = $1
        if (alt !~ /\(\*/ && match(alt, /\.[A-Za-z_0-9]+\.[A-Za-z_0-9]+$/)) {
            split(substr(alt, RSTART + 1), p, ".")
            alt = substr(alt, 1, RSTART) "(*" p[1] ")." p[2]
        }
        if (!($1 in linked) && !(alt in linked)) print $2 ": " $1
    }' "$out/linked" "$out/declared" >"$out/unlinked"
cat "$out/unlinked"
n=$(wc -l <"$out/unlinked")
echo "$n root-module functions are in no binary" >&2
if [ -n "$max" ] && [ "$n" -gt "$max" ]; then
    echo "more than the ceiling of $max functions are in no binary" >&2
    exit 1
fi
