#!/usr/bin/env bash
# Lists every function and method under internal/ that no binary links:
# each cmd/* and examples/* binary and the benchmark (bench/, through its
# replace) is built with inlining off, so nothing hides by being inlined,
# and its symbols are listed with `go tool nm`. Run from the repository
# root; CI compares the output with scripts/unreached.txt, the exceptions
# DESIGN's "Module/binary map" names.
set -euo pipefail
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for d in cmd/* examples/*; do
	go build -gcflags=all=-l -o "$out/bin_$(basename "$d")" "./$d"
done
(cd bench && go build -gcflags=all=-l -o "$out/bin_bench" .)
for b in "$out"/bin_*; do go tool nm "$b"; done |
	awk '$2=="T"||$2=="t"{print $3}' | sed 's/\[.*//' | sort -u >"$out/syms"
grep -rnE '^func ' --include='*.go' internal | grep -v '_test\.go:' |
	sed -E \
		-e 's#^(internal/.*)/[^/]*\.go:[0-9]+:func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#odh/\1.(*\3).\5#' \
		-e 's#^(internal/.*)/[^/]*\.go:[0-9]+:func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)(\[[^]]*\])?\) ([A-Za-z0-9_]+).*#odh/\1.\3.\5#' \
		-e 's#^(internal/.*)/[^/]*\.go:[0-9]+:func ([A-Za-z0-9_]+).*#odh/\1.\2#' |
	grep -vE '\.(init|_)$' | sort -u | comm -23 - "$out/syms"
