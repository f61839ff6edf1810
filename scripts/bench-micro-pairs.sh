#!/usr/bin/env bash
# Paired micro-benchmark measurement of this checkout against a parent
# revision: bench-pairs.sh's procedure for one package's go test benchmarks.
#
#   scripts/bench-micro-pairs.sh PARENT PKG BENCH [N]   (make bench-micro-pairs ...)
#
# PARENT's committed files are extracted under .bench_build/micro/parent, and
# each tree compiles PKG's test binary (go test -c) from its own source. The
# two binaries then run the benchmarks matching the regex BENCH N times each,
# alternating which side goes first, every run with -benchmem from PKG's own
# directory in its tree. For every benchmark and unit go test reports
# (ns/op, B/op, allocs/op and the benchmark's own metrics) the script prints
# each pair's values and ratio (change / parent), both sides' median and
# quartiles, and how many pairs the change won. A unit ending in /s or /sec
# is better higher; every other unit is better lower. BENCHTIME (go test's
# -benchtime, default 1s) sets each run's length. Run it on an otherwise idle
# machine.
set -euo pipefail
usage="usage: bench-micro-pairs.sh PARENT PKG BENCH [N]"
parent=${1:?$usage}
pkg=${2:?$usage}
bench=${3:?$usage}
n=${4:-10}
pkg=${pkg#./}
cd "$(dirname "$0")/.."
root=$PWD
dir=.bench_build/micro
rm -rf "$dir"
mkdir -p "$dir/parent" "$dir/runs"
git archive "$parent" | tar -x -C "$dir/parent"
trap 'rm -rf "$dir/parent"' EXIT # a second module's sources must not linger in the tree

(cd "$dir/parent" && go test -c -o ../parent.test "./$pkg")
go test -c -o "$dir/change.test" "./$pkg"

run() { # side tree pair: one benchmark run, reduced to "benchmark unit value" lines
	(cd "$2/$pkg" && "$root/$dir/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchmem -test.benchtime "${BENCHTIME:-1s}") |
		awk '/^Benchmark/ { for (i = 3; i < NF; i += 2) print $1, $(i + 1), $i }' >"$dir/runs/$1.$3"
}
for ((i = 1; i <= n; i++)); do
	echo "pair $i/$n" >&2
	if ((i % 2)); then
		run parent "$dir/parent" "$i" && run change . "$i"
	else
		run change . "$i" && run parent "$dir/parent" "$i"
	fi
done

value() { awk -v b="$2" -v u="$3" '$1 == b && $2 == u { print $3 }' "$1"; }
# spread prints the median and quartiles (linear interpolation) of stdin.
spread() {
	sort -g | awk '{v[NR] = $1} END {
		split("0.5 0.25 0.75", q, " ")
		for (k = 1; k <= 3; k++) {
			p = (NR - 1) * q[k] + 1; lo = int(p); hi = lo < NR ? lo + 1 : lo
			out[k] = v[lo] + (p - lo) * (v[hi] - v[lo])
		}
		printf "%.6g [%.6g, %.6g]", out[1], out[2], out[3]
	}'
}

echo "$pkg -bench '$bench': $n pairs, parent $parent"
awk '{ print $1, $2 }' "$dir/runs/change.1" | while read -r name unit; do
	better=lower
	case $unit in */s | */sec) better=higher ;; esac
	echo "$name $unit ($better is better)"
	won=0 lost=0
	for ((i = 1; i <= n; i++)); do
		p=$(value "$dir/runs/parent.$i" "$name" "$unit")
		c=$(value "$dir/runs/change.$i" "$name" "$unit")
		if [[ -z $p || -z $c ]]; then
			echo "  pair $i: parent ${p:-missing}, change ${c:-missing}"
			continue
		fi
		echo "  pair $i: parent $p, change $c, ratio $(awk -v p="$p" -v c="$c" 'BEGIN {if (p == 0) print "nan"; else printf "%.3f", c / p}')"
		case $(awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN {
			if (c == p) print "tie"; else print ((c > p) == (b == "higher")) ? "won" : "lost"}') in
		won) won=$((won + 1)) ;;
		lost) lost=$((lost + 1)) ;;
		esac
	done
	echo "  parent $(for ((i = 1; i <= n; i++)); do value "$dir/runs/parent.$i" "$name" "$unit"; done | spread)"
	echo "  change $(for ((i = 1; i <= n; i++)); do value "$dir/runs/change.$i" "$name" "$unit"; done | spread)"
	echo "  change won $won, lost $lost of $n pairs"
done
