#!/usr/bin/env bash
# Paired end-to-end measurement of this checkout against a parent revision:
# the procedure a performance claim is judged on (bench/README.md).
#
#   scripts/bench-pairs.sh PARENT WORKLOAD [N]      (make bench-pairs ...)
#
# PARENT's committed files are extracted under .bench_build/pairs/parent, then
# bench/run.sh --trace 0 runs N times in each tree, alternating which side goes
# first, on seeds 1, 2, 3 in rotation. Every tree builds its own binary from
# its own source, as the benchmark driver does. For each end-to-end metric of
# BENCHMARK.json the script prints both sides' median and quartiles, the pair
# ratios (change / parent) with their median and quartiles, and how many pairs
# the change won; then whether the output digests agreed pair by pair. Each
# run also records the host's steal time (the steal column of /proc/stat,
# read before and after it): the script prints it for every run and flags a
# pair when either run lost more than 1 % of wall time x nproc to steal, a
# pair that measures the host rather than the change. Run it on an otherwise
# idle machine.
set -euo pipefail
parent=${1:?usage: bench-pairs.sh PARENT WORKLOAD [N]}
workload=${2:?usage: bench-pairs.sh PARENT WORKLOAD [N]}
n=${3:-10}
cd "$(dirname "$0")/.."
dir=.bench_build/pairs
rm -rf "$dir/parent" "$dir/$workload"
mkdir -p "$dir/parent" "$dir/$workload"
git archive "$parent" | tar -x -C "$dir/parent"
trap 'rm -rf "$dir/parent"' EXIT # a second module's sources must not linger in the tree

steal() { awk '$1 == "cpu" {print $9; exit}' /proc/stat 2>/dev/null || echo 0; }
run() { # side tree pair seed; records "steal-before steal-after start end"
	local s0 t0 rc=0
	s0=$(steal) t0=$(date +%s.%N)
	bash "$2/bench/run.sh" --workload "$workload" --seed "$4" --trace 0 \
		>"$dir/$workload/$1.$3.json" 2>"$dir/$workload/$1.$3.err" || rc=$?
	echo "$s0 $(steal) $t0 $(date +%s.%N)" >"$dir/$workload/$1.$3.steal"
	return "$rc"
}
for ((i = 1; i <= n; i++)); do
	seed=$(((i - 1) % 3 + 1))
	echo "pair $i/$n seed $seed" >&2
	if ((i % 2)); then
		run parent "$dir/parent" "$i" "$seed" && run change . "$i" "$seed"
	else
		run change . "$i" "$seed" && run parent "$dir/parent" "$i" "$seed"
	fi
done

value() { # file metric: the metric's value on the result line
	tail -n 1 "$1" | grep -o "\"$2\":{\"value\":[^,}]*" | sed 's/.*://'
}
digest() { grep -o 'output [0-9a-f]*' "$1" | tail -n 1; }
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

echo "$workload: $n pairs, parent $parent"
grep -o '{"name": "[a-z0-9_]*", "unit": "[^"]*", "better": "[a-z]*", "bound"' BENCHMARK.json |
	sed 's/{"name": "\([^"]*\)".*"better": "\([a-z]*\)".*/\1 \2/' |
	while read -r metric better; do
		won=0 lost=0 ratios=
		for ((i = 1; i <= n; i++)); do
			p=$(value "$dir/$workload/parent.$i.json" "$metric")
			c=$(value "$dir/$workload/change.$i.json" "$metric")
			ratios+=" $(awk -v p="$p" -v c="$c" 'BEGIN {if (p == 0) print "nan"; else printf "%.3f", c / p}')"
			case $(awk -v p="$p" -v c="$c" -v b="$better" 'BEGIN {
				if (c == p) print "tie"; else print ((c > p) == (b == "higher")) ? "won" : "lost"}') in
			won) won=$((won + 1)) ;;
			lost) lost=$((lost + 1)) ;;
			esac
		done
		echo "$metric ($better is better)"
		echo "  parent $(for ((i = 1; i <= n; i++)); do value "$dir/$workload/parent.$i.json" "$metric"; done | spread)"
		echo "  change $(for ((i = 1; i <= n; i++)); do value "$dir/$workload/change.$i.json" "$metric"; done | spread)"
		echo "  ratios$ratios  median [quartiles] $(tr ' ' '\n' <<<"${ratios# }" | spread)"
		echo "  change won $won, lost $lost of $n pairs"
	done
agreed=0
for ((i = 1; i <= n; i++)); do
	[[ -n $(digest "$dir/$workload/parent.$i.err") && $(digest "$dir/$workload/parent.$i.err") == $(digest "$dir/$workload/change.$i.err") ]] && agreed=$((agreed + 1))
done
echo "output digests agreed in $agreed of $n pairs"
hz=$(getconf CLK_TCK 2>/dev/null || echo 100)
cpus=$(nproc)
echo "host steal per run (jiffies at $hz/s over wall seconds; a pair is flagged past 1 % of wall x $cpus CPUs)"
flagged=0
for ((i = 1; i <= n; i++)); do
	line=$(for side in parent change; do
		awk -v side="$side" -v hz="$hz" -v cpus="$cpus" '{
			d = $2 - $1; w = $4 - $3
			printf "%s %d / %.1f s%s  ", side, d, w, (d > 0.01 * w * hz * cpus) ? " (over)" : ""
		}' "$dir/$workload/$side.$i.steal"
	done)
	[[ $line == *"(over)"* ]] && flagged=$((flagged + 1)) && line+="FLAGGED"
	echo "  pair $i: $line"
done
echo "pairs flagged for steal: $flagged of $n"
