#!/usr/bin/env bash
# pairs.sh — the paired procedure of benchmark/README.md ("Comparing two
# commits") as one command: the working tree against a base revision.
#
#   scripts/pairs.sh [-n PAIRS] [-seed S] [-seconds SEC] BASE -workload W
#   scripts/pairs.sh [-n PAIRS] [-benchtime T] [-with FILE]... BASE -bench PATTERN PKG
#
# It extracts BASE into a temporary directory, builds each side once
# (`go build ./benchmark` for -workload, `go test -c` of PKG for -bench),
# and runs PAIRS alternating pairs (default 10) with the same seed and
# flags, swapping which side goes first. It prints every pair, then per
# metric the change's wins, both medians, the base's interquartile range
# and a verdict:
#
#   gain        the change wins at least 9 pairs in 10, of at least 10,
#               and the medians differ by more than the base's IQR;
#   unresolved  otherwise, when the base's IQR exceeds the metric's bound
#               (as a share of its median);
#   worse       otherwise, when the change's median is worse than the
#               base's by more than the bound;
#   flat        otherwise.
#
# Bounds and directions come from the end_to_end metrics of BENCHMARK.json.
# Go benchmark metrics take alloc_mb_per_op's bound for B/op and allocs/op
# and op_p50_ms's for the rest; ok_share and */s are better higher.
#
# -workload refuses to run when benchmark/ differs from BASE: both sides
# must run the same benchmark sources. -bench may name a benchmark that
# exists only in the working tree: -with FILE copies the working tree's
# FILE (relative to the repository root) into the base before it builds.
# Everything the script writes lives in one directory under TMPDIR,
# removed on exit. Needs bash, git, tar, awk and the Go toolchain.
set -euo pipefail

usage() {
	sed -n '2,9p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
}

pairs=10 seed=1 seconds=10 benchtime=1x
base="" workload="" pattern="" pkg=""
with=()
while [ $# -gt 0 ]; do
	case "$1" in
	-n) pairs=$2; shift 2 ;;
	-seed) seed=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-benchtime) benchtime=$2; shift 2 ;;
	-with) with+=("$2"); shift 2 ;;
	-workload) workload=$2; shift 2 ;;
	-bench) pattern=$2; pkg=$3; shift 3 ;;
	-h | -help | --help) usage ;;
	-*) echo "pairs.sh: unknown flag $1" >&2; usage ;;
	*) [ -z "$base" ] || usage; base=$1; shift ;;
	esac
done
[ -n "$base" ] || usage
if { [ -n "$workload" ] && [ -n "$pattern" ]; } || { [ -z "$workload" ] && [ -z "$pattern" ]; }; then
	echo "pairs.sh: give exactly one of -workload W or -bench PATTERN PKG" >&2
	usage
fi
[ "$pairs" -ge 1 ] 2>/dev/null || { echo "pairs.sh: -n must be a positive count" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=$(git rev-parse --verify --quiet "$base^{commit}") || { echo "pairs.sh: no commit $base" >&2; exit 2; }
if [ -n "$workload" ] && ! git diff --quiet "$rev" -- benchmark/; then
	echo "pairs.sh: benchmark/ differs from $base; both sides must run the same benchmark" >&2
	exit 1
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/out"
git archive "$rev" | tar -x -C "$tmp/base"
for f in ${with[@]+"${with[@]}"}; do
	mkdir -p "$tmp/base/$(dirname "$f")"
	cp "$root/$f" "$tmp/base/$f"
done

# Build each side once. A side is run from its own checkout.
export GOTOOLCHAIN=local
for side in change base; do
	dir=$root
	[ "$side" = base ] && dir=$tmp/base
	if [ -n "$workload" ]; then
		(cd "$dir" && go build -o "$tmp/$side.bin" ./benchmark)
	else
		(cd "$dir" && go test -c -o "$tmp/$side.bin" "./$pkg")
	fi
done

# run SIDE PAIR appends "pair side metric value" lines to results.
run() {
	local side=$1 pair=$2 dir=$root out
	[ "$side" = base ] && dir=$tmp/base
	if [ -n "$workload" ]; then
		out=$(cd "$dir" && "$tmp/$side.bin" -workload "$workload" -seed "$seed" \
			-seconds "$seconds" -trace 0 -out "$tmp/out" | tail -n 1) || true
		# The last line is {"correct":…,"attempted":N,"failed":M,"metrics":{"m":{"value":v,…},…}}.
		printf '%s\n' "$out" | grep -o '"[a-z0-9_.]*": *{"value": *[-0-9.eE+]*' |
			sed 's/"\([^"]*\)": *{"value": *\(.*\)/\1 \2/' |
			awk -v p="$pair" -v s="$side" '{ print p, s, $1, $2 }' >>"$tmp/results"
		printf '%s\n' "$out" | grep -o '"\(attempted\|failed\)": *[0-9]*' |
			sed 's/"\([a-z]*\)": *\([0-9]*\)/\1 \2/' |
			awk -v p="$pair" -v s="$side" '{ print p, s, "#" $1, $2 }' >>"$tmp/results"
	else
		out=$(cd "$dir/$pkg" && "$tmp/$side.bin" -test.run '^$' -test.bench "$pattern" \
			-test.benchtime "$benchtime" -test.count 1 -test.benchmem -test.timeout 30m) ||
			{ printf '%s\n' "$out" >&2; echo "pairs.sh: $side benchmark failed" >&2; exit 1; }
		printf '%s\n' "$out" | awk -v p="$pair" -v s="$side" '/^Benchmark/ {
				name = $1; sub(/-[0-9]+$/, "", name)
				for (i = 3; i < NF; i += 2) print p, s, name ":" $(i + 1), $i
			}' >>"$tmp/results"
	fi
}

: >"$tmp/results"
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then first=change second=base; else first=base second=change; fi
	run "$first" "$i"
	run "$second" "$i"
	echo "pair $i: $first first" >&2
done

# Bounds and directions of BENCHMARK.json's end_to_end metrics.
awk '/"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, "", $2); name = $2 }
	on && /"better"/ { gsub(/[",]/, "", $2); better[name] = $2 }
	on && /"bound"/ { gsub(/[",]/, "", $2); print name, better[name], $2 }' \
	"$root/BENCHMARK.json" >"$tmp/bounds"

awk -v pairs="$pairs" '
function sortv(a, n,   i, j, t) {
	for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function median(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
# Quartile k of a sorted, as Python statistics.quantiles(n=4) (exclusive).
function quart(a, n, k,   pos, j) {
	pos = k * (n + 1) / 4; j = int(pos)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	return a[j] + (pos - j) * (a[j + 1] - a[j])
}
function abs(x) { return x < 0 ? -x : x }
FILENAME == ARGV[1] { better[$1] = $2; bound[$1] = $3; next }
{
	key = $3
	if (!(key in seen)) { seen[key] = 1; order[++nm] = key }
	v[key, $2, $1] = $4
}
END {
	for (m = 1; m <= nm; m++) {
		key = order[m]
		if (key ~ /^#/) continue
		printf "%s\n  pair  %-22s change\n", key, "base"
		for (p = 1; p <= pairs; p++) printf "  %-4d  %-22s %s\n", p, v[key, "base", p], v[key, "change", p]
	}
	att["base"] = att["change"] = fail["base"] = fail["change"] = 0
	for (p = 1; p <= pairs; p++) for (s in att) { att[s] += v["#attempted", s, p]; fail[s] += v["#failed", s, p] }
	if (att["base"] + att["change"] > 0)
		printf "\nfailed ops: base %d of %d, change %d of %d\n", fail["base"], att["base"], fail["change"], att["change"]
	printf "\n%-36s %-6s %-6s %-13s %-13s %-11s %-6s %s\n", "metric", "better", "bound", "base median", "change median", "base IQR", "wins", "verdict"
	# A gain needs at least ten pairs, and wins in nine tenths of them.
	need = pairs < 10 ? pairs + 1 : pairs - int(pairs / 10)
	for (m = 1; m <= nm; m++) {
		key = order[m]
		if (key ~ /^#/) continue
		unit = key; sub(/^.*:/, "", unit)
		if (key in better) { dir = better[key]; bd = bound[key] }
		else {
			dir = (unit == "ok_share" || unit ~ /\/s$/) ? "higher" : "lower"
			bd = (unit == "B/op" || unit == "allocs/op") ? bound["alloc_mb_per_op"] : bound["op_p50_ms"]
		}
		nb = nc = wins = 0
		for (p = 1; p <= pairs; p++) {
			if ((key, "base", p) in v) b[++nb] = v[key, "base", p]
			if ((key, "change", p) in v) c[++nc] = v[key, "change", p]
			if (((key, "base", p) in v) && ((key, "change", p) in v)) {
				d = v[key, "change", p] - v[key, "base", p]
				if ((dir == "lower" && d < 0) || (dir == "higher" && d > 0)) wins++
			}
		}
		if (nb == 0 || nc == 0) { printf "%-36s missing on one side\n", key; continue }
		sortv(b, nb); sortv(c, nc)
		mb = median(b, nb); mc = median(c, nc)
		iqr = nb > 1 ? quart(b, nb, 3) - quart(b, nb, 1) : 0
		worse = (dir == "lower" ? mc - mb : mb - mc) / (mb == 0 ? 1 : abs(mb))
		if (wins >= need && abs(mc - mb) > iqr && worse < 0) verdict = "gain"
		else if (mb != 0 && iqr / abs(mb) > bd) verdict = "unresolved"
		else if (worse > bd) verdict = "worse"
		else verdict = "flat"
		printf "%-36s %-6s %-6s %-13.6g %-13.6g %-11.4g %2d/%-3d %s\n", key, dir, bd, mb, mc, iqr, wins, pairs, verdict
	}
}' "$tmp/bounds" "$tmp/results"
