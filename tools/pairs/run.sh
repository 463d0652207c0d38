#!/bin/sh
# usage: tools/pairs/run.sh <parent-bin> <change-bin> <workload> <pairs> [seconds] [extra args…]
# Runs two viz-e2e binaries, and a byte-identical copy of the parent, in
# pairs (`--seed 1 --trace 0`, <seconds> each, default 1; the extra
# arguments go to every run), reads the last JSON line of every run, and
# prints, per end-to-end metric:
#   - the parent's median [q1, q3] -> the change's median [q1, q3];
#   - the change's median per-pair delta (change vs parent, % of parent);
#   - the A/A noise floor: the median and 90th percentile of the per-pair
#     |delta| between the parent and its copy (same binary, same bytes);
#   - the pairs the change won and a verdict.
# A metric is `resolved` when its A/B median |delta| exceeds the A/A p90
# and one side wins at least ceil(0.9 * pairs) pairs; otherwise it is
# `unresolved` (never "unchanged": a move inside the noise floor is not
# evidence of no move). The order of the three runs rotates from pair to
# pair, so a drifting host favours no side. A metric named `*_per_s` is
# better higher, every other one lower. All binaries are copied to paths
# of equal length under one temporary directory before timing: the length
# of a binary's path alone moves `peak_rss_mb` by 3-5 % (the process's
# startup layout follows it). Exits non-zero if a run fails or reports
# incorrect results.
set -eu
[ $# -ge 4 ] || { sed -n '2p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3 pairs=$4
shift 4
seconds=1
if [ $# -gt 0 ]; then
    seconds=$1
    shift
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/a" "$tmp/b" "$tmp/c"
cp "$parent" "$tmp/a/viz-e2e"
cp "$change" "$tmp/b/viz-e2e"
cp "$parent" "$tmp/c/viz-e2e"

# run <side> <pair> [extra args…]: one run of side a (parent), b (change)
# or c (the parent's copy), its metrics appended to $tmp/values as
# `side pair metric value` lines.
run() {
    side=$1 pair=$2
    shift 2
    if ! "$tmp/$side/viz-e2e" --workload "$workload" --seed 1 --trace 0 --seconds "$seconds" "$@" \
        > "$tmp/out" 2> "$tmp/err"; then
        echo "$side run of pair $pair failed:" >&2
        tail -5 "$tmp/err" >&2
        exit 1
    fi
    grep '^{' "$tmp/out" | tail -1 | awk -v side="$side" -v pair="$pair" '
        index($0, "\"correct\": true") == 0 { bad = "incorrect results"; exit 1 }
        {
            rest = $0
            while (match(rest, /"[A-Za-z0-9_.]+": \{"value": [-+0-9.eE]+/)) {
                m = substr(rest, RSTART, RLENGTH)
                rest = substr(rest, RSTART + RLENGTH)
                name = m
                sub(/^"/, "", name)
                sub(/".*/, "", name)
                value = m
                sub(/.*"value": /, "", value)
                print side, pair, name, value
                found = 1
            }
        }
        END {
            if (!bad && !found) bad = "no metrics in the last JSON line"
            if (bad) { print bad > "/dev/stderr"; exit 1 }
        }
    ' >> "$tmp/values" || { echo "$side run of pair $pair:" >&2; exit 1; }
}

i=1
while [ "$i" -le "$pairs" ]; do
    case $((i % 3)) in
        1) order="a b c" ;;
        2) order="b c a" ;;
        0) order="c a b" ;;
    esac
    for side in $order; do
        run "$side" "$i" "$@"
    done
    i=$((i + 1))
done

echo "# $workload: $pairs rotated pairs of $seconds s (+ an A/A copy of the parent), --seed 1 --trace 0 $*"
awk -v pairs="$pairs" '
    # The p-quantile of v[1..n], sorted in place, interpolated between ranks.
    function quantile(v, n, p,    h, k) {
        sort(v, n)
        h = (n - 1) * p + 1
        k = int(h)
        return k >= n ? v[n] : v[k] + (h - k) * (v[k + 1] - v[k])
    }
    function sort(v, n,    k, j, t) {
        for (k = 2; k <= n; k++)
            for (j = k; j > 1 && v[j - 1] > v[j]; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
    }
    function summary(side, name,    v, n, k) {
        n = 0
        for (k = 1; k <= pairs; k++)
            if ((side, name, k) in val)
                v[++n] = val[side, name, k]
        return sprintf("%.4g [%.4g, %.4g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    # The change from x to y in percent of x (of y when x is 0).
    function rel(x, y,    d) {
        d = x != 0 ? x : y
        return d == 0 ? 0 : 100 * (y - x) / (d < 0 ? -d : d)
    }
    function abs(x) { return x < 0 ? -x : x }
    {
        val[$1, $3, $2] = $4
        if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 }
    }
    END {
        # ceil(0.9 * pairs) in integers.
        need = int((9 * pairs + 9) / 10)
        printf "%-24s %-30s    %-30s %9s %9s %9s %6s %s\n", "metric", "parent median [q1, q3]", \
            "change median [q1, q3]", "A/B med", "A/A |med|", "A/A p90", "wins", "verdict"
        for (k = 1; k <= names; k++) {
            name = order[k]
            higher = name ~ /_per_s$/
            wins = 0; losses = 0
            for (p = 1; p <= pairs; p++) {
                a = val["a", name, p]; b = val["b", name, p]; c = val["c", name, p]
                if (higher ? b > a : b < a) wins++
                if (higher ? b < a : b > a) losses++
                ab[p] = rel(a, b)
                aa[p] = abs(rel(a, c))
            }
            med = quantile(ab, pairs, 0.5)
            floor_med = quantile(aa, pairs, 0.5)
            floor_p90 = quantile(aa, pairs, 0.9)
            verdict = abs(med) > floor_p90 && (wins >= need || losses >= need) ? "resolved" : "unresolved"
            printf "%-24s %-30s -> %-30s %+8.2f%% %8.2f%% %8.2f%% %6s %s\n", name, summary("a", name), \
                summary("b", name), med, floor_med, floor_p90, wins "/" pairs, verdict
        }
    }
' "$tmp/values"
