#!/bin/sh
# usage: tools/pairs/run.sh <parent-bin> <change-bin> <workload> <pairs> [seconds] [extra args…]
# Runs two viz-e2e binaries in alternating pairs (`--seed 1 --trace 0`,
# <seconds> each, default 1; the extra arguments go to both), reads the
# last JSON line of every run, and prints, per end-to-end metric, the
# parent's median [q1, q3] -> the change's median [q1, q3] and the number
# of pairs the change won. Odd pairs run the change first, so a drifting
# host favours neither side. A metric named `*_per_s` is better higher,
# every other one lower. Both binaries are copied to paths of equal length
# under one temporary directory before timing: the length of a binary's
# path alone moves `peak_rss_mb` by 3-5 % (the process's startup layout
# follows it). Exits non-zero if a run fails or reports incorrect results.
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
mkdir "$tmp/a" "$tmp/b"
cp "$parent" "$tmp/a/viz-e2e"
cp "$change" "$tmp/b/viz-e2e"
parent=$tmp/a/viz-e2e change=$tmp/b/viz-e2e

# run <side> <pair> <binary> [extra args…]: one run, its metrics appended
# to $tmp/values as `side pair metric value` lines.
run() {
    side=$1 pair=$2 bin=$3
    shift 3
    if ! "$bin" --workload "$workload" --seed 1 --trace 0 --seconds "$seconds" "$@" \
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
    if [ $((i % 2)) -eq 1 ]; then
        run parent "$i" "$parent" "$@"
        run change "$i" "$change" "$@"
    else
        run change "$i" "$change" "$@"
        run parent "$i" "$parent" "$@"
    fi
    i=$((i + 1))
done

echo "# $workload: $pairs alternating pairs of $seconds s, --seed 1 --trace 0 $*"
awk -v pairs="$pairs" '
    # The p-quantile of v[1..n], sorted, interpolated between ranks.
    function quantile(v, n, p,    h, k) {
        h = (n - 1) * p + 1
        k = int(h)
        return k >= n ? v[n] : v[k] + (h - k) * (v[k + 1] - v[k])
    }
    function summary(side, name,    v, n, k, j, t) {
        n = 0
        for (k = 1; k <= pairs; k++)
            if ((side, name, k) in val)
                v[++n] = val[side, name, k]
        for (k = 2; k <= n; k++)
            for (j = k; j > 1 && v[j - 1] > v[j]; j--) {
                t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
            }
        return sprintf("%.4g [%.4g, %.4g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
    }
    {
        val[$1, $3, $2] = $4
        if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 }
    }
    END {
        printf "%-24s %-34s    %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
        for (k = 1; k <= names; k++) {
            name = order[k]
            higher = name ~ /_per_s$/
            wins = 0
            for (p = 1; p <= pairs; p++) {
                a = val["parent", name, p]; b = val["change", name, p]
                if (higher ? b > a : b < a) wins++
            }
            printf "%-24s %-34s -> %-34s %d/%d\n", name, summary("parent", name), summary("change", name), wins, pairs
        }
    }
' "$tmp/values"
