#!/usr/bin/env bash
# pairs.sh — the alternating-pairs procedure a performance statement about
# this repo rests on (choosing-metrics §8), in one command:
#
#   scripts/pairs.sh <parent-commit> <workload> [pairs=10]
#
# Builds ./benchmark at <parent-commit> (from a `git archive` export in a
# temp dir — nothing is left registered in the repository) and at the
# working tree, runs the two binaries on <workload> in alternating order
# (parent first in odd pairs, the change first in even ones) at the
# benchmark's own run length, and prints for every end-to-end metric of
# BENCHMARK.json: the per-pair ratios change/parent, both sides' quartiles,
# the median ratio, how many pairs the change won and the verdict of the
# rule a claim is held to (choosing-metrics §8): `gain` when the change is
# better in at least nine tenths of the pairs, ties counting for neither
# side, AND the medians differ by more than the parent's own q3−q1;
# `worse` when the parent is, by the same two tests; `equal` when every
# pair tied; `unresolved` otherwise. Then whether the counts
# (up_mb_per_round, down_mb_per_round, model_hash) were exact across all
# runs, and any failed upload or output check. SEED (default 2) picks the
# workload seed. It reads the benchmark only through its CLI.
#
# One pair is a look, not a claim; ten is the floor for a claim. Run it on
# an otherwise idle machine and commit the output under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

if (( $# < 2 )); then
    sed -n '2,24p' "$0" >&2
    exit 2
fi
parent="$1"
workload="$2"
pairs="${3:-10}"
seed="${SEED:-2}"
seconds=$(awk -F'[:,]' '/"run_seconds"/ {gsub(/ /, "", $2); print $2}' BENCHMARK.json)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/run"
git archive "$parent" | tar -x -C "$work/parent"
(cd "$work/parent" && go build -o "$work/bench_parent" ./benchmark)
go build -o "$work/bench_new" ./benchmark

echo "# $workload: parent $(git rev-parse --short "$parent") vs $(git rev-parse --short HEAD)$(git diff --quiet HEAD || echo '+uncommitted'), $pairs alternating pairs, --seed $seed --seconds $seconds --trace 0"
echo "# box: $(nproc) cores, $(awk -F': ' '/model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null), $(go version | awk '{print $3}')"

for i in $(seq 1 "$pairs"); do
    if (( i % 2 )); then order="parent new"; else order="new parent"; fi
    for side in $order; do
        # The benchmark writes its trace and result files where it runs.
        if ! (cd "$work/run" && "$work/bench_$side" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0) >"$work/$side.$i.out" 2>&1; then
            echo "  pair $i: the $side run exited non-zero" >&2
        fi
    done
    echo "  pair $i done ($order)" >&2
done

# The directions come from the benchmark's own declaration.
awk '/"end_to_end"/ {on = 1} on && /"name"/ {gsub(/[",]/, ""); name = $2}
     on && /"better"/ {gsub(/[",]/, ""); print name, $2} on && /\]/ {exit}' BENCHMARK.json >"$work/metrics"

awk -v pairs="$pairs" -v dir="$work" '
function quartile(v, n, q,    pos, lo, frac) { # linear interpolation over the sorted v[1..n]
    pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) for (j = i; j > 1 && dst[j] < dst[j - 1]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
}
function quartiles(src, n,    s) { sorted(src, s, n); return sprintf("%.4g/%.4g/%.4g", quartile(s, n, .25), quartile(s, n, .5), quartile(s, n, .75)) }
BEGIN {
    while ((getline line < (dir "/metrics")) > 0) { split(line, f, " "); order[++nm] = f[1]; better[f[1]] = f[2] }
    split("parent new", sides, " ")
    for (s = 1; s <= 2; s++) for (i = 1; i <= pairs; i++) {
        file = dir "/" sides[s] "." i ".out"
        while ((getline line < file) > 0) {
            n = split(line, f, " ")
            if (f[1] in better && n == 3) val[sides[s], f[1], i] = f[2]
            else if (f[1] == "count") { if (!((f[2], "first") in counts)) counts[f[2], "first"] = f[3]; else if (counts[f[2], "first"] != f[3]) counts[f[2], "moved"] = 1; names[f[2]] = 1 }
            else if (f[1] == "failed_frac" && f[2] + 0 != 0) bad[++nbad] = sides[s] " run " i ": " line
            else if (f[1] == "check" && f[2] != "ok") bad[++nbad] = sides[s] " run " i ": " line
        }
        close(file)
    }
    for (m = 1; m <= nm; m++) {
        name = order[m]; wins = 0; losses = 0; ratios = ""
        for (i = 1; i <= pairs; i++) {
            p[i] = val["parent", name, i]; c[i] = val["new", name, i]
            r[i] = p[i] != 0 ? c[i] / p[i] : (c[i] == 0 ? 1 : 1e9)
            ratios = ratios sprintf(" %.3f", r[i])
            if (better[name] == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
            else if (c[i] != p[i]) losses++
        }
        sorted(r, rs, pairs); sorted(p, ps, pairs); sorted(c, cs, pairs)
        shift = quartile(cs, pairs, .5) - quartile(ps, pairs, .5)
        beyond = (shift < 0 ? -shift : shift) > quartile(ps, pairs, .75) - quartile(ps, pairs, .25)
        verdict = "unresolved"
        if (wins + losses == 0) verdict = "equal"
        else if (beyond && 10 * wins >= 9 * pairs) verdict = "gain"
        else if (beyond && 10 * losses >= 9 * pairs) verdict = "worse"
        printf "%-18s (%s is better) parent q1/med/q3 %s  new %s  median ratio %.3f  new wins %d/%d  verdict %s\n", name, better[name], quartiles(p, pairs), quartiles(c, pairs), quartile(rs, pairs, .5), wins, pairs, verdict
        printf "    per-pair new/parent:%s\n", ratios
        if (name == "up_mb_per_round" || name == "down_mb_per_round") {
            exact = 1
            for (i = 1; i <= pairs; i++) if (p[i] != p[1] || c[i] != p[1]) exact = 0
            printf "    count %s: %s\n", name, exact ? "exact across all " 2 * pairs " runs" : "differs between runs (a per-round mean: compare count up_bytes/down_bytes below, taken at a fixed round)"
        }
    }
    for (k in names) printf "count %s: %s\n", k, ((k, "moved") in counts) ? "MOVED" : "exact across all " 2 * pairs " runs (" counts[k, "first"] ")"
    if (nbad) { print "FAILED uploads or output checks:"; for (i = 1; i <= nbad; i++) print "  " bad[i] } else print "failed uploads 0 and every output check ok in all " 2 * pairs " runs"
}'
