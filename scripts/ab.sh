#!/usr/bin/env bash
# Paired A/B run of one BENCHMARK.json workload: a base revision against
# the working tree.
#
#   scripts/ab.sh <base-rev> <workload> [pairs=10]
#
# <base-rev> is extracted with `git archive` into a temporary directory.
# Each side's `benchmark` binary is built once, into .bench_build/base and
# .bench_build/change. The two then run alternately for BENCHMARK.json's
# run_seconds: pair i runs both sides at seed first+i, the base first in
# odd pairs and the change first in even ones. Alternating the builds is
# the only thing found to cancel the host's speed plateaus, which move a
# whole run by up to 1.9x (benchmark/README.md, "Noise").
#
# Each run's log is kept under .bench_build/ab-<start time>/. Its last JSON
# line is read with awk. For each end-to-end metric of BENCHMARK.json one
# Markdown row follows: bound, base median [Q1, Q3], change median [Q1,
# Q3], change / base and pairs won. `better` and `bound` come from
# BENCHMARK.json. The verdict per metric is:
#
#   win         at least ten pairs ran, the change wins at least 9/10 of
#               them (a tie counts for neither side), its median beats the
#               base median by more than the base's interquartile distance,
#               and its failed share of operations is no larger than the
#               base's;
#   regression  the change's median is worse than the base median by more
#               than the metric's bound;
#   even        anything else.
#
# Quartiles interpolate linearly between order statistics. The last line
# is `AB_RESULT: WIN <metrics>|EVEN|REGRESSION <metrics>|INCORRECT`. The
# exit status is 1 on a regression or an incorrect run on either side, and
# 2 on a usage error.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

usage() {
    echo "usage: scripts/ab.sh <base-rev> <workload> [pairs=10]" >&2
    exit 2
}
[[ $# -eq 2 || $# -eq 3 ]] || usage
rev=$1
workload=$2
pairs=${3:-10}
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
base_sha=$(git rev-parse --verify -q "$rev^{commit}") || {
    echo "ab.sh: unknown revision '$rev'" >&2
    exit 2
}

# BENCHMARK.json keeps one object per line: `run_seconds`, then a
# `workloads` and an `end_to_end` list. The spec file gets one line per
# end-to-end metric: name unit better bound.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
spec=$tmp/spec
seconds=$(awk -v spec="$spec" -v want="$workload" '
    function field(line, key,    s) {
        if (!match(line, "\"" key "\": *")) return ""
        s = substr(line, RSTART + RLENGTH)
        if (s ~ /^"/) { s = substr(s, 2); sub(/".*/, "", s) }
        else sub(/[^-+.0-9eE].*/, "", s)
        return s
    }
    /"run_seconds"/ { seconds = field($0, "run_seconds") }
    /"workloads"/ { list = "workloads" }
    /"end_to_end"/ { list = "end_to_end" }
    /"per_layer"/ { list = "" }
    list == "workloads" && field($0, "name") == want { found = 1 }
    list == "end_to_end" && field($0, "name") != "" {
        print field($0, "name"), field($0, "unit"), field($0, "better"),
            field($0, "bound") > spec
    }
    END {
        if (!found) { print "ab.sh: no workload \"" want "\" in BENCHMARK.json" > "/dev/stderr"; exit 2 }
        print seconds
    }
' BENCHMARK.json) || usage

echo "ab: building base $rev ($base_sha) and the working tree"
base_src=$tmp/src
mkdir "$base_src"
git archive "$base_sha" | tar -x -C "$base_src"
for side in base change; do
    src=$root
    [[ $side == base ]] && src=$base_src
    CARGO_TARGET_DIR="$root/.bench_build/$side" cargo build --release --locked --offline -q \
        --manifest-path "$src/benchmark/Cargo.toml" --bin benchmark
done

first=$(date +%s)
logs=$root/.bench_build/ab-$first
mkdir -p "$logs"
results=$logs/results
: >"$results"
echo "ab: workload $workload, $pairs pairs of $seconds s, seeds $((first + 1))..$((first + pairs)), logs in ${logs#"$root"/}"

# One run: appends `side pair seed correct attempted failed <values>` to
# the results file, values in spec order and NA where a run printed none,
# and prints the same as one readable line.
run() {
    local side=$1 pair=$2 seed=$3 src=$root log
    [[ $side == base ]] && src=$base_src
    log=$logs/$side-$pair.log
    (cd "$src" && "$root/.bench_build/$side/release/benchmark" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0) >"$log" 2>&1 || true
    awk -v side="$side" -v pair="$pair" -v seed="$seed" -v results="$results" '
        FNR == NR { names[++n] = $1; next }
        /^\{/ { last = $0 }
        END {
            correct = (last ~ /"correct": true/) ? "true" : "false"
            attempted = (match(last, /"attempted": [0-9]+/)) ? substr(last, RSTART + 13, RLENGTH - 13) : 0
            failed = (match(last, /"failed": [0-9]+/)) ? substr(last, RSTART + 10, RLENGTH - 10) : 0
            line = side " " pair " " seed " " correct " " attempted " " failed
            shown = sprintf("pair %d seed %d %-6s correct %s, %d attempted, %d failed;", \
                pair, seed, side, correct, attempted, failed)
            for (i = 1; i <= n; i++) {
                key = "\"" names[i] "\": {\"value\": "
                v = "NA"
                if (k = index(last, key)) {
                    v = substr(last, k + length(key))
                    sub(/[^-+.0-9eE].*/, "", v)
                }
                line = line " " v
                shown = shown " " names[i] " " v
            }
            print line >>results
            print shown
        }
    ' "$spec" "$log"
}

for ((i = 1; i <= pairs; i++)); do
    seed=$((first + i))
    order="base change"
    ((i % 2)) || order="change base"
    for side in $order; do
        run "$side" "$i" "$seed"
    done
done

awk -v pairs="$pairs" -v workload="$workload" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # Linear interpolation between order statistics of the sorted a[1..n].
    function quantile(a, n, p,    pos, lo) {
        pos = 1 + (n - 1) * p
        lo = int(pos)
        if (lo >= n) return a[n]
        return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    function num(v,    a) {
        a = v < 0 ? -v : v
        return a >= 1000 ? sprintf("%.0f", v) : sprintf("%#.4g", v)
    }
    # Sets q[1..3] to the quartiles of side s, metric m; returns the count.
    function quartiles(s, m,    n, i, a) {
        n = 0
        for (i = 1; i <= pairs; i++)
            if ((s, m, i) in val) a[++n] = val[s, m, i]
        if (n == 0) return 0
        sort(a, n)
        q[1] = quantile(a, n, 0.25); q[2] = quantile(a, n, 0.5); q[3] = quantile(a, n, 0.75)
        return n
    }
    FNR == NR { m = NR; name[m] = $1; unit[m] = $2; better[m] = $3; bound[m] = $4; metrics = m; next }
    {
        runs[$1]++
        if ($4 != "true") incorrect[$1]++
        attempted[$1] += $5
        failed[$1] += $6
        for (m = 1; m <= metrics; m++)
            if ($(6 + m) != "NA") val[$1, m, $2] = $(6 + m) + 0
    }
    END {
        printf "\n| `%s` metric | bound | base median [Q1, Q3] | change median [Q1, Q3] | change / base | pairs won |\n", workload
        print "|---|---:|---|---|---:|---:|"
        # A gain does not count when the change fails a larger share of
        # operations than the base.
        fails_more = failed["change"] * attempted["base"] > failed["base"] * attempted["change"]
        for (m = 1; m <= metrics; m++) {
            nb = quartiles("base", m); b1 = q[1]; b2 = q[2]; b3 = q[3]
            nc = quartiles("change", m); c1 = q[1]; c2 = q[2]; c3 = q[3]
            hi = better[m] == "higher"
            won = 0
            for (i = 1; i <= pairs; i++)
                if (("base", m, i) in val && ("change", m, i) in val) {
                    d = val["change", m, i] - val["base", m, i]
                    if (hi ? d > 0 : d < 0) won++
                }
            if (nb == 0 || nc == 0) {
                printf "| `%s` (%s, %s) | %d%% | n/a | n/a | n/a | %d/%d |\n", name[m], unit[m], better[m], bound[m] * 100 + 0.5, won, pairs
                verdict[m] = "unmeasured"
                continue
            }
            printf "| `%s` (%s, %s) | %d%% | %s [%s, %s] | %s [%s, %s] | %s | %d/%d |\n", \
                name[m], unit[m], better[m], bound[m] * 100 + 0.5, num(b2), num(b1), num(b3), \
                num(c2), num(c1), num(c3), (b2 != 0 ? sprintf("%.2f", c2 / b2) : "n/a"), won, pairs
            gap = hi ? c2 - b2 : b2 - c2
            if (hi ? c2 < b2 * (1 - bound[m]) : c2 > b2 * (1 + bound[m])) {
                verdict[m] = "regression"; regressed = regressed " " name[m]
            } else if (pairs >= 10 && won * 10 >= pairs * 9 && gap > b3 - b1 && !fails_more) {
                verdict[m] = "win"; wins = wins " " name[m]
            } else verdict[m] = "even"
        }
        print ""
        for (s = 0; s < 2; s++) {
            side = s ? "change" : "base"
            printf "%-6s %d runs, %d incorrect; %d operations attempted, %d failed\n", side, runs[side], incorrect[side], attempted[side], failed[side]
        }
        line = "verdict:"
        for (m = 1; m <= metrics; m++) line = line " " name[m] " " verdict[m] (m < metrics ? ";" : "")
        print line
        if (incorrect["base"] + incorrect["change"] > 0 || runs["base"] + runs["change"] < 2 * pairs) {
            print "AB_RESULT: INCORRECT"; exit 1
        }
        if (regressed != "") { print "AB_RESULT: REGRESSION" regressed; exit 1 }
        print (wins != "" ? "AB_RESULT: WIN" wins : "AB_RESULT: EVEN")
    }
' "$spec" "$results"
