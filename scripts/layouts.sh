#!/usr/bin/env bash
# How much of a benchmark reading is code layout: one revision's
# benchmark binary linked K + 1 ways, run interleaved.
#
#   scripts/layouts.sh REV K WORKLOAD SECONDS [ROUNDS] [SEED]
#                                     (ROUNDS defaults to 3, SEED to 1)
#
# Copies revision REV (`git archive`) to a temporary directory, so
# `benchmark/`, its target directory and its Cargo.lock stay untouched,
# and builds the benchmark there once, in a target directory of its own.
# It then relinks the `rtc-benchmark` binary K times with the linker
# told to shuffle the functions' sections,
#
#   cargo rustc --release --bin rtc-benchmark -- \
#       -C link-arg=-Wl,--shuffle-sections=.text*=SEED
#
# for the seeds 1..K, plus once unshuffled (layout 0, the binary the
# benchmark runs). Only the order of the code changes: every layout has
# the same functions, compiled once. The K + 1 binaries then take turns,
# ROUNDS rounds of one untraced SECONDS-long run each, and the script
# prints, for every end-to-end metric, each layout's median, the spread
# of those medians ((max - min) / median of medians) and the largest
# interquartile range within one layout, both as shares. A move between
# two revisions smaller than the layout spread cannot be told from the
# linker's choices.
#
# Exits 1 when the K shuffled binaries are byte-equal (the linker
# ignored the shuffle; `--shuffle-sections` is an LLD option, the
# default linker of Rust's x86-64 Linux target) and 2 when a tool is
# missing; needs nothing beyond git, the toolchain and the POSIX tools.
# Run it on a quiet host: the
# runs of all layouts share it, and interleaving only spreads slow
# moments evenly, it does not remove them.
set -euo pipefail

if [[ $# -lt 4 ]]; then
    echo "usage: scripts/layouts.sh REV K WORKLOAD SECONDS [ROUNDS] [SEED]" >&2
    exit 64
fi
rev=$1
k=$2
workload=$3
seconds=$4
rounds=${5:-3}
seed=${6:-1}
if ! [[ "$k" =~ ^[1-9][0-9]*$ && "$rounds" =~ ^[1-9][0-9]*$ ]]; then
    echo "layouts.sh: K and ROUNDS are positive integers" >&2
    exit 64
fi
for tool in git cmp; do
    if ! command -v "$tool" >/dev/null; then
        echo "layouts.sh: '$tool' is not installed; the script needs it" >&2
        exit 2
    fi
done

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree"
git -C "$repo" archive "$rev" | tar -x -C "$tree"

export CARGO_TARGET_DIR="$work/target"
manifest="$tree/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$manifest"
relink() {
    cargo rustc --release --offline --quiet --manifest-path "$manifest" \
        --bin rtc-benchmark -- "$@"
    cp "$CARGO_TARGET_DIR/release/rtc-benchmark" "$work/layout-$layout"
}
layout=0
relink
for layout in $(seq 1 "$k"); do
    relink -C "link-arg=-Wl,--shuffle-sections=.text*=$layout"
done
# Ignored: two shuffle seeds gave the same binary, or (K = 1) the one
# shuffled binary is the unshuffled one.
first=0
if [[ "$k" -gt 1 ]]; then
    first=1
fi
same=1
for layout in $(seq $((first + 1)) "$k"); do
    cmp -s "$work/layout-$first" "$work/layout-$layout" || same=0
done
if [[ $same -eq 1 ]]; then
    echo "layouts.sh: the shuffled binaries are byte-equal; the linker ignored the shuffle" >&2
    exit 1
fi

# The binary writes its run files under benchmark/out of its working
# directory: the copy's. Each run's metric lines ("name value unit")
# become "name layout value" lines, and its failed count a "failed" one.
cd "$tree"
for round in $(seq 1 "$rounds"); do
    for layout in $(seq 0 "$k"); do
        echo "round $round/$rounds, layout $layout" >&2
        "$work/layout-$layout" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 >"$work/run.txt"
        awk -v l="$layout" '
            /^# / { for (i = 1; i <= NF; i++) if ($i ~ /^failed=/) print "failed", l, substr($i, 8); next }
            NF == 3 && $2 ~ /^[0-9.eE+-]+$/ { print $1, l, $2 }
        ' "$work/run.txt" >>"$work/values"
    done
done

echo "# $workload at $rev: $((k + 1)) layouts (L0 unshuffled) x $rounds runs, seed $seed"
sort -k1,1 -k2,2n -k3,3g "$work/values" | awk -v k="$k" '
    # The p-quantile of the n sorted values in v, interpolated.
    function quantile(v, n, p,    h, lo) {
        h = (n - 1) * p
        lo = int(h)
        return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
    }
    function close_group(    m) {
        if (n == 0) return
        if (metric == "failed") { for (m = 0; m < n; m++) failed += v[m] }
        else {
            med[metric, layout] = quantile(v, n, 0.5)
            iqr[metric, layout] = quantile(v, n, 0.75) - quantile(v, n, 0.25)
            if (!(metric in seen)) { seen[metric] = 1; names[++count] = metric }
        }
        n = 0
    }
    $1 != metric || $2 != layout { close_group(); metric = $1; layout = $2 }
    { v[n++] = $3 }
    END {
        close_group()
        printf "%-24s", "metric"
        for (l = 0; l <= k; l++) printf "%11s", "L" l
        printf "%9s%9s\n", "spread", "max IQR"
        for (c = 1; c <= count; c++) {
            name = names[c]
            worst = 0
            for (l = 0; l <= k; l++) {
                ms[l] = med[name, l]
                if (ms[l] != 0 && iqr[name, l] / ms[l] > worst) worst = iqr[name, l] / ms[l]
            }
            # Sort the layout medians (insertion sort) for their median.
            for (i = 1; i <= k; i++)
                for (j = i; j > 0 && ms[j - 1] > ms[j]; j--) { t = ms[j]; ms[j] = ms[j - 1]; ms[j - 1] = t }
            mid = quantile(ms, k + 1, 0.5)
            printf "%-24s", name
            for (l = 0; l <= k; l++) printf "%11.4g", med[name, l]
            printf "%8.2f%%%8.2f%%\n", mid ? 100 * (ms[k] - ms[0]) / mid : 0, 100 * worst
        }
        printf "failed: %d\n", failed
    }'
