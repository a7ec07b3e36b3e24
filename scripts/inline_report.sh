#!/usr/bin/env bash
# What LLVM inlined into the simulator's batch loop, and how large the
# loop's functions came out, in the benchmark binary.
#
#   scripts/inline_report.sh        report on the working tree
#   scripts/inline_report.sh REV    report on git revision REV
#
# Copies the working tree (or REV) to a temporary directory and builds
# the benchmark there as `benchmark/run.sh` does (release, offline),
# except that the final crate — where the generic `BatchSim::{run,
# rotate}` and `Lane::apply_step` are instantiated — is compiled with
# `-C remark=inline`. That flag prints LLVM's inlining decisions and
# changes no code. The report then lists, for each of those functions,
# the size in bytes of each out-of-line instance (`llvm-objdump -t`),
# where it was itself inlined (with that function's size), each callee
# inlined into it, and each callee left out of line with LLVM's reason.
# Two reports that match say the batch loop compiled to the same
# inlining and the same sizes, so a throughput difference between the
# two builds is not the loop's code layout. Needs `c++filt` and
# `llvm-objdump`; takes about a minute (a full build of the benchmark).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
if [[ $# -ge 1 ]]; then
    git -C "$repo" archive "$1" | tar -x -C "$work"
    label="$(git -C "$repo" rev-parse --short "$1")"
else
    tar -C "$repo" --exclude=./.git --exclude=./target --exclude=./benchmark/target \
        --exclude=./benchmark/out -c . | tar -x -C "$work"
    label="working tree"
fi

export CARGO_TARGET_DIR="$work/target"
if ! cargo rustc --release --offline --quiet --manifest-path "$work/benchmark/Cargo.toml" \
    --bin rtc-benchmark -- -C remark=inline 2>"$work/remarks.raw"; then
    grep -v "^note: " "$work/remarks.raw" >&2
    exit 1
fi
c++filt <"$work/remarks.raw" | grep -E "^note: .* inline \((success|missed)\): " \
    | sed -E 's/::h[0-9a-f]{16}//g' >"$work/remarks.txt"
llvm-objdump -t "$CARGO_TARGET_DIR/release/rtc-benchmark" | c++filt \
    | sed -nE 's/^[0-9a-f]+ .*[ \t]\.text[ \t]+([0-9a-f]+) (\.hidden )?(.*)$/\1\t\3/p' \
    | sed -E 's/::h[0-9a-f]{16}//g' >"$work/symbols.tsv"

# The remark lines that contain $1, or none.
remarks() {
    grep -F -- "$1" "$work/remarks.txt" || true
}

# Symbol hashes are stripped: they differ from build to build, and every
# instance of a generic function then reads as one name.
echo "# inline report: $label ($(rustc -V))"
for fn in 'rtc_sim::batch::BatchSim<A>::run' 'rtc_sim::batch::BatchSim<A>::rotate' \
    'rtc_sim::engine::Lane<A>::apply_step'; do
    echo
    echo "## ${fn}"
    sizes="$(awk -F '\t' -v want="$fn" '$2 == want { print $1 }' "$work/symbols.tsv" \
        | while read -r hex; do printf '0x%x\n' "$((16#$hex))"; done | sort | tr '\n' ' ')"
    echo "symbol sizes, one per out-of-line instance: ${sizes:-none}"
    echo "inlined into:"
    remarks "inline (success): '${fn}' inlined into" \
        | sed -E "s/^.* inlined into '(.*)'.*$/\1/" | sort -u | while read -r caller; do
            hex="$(awk -F '\t' -v want="$caller" '$2 == want { print $1; exit }' "$work/symbols.tsv")"
            echo "  ${caller} ($(if [[ -n "$hex" ]]; then printf '0x%x' "$((16#$hex))"; else echo no symbol; fi))"
        done
    echo "callees inlined into it (count over its instances):"
    remarks "' inlined into '${fn}' " \
        | sed -E "s/^.*inline \(success\): '(.*)' inlined into .*$/\1/" | sort | uniq -c
    echo "callees left out of line:"
    remarks "' not inlined into '${fn}' because" \
        | sed -E "s/^.*inline \(missed\): '(.*)' not inlined into '.*' because (.*)$/\1 -- \2/" \
        | sed -E 's/ ?\(cost=[^)]*\)//' | sort | uniq -c
done
