#!/usr/bin/env bash
# What LLVM inlined into the simulator's batch loop, how large the
# loop's functions came out, and whether the loop keeps its written
# inlining contract (DESIGN.md, "The hot-path inlining contract"), in
# the benchmark binary.
#
#   scripts/inline_report.sh [--check]        report on the working tree
#   scripts/inline_report.sh [--check] REV    report on git revision REV
#
# Copies the working tree (or REV) to a temporary directory and builds
# the benchmark there as `benchmark/run.sh` does (release, offline),
# except that the final crate — where the generic `BatchSim::{run,
# rotate, step_slice}` and `Lane::{apply, apply_step, ...}` are
# instantiated — is compiled with `-C remark=inline`. That flag prints
# LLVM's inlining decisions and changes no code. The report then lists,
# for each of those functions, the size in bytes of each out-of-line
# instance (`llvm-objdump -t`), where LLVM inlined it (with that
# function's size), each callee LLVM inlined into it, each callee left
# out of line with LLVM's reason, and every function of the binary
# whose machine code calls it. The last list is read from the
# disassembly (`llvm-objdump -d`, calls through the GOT resolved by the
# binary's relocations, so x86-64 only) and covers what remarks miss: a
# small `#[inline]` function that rustc's MIR inliner already inlined
# leaves no remark, and an instance compiled in another crate leaves
# none in this one. A function with no out-of-line instance and no
# caller is inlined everywhere.
#
# The report ends with the contract, judged on the machine code:
#   - the per-event helpers `Lane::{apply, forced_action, proc_ok,
#     pattern_view}` and the per-message `CommitAutomaton::ingest` have
#     no out-of-line call anywhere (they are inlined into
#     `BatchSim::step_slice` and into the step respectively);
#   - `Lane::apply_step` has an out-of-line instance (one per automaton
#     type), so the loop calls it, and every instance calls the store
#     and trace writers `MsgStore::{take_all, file_listed}` and
#     `Trace::push_step` out of line;
#   - every function that calls `apply_step` — the loop — also calls
#     each cold arm `Lane::{forced_scan, apply_crash, apply_duplicate}`
#     out of line, i.e. none was inlined into the loop.
# Each break is printed as `BREAK: ...`; with `--check` the script
# exits 1 when there is one. Two reports that match say the batch loop
# compiled to the same inlining and the same sizes, so a throughput
# difference between the two builds is not the loop's code layout.
# Needs `c++filt` and `llvm-objdump` and exits 2 without them; takes
# about a minute (a full build of the benchmark).
set -euo pipefail

check=0
if [[ "${1:-}" == --check ]]; then
    check=1
    shift
fi
for tool in c++filt llvm-objdump; do
    if ! command -v "$tool" >/dev/null; then
        echo "inline_report.sh: '$tool' is not installed; the report needs it" >&2
        exit 2
    fi
done

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
bin="$CARGO_TARGET_DIR/release/rtc-benchmark"
c++filt <"$work/remarks.raw" | grep -E "^note: .* inline \((success|missed)\): " \
    | sed -E 's/::h[0-9a-f]{16}//g' >"$work/remarks.txt"
llvm-objdump -t "$bin" | c++filt \
    | sed -nE 's/^[0-9a-f]+ .*[ \t]\.text[ \t]+([0-9a-f]+) (\.hidden )?(.*)$/\1\t\3/p' \
    | sed -E 's/::h[0-9a-f]{16}//g' >"$work/symbols.tsv"

# The call graph of the machine code, one `caller@address<TAB>callee`
# line per call or tail call to the start of another function. A call
# through the GOT is resolved through the slot's relative relocation.
llvm-objdump -R "$bin" | awk '$2 == "R_X86_64_RELATIVE" { sub(/^\*ABS\*\+/, "", $3); print $1, $3 }' \
    >"$work/got.txt"
llvm-objdump -d --no-show-raw-insn "$bin" | c++filt | sed -E 's/::h[0-9a-f]{16}//g' \
    | awk -v got_file="$work/got.txt" '
        function hex(s,    i, v) {
            s = tolower(s); sub(/^0x/, "", s); v = 0
            for (i = 1; i <= length(s); i++) v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
            return v
        }
        BEGIN { while ((getline line < got_file) > 0) { split(line, f, " "); slot[hex(f[1])] = hex(f[2]) } }
        /^[0-9a-f]+ <.*>:$/ {
            fn = $0; sub(/^[0-9a-f]+ </, "", fn); sub(/>:$/, "", fn)
            start = hex($1); name[start] = fn; self = fn "@" $1; next
        }
        /\t(call|jmp)q?\t/ {
            if (match($0, /# 0x[0-9a-f]+/)) {
                s = hex(substr($0, RSTART + 2, RLENGTH - 2))
                if (!(s in slot)) next
                to = slot[s]
            } else if (match($0, /\t(call|jmp)q?\t0x[0-9a-f]+/)) {
                t = substr($0, RSTART, RLENGTH); sub(/^.*\t/, "", t); to = hex(t)
            } else next
            n_edges++; caller[n_edges] = self; target[n_edges] = to; own[n_edges] = start
        }
        END {
            for (e = 1; e <= n_edges; e++)
                if (target[e] != own[e] && (target[e] in name)) print caller[e] "\t" name[target[e]]
        }' >"$work/calls.tsv"

# The remark lines that contain $1, or none.
remarks() {
    grep -F -- "$1" "$work/remarks.txt" || true
}

# The functions whose machine code calls function $1, one
# `name@address` per line.
callers_of() {
    awk -F '\t' -v want="$1" '$2 == want { print $1 }' "$work/calls.tsv" | sort -u
}

# The sizes of function $1's out-of-line instances, ascending.
sizes_of() {
    awk -F '\t' -v want="$1" '$2 == want { print $1 }' "$work/symbols.tsv" \
        | while read -r hex; do printf '0x%x\n' "$((16#$hex))"; done | sort | tr '\n' ' '
}

# Symbol hashes are stripped: they differ from build to build, and every
# instance of a generic function then reads as one name.
echo "# inline report: $label ($(rustc -V))"
for fn in 'rtc_sim::batch::BatchSim<A>::run' 'rtc_sim::batch::BatchSim<A>::rotate' \
    'rtc_sim::batch::BatchSim<A>::step_slice' 'rtc_sim::engine::Lane<A>::apply' \
    'rtc_sim::engine::Lane<A>::forced_action' 'rtc_sim::engine::Lane<A>::proc_ok' \
    'rtc_sim::engine::Lane<A>::apply_step' \
    '<rtc_core::protocol2::CommitAutomaton as rtc_model::automaton::Automaton>::step_into' \
    'rtc_core::protocol2::CommitAutomaton::ingest'; do
    echo
    echo "## ${fn}"
    sizes="$(sizes_of "$fn")"
    echo "symbol sizes, one per out-of-line instance: ${sizes:-none}"
    echo "called out of line from (machine code):"
    callers_of "$fn" | sed -E 's/@[0-9a-f]+$//' | sort | uniq -c
    echo "inlined into (LLVM):"
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

echo
echo "## contract (machine code)"
breaks=0
lane='rtc_sim::engine::Lane<A>'
for helper in "${lane}::apply" "${lane}::forced_action" "${lane}::proc_ok" \
    "${lane}::pattern_view" 'rtc_core::protocol2::CommitAutomaton::ingest'; do
    while read -r caller; do
        [[ -n "$caller" ]] || continue
        echo "BREAK: hot helper ${helper} is called out of line from ${caller%@*}"
        breaks=$((breaks + 1))
    done < <(callers_of "$helper")
done
steps="$(sizes_of "${lane}::apply_step")"
if [[ -z "$steps" ]]; then
    echo "BREAK: ${lane}::apply_step has no out-of-line instance: it was inlined into the loop"
    breaks=$((breaks + 1))
fi
# Every apply_step instance, named by its address, as its calls list it.
step_ids="$(awk -F '\t' '$1 ~ /^rtc_sim::engine::Lane<A>::apply_step@/ { print $1 }' \
    "$work/calls.tsv" | sort -u)"
for writer in 'rtc_sim::store::MsgStore::take_all' 'rtc_sim::store::MsgStore::file_listed' \
    'rtc_sim::trace::Trace::push_step'; do
    writer_callers="$(callers_of "$writer")"
    while read -r body; do
        if [[ -n "$body" ]] && ! grep -qxF -- "$body" <<<"$writer_callers"; then
            printf 'BREAK: per-step writer %s is not called out of line from %s::apply_step at 0x%x\n' \
                "$writer" "$lane" "$((16#${body##*@}))"
            breaks=$((breaks + 1))
        fi
    done <<<"$step_ids"
done
loops="$(callers_of "${lane}::apply_step")"
for arm in forced_scan apply_crash apply_duplicate; do
    arm_callers="$(callers_of "${lane}::${arm}")"
    while read -r loop; do
        if [[ -n "$loop" ]] && ! grep -qxF -- "$loop" <<<"$arm_callers"; then
            echo "BREAK: cold arm ${lane}::${arm} is not called out of line from ${loop%@*}"
            breaks=$((breaks + 1))
        fi
    done <<<"$loops"
done
echo "apply_step instances: ${steps:-none}"
echo "loop functions (callers of apply_step):"
sed -E 's/@[0-9a-f]+$//' <<<"$loops" | sort | uniq -c
for arm in forced_scan apply_crash apply_duplicate; do
    arm_sizes="$(sizes_of "${lane}::${arm}")"
    echo "cold arm ${arm} instances: ${arm_sizes:-none}"
done
echo "breaks: ${breaks}"
if [[ $check -eq 1 && $breaks -gt 0 ]]; then
    exit 1
fi
