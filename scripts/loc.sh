#!/usr/bin/env bash
# Non-test code lines per crate: the measure a simplicity change is
# judged by.
#
#   scripts/loc.sh          # the working tree
#   scripts/loc.sh REV      # REV's count beside the working tree's
#
# Counts, in every crates/*/src/**/*.rs, the lines before the file's
# first `#[cfg(test)]`, less blank lines and lines that hold only a
# comment (`//`, `///`, `//!`). A unit-test module sits at the end of
# its file in this workspace, so what the cut leaves is the code the
# crate ships. Given REV, the script counts a `git archive` copy of it
# in a temporary directory, so the working tree is never checked out
# or touched, and prints REV's count, the tree's and the difference.
# Needs nothing beyond git and the POSIX tools.
set -euo pipefail

if [[ $# -gt 1 ]]; then
    echo "usage: scripts/loc.sh [REV]" >&2
    exit 64
fi
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Prints "crate lines" for every crate under $1/crates, in name order.
count() {
    local crate
    for crate in "$1"/crates/*/; do
        [[ -d "$crate/src" ]] || continue
        find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
            FNR == 1 { live = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
            live && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// { n++ }
            END { print n + 0 }
        ' | sed "s|^|$(basename "$crate") |"
    done
}

tree=$(count "$repo")
if [[ $# -eq 0 ]]; then
    printf '%-12s %6s\n' crate lines
    echo "$tree" | awk '{ printf "%-12s %6d\n", $1, $2; t += $2 } END { printf "%-12s %6d\n", "total", t }'
    exit 0
fi

rev=$1
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
git -C "$repo" archive "$rev" crates | tar -x -C "$work"
old=$(count "$work")
printf '%-12s %6s %6s %6s\n' crate "${rev:0:10}" tree delta
join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(echo "$old") <(echo "$tree") | awk '
    { printf "%-12s %6d %6d %+6d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-12s %6d %6d %+6d\n", "total", a, b, b - a }
'
