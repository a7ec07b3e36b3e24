#!/usr/bin/env bash
# Where one benchmark workload spends its CPU time, by function: a
# stack-sampling profile of one untraced run.
#
#   scripts/profile.sh WORKLOAD SECONDS [SEED]     (SEED defaults to 1)
#
# Copies the working tree to a temporary directory (as inline_report.sh
# does), so `benchmark/`, its target directory and its Cargo.lock stay
# untouched, and builds the benchmark there, in a target directory of
# its own, with line tables (`debug = 1`) and `-C
# force-frame-pointers=yes`. It then builds, with `cc`, a small
# `LD_PRELOAD` shim that arms `ITIMER_PROF` and, on every `SIGPROF`,
# records the interrupted program counter and the return addresses
# found by walking the frame-pointer (`rbp`) chain, and runs the
# workload under it. The samples are resolved through `addr2line -i`,
# so a frame inlined into another counts as a function of its own, and
# printed as two tables: self (the innermost function of each sample)
# and inclusive (every function of the workspace's crates on the
# sample's stack, once per sample; the harness and std frames every
# sample shares are left out). Needs `cc` and `addr2line`; x86-64
# Linux only; takes about a minute to build.
#
# Reading the tables:
#   - the sampling tick is 4 ms of the process's CPU time (user and
#     system, all threads), so a 15 s run gives about 3 700 samples;
#   - kernel time reads as libc: the signal is taken on the return to
#     user space, so a sample that fell in a system call or a page fault
#     lands on the libc function that made it (`memset`, `write`, ...),
#     and code outside the binary is named `lib!symbol` or `lib!?`;
#   - std's own compiled code has no frame pointers, so a sample inside
#     it can lose the frames above it; the inclusive column is a lower
#     bound for the callers of std.
set -euo pipefail

if [[ $# -lt 2 ]]; then
    echo "usage: scripts/profile.sh WORKLOAD SECONDS [SEED]" >&2
    exit 64
fi
workload=$1
seconds=$2
seed=${3:-1}
for tool in cc addr2line; do
    if ! command -v "$tool" >/dev/null; then
        echo "profile.sh: '$tool' is not installed; the profile needs it" >&2
        exit 2
    fi
done

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
tree="$work/tree"
mkdir "$tree"
tar -C "$repo" --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./benchmark/out -c . | tar -x -C "$tree"

export CARGO_TARGET_DIR="$work/target"
CARGO_PROFILE_RELEASE_DEBUG=1 RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --offline --quiet --manifest-path "$tree/benchmark/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/rtc-benchmark"

cat >"$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define WORDS (4u << 20) /* 32 MiB of sample words, touched as used */
#define DEPTH 96
#define STACK_SPAN (8u << 20)

static uint64_t buf[WORDS];
static uint64_t used;
static uint64_t lost;
static uintptr_t base;   /* the main binary's load address */
static uintptr_t lo, hi; /* its mapped range */

static int find_main(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size;
    (void)data;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type != PT_LOAD) continue;
        uintptr_t start = info->dlpi_addr + ph->p_vaddr;
        uintptr_t end = start + ph->p_memsz;
        if (lo == 0 || start < lo) lo = start;
        if (end > hi) hi = end;
    }
    base = info->dlpi_addr;
    return 1; /* the first object is the program itself */
}

/* One sample: [n, pc, return addresses...], reserved with one atomic add. */
static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    ucontext_t *uc = ctx;
    uint64_t frames[DEPTH];
    unsigned n = 0;
    frames[n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    while (n < DEPTH && fp >= sp && fp < sp + STACK_SPAN && (fp & 7) == 0) {
        uintptr_t next = ((uintptr_t *)fp)[0];
        uintptr_t ret = ((uintptr_t *)fp)[1];
        if (ret == 0) break;
        frames[n++] = ret - 1; /* inside the call, for its line and inline chain */
        if (next <= fp) break;
        fp = next;
    }
    uint64_t at = __atomic_fetch_add(&used, n + 1, __ATOMIC_RELAXED);
    if (at + n + 1 > WORDS) {
        __atomic_fetch_add(&lost, 1, __ATOMIC_RELAXED);
        return;
    }
    buf[at] = n;
    memcpy(&buf[at + 1], frames, n * sizeof frames[0]);
}

__attribute__((constructor)) static void start(void) {
    unsetenv("LD_PRELOAD"); /* the programs it starts are not profiled */
    dl_iterate_phdr(find_main, NULL);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tick = {{0, 4000}, {0, 4000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

/* One line per sample, innermost first: `m` and an offset into the
   binary, or the shared object and symbol `dladdr` names. */
__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_OUT");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    uint64_t end = used < WORDS ? used : WORDS;
    for (uint64_t at = 0; at < end;) {
        uint64_t n = buf[at];
        if (n == 0 || at + 1 + n > end) break;
        for (uint64_t i = 0; i < n; i++) {
            uintptr_t a = buf[at + 1 + i];
            Dl_info dl;
            if (a >= lo && a < hi) {
                fprintf(out, "%sm:0x%lx", i ? " " : "", (unsigned long)(a - base));
            } else if (dladdr((void *)a, &dl) && dl.dli_fname) {
                const char *lib = strrchr(dl.dli_fname, '/');
                fprintf(out, "%s%s!%s", i ? " " : "", lib ? lib + 1 : dl.dli_fname,
                        dl.dli_sname ? dl.dli_sname : "?");
            } else {
                fprintf(out, "%s?!?", i ? " " : "");
            }
        }
        fputc('\n', out);
        at += 1 + n;
    }
    if (lost) fprintf(stderr, "profile.sh: %lu samples lost (buffer full)\n", (unsigned long)lost);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/shim.so" "$work/shim.c" -ldl

(cd "$tree" && LD_PRELOAD="$work/shim.so" PROFILE_OUT="$work/samples.txt" \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 >"$work/run.txt")
grep -E "^# |txn_per_s|cpu_us_per_txn" "$work/run.txt"

# Every binary offset sampled, resolved once: its inline chain,
# innermost function first.
tr ' ' '\n' <"$work/samples.txt" | sed -n 's/^m://p' | sort -u >"$work/offsets.txt"
addr2line -a -f -i -C -e "$bin" <"$work/offsets.txt" \
    | sed -E 's/::h[0-9a-f]{16}//g' >"$work/resolved.txt"

awk -v top=40 '
    # resolved.txt: "0xADDR", then function/location line pairs.
    FNR == NR {
        if ($0 ~ /^0x[0-9a-f]+$/) { addr = $0; sub(/^0x0*/, "0x", addr); k = 0; odd = 0; next }
        odd = !odd
        if (odd) { chain[addr] = (k++ ? chain[addr] SUBSEP : "") $0 }
        next
    }
    {
        samples++
        delete seen
        for (i = 1; i <= NF; i++) {
            f = $i
            if (f ~ /^m:/) {
                a = substr(f, 3); sub(/^0x0*/, "0x", a)
                c = (a in chain) ? chain[a] : "?"
            } else {
                c = f
            }
            n = split(c, names, SUBSEP)
            for (j = 1; j <= n; j++) {
                if (i == 1 && j == 1) self[names[j]]++
                if (!(names[j] in seen)) { seen[names[j]] = 1; incl[names[j]]++ }
            }
        }
    }
    function table(title, counts, pattern,    name, cmd) {
        printf "\n%s (%d samples)\n", title, samples
        cmd = "sort -t \"\t\" -k1,1nr | head -n " top
        for (name in counts)
            if (name ~ pattern)
                printf "%d\t%.1f %%\t%s\n", counts[name], 100 * counts[name] / samples, name | cmd
        close(cmd)
    }
    END {
        table("self: the innermost function of each sample", self, "")
        table("inclusive: every function of the workspace crates (rtc_*) on the stack, once per sample", incl, "rtc_")
    }
' "$work/resolved.txt" "$work/samples.txt"
