#!/usr/bin/env bash
# A sampling profiler for hosts without `perf`:
#
#   scripts/sample_prof.sh <binary> [args...]
#
# Runs <binary> under a tiny LD_PRELOAD library (built here with the
# system `cc`) that arms ITIMER_PROF at 2 kHz, records the interrupted
# instruction pointer at every SIGPROF, and dumps the samples plus
# /proc/self/maps when the process exits. (The kernel delivers at most
# one SIGPROF per scheduler tick, so a CONFIG_HZ=250 host samples at
# 250 Hz whatever is asked for: run for a few seconds.) The samples that
# fall in the binary are then symbolised with `addr2line -f -i -C` into
# three tables:
#
#   innermost  the source function executing (the deepest inlined frame):
#              where the time is, whatever it was inlined into;
#   physical   the emitted function containing the instruction (the
#              outermost frame of the inline chain): what `objdump` shows,
#              and what an out-of-line call would show up as;
#   inclusive  every function on the inline chain, once per sample: a
#              function's own time plus everything inlined into it. There
#              is no stack unwinding, so real callers are not included.
#
# Samples outside the binary (libc's memset, the vDSO) are counted per
# mapped file. Inline chains need debug info (`debug = true`; the root
# workspace's release profile has it, so `target/release/examples/*` do);
# without it the three tables coincide. The timer counts the process's
# CPU time, so threads are sampled in proportion to what they burn.
#
# Point it at the op loops in examples/hot_loop.rs:
#   cargo build --release --example hot_loop
#   scripts/sample_prof.sh target/release/examples/hot_loop metis 5
#   scripts/sample_prof.sh target/release/examples/hot_loop shared 5 2   # two threads, one machine
#
# Skips, exit 0, where there is no `cc` or no `addr2line`.
set -euo pipefail

if [[ $# -lt 1 ]]; then
    echo "usage: scripts/sample_prof.sh <binary> [args...]" >&2
    exit 2
fi
for tool in cc addr2line; do
    if ! command -v "$tool" > /dev/null; then
        echo "sample_prof: no \`$tool\` on this host, skipping" >&2
        exit 0
    fi
done

binary=$(readlink -f "$1")
shift
top=25 # rows per table
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>

#define CAP (1u << 20) /* 8.7 minutes at 2 kHz */
static uint64_t *samples;
static size_t count;

static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig;
    (void)si;
    ucontext_t *uc = ctx;
    size_t i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < CAP) {
#if defined(__x86_64__)
        samples[i] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
        samples[i] = (uint64_t)uc->uc_mcontext.pc;
#else
#error "sample_prof: unsupported architecture"
#endif
    }
}

static void arm(long usec) {
    struct itimerval it = {{0, usec}, {0, usec}};
    setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void start(void) {
    samples = mmap(NULL, CAP * sizeof *samples, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (samples == MAP_FAILED)
        return;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    arm(500);
}

__attribute__((destructor)) static void stop(void) {
    arm(0);
    FILE *out = fopen(OUT_PATH, "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fprintf(out, "M %s", line);
    size_t n = count < CAP ? count : CAP;
    for (size_t i = 0; i < n; i++)
        fprintf(out, "S %llx\n", (unsigned long long)samples[i]);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -DOUT_PATH="\"$work/raw\"" -o "$work/sampler.so" "$work/sampler.c"

status=0
LD_PRELOAD="$work/sampler.so" "$binary" "$@" || status=$?
if [[ ! -s "$work/raw" ]]; then
    echo "sample_prof: the run left no samples (exit status $status)" >&2
    exit 1
fi

# Resolve every sample against the maps: samples in the binary become
# ELF addresses ("B <addr>": a PIE's first mapping has file offset 0, so
# the load bias is that mapping's start; a fixed-position executable
# needs no bias), everything else is booked to its mapped file ("O
# <name>").
pie=1
if [[ "$(od -An -tu2 -j16 -N2 "$binary" | tr -d ' ')" == 2 ]]; then
    pie=0 # e_type == ET_EXEC
fi
awk -v bin="$binary" -v pie="$pie" '
    function hex(s,    i, v) {
        v = 0
        for (i = 1; i <= length(s); i++)
            v = v * 16 + index("0123456789abcdef", substr(s, i, 1)) - 1
        return v
    }
    $1 == "M" {
        split($2, r, "-")
        lo[n] = hex(r[1]); hi[n] = hex(r[2])
        name[n] = (NF >= 7) ? $7 : "[anon]"
        if (name[n] == bin && !(bin in base))
            base[bin] = pie ? lo[n] : 0
        n++
        next
    }
    $1 == "S" {
        a = hex($2)
        where = "[unmapped]"
        for (i = 0; i < n; i++)
            if (lo[i] <= a && a < hi[i]) { where = name[i]; break }
        if (where == bin)
            printf "B %x\n", a - base[bin]
        else {
            sub(".*/", "", where)
            print "O", where
        }
    }' "$work/raw" > "$work/resolved"

total=$(wc -l < "$work/resolved")
grep '^B ' "$work/resolved" | cut -d' ' -f2 | sort | uniq -c > "$work/addrs" || true

# One addr2line run over the distinct addresses. With -a every address
# starts a block: its own line ("0x..."), then a (function, file:line)
# pair of lines per frame of the inline chain, innermost first.
awk '{print $2}' "$work/addrs" | addr2line -a -f -i -C -e "$binary" > "$work/frames"

awk -v top="$top" -v total="$total" '
    function flush(    i, seen, f) {
        if (nframes == 0) return
        inner[frame[1]] += weight
        phys[frame[nframes]] += weight
        split("", seen)
        for (i = 1; i <= nframes; i++) {
            f = frame[i]
            if (!(f in seen)) { incl[f] += weight; seen[f] = 1 }
        }
        nframes = 0
    }
    function table(title, t,    cmd, f) {
        printf "\n%s\n", title
        fflush()
        cmd = "sort -k1,1nr | head -n " top
        for (f in t)
            printf "%d\t%5.1f%%  %s\n", t[f], 100 * t[f] / total, f | cmd
        close(cmd)
    }
    FILENAME == ARGV[1] { weight_of[$2] = $1; next }
    FILENAME == ARGV[2] { other[$2]++; outside++; next }
    /^0x[0-9a-f]+$/ {
        flush()
        addr = $0
        sub("^0x0*", "", addr)
        weight = weight_of[addr]
        line = 0
        next
    }
    { if (line++ % 2 == 0) frame[++nframes] = $0 }
    END {
        flush()
        printf "%d samples\n", total
        table("innermost inlined frame (the source function executing)", inner)
        table("outermost physical function (the emitted symbol)", phys)
        table("inclusive over inline chains (self + inlined callees)", incl)
        if (outside) table("outside the binary, by mapped file", other)
    }' "$work/addrs" <(grep '^O ' "$work/resolved" || true) "$work/frames"

exit "$status"
