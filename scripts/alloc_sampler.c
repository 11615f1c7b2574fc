// LD_PRELOAD allocation sampler for `scripts/profile.sh --allocs`: every
// 4th malloc/calloc/realloc call on the main thread walks the rbp chain
// from the call site and keeps the raw return addresses; at exit it writes
// the PIE base, the sampling period and one line per sample to
// $PROFILE_OUT, in the format of profile_sampler.c plus `every N` on the
// header line, which scripts/profile_report.py reads to count per op.
// Build it with -fno-omit-frame-pointer: the walk starts in this file.
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);

enum { MAX_DEPTH = 96, CAPACITY = 1 << 23, EVERY = 4 };
static uintptr_t *buf, stack_top, base;
static size_t used, calls;
// Set by the constructor, which runs on the main thread; other threads
// and the writer at exit are never sampled.
static __thread int on_main;

__attribute__((noinline)) static void sample(void) {
    if (!buf || !on_main || ++calls % EVERY || used + MAX_DEPTH + 1 > CAPACITY) return;
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0), sp = fp;
    size_t head = used++, depth = 0;
    int hook = 1;  // the first return address is into the hook itself
    while (depth < MAX_DEPTH && fp >= sp && fp + 16 <= stack_top && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        if (!hook) buf[used + depth++] = frame[1] - 1;  // inside the call
        hook = 0;
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    buf[head] = depth;
    used += depth;
}

void *malloc(size_t n) {
    sample();
    return __libc_malloc(n);
}

void *calloc(size_t n, size_t size) {
    sample();
    return __libc_calloc(n, size);
}

void *realloc(void *p, size_t n) {
    sample();
    return __libc_realloc(p, n);
}

__attribute__((constructor)) static void start(void) {
    char exe[4096], line[4352];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = fopen("/proc/self/maps", "r");
    if (n < 0 || !maps || !getenv("PROFILE_OUT")) return;
    exe[n] = 0;
    while (fgets(line, sizeof line, maps)) {
        uintptr_t lo, hi;
        if (sscanf(line, "%lx-%lx", &lo, &hi) != 2) continue;
        if (!base && strstr(line, exe)) base = lo;
        if (strstr(line, "[stack]")) stack_top = hi;
    }
    fclose(maps);
    unsetenv("LD_PRELOAD");  // children are not sampled
    buf = __libc_malloc(CAPACITY * sizeof *buf);
    if (!buf) exit(97);
    on_main = 1;
}

__attribute__((destructor)) static void finish(void) {
    on_main = 0;
    FILE *out = buf ? fopen(getenv("PROFILE_OUT"), "w") : NULL;
    if (!out) return;
    fprintf(out, "base %lx every %d\n", base, EVERY);
    for (size_t at = 0; at < used; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++) fprintf(out, "%lx ", buf[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}
