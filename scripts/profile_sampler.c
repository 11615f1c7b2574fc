// LD_PRELOAD sampler for scripts/profile.sh: every 200 us of wall time
// (ITIMER_REAL; ITIMER_PROF ticks at 4 ms in a microVM) it walks the rbp
// chain of the interrupted main thread and keeps the raw return addresses;
// at exit it writes the PIE base and one line per sample to $PROFILE_OUT.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

enum { MAX_DEPTH = 96, CAPACITY = 1 << 23 };
static uintptr_t *buf, stack_top, base;
static size_t used;

static void on_alarm(int sig, siginfo_t *info, void *context) {
    (void)sig, (void)info;
    const greg_t *regs = ((ucontext_t *)context)->uc_mcontext.gregs;
    uintptr_t fp = regs[REG_RBP], sp = regs[REG_RSP];
    // Only the main thread's stack bounds are known; a frame pointer is
    // followed only while it stays inside them, aligned and moving up.
    if (used + MAX_DEPTH + 1 > CAPACITY || sp >= stack_top || gettid() != getpid()) return;
    size_t head = used++, depth = 1;
    buf[used++] = regs[REG_RIP];
    while (depth < MAX_DEPTH && fp >= sp && fp + 16 <= stack_top && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        buf[used++] = frame[1] - 1;  // inside the call instruction
        depth++;
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    buf[head] = depth;
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
    buf = malloc(CAPACITY * sizeof *buf);
    struct sigaction sa = {.sa_sigaction = on_alarm, .sa_flags = SA_SIGINFO | SA_RESTART};
    struct itimerval every = {{0, 200}, {0, 200}};
    if (!buf || sigaction(SIGALRM, &sa, NULL) || setitimer(ITIMER_REAL, &every, NULL)) exit(97);
}

__attribute__((destructor)) static void finish(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_REAL, &off, NULL);
    FILE *out = buf ? fopen(getenv("PROFILE_OUT"), "w") : NULL;
    if (!out) return;
    fprintf(out, "base %lx\n", base);
    for (size_t at = 0; at < used; at += buf[at] + 1) {
        for (size_t i = 1; i <= buf[at]; i++) fprintf(out, "%lx ", buf[at + i]);
        fputc('\n', out);
    }
    fclose(out);
}
