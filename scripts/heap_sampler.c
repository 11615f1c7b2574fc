// LD_PRELOAD live-heap tracker for `scripts/profile.sh --peak`: every
// malloc/calloc/realloc/posix_memalign/aligned_alloc on any thread (the
// benchmark's allocator counts all threads) walks the rbp chain from the
// call site, and the block's bytes are held against that call-site stack
// until free/realloc gives them back. Each time the live total reaches a
// new peak at least 4 KiB above the last snapshot, the bytes every site
// holds are snapshot, so a reader can pick the heap at (within 4 KiB of)
// any peak the process passed: the benchmark reads `peak_heap_mb` before
// its own percentile sort, which may set a later one. Blocks of 8 MiB or
// more are not tracked: that is the heap pre-touch that `alloc::reserve`
// keeps out of `peak_heap_mb`. At exit it writes to $PROFILE_OUT, for
// scripts/profile_report.py, `base <pie base> peak <bytes>`, one line per
// call site, `site <id> <addr>...`, and each snapshot as `at <peak>` and
// one `<id> <bytes>` line per site that held bytes then.
// Build it with -fno-omit-frame-pointer: the walk starts in this file.
#define _GNU_SOURCE
#include <fcntl.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

enum {
    MAX_DEPTH = 64,
    BLOCK_BITS = 20,            // live blocks: open addressing, linear probe
    SITES = 1 << 16,            // distinct call-site stacks
    SITE_SLOTS = SITES * 2,
    FRAMES = 1 << 22,           // return addresses of all sites
    HELD = 1 << 22,             // (site, bytes) pairs of all snapshots
    SNAPSHOT_STEP = 4096,
};
#define HUGE_BLOCK ((size_t)8 << 20)
#define BLOCK_MASK ((1u << BLOCK_BITS) - 1)

struct block { uintptr_t ptr; uint32_t size, site; };
struct site { uint64_t hash; uint32_t first, depth; int64_t live; };
// A snapshot opens with {AT, peak}; a site's entry is {site, bytes}.
struct held { uint32_t site; int64_t bytes; };
#define AT UINT32_MAX

static struct block *blocks;
static struct site *sites;
static uint32_t *site_slots, nsites;
static uintptr_t *frames;
static size_t nframes, nblocks, nheld;
static struct held *held;
static int64_t live, peak, snapped;
static uintptr_t base;
static int ready, overflow;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
// Set while this thread is inside the tracker: what it allocates itself
// (stdio at the start and at exit) is passed through untracked.
static __thread int busy;
static __thread uintptr_t stack_hi;

static void *map(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

// The end of the mapping that holds `sp`, the top of this thread's stack,
// read with plain syscalls: pthread_getattr_np allocates under a lock that
// the thread may already hold (Rust's thread start calls it).
static uintptr_t stack_end(uintptr_t sp) {
    char buf[4096], *line, *nl;
    size_t have = 0;
    uintptr_t end = 0;
    int fd = open("/proc/self/maps", O_RDONLY);
    if (fd < 0) return 0;
    for (ssize_t n; (n = read(fd, buf + have, sizeof buf - have)) > 0;) {
        have += n;
        for (line = buf; (nl = memchr(line, '\n', buf + have - line)); line = nl + 1) {
            char *dash;
            uintptr_t lo = strtoul(line, &dash, 16), hi = strtoul(dash + 1, NULL, 16);
            if (lo <= sp && sp < hi) end = hi;
        }
        have = buf + have - line;
        memmove(buf, line, have);
    }
    close(fd);
    return end;
}

// The return addresses above the hook this is inlined into, innermost
// first: the hook's own frame is the first the walk reads.
__attribute__((always_inline)) static inline uint32_t walk(uintptr_t *out) {
    uintptr_t fp = (uintptr_t)__builtin_frame_address(0), sp = fp;
    if (!stack_hi) stack_hi = stack_end(sp);
    uint32_t depth = 0;
    while (depth < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && fp % 8 == 0) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        out[depth++] = frame[1] - 1;  // inside the call
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    return depth;
}

static uint32_t site_of(const uintptr_t *stack, uint32_t depth) {
    uint64_t hash = 0xcbf29ce484222325u ^ depth;
    for (uint32_t i = 0; i < depth; i++) hash = (hash ^ stack[i]) * 0x100000001b3u;
    for (uint32_t slot = hash % SITE_SLOTS;; slot = (slot + 1) % SITE_SLOTS) {
        uint32_t at = site_slots[slot];
        if (!at) {
            if (nsites + 1 >= SITES || nframes + depth > FRAMES) return UINT32_MAX;
            memcpy(frames + nframes, stack, depth * sizeof *stack);
            sites[nsites] = (struct site){hash, (uint32_t)nframes, depth, 0};
            nframes += depth;
            site_slots[slot] = ++nsites;
            return nsites - 1;
        }
        const struct site *s = &sites[at - 1];
        if (s->hash == hash && s->depth == depth &&
            !memcmp(frames + s->first, stack, depth * sizeof *stack))
            return at - 1;
    }
}

static uint32_t home(uintptr_t ptr) {
    return (uint32_t)(((ptr >> 4) * 0x9e3779b97f4a7c15u) >> (64 - BLOCK_BITS));
}

static void track(void *p, size_t size, const uintptr_t *stack, uint32_t depth) {
    uint32_t site = site_of(stack, depth);
    if (site == UINT32_MAX || nblocks * 2 > BLOCK_MASK) {
        overflow = 1;
        return;
    }
    uint32_t i = home((uintptr_t)p);
    while (blocks[i].ptr) i = (i + 1) & BLOCK_MASK;
    blocks[i] = (struct block){(uintptr_t)p, (uint32_t)size, site};
    nblocks++;
    sites[site].live += size;
    live += size;
    if (live <= peak) return;
    peak = live;
    if (peak < snapped + SNAPSHOT_STEP) return;
    if (nheld + 1 + nsites > HELD) {
        overflow = 1;
        return;
    }
    snapped = peak;
    held[nheld++] = (struct held){AT, peak};
    for (uint32_t s = 0; s < nsites; s++)
        if (sites[s].live > 0) held[nheld++] = (struct held){s, sites[s].live};
}

static void untrack(void *p) {
    uint32_t i = home((uintptr_t)p);
    while (blocks[i].ptr != (uintptr_t)p) {
        if (!blocks[i].ptr) return;  // not tracked: huge, or made before the start
        i = (i + 1) & BLOCK_MASK;
    }
    sites[blocks[i].site].live -= blocks[i].size;
    live -= blocks[i].size;
    nblocks--;
    // Backward-shift deletion keeps every probe chain unbroken.
    for (uint32_t j = i;;) {
        j = (j + 1) & BLOCK_MASK;
        if (!blocks[j].ptr) break;
        uint32_t k = home(blocks[j].ptr);
        int stays = i <= j ? (i < k && k <= j) : (i < k || k <= j);
        if (!stays) {
            blocks[i] = blocks[j];
            i = j;
        }
    }
    blocks[i].ptr = 0;
}

enum kind { MALLOC, CALLOC, REALLOC, MEMALIGN };

// Allocates under the lock and tracks the new block's bytes, after giving
// back `old`'s. Inlined into each hook, so the walk starts at the hook's
// frame.
__attribute__((always_inline)) static inline void *allocate(enum kind kind, void *old,
                                                             size_t align, size_t n,
                                                             size_t size) {
    void *got;
#define CALL                                                                   \
    (kind == MALLOC    ? __libc_malloc(n)                                      \
     : kind == CALLOC  ? __libc_calloc(n, size)                                \
     : kind == REALLOC ? __libc_realloc(old, n)                                \
                       : __libc_memalign(align, n))
    if (!ready || busy) return CALL;
    busy = 1;
    uintptr_t stack[MAX_DEPTH];
    uint32_t depth = walk(stack);
    size_t bytes = kind == CALLOC ? n * size : n;
    pthread_mutex_lock(&lock);
    got = CALL;
#undef CALL
    if (got || !bytes) {
        if (old) untrack(old);
        if (got && bytes < HUGE_BLOCK) track(got, bytes, stack, depth);
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
    return got;
}

void *malloc(size_t n) { return allocate(MALLOC, NULL, 0, n, 0); }

void *calloc(size_t n, size_t size) { return allocate(CALLOC, NULL, 0, n, size); }

void *realloc(void *p, size_t n) { return allocate(REALLOC, p, 0, n, 0); }

void *aligned_alloc(size_t align, size_t n) { return allocate(MEMALIGN, NULL, align, n, 0); }

int posix_memalign(void **out, size_t align, size_t n) {
    if (align % sizeof(void *) || (align & (align - 1))) return 22;  // EINVAL
    *out = allocate(MEMALIGN, NULL, align, n, 0);
    return *out || !n ? 0 : 12;  // ENOMEM
}

void free(void *p) {
    if (p && ready && !busy) {
        pthread_mutex_lock(&lock);
        untrack(p);
        __libc_free(p);
        pthread_mutex_unlock(&lock);
        return;
    }
    __libc_free(p);
}

__attribute__((constructor)) static void start(void) {
    char exe[4096], line[4352];
    busy = 1;
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    FILE *maps = n < 0 || !getenv("PROFILE_OUT") ? NULL : fopen("/proc/self/maps", "r");
    if (!maps) return;
    exe[n] = 0;
    while (fgets(line, sizeof line, maps)) {
        uintptr_t lo;
        if (!base && strstr(line, exe) && sscanf(line, "%lx", &lo) == 1) base = lo;
    }
    fclose(maps);
    unsetenv("LD_PRELOAD");  // children are not tracked
    blocks = map(sizeof *blocks << BLOCK_BITS);
    sites = map(SITES * sizeof *sites);
    site_slots = map(SITE_SLOTS * sizeof *site_slots);
    frames = map(FRAMES * sizeof *frames);
    held = map(HELD * sizeof *held);
    if (!blocks || !sites || !site_slots || !frames || !held) exit(97);
    busy = 0;
    ready = 1;
}

__attribute__((destructor)) static void finish(void) {
    busy = 1;
    pthread_mutex_lock(&lock);
    FILE *out = ready ? fopen(getenv("PROFILE_OUT"), "w") : NULL;
    if (out) {
        fprintf(out, "base %lx peak %ld%s\n", base, (long)peak, overflow ? " overflow" : "");
        for (uint32_t s = 0; s < nsites; s++) {
            fprintf(out, "site %u", s);
            for (uint32_t i = 0; i < sites[s].depth; i++)
                fprintf(out, " %lx", frames[sites[s].first + i]);
            fputc('\n', out);
        }
        for (size_t i = 0; i < nheld; i++) {
            if (held[i].site == AT) fprintf(out, "at %ld\n", (long)held[i].bytes);
            else fprintf(out, "%u %ld\n", held[i].site, (long)held[i].bytes);
        }
        fclose(out);
    }
    ready = 0;
    pthread_mutex_unlock(&lock);
}
