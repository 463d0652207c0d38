/* allocseq: LD_PRELOAD shim that logs a process's heap-call sequence, one
 * "<op> <usable_size>" line per event, to $ALLOCSEQ_LOG:
 *   m  malloc / calloc / memalign family (usable size of the new block)
 *   r  realloc (usable size after the call)
 *   f  free (usable size of the block being freed; free(NULL) is skipped)
 * Two binaries whose logs are identical make identical requests of glibc's
 * heap, whatever their environment does to its layout (DESIGN.md §7l).
 * glibc only: forwards to the __libc_* entry points, so no dlsym bootstrap.
 * Threads are serialised by one lock, so lines are in lock order. The
 * variable is removed from the environment once the log is open, so child
 * processes run under the shim but log nothing. */
#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <stdlib.h>
#include <unistd.h>

extern void *__libc_malloc(size_t), *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t), *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static char buf[1 << 16];
static size_t len;
static int fd = -2; /* -2: not opened yet; -1: no log requested or open failed */

static void flush_locked(void) {
    for (size_t off = 0; fd >= 0 && off < len;) {
        ssize_t n = write(fd, buf + off, len - off);
        if (n < 0 && errno != EINTR) break;
        if (n > 0) off += (size_t)n;
    }
    len = 0;
}

static void event(char op, void *p) {
    if (!p || fd == -1) return;
    size_t size = malloc_usable_size(p);
    pthread_mutex_lock(&lock);
    if (fd == -2) {
        const char *path = getenv("ALLOCSEQ_LOG");
        fd = path ? open(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644) : -1;
        unsetenv("ALLOCSEQ_LOG");
    }
    if (len + 32 > sizeof buf) flush_locked();
    char digits[24];
    int n = 0;
    do digits[n++] = (char)('0' + size % 10); while (size /= 10);
    buf[len++] = op;
    buf[len++] = ' ';
    while (n) buf[len++] = digits[--n];
    buf[len++] = '\n';
    pthread_mutex_unlock(&lock);
}

__attribute__((destructor)) static void finish(void) {
    pthread_mutex_lock(&lock);
    flush_locked();
    pthread_mutex_unlock(&lock);
}

void *malloc(size_t n) { void *p = __libc_malloc(n); event('m', p); return p; }
void *calloc(size_t k, size_t n) { void *p = __libc_calloc(k, n); event('m', p); return p; }
void *memalign(size_t a, size_t n) { void *p = __libc_memalign(a, n); event('m', p); return p; }
void *aligned_alloc(size_t a, size_t n) { return memalign(a, n); }
int posix_memalign(void **out, size_t a, size_t n) {
    void *p = memalign(a, n);
    if (!p) return ENOMEM;
    *out = p;
    return 0;
}
void *realloc(void *old, size_t n) {
    if (!old) return malloc(n);
    void *p = __libc_realloc(old, n);
    event('r', p);
    return p;
}
void free(void *p) { event('f', p); __libc_free(p); }
