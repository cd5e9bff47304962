/* hostprof: a SIGPROF sampling profiler loaded with LD_PRELOAD (README.md).
 * Each millisecond of process CPU time (at the kernel's tick granularity)
 * records the interrupted program counter. At exit the profile goes to
 * hostprof.<pid>.out: per loaded object an "obj <load bias> <path>" line
 * and its executable "seg <start> <end> <object>" ranges, then one
 * "pc <address>" line per sample. */
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)
static void *samples[MAX_SAMPLES];
static unsigned long taken;
static int objects;

static void on_sigprof(int sig, siginfo_t *info, void *uctx) {
    mcontext_t *mc = &((ucontext_t *)uctx)->uc_mcontext;
    (void)sig, (void)info;
#if defined(__x86_64__)
    void *pc = (void *)mc->gregs[REG_RIP];
#elif defined(__aarch64__)
    void *pc = (void *)mc->pc;
#endif
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES) samples[i] = pc;
}

__attribute__((constructor)) static void hostprof_start(void) {
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* The executable comes first, with an empty name. */
static int write_object(struct dl_phdr_info *obj, size_t size, void *out) {
    char exe[4096] = "?";
    const char *name = obj->dlpi_name;
    ssize_t n;
    (void)size;
    if (!*name && objects == 0 && (n = readlink("/proc/self/exe", exe, sizeof exe - 1)) > 0) exe[n] = 0;
    fprintf(out, "obj %#lx %s\n", (unsigned long)obj->dlpi_addr, *name ? name : exe);
    for (int i = 0; i < obj->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &obj->dlpi_phdr[i];
        unsigned long start = obj->dlpi_addr + ph->p_vaddr;
        if (ph->p_type == PT_LOAD && (ph->p_flags & PF_X))
            fprintf(out, "seg %#lx %#lx %d\n", start, start + ph->p_memsz, objects);
    }
    objects++;
    return 0;
}

__attribute__((destructor)) static void hostprof_stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64];
    snprintf(path, sizeof path, "hostprof.%d.out", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out) return;
    dl_iterate_phdr(write_object, out);
    for (unsigned long i = 0; i < taken && i < MAX_SAMPLES; i++) fprintf(out, "pc %p\n", samples[i]);
    fclose(out);
}
