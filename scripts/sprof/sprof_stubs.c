/* SIGPROF sampling for sprof.  x86-64 Linux only: the sampled PC is
   read from the signal's ucontext (REG_RIP).

   sprof_start arms a 1 ms ITIMER_PROF (process CPU time) whose handler
   runs on its own alternate stack, since OCaml 5 fiber stacks are small,
   and appends the interrupted PC to a fixed buffer.  sprof_stop disarms
   it and returns the PCs taken.  sprof_where classifies a PC: None when
   it lies in the main executable (symbolised from nm by the caller),
   otherwise Some (object, symbol) from dladdr. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#define CAPACITY (1 << 20)

static uintptr_t pcs[CAPACITY];
static volatile size_t taken;
static char altstack[1 << 16];

static void on_prof(int sig, siginfo_t *info, void *context)
{
  ucontext_t *uc = context;
  (void)sig;
  (void)info;
  if (taken < CAPACITY) pcs[taken++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
}

static void arm(long usec)
{
  struct itimerval it;
  memset(&it, 0, sizeof it);
  it.it_interval.tv_usec = usec;
  it.it_value.tv_usec = usec;
  setitimer(ITIMER_PROF, &it, NULL);
}

value sprof_start(value unit)
{
  stack_t ss;
  struct sigaction sa;
  (void)unit;
  memset(&ss, 0, sizeof ss);
  ss.ss_sp = altstack;
  ss.ss_size = sizeof altstack;
  if (sigaltstack(&ss, NULL) != 0) caml_failwith("sprof: sigaltstack");
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) caml_failwith("sprof: sigaction");
  taken = 0;
  arm(1000);
  return Val_unit;
}

value sprof_stop(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(out);
  size_t i, n;
  arm(0);
  n = taken;
  out = caml_alloc(n, 0);
  for (i = 0; i < n; i++) Store_field(out, i, Val_long((intnat)pcs[i]));
  CAMLreturn(out);
}

/* The run-time address of a function of the main executable, to align
   nm's addresses with the loaded image. */
value sprof_anchor(value unit)
{
  (void)unit;
  return Val_long((intnat)(uintptr_t)&sprof_start);
}

value sprof_where(value pc)
{
  CAMLparam1(pc);
  CAMLlocal3(obj, sym, pair);
  Dl_info self, hit;
  const char *base;
  if (!dladdr((void *)&sprof_start, &self)) CAMLreturn(Val_none);
  if (!dladdr((void *)(uintptr_t)Long_val(pc), &hit) || hit.dli_fbase == self.dli_fbase)
    CAMLreturn(Val_none);
  base = hit.dli_fname ? strrchr(hit.dli_fname, '/') : NULL;
  obj = caml_copy_string(base ? base + 1 : hit.dli_fname ? hit.dli_fname : "?");
  sym = caml_copy_string(hit.dli_sname ? hit.dli_sname : "?");
  pair = caml_alloc_tuple(2);
  Store_field(pair, 0, obj);
  Store_field(pair, 1, sym);
  CAMLreturn(caml_alloc_some(pair));
}
