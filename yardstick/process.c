/* Process controls the serve workloads need and the Unix library lacks.
   Each returns -1 where the platform has no such call or refuses it. */

#define _GNU_SOURCE
#include <caml/mlvalues.h>

#ifdef __linux__
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>

/* Pins the calling process, and the children it forks afterwards, to the
   CPU it is running on; returns that CPU. */
value yardstick_pin_to_current_cpu(value unit)
{
  (void)unit;
  int cpu = sched_getcpu();
  cpu_set_t set;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
}

/* Asks for SIGTERM when the parent process ends, so a forked daemon
   drains and exits with a benchmark that died without shutting it
   down; returns 0. */
value yardstick_term_with_parent(value unit)
{
  (void)unit;
  return Val_int(prctl(PR_SET_PDEATHSIG, SIGTERM));
}

#else

value yardstick_pin_to_current_cpu(value unit)
{
  (void)unit;
  return Val_int(-1);
}

value yardstick_term_with_parent(value unit)
{
  (void)unit;
  return Val_int(-1);
}

#endif
