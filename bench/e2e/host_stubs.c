/* Host support the benchmark needs and OCaml's standard library lacks. */

#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

/* CPU time of the calling thread in ns: time the host takes the
   processor away (another tenant, a preempting hypervisor) does not
   count.  Returns an OCaml immediate int, so it needs no allocation. */
value e2e_thread_cpu_ns(value unit)
{
  struct timespec t;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return Val_long((long)t.tv_sec * 1000000000L + t.tv_nsec);
}

/* Pin the calling thread to the [k]-th CPU it may run on, when it may
   run on at least two.  Returns whether it did. */
value e2e_pin_to_cpu(value k)
{
  cpu_set_t allowed, one;
  long seen = 0;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0
      || CPU_COUNT(&allowed) < 2)
    return Val_false;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == Long_val(k)) {
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return Val_bool(sched_setaffinity(0, sizeof one, &one) == 0);
    }
  }
  return Val_false;
}
