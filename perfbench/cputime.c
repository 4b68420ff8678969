/* Thread CPU time for the census replay's per-spec cost.  The kernel
   leaves time the hypervisor steals out of it, so the figure does not
   move with the host's other guests. */

#include <time.h>
#include <caml/mlvalues.h>

value perfbench_thread_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}
