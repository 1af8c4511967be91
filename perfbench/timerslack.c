/* Timer slack of the calling thread (Linux prctl).  The load generator
   sleeps in select() until the next request is due; with the default
   50 us slack the kernel may wake it that much late, which would show up
   as latency of the server under test.  No-op elsewhere. */
#include <caml/mlvalues.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

value perfbench_set_timerslack(value ns)
{
#if defined(__linux__) && defined(PR_SET_TIMERSLACK)
  prctl(PR_SET_TIMERSLACK, (unsigned long)Long_val(ns), 0, 0, 0);
#endif
  return Val_unit;
}
