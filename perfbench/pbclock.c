/* A non-allocating monotonic clock for per-call timing in the traced
   run: the library clock boxes an int64 per read, which would show up
   in the allocation figures the trace reports. */

#include <caml/mlvalues.h>
#include <time.h>

intnat perfbench_now_ns(value unit)
{
    struct timespec ts;
    (void)unit;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value perfbench_now_ns_byte(value unit)
{
    return Val_long(perfbench_now_ns(unit));
}
