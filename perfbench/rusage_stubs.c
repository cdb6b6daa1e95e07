#include <sys/resource.h>
#include <caml/mlvalues.h>

/* Largest peak resident set size, in kB, of any child this process has
   waited for (Linux reports the largest single child for
   RUSAGE_CHILDREN, not a sum). */
value perfbench_children_max_rss_kb(value unit)
{
  struct rusage children;
  (void)unit;
  getrusage(RUSAGE_CHILDREN, &children);
  return Val_long(children.ru_maxrss);
}
