/* wait4(2) for one child: exit status plus the child's own peak resident
   set (ru_maxrss), which OCaml's Unix library does not expose. Reading
   VmHWM from /proc is racy for a short-lived child: the figure vanishes
   once it exits, before the parent can reap it. */
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/threads.h>

value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t r;
  caml_release_runtime_system();
  do {
    r = wait4((pid_t)Int_val(vpid), &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_acquire_runtime_system();
  if (r < 0) caml_failwith("wait4");
  res = caml_alloc_tuple(2);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                                        : 128 + WTERMSIG(status)));
  Store_field(res, 1, Val_long(ru.ru_maxrss)); /* KiB on Linux */
  CAMLreturn(res);
}
