(* Child processes of the benchmark: spawned, reaped with their peak
   resident memory, and never left running. *)

external wait4 : int -> int * int = "perfbench_wait4"
(** [wait4 pid] blocks until [pid] exits: (exit code, or 128 + signal;
    the child's peak resident set in KiB). *)

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0)

let spawn ?stdout ?stderr prog args =
  let null = Lazy.force devnull in
  Unix.create_process prog
    (Array.of_list (prog :: args))
    null
    (Option.value stdout ~default:null)
    (Option.value stderr ~default:null)

(* Peak resident set of a live process, from /proc/<pid>/status. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
          (fun kb -> Some kb)
      | _ -> scan ()
    in
    let r = scan () in
    close_in ic;
    r

(* Every child still running when the benchmark exits is killed and
   reaped, including on an exception path. *)
let live : int list ref = ref []

let track pid = live := pid :: !live

let reap pid =
  live := List.filter (( <> ) pid) !live;
  wait4 pid

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (try wait4 pid with Failure _ -> (0, 0)))
    !live;
  live := []

let () =
  at_exit kill_all;
  (* a terminated benchmark still stops its children *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]
