(* xmark-stream: [xaos eval] processes streaming one generated XMark file,
   one process per query, back to back (a closed loop of one). *)

type sample = {
  query : string;
  wall : float;  (** launch to exit, seconds *)
  first_out : float option;  (** launch to the first result line *)
  rss_kb : int;  (** the process's own peak resident set *)
  count : int;
  digest : int;
  exit_code : int;
}

let now = Unix.gettimeofday

(* Result lines print as [tag(id)@level]. *)
let item_id line =
  match (String.index_opt line '(', String.index_opt line ')') with
  | Some a, Some b when b > a + 1 -> int_of_string_opt (String.sub line (a + 1) (b - a - 1))
  | _ -> None

let eval_once ~xaos ~file query =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Proc.spawn ~stdout:wr xaos [ "eval"; query; file ] in
  Proc.track pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let first_out = ref None and count = ref 0 and digest = ref 17 in
  let bad = ref false in
  (try
     while true do
       let line = input_line ic in
       if !first_out = None then first_out := Some (now () -. t0);
       match item_id line with
       | Some id ->
         incr count;
         digest := Oracle.digest_step !digest id
       | None -> bad := true
     done
   with End_of_file -> ());
  close_in ic;
  let exit_code, rss_kb = Proc.reap pid in
  let wall = now () -. t0 in
  { query; wall; first_out = !first_out; rss_kb; count = !count;
    digest = !digest; exit_code = (if !bad && exit_code = 0 then -1 else exit_code) }

(* Time to ready: launch and compile every query on a one-element
   document, summed over the queries. *)
let setup_once ~xaos ~tiny queries =
  List.fold_left (fun acc q -> acc +. (eval_once ~xaos ~file:tiny q).wall) 0. queries

(* Whole rotations through the queries, so every query weighs the same:
   one per 15 s of [seconds] (a rotation over the 100 MB document takes
   13 to 16 s on a 2-core x86-64 VM), at least one. The count depends
   on [seconds] only, never on how fast this run happens to go. Before
   each eval, [setup_reps] set-up times are taken: the host's speed
   shifts from one second to the next, and set-ups spread over the whole
   run give a steadier median than one burst. Returns the samples and
   the set-up times. *)
let measure ~xaos ~file ~tiny ~setup_reps ~seconds queries =
  let rotations = max 1 (int_of_float (seconds /. 15.)) in
  let setups = ref [] in
  let one q =
    for _ = 1 to setup_reps do
      setups := setup_once ~xaos ~tiny queries :: !setups
    done;
    eval_once ~xaos ~file q
  in
  let samples = List.concat (List.init rotations (fun _ -> List.map one queries)) in
  (samples, !setups)

let correct answers s =
  s.exit_code = 0
  &&
  match List.assoc_opt s.query answers with
  | Some (a : Oracle.xmark_answer) -> a.count = s.count && a.digest = s.digest
  | None -> false
