(* The repository benchmark's main program.

     bench.exe --workload W --seed N --seconds S --trace 0|1 --xaos PATH

   With --trace 0 it prints every end-to-end metric; with --trace 1 it
   repeats the end-to-end run (for the server-side counters and the
   end-to-end p50) and adds the in-process cost ladder, printing every
   per-layer metric and writing the ladder's spans as a Chrome trace.
   Human-readable lines go to stderr; the last line of stdout is the
   JSON result. Exits 1 when any output differs from its oracle or any
   document or evaluation fails.

     bench.exe --workload W --seed N --check-determinism --xaos PATH

   runs the ladder twice on seed N and exits 1 unless every count
   matches. *)

open Xaos_perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let xaos = ref "_build/default/bin/xaos.exe"
let work = ref "perfbench/.work"
let cache = ref "perfbench/.cache"
let determinism = ref false

let specs =
  [ ("--workload", Arg.Set_string workload, "NAME xmark-stream | pubsub-selective | pubsub-fanout");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured seconds");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ("--xaos", Arg.Set_string xaos, "PATH the xaos executable");
    ("--work", Arg.Set_string work, "DIR scratch files of the run");
    ("--cache", Arg.Set_string cache, "DIR oracle cache");
    ("--check-determinism", Arg.Set determinism, " compare two ladder runs") ]

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Offset of the first [sub] in [s] at or after [i]. *)
let rec find_at s sub i =
  if i + String.length sub > String.length s then None
  else if String.sub s i (String.length sub) = sub then Some i
  else find_at s sub (i + 1)

(* (steal, total) CPU ticks from /proc/stat. Steal is the time the
   hypervisor gave this VM's CPUs to someone else: logged per run, so a
   slow run on a busy host can be told from a slow program. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> None
  | None -> None
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: fields ->
      let v = List.filter_map int_of_string_opt fields in
      Some (Option.value (List.nth_opt v 7) ~default:0, List.fold_left ( + ) 0 v)
    | _ -> None)

(* {1 Per-workload settings} *)

(* Fixed open-loop rates, about a third of the closed-loop capacity
   measured on a 2-core x86-64 VM (about 75 documents/s selective, 135
   fanout for 27 and 30); they stay fixed so a slower server shows as
   queueing latency instead of a lower offered load. At half capacity
   the fanout tail scattered between runs: its latency depends on the
   writer threads, which only get the OCaml runtime lock when the
   evaluator idles. *)
let open_rate = function
  | Workload.Pubsub_selective -> 27.
  | Workload.Pubsub_fanout -> 30.
  | Workload.Xmark_stream -> 0.

(* Closed-loop documents in flight. Outstanding frames stay below
   window x (most frames of one document), about 720 for pubsub-fanout,
   under the server's 1024-frame per-client out-queue. *)
let window = 3

let churn_rate = function
  | Workload.Pubsub_fanout -> 10.
  | _ -> 0.

let serve_args = function
  | Workload.Pubsub_fanout ->
    (* production observability: telemetry (with its snapshot sink) and
       per-subscription attribution *)
    [ "--metrics"; Filename.concat !work "metrics.ndjson"; "--attrib" ]
  | _ -> []

(* pub/sub servers launched per run, each timed through set-up, an open
   loop for 1/3 and a closed loop for 2/3 of its share of --seconds. The
   gated figures (set-up, capacity) come from the launches and the
   closed loop, so they get most of the time and the most launches. *)
let sessions = 16

(* {1 Results} *)

type metric = { name : string; value : float; unit : string; samples : int }

let metric ?(samples = 1) name value unit = { name; value; unit; samples }

let ms s = 1e3 *. s

(* Open-loop latency medians: printed by the traced run, beside the
   tail, and not gated (see README.md, "Measured spread"). *)
let latency_metrics ~latencies ~firsts =
  [ metric ~samples:(List.length latencies) "latency_p50_ms"
      (ms (Measure.median latencies)) "ms";
    metric ~samples:(List.length firsts) "first_item_p50_ms"
      (ms (Measure.median firsts)) "ms" ]

let tail_metric name samples =
  let t = Measure.tail samples in
  log "  %s reports p%.1f (%d samples beyond it)" name t.percentile t.beyond;
  metric ~samples:(List.length samples) name (ms t.value) "ms"

let emit ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      log "%-34s %14.6g %-6s (n=%d)" m.name m.value m.unit m.samples)
    metrics;
  let bad = List.filter (fun m -> not (Float.is_finite m.value)) metrics in
  if bad <> [] then begin
    log "no value for: %s" (String.concat ", " (List.map (fun m -> m.name) bad));
    exit 3
  end;
  let module J = Xaos_obs.Json in
  print_endline
    (J.to_string ~indent:false
       (J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics",
             J.Obj
               (List.map
                  (fun m ->
                    (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.String m.unit) ]))
                  metrics)) ]));
  if not correct then exit 1

(* {1 xmark-stream} *)

type xmark_run = {
  samples : Evalrun.sample list;
  setups : float list;  (** set-up times, taken between the evals *)
  file_bytes : int;
  answers : (string * Oracle.xmark_answer) list;
  gap_s : float;  (** mean gap between one eval's exit and the next launch *)
}

let xmark_run () =
  let file = Filename.concat !work (Printf.sprintf "xmark-%d.xml" !seed) in
  let tiny = Filename.concat !work "tiny.xml" in
  Out_channel.with_open_bin tiny (fun oc -> output_string oc "<site/>");
  let t0 = Unix.gettimeofday () in
  ignore
    (Xaos_workloads.Xmark.to_file
       (Xaos_workloads.Xmark.config ~seed:!seed Workload.xmark_scale)
       file);
  log "generated %s in %.1f s" file (Unix.gettimeofday () -. t0);
  let t1 = Unix.gettimeofday () in
  let samples, setups =
    Evalrun.measure ~xaos:!xaos ~file ~tiny ~setup_reps:4 ~seconds:!seconds
      Workload.xmark_queries
  in
  let elapsed = Unix.gettimeofday () -. t1 -. List.fold_left ( +. ) 0. setups in
  (* The oracle comes after the evals: on Linux a spawned child's
     ru_maxrss starts at this process's own peak (it is carried across
     exec), and the DOM pass would lift that to over a gigabyte. *)
  let t2 = Unix.gettimeofday () in
  let answers =
    Oracle.xmark ~dir:!cache ~seed:!seed ~scale:Workload.xmark_scale
      Workload.xmark_queries
  in
  log "oracle (DOM baseline, cached per seed) in %.1f s" (Unix.gettimeofday () -. t2);
  let walls = List.fold_left (fun a (s : Evalrun.sample) -> a +. s.wall) 0. samples in
  { samples; setups; file_bytes = (Unix.stat file).st_size; answers;
    gap_s = (elapsed -. walls) /. float_of_int (List.length samples) }

let xmark_e2e r =
  let n = List.length r.samples in
  let walls = List.map (fun (s : Evalrun.sample) -> s.wall) r.samples in
  let total = List.fold_left ( +. ) 0. walls in
  let ok = List.filter (Evalrun.correct r.answers) r.samples in
  List.iter
    (fun (s : Evalrun.sample) ->
      if not (Evalrun.correct r.answers s) then
        log "MISMATCH %s: exit %d, %d items (oracle %d)" s.query s.exit_code s.count
          (match List.assoc_opt s.query r.answers with Some a -> a.count | None -> -1))
    r.samples;
  let peak = List.fold_left (fun m (s : Evalrun.sample) -> max m s.rss_kb) 0 r.samples in
  ( List.length ok = n,
    n,
    n - List.length ok,
    [ metric ~samples:(List.length r.setups) "setup_s" (Measure.median r.setups) "s";
      metric ~samples:n "eval_mb_per_s"
        (float_of_int r.file_bytes *. float_of_int n /. total /. 1e6) "MB/s";
      metric ~samples:n "peak_rss_mb" (float_of_int peak /. 1024.) "MB";
      metric ~samples:n "capacity_docs_per_s" (float_of_int n /. total) "docs/s" ] )

(* {1 pub/sub} *)

let pubsub_run kind =
  let w = Workload.pubsub kind ~seed:!seed in
  let t0 = Unix.gettimeofday () in
  let expect = Oracle.pubsub w in
  log "oracle over %d documents x %d subscriptions in %.1f s; \
       frames per document: mean %.1f, max %d"
    (Array.length w.docs) (List.length w.subs) (Unix.gettimeofday () -. t0)
    (float_of_int (Array.fold_left (fun n (e : Oracle.expect) -> n + e.frames) 0 expect)
     /. float_of_int (Array.length expect))
    (Array.fold_left (fun n (e : Oracle.expect) -> max n e.frames) 0 expect);
  let cfg =
    { Loadgen.xaos = !xaos; socket = Filename.concat !work "s";
      serve_args = serve_args kind;
      server_log = Filename.concat !work "server.log";
      workload = w; expect; rate = open_rate kind;
      open_s = !seconds /. float_of_int (3 * sessions);
      closed_s = 2. *. !seconds /. float_of_int (3 * sessions);
      window; churn_rate = churn_rate kind; sessions }
  in
  Loadgen.run cfg

let server_stat (r : Loadgen.result) k =
  Option.value (List.assoc_opt k r.server_stats) ~default:0.

let pubsub_tally (r : Loadgen.result) =
  let dropped = int_of_float (server_stat r "server/dropped_responses") in
  let t = Measure.tally ~dropped r.verdicts in
  let count f = List.length (List.filter f r.verdicts) in
  log "documents %d: shed %d, timed out %d, unpredicted end %d, mismatch %d; \
       dropped frames %d; churn requests %d; item frames %d"
    t.attempted (count (fun v -> v.shed)) (count (fun v -> v.timed_out))
    (count (fun v -> v.unpredicted_end)) (count (fun v -> v.mismatch))
    dropped r.churn_ops r.item_frames;
  List.iter (log "ANOMALY %s") r.anomalies;
  (t, t.failed_docs = 0 && r.anomalies = [])

let pubsub_e2e (r : Loadgen.result) =
  let t, correct = pubsub_tally r in
  let launched = List.length r.setup_s in
  ( correct,
    t.attempted,
    t.failed_docs,
    [ metric ~samples:launched "setup_s" (Measure.median r.setup_s) "s";
      metric ~samples:launched "eval_mb_per_s" (Measure.mean r.capacity_bytes /. 1e6) "MB/s";
      metric ~samples:launched "peak_rss_mb" (float_of_int r.peak_rss_kb /. 1024.) "MB";
      metric ~samples:launched "capacity_docs_per_s" (Measure.mean r.capacity) "docs/s" ] )

(* {1 Ladder} *)

let ladder_input kind =
  match kind with
  | Workload.Xmark_stream ->
    let file = Filename.concat !work (Printf.sprintf "xmark-%d.xml" !seed) in
    if not (Sys.file_exists file) then
      ignore
        (Xaos_workloads.Xmark.to_file
           (Xaos_workloads.Xmark.config ~seed:!seed Workload.xmark_scale)
           file);
    { Ladder.docs = [| In_channel.with_open_bin file In_channel.input_all |];
      subs =
        List.mapi
          (fun i q -> { Workload.sub_name = Printf.sprintf "s%d" i; query = q; earliest = false })
          Workload.xmark_queries;
      engine_queries = Workload.xmark_queries;
      rounds = 1;
      (* one 100 MB document would trip the service's per-document
         deadline and structure budget; the ladder measures the work *)
      broker =
        { Xaos_service.Broker.default_config with budget = None; deadline_s = None } }
  | _ ->
    let w = Workload.pubsub kind ~seed:!seed in
    (* the engine rung runs the first four subscription queries whose
       topic occurs in the first document, so it does matching work *)
    let doc0 = w.docs.(0) in
    let topic_of q =
      Option.map (fun i -> String.sub q i 8) (find_at q "topic" 0)
    in
    let hits =
      List.filter
        (fun (s : Workload.subscription) ->
          match topic_of s.query with
          | Some t -> find_at doc0 ("<" ^ t ^ ">") 0 <> None
          | None -> false)
        w.subs
    in
    let distinct =
      List.fold_left
        (fun acc (s : Workload.subscription) ->
          if List.mem s.query acc then acc else s.query :: acc)
        [] hits
      |> List.rev
    in
    { Ladder.docs = w.docs; subs = w.subs;
      engine_queries = List.filteri (fun i _ -> i < 4) distinct;
      rounds = 4; broker = Xaos_service.Broker.default_config }

let layer_metrics kind =
  let spans = Spans.create () in
  let (correct, attempted, failed), server, latencies, firsts, lag_ms =
    match kind with
    | Workload.Xmark_stream ->
      let r = xmark_run () in
      let walls = List.map (fun (s : Evalrun.sample) -> s.wall) r.samples in
      let firsts = List.filter_map (fun (s : Evalrun.sample) -> s.first_out) r.samples in
      let c, a, f, _ = xmark_e2e r in
      ((c, a, f), [], walls, firsts, ms r.gap_s)
    | _ ->
      let r = pubsub_run kind in
      let t, c = pubsub_tally r in
      let lag = (Measure.tail r.lags).value in
      ((c, t.attempted, t.failed_docs), r.server_stats, r.latencies, r.first_frames,
       ms lag)
  in
  let inp = ladder_input kind in
  spans.on <- true;
  let totals, ms_ = Ladder.run ~spans inp in
  let trace_file =
    Filename.concat !work
      (Printf.sprintf "trace-%s-%d.json" (Workload.name kind) !seed)
  in
  Spans.write spans trace_file;
  log "wrote %d spans to %s" (Spans.count spans) trace_file;
  let inproc =
    match kind with
    | Workload.Xmark_stream -> totals.engine_s_per_eval
    | _ -> totals.publish_s_per_doc
  in
  let stat k = Option.value (List.assoc_opt k server) ~default:0. in
  ( correct, attempted, failed,
  List.map (fun (m : Ladder.metric) -> metric m.name m.value m.unit) ms_
  @ latency_metrics ~latencies ~firsts
  @ [ (* the end-to-end tail: reported here, ungated, because it
         scattered between runs far beyond any allowed bound *)
      tail_metric "latency_p99_ms" latencies;
      metric "server.overhead_ms_per_doc"
        (ms (Measure.median latencies -. inproc)) "ms";
      metric "ingress.shed" (stat "ingress/shed") "count";
      metric "ingress.displaced" (stat "ingress/displaced") "count";
      metric "server.dropped_responses" (stat "server/dropped_responses") "count";
      metric "server.thread_crashes" (stat "server/thread_crashes") "count";
      metric "generator.lag_ms" lag_ms "ms";
      (* a count that is 0 on every passing run: any failure also fails
         the run, so this says how much of it failed *)
      metric ~samples:attempted "failed_frac"
        (float_of_int failed /. float_of_int (max 1 attempted)) "ratio" ] )

(* Counts must repeat exactly, except minor words: weak tables in the
   libraries hit or miss with the GC's timing, so allocation varies by
   up to about 1.5% between same-seed runs; they are held to 2%. *)
let check_determinism kind =
  let counts () =
    let _, ms_ = Ladder.run (ladder_input kind) in
    List.filter (fun (m : Ladder.metric) -> m.unit = "count" || m.unit = "bytes") ms_
  in
  let a = counts () in
  let b = counts () in
  let tolerance (m : Ladder.metric) =
    if find_at m.name "minor_words" 0 <> None then 0.02 else 0.
  in
  let diffs =
    List.filter_map
      (fun ((x : Ladder.metric), (y : Ladder.metric)) ->
        if Float.abs (x.value -. y.value) <= tolerance x *. Float.abs x.value then None
        else Some (Printf.sprintf "%s: %g vs %g" x.name x.value y.value))
      (List.combine a b)
  in
  List.iter (log "DIFFERS %s") diffs;
  log "%d counts compared, %d differ" (List.length a) (List.length diffs);
  exit (if diffs = [] then 0 else 1)

let () =
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload Workload.kinds with
    | Some k -> k
    | None -> log "unknown workload %S" !workload; exit 2
  in
  if not (Sys.file_exists !xaos) then (log "missing %s" !xaos; exit 2);
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  let cleanup () =
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".xml" || Filename.check_suffix f ".sock" then
          try Sys.remove (Filename.concat !work f) with Sys_error _ -> ())
      (try Sys.readdir !work with Sys_error _ -> [||])
  in
  at_exit cleanup;
  let ticks0 = cpu_ticks () in
  at_exit (fun () ->
      match (ticks0, cpu_ticks ()) with
      | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
        log "host steal: %.1f%% of CPU time during the run"
          (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
      | _ -> ());
  log "workload %s, seed %d, %g s, trace %d" !workload !seed !seconds !trace;
  if !determinism then check_determinism kind
  else if !trace = 1 then
    let correct, attempted, failed, metrics = layer_metrics kind in
    emit ~correct ~attempted ~failed metrics
  else
    let correct, attempted, failed, metrics =
      match kind with
      | Workload.Xmark_stream -> xmark_e2e (xmark_run ())
      | _ -> pubsub_e2e (pubsub_run kind)
    in
    emit ~correct ~attempted ~failed metrics
