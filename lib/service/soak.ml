module Json = Xaos_obs.Json
module Report = Xaos_obs.Report
module Sax = Xaos_xml.Sax
module Chaos = Xaos_xml.Chaos
module Prng = Xaos_workloads.Prng
open Xaos_core

type config = {
  docs : int;
  subs : int;
  fault_rate : float;
  seed : int;
  socket_path : string;
  report_path : string option;
  event_log_path : string option;
  slow_ms : float option;
  flight_sample : int;
  flight_dir : string option;
}

let default_config =
  { docs = 2000; subs = 100; fault_rate = 0.15; seed = 42;
    socket_path = Filename.concat (Filename.get_temp_dir_name ()) "xaos-soak.sock";
    report_path = None; event_log_path = None;
    slow_ms = Some 0.; flight_sample = 25; flight_dir = None }

type summary = {
  published : int;
  completed : int;
  processed : int;
  shed : int;
  displaced : int;
  client_aborts : int;
  match_events : int;
  item_events : int;  (** mid-document pushes from earliest subscriptions *)
  item_checked : int;
      (** (checked doc, earliest sub) pairs differentially verified *)
  item_mismatches : int;
      (** pairs whose streamed item count ≠ the final match count *)
  quarantine_events : int;
  readmit_events : int;
  sax_faults : int;
  limit_ends : int;
  deadline_ends : int;
  quarantined_total : int;
  readmitted_total : int;
  checked : int;
  mismatches : int;
  mismatch_examples : string list;
  overload_seen : bool;
  crashes : int;
  report_valid : bool;
  log_quarantines : int;
  log_sheds : int;
  log_readmits : int;
  log_slow : int;
  slow_docs : int;
  slow_gate : bool;
  attrib_subs : int;
  attrib_errors : string list;
  flight_written : int;
  flight_gate : bool;
  flight_stages : string list;
  latency_sections : string list;
  report : Report.t;
}

(* {1 Workload shape}

   Small topic documents (~30 elements) so thousands evaluate in
   seconds; the healthy queries are the selective pub/sub class of
   bench/filtering.ml. The poison query's live-structure count on this
   shape (~190, measured) sits far above the healthy peak (~15), so a
   budget between the two makes it — and only it — abort on every
   document: the quarantine lifecycle runs on the main stream itself. *)

let topic i = Printf.sprintf "t%02d" i

let topic_count = 40

let gen_doc rng =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "<feed><channel>";
  for _ = 1 to 3 do
    let t = topic (Prng.int rng topic_count) in
    Buffer.add_string buf ("<" ^ t ^ ">");
    for i = 1 to 8 do
      Buffer.add_string buf
        (Printf.sprintf "<item><name>n%d</name></item>" i)
    done;
    Buffer.add_string buf ("</" ^ t ^ ">")
  done;
  Buffer.add_string buf "</channel></feed>";
  Buffer.contents buf

let gen_query rng =
  let t = topic (Prng.int rng topic_count) in
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "//%s/item" t
  | 1 -> Printf.sprintf "/feed/channel/%s//name" t
  | _ -> Printf.sprintf "//%s//name" t

let poison_name = "poison"

let poison_query = "//*[*]//*[*]//*"

let structure_budget = 96

(* {1 Socket client plumbing} *)

(* a signal-interrupted call is retried: it says nothing about the peer *)
let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      go (off + restart_on_eintr (Unix.write fd b off) (len - off))
  in
  go 0

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path) with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e);
  fd

let read_lines fd on_line =
  let chunk = Bytes.create 65536 in
  let acc = Buffer.create 4096 in
  let process () =
    let s = Buffer.contents acc in
    let len = String.length s in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | None ->
        Buffer.clear acc;
        Buffer.add_substring acc s start (len - start)
      | Some nl ->
        on_line (String.sub s start (nl - start));
        go (nl + 1)
    in
    go 0
  in
  let rec loop () =
    match restart_on_eintr (Unix.read fd chunk 0) (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes acc chunk 0 n;
      process ();
      loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ()

let send fd req = write_all fd (Protocol.to_line (Protocol.request_to_json req))

let publish_line ~doc_id ~priority doc =
  Protocol.to_line
    (Protocol.request_to_json (Protocol.Publish { doc_id; priority; doc }))

(* {1 The shared tally: everything the reader threads learn} *)

type tally = {
  mu : Mutex.t;
  mutable sub_acks : int;
  mutable sub_errors : string list;
  mutable accepted : int;
  mutable shed : int;
  mutable displaced : int;
  mutable processed : int;
  mutable match_events : int;
  mutable item_events : int;
  item_counts : (string, int) Hashtbl.t;  (* "<doc>/<sub>" -> items pushed *)
  mutable quarantine_events : int;
  mutable readmit_events : int;
  mutable sax_faults : int;
  mutable limit_ends : int;
  mutable deadline_ends : int;
  outcomes : (string, (string * int) list) Hashtbl.t;
  terminal : (string, unit) Hashtbl.t;
  mutable stats_json : Json.t option;
  mutable report_json : Json.t option;
}

let new_tally () =
  { mu = Mutex.create (); sub_acks = 0; sub_errors = []; accepted = 0;
    shed = 0; displaced = 0; processed = 0; match_events = 0;
    item_events = 0; item_counts = Hashtbl.create 4096;
    quarantine_events = 0; readmit_events = 0; sax_faults = 0;
    limit_ends = 0; deadline_ends = 0; outcomes = Hashtbl.create 4096;
    terminal = Hashtbl.create 4096; stats_json = None; report_json = None }

let locked ty f =
  Mutex.lock ty.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ty.mu) f

let on_json ty j =
  locked ty @@ fun () ->
  let str name = Option.bind (Json.member name j) Json.to_str in
  let int name =
    Option.value ~default:0 (Option.bind (Json.member name j) Json.to_int)
  in
  match str "event" with
  | Some "processed" ->
    ty.processed <- ty.processed + 1;
    ty.sax_faults <- ty.sax_faults + int "faults";
    (match Json.member "limit" j with
    | Some (Json.String _) -> ty.limit_ends <- ty.limit_ends + 1
    | _ -> ());
    (match Json.member "deadline" j with
    | Some (Json.Bool true) -> ty.deadline_ends <- ty.deadline_ends + 1
    | _ -> ());
    let id = Option.value ~default:"?" (str "id") in
    let matches =
      match Option.bind (Json.member "matches" j) Json.to_obj with
      | Some fields ->
        List.filter_map
          (fun (name, v) -> Option.map (fun n -> (name, n)) (Json.to_int v))
          fields
      | None -> []
    in
    Hashtbl.replace ty.outcomes id matches;
    Hashtbl.replace ty.terminal id ()
  | Some "match" -> ty.match_events <- ty.match_events + 1
  | Some "item" ->
    ty.item_events <- ty.item_events + 1;
    let key =
      Option.value ~default:"?" (str "id")
      ^ "/"
      ^ Option.value ~default:"?" (str "name")
    in
    Hashtbl.replace ty.item_counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt ty.item_counts key))
  | Some "quarantine" -> ty.quarantine_events <- ty.quarantine_events + 1
  | Some "readmit" -> ty.readmit_events <- ty.readmit_events + 1
  | Some _ -> ()
  | None -> (
    match (Json.member "ok" j, str "op") with
    | Some (Json.Bool true), Some "subscribe" -> ty.sub_acks <- ty.sub_acks + 1
    | Some (Json.Bool true), Some "publish" -> ty.accepted <- ty.accepted + 1
    | Some (Json.Bool true), Some "stats" -> ty.stats_json <- Json.member "stats" j
    | Some (Json.Bool true), Some "report" ->
      ty.report_json <- Json.member "report" j
    | Some (Json.Bool false), Some "publish"
      when str "error" = Some "overload" -> (
      let id = Option.value ~default:"?" (str "id") in
      Hashtbl.replace ty.terminal id ();
      match str "shed" with
      | Some "incoming" -> ty.shed <- ty.shed + 1
      | Some "displaced" -> ty.displaced <- ty.displaced + 1
      | _ -> ())
    | Some (Json.Bool false), op ->
      let msg = Option.value ~default:"?" (str "error") in
      ty.sub_errors <-
        (Option.value ~default:"?" op ^ ": " ^ msg) :: ty.sub_errors
    | _ -> ())

let spawn_reader ty fd =
  Thread.create
    (fun () ->
      read_lines fd (fun line ->
          match Json.parse line with Ok j -> on_json ty j | Error _ -> ()))
    ()

(* poll until [cond] holds under the tally lock, or [timeout] elapses *)
let wait_for ty ~timeout cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if locked ty cond then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

(* {1 The scenario} *)

let doc_id i = Printf.sprintf "doc-%05d" i

let run ?(progress = fun (_ : string) -> ()) cfg =
  (* 1. deterministic workload *)
  let rng_docs = Prng.create cfg.seed in
  let docs = Array.init cfg.docs (fun _ -> gen_doc rng_docs) in
  let plans =
    Array.init cfg.docs (fun i ->
        Chaos.plan ~seed:cfg.seed ~rate:cfg.fault_rate i)
  in
  let rng_q = Prng.create (cfg.seed + 1) in
  let healthy_subs =
    List.init
      (max 1 (cfg.subs - 1))
      (fun i -> (Printf.sprintf "sub-%04d" i, gen_query rng_q))
  in
  (* 2. clean oracle, computed before the server exists (the broker
     resets the symbol table periodically; no concurrent interning) *)
  progress "oracle: precomputing clean match counts";
  let oracle_set =
    match
      Query_set.compile healthy_subs
    with
    | Ok s -> s
    | Error e -> failwith ("soak oracle: " ^ e)
  in
  let unfaulted i =
    match Chaos.kind plans.(i) with
    | None | Some Chaos.Split_refill -> true  (* same bytes on the wire *)
    | Some _ -> false
  in
  let expected =
    Array.init cfg.docs (fun i ->
        if not (unfaulted i) then None
        else
          Some
            (Query_set.run_string oracle_set docs.(i)
            |> List.filter_map (fun (o : Query_set.outcome) ->
                   match o.items with
                   | [] -> None
                   | items -> Some (o.query_name, List.length items))))
  in
  (* 3. observability on for the duration: latency histograms fill and
     every supervision decision lands in the event log (and the NDJSON
     file when configured). Enabled after the oracle runs so the
     histograms hold only what the server under test did; prior state
     is restored on the way out. *)
  let tel_was = Xaos_obs.Telemetry.enabled () in
  let log_was = Xaos_obs.Eventlog.enabled () in
  let attrib_was = Xaos_obs.Attrib.enabled () in
  Xaos_obs.Telemetry.enable ();
  Xaos_obs.Histogram.reset_all ();
  Xaos_obs.Eventlog.enable ();
  Xaos_obs.Eventlog.set_capacity 8192;
  (* cost attribution is always on under soak: the conservation check
     (accounts sum to pipeline totals) is part of the acceptance gate *)
  Xaos_obs.Attrib.reset ();
  Xaos_obs.Attrib.enable ();
  (* flight recorder: with the slow threshold at 0 every document keeps,
     so [Flight.last] is guaranteed to hold a full recording *)
  if cfg.flight_sample > 0 then begin
    Xaos_obs.Flight.disable ();
    Xaos_obs.Flight.reset ();
    Xaos_obs.Flight.configure ~sample_every:cfg.flight_sample
      ?dir:cfg.flight_dir ()
  end;
  let sink_ch =
    match cfg.event_log_path with
    | None -> None
    | Some path ->
      let oc = open_out path in
      (* OCaml 5 channels serialize concurrent writers internally *)
      Xaos_obs.Eventlog.set_sink
        (Some (fun line -> output_string oc (line ^ "\n")));
      Some oc
  in
  Fun.protect ~finally:(fun () ->
      Xaos_obs.Eventlog.set_sink None;
      (match sink_ch with Some oc -> close_out_noerr oc | None -> ());
      Xaos_obs.Flight.disable ();
      if not attrib_was then Xaos_obs.Attrib.disable ();
      if not log_was then Xaos_obs.Eventlog.disable ();
      if not tel_was then Xaos_obs.Telemetry.disable ())
  @@ fun () ->
  (* 4. the server under test *)
  progress "server: starting";
  let server_cfg =
    { (Server.default_config cfg.socket_path) with
      high_watermark = 32; low_watermark = 8; out_queue = 16384;
      broker =
        { Broker.budget = Some structure_budget; deadline_s = Some 5.0;
          limits = { Sax.default_limits with max_text_bytes = 16384 };
          quarantine =
            { Quarantine.threshold = 3; base_penalty = 12; max_penalty = 192 };
          reset_symbols_every = 128; earliest = false; prefix_gate = true;
          slow_ms = cfg.slow_ms } }
  in
  let server = Server.start server_cfg in
  let ty = new_tally () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  (* 4. subscribers: healthy subscriptions spread over four
     connections, the poison one on its own *)
  let sub_conns = Array.init 4 (fun _ -> connect cfg.socket_path) in
  let poison_conn = connect cfg.socket_path in
  let pub = connect cfg.socket_path in
  let readers =
    List.map (spawn_reader ty)
      (pub :: poison_conn :: Array.to_list sub_conns)
  in
  (* every other healthy subscription opts into earliest-decision
     emission, so the soak exercises both modes side by side on the same
     chaos stream and can check them against each other *)
  let earliest_sub i = i mod 2 = 0 in
  let earliest_names : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (name, query) ->
      if earliest_sub i then Hashtbl.replace earliest_names name ();
      send sub_conns.(i mod 4)
        (Protocol.Subscribe { name; query; earliest = earliest_sub i }))
    healthy_subs;
  send poison_conn
    (Protocol.Subscribe
       { name = poison_name; query = poison_query; earliest = false });
  let want_acks = List.length healthy_subs + 1 in
  if not (wait_for ty ~timeout:30.0 (fun () -> ty.sub_acks >= want_acks))
  then failwith "soak: subscriptions not acknowledged";
  (match locked ty (fun () -> ty.sub_errors) with
  | [] -> ()
  | e :: _ -> failwith ("soak: subscribe failed: " ^ e));
  (* 5. overload: low-priority bursts past the high watermark, then
     high-priority displacers; retry until both responses observed *)
  progress "overload: forcing watermark crossings";
  let tiny =
    "<feed><channel><t00><item><name>x</name></item></t00></channel></feed>"
  in
  let burst_total = ref 0 in
  let round = ref 0 in
  while
    locked ty (fun () -> ty.shed = 0 || ty.displaced = 0) && !round < 25
  do
    incr round;
    let r = !round in
    for k = 1 to 3 * server_cfg.high_watermark do
      incr burst_total;
      write_all pub
        (publish_line ~doc_id:(Printf.sprintf "burst-%d-%d" r k) ~priority:0
           tiny)
    done;
    for k = 1 to 4 do
      incr burst_total;
      write_all pub
        (publish_line ~doc_id:(Printf.sprintf "hi-%d-%d" r k) ~priority:9
           tiny)
    done;
    (* drain the round so the queue leaves the overloaded state *)
    let target = !burst_total in
    ignore
      (wait_for ty ~timeout:30.0 (fun () ->
           Hashtbl.length ty.terminal >= target))
  done;
  let overload_seen =
    locked ty (fun () -> ty.shed > 0 && ty.displaced > 0)
  in
  (* 6. the main chaos stream *)
  progress "stream: publishing documents with faults";
  let client_aborts = ref 0 in
  let expected_terminal = ref !burst_total in
  for i = 0 to cfg.docs - 1 do
    let plan = plans.(i) in
    let id = doc_id i in
    (match Chaos.kind plan with
    | Some Chaos.Inject_exn ->
      (* a client dying mid-request: half a line, then hang up *)
      let fd = connect cfg.socket_path in
      let line = publish_line ~doc_id:id ~priority:1 docs.(i) in
      write_all fd (String.sub line 0 (String.length line / 2));
      (try Unix.close fd with Unix.Unix_error _ -> ());
      incr client_aborts
    | Some Chaos.Split_refill ->
      (* the full request, a few bytes per write: frame reassembly *)
      let line = publish_line ~doc_id:id ~priority:1 docs.(i) in
      let len = String.length line in
      let rec go off =
        if off < len then begin
          write_all pub (String.sub line off (min 7 (len - off)));
          go (off + 7)
        end
      in
      go 0;
      incr expected_terminal
    | _ ->
      let payload = Chaos.corrupt plan docs.(i) in
      write_all pub (publish_line ~doc_id:id ~priority:1 payload);
      incr expected_terminal);
    (* flow control: keep a bounded number of documents in flight so
       the main stream exercises the evaluator, not just the queue *)
    let target = !expected_terminal in
    ignore
      (wait_for ty ~timeout:60.0 (fun () ->
           target - Hashtbl.length ty.terminal <= 24))
  done;
  progress "drain: waiting for the stream to complete";
  let all = !expected_terminal in
  ignore
    (wait_for ty ~timeout:120.0 (fun () -> Hashtbl.length ty.terminal >= all));
  (* the mid-document item pushes travel on the subscriber connections,
     not the publisher's, so "all documents terminal" does not imply
     their writers have drained — wait until the count stops moving *)
  let rec settle last tries =
    Thread.delay 0.05;
    let now = locked ty (fun () -> ty.item_events) in
    if now <> last && tries > 0 then settle now (tries - 1)
  in
  settle (locked ty (fun () -> ty.item_events)) 200;
  (* 7. differential check: unfaulted documents, healthy subscriptions.
     For earliest-mode subscriptions additionally check that the items
     streamed mid-document add up to exactly the final match count — the
     two delivery paths must agree result for result. *)
  progress "verify: differential against the clean oracle";
  let checked = ref 0 in
  let mismatches = ref 0 in
  let item_checked = ref 0 in
  let item_mismatches = ref 0 in
  let examples = ref [] in
  locked ty (fun () ->
      for i = 0 to cfg.docs - 1 do
        match expected.(i) with
        | Some exp when Hashtbl.mem ty.outcomes (doc_id i) ->
          let got =
            Hashtbl.find ty.outcomes (doc_id i)
            |> List.filter (fun (n, _) -> n <> poison_name)
          in
          incr checked;
          let norm l = List.sort compare l in
          if norm exp <> norm got then begin
            incr mismatches;
            if List.length !examples < 5 then
              examples :=
                Printf.sprintf "%s: expected %s, got %s" (doc_id i)
                  (String.concat ","
                     (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) exp))
                  (String.concat ","
                     (List.map (fun (n, k) -> Printf.sprintf "%s=%d" n k) got))
                :: !examples
          end;
          List.iter
            (fun (n, k) ->
              if Hashtbl.mem earliest_names n then begin
                incr item_checked;
                let streamed =
                  Option.value ~default:0
                    (Hashtbl.find_opt ty.item_counts (doc_id i ^ "/" ^ n))
                in
                if streamed <> k then begin
                  incr item_mismatches;
                  if List.length !examples < 5 then
                    examples :=
                      Printf.sprintf "%s/%s: %d items streamed, %d matched"
                        (doc_id i) n streamed k
                      :: !examples
                end
              end)
            got
        | _ -> ()
      done);
  (* 8. final stats + report over the wire *)
  send pub Protocol.Stats;
  send pub Protocol.Report;
  ignore
    (wait_for ty ~timeout:30.0 (fun () ->
         ty.stats_json <> None && ty.report_json <> None));
  let report_json = locked ty (fun () -> ty.report_json) in
  let report_valid, report =
    match report_json with
    | Some rj -> (
      match (Report.validate rj, Report.of_json rj) with
      | Ok (), Ok r -> (true, r)
      | _, Ok r -> (false, r)
      | _, Error _ -> (false, Server.report server))
    | None -> (false, Server.report server)
  in
  (match cfg.report_path with
  | Some path -> Report.write path report
  | None -> ());
  let broker_stats = Broker.stats (Server.broker server) in
  let stat name =
    match List.assoc_opt name broker_stats with
    | Some v -> int_of_float v
    | None -> 0
  in
  let fstat name =
    Option.value ~default:0. (List.assoc_opt name broker_stats)
  in
  (* conservation: the Attrib registry and the broker accumulated the
     same run outcomes through two independent code paths — every count
     must agree exactly (match time up to float summation order) *)
  let totals = Xaos_obs.Attrib.totals () in
  let attrib_errors =
    let errs = ref [] in
    let check name got want =
      if got <> want then
        errs :=
          Printf.sprintf "%s: attrib %d <> pipeline %d" name got want :: !errs
    in
    check "docs" totals.Xaos_obs.Attrib.t_docs (stat "service/run_outcomes");
    check "events" totals.t_events (stat "service/deliveries");
    check "emissions" totals.t_emissions (stat "service/emitted_items");
    check "faults" totals.t_faults
      (stat "service/runs_aborted" + stat "service/runs_failed");
    let want = fstat "service/match_seconds" in
    if abs_float (totals.t_match_s -. want) > 1e-6 *. Float.max 1. want then
      errs :=
        Printf.sprintf "match_s: attrib %.9f <> pipeline %.9f"
          totals.t_match_s want
        :: !errs;
    List.rev !errs
  in
  let flight_stages =
    match Xaos_obs.Flight.last () with
    | Some fl -> Xaos_obs.Flight.span_names fl
    | None -> []
  in
  let completed =
    locked ty (fun () ->
        let n = ref 0 in
        for i = 0 to cfg.docs - 1 do
          if Hashtbl.mem ty.terminal (doc_id i) then incr n
        done;
        !n)
  in
  (* typed event-log accounting: only records carrying a reason code
     count — the gate is on *typed* supervision records, not prose *)
  let log_events = Xaos_obs.Eventlog.events () in
  let count_kind k =
    List.length
      (List.filter
         (fun (e : Xaos_obs.Eventlog.event) -> e.kind = k && e.reason <> None)
         log_events)
  in
  let latency_sections =
    List.filter_map
      (fun (s : Xaos_obs.Histogram.summary) ->
        if s.Xaos_obs.Histogram.s_count > 0 then
          Some s.Xaos_obs.Histogram.s_name
        else None)
      report.Report.service_latency
  in
  let summary =
    locked ty (fun () ->
        { published = cfg.docs - !client_aborts; completed;
          processed = ty.processed; shed = ty.shed;
          displaced = ty.displaced; client_aborts = !client_aborts;
          match_events = ty.match_events;
          item_events = ty.item_events; item_checked = !item_checked;
          item_mismatches = !item_mismatches;
          quarantine_events = ty.quarantine_events;
          readmit_events = ty.readmit_events; sax_faults = ty.sax_faults;
          limit_ends = ty.limit_ends; deadline_ends = ty.deadline_ends;
          quarantined_total = stat "service/quarantined";
          readmitted_total = stat "service/readmitted"; checked = !checked;
          mismatches = !mismatches; mismatch_examples = List.rev !examples;
          overload_seen; crashes = Server.crash_count server; report_valid;
          log_quarantines = count_kind "quarantine";
          log_sheds = count_kind "shed";
          log_readmits = count_kind "readmit";
          log_slow = count_kind "slow-doc";
          slow_docs = stat "service/slow_docs";
          slow_gate = (cfg.slow_ms = Some 0.);
          attrib_subs = totals.Xaos_obs.Attrib.t_subscriptions;
          attrib_errors;
          flight_written = Xaos_obs.Flight.written ();
          flight_gate = cfg.flight_sample > 0;
          flight_stages; latency_sections; report })
  in
  progress "done";
  (* shutdown, not just close: it wakes the reader threads blocked in
     [Unix.read] so they can be joined *)
  List.iter
    (fun fd ->
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    (pub :: poison_conn :: Array.to_list sub_conns);
  List.iter Thread.join readers;
  summary

let healthy s =
  if s.crashes > 0 then
    Error (Printf.sprintf "%d server thread crashes" s.crashes)
  else if s.mismatches > 0 then
    Error
      (Printf.sprintf "%d differential mismatches (e.g. %s)" s.mismatches
         (match s.mismatch_examples with e :: _ -> e | [] -> "?"))
  else if s.completed < s.published then
    Error
      (Printf.sprintf "only %d/%d documents accounted for" s.completed
         s.published)
  else if s.checked = 0 then Error "no differential checks performed"
  else if s.item_checked = 0 then
    Error "no earliest-mode item deliveries verified"
  else if s.item_mismatches > 0 then
    Error
      (Printf.sprintf "%d earliest-mode item/match mismatches (e.g. %s)"
         s.item_mismatches
         (match s.mismatch_examples with e :: _ -> e | [] -> "?"))
  else if not s.overload_seen then
    Error "no overload responses observed (shed + displaced)"
  else if s.quarantined_total = 0 then Error "quarantine never triggered"
  else if s.readmitted_total = 0 then Error "re-admission never triggered"
  else if not s.report_valid then Error "final report failed validation"
  else if s.log_quarantines = 0 then
    Error "no typed quarantine record in the event log"
  else if s.log_sheds = 0 then Error "no typed shed record in the event log"
  else if s.log_readmits = 0 then
    Error "no typed readmit record in the event log"
  else if s.attrib_errors <> [] then
    Error
      ("cost attribution not conserved: "
      ^ String.concat "; " s.attrib_errors)
  else if s.attrib_subs = 0 then Error "no cost accounts registered"
  else if s.slow_gate && (s.slow_docs = 0 || s.log_slow = 0) then
    Error
      (Printf.sprintf
         "slow-document log never triggered (%d broker records, %d typed \
          log records)"
         s.slow_docs s.log_slow)
  else if
    s.flight_gate
    && not
         (List.for_all
            (fun n -> List.mem n s.flight_stages)
            [ "ingress"; "parse"; "dispatch"; "match"; "emission"; "writer" ])
  then
    Error
      (Printf.sprintf "flight recording incomplete (stages: %s)"
         (String.concat ", " s.flight_stages))
  else if
    not
      (List.for_all
         (fun h -> List.mem h s.latency_sections)
         [ "stage/parse"; "stage/dispatch"; "stage/subscription_match";
           "engine/emission" ])
  then
    Error
      (Printf.sprintf "latency histograms incomplete (have: %s)"
         (String.concat ", " s.latency_sections))
  else Ok ()
