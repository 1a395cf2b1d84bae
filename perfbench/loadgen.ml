(* Load generator for the pub/sub workloads, against a separate
   [xaos serve] process.

   One process, two threads: the calling thread sends (publishes and
   churn) and one receiver thread [select]s over the two connections —
   a publisher connection and a subscriber connection that owns every
   subscription. Phase 1 is an open loop at a fixed rate, timed from each
   document's scheduled send instant; phase 2 is a closed loop with a
   fixed in-flight window below the server's ingress high watermark
   (64), whose completion rate is the capacity. Both phases run against
   each of several freshly launched servers in turn. *)

module Json = Xaos_obs.Json

type config = {
  xaos : string;  (** the [xaos] executable *)
  socket : string;  (** socket path prefix, relative to the checkout *)
  serve_args : string list;
  server_log : string;
  workload : Workload.pubsub;
  expect : Oracle.expect array;  (** per pooled document *)
  rate : float;  (** open-loop documents per second *)
  open_s : float;  (** per session *)
  closed_s : float;  (** per session *)
  window : int;  (** closed-loop documents in flight *)
  churn_rate : float;  (** churn subscribe/unsubscribe requests per second *)
  sessions : int;  (** servers launched and measured in turn *)
}

type phase = Warmup | Open | Closed

type doc = {
  pool : int;
  phase : phase;
  scheduled : float;
  mutable sent : float;
  mutable processed : float option;
  mutable frames : int;
  mutable first_frame : float option;
  mutable last_frame : float;
  mutable matches : (string * int) list;
  mutable items : (string * int) list;
  mutable shed : bool;
  mutable bad_end : bool;
  mutable wrong_matches : bool;  (** [processed] reported other match counts *)
  mutable completed : float option;
}

type result = {
  setup_s : float list;  (** one per server launch *)
  latencies : float list;  (** open loop, completed documents, seconds *)
  first_frames : float list;  (** open loop: scheduled send to first result frame *)
  lags : float list;  (** generator lag per open-loop send, seconds *)
  capacity : float list;  (** closed loop: completed documents per second, per server *)
  capacity_bytes : float list;  (** the same in document bytes *)
  verdicts : Measure.doc_verdict list;  (** every published document *)
  item_frames : int;
  server_stats : (string * float) list;  (** the [stats] op after the run *)
  peak_rss_kb : int;
  churn_ops : int;
  anomalies : string list;  (** protocol surprises, each a failed run *)
}

let now = Unix.gettimeofday

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

let send fd line = write_all fd line 0 (String.length line)

let request r = Xaos_service.Protocol.(to_line (request_to_json r))

let connect path deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

(* Line splitter over a connection's byte stream. *)
type reader = { fd : Unix.file_descr; pending : Buffer.t; chunk : Bytes.t }

let reader fd = { fd; pending = Buffer.create 65536; chunk = Bytes.create 65536 }

(* Read what is available and hand over every complete line; [false] at
   end of stream. *)
let pump r on_line =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get r.chunk i = '\n' then begin
        Buffer.add_subbytes r.pending r.chunk !start (i - !start);
        on_line (Buffer.contents r.pending);
        Buffer.clear r.pending;
        start := i + 1
      end
    done;
    Buffer.add_subbytes r.pending r.chunk !start (n - !start);
    true

let field k j = Option.bind (Json.member k j) Json.to_str

let int_field k j = Option.bind (Json.member k j) Json.to_int

(* Launch the server and register every subscription; the time from
   launch to the last [subscribe] acknowledgement is the set-up time. *)
let launch cfg k =
  let socket = Printf.sprintf "%s%d.sock" cfg.socket k in
  let log =
    Unix.openfile cfg.server_log
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let t0 = now () in
  let pid =
    Proc.spawn ~stderr:log cfg.xaos
      ([ "serve"; "--socket"; socket ] @ cfg.serve_args)
  in
  Unix.close log;
  Proc.track pid;
  let deadline = t0 +. 30. in
  let pub = connect socket deadline in
  let sub = connect socket deadline in
  let lines = Buffer.create (1 lsl 16) in
  List.iter
    (fun (s : Workload.subscription) ->
      Buffer.add_string lines
        (request
           (Xaos_service.Protocol.Subscribe
              { name = s.sub_name; query = s.query; earliest = s.earliest })))
    cfg.workload.subs;
  send sub (Buffer.contents lines);
  let want = List.length cfg.workload.subs in
  let acks = ref 0 in
  let r = reader sub in
  while !acks < want do
    if now () > deadline then failwith "set-up: subscribe acknowledgements timed out";
    let alive =
      pump r (fun line ->
          match Json.parse line with
          | Ok j when field "op" j = Some "subscribe" ->
            if Json.member "ok" j = Some (Json.Bool true) then incr acks
            else failwith ("set-up: subscribe refused: " ^ line)
          | _ -> ())
    in
    if not alive then failwith "set-up: server closed the connection"
  done;
  (pid, pub, sub, now () -. t0)

let stop_server pid pub sub =
  (try send pub (request Xaos_service.Protocol.Shutdown)
   with Unix.Unix_error _ -> ());
  let deadline = now () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline -> Unix.sleepf 0.005; wait ()
    | 0, _ -> Unix.kill pid Sys.sigkill; ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait ();
  Proc.live := List.filter (( <> ) pid) !Proc.live;
  Unix.close pub;
  Unix.close sub

let doc_id i = "d" ^ string_of_int i

let warmup_docs = 3

let doc_index id =
  if String.length id > 1 && id.[0] = 'd' then
    int_of_string_opt (String.sub id 1 (String.length id - 1))
  else None

(* One server, launched, loaded through both phases, stopped. *)
let session cfg k =
  let pid, pub, sub, setup_s = launch cfg k in
  let w = cfg.workload and expect = cfg.expect in
  let pool = Array.length w.docs in
  let mu = Mutex.create () and done_cv = Condition.create () in
  let docs : (int, doc) Hashtbl.t = Hashtbl.create 4096 in
  let inflight = ref 0 in
  let stats = ref None in
  let anomalies = ref [] in
  let item_frames = ref 0 in
  let stop = ref false in
  let anomaly s = if List.length !anomalies < 20 then anomalies := s :: !anomalies in
  let complete d t =
    if d.completed = None then begin
      d.completed <- Some t;
      decr inflight;
      Condition.broadcast done_cv
    end
  in
  let check_done d =
    match d.processed with
    | Some p when d.frames >= expect.(d.pool).frames ->
      complete d (Float.max p d.last_frame)
    | _ -> ()
  in
  let exempt name = name = "" || name.[0] <> 's' in
  let on_frame j =
    let t = now () in
    Mutex.lock mu;
    (match field "event" j with
    | Some "processed" -> (
      match Option.bind (field "id" j) doc_index with
      | Some i when Hashtbl.mem docs i ->
        let d = Hashtbl.find docs i in
        let e = expect.(d.pool) in
        let strs k =
          match Option.bind (Json.member k j) Json.to_list with
          | Some l -> List.sort compare (List.filter_map Json.to_str l)
          | None -> []
        in
        let limit = field "limit" j in
        let failed =
          match Option.bind (Json.member "failed" j) Json.to_obj with
          | Some (_ :: _) -> true
          | _ -> false
        in
        let aborted = List.filter (fun n -> not (exempt n)) (strs "aborted") in
        if Json.member "deadline" j = Some (Json.Bool true) || limit <> e.limit
           || aborted <> e.aborted || failed
        then d.bad_end <- true;
        (* the server's own match counts: when they differ from the
           oracle, the frames cannot make up for it, so the document is
           done (and failed) now rather than after the drain *)
        let matches =
          match Option.bind (Json.member "matches" j) Json.to_obj with
          | Some kv ->
            List.filter_map
              (fun (n, c) ->
                if exempt n then None
                else Some (n, Option.value (Json.to_int c) ~default:(-1)))
              kv
            |> List.sort compare
          | None -> []
        in
        d.processed <- Some t;
        if matches <> e.matches then begin
          d.wrong_matches <- true;
          complete d t
        end
        else check_done d
      | _ -> anomaly "processed frame for an unknown document")
    | Some (("match" | "item") as kind) -> (
      let name = Option.value (field "name" j) ~default:"" in
      if not (exempt name) then
        match Option.bind (field "id" j) doc_index with
        | Some i when Hashtbl.mem docs i ->
          let d = Hashtbl.find docs i in
          d.frames <- d.frames + 1;
          if d.first_frame = None then d.first_frame <- Some t;
          d.last_frame <- t;
          (if kind = "item" then begin
             incr item_frames;
             d.items <-
               (name, Option.value (int_field "item_id" j) ~default:(-1))
               :: d.items
           end
           else
             d.matches <-
               (name, Option.value (int_field "count" j) ~default:(-1))
               :: d.matches);
          check_done d
        | _ -> anomaly (kind ^ " frame for an unknown document"))
    | Some (("quarantine" | "readmit") as kind) ->
      let name = Option.value (field "name" j) ~default:"" in
      if not (exempt name) then anomaly (kind ^ " of " ^ name)
    | Some other -> anomaly ("unexpected event " ^ other)
    | None -> (
      match field "op" j with
      | Some "publish" when Json.member "ok" j = Some (Json.Bool false) -> (
        match Option.bind (field "id" j) doc_index with
        | Some i when Hashtbl.mem docs i ->
          let d = Hashtbl.find docs i in
          d.shed <- true;
          complete d t
        | _ -> anomaly "overload for an unknown document")
      | Some ("subscribe" | "unsubscribe") ->
        if Json.member "ok" j <> Some (Json.Bool true) then
          anomaly ("churn refused: " ^ Json.to_string ~indent:false j)
      | Some "stats" ->
        stats :=
          Some
            (match Option.bind (Json.member "stats" j) Json.to_obj with
            | Some kv ->
              List.filter_map
                (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
                kv
            | None -> []);
        Condition.broadcast done_cv
      | _ -> ()));
    Mutex.unlock mu
  in
  let on_line line =
    match Json.parse line with
    | Ok j -> on_frame j
    | Error e ->
      Mutex.lock mu;
      anomaly ("unparsable frame: " ^ e);
      Mutex.unlock mu
  in
  let receiver () =
    let readers = [ reader pub; reader sub ] in
    let open_fds = ref (List.map (fun r -> r.fd) readers) in
    while (not !stop) && !open_fds <> [] do
      match Unix.select !open_fds [] [] 0.05 with
      | [], _, _ ->
        (* a stalled server sends nothing: wake the sender anyway so its
           clock-driven loop keeps going *)
        Mutex.lock mu;
        Condition.broadcast done_cv;
        Mutex.unlock mu
      | ready, _, _ ->
        List.iter
          (fun r ->
            if List.memq r.fd ready && not (pump r on_line) then
              open_fds := List.filter (fun fd -> fd != r.fd) !open_fds)
          readers
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let rx = Thread.create receiver () in
  let next_id = ref 0 in
  let publish phase scheduled =
    let i = !next_id in
    incr next_id;
    let p = i mod pool in
    let d =
      { pool = p; phase; scheduled; sent = 0.; processed = None; frames = 0;
        first_frame = None; last_frame = 0.; matches = []; items = [];
        shed = false; bad_end = false; wrong_matches = false; completed = None }
    in
    Mutex.lock mu;
    Hashtbl.replace docs i d;
    incr inflight;
    Mutex.unlock mu;
    let line =
      request (Xaos_service.Protocol.Publish { doc_id = doc_id i; priority = 0; doc = w.docs.(p) })
    in
    d.sent <- now ();
    send pub line
  in
  (* churn: even ticks subscribe c<k>, odd ticks unsubscribe it again *)
  let churn_ops = ref 0 in
  let churn_origin = now () in
  let churn_due t =
    if cfg.churn_rate > 0. then
      while churn_origin +. (float_of_int !churn_ops /. cfg.churn_rate) <= t do
        let k = !churn_ops / 2 in
        let name = "c" ^ string_of_int k in
        let req =
          if !churn_ops land 1 = 0 then
            Xaos_service.Protocol.Subscribe
              { name; query = w.churn.(k mod Array.length w.churn);
                earliest = k land 1 = 1 }
          else Xaos_service.Protocol.Unsubscribe { name }
        in
        send sub (request req);
        incr churn_ops
      done
  in
  let rec sleep_until t =
    let dt = t -. now () in
    if dt > 0. then begin
      Unix.sleepf (Float.min dt 0.005);
      churn_due (now ());
      sleep_until t
    end
  in
  let drain deadline =
    Mutex.lock mu;
    while !inflight > 0 && now () < deadline do
      Mutex.unlock mu;
      Unix.sleepf 0.002;
      churn_due (now ());
      Mutex.lock mu
    done;
    Mutex.unlock mu
  in
  (* warm-up: the first documents after launch pay one-off costs (the
     compaction plan, heap growth); untimed, but oracle-checked. Timed,
     they were the slowest ten samples of a ten-server run, right at the
     rank the tail percentile reads. *)
  for _ = 1 to warmup_docs do
    publish Warmup (now ())
  done;
  drain (now () +. 10.);
  (* phase 1: open loop *)
  let t_open = now () in
  let n_open = int_of_float (cfg.rate *. cfg.open_s) in
  for i = 0 to n_open - 1 do
    let scheduled = t_open +. (float_of_int i /. cfg.rate) in
    sleep_until scheduled;
    publish Open scheduled
  done;
  (* let the open-loop documents finish before the closed loop starts *)
  drain (now () +. 10.);
  (* phase 2: closed loop *)
  let t_closed = now () in
  let t_end = t_closed +. cfg.closed_s in
  while now () < t_end do
    churn_due (now ());
    Mutex.lock mu;
    let room = !inflight < cfg.window in
    Mutex.unlock mu;
    if room then publish Closed (now ())
    else begin
      Mutex.lock mu;
      if !inflight >= cfg.window then Condition.wait done_cv mu;
      Mutex.unlock mu
    end
  done;
  drain (now () +. 10.);
  (* server-side counters and memory, then a clean stop *)
  send pub (request Xaos_service.Protocol.Stats);
  let deadline = now () +. 10. in
  Mutex.lock mu;
  while !stats = None && now () < deadline do
    Mutex.unlock mu;
    Unix.sleepf 0.002;
    Mutex.lock mu
  done;
  Mutex.unlock mu;
  let peak_rss_kb = Option.value (Proc.vm_hwm_kb pid) ~default:0 in
  stop := true;
  Thread.join rx;
  stop_server pid pub sub;
  (* verdicts, against the oracle *)
  let all = Hashtbl.fold (fun i d acc -> (i, d) :: acc) docs [] in
  let all = List.sort compare all |> List.map snd in
  let group items =
    let names = List.sort_uniq compare (List.map fst items) in
    List.map
      (fun n ->
        (n, List.sort compare (List.filter_map
                                 (fun (m, id) -> if m = n then Some id else None)
                                 items)))
      names
  in
  let verdict d =
    let e = expect.(d.pool) in
    Measure.verdict
      { refused = d.shed;
        processed = d.processed <> None;
        completed = d.completed <> None;
        bad_end = d.bad_end;
        same_output =
          (not d.wrong_matches)
          && d.frames = e.frames
          && List.sort compare d.matches = e.matches
          && group d.items = List.sort compare e.items }
  in
  let verdicts = List.map verdict all in
  let ok d v = d.completed <> None && not (Measure.failed v) in
  let open_ok =
    List.filter_map
      (fun (d, v) -> if d.phase = Open && ok d v then Some d else None)
      (List.combine all verdicts)
  in
  let timed d =
    { Measure.scheduled = d.scheduled; sent = d.sent; completed = d.completed }
  in
  let latencies = List.filter_map (fun d -> Measure.latency (timed d)) open_ok in
  let lags =
    List.filter_map
      (fun d -> if d.phase = Open then Some (Measure.lag (timed d)) else None)
      all
  in
  let first_frames =
    List.filter_map
      (fun d -> Option.map (fun t -> t -. d.scheduled) d.first_frame)
      open_ok
  in
  let rate weight =
    Measure.rate ~origin:t_closed ~seconds:cfg.closed_s
      (List.filter_map
         (fun d ->
           if d.phase = Closed then Option.map (fun t -> (t, weight d)) d.completed
           else None)
         all)
  in
  let capacity = rate (fun _ -> 1.) in
  Printf.eprintf "server %d: set-up %.3f s, %d documents, capacity %.1f docs/s\n%!"
    k setup_s (List.length all) capacity;
  { setup_s = [ setup_s ];
    latencies; first_frames; lags;
    capacity = [ capacity ];
    capacity_bytes = [ rate (fun d -> float_of_int (String.length w.docs.(d.pool))) ];
    verdicts; item_frames = !item_frames;
    server_stats = Option.value !stats ~default:[];
    peak_rss_kb; churn_ops = !churn_ops;
    anomalies = List.rev !anomalies }

(* [cfg.sessions] servers in turn, each launched fresh. A server keeps
   one speed through its life, but the speed differs between launches by
   up to a third (two modes, about 130 and 175 documents/s on
   pubsub-fanout on a 2-core VM), so a run samples many launches and
   averages them. Latency samples are pooled; counters are summed;
   memory is the largest. The first server with a failed document or an
   anomaly ends the run: the run has failed, and each further server
   could spend its drains waiting for output that never comes. *)
let run cfg =
  let rec sessions k acc =
    if k = cfg.sessions then List.rev acc
    else
      let p = session cfg k in
      if p.anomalies <> [] || List.exists Measure.failed p.verdicts then
        List.rev (p :: acc)
      else sessions (k + 1) (p :: acc)
  in
  let parts = sessions 0 [] in
  let cat f = List.concat_map f parts in
  let sum_stats =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (k, v) ->
            (k, v +. Option.value (List.assoc_opt k acc) ~default:0.)
            :: List.remove_assoc k acc)
          acc p.server_stats)
      [] parts
  in
  { setup_s = cat (fun p -> p.setup_s);
    latencies = cat (fun p -> p.latencies);
    first_frames = cat (fun p -> p.first_frames);
    lags = cat (fun p -> p.lags);
    capacity = cat (fun p -> p.capacity);
    capacity_bytes = cat (fun p -> p.capacity_bytes);
    verdicts = cat (fun p -> p.verdicts);
    item_frames = List.fold_left (fun n p -> n + p.item_frames) 0 parts;
    server_stats = sum_stats;
    peak_rss_kb = List.fold_left (fun n p -> max n p.peak_rss_kb) 0 parts;
    churn_ops = List.fold_left (fun n p -> n + p.churn_ops) 0 parts;
    anomalies = cat (fun p -> p.anomalies) }
