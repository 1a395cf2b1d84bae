module Json = Xaos_obs.Json
module Telemetry = Xaos_obs.Telemetry
module Report = Xaos_obs.Report
module Histogram = Xaos_obs.Histogram
module Eventlog = Xaos_obs.Eventlog
module Expose = Xaos_obs.Expose
module Attrib = Xaos_obs.Attrib
module Flight = Xaos_obs.Flight

type config = {
  socket_path : string;
  high_watermark : int;
  low_watermark : int;
  out_queue : int;
  write_timeout_s : float;
  max_line_bytes : int;
  broker : Broker.config;
}

let default_config socket_path =
  { socket_path; high_watermark = 64; low_watermark = 16; out_queue = 1024;
    write_timeout_s = 5.0; max_line_bytes = 8 * 1024 * 1024;
    broker = Broker.default_config }

type out_entry = {
  ol_line : string;
  ol_stamp : float;
      (** enqueue stamp; 0. while telemetry is off, otherwise feeds the
          writer-queue-wait histogram *)
  ol_notify : (unit -> unit) option;
      (** fired exactly once when the entry leaves the queue — after the
          write, on a full-queue drop, or during teardown drain; the
          evaluator hangs the flight-recording finish on it so the
          [writer] span covers the real write *)
}

type client = {
  cid : int;
  fd : Unix.file_descr;
  out_mu : Mutex.t;
  out_cond : Condition.t;
  out : out_entry Queue.t;
  mutable out_closed : bool;
}

type pending = {
  p_doc_id : string;
  p_doc : string;
  p_client : client;
  p_enqueued_at : float;
      (** admission stamp (0. while telemetry is off); feeds the
          ingress-queue-wait histogram when the evaluator picks it up *)
}

type t = {
  config : config;
  brk : Broker.t;
  ingress : pending Ingress.t;
  listen_fd : Unix.file_descr;
  mu : Mutex.t;  (** clients, owners, lifecycle flags, counters *)
  finished : Condition.t;
  mutable clients : client list;
  owners : (string, client) Hashtbl.t;
  mutable next_cid : int;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable acceptor : Thread.t option;
  mutable evaluator : Thread.t option;
  mutable crashes : int;
  mutable dropped : int;  (** responses dropped on full client queues *)
  mutable conn_total : int;
}

let counter_shed = Telemetry.counter "xaos_service_shed_total"
let counter_displaced = Telemetry.counter "xaos_service_displaced_total"
let counter_dropped = Telemetry.counter "xaos_service_dropped_responses_total"
let counter_crashes = Telemetry.counter "xaos_service_thread_crashes_total"
let gauge_connections = Telemetry.gauge "xaos_service_connections"
let gauge_queue = Telemetry.gauge "xaos_service_ingress_queue"

let hist_ingress_wait =
  Histogram.create ~unit_:"s" ~scale:1e-6
    ~help:"time a document waited in the ingress queue before evaluation"
    "stage/ingress_wait"

let hist_writer_wait =
  Histogram.create ~unit_:"s" ~scale:1e-6
    ~help:"time a response waited in a client out-queue before the write"
    "stage/writer_wait"

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* a thread body that records instead of propagating: one misbehaving
   connection (or a bug) must never take the process down *)
let guarded t f () =
  try f () with
  | Thread.Exit -> ()
  | exn ->
    Eventlog.record ~level:Eventlog.Error ~kind:"crash"
      ~reason:Eventlog.Thread_crash
      ~detail:[ ("exn", Json.String (Printexc.to_string exn)) ]
      "thread";
    with_lock t @@ fun () ->
    t.crashes <- t.crashes + 1;
    Telemetry.incr counter_crashes

(* {1 Per-client output: bounded queue + writer thread} *)

let fire_notify = function Some f -> (try f () with _ -> ()) | None -> ()

let enqueue ?notify t c line =
  let stamp = if Telemetry.enabled () then Telemetry.now () else 0. in
  Mutex.lock c.out_mu;
  let dropped =
    if c.out_closed then true
    else if Queue.length c.out >= t.config.out_queue then true
    else begin
      Queue.push { ol_line = line; ol_stamp = stamp; ol_notify = notify } c.out;
      Condition.signal c.out_cond;
      false
    end
  in
  let was_closed = c.out_closed in
  Mutex.unlock c.out_mu;
  if dropped then begin
    fire_notify notify;
    if not was_closed then begin
      with_lock t (fun () -> t.dropped <- t.dropped + 1);
      Telemetry.incr counter_dropped;
      Eventlog.record ~level:Eventlog.Warn ~kind:"drop"
        ~reason:Eventlog.Out_queue_full
        ("client-" ^ string_of_int c.cid)
    end
  end

let send ?notify t c json = enqueue ?notify t c (Protocol.to_line json)

(* empty the out-queue and fire the orphaned notifies: queue entries
   must not hold a flight recording open past the connection's death *)
let drain_notifies c =
  Mutex.lock c.out_mu;
  let entries = Queue.fold (fun acc e -> e :: acc) [] c.out in
  Queue.clear c.out;
  Mutex.unlock c.out_mu;
  List.iter (fun e -> fire_notify e.ol_notify) entries

(* Invoked concurrently from the reader (EOF), the writer (write error)
   and [stop]; removal from [t.clients] elects the single caller that
   tears the connection down. Everyone else is a no-op — in particular
   nobody closes [c.fd] twice, which could hit a recycled descriptor
   number belonging to a newer connection. *)
let close_client t c =
  let first =
    with_lock t @@ fun () ->
    if List.memq c t.clients then begin
      t.clients <- List.filter (fun c' -> c' != c) t.clients;
      Telemetry.set_gauge gauge_connections (List.length t.clients);
      let owned =
        Hashtbl.fold
          (fun name owner acc -> if owner == c then name :: acc else acc)
          t.owners []
      in
      List.iter (Hashtbl.remove t.owners) owned;
      Some owned
    end
    else None
  in
  match first with
  | None -> ()
  | Some owned ->
    (* subscriptions die with their connection *)
    List.iter (fun name -> ignore (Broker.unsubscribe t.brk ~name)) owned;
    Mutex.lock c.out_mu;
    c.out_closed <- true;
    Condition.broadcast c.out_cond;
    Mutex.unlock c.out_mu;
    (* shutdown wakes the connection's blocked reader thread; close alone
       would leave it parked in [Unix.read] forever *)
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    drain_notifies c

(* A socket call interrupted by a signal is retried, never taken for a
   dead peer: with SO_SNDTIMEO set, Linux fails a blocked send with
   EINTR even after a bare SIGSTOP/SIGCONT (signal(7)), and dropping the
   connection would unsubscribe a healthy client. *)
let rec restart_on_eintr f x =
  try f x with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f x

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then begin
      let n = restart_on_eintr (Unix.write fd b off) (len - off) in
      go (off + n)
    end
  in
  go 0

let writer_loop t c () =
  let rec loop () =
    Mutex.lock c.out_mu;
    let rec next () =
      if c.out_closed then None
      else if Queue.is_empty c.out then begin
        Condition.wait c.out_cond c.out_mu;
        next ()
      end
      else Some (Queue.pop c.out)
    in
    let entry = next () in
    Mutex.unlock c.out_mu;
    match entry with
    | None -> ()
    | Some e ->
      if e.ol_stamp > 0. then
        Histogram.record_seconds hist_writer_wait
          (Telemetry.now () -. e.ol_stamp);
      (* SO_SNDTIMEO turns a stalled consumer into EAGAIN here *)
      (match write_all c.fd e.ol_line with
      | () ->
        fire_notify e.ol_notify;
        loop ()
      | exception Unix.Unix_error _ ->
        fire_notify e.ol_notify;
        close_client t c)
  in
  loop ()

(* {1 Request handling} *)

let stats t =
  Broker.stats t.brk
  @ (with_lock t @@ fun () ->
     let f = float_of_int in
     [ ("ingress/queue", f (Ingress.length t.ingress));
       ("ingress/shed", f (Ingress.shed_count t.ingress));
       ("ingress/displaced", f (Ingress.displaced_count t.ingress));
       ("ingress/overload_entries", f (Ingress.overload_entries t.ingress));
       ("server/connections", f (List.length t.clients));
       ("server/connections_total", f t.conn_total);
       ("server/dropped_responses", f t.dropped);
       ("server/thread_crashes", f t.crashes) ])

let report t =
  let broker_stats = Broker.stats t.brk in
  let extra =
    List.filter (fun (k, _) -> not (List.mem_assoc k broker_stats)) (stats t)
  in
  Broker.report ~extra_stats:extra t.brk

let rec handle_request t c req =
  match req with
  | Protocol.Subscribe { name; query; earliest } -> (
    match Broker.subscribe ~earliest t.brk ~name ~query with
    | Ok () ->
      with_lock t (fun () -> Hashtbl.replace t.owners name c);
      send t c (Protocol.ok ~op:"subscribe" [ ("name", Json.String name) ])
    | Error e -> send t c (Protocol.error ~op:"subscribe" e))
  | Protocol.Unsubscribe { name } ->
    let known = Broker.unsubscribe t.brk ~name in
    with_lock t (fun () -> Hashtbl.remove t.owners name);
    if known then
      send t c (Protocol.ok ~op:"unsubscribe" [ ("name", Json.String name) ])
    else send t c (Protocol.error ~op:"unsubscribe" ("unknown: " ^ name))
  | Protocol.Publish { doc_id; priority; doc } -> (
    let verdict =
      Ingress.offer t.ingress ~priority
        { p_doc_id = doc_id; p_doc = doc; p_client = c;
          p_enqueued_at =
            (if Telemetry.enabled () || Flight.active () then Telemetry.now ()
             else 0.) }
    in
    Telemetry.set_gauge gauge_queue (Ingress.length t.ingress);
    match verdict with
    | Ingress.Accepted ->
      send t c
        (Protocol.ok ~op:"publish"
           [ ("id", Json.String doc_id); ("queued", Json.Bool true) ])
    | Ingress.Shed_incoming ->
      Telemetry.incr counter_shed;
      Eventlog.record ~level:Eventlog.Warn ~kind:"shed"
        ~reason:Eventlog.Queue_full
        ~detail:[ ("priority", Json.Int priority) ]
        doc_id;
      send t c (Protocol.overload ~doc_id ~shed:`Incoming)
    | Ingress.Displaced victim ->
      Telemetry.incr counter_displaced;
      Eventlog.record ~level:Eventlog.Warn ~kind:"displace"
        ~reason:Eventlog.Displaced
        ~detail:[ ("by", Json.String doc_id) ]
        victim.p_doc_id;
      send t c
        (Protocol.ok ~op:"publish"
           [ ("id", Json.String doc_id); ("queued", Json.Bool true) ]);
      send t victim.p_client
        (Protocol.overload ~doc_id:victim.p_doc_id ~shed:(`Displaced doc_id)))
  | Protocol.Stats ->
    let fields = List.map (fun (k, v) -> (k, Json.Float v)) (stats t) in
    send t c (Protocol.ok ~op:"stats" [ ("stats", Json.Obj fields) ])
  | Protocol.Metrics ->
    send t c
      (Protocol.ok ~op:"metrics"
         [ ("metrics", Json.String (Expose.render ())) ])
  | Protocol.Profile { top_n; by } -> (
    match Attrib.order_of_string by with
    | None -> send t c (Protocol.error ~op:"profile" ("unknown order: " ^ by))
    | Some order ->
      send t c
        (Protocol.ok ~op:"profile"
           [ ("enabled", Json.Bool (Attrib.enabled ()));
             ("by", Json.String (Attrib.order_name order));
             ("totals", Attrib.totals_to_json (Attrib.totals ()));
             ("top",
              Json.List
                (List.map Attrib.snapshot_to_json
                   (Attrib.top ~by:order top_n))) ]))
  | Protocol.Slowlog { max } ->
    let slow =
      Broker.slow_docs t.brk |> List.filteri (fun i _ -> i < max)
    in
    send t c
      (Protocol.ok ~op:"slowlog"
         [ ("count", Json.Int (List.length slow));
           ("slow", Json.List (List.map Broker.slow_doc_to_json slow)) ])
  | Protocol.Stats_stream { interval_s; count } ->
    send t c
      (Protocol.ok ~op:"stats-stream"
         [ ("interval_s", Json.Float interval_s);
           ("count",
            match count with Some n -> Json.Int n | None -> Json.Null) ]);
    ignore
      (Thread.create (guarded t (stats_stream_loop t c ~interval_s ~count)) ())
  | Protocol.Report ->
    send t c
      (Protocol.ok ~op:"report"
         [ ("report", Report.to_json (report t)) ])
  | Protocol.Shutdown ->
    send t c (Protocol.ok ~op:"shutdown" []);
    stop t

(* {1 Stats streaming: one pusher thread per subscribed connection} *)

(* Pushes a ["stats"] event every [interval_s] seconds until [count]
   snapshots are out, the connection closes, or the server stops. A
   slow consumer costs nothing extra: snapshots land in the same
   bounded out-queue as everything else and are dropped like any other
   response when it is full. *)
and stats_stream_loop t c ~interval_s ~count () =
  let started = Unix.gettimeofday () in
  let closed () =
    Mutex.lock c.out_mu;
    let v = c.out_closed in
    Mutex.unlock c.out_mu;
    v || with_lock t (fun () -> t.stopping)
  in
  let rec go seq =
    if not (closed ()) then begin
      let fields = List.map (fun (k, v) -> (k, Json.Float v)) (stats t) in
      let quarantined =
        List.map
          (fun (name, reason, release) ->
            Json.Obj
              [ ("name", Json.String name);
                ("reason", Json.String reason);
                ("release_tick", Json.Int release) ])
          (Broker.quarantined t.brk)
      in
      let top_costs =
        if Attrib.enabled () then
          [ ( "top_costs",
              Json.List
                (List.map Attrib.snapshot_to_json
                   (Attrib.top ~by:Attrib.By_match_s 5)) ) ]
        else []
      in
      send t c
        (Protocol.event ~kind:"stats"
           ([ ("seq", Json.Int seq);
              ("elapsed_s", Json.Float (Unix.gettimeofday () -. started));
              ("stats", Json.Obj fields);
              ("quarantined", Json.List quarantined) ]
           @ top_costs));
      let more =
        match count with Some n -> seq + 1 < n | None -> true
      in
      if more then begin
        Thread.delay interval_s;
        go (seq + 1)
      end
    end
  in
  go 0

(* {1 Reader: line framing over a streaming socket} *)

and reader_loop t c () =
  let chunk = Bytes.create 65536 in
  (* [acc] holds only the partial line carried over from earlier reads:
     complete lines are cut straight out of [chunk], so a read copies
     each line once and never the whole backlog. *)
  let acc = Buffer.create 4096 in
  let handle_line line =
    if String.trim line <> "" then begin
      match Protocol.request_of_line line with
      | Ok req -> handle_request t c req
      | Error e -> send t c (Protocol.error ~op:"parse" e)
    end
  in
  let rec newline_in i n =
    if i >= n then -1
    else if Char.equal (Bytes.unsafe_get chunk i) '\n' then i
    else newline_in (i + 1) n
  in
  let rec process_lines start n =
    let nl = newline_in start n in
    if nl < 0 then Buffer.add_subbytes acc chunk start (n - start)
    else begin
      let line =
        if Buffer.length acc = 0 then Bytes.sub_string chunk start (nl - start)
        else begin
          Buffer.add_subbytes acc chunk start (nl - start);
          let line = Buffer.contents acc in
          Buffer.clear acc;
          line
        end
      in
      handle_line line;
      process_lines (nl + 1) n
    end
  in
  (* A partial line may legitimately span many reads (a client is free
     to write one byte at a time), but it may not grow without bound:
     past [max_line_bytes] the connection fails closed — a typed event,
     an error response, then teardown — rather than buffer a rogue
     frame until the process dies, and rather than "recover" by parsing
     a truncated prefix as if it were the whole request. *)
  let overflow () =
    Eventlog.record ~level:Eventlog.Warn ~kind:"frame"
      ~reason:Eventlog.Line_too_long
      ~detail:[ ("bytes", Json.Int (Buffer.length acc)) ]
      ("client-" ^ string_of_int c.cid);
    send t c
      (Protocol.error ~op:"parse"
         (Printf.sprintf "line exceeds %d bytes" t.config.max_line_bytes));
    (* best effort: give the writer a moment to flush the refusal
       before [close_client] wakes it with [out_closed] *)
    let deadline = Unix.gettimeofday () +. 1.0 in
    let rec drain () =
      Mutex.lock c.out_mu;
      let empty = Queue.is_empty c.out || c.out_closed in
      Mutex.unlock c.out_mu;
      if (not empty) && Unix.gettimeofday () < deadline then begin
        Thread.delay 0.01;
        drain ()
      end
    in
    drain ()
  in
  let rec loop () =
    match restart_on_eintr (Unix.read c.fd chunk 0) (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      process_lines 0 n;
      if Buffer.length acc > t.config.max_line_bytes then overflow ()
      else loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  close_client t c

(* {1 Evaluator: the only thread that runs documents} *)

and process_pending t p =
  Telemetry.set_gauge gauge_queue (Ingress.length t.ingress);
  let pickup = Telemetry.now () in
  if p.p_enqueued_at > 0. then
    Histogram.record_seconds hist_ingress_wait (pickup -. p.p_enqueued_at);
  (* flight recording: started for every document while the recorder is
     active; the keep/discard decision is Flight's at finish time *)
  let fl =
    if Flight.active () then Some (Flight.start ~doc_id:p.p_doc_id) else None
  in
  (match fl with
  | Some fl when p.p_enqueued_at > 0. ->
    Flight.span fl ~name:"ingress" ~start:p.p_enqueued_at ~stop:pickup ()
  | _ -> ());
  (* mid-document result push for earliest-mode subscriptions: the
     broker calls this from the evaluation thread the moment an element
     is decided, so the owning connection sees each result while the
     document is still streaming.  Looking up the owner takes [t.mu]
     while the broker holds its own lock; that nesting is one-way (no
     path acquires the broker lock while holding [t.mu] — [close_client]
     releases it before unsubscribing), so it cannot deadlock. *)
  let on_item ~name (item : Xaos_core.Item.t) =
    match with_lock t (fun () -> Hashtbl.find_opt t.owners name) with
    | Some oc ->
      send t oc
        (Protocol.event ~kind:"item"
           [ ("id", Json.String p.p_doc_id); ("name", Json.String name);
             ("item_id", Json.Int item.id);
             ("tag", Json.String (Xaos_core.Item.tag item));
             ("level", Json.Int item.level) ])
    | None -> ()
  in
  let o = Broker.publish ~on_item ?flight:fl t.brk ~doc_id:p.p_doc_id p.p_doc in
  (* the recording closes from the writer thread, after the processed
     event reaches the wire, so the [writer] span covers the real
     write-back; the notify also fires on drop/teardown, so the
     recording can never leak *)
  let notify =
    match fl with
    | None -> None
    | Some fl ->
      let wstart = Telemetry.now () in
      Some
        (fun () ->
          Flight.span fl ~name:"writer" ~start:wstart
            ~stop:(Telemetry.now ()) ();
          ignore (Flight.finish fl))
  in
  send ?notify t p.p_client
    (Protocol.event ~kind:"processed"
       [ ("id", Json.String o.doc_id); ("tick", Json.Int o.tick);
         ("events", Json.Int o.events); ("faults", Json.Int o.faults);
         ("deadline", Json.Bool o.deadline_hit);
         ("limit",
          match o.limit_hit with
          | Some k -> Json.String k
          | None -> Json.Null);
         ("matches",
          Json.Obj (List.map (fun (n, k) -> (n, Json.Int k)) o.matches));
         ("aborted",
          Json.List (List.map (fun n -> Json.String n) o.aborted));
         ("failed",
          Json.Obj (List.map (fun (n, m) -> (n, Json.String m)) o.failed));
         ("quarantined",
          Json.List
            (List.map (fun (n, _) -> Json.String n) o.quarantined_now));
         ("readmitted",
          Json.List (List.map (fun n -> Json.String n) o.readmitted)) ]);
  let owner name = with_lock t (fun () -> Hashtbl.find_opt t.owners name) in
  List.iter
    (fun (name, count) ->
      match owner name with
      | Some oc ->
        send t oc
          (Protocol.event ~kind:"match"
             [ ("id", Json.String o.doc_id); ("name", Json.String name);
               ("count", Json.Int count) ])
      | None -> ())
    o.matches;
  List.iter
    (fun (name, reason) ->
      match owner name with
      | Some oc ->
        send t oc
          (Protocol.event ~kind:"quarantine"
             [ ("name", Json.String name); ("reason", Json.String reason) ])
      | None -> ())
    o.quarantined_now;
  List.iter
    (fun name ->
      match owner name with
      | Some oc ->
        send t oc
          (Protocol.event ~kind:"readmit" [ ("name", Json.String name) ])
      | None -> ())
    o.readmitted

(* each document is guarded individually: an exception escaping one
   evaluation is counted as a crash but must not end the loop, or the
   service would accept connections yet never process another document *)
and evaluator_loop t () =
  let rec loop () =
    match Ingress.take t.ingress with
    | None -> ()
    | Some p ->
      (try process_pending t p with
      | Thread.Exit -> raise Thread.Exit
      | exn ->
        Eventlog.record ~level:Eventlog.Error ~kind:"crash"
          ~reason:Eventlog.Thread_crash
          ~detail:[ ("exn", Json.String (Printexc.to_string exn)) ]
          p.p_doc_id;
        with_lock t (fun () -> t.crashes <- t.crashes + 1);
        Telemetry.incr counter_crashes);
      loop ()
  in
  loop ()

(* {1 Lifecycle} *)

and accept_loop t () =
  let rec loop () =
    match restart_on_eintr (fun fd -> Unix.accept fd) t.listen_fd with
    | exception Unix.Unix_error _ -> ()  (* listener closed: stopping *)
    | fd, _ ->
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.config.write_timeout_s;
      let c =
        with_lock t @@ fun () ->
        let c =
          { cid = t.next_cid; fd; out_mu = Mutex.create ();
            out_cond = Condition.create (); out = Queue.create ();
            out_closed = false }
        in
        t.next_cid <- t.next_cid + 1;
        t.conn_total <- t.conn_total + 1;
        t.clients <- c :: t.clients;
        Telemetry.set_gauge gauge_connections (List.length t.clients);
        c
      in
      ignore (Thread.create (guarded t (reader_loop t c)) ());
      ignore (Thread.create (guarded t (writer_loop t c)) ());
      loop ()
  in
  loop ()

and stop t =
  let threads =
    with_lock t @@ fun () ->
    if t.stopping then []
    else begin
      t.stopping <- true;
      [ t.acceptor; t.evaluator ]
    end
  in
  if threads <> [] then begin
    (* shutdown wakes the acceptor blocked in [Unix.accept]; closing the
       descriptor alone does not *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with
    | Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    Ingress.close t.ingress;
    let self = Thread.id (Thread.self ()) in
    List.iter
      (function
        | Some th when Thread.id th <> self -> Thread.join th
        | _ -> ())
      threads;
    let clients = with_lock t (fun () -> t.clients) in
    List.iter (close_client t) clients;
    (try Unix.unlink t.config.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
    with_lock t @@ fun () ->
    t.stopped <- true;
    Condition.broadcast t.finished
  end

let start config =
  (* a dead client mid-write must be an EPIPE error, not a fatal signal *)
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink config.socket_path with
  | Unix.Unix_error _ | Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let t =
    { config; brk = Broker.create ~config:config.broker ();
      ingress =
        Ingress.create ~low:config.low_watermark ~high:config.high_watermark
          ();
      listen_fd; mu = Mutex.create (); finished = Condition.create ();
      clients = []; owners = Hashtbl.create 64; next_cid = 0;
      stopping = false; stopped = false; acceptor = None; evaluator = None;
      crashes = 0; dropped = 0; conn_total = 0 }
  in
  t.acceptor <- Some (Thread.create (guarded t (accept_loop t)) ());
  t.evaluator <- Some (Thread.create (guarded t (evaluator_loop t)) ());
  t

let broker t = t.brk

let wait t =
  with_lock t @@ fun () ->
  while not t.stopped do
    Condition.wait t.finished t.mu
  done

let crash_count t = with_lock t @@ fun () -> t.crashes

let connections t = with_lock t @@ fun () -> List.length t.clients
