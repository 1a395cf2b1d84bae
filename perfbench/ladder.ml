(* The traced run's cost ladder: single-threaded, in-process, over the
   workload's own inputs. Each rung calls one more layer's public
   functions than the rung below it:

     sax         Sax.next over every document
     engine      Sax + Query.feed, once per sampled query
     query_set   Sax + Query_set.feed/finish over the whole subscription
                 set, with the broker's settings (budget, prefix gate)
     broker      Broker.publish (Sax + Query_set + supervision), with the
                 spans off and then on: the tracing overhead
     broker+obs  the broker rung with Telemetry and Attrib enabled
     protocol    encode and decode of each document's publish request

   A layer's self time is its rung minus the rungs it contains. The
   query_set rung parses as it goes (a 100 MB document does not fit in
   memory as an event list), so its self time is the rung minus the sax
   rung. Each rung starts on a compacted heap, and the rungs run in
   [rounds] rounds, alternately forwards and backwards, each reporting
   its median round, so heap growth, warm-up and drift favour no rung.
   Every rung and every document inside it is wrapped in a span. *)

open Xaos_core
module Sax = Xaos_xml.Sax
module Broker = Xaos_service.Broker

type input = {
  docs : string array;
  subs : Workload.subscription list;
  engine_queries : string list;  (** the queries of the engine rung *)
  rounds : int;
  broker : Broker.config;
}

type metric = { name : string; value : float; unit : string }

(* In-process cost of the unit of work the end-to-end run times, to split
   the end-to-end latency into in-process work and everything else. *)
type totals = {
  engine_s_per_eval : float;  (** Sax + one query over one document *)
  publish_s_per_doc : float;  (** decode + Broker.publish of one document *)
}

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let now = Unix.gettimeofday

let parser inp doc = Sax.of_string ~limits:inp.broker.limits ~mode:Sax.Lenient doc

let compile (s : Workload.subscription) =
  let config =
    if s.earliest then { Engine.default_config with emission = Engine.Earliest }
    else Engine.default_config
  in
  Query.compile_exn ~config s.query

let subscribed inp =
  let b = Broker.create ~config:inp.broker () in
  let t0 = now () in
  List.iter
    (fun (s : Workload.subscription) ->
      match Broker.subscribe ~earliest:s.earliest b ~name:s.sub_name ~query:s.query with
      | Ok () -> ()
      | Error e -> failwith e)
    inp.subs;
  (b, now () -. t0)

let run ?(spans = Spans.create ()) inp =
  (* the interning table is process-global: start every ladder from an
     empty one, so two runs intern (and allocate) the same way *)
  Xaos_xml.Symbol.reset ();
  let n_docs = Array.length inp.docs in
  let per_doc = float_of_int n_docs in
  let bytes = Array.fold_left (fun n d -> n + String.length d) 0 inp.docs in
  (* counts are taken in the first round *)
  let first = ref true in
  let events = ref 0 and faults = ref 0 in
  let stats = ref (Stats.create ()) in
  let dispatched = ref 0 and suppressed = ref 0 and classes = ref 0
  and dormant = ref 0 and delivered = ref 0. and finish_s = ref 0. in
  let items = ref 0 and aborted = ref 0 and limit_ends = ref 0 in
  let queries = List.map Query.compile_exn inp.engine_queries in
  let set =
    Query_set.of_queries
      (List.map (fun (s : Workload.subscription) -> (s.sub_name, compile s)) inp.subs)
  in
  let plain, _ = subscribed inp and traced, _ = subscribed inp
  and observed, _ = subscribed inp in
  let _, subscribe_s = subscribed inp in
  let lines = Array.make n_docs "" in
  let sax _ doc =
    let p = parser inp doc in
    let n = ref 0 in
    Sax.iter (fun _ -> incr n) p;
    if !first then begin
      events := !events + !n;
      faults := !faults + Sax.fault_count p
    end
  in
  let engine _ doc =
    List.iter
      (fun q ->
        let r = Query.start q in
        Sax.iter (Query.feed r) (parser inp doc);
        ignore (Query.finish r);
        if !first then stats := Stats.add !stats (Query.run_stats r))
      queries
  in
  let query_set _ doc =
    let s =
      Query_set.start ?budget:inp.broker.budget ~gate:inp.broker.prefix_gate
        ~on_item:(fun ~name:_ _ -> ()) set
    in
    (try Sax.iter (Query_set.feed s) (parser inp doc) with Sax.Limit_exceeded _ -> ());
    let t0 = now () in
    let outcomes = Query_set.finish s in
    finish_s := !finish_s +. (now () -. t0);
    if !first then begin
      let d, sup = Query_set.dispatch_stats s in
      let c, _, dor = Query_set.session_stats s in
      dispatched := !dispatched + d;
      suppressed := !suppressed + sup;
      classes := max !classes c;
      dormant := !dormant + dor;
      List.iter
        (fun (o : Query_set.outcome) ->
          delivered := !delivered +. (float_of_int o.delivered /. float_of_int o.fanout))
        outcomes
    end
  in
  let publish b ~count i doc =
    let o =
      Broker.publish
        ~on_item:(fun ~name:_ _ -> if count && !first then incr items)
        b ~doc_id:(string_of_int i) doc
    in
    if count && !first then begin
      aborted := !aborted + List.length o.aborted;
      if o.limit_hit <> None then incr limit_ends
    end
  in
  let encode i doc =
    lines.(i) <-
      Xaos_service.Protocol.(
        to_line (request_to_json (Publish { doc_id = string_of_int i; priority = 0; doc })))
  in
  let decode i _ =
    let l = lines.(i) in
    match Xaos_service.Protocol.request_of_line (String.sub l 0 (String.length l - 1)) with
    | Ok _ -> ()
    | Error e -> failwith e
  in
  let observing f i doc =
    Xaos_obs.Telemetry.enable ();
    Xaos_obs.Attrib.enable ();
    Fun.protect
      ~finally:(fun () ->
        Xaos_obs.Telemetry.disable ();
        Xaos_obs.Attrib.disable ())
      (fun () -> f i doc)
  in
  (* (name, spans recorded, body) *)
  let rungs =
    [ ("sax", true, sax); ("engine", true, engine); ("query_set", true, query_set);
      ("broker.untraced", false, publish plain ~count:false);
      ("broker", true, publish traced ~count:true);
      ("broker+obs", true, observing (publish observed ~count:false));
      ("protocol.encode", true, encode); ("protocol.decode", true, decode) ]
  in
  Xaos_obs.Telemetry.reset ();
  Xaos_obs.Attrib.reset ();
  let recording = spans.Spans.on in
  let times = Hashtbl.create 16 and words = Hashtbl.create 16 in
  Spans.with_span spans "ladder" (fun top ->
      for round = 0 to inp.rounds - 1 do
        (* odd rounds run the rungs in reverse, so no rung always follows
           the same one *)
        List.iter
          (fun (name, traced, f) ->
            spans.on <- recording && traced;
            (* every rung starts from the same compacted heap *)
            Gc.compact ();
            Spans.with_span spans ~parent:top name (fun rid ->
                let w0 = minor_words () and t0 = now () in
                first := round = 0;
                Array.iteri
                  (fun i doc ->
                    Spans.with_span spans ~parent:rid ~doc:i name (fun _ -> f i doc))
                  inp.docs;
                Hashtbl.add times name (now () -. t0);
                Hashtbl.add words name (minor_words () -. w0));
            spans.on <- recording)
          (if round land 1 = 0 then rungs else List.rev rungs)
      done);
  let med tbl name = Measure.median (Hashtbl.find_all tbl name) in
  let t = med times and w = med words in
  let nq = float_of_int (List.length queries) in
  let ev = float_of_int !events in
  let sax_s = t "sax" and sax_w = w "sax" in
  let engine_self = Measure.self_time ~rung:(t "engine") ~contains:[ nq *. sax_s ] in
  let qs_self = Measure.self_time ~rung:(t "query_set") ~contains:[ sax_s ] in
  let broker_s = t "broker" in
  let broker_self = Measure.self_time ~rung:broker_s ~contains:[ sax_s; qs_self ] in
  let f = float_of_int in
  let m name value unit = { name; value; unit } in
  ( { engine_s_per_eval = t "engine" /. (nq *. per_doc);
      publish_s_per_doc = (t "protocol.decode" +. broker_s) /. per_doc },
    [ m "sax.ns_per_event" (1e9 *. sax_s /. ev) "ns";
      m "sax.mb_per_s" (f bytes /. sax_s /. 1e6) "MB/s";
      m "sax.minor_words_per_event" (sax_w /. ev) "count";
      m "sax.events" (f !events) "count";
      m "sax.faults" (f !faults) "count";
      m "engine.ns_per_event" (1e9 *. engine_self /. (nq *. ev)) "ns";
      m "engine.minor_words_per_event" ((w "engine" -. (nq *. sax_w)) /. (nq *. ev)) "count";
      m "engine.structures_created" (f !stats.structures_created) "count";
      m "engine.live_peak" (f !stats.live_peak) "count";
      m "engine.undos" (f !stats.undos) "count";
      m "engine.retained_peak_bytes" (f !stats.retained_peak_bytes) "bytes";
      m "engine.discarded_frac" (Stats.discarded_fraction !stats) "ratio";
      m "query_set.ns_per_event" (1e9 *. qs_self /. ev) "ns";
      m "query_set.finish_us_per_doc"
        (1e6 *. !finish_s /. (per_doc *. f inp.rounds)) "us";
      m "query_set.minor_words_per_event" ((w "query_set" -. sax_w) /. ev) "count";
      m "query_set.dispatched" (f !dispatched) "count";
      m "query_set.suppressed" (f !suppressed) "count";
      m "query_set.suppressed_frac"
        (f !suppressed /. f (max 1 (!dispatched + !suppressed))) "ratio";
      m "query_set.classes" (f !classes) "count";
      m "query_set.dormant_classes" (f !dormant /. f n_docs) "count";
      m "query_set.delivered_events" (Float.round !delivered) "count";
      m "broker.publish_ms_per_doc" (1e3 *. broker_s /. per_doc) "ms";
      m "broker.self_ms_per_doc" (1e3 *. broker_self /. per_doc) "ms";
      m "broker.minor_words_per_doc" (w "broker" /. per_doc) "count";
      m "broker.subscribe_us" (1e6 *. subscribe_s /. f (max 1 (List.length inp.subs))) "us";
      m "broker.runs_aborted" (f !aborted) "count";
      m "broker.limit_ends" (f !limit_ends) "count";
      m "obs.overhead_frac" ((t "broker+obs" /. broker_s) -. 1.) "ratio";
      m "protocol.encode_us_per_doc" (1e6 *. t "protocol.encode" /. per_doc) "us";
      m "protocol.decode_us_per_doc" (1e6 *. t "protocol.decode" /. per_doc) "us";
      m "protocol.item_frames" (f !items) "count";
      m "trace.overhead_frac" ((broker_s /. t "broker.untraced") -. 1.) "ratio" ] )
