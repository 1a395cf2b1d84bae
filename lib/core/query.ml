module Ast = Xaos_xpath.Ast
module Tel = Xaos_obs.Telemetry

let span_compile =
  Tel.span ~help:"time compiling expressions (parse, DNF, x-tree, x-dag)"
    "xaos_query_compile_seconds"

let counter_compiled =
  Tel.counter ~help:"queries compiled" "xaos_query_compiled_total"

let counter_runs =
  Tel.counter ~help:"query runs started" "xaos_query_runs_total"

type t = {
  path : Ast.path;
  config : Engine.config;
  dags : Xaos_xpath.Xdag.t list;
  class_key : string;
  gate_prefixes : (Ast.axis * Ast.node_test) list list option;
}

(* --- Equivalence-class key ---------------------------------------------- *)

(* Two queries are evaluation-equivalent iff they compile to the same
   multiset of x-dags under the same engine configuration: the engine's
   behaviour (and hence results, emission timing, budget consumption) is
   a pure function of (config, dags). Disjunct keys are sorted so
   [a or b] and [b or a] share a class. *)
let config_fingerprint (c : Engine.config) =
  Printf.sprintf "b=%b;r=%b;e=%s" c.Engine.boolean_subtrees
    c.Engine.relevance_filter
    (match c.Engine.emission with
     | Engine.Deferred -> "d"
     | Engine.Eager -> "g"
     | Engine.Earliest -> "e")

let class_key_of ~config dags =
  let keys = List.sort compare (List.map Xaos_xpath.Xdag.key dags) in
  Digest.to_hex
    (Digest.string (String.concat "," (config_fingerprint config :: keys)))

(* --- Safe shared-prefix extraction -------------------------------------- *)

(* The gate front-end (see {!Query_set}) keeps a class engine dormant
   until a shared-prefix automaton accepts one of its disjuncts'
   prefixes, then attaches the engine mid-document via the open-chain
   replay used for runtime registration. Replay re-delivers the start
   events of the currently-open ancestor chain (with attributes), and
   nothing else. A prefix is only safe if every match the full query
   could produce is still produced by an engine attached at the first
   prefix acceptance.

   The maximal candidate prefix is the leading run of predicate-free
   child/descendant steps. The remainder is checked by zone: walking the
   remaining steps from the prefix node, each step's matches live either
   in the subtree of the prefix match ([`Subtree]) or on/above it
   ([`Up], reached through a backward axis). Subtree elements open after
   acceptance, so every event that concerns them is seen live. Up-zone
   elements are on the open ancestor chain at acceptance, so their start
   events (and attributes) are covered by replay — but a forward axis
   *out of* the up zone may land on elements that closed before
   acceptance (e.g. [//c/ancestor::d//e] with [<e>] closing before [<c>]
   opens), and a text test on an up-zone element needs string value
   accumulated before acceptance; both make the prefix unsafe. Absolute
   predicate paths restart from the root (up zone) and are likewise
   unsafe. *)
let rec steps_safe zone (steps : Ast.step list) =
  match steps with
  | [] -> true
  | step :: rest ->
    let zone' =
      match zone, step.Ast.axis with
      | `Subtree, (Ast.Child | Ast.Descendant | Ast.Self
                  | Ast.Descendant_or_self) -> Some `Subtree
      | `Subtree, (Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self) ->
        Some `Up
      | `Up, (Ast.Self | Ast.Parent | Ast.Ancestor | Ast.Ancestor_or_self) ->
        Some `Up
      | `Up, (Ast.Child | Ast.Descendant | Ast.Descendant_or_self) -> None
    in
    (match zone' with
     | None -> false
     | Some zone' ->
       List.for_all (pred_safe zone') step.Ast.predicates
       && steps_safe zone' rest)

and pred_safe zone = function
  | Ast.Attr _ -> true
  | Ast.Text _ -> zone = `Subtree
  | Ast.Path p -> (not p.Ast.absolute) && steps_safe zone p.Ast.steps
  | Ast.And (a, b) -> pred_safe zone a && pred_safe zone b
  | Ast.Or (a, b) -> pred_safe zone a && pred_safe zone b

let gate_prefix_of_path (p : Ast.path) =
  let rec take acc = function
    | ({ Ast.axis = Ast.Child | Ast.Descendant; predicates = []; _ } as s)
      :: rest ->
      take ((s.Ast.axis, s.Ast.test) :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let prefix, rest = take [] p.Ast.steps in
  if prefix = [] then None
  else if steps_safe `Subtree rest then Some prefix
  else None

let compile_path ?(config = Engine.default_config) ?(or_limit = 64) path =
  Tel.time span_compile (fun () ->
      match Xaos_xpath.Dnf.expand_bounded ~limit:or_limit path with
      | Error msg -> Error msg
      | Ok disjuncts ->
        let compiled =
          List.filter_map
            (fun disjunct ->
              let xtree = Xaos_xpath.Xtree.of_path disjunct in
              match Xaos_xpath.Xdag.of_xtree xtree with
              | dag -> Some (disjunct, Xaos_xpath.Xdag.intern dag)
              | exception Xaos_xpath.Xdag.Unsatisfiable -> None)
            disjuncts
        in
        let dags = List.map snd compiled in
        (* A class is gateable only if every satisfiable disjunct has a
           safe nonempty prefix; the gate attaches the whole class at
           the first acceptance of any of them. With no satisfiable
           disjuncts the query matches nothing: [Some []] keeps it
           dormant forever. *)
        let gate_prefixes =
          let prefixes =
            List.map (fun (d, _) -> gate_prefix_of_path d) compiled
          in
          if List.for_all Option.is_some prefixes then
            Some (List.filter_map Fun.id prefixes)
          else None
        in
        (* Warm the symbol table with every name test so runs start with
           the names already interned. Engines re-resolve their label
           symbols at creation time (see [Engine.create]), so compiled
           queries survive a [Symbol.reset] between documents; this pass
           only ensures compile, not first-event, pays the hashing. *)
        List.iter
          (fun (dag : Xaos_xpath.Xdag.t) ->
            Array.iter
              (fun (node : Xaos_xpath.Xtree.xnode) ->
                match node.label with
                | Xaos_xpath.Xtree.Test (Ast.Name n) ->
                  ignore (Xaos_xml.Symbol.intern n : Xaos_xml.Symbol.t)
                | Xaos_xpath.Xtree.Test Ast.Wildcard | Xaos_xpath.Xtree.Root
                  -> ())
              dag.xtree.nodes)
          dags;
        Tel.incr counter_compiled;
        Ok
          { path; config; dags;
            class_key = class_key_of ~config dags;
            gate_prefixes })

let compile ?config ?or_limit input =
  match Xaos_xpath.Parser.parse_result input with
  | Error msg -> Error msg
  | Ok path -> compile_path ?config ?or_limit path

let compile_exn ?config ?or_limit input =
  match compile ?config ?or_limit input with
  | Ok q -> q
  | Error msg -> invalid_arg ("Query.compile_exn: " ^ msg)

let path q = q.path

let emission q = q.config.Engine.emission

let disjuncts q = q.dags

let class_key q = q.class_key

let gate_prefixes q = q.gate_prefixes

let uses_backward_axes q = Ast.uses_backward_axis q.path

type run = {
  engines : Engine.t list;
  mutable result : Result_set.t option;
}

let start ?on_match ?budget q =
  Tel.incr counter_runs;
  (* Disjunct engines report matches independently, so an item matched by
     several disjuncts would reach the callback once per disjunct —
     result sets dedup at union time, the callback boundary must too.
     Ids are document-order element ids, identical across engines fed
     the same events. *)
  let on_match =
    match on_match, q.dags with
    | Some f, _ :: _ :: _ ->
      let seen : (int, unit) Hashtbl.t = Hashtbl.create 32 in
      Some
        (fun (item : Item.t) ->
          if not (Hashtbl.mem seen item.id) then begin
            Hashtbl.add seen item.id ();
            f item
          end)
    | _ -> on_match
  in
  let engines =
    List.map
      (fun dag -> Engine.create ~config:q.config ?budget ?on_match dag)
      q.dags
  in
  { engines; result = None }

(* Top-level loops rather than [List.iter (fun e -> ...)]: a closure
   over the event (or a local loop capturing it) would be allocated on
   every delivered event. *)
let rec feed_engines event = function
  | [] -> ()
  | e :: rest ->
    Engine.feed e event;
    feed_engines event rest

let feed run event = feed_engines event run.engines

(* Interest aggregation across disjunct engines: the run is interested in
   a name iff any engine is, so per-engine transitions are counted and the
   listener only sees run-level 0 <-> nonzero changes. Counts are keyed by
   interned symbol — transitions never hash a string. The single-disjunct
   common case subscribes the listener directly. *)
let subscribe_interest run (listener : Engine.interest_listener) =
  match run.engines with
  | [] -> ()
  | [ e ] -> Engine.subscribe_interest e listener
  | engines ->
    let sym_counts : (Xaos_xml.Symbol.t, int ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let wildcard = ref 0 in
    let aggregated =
      {
        Engine.on_sym =
          (fun sym on ->
            let c =
              match Hashtbl.find_opt sym_counts sym with
              | Some c -> c
              | None ->
                let c = ref 0 in
                Hashtbl.add sym_counts sym c;
                c
            in
            if on then begin
              incr c;
              if !c = 1 then listener.Engine.on_sym sym true
            end
            else begin
              decr c;
              if !c = 0 then listener.Engine.on_sym sym false
            end);
        on_wildcard =
          (fun on ->
            if on then begin
              incr wildcard;
              if !wildcard = 1 then listener.Engine.on_wildcard true
            end
            else begin
              decr wildcard;
              if !wildcard = 0 then listener.Engine.on_wildcard false
            end);
      }
    in
    List.iter (fun e -> Engine.subscribe_interest e aggregated) engines

let wants_text run = List.exists Engine.wants_text run.engines

let rec sync_engines id = function
  | [] -> ()
  | e :: rest ->
    Engine.sync_next_id e id;
    sync_engines id rest

let sync_next_id run id = sync_engines id run.engines

let rec set_engines_byte b = function
  | [] -> ()
  | e :: rest ->
    Engine.set_stream_byte e b;
    set_engines_byte b rest

let set_stream_byte run b = set_engines_byte b run.engines

let finish run =
  match run.result with
  | Some r -> r
  | None ->
    let r =
      match List.map Engine.finish run.engines with
      | [] -> Result_set.empty
      | first :: rest -> List.fold_left Result_set.union first rest
    in
    run.result <- Some r;
    r

let finish_partial run =
  match run.result with
  | Some r -> r
  | None ->
    let r =
      match List.map Engine.abort run.engines with
      | [] -> Result_set.empty
      | first :: rest -> List.fold_left Result_set.union first rest
    in
    run.result <- Some r;
    r

let run_stats run =
  List.fold_left
    (fun acc e -> Stats.add acc (Engine.stats e))
    (Stats.create ()) run.engines

let retained_structures run =
  List.fold_left (fun acc e -> acc + Engine.retained_structures e) 0 run.engines

let retained_bytes run =
  List.fold_left
    (fun acc e -> acc + (Engine.stats e).Stats.retained_bytes)
    0 run.engines

let live_structures run =
  List.fold_left
    (fun acc e ->
      let s = Engine.stats e in
      acc + (s.Stats.structures_created - s.Stats.structures_refuted))
    0 run.engines

let looking_for_size run =
  List.fold_left
    (fun acc e -> acc + List.length (Engine.looking_for e))
    0 run.engines

let run_events q events =
  let r = start q in
  List.iter (feed r) events;
  finish r

let run_sax q parser =
  let r = start q in
  Xaos_xml.Sax.iter (feed r) parser;
  finish r

let run_string q input = run_sax q (Xaos_xml.Sax.of_string input)

let run_file q file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> run_sax q (Xaos_xml.Sax.of_channel ic))

let feed_doc run doc =
  List.iter (fun e -> Engine.feed_doc e doc) run.engines

let run_doc q doc =
  let r = start q in
  feed_doc r doc;
  finish r

let with_stats runner q input =
  let r = start q in
  runner r input;
  let result = finish r in
  (result, run_stats r)

let run_string_with_stats q input =
  with_stats
    (fun r input -> Xaos_xml.Sax.iter (feed r) (Xaos_xml.Sax.of_string input))
    q input

let run_doc_with_stats q doc = with_stats feed_doc q doc

let run_file_with_stats q file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      with_stats
        (fun r ic -> Xaos_xml.Sax.iter (feed r) (Xaos_xml.Sax.of_channel ic))
        q ic)
