(* Independent oracles, computed before any timed run.

   xmark-stream: the DOM baseline (Xaos_baseline.Dom_engine) over the
   generated document, reduced to an item count and an id digest.
   pub/sub: an uncompacted, ungated Query_set under Naive dispatch (every
   event to every run) over the exact bytes each pooled document is
   published with. *)

open Xaos_core

(* Order-sensitive digest of a document-order id sequence. *)
let digest_step h id = (h * 1_000_003) + id + 1

let digest ids = List.fold_left digest_step 17 ids

type xmark_answer = { count : int; digest : int }

let dom_answers config queries =
  let doc = Xaos_workloads.Xmark.to_doc config in
  let answers =
    List.map
      (fun q ->
        let items =
          Xaos_baseline.Dom_engine.eval ~dedup:true doc
            (Xaos_xpath.Parser.parse q)
        in
        let ids = List.map (fun (i : Item.t) -> i.Item.id) items in
        (q, { count = List.length ids; digest = digest ids }))
      queries
  in
  Gc.compact ();
  answers

(* Cached per (seed, scale, query) under [dir]: the DOM pass over a
   100 MB document costs more than the runs it checks. *)
let xmark ~dir ~seed ~scale queries =
  let file = Filename.concat dir (Printf.sprintf "xmark-%d-%g.tsv" seed scale) in
  let cached =
    match open_in file with
    | exception Sys_error _ -> []
    | ic ->
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> close_in ic; acc
        | line -> (
          match String.split_on_char '\t' line with
          | [ q; c; d ] -> (
            match (int_of_string_opt c, int_of_string_opt d) with
            | Some count, Some digest -> read ((q, { count; digest }) :: acc)
            | _ -> read acc)
          | _ -> read acc)
      in
      read []
  in
  if List.for_all (fun q -> List.mem_assoc q cached) queries then
    List.map (fun q -> (q, List.assoc q cached)) queries
  else begin
    let answers =
      dom_answers (Xaos_workloads.Xmark.config ~seed scale) queries
    in
    (try
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       let oc = open_out (file ^ ".tmp") in
       List.iter
         (fun (q, a) -> Printf.fprintf oc "%s\t%d\t%d\n" q a.count a.digest)
         answers;
       close_out oc;
       Sys.rename (file ^ ".tmp") file
     with Sys_error _ -> ());
    answers
  end

(* {1 pub/sub} *)

type expect = {
  matches : (string * int) list;  (** subscriptions with >= 1 result, sorted *)
  items : (string * int list) list;
      (** earliest subscriptions with >= 1 result: their item ids *)
  limit : string option;  (** SAX limit the document trips *)
  aborted : string list;  (** runs that trip the structure budget, sorted *)
  frames : int;  (** match + item frames the subscriber connection receives *)
}

let broker = Xaos_service.Broker.default_config

(* [limit] and, per query, its item ids and whether its run tripped the
   structure budget. *)
let expect_doc set doc =
  let s = Query_set.start ?budget:broker.budget ~dispatch:Query_set.Naive set in
  let parser =
    Xaos_xml.Sax.of_string ~limits:broker.limits ~mode:Xaos_xml.Sax.Lenient doc
  in
  let limit =
    match Xaos_xml.Sax.iter (Query_set.feed s) parser with
    | () -> None
    | exception Xaos_xml.Sax.Limit_exceeded (_, k, _) ->
      Some (Xaos_xml.Sax.limit_kind_name k)
  in
  let outcomes =
    if limit = None then Query_set.finish s else Query_set.finish_partial s
  in
  ( limit,
    List.map
      (fun (o : Query_set.outcome) ->
        ( o.query_name,
          ( List.map (fun (i : Item.t) -> i.id) o.items,
            o.aborted && limit = None ) ))
      outcomes )

(* One Naive run per distinct query string: subscriptions with the same
   string get the same answer by definition, so the fanout oracle costs 50
   runs per event rather than 1000. *)
let pubsub (w : Workload.pubsub) =
  let distinct =
    List.sort_uniq compare
      (List.map (fun (s : Workload.subscription) -> s.query) w.subs)
  in
  let set =
    match Query_set.compile (List.map (fun q -> (q, q)) distinct) with
    | Ok set -> set
    | Error e -> failwith ("oracle: " ^ e)
  in
  let answers = Array.map (expect_doc set) w.docs in
  let by_query per_doc q = List.assoc_opt q per_doc in
  Array.map
    (fun (limit, per_query) ->
      let subs = w.subs in
      let hits =
        List.filter_map
          (fun (s : Workload.subscription) ->
            match by_query per_query s.query with
            | Some (ids, aborted) -> Some (s, ids, aborted)
            | None -> None)
          subs
      in
      let matches =
        List.sort compare
          (List.filter_map
             (fun ((s : Workload.subscription), ids, _) ->
               if ids = [] then None else Some (s.sub_name, List.length ids))
             hits)
      in
      let items =
        List.filter_map
          (fun ((s : Workload.subscription), ids, _) ->
            if s.earliest && ids <> [] then Some (s.sub_name, ids) else None)
          hits
      in
      let aborted =
        List.sort compare
          (List.filter_map
             (fun ((s : Workload.subscription), _, ab) ->
               if ab then Some s.sub_name else None)
             hits)
      in
      let frames =
        List.length matches
        + List.fold_left (fun n (_, ids) -> n + List.length ids) 0 items
      in
      { matches; items; limit; aborted; frames })
    answers
