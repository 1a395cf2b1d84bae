(* Spans recorded by the traced ladder around its calls into each layer:
   name, start, end, parent span and document id. They stay in memory
   until the run ends and are then written as Chrome trace-event JSON,
   which ui.perfetto.dev loads. *)

type span = {
  id : int;
  parent : int;  (** 0: no parent *)
  name : string;
  doc : int;  (** -1: not about one document *)
  start : float;
  stop : float;
}

type t = { mutable on : bool; mutable spans : span list; mutable next : int }

let create () = { on = false; spans = []; next = 1 }

let now = Unix.gettimeofday

(* [f] receives the new span's id, to parent its children. While
   recording is off, [f] runs with id 0 and nothing is kept. *)
let with_span t ?(parent = 0) ?(doc = -1) name f =
  if not t.on then f 0
  else begin
    let id = t.next in
    t.next <- id + 1;
    let start = now () in
    let r = f id in
    t.spans <- { id; parent; name; doc; start; stop = now () } :: t.spans;
    r
  end

let count t = List.length t.spans

let to_json t =
  let module J = Xaos_obs.Json in
  let origin =
    List.fold_left (fun m s -> Float.min m s.start) infinity t.spans
  in
  let us x = J.Float (Float.round ((x -. origin) *. 1e7) /. 10.) in
  J.Obj
    [ ("displayTimeUnit", J.String "ms");
      ("traceEvents",
       J.List
         (List.rev_map
            (fun s ->
              J.Obj
                [ ("name", J.String s.name); ("ph", J.String "X");
                  ("ts", us s.start);
                  ("dur", J.Float (Float.round ((s.stop -. s.start) *. 1e7) /. 10.));
                  ("pid", J.Int 1); ("tid", J.Int 1);
                  ("args",
                   J.Obj
                     [ ("span", J.Int s.id); ("parent", J.Int s.parent);
                       ("doc", J.Int s.doc) ]) ])
            t.spans)) ]

let write t path =
  let oc = open_out path in
  output_string oc (Xaos_obs.Json.to_string ~indent:false (to_json t));
  close_out oc
