module Ast = Xaos_xpath.Ast
module Symbol = Xaos_xml.Symbol

(* Prefix-sharing trie over (axis, test) steps, generalized from the
   YFilter baseline (lib/baseline/yfilter.ml) so any payload can ride on
   an accept node: the baseline hangs query ids here, Query_set hangs
   equivalence-class indices.

   Transitions are indexed by the element's symbol, like an automaton
   that fires only the current label's transitions: named edges of every
   node live in one trie-wide table keyed by (node id, symbol, axis), so
   a start element costs one integer-keyed lookup per active state and
   axis, whatever the fan-out (the root of a topic-pinned subscription
   set carries hundreds of [//topicN] edges). Trie dedup keeps at most
   one wildcard edge per node and axis, held in the node itself. Symbols
   are interned at [add] time — build and run within one symbol-table
   generation, like every engine. *)
type 'a node = {
  mutable accepts_rev : 'a list;  (* reverse add order *)
  mutable wild_child : int;  (* target node id, or -1 *)
  mutable wild_desc : int;
  mutable named_child : bool;  (* has a named child edge in [edges] *)
  mutable named_desc : bool;
  mutable seen : int;  (* last step stamp that activated this node *)
}

(* Table keys pack (node id, symbol, axis) into one immediate int. The
   table indexes buckets by the hash's low bits, and a product's low bits
   only see the key's low bits, so the high half of the product is
   folded down: both the node id and the symbol reach every bucket bit
   (without it, the hundreds of [item] edges of a topic set share one
   bucket). *)
module Edges = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 31)) land max_int
end)

let edge_key node sym ~desc =
  (((node lsl 31) lor sym) lsl 1) lor if desc then 1 else 0

type 'a t = {
  mutable nodes : 'a node array;  (* indexed by node id; root is 0 *)
  mutable states : int;
  mutable payloads : int;
  edges : int Edges.t;  (* named edges: [edge_key] -> target node id *)
  mutable clock : int;
      (* step stamps, trie-wide so interleaved runs never share one *)
  generation : int;
}

let new_node () =
  {
    accepts_rev = [];
    wild_child = -1;
    wild_desc = -1;
    named_child = false;
    named_desc = false;
    seen = 0;
  }

let create () =
  {
    nodes = Array.make 16 (new_node ());
    states = 1;
    payloads = 0;
    edges = Edges.create 64;
    clock = 0;
    generation = Symbol.generation ();
  }

let generation t = t.generation

let state_count t = t.states

let payload_count t = t.payloads

let new_state t =
  let id = t.states in
  if id = Array.length t.nodes then begin
    let grown = Array.make (2 * id) t.nodes.(0) in
    Array.blit t.nodes 0 grown 0 id;
    t.nodes <- grown
  end;
  t.nodes.(id) <- new_node ();
  t.states <- id + 1;
  id

(* The step out of [id] on ([axis], [test]), created on first use;
   dedup goes through the same table the runtime reads, so building is
   linear in the number of steps. *)
let step t id axis test =
  let node = t.nodes.(id) in
  let desc =
    match axis with
    | Ast.Child -> false
    | Ast.Descendant -> true
    | Ast.Parent | Ast.Ancestor | Ast.Self | Ast.Descendant_or_self
    | Ast.Ancestor_or_self ->
      invalid_arg "Prefix_gate.add: prefix steps must be child/descendant"
  in
  match test with
  | Ast.Wildcard ->
    let target = if desc then node.wild_desc else node.wild_child in
    if target >= 0 then target
    else begin
      let target = new_state t in
      if desc then node.wild_desc <- target else node.wild_child <- target;
      target
    end
  | Ast.Name n -> (
    let key = edge_key id (Symbol.intern n) ~desc in
    match Edges.find_opt t.edges key with
    | Some target -> target
    | None ->
      let target = new_state t in
      Edges.add t.edges key target;
      if desc then node.named_desc <- true else node.named_child <- true;
      target)

let add t prefix payload =
  if prefix = [] then invalid_arg "Prefix_gate.add: empty prefix";
  let last =
    List.fold_left (fun id (axis, test) -> step t id axis test) 0 prefix
  in
  let node = t.nodes.(last) in
  node.accepts_rev <- payload :: node.accepts_rev;
  t.payloads <- t.payloads + 1

let has_descendant n = n.named_desc || n.wild_desc >= 0

(* Runtime: YFilter's stack of active-state sets, flattened into one int
   array. An entry is a node id shifted left once, low bit set when the
   activation is {e carried}: a {e fresh} activation's node was reached
   by an edge at exactly this level, so its child edges fire on the
   element's children and its descendant edges on any proper descendant;
   a carried one, inherited from a shallower level, fires descendant
   edges only. [frames.(d)] is where level [d]'s set starts; the
   innermost set runs to [top]. A payload is reported when its node is
   freshly activated (the element completes the prefix). *)
type 'a run = {
  trie : 'a t;
  mutable entries : int array;
  mutable top : int;
  mutable frames : int array;
  mutable depth : int;
  mutable accepted : 'a list;  (* payloads of the element being stepped *)
}

let start trie =
  { trie; entries = Array.make 16 0; top = 1; frames = Array.make 16 0;
    depth = 0; accepted = [] }

let push run entry =
  if run.top = Array.length run.entries then begin
    let grown = Array.make (2 * run.top) 0 in
    Array.blit run.entries 0 grown 0 run.top;
    run.entries <- grown
  end;
  Array.unsafe_set run.entries run.top entry;
  run.top <- run.top + 1

(* Freshly activate node [id] at the current step (stamp [t.clock]),
   once per step however many edges reach it. *)
let activate run id =
  let t = run.trie in
  let node = Array.unsafe_get t.nodes id in
  if node.seen <> t.clock then begin
    node.seen <- t.clock;
    (match node.accepts_rev with
    | [] -> ()
    | rev -> run.accepted <- List.rev_append rev run.accepted);
    (* a leaf has nothing to fire deeper down *)
    if node.named_child || node.wild_child >= 0 || has_descendant node then
      push run (id lsl 1)
  end

let fire run id sym ~desc =
  match Edges.find_opt run.trie.edges (edge_key id sym ~desc) with
  | Some target -> activate run target
  | None -> ()

let start_element run sym =
  let t = run.trie in
  t.clock <- t.clock + 1;
  run.accepted <- [];
  let lo = run.frames.(run.depth) and hi = run.top in
  let wild = Symbol.matches_wildcard sym in
  for i = lo to hi - 1 do
    let entry = Array.unsafe_get run.entries i in
    let id = entry lsr 1 in
    let node = Array.unsafe_get t.nodes id in
    if entry land 1 = 0 then begin
      if node.named_child then fire run id sym ~desc:false;
      if wild && node.wild_child >= 0 then activate run node.wild_child
    end;
    if node.named_desc then fire run id sym ~desc:true;
    if wild && node.wild_desc >= 0 then activate run node.wild_desc
  done;
  (* nodes with pending descendant edges survive into the deeper set;
     a fresh copy already there subsumes the carried one *)
  for i = lo to hi - 1 do
    let id = Array.unsafe_get run.entries i lsr 1 in
    let node = Array.unsafe_get t.nodes id in
    if has_descendant node && node.seen <> t.clock then begin
      node.seen <- t.clock;
      push run ((id lsl 1) lor 1)
    end
  done;
  let depth = run.depth + 1 in
  if depth = Array.length run.frames then begin
    let grown = Array.make (2 * depth) 0 in
    Array.blit run.frames 0 grown 0 depth;
    run.frames <- grown
  end;
  run.frames.(depth) <- hi;
  run.depth <- depth;
  let accepted = run.accepted in
  run.accepted <- [];
  accepted

let end_element run =
  if run.depth = 0 then
    invalid_arg "Prefix_gate.end_element: unbalanced events";
  run.top <- run.frames.(run.depth);
  run.depth <- run.depth - 1

let feed run event =
  match event with
  | Xaos_xml.Event.Start_element { sym; _ } -> start_element run sym
  | Xaos_xml.Event.End_element _ -> end_element run; []
  | Xaos_xml.Event.Text _ | Xaos_xml.Event.Comment _
  | Xaos_xml.Event.Processing_instruction _ ->
    []
