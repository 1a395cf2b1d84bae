(* Prefix_gate against an independent matcher.

   The trie's only contract is per element: the payloads it reports at a
   start element are exactly those whose prefix the element completes,
   each once per registration, in add order among registrations of the
   same prefix. The oracle below decides that by embedding each prefix
   into the open ancestor chain directly — no trie, no symbols, no state
   sets — so a wrong transition, a lost carried state or a broken
   dedup stamp shows up as a differing element. *)

module Ast = Xaos_xpath.Ast
module Event = Xaos_xml.Event
module Sax = Xaos_xml.Sax
module Prng = Xaos_workloads.Prng
module Randgen = Xaos_workloads.Randgen
module Prefix_gate = Xaos_core.Prefix_gate

type prefix = (Ast.axis * Ast.node_test) list

(* Does the element closing [chain] (outermost first) complete [prefix]?
   Step j lands on chain position p_j with p_0 = -1 (the document root):
   a child step on p_{j-1} + 1, a descendant step anywhere deeper, and
   the last step on the element itself. *)
let completes (prefix : prefix) chain =
  let k = Array.length chain in
  let test_ok test name =
    match test with
    | Ast.Name n -> String.equal n name
    | Ast.Wildcard -> String.length name = 0 || name.[0] <> '#'
  in
  let rec embed steps prev =
    match steps with
    | [] -> prev = k - 1
    | (axis, test) :: rest -> (
      let land_on i = test_ok test chain.(i) && embed rest i in
      match axis with
      | Ast.Child -> prev + 1 < k && land_on (prev + 1)
      | Ast.Descendant ->
        let rec any i = i < k && (land_on i || any (i + 1)) in
        any (prev + 1)
      | Ast.Parent | Ast.Ancestor | Ast.Self | Ast.Descendant_or_self
      | Ast.Ancestor_or_self ->
        assert false)
  in
  embed prefix (-1)

(* Randgen tags are a..e, near matches use zz; q never occurs. *)
let names = [| "a"; "b"; "c"; "d"; "e"; "zz"; "q" |]

let random_step rng =
  let axis = if Prng.bool rng then Ast.Child else Ast.Descendant in
  let test =
    if Prng.chance rng 0.2 then Ast.Wildcard else Ast.Name (Prng.pick rng names)
  in
  (axis, test)

(* Mixed axes and tests; about half the prefixes extend, truncate or
   repeat an earlier one, so the trie shares nodes and accept lists. *)
let random_prefixes rng count =
  let rec fresh () = List.init (1 + Prng.int rng 4) (fun _ -> random_step rng)
  and go acc i =
    if i = count then List.rev acc
    else
      let p =
        match acc with
        | [] -> fresh ()
        | _ :: _ when Prng.bool rng -> fresh ()
        | _ :: _ -> (
          let base = List.nth acc (Prng.int rng (List.length acc)) in
          match Prng.int rng 3 with
          | 0 -> base
          | 1 -> base @ [ random_step rng ]
          | _ -> (
            match List.filteri (fun j _ -> j < List.length base - 1) base with
            | [] -> base
            | shorter -> shorter))
      in
      go (p :: acc) (i + 1)
  in
  go [] 0

(* Each registration's payload is (value, index): values repeat (the
   same payload under several prefixes, or twice under one), the index
   identifies the registration. *)
let build prefixes rng =
  let gate = Prefix_gate.create () in
  let regs =
    List.mapi (fun i p -> (p, (Prng.int rng 4, i))) prefixes
  in
  List.iter (fun (p, payload) -> Prefix_gate.add gate p payload) regs;
  (gate, regs)

let sorted l = List.sort compare l

let pp_payloads l =
  String.concat " " (List.map (fun (v, i) -> Printf.sprintf "%d#%d" v i) l)

(* Walk one document, checking every start element against the oracle;
   returns the per-element reports. *)
let check_walk ~msg gate regs events =
  let run = Prefix_gate.start gate in
  let chain = ref [] in
  let reports = ref [] in
  List.iteri
    (fun pos ev ->
      (match ev with
      | Event.Start_element { name; _ } -> chain := name :: !chain
      | _ -> ());
      let got = Prefix_gate.feed run ev in
      match ev with
      | Event.Start_element _ ->
        let chain_arr = Array.of_list (List.rev !chain) in
        let want =
          List.filter_map
            (fun (p, payload) ->
              if completes p chain_arr then Some payload else None)
            regs
        in
        if sorted got <> sorted want then
          Alcotest.failf "%s: event %d (%s): got [%s], want [%s]" msg pos
            (String.concat "/" (Array.to_list chain_arr))
            (pp_payloads got) (pp_payloads want);
        (* registrations of one prefix come out in add order *)
        List.iter
          (fun (p, _) ->
            let of_p =
              List.filter
                (fun (_, i) -> fst (List.nth regs i) = p)
                got
            in
            let idx = List.map snd of_p in
            if idx <> List.sort compare idx then
              Alcotest.failf "%s: event %d: add order broken: [%s]" msg pos
                (pp_payloads of_p))
          regs;
        reports := got :: !reports
      | Event.End_element _ -> chain := List.tl !chain
      | Event.Text _ | Event.Comment _ | Event.Processing_instruction _ -> ())
    events;
  List.rev !reports

let doc_events seed =
  let spec = Randgen.generate_spec ~size:4 ~seed () in
  Sax.events_of_string (Randgen.document_string spec ~seed ~elements:80)

(* Two runs over one trie, their events interleaved at random, report
   exactly what each reports alone. *)
let check_interleaved ~msg gate solo_a solo_b events_a events_b rng =
  let ra = Prefix_gate.start gate and rb = Prefix_gate.start gate in
  let out_a = ref [] and out_b = ref [] in
  let step run out = function
    | [] -> []
    | ev :: rest ->
      (match ev with
      | Event.Start_element _ -> out := Prefix_gate.feed run ev :: !out
      | _ -> ignore (Prefix_gate.feed run ev));
      rest
  in
  let rec go a b =
    match (a, b) with
    | [], [] -> ()
    | _ :: _, [] -> go (step ra out_a a) b
    | [], _ :: _ -> go a (step rb out_b b)
    | _ :: _, _ :: _ ->
      if Prng.bool rng then go (step ra out_a a) b else go a (step rb out_b b)
  in
  go events_a events_b;
  if List.rev !out_a <> solo_a || List.rev !out_b <> solo_b then
    Alcotest.failf "%s: interleaved runs differ from solo runs" msg

let qcheck_against_oracle =
  QCheck.Test.make ~name:"qcheck: prefix gate = direct ancestor-chain matcher"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 1_000_000))
    (fun seed ->
      let rng = Prng.create seed in
      let prefixes = random_prefixes rng (1 + Prng.int rng 24) in
      let gate, regs = build prefixes rng in
      let events_a = doc_events seed and events_b = doc_events (seed + 1) in
      let msg = Printf.sprintf "seed %d" seed in
      let solo_a = check_walk ~msg gate regs events_a in
      let solo_b = check_walk ~msg gate regs events_b in
      check_interleaved ~msg gate solo_a solo_b events_a events_b rng;
      true)

let test_literal_duplicate_payloads () =
  (* one payload value added twice under one prefix and once under an
     overlapping one: three reports on an element completing both *)
  let gate = Prefix_gate.create () in
  Prefix_gate.add gate [ (Ast.Descendant, Ast.Name "b") ] 7;
  Prefix_gate.add gate [ (Ast.Descendant, Ast.Name "b") ] 7;
  Prefix_gate.add gate [ (Ast.Child, Ast.Name "a"); (Ast.Child, Ast.Wildcard) ] 7;
  Alcotest.(check int) "states" 4 (Prefix_gate.state_count gate);
  Alcotest.(check int) "payloads" 3 (Prefix_gate.payload_count gate);
  let run = Prefix_gate.start gate in
  Alcotest.(check (list int)) "a" [] (Prefix_gate.start_element run (Xaos_xml.Symbol.intern "a"));
  Alcotest.(check (list int)) "a/b" [ 7; 7; 7 ]
    (Prefix_gate.start_element run (Xaos_xml.Symbol.intern "b"));
  Prefix_gate.end_element run;
  Prefix_gate.end_element run;
  Alcotest.check_raises "unbalanced end"
    (Invalid_argument "Prefix_gate.end_element: unbalanced events") (fun () ->
      Prefix_gate.end_element run)

let suite =
  [
    Alcotest.test_case "literal duplicate payloads" `Quick
      test_literal_duplicate_payloads;
    QCheck_alcotest.to_alcotest qcheck_against_oracle;
  ]
