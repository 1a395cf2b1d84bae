(* Differential test of the run-scanning SAX parser against the
   byte-at-a-time reference parser it replaced (test/ref_sax.ml).

   [Sax] reads whole runs of text, attribute values, names, whitespace
   and comment/CDATA/PI bodies out of its refill buffer, clamped so that
   every limit trips at the byte where the byte-wise loop tripped it. The
   contract checked here: on any input, in either mode, through any
   refill chunking and under any limits, both parsers yield the same
   events, the same position, depth and reference count after every
   event, the same fault records, and the same terminal exception at the
   same position. *)

module Sax = Xaos_xml.Sax
module Event = Xaos_xml.Event
module Chaos = Xaos_xml.Chaos
module Prng = Xaos_workloads.Prng
module Randgen = Xaos_workloads.Randgen
module Xmark = Xaos_workloads.Xmark

(* ------------------------------------------------------------------ *)
(* Running both parsers in lockstep                                    *)
(* ------------------------------------------------------------------ *)

type config = {
  limits : Sax.limits;
  mode : Sax.mode;
  chunk : int;  (* bytes handed over per refill *)
}

let refill_of chunk doc =
  let consumed = ref 0 in
  fun buf n ->
    let k = min (min n chunk) (String.length doc - !consumed) in
    Bytes.blit_string doc !consumed buf 0 k;
    consumed := !consumed + k;
    k

type step = (Event.t option, exn) result

let pp_step ppf = function
  | Ok None -> Format.pp_print_string ppf "end of document"
  | Ok (Some (Event.Start_element { attributes; _ } as ev)) ->
    Format.fprintf ppf "%a [%s]" Event.pp ev
      (String.concat "; "
         (List.map
            (fun a -> Printf.sprintf "%s=%S" a.Event.attr_name a.attr_value)
            attributes))
  | Ok (Some (Event.Text s)) -> Format.fprintf ppf "text %S" s
  | Ok (Some ev) -> Event.pp ppf ev
  | Error (Sax.Error (pos, msg)) ->
    Format.fprintf ppf "Error at %a: %s" Sax.pp_position pos msg
  | Error (Sax.Limit_exceeded (pos, kind, bound)) ->
    Format.fprintf ppf "Limit_exceeded %a=%d at %a" Sax.pp_limit_kind kind
      bound Sax.pp_position pos
  | Error e -> Format.pp_print_string ppf (Printexc.to_string e)

let pp_faults ppf faults =
  List.iter
    (fun (f : Sax.fault) ->
      Format.fprintf ppf "@ [%a] %s" Sax.pp_position f.fault_position
        f.fault_message)
    (List.rev faults)

let step next p : step =
  match next p with
  | r -> Ok r
  | exception ((Sax.Error _ | Sax.Limit_exceeded _) as e) -> Error e

(* [Ok events] when the parsers agree on the whole document, [Error why]
   at the first disagreement. *)
let differential cfg doc =
  let fa = ref [] and fb = ref [] in
  let a =
    Sax.of_function ~limits:cfg.limits ~mode:cfg.mode
      ~on_fault:(fun f -> fa := f :: !fa)
      (refill_of cfg.chunk doc)
  in
  let b =
    Ref_sax.of_function ~limits:cfg.limits ~mode:cfg.mode
      ~on_fault:(fun f -> fb := f :: !fb)
      (refill_of cfg.chunk doc)
  in
  let rec loop i acc =
    let ra = step Sax.next a and rb = step Ref_sax.next b in
    let disagree what =
      Error
        (Format.asprintf
           "@[<v>%s differs after step %d@ sax:       %a at %a (depth %d, \
            refs %d)@ reference: %a at %a (depth %d, refs %d)@ sax faults:%a@ \
            reference faults:%a@]"
           what i pp_step ra Sax.pp_position (Sax.position a) (Sax.depth a)
           (Sax.ref_expansions a) pp_step rb Sax.pp_position
           (Ref_sax.position b) (Ref_sax.depth b) (Ref_sax.ref_expansions b)
           pp_faults !fa pp_faults !fb)
    in
    if ra <> rb then disagree "result"
    else if Sax.position a <> Ref_sax.position b then disagree "position"
    else if Sax.depth a <> Ref_sax.depth b then disagree "depth"
    else if Sax.ref_expansions a <> Ref_sax.ref_expansions b then
      disagree "reference count"
    else if !fa <> !fb then disagree "faults"
    else
      match ra with
      | Ok (Some ev) -> loop (i + 1) (ev :: acc)
      | Ok None -> Ok (Ok (List.rev acc))
      | Error e -> Ok (Error e)
  in
  loop 0 []

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

let names =
  [| "a"; "b"; "item"; "listitem"; "x:y"; "n-1.2"; "_u"; "\xc3\xa9t\xc3\xa9";
     "averyveryverylongelementname" |]

let texts =
  [| "hello"; "a &amp; b"; "&#65;&#x42;&#x10FFFF;"; "line\nbreak\r\n";
     "  \t "; "&lt;tag&gt;"; "&unknown;"; "& bare"; "&#xD800;"; "&#;";
     "&#65"; "&amp"; "]]>"; "tab\there"; "\n\n\n"; "\xe2\x82\xac";
     "x > y" |]

let values =
  [| ""; "v"; "a &quot;b&quot;"; "it&apos;s"; "new\nline"; "&#x41;"; "<";
     "x&y"; "> fine" |]

let add_text rng buf =
  if Prng.chance rng 0.2 then
    Buffer.add_string buf (String.make (1 + Prng.int rng 120) 'x')
  else Buffer.add_string buf (Prng.pick rng texts)

let add_misc rng buf =
  match Prng.int rng 4 with
  | 0 ->
    Buffer.add_string buf "<!--";
    Buffer.add_string buf
      (Prng.pick rng [| ""; " c "; "a-b"; "-x-"; "new\nline"; "x--y" |]);
    Buffer.add_string buf "-->"
  | 1 ->
    Buffer.add_string buf "<![CDATA[";
    Buffer.add_string buf
      (Prng.pick rng
         [| ""; "raw <b> &amp;"; "]"; "]]"; "a]]b"; "x]]]"; "\n>" |]);
    Buffer.add_string buf "]]>"
  | 2 ->
    Buffer.add_string buf "<?pi";
    Buffer.add_string buf
      (Prng.pick rng [| ""; " data"; " a?b"; " ??"; " x\ny" |]);
    Buffer.add_string buf "?>"
  | _ -> Buffer.add_string buf (Prng.pick rng [| " "; "\n  "; "\r\n\t" |])

let rec add_element rng buf depth =
  let name = Prng.pick rng names in
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  for i = 1 to Prng.int rng 4 do
    Buffer.add_string buf (Prng.pick rng [| " "; "\n"; "  \t" |]);
    (* k0 may repeat: duplicate attributes *)
    let key = if Prng.chance rng 0.1 then 0 else i in
    Buffer.add_string buf (Printf.sprintf "k%d" key);
    Buffer.add_string buf (Prng.pick rng [| "="; " = " |]);
    let q = if Prng.bool rng then '"' else '\'' in
    Buffer.add_char buf q;
    Buffer.add_string buf (Prng.pick rng values);
    Buffer.add_char buf q
  done;
  if Prng.chance rng 0.2 then Buffer.add_string buf " />"
  else begin
    Buffer.add_char buf '>';
    for _ = 1 to Prng.int rng 6 do
      match Prng.int rng 3 with
      | 0 when depth < 6 -> add_element rng buf (depth + 1)
      | 1 -> add_text rng buf
      | _ -> add_misc rng buf
    done;
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_string buf (Prng.pick rng [| ">"; " >"; "\n>" |])
  end

(* Every construct the parser knows: prolog, references, CDATA,
   comments, PIs, both quote kinds, newlines inside tokens. *)
let feature_doc rng =
  let buf = Buffer.create 1024 in
  if Prng.bool rng then Buffer.add_string buf "<?xml version=\"1.0\"?>\n";
  if Prng.chance rng 0.3 then
    Buffer.add_string buf "<!DOCTYPE r [<!ELEMENT r ANY> <!-- ] -->]>\n";
  if Prng.chance rng 0.3 then add_misc rng buf;
  for _ = 1 to 1 + Prng.int rng 3 do
    add_element rng buf 0
  done;
  if Prng.chance rng 0.3 then add_misc rng buf;
  Buffer.contents buf

let xmark = lazy (Xmark.to_string (Xmark.config ~seed:5 0.001))

(* A window of a small XMark document starting at a tag: real element
   names, attributes and text, cut mid-structure more often than not. *)
let xmark_fragment rng =
  let doc = Lazy.force xmark in
  let len = String.length doc in
  if Prng.chance rng 0.2 then doc
  else
    let start =
      match String.index_from_opt doc (Prng.int rng len) '<' with
      | Some i -> i
      | None -> 0
    in
    let n = min (len - start) (200 + Prng.int rng 8000) in
    "<w>" ^ String.sub doc start n ^ "</w>"

let base_doc rng =
  match Prng.int rng 3 with
  | 0 -> feature_doc rng
  | 1 ->
    let spec = Randgen.generate_spec ~seed:(1 + Prng.int rng 1000) () in
    Randgen.document_string spec ~seed:(Prng.int rng 1000)
      ~elements:(20 + Prng.int rng 200)
  | _ -> xmark_fragment rng

let variant rng doc =
  match Prng.int rng 3 with
  | 0 -> doc
  | 1 ->
    let plan =
      Chaos.plan
        ~kinds:Chaos.[ Truncate; Corrupt_tag; Text_burst; Depth_burst ]
        ~seed:(Prng.int rng 1_000_000) ~rate:1.0 (Prng.int rng 1000)
    in
    Chaos.corrupt plan doc
  | _ ->
    let d = ref doc in
    for _ = 1 to 1 + Prng.int rng 3 do
      d := Test_fuzz.mutate rng !d
    done;
    !d

let chunks = [| 1; 2; 7; 4096; 65536 |]

let random_limits rng doc_len =
  let tight p lo hi default =
    if Prng.chance rng p then Prng.range rng lo hi else default
  in
  let d = Sax.default_limits in
  {
    Sax.max_depth = tight 0.3 1 12 d.max_depth;
    max_name_bytes = tight 0.3 1 10 d.max_name_bytes;
    max_attr_value_bytes = tight 0.3 0 30 d.max_attr_value_bytes;
    max_text_bytes = tight 0.3 0 60 d.max_text_bytes;
    max_attr_count = tight 0.1 0 4 d.max_attr_count;
    max_ref_expansions = tight 0.1 0 10 d.max_ref_expansions;
    max_input_bytes = tight 0.3 0 (max 1 doc_len) d.max_input_bytes;
    max_faults = tight 0.1 0 10 d.max_faults;
  }

let pp_limits ppf (l : Sax.limits) =
  Format.fprintf ppf
    "depth %d, name %d, value %d, text %d, attrs %d, refs %d, input %d, \
     faults %d"
    l.max_depth l.max_name_bytes l.max_attr_value_bytes l.max_text_bytes
    l.max_attr_count l.max_ref_expansions l.max_input_bytes l.max_faults

let case_of_seed seed =
  let rng = Prng.create seed in
  let doc = variant rng (base_doc rng) in
  let limits =
    if Prng.chance rng 0.25 then Sax.default_limits
    else random_limits rng (String.length doc)
  in
  let mode = if Prng.bool rng then Sax.Strict else Sax.Lenient in
  (doc, { limits; mode; chunk = Prng.pick rng chunks })

let qcheck_differential =
  QCheck.Test.make ~name:"qcheck: run-scanning parser = byte-wise reference"
    ~count:1000
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 10_000_000))
    (fun seed ->
      let doc, cfg = case_of_seed seed in
      match differential cfg doc with
      | Ok _ -> true
      | Error why ->
        QCheck.Test.fail_reportf
          "@[<v>%s mode, %d-byte refills, limits: %a@ document (%d bytes): \
           %S@ %s@]"
          (if cfg.mode = Sax.Strict then "strict" else "lenient")
          cfg.chunk pp_limits cfg.limits (String.length doc)
          (if String.length doc > 2000 then String.sub doc 0 2000 ^ "..."
           else doc)
          why)

(* ------------------------------------------------------------------ *)
(* Fixed cases: tokens at the limit, one past it, across a refill      *)
(* ------------------------------------------------------------------ *)

let buffer_size = 65536

(* [placed ~token_at prefix token suffix]: the document "<r" ^ padding ^
   ">" ^ prefix ^ token ^ suffix ^ "</r>", with the padding (whitespace
   inside the root's start tag, which no token limit counts) sized so
   that [token] starts at byte [token_at]. *)
let placed ~token_at prefix token suffix =
  let pad = token_at - String.length "<r>" - String.length prefix in
  assert (pad >= 0);
  String.concat ""
    [ "<r"; String.make pad ' '; ">"; prefix; token; suffix; "</r>" ]

type token = {
  what : string;
  kind : Sax.limit_kind;
  set : Sax.limits -> int -> Sax.limits;
  build : string -> string * string * string;  (* prefix, token, suffix *)
}

let tokens =
  [ { what = "start-tag name"; kind = Sax.Max_name_bytes;
      set = (fun l n -> { l with max_name_bytes = n });
      build = (fun t -> ("<", t, "/>")) };
    { what = "end-tag name"; kind = Sax.Max_name_bytes;
      set = (fun l n -> { l with max_name_bytes = n });
      (* the start tag sits far enough before the end tag to stay clear
         of the boundary; only the end tag's name straddles it *)
      build = (fun t -> ("<" ^ t ^ ">" ^ String.make 40 ' ' ^ "</", t, ">")) };
    { what = "text run"; kind = Sax.Max_text_bytes;
      set = (fun l n -> { l with max_text_bytes = n });
      build = (fun t -> ("<e>", t, "</e>")) };
    { what = "attribute value"; kind = Sax.Max_attr_value_bytes;
      set = (fun l n -> { l with max_attr_value_bytes = n });
      build = (fun t -> ("<e a=\"", t, "\"/>")) } ]

let token_text tok len =
  match tok.kind with
  | Sax.Max_name_bytes -> "n" ^ String.make (len - 1) 'm'
  | _ -> String.init len (fun i -> if i mod 11 = 10 then '\n' else 't')

let check_limit_case tok ~len ~token_at ~max ~expect_trip (mode, chunk) =
  let prefix, token, suffix = tok.build (token_text tok len) in
  let doc = placed ~token_at prefix token suffix in
  let cfg = { limits = tok.set Sax.default_limits max; mode; chunk } in
  let label =
    Printf.sprintf "%s of %d bytes at byte %d, max %d, %d-byte refills"
      tok.what len token_at max chunk
  in
  match differential cfg doc with
  | Error why -> Alcotest.failf "%s: %s" label why
  | Ok (Ok _) -> if expect_trip then Alcotest.failf "%s: no trip" label
  | Ok (Error (Sax.Limit_exceeded (pos, kind, _))) ->
    if not expect_trip then
      Alcotest.failf "%s: tripped at %a" label Sax.pp_position pos;
    Alcotest.(check string)
      (label ^ ": kind") (Sax.limit_kind_name tok.kind)
      (Sax.limit_kind_name kind)
  | Ok (Error e) -> Alcotest.failf "%s: %s" label (Printexc.to_string e)

(* A 24-byte token at [max] (accepted), [max+1] and [max+2] (tripped),
   placed clear of the refill boundary, straddling it at several offsets,
   and starting exactly on it. *)
let fixed_limit_cases () =
  let len = 24 in
  List.iter
    (fun tok ->
      List.iter
        (fun token_at ->
          List.iter
            (fun (max, expect_trip) ->
              List.iter
                (check_limit_case tok ~len ~token_at ~max ~expect_trip)
                [ (Sax.Strict, buffer_size); (Sax.Lenient, buffer_size);
                  (Sax.Strict, 7) ])
            [ (len, false); (len - 1, true); (len - 2, true) ])
        [ 100; buffer_size - 1; buffer_size - 5; buffer_size - len;
          buffer_size - len + 1; buffer_size ])
    tokens

(* The input-byte limit landing inside, and just past, a run that
   straddles the refill boundary. *)
let fixed_input_limit_cases () =
  let doc =
    placed ~token_at:(buffer_size - 8) "<e>" (String.make 32 't') "</e>"
  in
  for max_input = buffer_size - 10 to buffer_size + 30 do
    List.iter
      (fun mode ->
        let cfg =
          { limits = { Sax.default_limits with max_input_bytes = max_input };
            mode; chunk = buffer_size }
        in
        match differential cfg doc with
        | Ok (Error (Sax.Limit_exceeded (pos, Sax.Max_input_bytes, _))) ->
          Alcotest.(check int)
            (Printf.sprintf "max-input-bytes %d trips at its bound" max_input)
            max_input pos.offset
        | Ok _ -> Alcotest.failf "max-input-bytes %d did not trip" max_input
        | Error why -> Alcotest.failf "max-input-bytes %d: %s" max_input why)
      [ Sax.Strict; Sax.Lenient ]
  done

let suite =
  [ Alcotest.test_case "tokens at max and max+1 across a refill" `Quick
      fixed_limit_cases;
    Alcotest.test_case "input limit inside a straddling run" `Quick
      fixed_input_limit_cases;
    QCheck_alcotest.to_alcotest qcheck_differential ]
