(* Reference SAX parser for the differential test in test_sax_runs.ml:
   the byte-at-a-time parser that [Xaos_xml.Sax] replaced with run
   scanning, kept verbatim except that it shares [Sax]'s types and
   exceptions (so results compare directly) and counts no telemetry.
   Every byte goes through [peek] and [advance]; it is the specification
   of where each error, limit and fault fires. Test-only: the library
   keeps one parser. *)

open Xaos_xml

type position = Sax.position = {
  line : int;
  column : int;
  offset : int;
}

exception Error = Sax.Error

module Tel = struct
  let add () _ = ()
  let incr () = ()
end

let counter_bytes = ()
let counter_events = ()
let counter_refs = ()
let counter_faults = ()

(* ------------------------------------------------------------------ *)
(* Resource limits                                                     *)
(* ------------------------------------------------------------------ *)

type limit_kind = Sax.limit_kind =
  | Max_depth
  | Max_name_bytes
  | Max_attr_value_bytes
  | Max_text_bytes
  | Max_attr_count
  | Max_ref_expansions
  | Max_input_bytes
  | Max_faults

exception Limit_exceeded = Sax.Limit_exceeded

type limits = Sax.limits = {
  max_depth : int;
  max_name_bytes : int;
  max_attr_value_bytes : int;
  max_text_bytes : int;
  max_attr_count : int;
  max_ref_expansions : int;
  max_input_bytes : int;
  max_faults : int;
}

let default_limits =
  {
    max_depth = 10_000;
    max_name_bytes = 4_096;
    max_attr_value_bytes = 1_048_576;
    max_text_bytes = 16_777_216;
    max_attr_count = 1_024;
    max_ref_expansions = 1_000_000;
    max_input_bytes = max_int;
    max_faults = 10_000;
  }

let unlimited =
  {
    max_depth = max_int;
    max_name_bytes = max_int;
    max_attr_value_bytes = max_int;
    max_text_bytes = max_int;
    max_attr_count = max_int;
    max_ref_expansions = max_int;
    max_input_bytes = max_int;
    max_faults = max_int;
  }

let limit_kind_name = function
  | Max_depth -> "max-depth"
  | Max_name_bytes -> "max-name-bytes"
  | Max_attr_value_bytes -> "max-attr-value-bytes"
  | Max_text_bytes -> "max-text-bytes"
  | Max_attr_count -> "max-attr-count"
  | Max_ref_expansions -> "max-ref-expansions"
  | Max_input_bytes -> "max-input-bytes"
  | Max_faults -> "max-faults"

let pp_limit_kind ppf k = Format.pp_print_string ppf (limit_kind_name k)

(* ------------------------------------------------------------------ *)
(* Parsing modes and faults                                            *)
(* ------------------------------------------------------------------ *)

type mode = Sax.mode =
  | Strict
  | Lenient

type fault = Sax.fault = {
  fault_position : position;
  fault_message : string;
}

(* Parsing proceeds through three phases: the prolog (before the root
   element), the content of the root element, and the epilog (after it).
   [stack] holds the open element names; its length is the current depth. *)
type phase =
  | Prolog
  | Content
  | Epilog
  | Done

type t = {
  refill : bytes -> int -> int;
  buf : bytes;
  mutable pos : int;  (* next unread byte in [buf] *)
  mutable len : int;  (* number of valid bytes in [buf] *)
  mutable eof : bool;
  mutable line : int;
  mutable column : int;
  mutable offset : int;
  mutable stack : (string * Symbol.t) list;
      (* open element names with their interned symbols: end events reuse
         the symbol of the matching start event without re-interning *)
  mutable depth : int;
  mutable phase : phase;
  (* Queued events (e.g. the End after <a/>, or a burst of auto-closes in
     lenient mode) as a functional deque: [pending_front] in order,
     [pending_back] reversed. Push and amortized pop are O(1); the old
     single-list representation appended with [l @ [ev]], O(n) per
     push. *)
  mutable pending_front : Event.t list;
  mutable pending_back : Event.t list;
  scratch : Buffer.t;
  scratch2 : Buffer.t;
  scratch3 : Buffer.t;  (* raw reference text, for lenient fallbacks *)
  limits : limits;
  mode : mode;
  on_fault : fault -> unit;
  mutable faults : int;
  mutable refs : int;  (* character/entity references expanded so far *)
}

let buffer_size = 65536

let make ?(limits = default_limits) ?(mode = Strict) ?(on_fault = fun _ -> ())
    refill =
  {
    refill;
    buf = Bytes.create buffer_size;
    pos = 0;
    len = 0;
    eof = false;
    line = 1;
    column = 1;
    offset = 0;
    stack = [];
    depth = 0;
    phase = Prolog;
    pending_front = [];
    pending_back = [];
    scratch = Buffer.create 256;
    scratch2 = Buffer.create 64;
    scratch3 = Buffer.create 32;
    limits;
    mode;
    on_fault;
    faults = 0;
    refs = 0;
  }

let of_function ?limits ?mode ?on_fault refill = make ?limits ?mode ?on_fault refill

let of_channel ?limits ?mode ?on_fault ic =
  make ?limits ?mode ?on_fault (fun buf n -> input ic buf 0 n)

let of_string ?limits ?mode ?on_fault s =
  let consumed = ref 0 in
  let refill buf n =
    let remaining = String.length s - !consumed in
    let count = min n remaining in
    Bytes.blit_string s !consumed buf 0 count;
    consumed := !consumed + count;
    count
  in
  make ?limits ?mode ?on_fault refill

let position p = { line = p.line; column = p.column; offset = p.offset }

let depth p = p.depth

let fault_count p = p.faults

let ref_expansions p = p.refs

let bytes_read p = p.offset

let pp_position ppf ({ line; column; offset } : position) =
  Format.fprintf ppf "line %d, column %d (byte %d)" line column offset

let error p msg = raise (Error (position p, msg))

let errorf p fmt = Format.kasprintf (fun msg -> error p msg) fmt

let limit_error p kind value = raise (Limit_exceeded (position p, kind, value))

let lenient p = p.mode = Lenient

(* Record a recovered fault. The recovery-attempt cap is itself a limit:
   input that keeps the parser in pathological recovery forever is as
   hostile as a depth bomb. *)
let fault_at p pos msg =
  p.faults <- p.faults + 1;
  Tel.incr counter_faults;
  if p.faults > p.limits.max_faults then
    raise (Limit_exceeded (pos, Max_faults, p.limits.max_faults));
  p.on_fault { fault_position = pos; fault_message = msg }

let fault p msg = fault_at p (position p) msg

let faultf p fmt = Format.kasprintf (fun msg -> fault p msg) fmt

(* ------------------------------------------------------------------ *)
(* Character-level input                                               *)
(* ------------------------------------------------------------------ *)

let ensure p =
  if p.pos >= p.len && not p.eof then begin
    let count = p.refill p.buf buffer_size in
    p.pos <- 0;
    p.len <- count;
    if count = 0 then p.eof <- true else Tel.add counter_bytes count
  end

(* Peek at the next byte without consuming it; '\000' at end of input
   (NUL is not legal in XML, so the sentinel is unambiguous for
   well-formed documents; [at_eof] disambiguates hostile ones). *)
let peek p =
  ensure p;
  if p.pos >= p.len then '\000' else Bytes.unsafe_get p.buf p.pos

let at_eof p =
  ensure p;
  p.eof && p.pos >= p.len

let advance p =
  ensure p;
  if p.pos < p.len then begin
    if p.offset >= p.limits.max_input_bytes then
      limit_error p Max_input_bytes p.limits.max_input_bytes;
    let c = Bytes.unsafe_get p.buf p.pos in
    p.pos <- p.pos + 1;
    p.offset <- p.offset + 1;
    if Char.equal c '\n' then begin
      p.line <- p.line + 1;
      p.column <- 1
    end
    else p.column <- p.column + 1
  end

let next_char p =
  let c = peek p in
  if Char.equal c '\000' then error p "unexpected end of input";
  advance p;
  c

let expect p expected =
  let c = next_char p in
  if not (Char.equal c expected) then
    errorf p "expected %C but found %C" expected c

let expect_string p s = String.iter (fun c -> expect p c) s

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space p =
  while is_space (peek p) do
    advance p
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80 (* permissive: any non-ASCII byte *)

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

let read_name p =
  let c = peek p in
  if not (is_name_start c) then errorf p "expected a name but found %C" c;
  Buffer.clear p.scratch2;
  while is_name_char (peek p) do
    if Buffer.length p.scratch2 >= p.limits.max_name_bytes then
      limit_error p Max_name_bytes p.limits.max_name_bytes;
    Buffer.add_char p.scratch2 (next_char p)
  done;
  Buffer.contents p.scratch2

(* ------------------------------------------------------------------ *)
(* References                                                          *)
(* ------------------------------------------------------------------ *)

let valid_scalar u = u >= 0 && u <= 0x10FFFF && not (u >= 0xD800 && u <= 0xDFFF)

(* Add the UTF-8 encoding of the Unicode scalar value [u] to [buf]. *)
let add_utf8 p buf u =
  if not (valid_scalar u) then errorf p "invalid character reference U+%X" u;
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_value p = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | c -> errorf p "invalid hexadecimal digit %C" c

let expand_entity = function
  | "lt" -> Some '<'
  | "gt" -> Some '>'
  | "amp" -> Some '&'
  | "apos" -> Some '\''
  | "quot" -> Some '"'
  | _ -> None

(* Read a reference after the '&' has been consumed, appending the
   replacement text to [buf]. In lenient mode a malformed reference is
   recovered by appending its raw text instead of raising. *)
let read_reference p buf =
  p.refs <- p.refs + 1;
  Tel.incr counter_refs;
  if p.refs > p.limits.max_ref_expansions then
    limit_error p Max_ref_expansions p.limits.max_ref_expansions;
  if Char.equal (peek p) '#' then begin
    advance p;
    Buffer.clear p.scratch3;
    let hex = Char.equal (peek p) 'x' in
    if hex then begin
      advance p;
      Buffer.add_char p.scratch3 'x'
    end;
    let value = ref 0 in
    let digits = ref 0 in
    let rec loop () =
      match peek p with
      | ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') as c
        when hex || (c >= '0' && c <= '9') ->
        (* saturate instead of overflowing: anything past the last valid
           scalar is equally invalid *)
        if !value <= 0x110000 then
          value := (!value * if hex then 16 else 10) + hex_value p c;
        incr digits;
        Buffer.add_char p.scratch3 c;
        advance p;
        loop ()
      | _ -> ()
    in
    loop ();
    let raw () = "&#" ^ Buffer.contents p.scratch3 in
    if !digits = 0 then
      if lenient p then begin
        fault p "empty character reference";
        Buffer.add_string buf (raw ())
      end
      else error p "empty character reference"
    else if not (Char.equal (peek p) ';') then
      if lenient p then begin
        fault p "character reference without ';'";
        Buffer.add_string buf (raw ())
      end
      else expect p ';'
    else begin
      advance p;
      if valid_scalar !value then add_utf8 p buf !value
      else if lenient p then begin
        faultf p "invalid character reference U+%X" !value;
        Buffer.add_string buf (raw () ^ ";")
      end
      else errorf p "invalid character reference U+%X" !value
    end
  end
  else if is_name_start (peek p) then begin
    let name = read_name p in
    if not (Char.equal (peek p) ';') then
      if lenient p then begin
        faultf p "entity reference &%s without ';'" name;
        Buffer.add_char buf '&';
        Buffer.add_string buf name
      end
      else expect p ';'
    else
      match expand_entity name with
      | Some c ->
        advance p;
        Buffer.add_char buf c
      | None ->
        if lenient p then begin
          advance p;
          faultf p "unknown entity reference &%s;" name;
          Buffer.add_char buf '&';
          Buffer.add_string buf name;
          Buffer.add_char buf ';'
        end
        else errorf p "unknown entity reference &%s;" name
  end
  else if lenient p then begin
    fault p "bare '&' in content";
    Buffer.add_char buf '&'
  end
  else errorf p "expected a name but found %C" (peek p)

(* ------------------------------------------------------------------ *)
(* Markup                                                              *)
(* ------------------------------------------------------------------ *)

let check_value_limit p =
  if Buffer.length p.scratch > p.limits.max_attr_value_bytes then
    limit_error p Max_attr_value_bytes p.limits.max_attr_value_bytes

let read_attribute_value p =
  let quote = peek p in
  if Char.equal quote '"' || Char.equal quote '\'' then begin
    advance p;
    Buffer.clear p.scratch;
    let rec loop () =
      check_value_limit p;
      let c = peek p in
      if Char.equal c quote then advance p
      else
        match c with
        | '\000' -> error p "unexpected end of input in attribute value"
        | '<' ->
          if lenient p then begin
            fault p "'<' in attribute value";
            advance p;
            Buffer.add_char p.scratch '<';
            loop ()
          end
          else error p "'<' is not allowed in attribute values"
        | '&' ->
          advance p;
          read_reference p p.scratch;
          loop ()
        | c ->
          advance p;
          Buffer.add_char p.scratch c;
          loop ()
    in
    loop ();
    Buffer.contents p.scratch
  end
  else if lenient p then begin
    (* recover HTML-style unquoted values: read to the next delimiter *)
    fault p "unquoted attribute value";
    Buffer.clear p.scratch;
    let rec loop () =
      check_value_limit p;
      match peek p with
      | '\000' | '>' | '/' | '<' -> ()
      | c when is_space c -> ()
      | c ->
        advance p;
        Buffer.add_char p.scratch c;
        loop ()
    in
    loop ();
    Buffer.contents p.scratch
  end
  else error p "attribute value must be quoted"

let read_attributes p =
  let rec loop count acc =
    skip_space p;
    match peek p with
    | '>' | '/' -> List.rev acc
    | c when is_name_start c ->
      if count >= p.limits.max_attr_count then
        limit_error p Max_attr_count p.limits.max_attr_count;
      let attr_name = read_name p in
      skip_space p;
      let attr_value =
        if Char.equal (peek p) '=' then begin
          advance p;
          skip_space p;
          Some (read_attribute_value p)
        end
        else if lenient p then begin
          faultf p "attribute %s without a value" attr_name;
          None
        end
        else (expect p '='; None)
      in
      let attr_value = Option.value attr_value ~default:"" in
      if List.exists (fun a -> String.equal a.Event.attr_name attr_name) acc
      then
        if lenient p then begin
          faultf p "dropping duplicate attribute %s" attr_name;
          loop (count + 1) acc
        end
        else errorf p "duplicate attribute %s" attr_name
      else loop (count + 1) ({ Event.attr_name; attr_value } :: acc)
    | c ->
      if at_eof p then error p "unexpected end of input in tag"
      else if lenient p then begin
        faultf p "skipping unexpected %C in tag" c;
        advance p;
        loop count acc
      end
      else errorf p "unexpected %C in tag" c
  in
  loop 0 []

let check_text_limit p =
  if Buffer.length p.scratch > p.limits.max_text_bytes then
    limit_error p Max_text_bytes p.limits.max_text_bytes

(* "<!-" consumed; consume the second '-' and the comment body. A literal
   "--" inside a comment is ill-formed per the XML spec. *)
let read_comment p =
  expect p '-';
  Buffer.clear p.scratch;
  let rec loop () =
    check_text_limit p;
    let c = next_char p in
    if Char.equal c '-' && Char.equal (peek p) '-' then begin
      advance p;
      if Char.equal (peek p) '>' then advance p
      else if lenient p then begin
        fault p "'--' inside a comment";
        Buffer.add_string p.scratch "--";
        loop ()
      end
      else expect p '>'
    end
    else begin
      Buffer.add_char p.scratch c;
      loop ()
    end
  in
  loop ();
  Event.Comment (Buffer.contents p.scratch)

(* "<![" consumed; expect "CDATA[" then scan to "]]>". [brackets] counts the
   run of ']' characters read but not yet emitted: the final two belong to
   the terminator, any excess is literal content ("]]]>" => "]" ^ end). *)
let read_cdata p =
  expect_string p "CDATA[";
  Buffer.clear p.scratch;
  let rec loop brackets =
    check_text_limit p;
    match next_char p with
    | ']' -> loop (brackets + 1)
    | '>' when brackets >= 2 ->
      for _ = 1 to brackets - 2 do
        Buffer.add_char p.scratch ']'
      done
    | c ->
      for _ = 1 to brackets do
        Buffer.add_char p.scratch ']'
      done;
      Buffer.add_char p.scratch c;
      loop 0
  in
  loop 0;
  Event.Text (Buffer.contents p.scratch)

(* "<?" consumed. *)
let read_pi p =
  let target = read_name p in
  skip_space p;
  Buffer.clear p.scratch;
  let rec loop () =
    check_text_limit p;
    let c = next_char p in
    if Char.equal c '?' && Char.equal (peek p) '>' then advance p
    else begin
      Buffer.add_char p.scratch c;
      loop ()
    end
  in
  loop ();
  (target, Buffer.contents p.scratch)

(* "<!D" dispatched; skip the whole declaration, including an internal
   subset in square brackets and quoted system/public literals. *)
let skip_doctype p =
  expect_string p "DOCTYPE";
  let rec loop bracket_depth =
    match next_char p with
    | '[' -> loop (bracket_depth + 1)
    | ']' -> loop (bracket_depth - 1)
    | '>' when bracket_depth <= 0 -> ()
    | '"' ->
      let rec str () = if not (Char.equal (next_char p) '"') then str () in
      str ();
      loop bracket_depth
    | '\'' ->
      let rec str () = if not (Char.equal (next_char p) '\'') then str () in
      str ();
      loop bracket_depth
    | _ -> loop bracket_depth
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let read_text p =
  Buffer.clear p.scratch;
  let rec loop () =
    check_text_limit p;
    match peek p with
    | '<' | '\000' -> ()
    | '&' ->
      advance p;
      read_reference p p.scratch;
      loop ()
    | c ->
      advance p;
      Buffer.add_char p.scratch c;
      loop ()
  in
  loop ();
  Buffer.contents p.scratch

let pending_push p ev = p.pending_back <- ev :: p.pending_back

(* Queue a list of events, in order, after everything already queued. *)
let pending_push_all p evs = p.pending_back <- List.rev_append evs p.pending_back

let pending_pop p =
  match p.pending_front with
  | ev :: rest ->
    p.pending_front <- rest;
    Some ev
  | [] -> (
    match p.pending_back with
    | [] -> None
    | back -> (
      p.pending_back <- [];
      match List.rev back with
      | ev :: rest ->
        p.pending_front <- rest;
        Some ev
      | [] -> assert false))

(* The '<' and the first name character are still unread. *)
let start_element p =
  let name = read_name p in
  let attributes = read_attributes p in
  skip_space p;
  match next_char p with
  | '>' ->
    if p.depth + 1 > p.limits.max_depth then
      limit_error p Max_depth p.limits.max_depth;
    let sym = Symbol.intern name in
    p.stack <- (name, sym) :: p.stack;
    p.depth <- p.depth + 1;
    if p.phase = Prolog then p.phase <- Content;
    Event.Start_element { name; sym; attributes; level = p.depth }
  | '/' ->
    expect p '>';
    (* Self-closing: emit Start now, queue the matching End. Depth is left
       unchanged since the element opens and closes atomically. *)
    let level = p.depth + 1 in
    if level > p.limits.max_depth then limit_error p Max_depth p.limits.max_depth;
    let sym = Symbol.intern name in
    pending_push p (Event.End_element { name; sym; level });
    if p.phase = Prolog then p.phase <- Epilog;
    Event.Start_element { name; sym; attributes; level }
  | c -> errorf p "unexpected %C at end of start tag" c

(* "</" consumed. Returns [None] when (in lenient mode) the end tag had no
   matching open element and was dropped. *)
let end_element p =
  let name = read_name p in
  skip_space p;
  (match peek p with
  | '>' -> advance p
  | _ when lenient p ->
    faultf p "malformed end tag </%s>" name;
    let rec skip () =
      match peek p with
      | '>' -> advance p
      | '<' | '\000' -> ()
      | _ ->
        advance p;
        skip ()
    in
    skip ()
  | _ -> expect p '>');
  match p.stack with
  | [] ->
    if lenient p then begin
      faultf p "dropping unmatched end tag </%s>" name;
      None
    end
    else errorf p "unmatched end tag </%s>" name
  | (top, sym) :: rest when String.equal top name ->
    let level = p.depth in
    p.stack <- rest;
    p.depth <- p.depth - 1;
    if p.depth = 0 then p.phase <- Epilog;
    Some (Event.End_element { name; sym; level })
  | (top, _) :: _ ->
    if not (lenient p) then
      errorf p "mismatched end tag: expected </%s> but found </%s>" top name
    else if List.exists (fun (t, _) -> String.equal name t) p.stack then begin
      (* auto-close every element opened above the matching one *)
      faultf p "auto-closing unclosed <%s> at </%s>" top name;
      let rec close depth stack acc =
        match stack with
        | [] -> assert false
        | (t, tsym) :: rest ->
          let acc =
            Event.End_element { name = t; sym = tsym; level = depth } :: acc
          in
          if String.equal t name then (rest, depth - 1, List.rev acc)
          else close (depth - 1) rest acc
      in
      let stack, depth, events = close p.depth p.stack [] in
      p.stack <- stack;
      p.depth <- depth;
      if p.depth = 0 then p.phase <- Epilog;
      match events with
      | first :: queued ->
        pending_push_all p queued;
        Some first
      | [] -> assert false
    end
    else begin
      faultf p "dropping unmatched end tag </%s>" name;
      None
    end

(* Virtually close every open element (truncated input, lenient mode). *)
let close_all_open p =
  let rec events depth stack acc =
    match stack with
    | [] -> List.rev acc
    | (t, sym) :: rest ->
      events (depth - 1) rest
        (Event.End_element { name = t; sym; level = depth } :: acc)
  in
  let evs = events p.depth p.stack [] in
  p.stack <- [];
  p.depth <- 0;
  p.phase <- Epilog;
  evs

let rec next_raw p =
  match pending_pop p with
  | Some _ as some -> some
  | None -> (
    match p.phase with
    | Done -> None
    | Epilog -> (
      skip_space p;
      match peek p with
      | '\000' ->
        if at_eof p || not (lenient p) then begin
          p.phase <- Done;
          None
        end
        else begin
          fault p "NUL byte after the root element";
          advance p;
          next_raw p
        end
      | '<' -> (
        advance p;
        match peek p with
        | '!' -> (
          advance p;
          match peek p with
          | '-' ->
            advance p;
            Some (read_comment p)
          | c -> errorf p "unexpected declaration %C after the root element" c)
        | '?' ->
          advance p;
          let target, content = read_pi p in
          Some (Event.Processing_instruction { target; content })
        | '/' when lenient p -> (
          advance p;
          match end_element p with
          | Some ev -> Some ev
          | None -> next_raw p)
        | c when lenient p && is_name_start c ->
          fault p "multiple root elements";
          p.phase <- Content;
          Some (start_element p)
        | _ -> error p "only one root element is allowed")
      | _ ->
        if lenient p then begin
          fault p "text after the root element";
          ignore (read_text p);
          next_raw p
        end
        else error p "text content is not allowed after the root element")
    | Prolog -> (
      skip_space p;
      match peek p with
      | '\000' ->
        if (not (at_eof p)) && lenient p then begin
          fault p "NUL byte before the root element";
          advance p;
          next_raw p
        end
        else if lenient p then begin
          fault p "empty document: no root element";
          p.phase <- Done;
          None
        end
        else error p "empty document: no root element"
      | '<' -> (
        advance p;
        match peek p with
        | '!' -> (
          advance p;
          match peek p with
          | '-' ->
            advance p;
            Some (read_comment p)
          | 'D' ->
            skip_doctype p;
            next_raw p
          | c -> errorf p "unexpected declaration starting with %C" c)
        | '?' ->
          advance p;
          let target, content = read_pi p in
          if String.equal (String.lowercase_ascii target) "xml" then
            (* XML declaration: consume silently. *)
            next_raw p
          else Some (Event.Processing_instruction { target; content })
        | '/' when lenient p -> (
          advance p;
          match end_element p with
          | Some ev -> Some ev
          | None -> next_raw p)
        | '/' -> error p "end tag before any start tag"
        | _ -> Some (start_element p))
      | _ ->
        if lenient p then begin
          fault p "text before the root element";
          while (not (Char.equal (peek p) '<')) && not (Char.equal (peek p) '\000')
          do
            advance p
          done;
          next_raw p
        end
        else error p "text content is not allowed before the root element")
    | Content -> (
      match peek p with
      | '\000' ->
        if not (lenient p) then
          errorf p "unexpected end of input: %d element(s) still open" p.depth
        else if not (at_eof p) then begin
          fault p "NUL byte in content";
          advance p;
          next_raw p
        end
        else if p.depth = 0 then begin
          (* lenient document-sequence mode after extra roots *)
          p.phase <- Done;
          None
        end
        else begin
          faultf p "unexpected end of input: auto-closing %d open element(s)"
            p.depth;
          match close_all_open p with
          | [] -> next_raw p
          | first :: queued ->
            pending_push_all p queued;
            Some first
        end
      | '<' -> (
        advance p;
        match peek p with
        | '/' -> (
          advance p;
          match end_element p with
          | Some ev -> Some ev
          | None -> next_raw p)
        | '!' -> (
          advance p;
          match peek p with
          | '-' ->
            advance p;
            Some (read_comment p)
          | '[' ->
            advance p;
            (match read_cdata p with
            | Event.Text "" -> next_raw p
            | other -> Some other)
          | c -> errorf p "unexpected declaration starting with %C" c)
        | '?' ->
          advance p;
          let target, content = read_pi p in
          Some (Event.Processing_instruction { target; content })
        | _ -> Some (start_element p))
      | _ ->
        let text = read_text p in
        if String.length text = 0 then next_raw p else Some (Event.Text text)))

(* In lenient mode every remaining well-formedness error resynchronizes:
   record the fault, make at least one byte of progress, skip to the next
   tag boundary and try again. Every '<'-initiated construct consumes the
   '<' before it can fail, so the retry is guaranteed to advance.
   [Limit_exceeded] is a resource guard, not a recoverable fault: it
   propagates in both modes. *)
let rec next_mode p =
  match p.mode with
  | Strict -> next_raw p
  | Lenient -> (
    let before = p.offset in
    try next_raw p with
    | Error (pos, msg) ->
      fault_at p pos msg;
      if p.offset = before && not (at_eof p) then advance p;
      while (not (Char.equal (peek p) '<')) && not (Char.equal (peek p) '\000')
      do
        advance p
      done;
      next_mode p)

let next p =
  match next_mode p with
  | Some _ as result ->
    Tel.incr counter_events;
    result
  | None -> None

let iter f p =
  let rec loop () =
    match next p with
    | None -> ()
    | Some ev ->
      f ev;
      loop ()
  in
  loop ()

let fold f init p =
  let rec loop acc =
    match next p with
    | None -> acc
    | Some ev -> loop (f acc ev)
  in
  loop init

let events_of_string ?limits ?mode ?on_fault s =
  let p = of_string ?limits ?mode ?on_fault s in
  List.rev (fold (fun acc ev -> ev :: acc) [] p)
