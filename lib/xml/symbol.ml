(* Process-global interning table. One array-backed side table per
   property keeps [name] and [matches_wildcard] O(1) loads with no
   hashing: the hot path of the engine and the dispatch index only ever
   touches the integer ids. *)

type t = int

let none = -1

let initial = 256

let table : (string, int) Hashtbl.t = Hashtbl.create initial

let names = ref (Array.make initial "")

(* '\001' iff the symbol's name matches the wildcard node test: nonempty
   names not starting with '#' ('#' is not an XML name character, so only
   virtual elements such as the "#root" wrapper carry it). Must mirror
   [Xaos_xpath.Ast.test_matches Wildcard]. *)
let wild = ref (Bytes.make initial '\000')

let size = ref 0

let generation_counter = ref 0

let ensure_capacity n =
  let cap = Array.length !names in
  if n > cap then begin
    let cap' = max n (2 * cap) in
    let names' = Array.make cap' "" in
    Array.blit !names 0 names' 0 !size;
    names := names';
    let wild' = Bytes.make cap' '\000' in
    Bytes.blit !wild 0 wild' 0 !size;
    wild := wild'
  end

let intern s =
  match Hashtbl.find table s with
  | id -> id
  | exception Not_found ->
    let id = !size in
    ensure_capacity (id + 1);
    size := id + 1;
    !names.(id) <- s;
    if String.length s = 0 || not (Char.equal s.[0] '#') then
      Bytes.set !wild id '\001';
    Hashtbl.add table s id;
    id

(* The slice cache: a direct-mapped table from a hash of the name's bytes
   to the id last interned under that hash (4096 ints, 32 KB). A hit is
   confirmed by comparing the slice with the canonical name, so a
   collision only costs a miss; a miss interns a copy of the slice and
   takes the slot. *)
let cache_mask = 4095

let cache = Array.make (cache_mask + 1) none

let rec slice_hash buf i stop h =
  if i >= stop then h
  else
    slice_hash buf (i + 1) stop
      ((h lxor Char.code (Bytes.unsafe_get buf i)) * 16777619)

let rec same_bytes buf off s i len =
  i >= len
  || Char.equal (Bytes.unsafe_get buf (off + i)) (String.unsafe_get s i)
     && same_bytes buf off s (i + 1) len

let intern_sub buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Symbol.intern_sub";
  let h = slice_hash buf off (off + len) 0x811c9dc5 in
  let slot = (h lxor (h lsr 21)) land cache_mask in
  let id = Array.unsafe_get cache slot in
  if id >= 0
     && (let s = Array.unsafe_get !names id in
         String.length s = len && same_bytes buf off s 0 len)
  then id
  else begin
    let id = intern (Bytes.sub_string buf off len) in
    Array.unsafe_set cache slot id;
    id
  end

let find s = Hashtbl.find_opt table s

let name id =
  if id < 0 || id >= !size then
    invalid_arg (Printf.sprintf "Symbol.name: unknown symbol %d" id)
  else !names.(id)

let matches_wildcard id =
  id >= 0 && id < !size && Char.equal (Bytes.unsafe_get !wild id) '\001'

let count () = !size

let generation () = !generation_counter

let reset () =
  Hashtbl.reset table;
  Array.fill cache 0 (Array.length cache) none;
  Bytes.fill !wild 0 !size '\000';
  Array.fill !names 0 !size "";
  size := 0;
  incr generation_counter

let equal (a : t) (b : t) = a = b

let compare (a : t) (b : t) = Int.compare a b

let pp ppf id =
  if id < 0 || id >= !size then Format.fprintf ppf "?%d" id
  else Format.fprintf ppf "%s#%d" !names.(id) id
