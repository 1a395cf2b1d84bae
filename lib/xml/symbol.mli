(** Interned element-name symbols.

    Every distinct element name is interned exactly once — at parse time
    for streamed documents, at compile time for query name tests — into a
    process-global table mapping the name to a small dense integer. All
    per-event work downstream (engine relevance candidates, the shared
    dispatch index, item identity) indexes arrays by the symbol id; the
    string is rendered back only at emission or serialization.

    {b Lifetime.} The table is global and append-only between {!reset}
    calls. Ids are stable within a {e generation}: everything that caches
    a symbol (compiled engines, YFilter automata, DOM trees, buffered
    events) must be created and consumed within one generation. Engines
    resolve their name tests at creation time — once per run, never per
    event — so resetting between documents and starting fresh runs is
    safe; see the "Interned-symbol event core" section of DESIGN.md. *)

type t = int
(** A symbol id: a dense non-negative integer, comparable with [=] and
    directly usable as an array index (kept transparent for exactly that
    reason — the engine and the dispatch index are arrays over ids). *)

val none : t
(** A sentinel ([-1]) that is never returned by {!intern}; used for
    "no name test" slots (wildcards, the query root). *)

val intern : string -> t
(** Intern a name, returning its id. Idempotent within a generation:
    interning the same string twice returns the same id. *)

val intern_sub : bytes -> int -> int -> t
(** [intern_sub buf off len] is [intern (Bytes.sub_string buf off len)]
    without the copy when the name was seen before: a small direct-mapped
    cache, keyed by a hash of the slice and confirmed against the
    canonical name, sits in front of the table, so a hit allocates
    nothing. {!name} of the result is the canonical string shared by
    every occurrence. The cache is emptied by {!reset}.
    @raise Invalid_argument if the slice is not within [buf]. *)

val find : string -> t option
(** The id of an already-interned name, without interning it. *)

val name : t -> string
(** The name behind an id — an O(1) array load.
    @raise Invalid_argument on {!none} or a stale id from a previous
    generation that has not been re-interned. *)

val matches_wildcard : t -> bool
(** Whether the symbol's name matches the wildcard node test [*]:
    precomputed at intern time, mirroring
    [Xaos_xpath.Ast.test_matches Wildcard] (everything except
    ['#']-prefixed virtual names such as ["#root"]). [false] on
    {!none}. *)

val count : unit -> int
(** Number of symbols interned in the current generation. Ids are exactly
    [0 .. count () - 1]. *)

val generation : unit -> int
(** Incremented by every {!reset}; lets holders of cached symbols detect
    staleness in assertions/tests. *)

val reset : unit -> unit
(** Empty the table and start a new generation. Ids handed out before the
    reset become meaningless; re-intern after resetting. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Debug printer, e.g. [item#3]. *)
