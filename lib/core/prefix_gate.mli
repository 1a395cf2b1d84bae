(** Shared-prefix automaton front-end: a payload-polymorphic
    generalization of the YFilter baseline's prefix-sharing trie
    (see {!Xaos_baseline.Yfilter}, Diao et al., which now delegates its
    matching to this module).

    Prefixes are linear runs of [child]/[descendant] steps with name or
    wildcard tests, evaluated from the document root. All registered
    prefixes share one trie; a document is walked with a stack of active
    state sets, and each element reports the payloads whose prefix it
    completes. Shared prefixes cost one state-set entry no matter how
    many payloads hang off them — the YFilter scalability property.

    {!Query_set} uses this as the dispatch front-end for whole-query-set
    compaction: payloads are dense equivalence-class indices (see
    {!Query.class_key}), class engines stay dormant until the gate
    accepts one of their {!Query.gate_prefixes}, and are then attached
    mid-document through the open-chain replay machinery.

    {b Cost model.} Transitions are indexed by symbol: a start element
    costs O(active states) hashed integer lookups — one per active state
    and axis with a named edge out of it, plus a field load per wildcard
    edge — independent of how many edges a state has (a topic-pinned
    subscription set hangs hundreds of [//topicN] edges off the root).
    An end element is O(1). Neither allocates, except the returned list
    when payloads are accepted and the run's stack growing (amortized,
    with the document's depth and active-state count). {!add} is O(prefix length), so building
    a trie is linear in the total number of steps.

    {b Stamps.} Each {!start_element} takes a fresh stamp from a
    counter in the trie and marks the nodes it activates with it, which
    is how a node reached by several edges is activated once. Stamps
    never repeat, so any number of runs over one trie may be fed
    interleaved on one thread and each reports what it would alone. The
    counter and the marks are plain mutable fields: a trie must not be
    walked from two domains at once ({!Query_set} sessions share their
    trie, and the service broker's lock serializes them). *)

type 'a t
(** The shared trie. Grows by {!add}; never shrinks. *)

val create : unit -> 'a t

val generation : 'a t -> int
(** The symbol-table generation the trie was built in. Edge symbols are
    interned at {!add} time, so the trie is only valid while
    [Xaos_xml.Symbol.generation () = generation t] — rebuild after a
    reset. *)

val add : 'a t -> (Xaos_xpath.Ast.axis * Xaos_xpath.Ast.node_test) list -> 'a -> unit
(** Register a prefix; the payload is reported by every run whenever an
    element completes the prefix.
    @raise Invalid_argument on an empty prefix or a step whose axis is
    not [child]/[descendant]. *)

val state_count : 'a t -> int
(** Number of trie nodes — with shared prefixes, typically far fewer
    than the total number of steps. *)

val payload_count : 'a t -> int
(** Number of {!add}ed prefixes. *)

(** {1 Running} *)

type 'a run
(** A walk over one document. Cheap to start; one per document. *)

val start : 'a t -> 'a run

val start_element : 'a run -> Xaos_xml.Symbol.t -> 'a list
(** Advance on an element-start and return the payloads newly accepted
    at this element (a payload is reported once per accepting element,
    in {!add} order per trie node). Almost always []. *)

val end_element : 'a run -> unit

val feed : 'a run -> Xaos_xml.Event.t -> 'a list
(** Event-driven convenience over {!start_element}/{!end_element}; text,
    comment and PI events return []. *)
