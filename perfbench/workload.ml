(* Inputs of the three workloads, all derived from the seed. The program
   under test receives only what is built here: documents and query
   strings. *)

module Prng = Xaos_workloads.Prng

type kind = Xmark_stream | Pubsub_selective | Pubsub_fanout

let kinds =
  [ ("xmark-stream", Xmark_stream); ("pubsub-selective", Pubsub_selective);
    ("pubsub-fanout", Pubsub_fanout) ]

let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* {1 xmark-stream} *)

(* Scale 2.3 of Xaos_workloads.Xmark writes about 100 MB. *)
let xmark_scale = 2.3

(* The Figure 5 query, one forward-predicate query, and two
   high-retention backward-axis queries that keep much of the document
   live in matching structures. *)
let xmark_queries =
  [ "//listitem/ancestor::category//name";
    "//item[incategory and mailbox]/name";
    "//text/parent::*[ancestor::description]";
    "//listitem//text/ancestor::item[mailbox]/name" ]

(* {1 Topic-feed documents}

   The shape of bench/filtering.ml: a feed of [topics_per_doc] topic
   sections drawn from [topic_count] topic tags, each with
   [items_per_topic] items, about 28 KB per document. *)

let topics_per_doc = 6

let items_per_topic = 160

let topic i = Printf.sprintf "topic%03d" i

let feed_document ~topic_count rng =
  let buf = Buffer.create 32768 in
  Buffer.add_string buf "<feed><channel>";
  for _ = 1 to topics_per_doc do
    let t = topic (Prng.int rng topic_count) in
    Printf.bprintf buf "<%s>" t;
    for i = 1 to items_per_topic do
      Printf.bprintf buf "<item><name>n%d</name></item>" i
    done;
    Printf.bprintf buf "</%s>" t
  done;
  Buffer.add_string buf "</channel></feed>";
  Buffer.contents buf

type subscription = {
  sub_name : string;
  query : string;
  earliest : bool;
}

type pubsub = {
  subs : subscription list;  (** registered before the run, oracle-checked *)
  churn : string array;  (** queries the churn stream subscribes, exempt *)
  docs : string array;  (** the document pool, published cyclically *)
}

let subscription_count = 1000

(* Distinct documents in the pool. Publishing cycles through them under
   fresh document ids; the pool bounds the oracle's cost, which runs
   every distinct query on every event of every pooled document: about
   0.4 s per document for selective's 1000 distinct queries, 0.02 s for
   fanout's 50. *)
let pool_size = function Pubsub_fanout -> 96 | _ -> 24

(* selective: nearly every subscription is pinned to a topic the
   document lacks; a fifth use a backward axis. Forms cycle with the
   subscription index, so the seed moves only the topics. *)
let selective_topics = 400

let selective_query rng i =
  let t = topic (Prng.int rng selective_topics) in
  match i mod 5 with
  | 0 -> Printf.sprintf "//%s/item" t
  | 1 -> Printf.sprintf "/feed/channel/%s//name" t
  | 2 -> Printf.sprintf "//%s//name" t
  | 3 -> Printf.sprintf "//%s//name/parent::item" t
  | _ -> Printf.sprintf "//%s/item[name]" t

(* fanout: 50 distinct queries, each on its own topic out of 100, so
   every document section has an even chance of one matching class, and
   20 subscribers per query (one engine class each). Queries 0-24 are
   subscribed in earliest mode and select one item per matching
   document. That gives about 30 item and 55 match frames per document
   (at most about 240), all to the one subscriber connection: at about
   400 frames per document the closed loop overflowed the server's
   per-client out-queue (1024 frames) and frames were dropped. The query
   forms cycle with the query index and the topics are a permutation, so
   the seed moves which topics and item names, not the mix of query
   shapes or how many topics are covered. *)
let fanout_topics = 100

let fanout_distinct = 50

let fanout_query rng t i =
  let t = topic t in
  let n = 1 + Prng.int rng items_per_topic in
  if i < fanout_distinct / 2 then
    match i mod 3 with
    | 0 -> Printf.sprintf "//%s/item[name[text()='n%d']]" t n
    | 1 -> Printf.sprintf "//%s//name[text()='n%d']/parent::item" t n
    | _ -> Printf.sprintf "//item[name[text()='n%d']][ancestor::%s]" n t
  else
    match i mod 4 with
    | 0 -> Printf.sprintf "//%s/item" t
    | 1 -> Printf.sprintf "//%s//name/parent::item" t
    | 2 -> Printf.sprintf "//name/ancestor::%s" t
    | _ -> Printf.sprintf "/feed/channel/%s//name" t

let distinct_draws draw count =
  let seen = Hashtbl.create count in
  let rec go acc i =
    if i = count then List.rev acc
    else
      let q = draw i in
      if Hashtbl.mem seen q then go acc i
      else begin
        Hashtbl.add seen q ();
        go (q :: acc) (i + 1)
      end
  in
  go [] 0

(* Chaos byte faults on a fixed share of the fanout pool (one document in
   16): lenient recovery repairs them, and the oracle parses the same
   faulted bytes. *)
let fault_every = 16

let fault_kinds = [ Xaos_xml.Chaos.Corrupt_tag; Xaos_xml.Chaos.Truncate ]

let pubsub kind ~seed =
  let rng = Prng.create seed in
  let q_rng = Prng.split rng and d_rng = Prng.split rng in
  match kind with
  | Pubsub_selective ->
    let queries =
      distinct_draws (fun i -> selective_query q_rng i) subscription_count
    in
    { subs =
        List.mapi
          (fun i q -> { sub_name = Printf.sprintf "s%d" i; query = q;
                        earliest = false })
          queries;
      churn = [||];
      docs =
        Array.init (pool_size kind) (fun _ ->
            feed_document ~topic_count:selective_topics d_rng) }
  | Pubsub_fanout ->
    let topics = Array.init fanout_topics Fun.id in
    for i = fanout_topics - 1 downto 1 do
      let j = Prng.int q_rng (i + 1) in
      let x = topics.(i) in
      topics.(i) <- topics.(j);
      topics.(j) <- x
    done;
    let pool =
      Array.init fanout_distinct (fun i -> fanout_query q_rng topics.(i) i)
    in
    let subs =
      List.init subscription_count (fun i ->
          let k = i mod fanout_distinct in
          { sub_name = Printf.sprintf "s%d" i; query = pool.(k);
            earliest = k < fanout_distinct / 2 })
    in
    let docs =
      Array.init (pool_size kind) (fun i ->
          let doc = feed_document ~topic_count:fanout_topics d_rng in
          if i mod fault_every <> 0 then doc
          else
            Xaos_xml.Chaos.corrupt
              (Xaos_xml.Chaos.plan ~kinds:fault_kinds ~seed ~rate:1.0 i)
              doc)
    in
    { subs; churn = pool; docs }
  | Xmark_stream -> invalid_arg "Workload.pubsub: not a pub/sub workload"
