(* The benchmark's own arithmetic, kept pure so test_perfbench.ml can pin
   it: percentile selection, open-loop timing, capacity, self-time
   subtraction and failure accounting. *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of [sorted] at rank [k] (1-based). *)
let at_rank sorted k = sorted.(max 0 (min (Array.length sorted - 1) (k - 1)))

type tail = {
  percentile : float;  (** the percentile actually reported, e.g. 99. *)
  value : float;
  beyond : int;  (** samples strictly above the reported rank *)
}

(* The tail percentile: p99 when at least 10 samples lie beyond its rank,
   otherwise the highest percentile that still has 10 beyond it, and
   never less than the median itself. A small run therefore reports a
   lower percentile instead of its maximum, which is one sample and does
   not repeat. *)
let tail samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then { percentile = nan; value = nan; beyond = 0 }
  else
    let k = min (int_of_float (ceil (0.99 *. float_of_int n))) (n - 10) in
    if 2 * k <= n then
      { percentile = 50.; value = median samples; beyond = n - ((n + 1) / 2) }
    else
      { percentile = 100. *. float_of_int k /. float_of_int n;
        value = at_rank a k; beyond = n - k }

(* Open-loop timing: every request is timed from the instant it was due,
   not from the instant the generator got round to sending it, so a stall
   that delays later sends is charged to them ("coordinated omission").
   [lag] is how late the generator itself ran. *)
type timed = {
  scheduled : float;
  sent : float;
  completed : float option;  (** [None]: never completed *)
}

let latency t =
  Option.map (fun c -> c -. t.scheduled) t.completed

let lag t = t.sent -. t.scheduled

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Closed-loop capacity: completions, each with a weight (1, or its
   bytes), that fall in [origin, origin + seconds), per second. *)
let rate ~origin ~seconds events =
  List.fold_left
    (fun acc (t, w) -> if t >= origin && t < origin +. seconds then acc +. w else acc)
    0. events
  /. seconds

(* Self time of a layer: its rung minus the rungs it contains. *)
let self_time ~rung ~contains = rung -. List.fold_left ( +. ) 0. contains

(* Per-document verdicts, summed into [failed_frac]. A document fails on
   any one of these, and any failed document fails the whole run. *)
type doc_verdict = {
  shed : bool;  (** refused or displaced by admission control *)
  timed_out : bool;
  unpredicted_end : bool;  (** deadline, limit or abort the oracle did not predict *)
  mismatch : bool;  (** output differs from the oracle *)
}

let ok_verdict =
  { shed = false; timed_out = false; unpredicted_end = false;
    mismatch = false }

let failed v = v.shed || v.timed_out || v.unpredicted_end || v.mismatch

(* What the client saw of one published document by the end of the run. *)
type seen = {
  refused : bool;  (** the publish was answered [ok: false] *)
  processed : bool;  (** its [processed] frame arrived *)
  completed : bool;  (** processed, and every frame the oracle expects arrived *)
  bad_end : bool;  (** the [processed] frame reports an end the oracle did not predict *)
  same_output : bool;
      (** the [processed] frame's match counts and every result frame
          equal the oracle's *)
}

(* Only a document the server never reported on has timed out. One it
   reported on whose result frames fell short has lost output, which is
   a mismatch: missing results are how a broken dispatch shows. *)
let verdict s =
  if s.refused then { ok_verdict with shed = true }
  else if not s.processed then { ok_verdict with timed_out = true }
  else
    { ok_verdict with
      unpredicted_end = s.bad_end;
      mismatch = (not s.completed) || not s.same_output }

type tally = {
  attempted : int;
  failed_docs : int;
  mismatches : int;
}

(* A frame the server dropped ([server/dropped_responses]) belongs to a
   document the client cannot always name: usually that document then
   times out and is already counted, so [dropped] is a floor on the
   failures, not an addition to them. *)
let tally ?(dropped = 0) verdicts =
  let attempted = List.length verdicts in
  let f = List.length (List.filter failed verdicts) in
  let mismatches = List.length (List.filter (fun v -> v.mismatch) verdicts) in
  { attempted; failed_docs = min attempted (max f dropped); mismatches }

let failed_frac t =
  if t.attempted = 0 then 0.
  else float_of_int t.failed_docs /. float_of_int t.attempted
