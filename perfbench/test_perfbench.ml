(* The benchmark's own arithmetic: percentile selection, open-loop
   timing, self-time subtraction, capacity and failure accounting. *)

open Xaos_perfbench

let close = Alcotest.float 1e-9

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  Alcotest.check close "odd" 3. (Measure.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even averages the middle pair" 2.5
    (Measure.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Measure.median []))

let test_tail_p99_when_supported () =
  (* 2000 samples: rank 1980 has 20 beyond it, so p99 itself *)
  let t = Measure.tail (samples 2000) in
  Alcotest.check close "percentile" 99. t.percentile;
  Alcotest.check close "value at rank 1980" 1980. t.value;
  Alcotest.(check int) "beyond" 20 t.beyond

let test_tail_falls_back_to_ten_beyond () =
  (* 200 samples: p99 (rank 198) has 2 beyond; rank 190 has 10 *)
  let t = Measure.tail (samples 200) in
  Alcotest.check close "percentile" 95. t.percentile;
  Alcotest.check close "value" 190. t.value;
  Alcotest.(check int) "exactly ten beyond" 10 t.beyond;
  (* exactly at the boundary: 1000 samples, rank 990 has 10 beyond *)
  let t = Measure.tail (samples 1000) in
  Alcotest.check close "p99 at the boundary" 99. t.percentile;
  Alcotest.(check int) "ten beyond" 10 t.beyond

let test_tail_never_below_median () =
  let t = Measure.tail (samples 12) in
  Alcotest.check close "the median" 6.5 t.value;
  Alcotest.check close "p50" 50. t.percentile;
  let t = Measure.tail [ 7. ] in
  Alcotest.check close "single sample" 7. t.value;
  Alcotest.(check bool) "unsorted input" true
    ((Measure.tail (List.rev (samples 200))).value = 190.)

let test_open_loop_timing () =
  (* the generator sent 40 ms late; latency still counts from the
     scheduled instant *)
  let t = { Measure.scheduled = 1.0; sent = 1.04; completed = Some 1.10 } in
  Alcotest.(check (option close)) "latency from schedule" (Some 0.10)
    (Option.map (fun x -> Float.round (x *. 1e6) /. 1e6) (Measure.latency t));
  Alcotest.check close "lag" 0.04 (Float.round (Measure.lag t *. 1e6) /. 1e6);
  Alcotest.(check (option close)) "never completed" None
    (Measure.latency { t with completed = None })

let test_self_time () =
  Alcotest.check close "broker minus sax and query_set" 2.
    (Measure.self_time ~rung:10. ~contains:[ 5.; 3. ]);
  Alcotest.check close "no children" 4. (Measure.self_time ~rung:4. ~contains:[]);
  (* self times of a ladder add back up to the top rung *)
  let sax = 3. and qs_rung = 7. and broker = 12. in
  let qs_self = Measure.self_time ~rung:qs_rung ~contains:[ sax ] in
  let broker_self = Measure.self_time ~rung:broker ~contains:[ sax; qs_self ] in
  Alcotest.check close "conservation" broker (sax +. qs_self +. broker_self)

let test_capacity () =
  (* 6 completions inside a 1.5 s window, one before and one after it *)
  let times = [ -0.1; 0.1; 0.5; 1.1; 1.2; 1.3; 1.4; 1.5 ] in
  Alcotest.check close "per second" 4.
    (Measure.rate ~origin:0. ~seconds:1.5 (List.map (fun t -> (t, 1.)) times));
  Alcotest.check close "weighted" 8.
    (Measure.rate ~origin:0. ~seconds:1.5 (List.map (fun t -> (t, 2.)) times));
  Alcotest.check close "mean over servers" 150. (Measure.mean [ 130.; 170.; 150. ])

let v = Measure.ok_verdict

let test_failed_frac () =
  let verdicts =
    [ v; v; { v with shed = true }; { v with timed_out = true };
      { v with unpredicted_end = true; mismatch = true }; v; v; v ]
  in
  let t = Measure.tally verdicts in
  Alcotest.(check int) "attempted" 8 t.attempted;
  Alcotest.(check int) "a document fails once however many reasons" 3 t.failed_docs;
  Alcotest.(check int) "mismatches" 1 t.mismatches;
  Alcotest.check close "failed_frac" 0.375 (Measure.failed_frac t);
  (* dropped frames are a floor on failures, not an addition *)
  Alcotest.(check int) "dropped below failures" 3
    (Measure.tally ~dropped:2 verdicts).failed_docs;
  Alcotest.(check int) "dropped above failures" 5
    (Measure.tally ~dropped:5 verdicts).failed_docs;
  Alcotest.(check int) "capped at attempted" 8
    (Measure.tally ~dropped:50 verdicts).failed_docs;
  Alcotest.check close "nothing attempted" 0. (Measure.failed_frac (Measure.tally []))

let seen =
  { Measure.refused = false; processed = true; completed = true;
    bad_end = false; same_output = true }

let test_verdict () =
  let check name expected s =
    Alcotest.(check (list bool)) name expected
      (let v = Measure.verdict s in
       [ v.shed; v.timed_out; v.unpredicted_end; v.mismatch ])
  in
  check "as the oracle predicted" [ false; false; false; false ] seen;
  check "refused is shed" [ true; false; false; false ] { seen with refused = true };
  check "no processed frame is a timeout" [ false; true; false; false ]
    { seen with processed = false; completed = false };
  (* the server reported the document but fewer result frames came than
     the oracle expects: lost output, not a timeout *)
  check "processed with frames missing is a mismatch" [ false; false; false; true ]
    { seen with completed = false };
  check "processed with other match counts is a mismatch"
    [ false; false; false; true ] { seen with same_output = false };
  check "unpredicted end" [ false; false; true; false ] { seen with bad_end = true };
  (* every one of them fails the document, so the run *)
  Alcotest.(check int) "all but the first fail" 5
    (Measure.tally
       (List.map Measure.verdict
          [ seen; { seen with refused = true }; { seen with processed = false };
            { seen with completed = false }; { seen with same_output = false };
            { seen with bad_end = true } ]))
      .failed_docs

let test_item_id () =
  Alcotest.(check (option int)) "result line" (Some 1234)
    (Evalrun.item_id "name(1234)@5");
  Alcotest.(check (option int)) "not a result" None (Evalrun.item_id "12")

let () =
  Alcotest.run "perfbench"
    [ ("percentiles",
       [ Alcotest.test_case "median" `Quick test_median;
         Alcotest.test_case "p99 when supported" `Quick test_tail_p99_when_supported;
         Alcotest.test_case "ten samples beyond" `Quick test_tail_falls_back_to_ten_beyond;
         Alcotest.test_case "never below the median" `Quick test_tail_never_below_median ]);
      ("timing",
       [ Alcotest.test_case "open loop from schedule" `Quick test_open_loop_timing;
         Alcotest.test_case "self time" `Quick test_self_time;
         Alcotest.test_case "capacity" `Quick test_capacity ]);
      ("accounting",
       [ Alcotest.test_case "failed_frac" `Quick test_failed_frac;
         Alcotest.test_case "document verdict" `Quick test_verdict;
         Alcotest.test_case "eval output" `Quick test_item_id ]) ]
