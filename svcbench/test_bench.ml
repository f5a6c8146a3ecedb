(* Unit tests for the service benchmark's measurement rules. *)

module B = Bench_stats

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)

let samples n = List.init n (fun i -> float_of_int (i + 1))

(* A percentile is reported only with ten samples beyond it: p99 needs
   1000 samples, p99.9 needs 10000. *)
let percentile_ten_beyond () =
  let tail n = Option.map fst (B.tail_percentile (samples n)) in
  let check name want n = Alcotest.(check (option (float 0.))) name want (tail n) in
  check "100000" (Some 99.99) 100_000;
  check "10000" (Some 99.9) 10_000;
  check "9999" (Some 99.) 9999;
  check "1000" (Some 99.) 1000;
  check "999" (Some 95.) 999;
  check "200" (Some 95.) 200;
  check "20" (Some 50.) 20;
  check "19" None 19;
  Alcotest.(check (option (pair (float 0.) (float 0.))))
    "value is the nearest rank" (Some (99., 990.)) (B.tail_percentile (samples 1000))

(* Latency runs from the due time: a transaction due at 1.0 s that the
   driver only submitted at 1.2 s and that settled at 1.25 s waited
   250 ms, not 50. *)
let due_time_latency () =
  check_float "from due" 250. (B.latency_ms ~due:1.0 ~settled:1.25);
  let w =
    B.account ~start:0. ~stop:10.
      [ { B.due = 1.0; settled = Some 1.25; committed = true } ]
  in
  Alcotest.(check (list (float 1e-9))) "window latency" [ 250. ] w.B.latencies_ms

let window_accounting () =
  let l due settled committed = { B.due; settled; committed } in
  let w =
    B.account ~start:5. ~stop:10.
      [
        l 4.9 (Some 5.5) true (* warm-up: not counted *);
        l 5.0 (Some 5.3) true (* on the start edge: counted *);
        l 6.0 (Some 6.1) true;
        l 7.0 (Some 7.5) false (* retries exhausted *);
        l 9.5 (Some 12.0) true (* due inside, settles after: counted *);
        l 9.9 None false (* never settled *);
        l 10.0 (Some 10.1) true (* on the stop edge: not counted *);
      ]
  in
  check_int "due" 5 w.B.due_in;
  check_int "committed" 3 w.B.committed;
  check_int "unsettled" 1 w.B.unsettled;
  Alcotest.(check (list (float 1e-6)))
    "latencies of commits" [ 100.; 300.; 2500. ]
    (List.sort compare w.B.latencies_ms)

let () =
  Alcotest.run "svcbench"
    [
      ("percentile", [ Alcotest.test_case "ten-beyond" `Quick percentile_ten_beyond ]);
      ( "window",
        [
          Alcotest.test_case "due-time-latency" `Quick due_time_latency;
          Alcotest.test_case "accounting" `Quick window_accounting;
        ] );
    ]
