(* Tests for the live-telemetry layer: windowed time-series conservation,
   OpenMetrics exposition (escaping, ordering, validator, bucket
   cumulativity), SLO parsing and burn-rate verdicts, the flight
   recorder's bounded ring, and an end-to-end loadgen run with every
   telemetry output armed. *)

module Metrics = Mdbs_obs.Metrics
module Timeseries = Mdbs_obs.Timeseries
module Export = Mdbs_obs.Export
module Slo = Mdbs_obs.Slo
module Flight = Mdbs_obs.Flight
module Obs = Mdbs_obs.Obs
module Json = Mdbs_util.Json
module Loadgen = Mdbs_svc.Loadgen
module Runtime = Mdbs_svc.Runtime
module Registry = Mdbs_core.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let ok_or_fail what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* ---------------------------------------------------------- openmetrics *)

let export_escaping () =
  let m = Metrics.create () in
  Metrics.inc
    (Metrics.counter m
       ~labels:[ ("path", "a\\b\"c\nd") ]
       "weird_total");
  let text = Export.to_openmetrics (Metrics.snapshot m) in
  check_bool "escaped backslash, quote, newline" true
    (let needle = {|path="a\\b\"c\nd"|} in
     let rec find i =
       i + String.length needle <= String.length text
       && (String.sub text i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  ok_or_fail "escaped exposition validates" (Export.validate text)

let export_label_order () =
  (* Label registration order never changes the exposition: keys sort
     their labels. *)
  let render labels =
    let m = Metrics.create () in
    Metrics.inc (Metrics.counter m ~labels "x_total");
    Export.to_openmetrics (Metrics.snapshot m)
  in
  check_string "label order canonical"
    (render [ ("a", "1"); ("b", "2") ])
    (render [ ("b", "2"); ("a", "1") ])

let export_counter_family () =
  let m = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter m "svc_committed_total");
  let text = Export.to_openmetrics (Metrics.snapshot m) in
  check_bool "family drops _total" true
    (List.exists
       (fun l -> l = "# TYPE svc_committed counter")
       (String.split_on_char '\n' text));
  check_bool "sample keeps _total" true
    (List.mem "svc_committed_total 3" (String.split_on_char '\n' text))

let validator_rejects () =
  let bad =
    [
      ("missing EOF", "# TYPE x counter\nx_total 1\n");
      ( "non-cumulative buckets",
        "# TYPE h histogram\nh_bucket{le=\"1.0\"} 5\nh_bucket{le=\"2.0\"} \
         3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1.0\nh_count 5\n# EOF\n" );
      ( "inf/count mismatch",
        "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 4\nh_sum 1.0\nh_count \
         5\n# EOF\n" );
      ("sample without family", "# TYPE x counter\ny_total 1\n# EOF\n");
      ("bad name", "# TYPE 9x counter\n9x_total 1\n# EOF\n");
    ]
  in
  List.iter
    (fun (what, text) ->
      match Export.validate text with
      | Ok () -> Alcotest.failf "validator accepted %s" what
      | Error _ -> ())
    bad

(* Random registry -> exposition -> validator. The validator re-derives
   bucket cumulativity and the +Inf/_count agreement, so this doubles as
   the histogram-correctness property. *)
let qcheck_roundtrip =
  QCheck.Test.make ~name:"openmetrics: render/validate round-trip" ~count:100
    QCheck.(small_list (pair (int_bound 500) (float_bound_exclusive 100.)))
    (fun samples ->
      let m = Metrics.create () in
      let c = Metrics.counter m ~labels:[ ("k", "v") ] "events_total" in
      let g = Metrics.gauge m "depth" in
      let h =
        Metrics.histogram m ~bounds:[| 1.0; 5.0; 25.0 |] "lat_ms"
      in
      List.iter
        (fun (n, x) ->
          Metrics.inc ~by:n c;
          Metrics.set g (float_of_int n);
          Metrics.observe h x)
        samples;
      match Export.validate (Export.to_openmetrics (Metrics.snapshot m)) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------- histogram snap *)

let overflow_surfaced () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~bounds:[| 1.0; 2.0 |] "h_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 10.0; 20.0; 30.0 ];
  let snap = Metrics.snapshot m in
  let hs = List.assoc (Metrics.key "h_ms") snap.Metrics.histograms in
  check_int "overflow counts samples past the last edge" 3
    hs.Metrics.overflow;
  check_int "count includes overflow" 5 hs.Metrics.count;
  (* merge_snaps adds overflow too. *)
  check_int "merged overflow" 6 (Metrics.merge_snaps hs hs).Metrics.overflow;
  let text = Export.to_openmetrics snap in
  check_bool "+Inf bucket equals count" true
    (List.mem "h_ms_bucket{le=\"+Inf\"} 5" (String.split_on_char '\n' text))

(* ------------------------------------------------------------ timeseries *)

(* Conservation: however increments and observations interleave with
   flushes, summing each name's deltas over all windows reproduces the
   final run-level aggregate exactly. *)
let qcheck_conservation =
  QCheck.Test.make ~name:"timeseries: window deltas conserve totals"
    ~count:100
    QCheck.(
      pair (int_range 1 6)
        (small_list (pair (int_bound 2) (int_bound 50))))
    (fun (n_flushes, ops) ->
      let m = Metrics.create () in
      let ts = Timeseries.create ~ring:4 ~interval_ms:10. m in
      let c = Metrics.counter m "c_total" in
      let c2 = Metrics.counter m ~labels:[ ("s", "1") ] "c_total" in
      let h = Metrics.histogram m ~bounds:[| 1.0; 8.0 |] "h_ms" in
      let committed = ref [] in
      let now = ref 0.0 in
      let flush () =
        now := !now +. 10.;
        committed := Timeseries.flush ts ~now_ms:!now :: !committed
      in
      let per_flush = max 1 (List.length ops / n_flushes) in
      List.iteri
        (fun i (kind, v) ->
          (match kind with
          | 0 -> Metrics.inc ~by:v c
          | 1 -> Metrics.inc ~by:v c2
          | _ -> Metrics.observe h (float_of_int v))
        ;
          if (i + 1) mod per_flush = 0 then flush ())
        ops;
      flush ();
      (* The ring only keeps 4 windows; conservation is over the stream,
         which [committed] captured in full. *)
      let windows = List.rev !committed in
      let snap = Metrics.snapshot m in
      let total_c = Metrics.sum_counter snap "c_total" in
      let windowed_c =
        List.fold_left
          (fun acc w -> acc + Timeseries.sum_counter w "c_total")
          0 windows
      in
      let total_h =
        match Metrics.sum_hist snap "h_ms" with
        | Some hs -> hs.Metrics.count
        | None -> 0
      in
      let windowed_h =
        List.fold_left
          (fun acc w ->
            acc
            + (match Timeseries.sum_hist w "h_ms" with
              | Some hs -> hs.Metrics.count
              | None -> 0))
          0 windows
      in
      total_c = windowed_c && total_h = windowed_h
      && Timeseries.flushed ts = List.length windows
      && List.length (Timeseries.windows ts) <= 4)

let timeseries_basics () =
  let m = Metrics.create () in
  let ts = Timeseries.create ~ring:2 ~interval_ms:100. m in
  check_bool "not due at creation+50" false (Timeseries.due ts ~now_ms:50.);
  check_bool "due at 100" true (Timeseries.due ts ~now_ms:100.);
  let c = Metrics.counter m "n_total" in
  let g = Metrics.gauge m "depth" in
  Metrics.inc ~by:5 c;
  Metrics.set g 3.;
  let w0 = Timeseries.flush ts ~now_ms:100. in
  check_int "delta 5" 5 (Timeseries.sum_counter w0 "n_total");
  check_int "window 0" 0 w0.Timeseries.w_index;
  Metrics.set g 7.;
  let w1 = Timeseries.flush ts ~now_ms:200. in
  (* Zero-delta counters are omitted; gauges report current values. *)
  check_int "no delta -> omitted" 0
    (List.length w1.Timeseries.w_counters);
  check_bool "gauge is current value" true
    (List.exists
       (fun (k, v) -> k = Metrics.key "depth" && v = 7.)
       w1.Timeseries.w_gauges);
  let _ = Timeseries.flush ts ~now_ms:300. in
  check_int "ring bounded" 2 (List.length (Timeseries.windows ts));
  check_int "flushed counts evictions" 3 (Timeseries.flushed ts)

let jsonl_single_line () =
  let m = Metrics.create () in
  let ts = Timeseries.create ~interval_ms:10. m in
  Metrics.observe (Metrics.histogram m "x_ms") 4.2;
  let line = Export.window_to_jsonl (Timeseries.flush ts ~now_ms:10.) in
  check_bool "one line" true (not (String.contains line '\n'));
  match Json.of_string line with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "jsonl reparses: %s" msg

(* ------------------------------------------------------------------- slo *)

let slo_parse () =
  let roundtrip s =
    match Slo.parse s with
    | Ok spec -> spec
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  (match (roundtrip "p99(svc_response_ms) <= 50").Slo.quantity with
  | Slo.Percentile ("svc_response_ms", p) ->
      Alcotest.(check (float 0.001)) "p99" 99. p
  | _ -> Alcotest.fail "expected percentile");
  (match (roundtrip "commit_ratio >= 0.9").Slo.quantity with
  | Slo.Commit_ratio -> ()
  | _ -> Alcotest.fail "expected commit_ratio");
  (match (roundtrip "rate(svc_retries_total) < 10").Slo.quantity with
  | Slo.Rate "svc_retries_total" -> ()
  | _ -> Alcotest.fail "expected rate");
  (match (roundtrip "svc_sheds_total > 5").Slo.quantity with
  | Slo.Delta "svc_sheds_total" -> ()
  | _ -> Alcotest.fail "expected bare delta");
  List.iter
    (fun s ->
      match Slo.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "p99(x)"; "p0(x) <= 5"; "p200(x) <= 5"; "x =< 5"; "mean() <= 1";
      "p99(x) <= nope" ]

let slo_burn_rate () =
  let m = Metrics.create () in
  let ts = Timeseries.create ~interval_ms:10. m in
  let h = Metrics.histogram m ~bounds:[| 1.0; 100.0 |] "r_ms" in
  let spec =
    match Slo.parse "p99(r_ms) <= 50" with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let slo = Slo.create ~slow_windows:4 ~slow_frac:0.5 [ spec ] in
  let window () =
    Timeseries.flush ts ~now_ms:(float_of_int (Timeseries.flushed ts + 1) *. 10.)
  in
  let verdict v = Slo.verdict_to_string v in
  (* Empty window: vacuously good. *)
  let[@warning "-8"] [ e ] = Slo.observe slo (window ()) in
  check_bool "vacuous value" true (e.Slo.value = None);
  check_string "vacuous ok" "ok" (verdict e.Slo.verdict);
  (* Good window. *)
  Metrics.observe h 0.5;
  let[@warning "-8"] [ e ] = Slo.observe slo (window ()) in
  check_string "good ok" "ok" (verdict e.Slo.verdict);
  (* One bad window out of the last 4: fast bad, slow not yet -> warn. *)
  Metrics.observe h 500.;
  let[@warning "-8"] [ e ] = Slo.observe slo (window ()) in
  check_string "first bad is warn" "warn" (verdict e.Slo.verdict);
  (* Second consecutive bad window: bad fraction 2/4 >= 0.5 -> breach. *)
  Metrics.observe h 500.;
  let[@warning "-8"] [ e ] = Slo.observe slo (window ()) in
  check_string "sustained bad is breach" "breach" (verdict e.Slo.verdict);
  let s = Slo.summary slo in
  check_string "worst sticks" "breach" (verdict s.Slo.worst);
  let[@warning "-8"] [ o ] = s.Slo.objectives in
  check_int "windows" 4 o.Slo.o_windows;
  check_int "bad windows" 2 o.Slo.o_bad;
  check_int "breach windows" 1 o.Slo.o_breaches

(* ---------------------------------------------------------------- flight *)

let flight_disabled () =
  let f = Flight.create ~dir:None () in
  check_bool "disabled" false (Flight.enabled f);
  Flight.record f ~ts_ms:1. ~track:0 ~name:"x" [];
  check_int "record is a no-op" 0 (Flight.recorded f);
  check_bool "trigger refuses" true
    (Flight.trigger f ~ts_ms:2. ~reason:"nope" = None)

let flight_dump () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdbs-flight-%d" (Unix.getpid ()))
  in
  let f = Flight.create ~cap:8 ~keep_ms:100. ~max_dumps:1 ~dir:(Some dir) () in
  (* 20 records through a ring of 8: eviction keeps the newest. *)
  for i = 1 to 20 do
    Flight.record f ~ts_ms:(float_of_int i) ~track:(i mod 3)
      ~name:(Printf.sprintf "ev%d" i)
      [ ("i", string_of_int i) ]
  done;
  check_int "all recorded" 20 (Flight.recorded f);
  (match Flight.trigger f ~ts_ms:20. ~reason:"unit/test" with
  | None -> Alcotest.fail "expected a dump"
  | Some path ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Json.of_string text with
      | Error msg -> Alcotest.failf "dump is JSON: %s" msg
      | Ok doc ->
          let evs =
            match Option.bind (Json.member "traceEvents" doc) Json.list_val with
            | Some l -> l
            | None -> Alcotest.fail "no traceEvents"
          in
          (* 8 ring entries + the trigger marker + thread_name metadata. *)
          let names =
            List.filter_map
              (fun e -> Option.bind (Json.member "name" e) Json.string_val)
              evs
          in
          check_bool "oldest evicted" false (List.mem "ev1" names);
          check_bool "newest kept" true (List.mem "ev20" names);
          check_bool "trigger marker" true
            (List.mem "flight:unit/test" names));
      Sys.remove path);
  check_bool "max_dumps caps later triggers" true
    (Flight.trigger f ~ts_ms:21. ~reason:"again" = None);
  check_int "one dump listed" 1 (List.length (Flight.dumps f))

(* ------------------------------------------------------------ end-to-end *)

(* A small real loadgen run with every telemetry output armed: the JSONL
   windows must conserve the committed counter, the OpenMetrics file must
   validate, and an unmeetable SLO must report a breach. *)
let loadgen_integration () =
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdbs-telem-%d-%s" (Unix.getpid ()) name)
  in
  let jsonl = tmp "w.jsonl" and om = tmp "om.txt" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ jsonl; om ];
  let slos =
    List.map
      (fun s ->
        match Slo.parse s with Ok x -> x | Error e -> Alcotest.fail e)
      [ "commit_ratio >= 1.01"; "p99(svc_response_ms) <= 10000" ]
  in
  let obs = Obs.create ~metrics:true () in
  let wl = Mdbs_sim.Workload.default in
  let r =
    Loadgen.run
      (Runtime.config ~obs ~telemetry_out:jsonl ~openmetrics_out:om
         ~telemetry_interval_ms:20. ~slos
         ~scheme:(Registry.make Registry.S3)
         ~sites:(Mdbs_sim.Workload.make_sites wl) ())
      (Loadgen.config ~wl (Closed { clients = 8; txns_per_client = 10 }))
  in
  check_bool "certified" true r.Loadgen.certified;
  (* OpenMetrics file validates and agrees with the run. *)
  let ic = open_in om in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  ok_or_fail "openmetrics validates" (Export.validate text);
  (* JSONL windows conserve the committed counter. *)
  let windowed = ref 0 and lines = ref 0 in
  let ic = open_in jsonl in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Json.of_string line with
       | Error msg -> Alcotest.failf "window %d: %s" !lines msg
       | Ok w ->
           let counters =
             Option.value ~default:[]
               (Option.bind (Json.member "counters" w) Json.list_val)
           in
           List.iter
             (fun c ->
               match
                 ( Option.bind (Json.member "name" c) Json.string_val,
                   Option.bind (Json.member "delta" c) Json.number )
               with
               | Some "svc_committed_total", Some d ->
                   windowed := !windowed + int_of_float d
               | _ -> ())
             counters
     done
   with End_of_file -> close_in ic);
  check_bool "at least one window" true (!lines > 0);
  check_int "windowed deltas == final committed"
    (Metrics.sum_counter (Metrics.snapshot obs.Obs.metrics)
       "svc_committed_total")
    !windowed;
  check_int "committed all" 80 r.Loadgen.committed;
  (* SLO summary: the unmeetable objective breaches, the loose one not. *)
  (match r.Loadgen.run.Runtime.slo with
  | None -> Alcotest.fail "expected an SLO summary"
  | Some s ->
      check_string "worst breach" "breach" (Slo.verdict_to_string s.Slo.worst);
      let find src =
        List.find
          (fun o -> o.Slo.o_spec.Slo.src = src)
          s.Slo.objectives
      in
      check_string "unmeetable breached" "breach"
        (Slo.verdict_to_string (find "commit_ratio >= 1.01").Slo.o_worst);
      check_string "loose ok" "ok"
        (Slo.verdict_to_string
           (find "p99(svc_response_ms) <= 10000").Slo.o_worst));
  List.iter Sys.remove [ jsonl; om ]

let () =
  Alcotest.run "mdbs-telemetry"
    [
      ( "openmetrics",
        Alcotest.test_case "escaping" `Quick export_escaping
        :: Alcotest.test_case "label order" `Quick export_label_order
        :: Alcotest.test_case "counter family" `Quick export_counter_family
        :: Alcotest.test_case "validator rejects" `Quick validator_rejects
        :: qsuite [ qcheck_roundtrip ] );
      ("histogram", [ Alcotest.test_case "overflow" `Quick overflow_surfaced ]);
      ( "timeseries",
        Alcotest.test_case "basics" `Quick timeseries_basics
        :: Alcotest.test_case "jsonl" `Quick jsonl_single_line
        :: qsuite [ qcheck_conservation ] );
      ( "slo",
        [
          Alcotest.test_case "parse" `Quick slo_parse;
          Alcotest.test_case "burn-rate" `Quick slo_burn_rate;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disabled" `Quick flight_disabled;
          Alcotest.test_case "dump" `Quick flight_dump;
        ] );
      ( "integration",
        [ Alcotest.test_case "loadgen" `Quick loadgen_integration ] );
    ]
