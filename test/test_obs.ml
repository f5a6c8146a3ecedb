(* Tests for the observability layer: sink structure, metrics registry,
   trace_event export, and span well-formedness properties over seeded
   simulation runs (fault-free and chaotic). *)

module Obs = Mdbs_obs.Obs
module Sink = Mdbs_obs.Sink
module Metrics = Mdbs_obs.Metrics
module Profile = Mdbs_obs.Profile
module Trace_event = Mdbs_obs.Trace_event
module Json = Mdbs_util.Json
module Des = Mdbs_sim.Des
module Fault = Mdbs_sim.Fault
module Workload = Mdbs_sim.Workload
module Registry = Mdbs_core.Registry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ sink *)

let sink_nesting () =
  let s = Sink.create () in
  let t = ref 0.0 in
  Sink.set_clock s (fun () -> !t);
  let trk = Sink.track s "work" in
  let outer = Sink.begin_span s ~track:trk "outer" in
  t := 1.0;
  let inner = Sink.begin_span s ~track:trk ~attrs:[ ("k", "v") ] "inner" in
  (match List.nth (Sink.spans s) 1 with
  | { Sink.parent = Some p; _ } -> check_int "implicit parent" outer p
  | _ -> Alcotest.fail "inner span has no parent");
  t := 2.0;
  Sink.end_span s inner;
  t := 3.0;
  Sink.end_span s ~attrs:[ ("outcome", "done") ] outer;
  check_int "two spans" 2 (Sink.span_count s);
  check_int "none open" 0 (Sink.open_spans s);
  Alcotest.(check (list string)) "well-formed" [] (Sink.check s);
  (* Double end and unknown ids are ignored. *)
  Sink.end_span s inner;
  Sink.end_span s 999;
  Sink.end_span s 0;
  Alcotest.(check (list string)) "still well-formed" [] (Sink.check s)

let sink_check_catches () =
  let s = Sink.create () in
  let t = ref 0.0 in
  Sink.set_clock s (fun () -> !t);
  let trk = Sink.track s "bad" in
  let outer = Sink.begin_span s ~track:trk "outer" in
  t := 1.0;
  let inner = Sink.begin_span s ~track:trk "inner" in
  t := 2.0;
  (* Parent closed while the child is still open: a LIFO violation. *)
  Sink.end_span s outer;
  check_bool "violation reported" true (Sink.check s <> []);
  Sink.end_span s inner;
  (* A span left open is also an error. *)
  let s2 = Sink.create () in
  ignore (Sink.begin_span s2 ~track:(Sink.track s2 "x") "dangling");
  check_bool "open span reported" true (Sink.check s2 <> [])

let sink_disabled () =
  let s = Sink.null in
  check_bool "disabled" false (Sink.enabled s);
  check_int "track is 0" 0 (Sink.track s "anything");
  check_int "txn track is 0" 0 (Sink.txn_track s 7);
  check_int "begin is 0" 0 (Sink.begin_span s ~track:0 "nope");
  Sink.end_span s 0;
  Sink.instant s ~track:0 "nope";
  check_int "nothing recorded" 0 (Sink.span_count s);
  check_int "no events" 0 (List.length (Sink.events s));
  Alcotest.(check (list (pair int string))) "no tracks" [] (Sink.tracks_list s)

(* --------------------------------------------------------------- metrics *)

let metrics_basic () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("site", "1"); ("cause", "x") ] "aborts" in
  Metrics.inc c;
  Metrics.inc ~by:2 c;
  (* Label order never distinguishes keys. *)
  Metrics.inc (Metrics.counter m ~labels:[ ("cause", "x"); ("site", "1") ] "aborts");
  let g = Metrics.gauge m "depth" in
  Metrics.set_max g 3.0;
  Metrics.set_max g 1.0;
  let h1 = Metrics.histogram m ~labels:[ ("site", "1") ] "wait" in
  let h2 = Metrics.histogram m ~labels:[ ("site", "2") ] "wait" in
  List.iter (Metrics.observe h1) [ 0.4; 3.0 ];
  Metrics.observe h2 100.0;
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int))
    "counter" (Some 4)
    (Metrics.find_counter snap ~labels:[ ("site", "1"); ("cause", "x") ] "aborts");
  check_int "sum_counter" 4 (Metrics.sum_counter snap "aborts");
  (match snap.Metrics.gauges with
  | [ (k, v) ] ->
      Alcotest.(check string) "gauge key" "depth" (Metrics.key_to_string k);
      Alcotest.(check (float 1e-9)) "high watermark" 3.0 v
  | _ -> Alcotest.fail "expected one gauge");
  match Metrics.sum_hist snap "wait" with
  | Some h ->
      check_int "merged count" 3 h.Metrics.count;
      Alcotest.(check (float 1e-9)) "merged sum" 103.4 h.Metrics.sum;
      Alcotest.(check (float 1e-9)) "merged max" 100.0 h.Metrics.hmax;
      Alcotest.(check (float 1e-9)) "p50" 4.0 (Metrics.snap_percentile h 50.0)
  | None -> Alcotest.fail "expected merged histogram"

let metrics_null () =
  let c = Metrics.counter Metrics.null "ghost" in
  Metrics.inc c;
  Metrics.observe (Metrics.histogram Metrics.null "ghost_h") 1.0;
  let snap = Metrics.snapshot Metrics.null in
  check_int "no counters" 0 (List.length snap.Metrics.counters);
  check_int "no histograms" 0 (List.length snap.Metrics.histograms)

(* ----------------------------------------------------------- trace_event *)

let trace_event_export () =
  let s = Sink.create () in
  let t = ref 0.0 in
  Sink.set_clock s (fun () -> !t);
  let trk = Sink.track s "main" in
  let sp = Sink.begin_span s ~track:trk ~attrs:[ ("a", "1") ] "phase" in
  t := 1.5;
  Sink.instant s ~track:trk "tick";
  t := 2.0;
  Sink.end_span s sp;
  match Trace_event.to_json s with
  | Json.Obj fields ->
      (match List.assoc "traceEvents" fields with
      | Json.List evs ->
          let phs =
            List.filter_map
              (function
                | Json.Obj f -> (
                    match List.assoc_opt "ph" f with
                    | Some (Json.Str p) -> Some p
                    | _ -> None)
                | _ -> None)
              evs
          in
          Alcotest.(check (list string))
            "event kinds" [ "M"; "B"; "i"; "E" ] phs;
          (* Timestamps are integer microseconds of sim-time ms. *)
          List.iter
            (function
              | Json.Obj f -> (
                  match (List.assoc_opt "ph" f, List.assoc_opt "ts" f) with
                  | Some (Json.Str "E"), Some ts ->
                      check_bool "end ts" true (ts = Json.Int 2000)
                  | Some (Json.Str "i"), Some ts ->
                      check_bool "instant ts" true (ts = Json.Int 1500)
                  | _ -> ())
              | _ -> ())
            evs
      | _ -> Alcotest.fail "traceEvents not a list")
  | _ -> Alcotest.fail "not an object"

(* --------------------------------------------------------------- profile *)

let profile_timing () =
  let p = Profile.create () in
  let x = Profile.time p "step" (fun () -> 21 * 2) in
  check_int "result passes through" 42 x;
  let t0 = Profile.start p in
  Profile.stop p "step" t0;
  match Profile.report p with
  | [ ("step", 2, total) ] -> check_bool "non-negative" true (total >= 0.0)
  | _ -> Alcotest.fail "expected one timer with two calls"

(* ------------------------------------------- span properties over runs *)

let base_config =
  {
    Des.default with
    n_global = 24;
    locals_per_site = 3;
    workload = { Workload.default with Workload.m = 3; data_per_site = 16 };
  }

(* Every seeded run, fault-free or chaotic, must produce a structurally
   well-formed trace, and the metrics mirror of the result must agree with
   the result itself. *)
let run_and_check ~name config kind =
  let obs = Obs.create () in
  let run = Des.run_full { config with Des.obs } kind in
  Alcotest.(check (list string)) (name ^ ": spans well-formed") []
    (Sink.check obs.Obs.sink);
  check_bool (name ^ ": traced something") true (Sink.span_count obs.Obs.sink > 0);
  let committed_spans =
    List.length
      (List.filter
         (fun (sp : Sink.span) ->
           sp.Sink.name = "txn"
           &&
           match List.assoc_opt "outcome" sp.Sink.attrs with
           | Some ("committed" | "recovered-commit") -> true
           | _ -> false)
         (Sink.spans obs.Obs.sink))
  in
  check_int
    (name ^ ": a committed txn span per commit")
    run.Des.result.Des.committed_global committed_spans;
  let snap = Metrics.snapshot obs.Obs.metrics in
  Alcotest.(check (option int))
    (name ^ ": metrics mirror commits")
    (Some run.Des.result.Des.committed_global)
    (Metrics.find_counter snap "des_committed_global")

let span_props_clean () =
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          run_and_check
            ~name:(Printf.sprintf "%s/seed %d" (Registry.name kind) seed)
            { base_config with Des.seed } kind)
        [ 3; 19 ])
    [ Registry.S0; Registry.S3 ]

let span_props_chaos () =
  let mix =
    match Fault.parse_mix "crash=1,gtm=1,drop=0.05,dup=0.03" with
    | Ok mix -> mix
    | Error msg -> Alcotest.fail msg
  in
  List.iter
    (fun (kind, seed) ->
      let faults = Fault.realize mix ~seed ~m:3 ~horizon:600.0 in
      run_and_check
        ~name:(Printf.sprintf "chaos %s/seed %d" (Registry.name kind) seed)
        { base_config with Des.seed; faults; atomic_commit = true }
        kind)
    [ (Registry.S1, 101); (Registry.S2, 108); (Registry.S3, 115) ]

(* A victim the policy kills while its step is blocked at a site never
   gets that step acknowledged: the step's op span must end with the kill's
   reason, not "acked". Same run as the golden trace. *)
let deadlock_kill_refuses_op () =
  let obs = Obs.create ~metrics:false () in
  let config =
    {
      Des.default with
      n_global = 4;
      locals_per_site = 1;
      seed = 5;
      atomic_commit = true;
      obs;
      workload = { Workload.default with Workload.m = 2; data_per_site = 8 };
    }
  in
  ignore (Des.run_full config Registry.S3);
  let spans = Sink.spans obs.Obs.sink in
  let kills =
    List.filter_map
      (function
        | Sink.Inst i when i.Sink.iname = "victim" ->
            Some (i.Sink.itrack, i.Sink.its, List.assoc "reason" i.Sink.iattrs)
        | Sink.Inst _ | Sink.Begin _ | Sink.End _ -> None)
      (Sink.events obs.Obs.sink)
  in
  check_bool "the policy killed a step" true (kills <> []);
  (* A blocked step is completed by the kill itself, so its op span and
     its site.blocked child close at the kill's instant. *)
  let killed_blocked_ops =
    List.concat_map
      (fun (track, ts, reason) ->
        let at_kill (sp : Sink.span) name =
          sp.Sink.name = name && sp.Sink.track = track && sp.Sink.finish = ts
        in
        List.filter_map
          (fun sp ->
            if
              at_kill sp "op"
              && List.exists
                   (fun (c : Sink.span) ->
                     at_kill c "site.blocked" && c.Sink.parent = Some sp.Sink.id)
                   spans
            then Some (sp, reason)
            else None)
          spans)
      kills
  in
  check_bool "a kill found its step blocked" true (killed_blocked_ops <> []);
  List.iter
    (fun ((sp : Sink.span), reason) ->
      Alcotest.(check (option string))
        (Printf.sprintf "op span on track %d" sp.Sink.track)
        (Some reason)
        (List.assoc_opt "outcome" sp.Sink.attrs))
    killed_blocked_ops

let disabled_run_traces_nothing () =
  let run = Des.run_full base_config Registry.S3 in
  check_bool "disabled bundle" false run.Des.obs.Obs.live;
  check_int "no spans" 0 (Sink.span_count run.Des.obs.Obs.sink);
  let snap = Metrics.snapshot run.Des.obs.Obs.metrics in
  check_int "no metrics" 0
    (List.length snap.Metrics.counters + List.length snap.Metrics.histograms)

let () =
  Alcotest.run "mdbs-obs"
    [
      ( "sink",
        [
          Alcotest.test_case "nesting" `Quick sink_nesting;
          Alcotest.test_case "check-catches" `Quick sink_check_catches;
          Alcotest.test_case "disabled" `Quick sink_disabled;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basic" `Quick metrics_basic;
          Alcotest.test_case "null" `Quick metrics_null;
        ] );
      ("trace-event", [ Alcotest.test_case "export" `Quick trace_event_export ]);
      ("profile", [ Alcotest.test_case "timing" `Quick profile_timing ]);
      ( "span-properties",
        [
          Alcotest.test_case "clean runs" `Quick span_props_clean;
          Alcotest.test_case "chaotic runs" `Quick span_props_chaos;
          Alcotest.test_case "deadlock kill refuses its op" `Quick
            deadlock_kill_refuses_op;
          Alcotest.test_case "disabled traces nothing" `Quick
            disabled_run_traces_nothing;
        ] );
    ]
