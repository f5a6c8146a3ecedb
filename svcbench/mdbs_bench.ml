(* One benchmark run of one workload against the real service runtime.

   mdbs_bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 (gated): set up the service several times, then warm up,
   measure a window of S seconds and shut down, under soak certification.
   Prints the end-to-end metrics.
   --trace 1 (traced): the same run with the runtime's metrics registry
   on and the driver's spans recorded, then a short capture run under
   live certification whose trace is replayed through single layers.
   Prints the per-layer metrics.

   The first line on stderr is "warmup_s <seconds>", from which run.py
   sets its watchdog; progress follows as "phase <name>" lines. The last
   line of stdout is one JSON object. The exit code is 0 only if every run
   passed the correctness gate. run.py is the intended caller. *)

module Runtime = Mdbs_svc.Runtime
module Retry = Mdbs_svc.Retry
module Live_cert = Mdbs_svc.Live_cert
module Registry = Mdbs_core.Registry
module Local_dbms = Mdbs_site.Local_dbms
module Lsm = Mdbs_storage_lsm.Lsm
module Workload = Mdbs_sim.Workload
module Item = Mdbs_model.Item
module Obs = Mdbs_obs.Obs
module Metrics = Mdbs_obs.Metrics
module Timeseries = Mdbs_obs.Timeseries
module Sink = Mdbs_obs.Sink
module Trace_event = Mdbs_obs.Trace_event
module Json = Mdbs_util.Json
module Stats = Mdbs_util.Stats

let now = Driver.now

let t_start = now ()

(* "phase <name> <seconds since start>": the watchdog names the last one. *)
let phase name = Printf.eprintf "phase %s %.2f\n%!" name (now () -. t_start)

(* ------------------------------------------------------------ options *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let traced = ref false
let data_dir = ref ".bench_run"
let trace_out = ref ""

let speclist =
  [
    ("--workload", Arg.Set_string workload, "NAME contended|uncontended|light|durable");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--seconds", Arg.Set_float seconds, "S measured window (default 10)");
    ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1 gated or traced run");
    ("--data-dir", Arg.Set_string data_dir, "DIR scratch space for LSM stores");
    ("--trace-out", Arg.Set_string trace_out, "FILE driver spans (traced run)");
  ]

(* Unmeasured load before every measured window. *)
let warmup_s = 3.

(* ------------------------------------------------------------ service *)

(* Every key starts at a non-zero balance, so a recovered store can be
   compared with its log item for item. *)
let preload_value = 100

type service = {
  w : Workloads.t;
  wl : Workload.config;
  dir : string;
  sites : Local_dbms.t list;
  rt : Runtime.t;
}

let start_service w ~dir ~obs ~certify =
  let t0 = now () in
  let wl = Workloads.config w ~dir in
  let sites = Workload.make_sites wl in
  let keys = List.init w.Workloads.keys_per_site (fun k -> (Item.Key k, preload_value)) in
  List.iter (fun s -> Local_dbms.load s keys) sites;
  let rt =
    Runtime.start
      (Runtime.config ~atomic_commit:w.Workloads.atomic_commit ~obs ~certify
         ~scheme:(Registry.make Registry.S3) ~sites ())
  in
  ({ w; wl; dir; sites; rt }, now () -. t0)

let stop_service svc =
  let r, s = Layers.timed (fun () -> Runtime.shutdown svc.rt) in
  List.iter Local_dbms.close svc.sites;
  (r, s)

let run_dir tag = Filename.concat !data_dir (Printf.sprintf "%s-%d-%s" !workload !seed tag)

let fresh_service w ~tag ~obs ~certify =
  let dir = run_dir tag in
  Layers.rm_rf dir;
  start_service w ~dir ~obs ~certify

(* The first set-ups in a process run cold: over eight seeds, the median
   of five in-memory set-ups ranged over 0.9-2.5 ms, that of forty-one
   over 0.44-0.53 ms. So set-up is repeated, each torn down but the last, at least
   [min_setups] times and until [setup_budget_s] has passed (about a
   hundred in-memory set-ups, ten LSM ones). Returns the last service and
   the median set-up time. *)
let min_setups = 9
let max_setups = 201
let setup_budget_s = 1.

let timed_setups w =
  let t0 = now () in
  let rec go i acc =
    let svc, s =
      fresh_service w ~tag:(Printf.sprintf "setup%d" i) ~obs:Obs.disabled
        ~certify:Runtime.Certify_soak
    in
    let acc = s :: acc in
    if i >= max_setups || (i >= min_setups && now () -. t0 >= setup_budget_s)
    then (svc, Stats.percentile acc 50.)
    else begin
      ignore (stop_service svc);
      Layers.rm_rf svc.dir;
      go (i + 1) acc
    end
  in
  go 1 []

(* ------------------------------------------------------------- checks *)

(* The correctness gate of one run: the runtime certified what it ran, the
   driver's view of commits matches the runtime's, the window accounting
   closes, and a durable store recovers to exactly what its log
   promises. *)
let check ~label svc (res : Runtime.result) (r : Driver.result) =
  let fail = ref [] in
  let need ok msg = if not ok then fail := (label ^ ": " ^ msg) :: !fail in
  need res.Runtime.certified "run not certified";
  (match res.Runtime.live with
  | None -> need false "no live certification"
  | Some s ->
      need (not s.Live_cert.violated) "live certifier found a violation";
      need s.Live_cert.chain_ok "checkpoint chain broken");
  need
    (r.Driver.global_commits = res.Runtime.run_stats.Runtime.committed)
    (Printf.sprintf "driver saw %d global commits, runtime counted %d"
       r.Driver.global_commits res.Runtime.run_stats.Runtime.committed);
  let win = r.Driver.window in
  let uncommitted = win.Bench_stats.due_in - win.Bench_stats.committed in
  need
    (r.Driver.failed = uncommitted)
    (Printf.sprintf "driver counted %d failed, the window %d uncommitted"
       r.Driver.failed uncommitted);
  (if svc.w.Workloads.backend = Workloads.Lsm then
     for sid = 0 to svc.wl.Workload.m - 1 do
       let dir = Filename.concat svc.dir (Printf.sprintf "site-%d" sid) in
       let t = Lsm.open_dir dir in
       let items = List.sort compare (Lsm.items t) in
       Lsm.close t;
       need
         (items = List.sort compare (Lsm.predicted_items dir))
         (Printf.sprintf "site %d recovered state differs from its log" sid)
     done);
  List.rev !fail

(* --------------------------------------------------------------- runs *)

(* The program's backoff, with attempts unbounded in practice: a client
   that retries until its transaction commits, so no operation fails
   unless the runtime wedges. With the default four attempts, ~1% of the
   transactions of the contended mix at 8 outstanding gave up. *)
let retry = Retry.policy ~max_attempts:1000 ()

let plan w wl ~sink ~sample ~on_window =
  {
    Driver.load = w.Workloads.load;
    wl;
    local_fraction = w.Workloads.local_fraction;
    retry;
    warmup_s;
    window_s = !seconds;
    limit = None;
    drain_s = 10.;
    sample_every_s = (if sample then Some 0.05 else None);
    sink;
    on_window;
  }

let on_window = function `Start -> phase "run" | `End -> phase "drain"

(* The integer after "<key>:" in a /proc file; 0 when absent. *)
let proc_field file key =
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
      let prefix = key ^ ":" in
      let n = String.length prefix in
      let rec go () =
        match input_line ic with
        | line when String.length line > n && String.sub line 0 n = prefix ->
            Scanf.sscanf (String.sub line n (String.length line - n)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      let v = go () in
      close_in ic;
      v

let vm_hwm_mb () = float_of_int (proc_field "/proc/self/status" "VmHWM") /. 1024.

let write_bytes () = proc_field "/proc/self/io" "write_bytes"

let rec dir_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + dir_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

type measured = {
  res : Runtime.result;
  drv : Driver.result;
  shutdown_s : float;
  failures : string list;
}

(* Warm up, measure, drain, shut down, check. *)
let measure ~label svc plan =
  phase "warmup";
  let d = Driver.run svc.rt plan ~seed:!seed in
  phase "shutdown";
  let sink = plan.Driver.sink in
  let span = Sink.begin_span sink ~track:(Sink.track sink "driver") "runtime.shutdown" in
  let res, shutdown_s = stop_service svc in
  Sink.end_span sink span;
  let drv = Driver.finish d in
  phase "check";
  { res; drv; shutdown_s; failures = check ~label svc res drv }

let goodput m = float_of_int m.drv.Driver.window.Bench_stats.committed /. m.drv.Driver.window_s

type metric = string * float * string

let end_to_end m ~setup_s : metric list =
  let p50 =
    match m.drv.Driver.window.Bench_stats.latencies_ms with
    | [] -> nan
    | lat -> Stats.percentile lat 50.
  in
  [
    ("goodput_txn_s", goodput m, "txn/s");
    ("p50_ms", p50, "ms");
    ("setup_s", setup_s, "s");
  ]

let gated w =
  phase "setup";
  let svc, setup_s = timed_setups w in
  let m =
    measure ~label:"gated" svc
      (plan w svc.wl ~sink:Sink.null ~sample:false ~on_window)
  in
  Layers.rm_rf svc.dir;
  (m, end_to_end m ~setup_s, m.failures)

(* ------------------------------------------------------------- traced *)

let per_1k n due = if due = 0 then 0. else 1000. *. float_of_int n /. float_of_int due

let ratio a b = if b = 0. then 0. else a /. b

let pct l p = if l = [] then 0. else Stats.percentile l p

let traced_run w =
  (* The runtime's own metrics registry, read as deltas over the window
     from a time-series flushed at its edges; driver spans kept in
     memory. *)
  phase "setup";
  let obs = Obs.create ~trace:false ~metrics:true () in
  let svc, _ = fresh_service w ~tag:"traced" ~obs ~certify:Runtime.Certify_soak in
  let sink = Sink.create () in
  let ts = Timeseries.create ~interval_ms:1. obs.Obs.metrics in
  let edges = ref [] in
  let on_window e =
    on_window e;
    ignore (Timeseries.flush ts ~now_ms:(now () *. 1000.));
    edges := (Runtime.stats svc.rt, write_bytes ()) :: !edges
  in
  let m = measure ~label:"traced" svc (plan w svc.wl ~sink ~sample:true ~on_window) in
  let peak_rss_mb = vm_hwm_mb () in
  let disk_bytes_per_key =
    if w.Workloads.backend = Workloads.Lsm then
      float_of_int (dir_bytes svc.dir)
      /. float_of_int (svc.wl.Workload.m * w.Workloads.keys_per_site)
    else 0.
  in
  Layers.rm_rf svc.dir;
  if !trace_out <> "" then Trace_event.write_file !trace_out sink;
  let window = Option.get (Timeseries.last ts) in
  let (st1, wb1), (st0, wb0) =
    match !edges with [ e1; e0 ] -> (e1, e0) | _ -> failwith "window edges"
  in
  let drv = m.drv and res = m.res in
  let win = drv.Driver.window in
  let due = win.Bench_stats.due_in and committed = win.Bench_stats.committed in
  let hp name p =
    match Timeseries.sum_hist window name with
    | Some h -> Metrics.snap_percentile h p
    | None -> 0.
  in
  let hmean name =
    match Timeseries.sum_hist window name with Some h -> Metrics.snap_mean h | None -> 0.
  in
  let counter = Timeseries.sum_counter window in
  let cause st c =
    Option.value ~default:0 (List.assoc_opt c st.Runtime.abort_causes)
  in
  let stat_delta f = f st1 - f st0 in
  let ops st = List.fold_left (fun a (_, n) -> a + n) 0 st.Runtime.ops_per_site in
  let admitted = float_of_int res.Runtime.run_stats.Runtime.admitted in
  let per_admitted n = ratio (float_of_int n) admitted in
  let hits = counter "lsm_cache_hits_total" and misses = counter "lsm_cache_misses_total" in
  (* The capture run: a fixed count under live certification, so the full
     trace comes back for the layer replays. *)
  phase "capture";
  let svc, _ = fresh_service w ~tag:"capture" ~obs:Obs.disabled ~certify:Runtime.Certify_live in
  let cap =
    measure ~label:"capture" svc
      { (plan w svc.wl ~sink:Sink.null ~sample:false ~on_window:ignore) with
        Driver.warmup_s = 0.; limit = Some 800 }
  in
  Layers.rm_rf svc.dir;
  phase "replay";
  let trace = cap.res.Runtime.trace in
  let keys = List.init w.Workloads.keys_per_site (fun k -> (Item.Key k, preload_value)) in
  let batch = max 1 (int_of_float (Float.round (hmean "lsm_fsync_batch_size"))) in
  let rs =
    Layers.replay_sites trace ~backend:w.Workloads.backend ~keys ~batch
      ~dir:(run_dir "replay")
  in
  let feed_us, inc_ok = Layers.replay_incremental trace in
  let an = Layers.replay_analysis trace in
  let engines =
    List.map
      (fun k -> (Registry.name k, Layers.replay_engine k))
      [ Registry.S0; Registry.S1; Registry.S2; Registry.S3 ]
  in
  let replay_failures =
    (if inc_ok then [] else [ "replay: incremental certifier rejected the capture" ])
    @ (if an.Layers.clean then [] else [ "replay: batch analysis rejected the capture" ])
    @ List.filter_map
        (fun (name, (_, ok)) ->
          if ok then None else Some ("replay: engine " ^ name ^ " not certified"))
        engines
  in
  if rs.Layers.divergences > 0 then
    Printf.eprintf "replay: %d of %d site operations diverged from the capture\n%!"
      rs.Layers.divergences rs.Layers.ops;
  let metrics : metric list =
    [
      (* The tail and failures: reported, not gated — on a shared 2-core
         host their run-to-run spread is wider than any bound a gate may
         use. *)
      ("driver.p99_ms", pct win.Bench_stats.latencies_ms 99., "ms");
      ("driver.fail_ratio", ratio (float_of_int drv.Driver.failed) (float_of_int due), "ratio");
      ("driver.late_p99_ms", pct drv.Driver.late_ms 99., "ms");
      ("driver.outstanding_mean", drv.Driver.outstanding_mean, "txns");
      ("runtime.submit_us_p50", pct drv.Driver.submit_us 50., "us");
      ("runtime.submit_us_p99", pct drv.Driver.submit_us 99., "us");
      ("runtime.inbox_hwm", float_of_int res.Runtime.run_stats.Runtime.inbox_hwm, "count");
      ("runtime.response_ms_p50", hp "svc_response_ms" 50., "ms");
      ("runtime.response_ms_p99", hp "svc_response_ms" 99., "ms");
      ("runtime.active_mean", drv.Driver.active_mean, "txns");
      ("runtime.wounds_per_1k", per_1k (stat_delta (fun s -> s.Runtime.wounds)) due, "count");
      ("runtime.stall_kills_per_1k", per_1k (stat_delta (fun s -> s.Runtime.stall_kills)) due, "count");
      ("runtime.scheme_rejects_per_1k", per_1k (stat_delta (fun s -> cause s "scheme_reject")) due, "count");
      ("runtime.sheds_per_1k", per_1k (stat_delta (fun s -> s.Runtime.sheds)) due, "count");
      ("runtime.shutdown_s", m.shutdown_s, "s");
      ("runtime.peak_rss_mb", peak_rss_mb, "MB");
      ("retry.attempts_per_commit", ratio (float_of_int drv.Driver.attempts) (float_of_int committed), "count");
      ("retry.backoff_ms_per_commit", ratio drv.Driver.backoff_ms (float_of_int committed), "ms");
      ("gtm2.ser_waits_per_txn", per_admitted res.Runtime.ser_waits, "count");
      ("gtm2.wait_insertions_per_txn", per_admitted res.Runtime.wait_insertions, "count");
      ("gtm2.queue_wait_ms_p50", hp "gtm2_queue_wait_ms" 50., "ms");
      ("gtm2.queue_wait_ms_p99", hp "gtm2_queue_wait_ms" 99., "ms");
      ("gtm2.engine_steps_per_txn", per_admitted res.Runtime.engine_steps, "count");
      ("gtm2.scheme_steps_per_txn", per_admitted res.Runtime.scheme_steps, "count");
    ]
    @ List.map
        (fun (name, (us, _)) -> ("engine.replay_us_per_txn." ^ name, us, "us"))
        engines
    @ [
        ("local_dbms.ops_per_txn", ratio (float_of_int (stat_delta ops)) (float_of_int due), "count");
        ("local_dbms.submit_us_mean", (if rs.Layers.ops = 0 then 0. else Stats.mean rs.Layers.submit_us), "us");
        ("local_dbms.submit_us_p99", pct rs.Layers.submit_us 99., "us");
        ("local_dbms.aborts_per_1k", per_1k (counter "local_aborts_total") due, "count");
        ("local_dbms.sync_durable_ms_p99", pct rs.Layers.sync_ms 99., "ms");
        ("lsm.fsync_ms_p50", hp "lsm_fsync_ms" 50., "ms");
        ("lsm.fsync_ms_p99", hp "lsm_fsync_ms" 99., "ms");
        ("lsm.fsync_batch_mean", hmean "lsm_fsync_batch_size", "count");
        ("lsm.read_ms_p99", hp "lsm_read_ms" 99., "ms");
        ("lsm.cache_hit_ratio", ratio (float_of_int hits) (float_of_int (hits + misses)), "ratio");
        ("lsm.flushes_per_1k", per_1k (counter "lsm_flushes_total") due, "count");
        ("lsm.compactions_per_1k", per_1k (counter "lsm_compactions_total") due, "count");
        ("lsm.write_bytes_per_commit", ratio (float_of_int (wb1 - wb0)) (float_of_int committed), "B");
        ("lsm.disk_bytes_per_key", disk_bytes_per_key, "B");
        ("cert.events_per_txn", ratio (float_of_int (counter "cert_events_total")) (float_of_int due), "count");
        (* Transactions the live certifier still holds after shutdown; more
           than zero means one was never decided at some site. *)
        ("cert.live_txns_end",
          (match res.Runtime.live with
          | Some s -> float_of_int s.Live_cert.stats.Mdbs_analysis.Incremental.live_txns
          | None -> 0.), "count");
        ("incremental.feed_us_per_event", feed_us, "us");
        ("analysis.csr_s", an.Layers.csr_s, "s");
        ("analysis.theorem2_s", an.Layers.theorem2_s, "s");
        ("analysis.lint_s", an.Layers.lint_s, "s");
        (* Against the gated runs' median: run.py --repeat K --trace 1
           reports the overhead. *)
        ("traced.goodput_txn_s", goodput m, "txn/s");
      ]
  in
  (m, metrics, m.failures @ cap.failures @ replay_failures)

(* -------------------------------------------------------------- main *)

(* Floats print with every digit they carry (the shortest form that reads
   back exactly); {!Json} rounds to six. *)
let num x =
  if not (Float.is_finite x) then "null"
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 15

let obj fields =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Json.to_string_compact (Json.Str k) ^ ":" ^ v)
         fields)
  ^ "}"

let () =
  Arg.parse speclist
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "mdbs_bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  Printf.eprintf "warmup_s %g\n%!" warmup_s;
  Lsm.mkdir_p !data_dir;
  let m, metrics, failures = if !traced then traced_run w else gated w in
  List.iter prerr_endline failures;
  let win = m.drv.Driver.window in
  let tail =
    match Bench_stats.tail_percentile win.Bench_stats.latencies_ms with
    | Some (p, v) -> obj [ ("p", num p); ("ms", num v) ]
    | None -> "null"
  in
  let str s = Json.to_string_compact (Json.Str s) in
  print_endline
    (obj
       [
         ("workload", str w.Workloads.name);
         ("seed", string_of_int !seed);
         ("trace", string_of_bool !traced);
         ("correct", string_of_bool (failures = []));
         ("attempted", string_of_int win.Bench_stats.due_in);
         ("failed", string_of_int m.drv.Driver.failed);
         ("unsettled", string_of_int win.Bench_stats.unsettled);
         ("samples", string_of_int win.Bench_stats.committed);
         ("tail", tail);
         ("failures", "[" ^ String.concat "," (List.map str failures) ^ "]");
         ( "metrics",
           obj
             (List.map
                (fun (name, v, unit) ->
                  (name, obj [ ("value", num v); ("unit", str unit) ]))
                metrics) );
       ]);
  exit (if failures = [] then 0 else 1)
