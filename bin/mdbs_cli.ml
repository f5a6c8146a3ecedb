(* mdbs: command-line front-end.

   Subcommands:
     schemes      list the GTM2 schemes
     experiments  print the reproduction tables (all or a subset)
     replay       drive a scheme with a synthetic trace, print metrics
     simulate     run the end-to-end MDBS simulation under one scheme
     des          timed discrete-event simulation
     chaos        fault-injecting runs, every one certified
     serve        open-loop load on the parallel service runtime
     loadgen      closed-loop load on it; both run the one load driver
     recover      audit LSM site directories against their WALs offline
     analyze      statically certify and lint a recorded schedule *)

module Registry = Mdbs_core.Registry
module Replay = Mdbs_sim.Replay
module Driver = Mdbs_sim.Driver
module Workload = Mdbs_sim.Workload
module Analysis = Mdbs_analysis.Analysis
module Trace = Mdbs_analysis.Trace
open Mdbs_experiments
open Cmdliner

let scheme_conv =
  let parse s =
    match Registry.of_string (String.lowercase_ascii s) with
    | Some kind -> Ok kind
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf kind = Format.pp_print_string ppf (Registry.name kind) in
  Arg.conv (parse, print)

(* ---------------------------------------------------- observability flags *)

module Obs = Mdbs_obs.Obs

(* Shared by des/simulate/chaos: build the bundle before the run, export
   what the flags asked for afterwards. *)
let obs_flags =
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the run's spans as a Chrome trace_event JSON file \
                 (load it in Perfetto or chrome://tracing).")
  in
  let metrics_json =
    Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE"
           ~doc:"Write the metrics snapshot as JSON ($(b,-) for stdout).")
  in
  let metrics =
    Arg.(value & flag & info [ "metrics" ]
           ~doc:"Print the metrics snapshot after the run.")
  in
  let profile =
    Arg.(value & flag & info [ "profile" ]
           ~doc:"Self-time the GTM2 scheduler's test/action (and the chaos \
                 checks) in CPU time; print the report.")
  in
  Term.(
    const (fun trace_out metrics_json metrics profile ->
        (trace_out, metrics_json, metrics, profile))
    $ trace_out $ metrics_json $ metrics $ profile)

let make_obs ?(force_metrics = false) (trace_out, metrics_json, metrics, profile) =
  if
    (not force_metrics) && trace_out = None && metrics_json = None
    && (not metrics) && not profile
  then Obs.disabled
  else
    Obs.create ~trace:(trace_out <> None)
      ~metrics:(metrics_json <> None || metrics || force_metrics)
      ~profile ()

let export_obs (trace_out, metrics_json, metrics, profile) obs =
  (match trace_out with
  | Some file -> Mdbs_obs.Trace_event.write_file file obs.Obs.sink
  | None -> ());
  let snap_json () =
    Mdbs_util.Json.to_string (Mdbs_obs.Metrics.to_json (Mdbs_obs.Metrics.snapshot obs.Obs.metrics))
  in
  (match metrics_json with
  | Some "-" -> print_endline (snap_json ())
  | Some file ->
      let oc = open_out file in
      output_string oc (snap_json ());
      output_char oc '\n';
      close_out oc
  | None -> ());
  if metrics then
    print_endline
      (Mdbs_obs.Metrics.to_string (Mdbs_obs.Metrics.snapshot obs.Obs.metrics));
  if profile then
    print_endline (Mdbs_obs.Profile.to_string obs.Obs.profile)

(* ---------------------------------------------------------- backend flags *)

module Lsm = Mdbs_storage_lsm.Lsm

(* Shared by des/chaos/serve/loadgen: choose the site storage engine. *)
let backend_flags =
  let backend =
    Arg.(value & opt (enum [ ("mem", `Mem); ("lsm", `Lsm) ]) `Mem
         & info [ "backend" ] ~docv:"ENGINE"
             ~doc:"Site storage engine: $(b,mem) (volatile hashtable with a \
                   logical WAL) or $(b,lsm) (persistent LSM tree — \
                   memtable, leveled SSTables, group-commit WAL — rooted \
                   at $(b,--data-dir), one subdirectory per site).")
  in
  let data_dir =
    Arg.(value & opt (some string) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Root directory for $(b,--backend lsm) site data. Reusing a \
                 directory recovers its state (manifest + WAL replay). \
                 Default: a fresh directory under the system temp dir.")
  in
  let memtable =
    Arg.(value & opt (some int) None & info [ "lsm-memtable" ] ~docv:"N"
           ~doc:"LSM memtable flush watermark, in distinct buffered items \
                 (default 1024). Lower it below the working-set size to \
                 force SSTable flushes and compactions.")
  in
  let cache =
    Arg.(value & opt (some int) None & info [ "lsm-cache" ] ~docv:"N"
           ~doc:"LSM block-cache capacity, in blocks (default 64).")
  in
  let wal_checkpoint =
    Arg.(value & opt (some int) None & info [ "lsm-wal-checkpoint" ] ~docv:"N"
           ~doc:"WAL length, in records, that forces a checkpoint (manifest \
                 republish + log rewrite) at the next group-commit point \
                 (default 4096). Bounds the log even when the working set \
                 stays inside the memtable.")
  in
  Term.(
    const (fun backend data_dir memtable cache wal_checkpoint ->
        (backend, data_dir, memtable, cache, wal_checkpoint))
    $ backend $ data_dir $ memtable $ cache $ wal_checkpoint)

let fresh_data_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "mdbs-lsm-%d-%06x" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e6) land 0xFFFFFF))
  in
  Lsm.mkdir_p dir;
  Printf.eprintf "backend lsm: site data under %s\n%!" dir;
  dir

(* Resolve the flag tuple into what Workload.config carries. *)
let resolve_backend (backend, data_dir, memtable, cache, wal_checkpoint) =
  let lsm_params =
    match (memtable, cache, wal_checkpoint) with
    | None, None, None -> None
    | _ ->
        Some
          {
            Lsm.default_params with
            Lsm.memtable_entries =
              Option.value memtable
                ~default:Lsm.default_params.Lsm.memtable_entries;
            cache_blocks =
              Option.value cache ~default:Lsm.default_params.Lsm.cache_blocks;
            wal_checkpoint_records =
              Option.value wal_checkpoint
                ~default:Lsm.default_params.Lsm.wal_checkpoint_records;
          }
  in
  match backend with
  | `Mem -> (`Mem, lsm_params)
  | `Lsm ->
      let dir =
        match data_dir with Some d -> d | None -> fresh_data_dir ()
      in
      (`Lsm dir, lsm_params)

(* -------------------------------------------------------- telemetry flags *)

let slo_conv =
  let parse s =
    match Mdbs_obs.Slo.parse s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf spec = Format.pp_print_string ppf spec.Mdbs_obs.Slo.src in
  Arg.conv (parse, print)

(* Shared by serve/loadgen. Any telemetry flag forces the metrics registry
   on (the time-series layer windows it), whether or not --metrics was
   passed. *)
let telemetry_flags =
  let telemetry_out =
    Arg.(value & opt (some string) None & info [ "telemetry-out" ] ~docv:"FILE"
           ~doc:"Append one JSON object per telemetry window (JSONL): \
                 counter/histogram deltas and gauge values since the \
                 previous window.")
  in
  let openmetrics_out =
    Arg.(value & opt (some string) None & info [ "openmetrics-out" ]
           ~docv:"FILE"
           ~doc:"Atomically rewrite FILE with the cumulative metrics in \
                 OpenMetrics text format on every telemetry window.")
  in
  let interval =
    Arg.(value & opt float 1000. & info [ "telemetry-interval" ] ~docv:"MS"
           ~doc:"Telemetry window length in milliseconds.")
  in
  let slos =
    Arg.(value & opt_all slo_conv [] & info [ "slo" ] ~docv:"SPEC"
           ~doc:"Service-level objective evaluated per window with \
                 burn-rate tracking, e.g. $(b,'p99(svc_response_ms) <= \
                 50') or $(b,'commit_ratio >= 0.9'). Repeatable. Any \
                 breach sets exit code 3.")
  in
  let flight_dump =
    Arg.(value & opt (some string) None & info [ "flight-dump" ] ~docv:"DIR"
           ~doc:"Arm the flight recorder: on a certification violation, \
                 site crash or SLO breach, dump the last seconds of \
                 runtime events into DIR as a Chrome trace_event file.")
  in
  Term.(
    const (fun telemetry_out openmetrics_out interval slos flight_dump ->
        (telemetry_out, openmetrics_out, interval, slos, flight_dump))
    $ telemetry_out $ openmetrics_out $ interval $ slos $ flight_dump)

let telemetry_enabled (t_out, om_out, _, slos, flight) =
  t_out <> None || om_out <> None || slos <> [] || flight <> None

(* Exit code 3: an SLO objective breached (1 = certification failure,
   2 = usage error). Certification failure wins when both occur. *)
let slo_exit = function
  | Some s when s.Mdbs_obs.Slo.worst = Mdbs_obs.Slo.Breach -> exit 3
  | _ -> ()

(* ---------------------------------------------------------------- schemes *)

let schemes_cmd =
  let doc = "List the GTM2 concurrency-control schemes" in
  let run () =
    List.iter
      (fun kind ->
        Printf.printf "%-10s %s\n" (Registry.name kind) (Registry.description kind))
      Registry.extended
  in
  Cmd.v (Cmd.info "schemes" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------ experiments *)

let experiments_cmd =
  let doc = "Print the paper-reproduction experiment tables" in
  let only =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID"
           ~doc:"Run only the experiments with this id prefix (E1..E15).")
  in
  let run only =
    let wanted (id, _) =
      match only with
      | None -> true
      | Some prefix ->
          let prefix = String.uppercase_ascii prefix in
          String.length id >= String.length prefix
          && String.sub id 0 (String.length prefix) = prefix
    in
    List.iter
      (fun (_, table) -> Report.print (table ()))
      (List.filter wanted Catalog.tables)
  in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const run $ only)

(* ----------------------------------------------------------------- replay *)

let replay_cmd =
  let doc = "Replay a synthetic serialization-operation trace through a scheme" in
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"GTM2 scheme: scheme0..scheme3 or nocontrol.")
  in
  let sites = Arg.(value & opt int 8 & info [ "sites"; "m" ] ~docv:"M") in
  let txns = Arg.(value & opt int 64 & info [ "txns" ] ~docv:"N") in
  let d_av = Arg.(value & opt int 3 & info [ "dav" ] ~docv:"D") in
  let concurrency = Arg.(value & opt int 16 & info [ "concurrency"; "n" ] ~docv:"N") in
  let latency = Arg.(value & opt int 2 & info [ "latency" ] ~docv:"L") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let open_loop =
    Arg.(value & flag & info [ "open-loop" ]
           ~doc:"Use the fixed arrival order (degree-of-concurrency mode).")
  in
  let run kind m n_txns d_av concurrency ack_latency seed open_loop =
    let config = { Replay.m; n_txns; d_av; concurrency; ack_latency } in
    let runner = if open_loop then Replay.run_fixed else Replay.run in
    let r = runner ~seed config (Registry.make kind) in
    Mdbs_util.Table.print
      ~headers:[ "metric"; "value" ]
      [
        [ "scheme"; r.Replay.scheme_name ];
        [ "transactions"; string_of_int r.Replay.txns ];
        [ "ser operations submitted"; string_of_int r.Replay.submits ];
        [ "ser operations delayed (WAIT)"; string_of_int r.Replay.ser_waits ];
        [ "total WAIT insertions"; string_of_int r.Replay.total_waits ];
        [ "scheme steps"; string_of_int r.Replay.scheme_steps ];
        [ "engine steps"; string_of_int r.Replay.engine_steps ];
        [ "steps per transaction"; Printf.sprintf "%.2f" r.Replay.steps_per_txn ];
      ]
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(
      const run $ scheme $ sites $ txns $ d_av $ concurrency $ latency $ seed
      $ open_loop)

(* --------------------------------------------------------------- simulate *)

let simulate_cmd =
  let doc = "Run the end-to-end MDBS simulation (heterogeneous sites, mixed load)" in
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME")
  in
  let sites = Arg.(value & opt int 4 & info [ "sites"; "m" ] ~docv:"M") in
  let globals = Arg.(value & opt int 60 & info [ "globals" ] ~docv:"N") in
  let d_av = Arg.(value & opt int 2 & info [ "dav" ] ~docv:"D") in
  let data =
    Arg.(value & opt int 12 & info [ "data" ] ~docv:"K" ~doc:"Items per site.")
  in
  let hotspot = Arg.(value & opt int 0 & info [ "hotspot" ] ~docv:"H") in
  let seed = Arg.(value & opt int 19 & info [ "seed" ] ~docv:"SEED") in
  let run kind m n_global d_av data_per_site hotspot seed obsf =
    let config =
      {
        Driver.default with
        n_global;
        seed;
        workload = { Workload.default with m; d_av; data_per_site; hotspot };
      }
    in
    let obs = make_obs obsf in
    let r = Driver.run_kind ~obs config kind in
    Format.printf "%a@." Driver.pp_result r;
    export_obs obsf obs;
    if not r.Driver.serializable then
      print_endline "WARNING: execution was NOT globally serializable"
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ scheme $ sites $ globals $ d_av $ data $ hotspot $ seed
      $ obs_flags)

(* -------------------------------------------------------------------- des *)

let des_cmd =
  let doc = "Timed discrete-event simulation: throughput and response times" in
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME")
  in
  let sites = Arg.(value & opt int 4 & info [ "sites"; "m" ] ~docv:"M") in
  let globals = Arg.(value & opt int 60 & info [ "globals" ] ~docv:"N") in
  let latency = Arg.(value & opt float 2.0 & info [ "latency" ] ~docv:"MS") in
  let service = Arg.(value & opt float 1.0 & info [ "service" ] ~docv:"MS") in
  let seed = Arg.(value & opt int 23 & info [ "seed" ] ~docv:"SEED") in
  let atomic = Arg.(value & flag & info [ "2pc" ] ~doc:"Two-phase commit.") in
  let faults =
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC"
           ~doc:"Fault mix, e.g. $(b,crash=1,gtm=1,drop=0.05,dup=0.02); \
                 forces durable sites.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the result as JSON.") in
  let run kind m n_global latency_ms service_ms seed atomic_commit faults json
      obsf backf =
    let backend, lsm_params = resolve_backend backf in
    let fault_plan =
      match faults with
      | None -> Mdbs_sim.Fault.none
      | Some spec -> (
          let horizon = float_of_int n_global /. 0.05 in
          match Mdbs_sim.Fault.of_spec spec ~seed ~m ~horizon with
          | Ok plan -> plan
          | Error msg ->
              prerr_endline ("mdbs des: bad --faults: " ^ msg);
              exit 2)
    in
    let obs = make_obs obsf in
    let config =
      {
        Mdbs_sim.Des.default with
        n_global;
        latency_ms;
        service_ms;
        seed;
        atomic_commit;
        faults = fault_plan;
        workload = { Workload.default with m; backend; lsm_params };
        obs;
      }
    in
    let r = Mdbs_sim.Des.run_kind config kind in
    if json then
      print_endline
        (Mdbs_analysis.Json.to_string (Mdbs_sim.Des.result_to_json r))
    else Format.printf "%a@." Mdbs_sim.Des.pp_result r;
    export_obs obsf obs
  in
  Cmd.v (Cmd.info "des" ~doc)
    Term.(
      const run $ scheme $ sites $ globals $ latency $ service $ seed $ atomic
      $ faults $ json $ obs_flags $ backend_flags)

(* ------------------------------------------------------------------ chaos *)

let chaos_cmd =
  let doc = "Fault-injecting simulation runs, each one certified" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the discrete-event simulator under a seeded fault plan (site \
         crashes, GTM crashes, lossy links, stuck sites) with two-phase \
         commit, then checks three obligations: the committed projection is \
         certified serializable, no transaction committed at one site and \
         aborted at another (and committed ones committed everywhere), and \
         every durable site's storage equals its WAL-predicted state.";
      `P
        "Default: one run of one scheme under $(b,--faults). With \
         $(b,--sweep): the full E14 sweep (schemes x mixes x seeds). Exits \
         1 if any check fails — identical spec + seed reproduce the run \
         exactly.";
    ]
  in
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME")
  in
  let faults =
    Arg.(value & opt string "crash=1,gtm=1,drop=0.05,dup=0.03"
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Fault mix: $(b,crash=N,gtm=N,slow=N:F,drop=P,dup=P,delay=P:MS).")
  in
  let seed = Arg.(value & opt int 101 & info [ "seed" ] ~docv:"SEED") in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the verdict as JSON.") in
  let sweep =
    Arg.(value & flag & info [ "sweep" ]
           ~doc:"Run the full E14 chaos sweep and print its table.")
  in
  let run kind spec seed json sweep obsf backf =
    let backend, lsm_params = resolve_backend backf in
    (* run_one/sweep derive a per-run subdirectory under the root, so runs
       never share state; here we only pick the root and the tuning. *)
    let data_dir = match backend with `Lsm dir -> Some dir | `Mem -> None in
    let with_lsm base =
      {
        base with
        Mdbs_sim.Des.workload =
          { base.Mdbs_sim.Des.workload with Workload.lsm_params };
      }
    in
    if sweep then (
      let outcomes =
        Chaos.sweep ~base:(with_lsm Chaos.base_config) ?data_dir ()
      in
      Report.print (Chaos.table ~outcomes ());
      if not (List.for_all (fun o -> Chaos.ok o.Chaos.checks) outcomes) then (
        prerr_endline "chaos: CHECK FAILED in sweep";
        exit 1))
    else
      let mix =
        match Mdbs_sim.Fault.parse_mix spec with
        | Ok mix -> mix
        | Error msg ->
            prerr_endline ("mdbs chaos: bad --faults: " ^ msg);
            exit 2
      in
      let obs = make_obs obsf in
      let o =
        Chaos.run_one
          ~base:(with_lsm { Chaos.base_config with Mdbs_sim.Des.obs })
          ~profile:obs.Obs.profile ?data_dir ~mix ~seed kind
      in
      if json then
        print_endline (Mdbs_analysis.Json.to_string (Chaos.outcome_to_json o))
      else (
        Format.printf "%a@." Mdbs_sim.Des.pp_result o.Chaos.result;
        Printf.printf
          "checks: certified %b; atomic %b; wal-consistent %b\n"
          o.Chaos.checks.Chaos.certified o.Chaos.checks.Chaos.atomic
          o.Chaos.checks.Chaos.wal_consistent);
      export_obs obsf obs;
      if not (Chaos.ok o.Chaos.checks) then (
        prerr_endline "chaos: CHECK FAILED";
        exit 1)
  in
  Cmd.v (Cmd.info "chaos" ~doc ~man)
    Term.(
      const run $ scheme $ faults $ seed $ json $ sweep $ obs_flags
      $ backend_flags)

(* ---------------------------------------------------------------- analyze *)

(* ---------------------------------------------------------- serve/loadgen *)

module Loadgen = Mdbs_svc.Loadgen
module Runtime = Mdbs_svc.Runtime

let certify_conv =
  let parse = function
    | "batch" -> Ok Runtime.Certify_batch
    | "live" -> Ok Runtime.Certify_live
    | "soak" -> Ok Runtime.Certify_soak
    | s ->
        Error
          (`Msg (Printf.sprintf "unknown certify mode %S (batch|live|soak)" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with
      | Runtime.Certify_batch -> "batch"
      | Runtime.Certify_live -> "live"
      | Runtime.Certify_soak -> "soak")
  in
  Arg.conv (parse, print)

(* Flags shared by the two service-runtime commands. The term's value runs
   the load driver under them, given a progress-line period and the load
   shape its command supplies: it builds the workload and the runtime
   config, drives the load, exports what the observability flags asked for
   and prints the report. Exit 1 when the run is uncertified, 3 on an SLO
   breach. *)
let svc_flags =
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME")
  in
  let sites = Arg.(value & opt int 4 & info [ "sites"; "m" ] ~docv:"M") in
  let data =
    Arg.(value & opt int 32 & info [ "data" ] ~docv:"K" ~doc:"Items per site.")
  in
  let d_av = Arg.(value & opt int 2 & info [ "dav" ] ~docv:"D") in
  let hotspot = Arg.(value & opt int 0 & info [ "hotspot" ] ~docv:"H") in
  let local =
    Arg.(value & opt float 0. & info [ "local" ] ~docv:"FRAC"
           ~doc:"Fraction of submissions that are local transactions \
                 (bypassing the GTM).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let atomic = Arg.(value & flag & info [ "2pc" ] ~doc:"Two-phase commit.") in
  let capacity =
    Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N"
           ~doc:"GTM admission-lane bound (backpressure surface).")
  in
  let max_active =
    Arg.(value & opt int 64 & info [ "max-active" ] ~docv:"N"
           ~doc:"Concurrently admitted global transactions.")
  in
  let stall =
    Arg.(value & opt float 250. & info [ "stall-ms" ] ~docv:"MS"
           ~doc:"Hard per-transaction wait deadline: a site-blocked global \
                 past it with nothing to wound is killed itself (bounded \
                 wait).")
  in
  let wound =
    Arg.(value & opt (some float) None & info [ "wound-ms" ] ~docv:"MS"
           ~doc:"Wound window: a site-blocked global waiting this long \
                 wounds the youngest strictly-younger transaction resident \
                 at its blocked site. Default: max(4*tick, 20) ms, capped \
                 at --stall-ms.")
  in
  let tick =
    Arg.(value & opt float 5. & info [ "tick-ms" ] ~docv:"MS"
           ~doc:"Runtime ticker period: how often the stall detector \
                 re-examines blocked transactions.")
  in
  let no_retry =
    Arg.(value & flag & info [ "no-retry" ]
           ~doc:"Disable client-side retry: one attempt per transaction.")
  in
  let max_attempts =
    Arg.(value & opt int 4 & info [ "max-attempts" ] ~docv:"N"
           ~doc:"Total attempts per logical transaction (retries = N-1).")
  in
  let backoff =
    Arg.(value & opt float 4. & info [ "backoff-ms" ] ~docv:"MS"
           ~doc:"First backoff window (full jitter, doubling per attempt).")
  in
  let backoff_cap =
    Arg.(value & opt float 64. & info [ "backoff-cap-ms" ] ~docv:"MS"
           ~doc:"Backoff window ceiling.")
  in
  let shed_parked =
    Arg.(value & opt (some int) None & info [ "shed-parked" ] ~docv:"N"
           ~doc:"Admission-shedding bound on the GTM's parked queue \
                 (default 8*max-active).")
  in
  let shed_blocked =
    Arg.(value & opt (some int) None & info [ "shed-blocked" ] ~docv:"N"
           ~doc:"Admission-shedding bound on the site-blocked population \
                 (default max-active).")
  in
  let certify =
    Arg.(value & opt certify_conv Runtime.Certify_batch
         & info [ "certify" ] ~docv:"MODE"
             ~doc:"Certification mode: $(b,batch) replays the captured \
                   trace post-hoc (default); $(b,live) additionally runs \
                   the always-on streaming checker with rolling \
                   checkpoints, keeping batch as a differential oracle; \
                   $(b,soak) is live with audit retention off, for \
                   unbounded runs with memory O(active window).")
  in
  let cert_every =
    Arg.(value & opt int 4096 & info [ "cert-checkpoint" ] ~docv:"N"
           ~doc:"Events per rolling checkpoint of the live certifier.")
  in
  let zipf =
    Arg.(value & opt float 0. & info [ "zipf" ] ~docv:"THETA"
           ~doc:"Zipfian key-selection skew within each site (0 = uniform, \
                 the default; 0.99 = YCSB-like hot keys). Seeded per \
                 client substream.")
  in
  let locality =
    Arg.(value & opt float 0. & info [ "locality" ] ~docv:"FRAC"
           ~doc:"Probability that a global transaction confines its site \
                 set to one of --site-groups contiguous site groups \
                 (0 = uniform site choice).")
  in
  let site_groups =
    Arg.(value & opt int 0 & info [ "site-groups" ] ~docv:"G"
           ~doc:"Number of contiguous site groups --locality confines \
                 transactions to (0 = disabled).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")
  in
  let run kind m data d_av hotspot local seed atomic_commit capacity
      max_active stall wound tick no_retry max_attempts backoff backoff_cap
      shed_parked shed_blocked certify cert_every zipf_theta locality
      site_groups json obsf telemf backf report_every_s load =
    let retry =
      if no_retry then Mdbs_svc.Retry.off
      else
        Mdbs_svc.Retry.policy ~max_attempts ~base_ms:backoff
          ~cap_ms:backoff_cap ()
    in
    let backend, lsm_params = resolve_backend backf in
    let wl =
      { Workload.default with
        m; data_per_site = data; d_av; hotspot; backend; lsm_params;
        zipf_theta; locality; site_groups }
    in
    let cfg =
      Loadgen.config ~local_fraction:local ~seed ~retry ?report_every_s ~wl
        load
    in
    let obs = make_obs ~force_metrics:(telemetry_enabled telemf) obsf in
    let telemetry_out, openmetrics_out, telemetry_interval_ms, slos,
        flight_dump =
      telemf
    in
    let r =
      Loadgen.run
        (Runtime.config ~atomic_commit ~capacity ~max_active
           ~stall_timeout_ms:stall ?wound_after_ms:wound ~tick_ms:tick
           ?shed_parked ?shed_blocked ~obs ~certify
           ~cert_checkpoint_every:cert_every ?telemetry_out
           ?openmetrics_out ~telemetry_interval_ms ~slos ?flight_dump
           ~scheme:(Registry.make kind) ~sites:(Workload.make_sites wl) ())
        cfg
    in
    export_obs obsf obs;
    if json then
      print_endline
        (Mdbs_util.Json.to_string
           (Loadgen.report_to_json ~profile:obs.Obs.profile r))
    else Format.printf "%a" Loadgen.print_report r;
    if not r.Loadgen.certified then exit 1;
    slo_exit r.Loadgen.run.Runtime.slo
  in
  Term.(
    const run $ scheme $ sites $ data $ d_av $ hotspot $ local $ seed $ atomic
    $ capacity $ max_active $ stall $ wound $ tick $ no_retry $ max_attempts
    $ backoff $ backoff_cap $ shed_parked $ shed_blocked $ certify
    $ cert_every $ zipf $ locality $ site_groups $ json $ obs_flags
    $ telemetry_flags $ backend_flags)

let loadgen_cmd =
  let doc =
    "Closed-loop load generation against the parallel service runtime, \
     certified"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Starts the real concurrent runtime — one worker domain per site, a \
         GTM domain running admission plus the GTM2 scheduler — and drives \
         it with $(b,--clients) closed-loop clients, all played by one \
         driver thread. Reports goodput and latency percentiles timed from \
         when each transaction was due, and certifies the captured \
         interleaving against the paper's Theorem-2 obligations (exit 1 if \
         certification fails).";
    ]
  in
  let clients = Arg.(value & opt int 32 & info [ "clients" ] ~docv:"N") in
  let txns =
    Arg.(value & opt int 25 & info [ "txns" ] ~docv:"N"
           ~doc:"Transactions per client.")
  in
  Cmd.v (Cmd.info "loadgen" ~doc ~man)
    Term.(
      const (fun run clients txns ->
          run None (Loadgen.Closed { clients; txns_per_client = txns }))
      $ svc_flags $ clients $ txns)

let serve_cmd =
  let doc = "Open-loop service mode: Poisson arrivals, admission control" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the parallel service runtime under open-loop Poisson arrivals \
         at $(b,--rate) transactions per second for $(b,--duration) \
         seconds. When the offered load exceeds what the scheme sustains, \
         the bounded admission lane refuses the excess (counted as \
         rejected) instead of queueing without bound. Progress lines show \
         live stall attribution from the scheme's own explain hook; the \
         final run is certified like every other.";
    ]
  in
  let rate =
    Arg.(value & opt float 200. & info [ "rate" ] ~docv:"TPS"
           ~doc:"Offered arrival rate (Poisson).")
  in
  let duration =
    Arg.(value & opt float 5. & info [ "duration" ] ~docv:"S")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No progress lines.") in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const (fun run rate duration quiet ->
          run
            (if quiet then None else Some 1.)
            (Loadgen.Open { rate; duration_s = duration }))
      $ svc_flags $ rate $ duration $ quiet)

(* ---------------------------------------------------------------- recover *)

let recover_cmd =
  let doc = "Recover LSM site directories offline and audit them against \
             their WALs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Opens every $(b,site-*) subdirectory under $(b,--data-dir) the way \
         a restarting site would — manifest runs, WAL-suffix redo, loser \
         undo with logged compensation — then audits the result: the state \
         predicted by replaying the on-disk WAL over the manifest's runs \
         (the log is checkpointed at each flush, so it carries unresolved \
         transactions plus the post-flush suffix) must equal the \
         recovered storage, item for item. Lists in-doubt (prepared but \
         unresolved) transactions left for the GTM's decision record. \
         Exits 1 on any mismatch or unreadable site, 2 when the directory \
         holds no sites.";
      `P
        "Safe to run after $(b,kill -9): recovery is idempotent, so a crash \
         during recovery itself re-recovers cleanly.";
    ]
  in
  let data_dir =
    Arg.(required & opt (some dir) None & info [ "data-dir" ] ~docv:"DIR"
           ~doc:"Root directory written by a $(b,--backend lsm) run.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the audit as JSON.")
  in
  let run data_dir json =
    let module Gw = Mdbs_storage_lsm.Group_wal in
    let module Json = Mdbs_util.Json in
    let site_dirs =
      Sys.readdir data_dir |> Array.to_list |> List.sort compare
      |> List.filter (fun d ->
             String.length d > 5
             && String.sub d 0 5 = "site-"
             && Sys.is_directory (Filename.concat data_dir d))
    in
    (* A single-site store (the directory itself holds wal.log) counts. *)
    let site_dirs =
      if site_dirs = [] && Sys.file_exists (Filename.concat data_dir "wal.log")
      then [ "." ]
      else site_dirs
    in
    if site_dirs = [] then begin
      prerr_endline
        ("mdbs recover: no site-* directories (or wal.log) under " ^ data_dir);
      exit 2
    end;
    let audit sub =
      let dir = Filename.concat data_dir sub in
      match
        let t = Lsm.open_dir dir in
        let items = Lsm.items t in
        let in_doubt = Lsm.recovered_in_doubt t in
        let st = Lsm.stats t in
        Lsm.close t;
        (* Audit after recovery so the predictor sees the compensation
           records recovery itself just logged. *)
        let records, _ = Gw.read_file (Filename.concat dir "wal.log") in
        let predicted = Lsm.predicted_items dir in
        let clean l = List.sort compare (List.filter (fun (_, v) -> v <> 0) l) in
        (clean predicted = clean items, items, in_doubt, st,
         List.length records)
      with
      | ok, items, in_doubt, st, wal_records ->
          `Audited (sub, ok, items, in_doubt, st, wal_records)
      | exception e -> `Failed (sub, Printexc.to_string e)
    in
    let results = List.map audit site_dirs in
    let all_ok =
      List.for_all
        (function `Audited (_, ok, _, _, _, _) -> ok | `Failed _ -> false)
        results
    in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("data_dir", Json.Str data_dir);
                ("ok", Json.Bool all_ok);
                ( "sites",
                  Json.List
                    (List.map
                       (function
                         | `Audited (sub, ok, items, in_doubt, st, wal_records)
                           ->
                             Json.Obj
                               [
                                 ("site", Json.Str sub);
                                 ("wal_matches_storage", Json.Bool ok);
                                 ("items", Json.Int (List.length items));
                                 ("wal_records", Json.Int wal_records);
                                 ( "in_doubt",
                                   Json.List
                                     (List.map
                                        (fun tid -> Json.Int tid)
                                        in_doubt) );
                                 ("l0_runs", Json.Int st.Lsm.l0_runs);
                                 ("l1_runs", Json.Int st.Lsm.l1_runs);
                                 ( "durable_bytes",
                                   Json.Int st.Lsm.bytes_durable );
                               ]
                         | `Failed (sub, msg) ->
                             Json.Obj
                               [
                                 ("site", Json.Str sub);
                                 ("error", Json.Str msg);
                               ])
                       results) );
              ]))
    else
      List.iter
        (function
          | `Audited (sub, ok, items, in_doubt, st, wal_records) ->
              Printf.printf
                "%s: %s — %d items, %d WAL records, %d+%d runs (L0+L1)%s\n"
                sub
                (if ok then "recovered, WAL-consistent"
                 else "MISMATCH (storage <> WAL-predicted state)")
                (List.length items) wal_records st.Lsm.l0_runs st.Lsm.l1_runs
                (match in_doubt with
                | [] -> ""
                | tids ->
                    Printf.sprintf "; in-doubt: %s"
                      (String.concat ","
                         (List.map string_of_int tids)))
          | `Failed (sub, msg) -> Printf.printf "%s: FAILED — %s\n" sub msg)
        results;
    if not all_ok then exit 1
  in
  Cmd.v (Cmd.info "recover" ~doc ~man) Term.(const run $ data_dir $ json)

let analyze_cmd =
  let doc = "Statically certify and lint a recorded global schedule" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the static analysis pass over a trace without re-executing \
         it: the certifier checks global conflict serializability and the \
         paper's Theorem-2 obligations, emitting a machine-checkable \
         certificate or a counterexample cycle with concrete conflicting \
         operation pairs; the linter reports typed diagnostics (MA001..MA005).";
      `P
        "The trace comes from one of three sources: $(b,--trace) reads the \
         textual format from a file, $(b,--simulate) captures one from the \
         end-to-end simulation, $(b,--replay) captures the realized ser(S) \
         from an engine-level replay.";
      `P "Exits 1 when the analysis reports any error, 2 on a parse error.";
    ]
  in
  let trace_file =
    Arg.(value & opt (some file) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Analyze a textual trace file.")
  in
  let simulate =
    Arg.(value & flag & info [ "simulate" ]
           ~doc:"Capture and analyze a trace from the end-to-end simulation.")
  in
  let replay =
    Arg.(value & flag & info [ "replay" ]
           ~doc:"Capture and analyze the realized ser(S) of an engine-level \
                 replay.")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.") in
  let incremental =
    Arg.(value & flag & info [ "incremental" ]
           ~doc:"Also stream the trace through the incremental certifier \
                 and report its verdict, window statistics and agreement \
                 with the batch pass (a differential check; disagreement \
                 exits 1).")
  in
  let scheme =
    Arg.(value & opt scheme_conv Registry.S3 & info [ "scheme" ] ~docv:"SCHEME"
           ~doc:"Scheme for the --simulate/--replay sources.")
  in
  let sites = Arg.(value & opt int 4 & info [ "sites"; "m" ] ~docv:"M") in
  let globals = Arg.(value & opt int 60 & info [ "globals" ] ~docv:"N") in
  let txns = Arg.(value & opt int 64 & info [ "txns" ] ~docv:"N") in
  let d_av = Arg.(value & opt int 2 & info [ "dav" ] ~docv:"D") in
  let seed = Arg.(value & opt int 19 & info [ "seed" ] ~docv:"SEED") in
  let run trace_file simulate replay json incremental kind m n_global n_txns
      d_av seed =
    let fail_usage msg =
      prerr_endline ("mdbs analyze: " ^ msg);
      exit 2
    in
    let trace =
      match (trace_file, simulate, replay) with
      | Some file, false, false -> (
          match Trace.of_file file with
          | Ok trace -> trace
          | Error msg -> fail_usage msg)
      | None, true, false ->
          Mdbs_model.Types.reset_tids ();
          let config =
            {
              Driver.default with
              n_global;
              seed;
              workload = { Workload.default with m; d_av };
            }
          in
          let _, trace, _ = Driver.run_traced config (Registry.make kind) in
          trace
      | None, false, true ->
          let config =
            { Replay.default with m; n_txns; d_av = max 1 d_av }
          in
          (Replay.run ~seed config (Registry.make kind)).Replay.trace
      | None, false, false ->
          fail_usage "one of --trace FILE, --simulate, --replay is required"
      | _ -> fail_usage "--trace, --simulate and --replay are exclusive"
    in
    let report = Analysis.analyze trace in
    let inc =
      if incremental then
        Some (Mdbs_analysis.Incremental.of_trace trace)
      else None
    in
    (if json then
       let report_json = Analysis.to_json report in
       match inc with
       | None -> print_endline (Mdbs_analysis.Json.to_string report_json)
       | Some i ->
           let module I = Mdbs_analysis.Incremental in
           let st = I.stats i in
           print_endline
             (Mdbs_analysis.Json.to_string
                (Mdbs_analysis.Json.Obj
                   [
                     ("report", report_json);
                     ( "incremental",
                       Mdbs_analysis.Json.Obj
                         [
                           ("violated", Mdbs_analysis.Json.Bool (I.violated i));
                           ( "agrees_with_batch",
                             Mdbs_analysis.Json.Bool
                               (I.violated i = not (Analysis.certified report)) );
                           ("events", Mdbs_analysis.Json.Int st.I.events);
                           ( "peak_live_txns",
                             Mdbs_analysis.Json.Int st.I.peak_live_txns );
                           ("stable_csr", Mdbs_analysis.Json.Int st.I.stable_csr);
                           ("stable_t2", Mdbs_analysis.Json.Int st.I.stable_t2);
                           ("live_edges", Mdbs_analysis.Json.Int st.I.live_edges);
                         ] );
                   ]))
     else begin
       Format.printf "%a@." Analysis.pp report;
       match inc with
       | None -> ()
       | Some i ->
           let module I = Mdbs_analysis.Incremental in
           let st = I.stats i in
           Printf.printf
             "incremental: %s (%s batch); %d events, peak window %d, stable \
              %d/%d (csr/t2), %d live edges\n"
             (if I.violated i then "violation" else "clean")
             (if I.violated i = not (Analysis.certified report) then
                "agrees with"
              else "DISAGREES with")
             st.I.events st.I.peak_live_txns st.I.stable_csr st.I.stable_t2
             st.I.live_edges
     end);
    let disagrees =
      match inc with
      | Some i ->
          Mdbs_analysis.Incremental.violated i
          <> not (Analysis.certified report)
      | None -> false
    in
    if Analysis.errors report > 0 || disagrees then exit 1
  in
  Cmd.v (Cmd.info "analyze" ~doc ~man)
    Term.(
      const run $ trace_file $ simulate $ replay $ json $ incremental $ scheme
      $ sites $ globals $ txns $ d_av $ seed)

let () =
  let doc = "Multidatabase concurrency control (SIGMOD 1992) reproduction" in
  let info = Cmd.info "mdbs" ~doc ~version:"1.0.0" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            schemes_cmd; experiments_cmd; replay_cmd; simulate_cmd; des_cmd;
            chaos_cmd; serve_cmd; loadgen_cmd; recover_cmd;
            analyze_cmd;
          ]))
