module Workload = Mdbs_sim.Workload
module Registry = Mdbs_core.Registry
module Types = Mdbs_model.Types
module Txn = Mdbs_model.Txn
module Rng = Mdbs_util.Rng
module Stats = Mdbs_util.Stats
module Json = Mdbs_util.Json
module Obs = Mdbs_obs.Obs
module Metrics = Mdbs_obs.Metrics
module Slo = Mdbs_obs.Slo
module Analysis = Mdbs_analysis.Analysis

type config = {
  wl : Workload.config;
  scheme : Registry.kind;
  clients : int;
  txns_per_client : int;
  local_fraction : float;
  seed : int;
  retry : Retry.policy;
  atomic_commit : bool;
  capacity : int;
  max_active : int;
  stall_timeout_ms : float;
  wound_after_ms : float option;
  tick_ms : float;
  shed_parked : int option;
  shed_blocked : int option;
  obs : Obs.t;
  certify : Runtime.certify_mode;
  cert_checkpoint_every : int;
  telemetry_out : string option;
  openmetrics_out : string option;
  telemetry_interval_ms : float;
  slos : Slo.spec list;
  flight_dump : string option;
}

let config ?(wl = Workload.default) ?(clients = 8) ?(txns_per_client = 25)
    ?(local_fraction = 0.) ?(seed = 42) ?(retry = Retry.default)
    ?(atomic_commit = false) ?(capacity = 64) ?(max_active = 64)
    ?(stall_timeout_ms = 250.) ?wound_after_ms ?(tick_ms = 5.) ?shed_parked
    ?shed_blocked ?(obs = Obs.disabled) ?(certify = Runtime.Certify_batch)
    ?(cert_checkpoint_every = 4096) ?telemetry_out ?openmetrics_out
    ?(telemetry_interval_ms = 1000.) ?(slos = []) ?flight_dump scheme =
  if clients < 1 then invalid_arg "Loadgen.config: clients < 1";
  if txns_per_client < 1 then invalid_arg "Loadgen.config: txns_per_client < 1";
  { wl; scheme; clients; txns_per_client; local_fraction; seed; retry;
    atomic_commit; capacity; max_active; stall_timeout_ms; wound_after_ms;
    tick_ms; shed_parked; shed_blocked; obs; certify; cert_checkpoint_every;
    telemetry_out; openmetrics_out; telemetry_interval_ms; slos; flight_dump }

type report = {
  scheme_name : string;
  backend : string;
  sites : int;
  clients : int;
  submitted : int;
  committed : int;
  aborted : int;
  attempts : int;
  retries : int;
  sheds : int;
  commit_ratio : float;
  certified : bool;
  violations : int;
  elapsed_s : float;
  throughput : float;
  goodput : float;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  force_aborts : int;
  wounds : int;
  stall_kills : int;
  abort_causes : (string * int) list;
  wait_insertions : int;
  ser_waits : int;
  run : Runtime.result;
}

(* Per-client tallies, owned by one client thread until join. *)
type acc = {
  mutable c_committed : int;
  mutable c_attempts : int;
  mutable c_retries : int;
  mutable c_sheds : int;
}

(* Run one logical transaction to its final outcome: submit, await, and on
   a retryable outcome reissue the same script under a fresh tid — the
   aborted attempt keeps its old id in the trace, and ser(S) must never
   visit a site twice for one id — after a seeded full-jitter backoff
   drawn from the client's dedicated backoff stream. Every attempt passes
   the first attempt's id as the wound-wait [birth], so a logical
   transaction keeps its seniority across retries and cannot be wounded
   forever. *)
let run_logical cfg brng ~submit ~retry_of_attempt txn acc =
  let birth = txn.Txn.id in
  let rec go txn k =
    acc.c_attempts <- acc.c_attempts + 1;
    match (Promise.await (submit ~birth txn) : Outcome.t) with
    | Outcome.Committed -> acc.c_committed <- acc.c_committed + 1
    | (Outcome.Aborted _ | Outcome.Shed) as out ->
        let shed = out = Outcome.Shed in
        if shed then acc.c_sheds <- acc.c_sheds + 1;
        if k < cfg.retry.Retry.max_attempts && Retry.retryable out then begin
          acc.c_retries <- acc.c_retries + 1;
          Metrics.inc (retry_of_attempt k);
          let d = Retry.delay_ms cfg.retry brng ~attempt:k ~shed in
          if d > 0. then Thread.delay (d /. 1000.);
          go (Txn.with_id txn (Types.fresh_tid ())) (k + 1)
        end
  in
  go txn 1

(* One client: a closed loop with its own deterministic streams — one for
   the workload, a separate one for backoff, so toggling retries never
   perturbs the generated transaction sequence. Latencies land in a
   preallocated per-client array, end to end across all attempts of the
   logical transaction. *)
let client_loop rt cfg rng brng lat acc ~retry_of_attempt =
  for i = 0 to cfg.txns_per_client - 1 do
    let local =
      cfg.local_fraction > 0. && Rng.float rng 1.0 < cfg.local_fraction
    in
    let t0 = Unix.gettimeofday () in
    (if local then
       let sid = Rng.int rng cfg.wl.Workload.m in
       run_logical cfg brng
         ~submit:(fun ~birth:_ t -> Runtime.submit_local rt t)
         ~retry_of_attempt
         (Workload.local_txn rng cfg.wl sid)
         acc
     else
       run_logical cfg brng
         ~submit:(fun ~birth t -> Runtime.submit_global rt ~birth t)
         ~retry_of_attempt
         (Workload.global_txn rng cfg.wl)
         acc);
    lat.(i) <- (Unix.gettimeofday () -. t0) *. 1000.
  done

let run cfg =
  let sites = Workload.make_sites cfg.wl in
  let rt =
    Runtime.start
      (Runtime.config ~atomic_commit:cfg.atomic_commit ~capacity:cfg.capacity
         ~max_active:cfg.max_active ~stall_timeout_ms:cfg.stall_timeout_ms
         ?wound_after_ms:cfg.wound_after_ms ~tick_ms:cfg.tick_ms
         ?shed_parked:cfg.shed_parked ?shed_blocked:cfg.shed_blocked
         ~obs:cfg.obs ~certify:cfg.certify
         ~cert_checkpoint_every:cfg.cert_checkpoint_every
         ?telemetry_out:cfg.telemetry_out ?openmetrics_out:cfg.openmetrics_out
         ~telemetry_interval_ms:cfg.telemetry_interval_ms ~slos:cfg.slos
         ?flight_dump:cfg.flight_dump ~scheme:(Registry.make cfg.scheme)
         ~sites ())
  in
  let retry_of_attempt =
    Retry.attempt_counters cfg.obs.Obs.metrics cfg.retry
  in
  let master = Rng.create cfg.seed in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init cfg.clients (fun i ->
        let rng = Rng.substream master i in
        (* Backoff stream indices live past the workload streams so the
           workload draws are identical with retries on or off. *)
        let brng = Rng.substream master (cfg.clients + i) in
        let lat = Array.make cfg.txns_per_client 0. in
        let acc =
          { c_committed = 0; c_attempts = 0; c_retries = 0; c_sheds = 0 }
        in
        let th =
          Thread.create
            (fun () -> client_loop rt cfg rng brng lat acc ~retry_of_attempt)
            ()
        in
        (th, lat, acc))
  in
  let per_client =
    List.map
      (fun (th, lat, acc) ->
        Thread.join th;
        (lat, acc))
      threads
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let res = Runtime.shutdown rt in
  let latencies =
    List.concat_map (fun (lat, _) -> Array.to_list lat) per_client
  in
  let sum f = List.fold_left (fun a (_, acc) -> a + f acc) 0 per_client in
  (* Locals settle site-side and are not in the runtime's commit counter;
     the client-side counts cover both kinds. *)
  let committed = sum (fun a -> a.c_committed) in
  let attempts = sum (fun a -> a.c_attempts) in
  let retries = sum (fun a -> a.c_retries) in
  let sheds = sum (fun a -> a.c_sheds) in
  let submitted = cfg.clients * cfg.txns_per_client in
  (* The runtime synced the sites at shutdown; release their descriptors
     so multi-run processes (the bench grid) do not accumulate them. *)
  List.iter Mdbs_site.Local_dbms.close sites;
  let st = res.Runtime.run_stats in
  let pct p = if latencies = [] then 0. else Stats.percentile latencies p in
  let per_s n = if elapsed_s > 0. then float_of_int n /. elapsed_s else 0. in
  {
    scheme_name = res.Runtime.scheme_name;
    backend =
      (match cfg.wl.Workload.backend with `Mem -> "mem" | `Lsm _ -> "lsm");
    sites = cfg.wl.Workload.m;
    clients = cfg.clients;
    submitted;
    committed;
    aborted = submitted - committed;
    attempts;
    retries;
    sheds;
    commit_ratio =
      (if submitted > 0 then float_of_int committed /. float_of_int submitted
       else 0.);
    certified = res.Runtime.certified;
    violations = Analysis.errors res.Runtime.analysis;
    elapsed_s;
    throughput = per_s attempts;
    goodput = per_s committed;
    mean_ms = (if latencies = [] then 0. else Stats.mean latencies);
    p50_ms = pct 50.;
    p95_ms = pct 95.;
    p99_ms = pct 99.;
    max_ms = List.fold_left Float.max 0. latencies;
    force_aborts = st.Runtime.force_aborts;
    wounds = st.Runtime.wounds;
    stall_kills = st.Runtime.stall_kills;
    abort_causes = st.Runtime.abort_causes;
    wait_insertions = res.Runtime.wait_insertions;
    ser_waits = res.Runtime.ser_waits;
    run = res;
  }

let report_to_json ?profile r =
  Json.Obj
    [
      ("scheme", Json.Str r.scheme_name);
      ("backend", Json.Str r.backend);
      ("sites", Json.Int r.sites);
      ("clients", Json.Int r.clients);
      ("submitted", Json.Int r.submitted);
      ("committed", Json.Int r.committed);
      ("aborted", Json.Int r.aborted);
      ("attempts", Json.Int r.attempts);
      ("retries", Json.Int r.retries);
      ("sheds", Json.Int r.sheds);
      ("commit_ratio", Json.Float r.commit_ratio);
      ("certified", Json.Bool r.certified);
      ("violations", Json.Int r.violations);
      ("elapsed_s", Json.Float r.elapsed_s);
      ("throughput_txn_s", Json.Float r.throughput);
      ("goodput_txn_s", Json.Float r.goodput);
      ( "latency_ms",
        Json.Obj
          [
            ("mean", Json.Float r.mean_ms);
            ("p50", Json.Float r.p50_ms);
            ("p95", Json.Float r.p95_ms);
            ("p99", Json.Float r.p99_ms);
            ("max", Json.Float r.max_ms);
          ] );
      ("force_aborts", Json.Int r.force_aborts);
      ("wounds", Json.Int r.wounds);
      ("stall_kills", Json.Int r.stall_kills);
      ( "aborts_by_cause",
        Json.Obj (List.map (fun (c, n) -> (c, Json.Int n)) r.abort_causes) );
      ("gtm2_wait_insertions", Json.Int r.wait_insertions);
      ("gtm2_ser_waits", Json.Int r.ser_waits);
      ( "ops_per_site",
        Json.Obj
          (List.map
             (fun (sid, n) -> (string_of_int sid, Json.Int n))
             r.run.Runtime.run_stats.Runtime.ops_per_site) );
      (* Logical record count vs bytes actually fsynced: wal_records_total
         (in metrics) counts appends; this counts durability. *)
      ("durable_bytes", Json.Int r.run.Runtime.durable_bytes);
      ( "live_certification",
        match r.run.Runtime.live with
        | Some s -> Live_cert.summary_to_json s
        | None -> Json.Null );
      ( "slo",
        match r.run.Runtime.slo with
        | Some s -> Slo.summary_to_json s
        | None -> Json.Null );
      ( "flight_dumps",
        Json.List
          (List.map
             (fun (reason, path) ->
               Json.Obj
                 [ ("reason", Json.Str reason); ("path", Json.Str path) ])
             r.run.Runtime.flight_dumps) );
      ( "profile",
        match profile with
        | Some p when Mdbs_obs.Profile.enabled p -> Mdbs_obs.Profile.to_json p
        | _ -> Json.Null );
    ]

let print_report ppf r =
  Format.fprintf ppf
    "@[<v>scheme %s: %d sites, %d clients, %d txns in %.2fs@,\
     committed %d/%d (ratio %.3f, goodput %.1f txn/s), %d attempts \
     (%d retries, %d sheds, %.1f attempt/s)@,\
     certified %s (%d violations)@,\
     latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f@,\
     gtm: %d wounds, %d forced aborts, %d stall kills, %d GTM2 waits (%d ser)%a@]@."
    r.scheme_name r.sites r.clients r.submitted r.elapsed_s r.committed
    r.submitted r.commit_ratio r.goodput r.attempts r.retries r.sheds
    r.throughput
    (if r.certified then "yes" else "NO")
    r.violations r.mean_ms r.p50_ms r.p95_ms r.p99_ms r.max_ms r.wounds
    r.force_aborts r.stall_kills r.wait_insertions r.ser_waits
    (fun ppf causes ->
      match causes with
      | [] -> ()
      | causes ->
          Format.fprintf ppf "@,aborts by cause:";
          List.iter
            (fun (c, n) -> Format.fprintf ppf " %s=%d" c n)
            causes)
    r.abort_causes;
  (match r.run.Runtime.live with
  | None -> ()
  | Some s ->
      let st = s.Live_cert.stats in
      Format.fprintf ppf
        "@[<v>live certifier: %s, %d events, %d checkpoints (chain %s)@,        \  peak live txns %d, stable %d/%d (csr/t2), live edges %d@]@."
        (if s.Live_cert.violated then "VIOLATION" else "clean")
        st.Mdbs_analysis.Incremental.events s.Live_cert.checkpoints
        (if s.Live_cert.chain_ok then "ok" else "BROKEN")
        st.Mdbs_analysis.Incremental.peak_live_txns
        st.Mdbs_analysis.Incremental.stable_csr
        st.Mdbs_analysis.Incremental.stable_t2
        st.Mdbs_analysis.Incremental.live_edges);
  match r.run.Runtime.slo with
  | None -> ()
  | Some s ->
      Format.fprintf ppf "@[<v>slo: %s%a@]@."
        (Slo.verdict_to_string s.Slo.worst)
        (fun ppf objectives ->
          List.iter
            (fun o ->
              Format.fprintf ppf "@,  %s — %s (%d/%d bad windows, %d breach)"
                o.Slo.o_spec.Slo.src
                (Slo.verdict_to_string o.Slo.o_worst)
                o.Slo.o_bad o.Slo.o_windows o.Slo.o_breaches)
            objectives)
        s.Slo.objectives
