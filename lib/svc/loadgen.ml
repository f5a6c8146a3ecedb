module Workload = Mdbs_sim.Workload
module Types = Mdbs_model.Types
module Txn = Mdbs_model.Txn
module Rng = Mdbs_util.Rng
module Stats = Mdbs_util.Stats
module Json = Mdbs_util.Json
module Metrics = Mdbs_obs.Metrics
module Slo = Mdbs_obs.Slo
module Analysis = Mdbs_analysis.Analysis

type load =
  | Closed of { clients : int; txns_per_client : int }
  | Open of { rate : float; duration_s : float }

type config = {
  wl : Workload.config;
  load : load;
  local_fraction : float;
  seed : int;
  retry : Retry.policy;
  report_every_s : float option;
}

let config ?(local_fraction = 0.) ?(seed = 42) ?(retry = Retry.default)
    ?report_every_s ~wl load =
  (match load with
  | Closed { clients; txns_per_client } ->
      if clients < 1 then invalid_arg "Loadgen.config: clients < 1";
      if txns_per_client < 1 then
        invalid_arg "Loadgen.config: txns_per_client < 1"
  | Open { rate; duration_s } ->
      if rate <= 0. then invalid_arg "Loadgen.config: rate <= 0";
      if duration_s <= 0. then invalid_arg "Loadgen.config: duration <= 0");
  { wl; load; local_fraction; seed; retry; report_every_s }

type report = {
  load : load;
  scheme_name : string;
  backend : string;
  sites : int;
  submitted : int;
  committed : int;
  aborted : int;
  attempts : int;
  accepted : int;
  rejected_backpressure : int;
  retries : int;
  sheds : int;
  commit_ratio : float;
  certified : bool;
  violations : int;
  elapsed_s : float;
  throughput : float;
  goodput : float;
  latencies_ms : float list;
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  run : Runtime.result;
}

(* Sleep between two sweeps of the attempts in flight, drawn uniformly
   below this. A fixed sleep would phase-lock the sweeps to the
   submissions and quantise sub-millisecond latencies. *)
let poll_jitter_ms = 0.045

(* Where logical transactions come from: one closed-loop client, or the
   open loop's arrival process. *)
type source = {
  rng : Rng.t;  (** Workload; in the open loop, arrivals too. *)
  brng : Rng.t;  (** Backoff. *)
  mutable left : int;  (** Closed loop: logical transactions not started. *)
  mutable busy : bool;  (** Closed loop: one of them is not final yet. *)
}

type logical = {
  src : source;
  birth : int;  (** Id of the first attempt: the wound-wait age. *)
  local : bool;
  due_ms : float;
  mutable txn : Txn.t;  (** The current (or next) attempt. *)
  mutable attempts : int;
  mutable promise : Outcome.t Promise.t option;
  mutable resubmit_ms : float;
  mutable final : bool;
}

let progress_line rt offered rejected shed =
  let st = Runtime.stats rt in
  Printf.printf
    "[serve] offered %d  committed %d  aborted %d  rejected %d  shed %d  \
     active %d  forced %d%s\n"
    offered st.Runtime.committed st.Runtime.aborted rejected shed
    st.Runtime.active st.Runtime.force_aborts
    (match Runtime.live_violated rt with
    | None -> ""
    | Some false -> "  cert ok"
    | Some true -> "  cert VIOLATION");
  (match Runtime.stalled rt with
  | [] -> ()
  | delayed ->
      Printf.printf "[serve]   %d delayed in GTM2:\n" (List.length delayed);
      List.iteri
        (fun i (op, why) ->
          if i < 4 then Printf.printf "[serve]     %s — %s\n" op why)
        delayed);
  flush stdout

let run rcfg cfg =
  let rt = Runtime.start rcfg in
  let clock = Clock.start () in
  let now () = Clock.now_ms clock in
  let retry_of_attempt =
    Retry.attempt_counters rcfg.Runtime.obs.Mdbs_obs.Obs.metrics cfg.retry
  in
  let master = Rng.create cfg.seed in
  (* Every stream is derived before [master] advances, and the backoff
     streams sit apart from the workload streams, so the offered
     transactions are the same with retries on or off. *)
  let sources, jitter =
    match cfg.load with
    | Closed { clients; txns_per_client } ->
        ( Array.init clients (fun i ->
              { rng = Rng.substream master i;
                brng = Rng.substream master (clients + i);
                left = txns_per_client; busy = false }),
          Rng.substream master (2 * clients) )
    | Open _ ->
        ( [| { rng = master; brng = Rng.substream master 0; left = 0;
               busy = false } |],
          Rng.substream master 1 )
  in
  let submitted = ref 0 and committed = ref 0 and accepted = ref 0 in
  let rejected = ref 0 and retries = ref 0 and sheds = ref 0 in
  let latencies = ref [] in
  (* Not yet final, newest first; rebuilt only after one became final, so
     an idle sweep allocates next to nothing. *)
  let live = ref [] and finished = ref false in
  let settle l time ~ok =
    l.final <- true;
    finished := true;
    l.src.busy <- false;
    if ok then begin
      incr committed;
      latencies := (time -. l.due_ms) :: !latencies
    end
  in
  let submit l time =
    l.attempts <- l.attempts + 1;
    let p =
      if l.local then Some (Runtime.submit_local rt l.txn)
      else
        match cfg.load with
        | Closed _ -> Some (Runtime.submit_global rt ~birth:l.birth l.txn)
        | Open _ -> Runtime.try_submit_global rt ~birth:l.birth l.txn
    in
    l.promise <- p;
    if Option.is_none p then begin
      incr rejected;
      settle l time ~ok:false
    end
    else incr accepted
  in
  let spawn src ~due_ms =
    incr submitted;
    let local =
      cfg.local_fraction > 0. && Rng.float src.rng 1.0 < cfg.local_fraction
    in
    let txn =
      if local then
        let sid = Rng.int src.rng cfg.wl.Workload.m in
        Workload.local_txn src.rng cfg.wl sid
      else Workload.global_txn src.rng cfg.wl
    in
    let l =
      { src; birth = txn.Txn.id; local; due_ms; txn; attempts = 0;
        promise = None; resubmit_ms = due_ms; final = false }
    in
    src.busy <- true;
    live := l :: !live;
    submit l due_ms
  in
  (* Harvest settled attempts. A retryable outcome within the attempt
     budget resubmits the same script under a fresh id after the backoff:
     the aborted attempt keeps its old id in the trace, and ser(S) must
     never visit a site twice for one id. *)
  let poll time =
    List.iter
      (fun l ->
        match Option.bind l.promise Promise.peek with
        | None -> ()
        | Some out ->
            l.promise <- None;
            let shed = out = Outcome.Shed in
            if shed then incr sheds;
            if out = Outcome.Committed then settle l time ~ok:true
            else if
              l.attempts < cfg.retry.Retry.max_attempts && Retry.retryable out
            then begin
              incr retries;
              Metrics.inc (retry_of_attempt l.attempts);
              l.resubmit_ms <-
                time
                +. Retry.delay_ms cfg.retry l.src.brng ~attempt:l.attempts
                     ~shed;
              l.txn <- Txn.with_id l.txn (Types.fresh_tid ())
            end
            else settle l time ~ok:false)
      !live
  in
  let t0 = now () in
  let next_due = ref t0 in
  let generating () =
    match cfg.load with
    | Closed _ -> Array.exists (fun s -> s.left > 0) sources
    | Open { duration_s; _ } -> !next_due < t0 +. (duration_s *. 1000.)
  in
  let report_ms = Option.map (fun s -> s *. 1000.) cfg.report_every_s in
  let next_report =
    ref (Option.fold ~none:infinity ~some:(( +. ) t0) report_ms)
  in
  let rec loop () =
    let time = now () in
    poll time;
    (match cfg.load with
    | Closed _ ->
        Array.iter
          (fun s ->
            if (not s.busy) && s.left > 0 then begin
              s.left <- s.left - 1;
              spawn s ~due_ms:time
            end)
          sources
    | Open { rate; _ } ->
        while generating () && !next_due <= time do
          let due_ms = !next_due in
          next_due :=
            due_ms +. (Rng.exponential sources.(0).rng rate *. 1000.);
          spawn sources.(0) ~due_ms
        done);
    List.iter
      (fun l ->
        if Option.is_none l.promise && (not l.final) && l.resubmit_ms <= time
        then submit l time)
      !live;
    if !finished then begin
      finished := false;
      live := List.filter (fun l -> not l.final) !live
    end;
    (match report_ms with
    | Some every when time >= !next_report ->
        next_report := time +. every;
        progress_line rt !submitted !rejected !sheds
    | _ -> ());
    if generating () || !live <> [] then begin
      let sweep =
        if List.exists (fun l -> Option.is_some l.promise) !live then
          time +. Rng.float jitter poll_jitter_ms
        else infinity
      in
      let wake =
        List.fold_left
          (fun acc l ->
            if Option.is_none l.promise then Float.min acc l.resubmit_ms
            else acc)
          (Float.min sweep !next_report)
          !live
      in
      let wake =
        match cfg.load with
        | Open _ when generating () -> Float.min wake !next_due
        | _ -> wake
      in
      if wake > time then Thread.delay ((wake -. time) /. 1000.);
      loop ()
    end
  in
  loop ();
  let elapsed_s = (now () -. t0) /. 1000. in
  if report_ms <> None then progress_line rt !submitted !rejected !sheds;
  let res = Runtime.shutdown rt in
  (* The runtime synced the sites at shutdown; release their descriptors
     so a process that runs many loads does not accumulate them. *)
  List.iter Mdbs_site.Local_dbms.close rcfg.Runtime.sites;
  let latencies = !latencies in
  let pct p = if latencies = [] then 0. else Stats.percentile latencies p in
  let per_s n = if elapsed_s > 0. then float_of_int n /. elapsed_s else 0. in
  let submitted = !submitted and committed = !committed in
  let attempts = !accepted + !rejected in
  {
    load = cfg.load;
    scheme_name = res.Runtime.scheme_name;
    backend =
      (match cfg.wl.Workload.backend with `Mem -> "mem" | `Lsm _ -> "lsm");
    sites = cfg.wl.Workload.m;
    submitted;
    committed;
    aborted = submitted - committed;
    attempts;
    accepted = !accepted;
    rejected_backpressure = !rejected;
    retries = !retries;
    sheds = !sheds;
    commit_ratio =
      (if submitted > 0 then float_of_int committed /. float_of_int submitted
       else 0.);
    certified = res.Runtime.certified;
    violations = Analysis.errors res.Runtime.analysis;
    elapsed_s;
    throughput = per_s attempts;
    goodput = per_s committed;
    latencies_ms = latencies;
    mean_ms = (if latencies = [] then 0. else Stats.mean latencies);
    p50_ms = pct 50.;
    p95_ms = pct 95.;
    p99_ms = pct 99.;
    max_ms = List.fold_left Float.max 0. latencies;
    run = res;
  }

let report_to_json ?profile r =
  let st = r.run.Runtime.run_stats in
  Json.Obj
    [
      ("scheme", Json.Str r.scheme_name);
      ("backend", Json.Str r.backend);
      ("sites", Json.Int r.sites);
      ( "clients",
        Json.Int (match r.load with Closed c -> c.clients | Open _ -> 0) );
      ("offered", Json.Int r.submitted);
      ("submitted", Json.Int r.submitted);
      ("committed", Json.Int r.committed);
      ("aborted", Json.Int r.aborted);
      ("attempts", Json.Int r.attempts);
      ("accepted", Json.Int r.accepted);
      ("rejected_backpressure", Json.Int r.rejected_backpressure);
      ("retries", Json.Int r.retries);
      ("sheds", Json.Int r.sheds);
      ("shed", Json.Int r.sheds);
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
      ("force_aborts", Json.Int st.Runtime.force_aborts);
      ("wounds", Json.Int st.Runtime.wounds);
      ("stall_kills", Json.Int st.Runtime.stall_kills);
      ( "aborts_by_cause",
        Json.Obj
          (List.map (fun (c, n) -> (c, Json.Int n)) st.Runtime.abort_causes) );
      ("gtm2_wait_insertions", Json.Int r.run.Runtime.wait_insertions);
      ("gtm2_ser_waits", Json.Int r.run.Runtime.ser_waits);
      ( "ops_per_site",
        Json.Obj
          (List.map
             (fun (sid, n) -> (string_of_int sid, Json.Int n))
             st.Runtime.ops_per_site) );
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

let pp_load ppf = function
  | Closed { clients; _ } -> Format.fprintf ppf "%d clients" clients
  | Open { rate; duration_s } ->
      Format.fprintf ppf "%g arrivals/s for %gs" rate duration_s

let print_report ppf r =
  let st = r.run.Runtime.run_stats in
  Format.fprintf ppf
    "@[<v>scheme %s: %d sites, %a, %d txns in %.2fs@,\
     committed %d/%d (ratio %.3f, goodput %.1f txn/s), %d attempts \
     (%d retries, %d sheds, %d rejected, %.1f attempt/s)@,\
     certified %s (%d violations)@,\
     latency ms: mean %.2f  p50 %.2f  p95 %.2f  p99 %.2f  max %.2f@,\
     gtm: %d wounds, %d forced aborts, %d stall kills, %d GTM2 waits (%d ser)%a@]@."
    r.scheme_name r.sites pp_load r.load r.submitted r.elapsed_s r.committed
    r.submitted r.commit_ratio r.goodput r.attempts r.retries r.sheds
    r.rejected_backpressure r.throughput
    (if r.certified then "yes" else "NO")
    r.violations r.mean_ms r.p50_ms r.p95_ms r.p99_ms r.max_ms
    st.Runtime.wounds st.Runtime.force_aborts st.Runtime.stall_kills
    r.run.Runtime.wait_insertions r.run.Runtime.ser_waits
    (fun ppf causes ->
      match causes with
      | [] -> ()
      | causes ->
          Format.fprintf ppf "@,aborts by cause:";
          List.iter
            (fun (c, n) -> Format.fprintf ppf " %s=%d" c n)
            causes)
    st.Runtime.abort_causes;
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
