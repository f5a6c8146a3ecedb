module Workload = Mdbs_sim.Workload
module Registry = Mdbs_core.Registry
module Types = Mdbs_model.Types
module Txn = Mdbs_model.Txn
module Rng = Mdbs_util.Rng
module Obs = Mdbs_obs.Obs

type config = {
  wl : Workload.config;
  scheme : Registry.kind;
  rate : float;
  duration_s : float;
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
  report_every_s : float;
  obs : Obs.t;
  certify : Runtime.certify_mode;
  cert_checkpoint_every : int;
  telemetry_out : string option;
  openmetrics_out : string option;
  telemetry_interval_ms : float;
  slos : Mdbs_obs.Slo.spec list;
  flight_dump : string option;
}

let config ?(wl = Workload.default) ?(rate = 200.) ?(duration_s = 5.)
    ?(local_fraction = 0.) ?(seed = 42) ?(retry = Retry.default)
    ?(atomic_commit = false) ?(capacity = 64) ?(max_active = 64)
    ?(stall_timeout_ms = 250.) ?wound_after_ms ?(tick_ms = 5.) ?shed_parked
    ?shed_blocked ?(report_every_s = 1.) ?(obs = Obs.disabled)
    ?(certify = Runtime.Certify_batch) ?(cert_checkpoint_every = 4096)
    ?telemetry_out ?openmetrics_out ?(telemetry_interval_ms = 1000.)
    ?(slos = []) ?flight_dump scheme =
  if rate <= 0. then invalid_arg "Serve.config: rate <= 0";
  if duration_s <= 0. then invalid_arg "Serve.config: duration <= 0";
  { wl; scheme; rate; duration_s; local_fraction; seed; retry; atomic_commit;
    capacity; max_active; stall_timeout_ms; wound_after_ms; tick_ms;
    shed_parked; shed_blocked; report_every_s; obs; certify;
    cert_checkpoint_every; telemetry_out; openmetrics_out;
    telemetry_interval_ms; slos; flight_dump }

type summary = {
  offered : int;
  accepted : int;
  rejected_backpressure : int;
  shed : int;
  retries : int;
  elapsed_s : float;
  commit_ratio : float;
  goodput : float;
  run : Runtime.result;
}

(* An admitted attempt whose outcome we poll for (the open loop never
   blocks on a promise). *)
type pending = {
  p_txn : Txn.t;
  p_birth : int;
  p_attempt : int;
  p_promise : Outcome.t Promise.t;
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

let run ?(quiet = false) cfg =
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
  let rng = Rng.create cfg.seed in
  (* Derived before [rng] advances, so the arrival/workload stream is the
     same with retries on or off. *)
  let brng = Rng.substream rng 0 in
  let offered = ref 0 in
  let accepted = ref 0 in
  let rejected = ref 0 in
  let shed = ref 0 in
  let retries = ref 0 in
  let locals = ref [] in
  (* Attempts in flight, newest first; resubmissions not yet due, as
     (not-before, txn, birth, next attempt number). *)
  let pending = ref [] in
  let resub = ref [] in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. cfg.duration_s in
  let next_report = ref (t0 +. cfg.report_every_s) in
  let next_arrival = ref t0 in
  let submit_attempt txn ~birth ~attempt =
    match Runtime.try_submit_global rt ~birth txn with
    | Some p ->
        incr accepted;
        pending :=
          { p_txn = txn; p_birth = birth; p_attempt = attempt; p_promise = p }
          :: !pending
    | None -> incr rejected
  in
  (* Sweep settled attempts: a retryable outcome within budget schedules a
     resubmission under a fresh tid at [now + backoff]; everything else is
     final. Sheds are counted apart from mailbox backpressure — they are
     the runtime's own overload refusals, not a full admission lane. *)
  let poll_pending now =
    let still = ref [] in
    List.iter
      (fun p ->
        match Promise.peek p.p_promise with
        | None -> still := p :: !still
        | Some out ->
            let is_shed = out = Outcome.Shed in
            if is_shed then incr shed;
            if
              p.p_attempt < cfg.retry.Retry.max_attempts
              && Retry.retryable out
            then begin
              incr retries;
              Mdbs_obs.Metrics.inc (retry_of_attempt p.p_attempt);
              let d =
                Retry.delay_ms cfg.retry brng ~attempt:p.p_attempt
                  ~shed:is_shed
              in
              resub :=
                ( now +. (d /. 1000.),
                  Txn.with_id p.p_txn (Types.fresh_tid ()),
                  p.p_birth,
                  p.p_attempt + 1 )
                :: !resub
            end)
      !pending;
    pending := !still
  in
  let drain_resub now =
    let due, later = List.partition (fun (nb, _, _, _) -> nb <= now) !resub in
    resub := later;
    List.iter
      (fun (_, txn, birth, attempt) -> submit_attempt txn ~birth ~attempt)
      due
  in
  while Unix.gettimeofday () < deadline do
    let now = Unix.gettimeofday () in
    poll_pending now;
    drain_resub now;
    if now >= !next_arrival then begin
      next_arrival := !next_arrival +. Rng.exponential rng cfg.rate;
      incr offered;
      let local =
        cfg.local_fraction > 0. && Rng.float rng 1.0 < cfg.local_fraction
      in
      if local then begin
        let sid = Rng.int rng cfg.wl.Workload.m in
        locals :=
          Runtime.submit_local rt (Workload.local_txn rng cfg.wl sid)
          :: !locals;
        incr accepted
      end
      else
        let txn = Workload.global_txn rng cfg.wl in
        submit_attempt txn ~birth:txn.Txn.id ~attempt:1
    end
    else begin
      if (not quiet) && now >= !next_report then begin
        next_report := now +. cfg.report_every_s;
        progress_line rt !offered !rejected !shed
      end;
      Thread.delay (Float.min 0.001 (!next_arrival -. now))
    end
  done;
  (* Past the deadline: no new arrivals and no more resubmissions, but
     sweep what already settled so the shed count is accurate. *)
  poll_pending (Unix.gettimeofday ());
  if not quiet then progress_line rt !offered !rejected !shed;
  let run = Runtime.shutdown rt in
  List.iter Mdbs_site.Local_dbms.close sites;
  poll_pending (Unix.gettimeofday ());
  let elapsed_s = Unix.gettimeofday () -. t0 in
  (* The runtime counts committed globals only; locals settle site-side. *)
  let committed =
    List.fold_left
      (fun n p -> if Promise.peek p = Some Outcome.Committed then n + 1 else n)
      run.Runtime.run_stats.Runtime.committed !locals
  in
  {
    offered = !offered;
    accepted = !accepted;
    rejected_backpressure = !rejected;
    shed = !shed;
    retries = !retries;
    elapsed_s;
    commit_ratio =
      (if !offered > 0 then float_of_int committed /. float_of_int !offered
       else 1.);
    goodput =
      (if elapsed_s > 0. then float_of_int committed /. elapsed_s else 0.);
    run;
  }
