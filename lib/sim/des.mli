(** Timed discrete-event simulation of the full MDBS: the one end-to-end
    simulator (experiments E7, E11-E15, [mdbs des], [mdbs chaos] and
    [mdbs analyze --simulate]).

    It runs the whole stack in simulated {e time}: exponential operation
    service times at the sites, a symmetric GTM-site network latency,
    Poisson arrivals of global and local transactions, restarts with a
    budget, and the service's victim policy. Besides the logical quantities
    (waits, restarts, scheme steps, the two audits, the captured trace) it
    reports throughput and response times — the performance dimension the
    paper discusses qualitatively in §3 ("delaying an operation of ser(S)
    may correspond to delaying the execution of an entire global
    subtransaction").

    The machinery reuses the real components: the coordinator core
    ({!Mdbs_core.Coord}: GTM1, every per-global rule and the victim policy),
    the site servers ({!Mdbs_site.Server}: every site rule), both shared
    with the service runtime, and the GTM2 engine with any scheme. A site
    that makes a step wait answers [Blocked] over the same link as any
    answer; a tick every 5 simulated ms, while globals are live, calls
    {!Mdbs_core.Coord.tick} with its defaults, and a victim's sites hear the
    rollback a link latency later. The simulator keeps only its event heap
    and transport, service times, restart budgets (a restart keeps its
    first attempt's birth), spans and the site-side [ser(S)] record; it
    admits every arrival. All randomness is seeded; runs are
    deterministic.

    {2 Faults}

    With a non-empty {!Fault.t} plan in the config, the transport and the
    processes become unreliable: GTM<->site messages may be dropped,
    duplicated or delayed (coin flips from the plan's dedicated seeded
    stream); sites crash and restart ({!Mdbs_site.Server.crash} — sites
    are forced durable); the GTM crashes and recovers from its durable
    {!Mdbs_core.Gtm_log}; sites slow down. Operations carry ids (gid x
    program counter): in front of each site server, a volatile dedup cache
    re-acknowledges redelivered operations without re-executing them, and
    the GTM accepts only the acknowledgement of the operation it is waiting
    on, so retries — timeout-based, with capped exponential backoff, driven
    by [retry_timeout_ms]/[max_retries] — are idempotent. A transaction whose
    retries are exhausted before a commit decision is aborted everywhere; a
    logged Commit decision is never abandoned. With [Fault.none] (the
    default) behaviour is identical to the fault-free simulator. *)

open Mdbs_model

type config = {
  workload : Workload.config;
  n_global : int;  (** Global transactions to generate. *)
  global_rate : float;  (** Global arrivals per millisecond. *)
  locals_per_site : int;  (** Local transactions per site. *)
  local_rate : float;  (** Local arrivals per millisecond, per site. *)
  service_ms : float;  (** Mean per-operation service time at a site. *)
  latency_ms : float;  (** One-way GTM-to-site message latency. *)
  max_restarts : int;
  seed : int;
  atomic_commit : bool;
  faults : Fault.t;  (** Fault plan; {!Fault.none} = reliable run. *)
  retry_timeout_ms : float;
      (** Base retransmission timeout for unacknowledged operations
          (fault mode only). *)
  max_retries : int;
      (** Retries before an undecided transaction is presumed lost and
          aborted (fault mode only). *)
  obs : Mdbs_obs.Obs.t;
      (** Observability bundle. With the default {!Mdbs_obs.Obs.disabled}
          the run traces nothing and allocates nothing for it; pass
          {!Mdbs_obs.Obs.create} to collect spans (sim-time timestamps,
          exportable as a Chrome [trace_event] file), pipeline metrics and
          profiles. The bundle outlives the run — snapshot or export it
          afterwards. *)
}

val default : config

type result = {
  scheme_name : string;
  committed_global : int;
  failed_global : int;
  restarts : int;
  committed_local : int;
  aborted_local : int;
  forced_aborts : int;
      (** Globals the victim policy killed: wounds, deadline and
          safety-valve kills. *)
  ser_waits : int;
  scheme_steps : int;
      (** Abstract steps the GTM2 scheme spent ([cond]/[act]), summed
          across GTM incarnations like [ser_waits]. *)
  makespan_ms : float;  (** Time of the last event. *)
  throughput_per_s : float;  (** Committed global transactions per second. *)
  mean_response_ms : float;
      (** Mean admission-to-commit latency of committed global transactions
          (from first arrival of the logical transaction, across
          restarts). *)
  p95_response_ms : float;
  serializable : bool;
  ser_s_serializable : bool;
  races : int;
      (** Conflicting same-site access pairs the reconstructed
          happens-before relation leaves unordered
          ({!Mdbs_analysis.Race.detect} over the captured trace). *)
  site_crashes : int;  (** Site crash/restart faults applied. *)
  gtm_recoveries : int;  (** GTM crash/recovery cycles. *)
  msg_drops : int;  (** Messages the faulty link dropped. *)
  msg_dups : int;  (** Messages the faulty link duplicated. *)
  retries : int;  (** Operations retransmitted after a timeout. *)
  in_doubt_resolved : int;
      (** Transactions a recovered GTM resolved from the durable log
          (completed to the logged Commit, or presumed-abort rolled
          back). *)
}

type run = {
  result : result;
  trace : Mdbs_analysis.Trace.t;
      (** The captured trace (schedules + ser events), ready for
          {!Mdbs_analysis.Certifier.certify}. *)
  sites : Mdbs_site.Local_dbms.t list;
      (** The final sites: schedules, storage, WAL — for end-state checks. *)
  attempts : Txn.t list;  (** Global transaction attempts, admission order. *)
  obs : Mdbs_obs.Obs.t;
      (** The config's bundle, filled by the run (same value; repeated here
          so callers of {!run_full} need not keep the config around). *)
}

val run : config -> Mdbs_core.Scheme.t -> result
(** Raises [Invalid_argument] if the fault plan contains GTM crashes — a
    restarted GTM needs a fresh scheme instance; use {!run_full}. *)

val run_full : config -> Mdbs_core.Registry.kind -> run
(** Fresh scheme (re-created from the registry at each GTM recovery) and
    transaction-id supply; returns the result together with the captured
    trace and the final sites. *)

val run_kind : config -> Mdbs_core.Registry.kind -> result
(** [run_full], result only. *)

val pp_result : Format.formatter -> result -> unit

val result_to_json : result -> Mdbs_analysis.Json.t
