(** Closed-loop multi-client load generator for the service runtime.

    [clients] threads each run a think-free closed loop: draw a transaction
    from the {!Mdbs_sim.Workload} generator (global through the GTM, or —
    with probability [local_fraction] — local straight to a site worker),
    submit it, block on the {!Promise.t} until the final {!Outcome.t}, and
    — under a {!Retry.policy} — reissue a retryable failure under a fresh
    tid after a seeded full-jitter backoff, until it commits or the attempt
    budget runs out. Each client owns {e two} independent deterministic
    random streams ({!Mdbs_util.Rng.substream}): one for the workload, one
    for backoff, so the generated transaction set is reproducible and
    identical whether retries are on or off. Retries pass the first
    attempt's id as the runtime's wound-wait [birth], keeping the logical
    transaction's seniority.

    The report is goodput-first: [committed]/[submitted] count {e logical}
    transactions (a retried transaction that eventually commits is one
    commit), [goodput] is committed work per wall-second, [throughput] is
    settled attempts per wall-second, and latency percentiles are end to
    end across all attempts. The runtime's own {!Runtime.result} rides
    along: certification verdict, abort-cause breakdown, GTM2 wait
    counts. *)

type config = {
  wl : Mdbs_sim.Workload.config;
  scheme : Mdbs_core.Registry.kind;
  clients : int;
  txns_per_client : int;  (** Logical transactions per client. *)
  local_fraction : float;
      (** Probability that a client iteration submits a local transaction. *)
  seed : int;
  retry : Retry.policy;
  atomic_commit : bool;
  capacity : int;
  max_active : int;
  stall_timeout_ms : float;
  wound_after_ms : float option;
      (** [None] = the runtime's default wound window. *)
  tick_ms : float;  (** Runtime ticker period (stall-detector cadence). *)
  shed_parked : int option;  (** [None] = the runtime's default bound. *)
  shed_blocked : int option;  (** [None] = the runtime's default bound. *)
  obs : Mdbs_obs.Obs.t;
  certify : Runtime.certify_mode;
  cert_checkpoint_every : int;
  telemetry_out : string option;  (** See {!Runtime.config}. *)
  openmetrics_out : string option;
  telemetry_interval_ms : float;
  slos : Mdbs_obs.Slo.spec list;
  flight_dump : string option;
}

val config :
  ?wl:Mdbs_sim.Workload.config ->
  ?clients:int ->
  ?txns_per_client:int ->
  ?local_fraction:float ->
  ?seed:int ->
  ?retry:Retry.policy ->
  ?atomic_commit:bool ->
  ?capacity:int ->
  ?max_active:int ->
  ?stall_timeout_ms:float ->
  ?wound_after_ms:float ->
  ?tick_ms:float ->
  ?shed_parked:int ->
  ?shed_blocked:int ->
  ?obs:Mdbs_obs.Obs.t ->
  ?certify:Runtime.certify_mode ->
  ?cert_checkpoint_every:int ->
  ?telemetry_out:string ->
  ?openmetrics_out:string ->
  ?telemetry_interval_ms:float ->
  ?slos:Mdbs_obs.Slo.spec list ->
  ?flight_dump:string ->
  Mdbs_core.Registry.kind ->
  config
(** Defaults: the {!Mdbs_sim.Workload.default} mix, 8 clients, 25
    transactions each, no locals, seed 42, {!Retry.default} (4 attempts —
    pass {!Retry.off} to disable), no 2PC, capacity 64, max_active 64,
    stall timeout 250 ms, tick 5 ms, runtime-default wound window and shed
    bounds, observability off, batch-only certification, telemetry off. *)

type report = {
  scheme_name : string;
  backend : string;  (** ["mem"] or ["lsm"] — the storage engine. *)
  sites : int;
  clients : int;
  submitted : int;  (** Logical transactions ([clients * txns_per_client]). *)
  committed : int;  (** Logical transactions that eventually committed. *)
  aborted : int;  (** Logical transactions that never committed. *)
  attempts : int;  (** Settled submissions, retries included. *)
  retries : int;  (** Attempts beyond each logical transaction's first. *)
  sheds : int;  (** Attempts refused by admission shedding. *)
  commit_ratio : float;  (** [committed / submitted]. *)
  certified : bool;
  violations : int;
  elapsed_s : float;
  throughput : float;  (** Settled attempts per second. *)
  goodput : float;  (** Committed logical transactions per second. *)
  mean_ms : float;  (** End to end, across all attempts. *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  force_aborts : int;
  wounds : int;
  stall_kills : int;
  abort_causes : (string * int) list;
      (** {!Runtime.stats}'s non-zero cause buckets. *)
  wait_insertions : int;
  ser_waits : int;
  run : Runtime.result;
}

val run : config -> report

val report_to_json : ?profile:Mdbs_obs.Profile.t -> report -> Mdbs_util.Json.t
(** [?profile] (an enabled wall-clock profile) adds its timer report as a
    [profile] object; the SLO summary and flight-recorder dumps from
    [r.run] are always included ([null] / [\[\]] when not configured). *)

val print_report : Format.formatter -> report -> unit
