(** Open-loop service mode: run the runtime under Poisson arrivals.

    Unlike the closed-loop {!Loadgen} (a fixed client population that waits
    for each transaction before submitting the next), [serve] submits
    global transactions at a target arrival {e rate} regardless of
    completion, through {!Runtime.try_submit_global} — so when the offered
    load exceeds what the scheme sustains, two distinct relief valves show
    up in the summary: the bounded admission lane fills and the excess is
    rejected at the mailbox ({e backpressure}), and the GTM itself refuses
    admissions with {!Outcome.Shed} once its parked/blocked population
    exceeds the shed bounds ({e overload control}). Rejection, shed and
    stall counts are the service-level signal that the configuration is
    saturated.

    Settled attempts are polled (the open loop never blocks on a promise);
    under a {!Retry.policy}, a retryable failure is resubmitted under a
    fresh tid after a seeded full-jitter backoff — carrying its first
    attempt's id as the wound-wait [birth] — until it commits or the
    attempt budget runs out. The backoff stream is split from the
    arrival/workload stream, so the offered sequence is identical with
    retries on or off.

    Progress lines (one per [report_every_s]) show committed/aborted/
    rejected/shed counts plus live stall attribution from the scheme's own
    [explain]. The final summary carries the certified {!Runtime.result}
    from {!Runtime.shutdown}. *)

type config = {
  wl : Mdbs_sim.Workload.config;
  scheme : Mdbs_core.Registry.kind;
  rate : float;  (** Target arrivals per second (Poisson). *)
  duration_s : float;
  local_fraction : float;
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
  report_every_s : float;
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
  ?rate:float ->
  ?duration_s:float ->
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
  ?report_every_s:float ->
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
(** Defaults: default workload, 200 arrivals/s offered, 5 s, no locals,
    seed 42, {!Retry.default} (pass {!Retry.off} to disable), no 2PC,
    capacity 64, max_active 64, stall 250 ms, tick 5 ms, runtime-default
    wound window and shed bounds, report every second, batch-only
    certification, telemetry off. When live certification is on, each
    progress line carries the streaming verdict so far. *)

type summary = {
  offered : int;  (** Arrivals generated. *)
  accepted : int;  (** Attempts the admission lane took (retries included). *)
  rejected_backpressure : int;
      (** Attempts refused because the admission mailbox was full. *)
  shed : int;
      (** Attempts the GTM refused with {!Outcome.Shed} (overload
          control) — disjoint from [rejected_backpressure]. *)
  retries : int;  (** Resubmissions scheduled after retryable failures. *)
  elapsed_s : float;  (** Wall time, arrival window plus drain. *)
  commit_ratio : float;
      (** Committed logical transactions over [offered] — the fraction of
          the offered load the service actually absorbed (backpressure,
          sheds and exhausted retries all count against it). *)
  goodput : float;
      (** Committed logical transactions per wall-second — the
          goodput-first headline, vs the attempt-level counts above. *)
  run : Runtime.result;
}

val run : ?quiet:bool -> config -> summary
(** Blocks for [duration_s] plus drain time. [quiet] suppresses the
    periodic progress lines (default false). *)
