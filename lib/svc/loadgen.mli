(** The service runtime's load driver: one thread plays every client.

    It keeps one of two load shapes against a {!Runtime}: a closed loop of
    [clients], each running [txns_per_client] logical transactions one
    after another, or an open loop of Poisson arrivals at [rate] per second
    for [duration_s]. Each logical transaction comes from the
    {!Mdbs_sim.Workload} generator: global through the GTM, or, with
    probability [local_fraction], local straight to a site worker. The
    driver never blocks on a promise. It polls every attempt in flight with
    {!Promise.peek}, and under a {!Retry.policy} resubmits a retryable
    failure under a fresh tid after a seeded full-jitter backoff. Every
    attempt passes the first attempt's id as the wound-wait [birth], so a
    logical transaction keeps its seniority across retries. The run ends
    when every logical transaction is final.

    The closed loop submits with {!Runtime.submit_global}, so a full
    admission lane makes it wait. The open loop submits with
    {!Runtime.try_submit_global} and never waits: a full lane refuses the
    attempt ({e backpressure}; final, not retried), and the GTM's own
    overload refusals come back as {!Outcome.Shed} (retryable). The report
    counts the two apart.

    Randomness is seeded and split so that the offered transactions are the
    same with retries on or off. Closed-loop client [i] draws its workload
    from substream [i] of the seed and its backoff from substream
    [clients + i]. The open loop draws arrivals and workload from the
    seed's own stream and backoff from its substream 0.

    The report is goodput-first: [committed] counts logical transactions (a
    retried transaction that eventually commits is one commit). Each
    committed one gives one latency sample, timed from when it was due: its
    arrival time in the open loop, the moment its client became free in
    the closed loop. A stall that delays later submissions is charged to
    them. The runtime's own {!Runtime.result} rides along. *)

type load =
  | Closed of { clients : int; txns_per_client : int }
  | Open of { rate : float; duration_s : float }
      (** [rate] arrivals per second, Poisson. *)

type config = {
  wl : Mdbs_sim.Workload.config;
      (** Describes the sites of the {!Runtime.config} the run gets. *)
  load : load;
  local_fraction : float;
      (** Probability that a logical transaction is local. *)
  seed : int;
  retry : Retry.policy;
  report_every_s : float option;
      (** Print a progress line this often, with live stall attribution
          from the scheme's [explain]; [None] = quiet. *)
}

val config :
  ?local_fraction:float ->
  ?seed:int ->
  ?retry:Retry.policy ->
  ?report_every_s:float ->
  wl:Mdbs_sim.Workload.config ->
  load ->
  config
(** Defaults: no locals, seed 42, {!Retry.default} (pass {!Retry.off} to
    disable), quiet. Raises [Invalid_argument] on fewer than one client or
    transaction per client, or on a non-positive rate or duration. *)

type report = {
  load : load;
  scheme_name : string;
  backend : string;  (** ["mem"] or ["lsm"]: the storage engine. *)
  sites : int;
  submitted : int;  (** Logical transactions offered. *)
  committed : int;
      (** Logical transactions that eventually committed, locals
          included. *)
  aborted : int;  (** Logical transactions that never committed. *)
  attempts : int;  (** Submissions, retries included. *)
  accepted : int;  (** Attempts the runtime took. *)
  rejected_backpressure : int;
      (** Open loop: attempts refused because the admission lane was
          full. *)
  retries : int;  (** Resubmissions after retryable failures. *)
  sheds : int;  (** Attempts the GTM refused with {!Outcome.Shed}. *)
  commit_ratio : float;
      (** [committed / submitted]: the share of the offered load the
          service absorbed. Backpressure, sheds and exhausted retries all
          count against it. *)
  certified : bool;
  violations : int;
  elapsed_s : float;  (** Until every logical transaction was final. *)
  throughput : float;  (** Attempts per second. *)
  goodput : float;  (** Committed logical transactions per second. *)
  latencies_ms : float list;
      (** One per committed logical transaction, from its due time. *)
  mean_ms : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  run : Runtime.result;
}

val run : Runtime.config -> config -> report
(** Starts the runtime, drives the load until every logical transaction is
    final, shuts the runtime down and closes its sites. *)

val report_to_json : ?profile:Mdbs_obs.Profile.t -> report -> Mdbs_util.Json.t
(** [?profile] (an enabled wall-clock profile) adds its timer report as a
    [profile] object; the SLO summary and flight-recorder dumps from
    [r.run] are always included ([null] / [\[\]] when not configured). *)

val print_report : Format.formatter -> report -> unit
