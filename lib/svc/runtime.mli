(** The parallel multidatabase service runtime (Figure 1, actually
    concurrent).

    One worker domain per local site runs the unchanged {!Mdbs_site.Local_dbms}
    behind a mailbox; one GTM domain drives the coordinator core
    ({!Mdbs_core.Coord}: GTM1 and every per-global rule, shared with the
    simulator) over the GTM2 scheduler ({!Gtm_sched} — the existing engine
    and scheme behind a mutex), and keeps only the transport and the victim
    policy; clients are arbitrary threads/domains that submit transactions
    and await a {!Promise.t} of the final status. A bounded admission lane
    gives backpressure ({!submit_global} blocks when the GTM is saturated)
    and admission control ({!try_submit_global} refuses instead, and the
    GTM itself {e sheds} admissions — a distinct {!Outcome.Shed}, not an
    abort — once its parked queue or site-blocked population exceeds a
    bound); a ticker thread calls the core's victim policy
    ({!Mdbs_core.Coord.tick}: bounded wound-wait, a per-wait deadline and
    a no-progress safety valve, the policy the simulator runs too), which
    converts cross-site deadlocks — invisible to every single site — into
    forced aborts. A waiter's clock starts when its site answers
    [Waiting]; retries inherit their first attempt's birth via [?birth],
    so no transaction starves. Every abort is
    classified into a cause bucket ([wound], [stall_kill],
    [scheme_reject], [shed], [crash], [other]) surfaced in {!stats} and
    as [svc_aborts_total{cause}] counters.

    The hot path is batched end to end: the GTM drains its whole inbox
    per wakeup, funnels every resulting GTM2 queue operation through one
    engine lock acquisition per pump round, buffers site dispatches in
    per-site outboxes flushed as one message per site per round (list
    order = dispatch order, preserving the per-site execution order the
    certifier checks), and workers coalesce each wakeup's replies into a
    single message back.

    Every run is self-certifying: the runtime records each site's local
    schedule, the realized [ser(S)] and the global site-visit orders, and
    {!shutdown} replays them through the static certifier
    ({!Mdbs_analysis.Analysis}), so the {e real} interleaving the parallel
    execution produced is machine-checked against the paper's Theorem-2
    obligations — not just benchmarked. *)

open Mdbs_model

type certify_mode =
  | Certify_batch
      (** Post-hoc only: capture the trace and replay it through the batch
          certifier at {!shutdown} (the default, and the pre-existing
          behavior). *)
  | Certify_live
      (** Always-on streaming certification: a dedicated {!Live_cert}
          domain consumes every schedule/ser/visit event as it happens and
          maintains the CSR + Theorem-2 obligations online, with rolling
          checkpoints; the batch certifier still runs at {!shutdown} as a
          differential oracle. *)
  | Certify_soak
      (** Live certification tuned for unbounded runs: the streaming
          checker drops its stable order prefix, the sites drop audit
          retention of schedule entries ({!Mdbs_model.Schedule.set_capture}
          off) and the GTM drops its ser(S)/admission audit log, so memory
          stays proportional to the {e active window}, not run length. The
          shutdown batch analysis sees an empty trace (vacuously
          certified); the live verdict alone carries soak certification. *)

type config = {
  scheme : Mdbs_core.Scheme.t;  (** Fresh instance; owned by the runtime. *)
  sites : Mdbs_site.Local_dbms.t list;  (** Owned by the site workers. *)
  atomic_commit : bool;  (** Two-phase commit for globals (default false). *)
  capacity : int;
      (** Admission-lane bound: blocked {!submit_global} = backpressure. *)
  max_active : int;
      (** Concurrently admitted globals; beyond it, admits park inside the
          GTM (so effective client-visible queueing is
          [capacity + max_active]). *)
  stall_timeout_ms : float;
      (** The victim policy's per-wait deadline and no-progress window. *)
  wound_after_ms : float;
      (** The victim policy's wound window. Defaults to
          [max (4 * tick_ms) 20], capped at [stall_timeout_ms]. *)
  tick_ms : float;  (** Ticker period. *)
  shed_parked : int;
      (** Admission-shedding bound on the GTM's parked queue; admissions
          beyond it are refused with {!Outcome.Shed} before acquiring any
          per-site state. Default [8 * max_active]. *)
  shed_blocked : int;
      (** Admission-shedding bound on the site-blocked population
          (operations a site answered [Waiting] for). Default
          [max_active]. *)
  obs : Mdbs_obs.Obs.t;
  certify : certify_mode;
  cert_checkpoint_every : int;
      (** Events per rolling checkpoint of the live certifier. *)
  telemetry_out : string option;
      (** JSONL time-series file: one line per closed telemetry window
          (tail-able while the run is live). *)
  openmetrics_out : string option;
      (** OpenMetrics text exposition, atomically rewritten per window. *)
  telemetry_interval_ms : float;  (** Window length (default 1000 ms). *)
  slos : Mdbs_obs.Slo.spec list;
      (** Objectives evaluated against every window with burn-rate
          verdicts; the run summary lands in [result.slo]. *)
  flight_dump : string option;
      (** Flight-recorder dump directory: a Chrome-trace black box of the
          last ~10 s is written there on a live-certification violation,
          a site crash, or the first SLO breach. [None] disables the
          recorder entirely. *)
}

val config :
  ?atomic_commit:bool ->
  ?capacity:int ->
  ?max_active:int ->
  ?stall_timeout_ms:float ->
  ?wound_after_ms:float ->
  ?tick_ms:float ->
  ?shed_parked:int ->
  ?shed_blocked:int ->
  ?obs:Mdbs_obs.Obs.t ->
  ?certify:certify_mode ->
  ?cert_checkpoint_every:int ->
  ?telemetry_out:string ->
  ?openmetrics_out:string ->
  ?telemetry_interval_ms:float ->
  ?slos:Mdbs_obs.Slo.spec list ->
  ?flight_dump:string ->
  scheme:Mdbs_core.Scheme.t ->
  sites:Mdbs_site.Local_dbms.t list ->
  unit ->
  config
(** Defaults: no 2PC, capacity 64, max_active 64, stall timeout 250 ms,
    wound window [max (4 * tick_ms) 20] ms, tick 5 ms, shedding at
    [8 * max_active] parked / [max_active] site-blocked, observability
    disabled, [Certify_batch], checkpoint every 4096 events, telemetry off
    (no outputs, 1 s windows, no SLOs, flight recorder disabled). *)

type t

type stats = {
  admitted : int;
  committed : int;  (** Global transactions only (locals settle site-side). *)
  aborted : int;
  rejected : int;
      (** {!try_submit_global} refusals: the admission lane itself was full
          (mailbox backpressure) — distinct from [sheds]. *)
  sheds : int;
      (** Admissions the GTM refused with {!Outcome.Shed} (overload
          control; no per-site state was ever acquired). *)
  force_aborts : int;
      (** Every victim-policy kill: [wounds + stall_kills]. *)
  wounds : int;  (** Wound-wait kills: an older waiter wounded a younger. *)
  stall_kills : int;
      (** Hard-deadline kills and safety-valve kills (no woundable
          conflict). *)
  site_crashes : int;
  active : int;
  inbox_hwm : int;  (** GTM inbox high-watermark (congestion telltale). *)
  abort_causes : (string * int) list;
      (** Non-zero cause buckets — [wound | stall_kill | scheme_reject |
          shed | crash | other] — mirroring [svc_aborts_total{cause}].
          Aborted outcomes are classified from their death reason; [shed]
          counts shed admissions. *)
  ops_per_site : (Types.sid * int) list;
}

type result = {
  scheme_name : string;
  trace : Mdbs_analysis.Trace.t;
      (** The captured real interleaving: local schedules, global visit
          orders, realized [ser(S)]. *)
  analysis : Mdbs_analysis.Analysis.t;
      (** Certifier + linter verdict over [trace]. *)
  certified : bool;
      (** Batch verdict, and — under [Certify_live] / [Certify_soak] —
          also the live verdict and the checkpoint chain. *)
  live : Live_cert.summary option;
      (** Streaming-certifier summary ([Certify_live] / [Certify_soak]):
          verdict, rolling-checkpoint chain, memory stats, final
          certificates. *)
  run_stats : stats;
  elapsed_ms : float;
  wait_insertions : int;
  ser_waits : int;
  engine_steps : int;
  scheme_steps : int;
  slo : Mdbs_obs.Slo.summary option;
      (** Per-objective burn-rate summary when [slos] were configured;
          [worst = Breach] is the signal the CLI maps to its SLO exit
          code. *)
  flight_dumps : (string * string) list;
      (** [(reason, path)] of every flight-recorder dump the run wrote. *)
  durable_bytes : int;
      (** Bytes of backend WAL fsynced across all sites — 0 for [`Mem]
          backends, whose durability is logical (see
          {!Mdbs_site.Local_dbms.wal_length} vs
          {!Mdbs_site.Local_dbms.durable_bytes}). *)
}

val start : config -> t
(** Spawn the site worker domains, the GTM domain and the ticker thread. *)

val scheme_name : t -> string

val n_sites : t -> int

val submit_global : t -> ?birth:int -> Txn.t -> Outcome.t Promise.t
(** Admit a global transaction; blocks while the admission lane is full
    (backpressure). [?birth] (default: the txn's own id) is the wound-wait
    age stamp — a retrying client passes the gid of the logical
    transaction's {e first} attempt so the retry keeps its seniority.
    The promise settles {!Outcome.Shed} when the GTM refused admission
    under overload. After {!shutdown} began, the promise is already
    fulfilled with [Aborted "shutdown"]. *)

val try_submit_global : t -> ?birth:int -> Txn.t -> Outcome.t Promise.t option
(** Non-blocking admission: [None] when the lane is full (counted in
    [rejected]) or the runtime is shutting down. A returned promise can
    still settle {!Outcome.Shed}. *)

val submit_local : t -> Txn.t -> Outcome.t Promise.t
(** Route a local transaction straight to its site's worker, bypassing the
    GTM (the paper's pre-existing local applications). *)

val crash_site : t -> Types.sid -> unit
(** Inject a site crash ({!Mdbs_site.Server.crash}): volatile state dies,
    the site's local transactions with it, storage recovers from the WAL,
    and the GTM aborts every global transaction whose subtransaction died
    — in-doubt participants are resolved by the GTM's decision record. A
    site without a WAL ignores it: nothing dies, no crash is counted. *)

val stats : t -> stats
(** Readable from any thread while the runtime runs. *)

val stalled : t -> (string * string) list
(** Live stall attribution: every GTM2-delayed operation with the scheme's
    [explain] reason. *)

val live_violated : t -> bool option
(** The streaming certifier's verdict so far: [None] under
    [Certify_batch], otherwise whether a violation has been detected.
    Safe from any thread while the runtime runs. *)

val shutdown : t -> result
(** Stop accepting, drain every admitted transaction to a final status,
    stop the workers and the ticker, join all domains, then capture the
    trace and certify it. At most once. *)
