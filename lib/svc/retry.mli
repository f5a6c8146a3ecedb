(** Client-side retry policy: capped attempts, seeded exponential backoff
    with full jitter.

    Used by the load driver {!Loadgen}, for its closed-loop clients and its
    open-loop arrival process alike. All randomness comes from the caller's
    explicit {!Mdbs_util.Rng.t} (each client derives a dedicated backoff
    substream from the master seed), so a run's retry schedule is
    deterministic under its seed and — because the backoff stream is
    separate from the workload stream — turning retries on or off never
    perturbs the generated transaction sequence. *)

type policy = {
  max_attempts : int;  (** Total attempts per logical transaction (≥ 1). *)
  base_ms : float;  (** First backoff window. *)
  cap_ms : float;  (** Backoff window ceiling. *)
}

val policy :
  ?max_attempts:int -> ?base_ms:float -> ?cap_ms:float -> unit -> policy
(** Defaults: 4 attempts, 4 ms base, 64 ms cap. Raises [Invalid_argument]
    on a non-positive attempt count or a negative/inverted window. *)

val off : policy
(** One attempt, no retries — the pre-retry behavior. *)

val default : policy

val enabled : policy -> bool

val retryable : Outcome.t -> bool
(** Sheds and aborts are retryable; commits, shutdown refusals and
    duplicate admissions are not. *)

val delay_ms : policy -> Mdbs_util.Rng.t -> attempt:int -> shed:bool -> float
(** Backoff before attempt [attempt + 1], given that attempt [attempt]
    (1-based) just failed: uniform in [\[0, min(cap, base·2^(attempt-1)))]
    (full jitter). [~shed:true] doubles the window (up to twice the cap) —
    a shed means the runtime is overloaded, so back off harder. *)

val attempt_counters :
  Mdbs_obs.Metrics.t -> policy -> int -> Mdbs_obs.Metrics.counter
(** [attempt_counters metrics p] preregisters one
    [svc_retries_total{attempt=k}] counter per retry round
    (k = 1 .. max_attempts-1, the failed attempt the retry follows) and
    returns the round → counter lookup — allocation-free and thread-safe
    on the bump path, so backoff effectiveness is visible per round
    instead of only as a single total. *)
