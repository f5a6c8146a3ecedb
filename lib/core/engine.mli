(** The Basic_Scheme loop of Figure 3.

    The engine owns QUEUE and the WAIT set. It repeatedly selects the
    operation at the front of QUEUE; if the scheme's [cond] holds it runs
    [act] and then re-scans WAIT, processing every waiting operation whose
    condition has become true (to a fixpoint); otherwise the operation joins
    WAIT.

    The engine is synchronous: {!run} processes everything currently in
    QUEUE and returns the effects emitted, in order. The caller (the
    coordinator core {!Coord}, or the replay harness) turns [Submit_ser]
    effects into site submissions and later enqueues the matching [Ack]
    operations. *)

type t

val create : ?obs:Mdbs_obs.Obs.t -> Scheme.t -> t
(** [?obs] (default {!Mdbs_obs.Obs.disabled}): when live, the engine emits a
    ["gtm2.wait"] span (with the scheme's {!Scheme.explain} reason) for
    every parked operation, feeds the [gtm2_queue_wait_ms] /
    [gtm2_fin_wait_ms] histograms and the [gtm2_wait_depth_max] gauge, and
    — when profiling is on — self-times [cond]/[act] as [gtm2.cond] /
    [gtm2.act]. *)

val scheme : t -> Scheme.t

val obs : t -> Mdbs_obs.Obs.t

val close_open_spans : t -> reason:string -> unit
(** End every open wait span with an [outcome] attribute — call before
    discarding the engine (GTM crash), so no span dangles. *)

val enqueue : t -> Queue_op.t -> unit
(** Insert at the back of QUEUE. *)

val enqueue_all : t -> Queue_op.t list -> unit
(** Insert a batch at the back of QUEUE, in list order. One {!run} after
    an [enqueue_all] costs a single pass over QUEUE plus the shared
    WAIT-rescan fixpoint — the amortization the service runtime's batched
    pump relies on. *)

val run : t -> Scheme.effect_ list
(** Process QUEUE until empty (WAIT may stay non-empty); returns effects in
    emission order. *)

val wait_set : t -> Queue_op.t list
(** Operations currently waiting (bucket order: per-site [Ser] buckets, then
    [Fin]s; insertion order within a bucket). *)

val wait_size : t -> int

val total_wait_insertions : t -> int
(** How many operations were ever added to WAIT — the paper's
    degree-of-concurrency metric (fewer insertions = higher concurrency,
    §4). An operation re-entering WAIT is not counted twice. *)

val ser_wait_insertions : t -> int
(** WAIT insertions counting only [Ser] operations — delayed serialization
    events, i.e. delayed subtransactions. *)

val total_processed : t -> int
(** Operations processed (acts executed). *)

val engine_steps : t -> int
(** Steps spent by the engine scanning WAIT (cond re-evaluations), on top of
    the scheme's own accounting. *)

val total_steps : t -> int
(** [engine_steps + scheme.steps ()]: the full cost in the paper's model,
    including the cost of attempting to reschedule delayed operations. *)

val idle : t -> bool
(** QUEUE empty (WAIT may be non-empty). *)
