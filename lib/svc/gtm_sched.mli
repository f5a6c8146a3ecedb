(** GTM2 for the parallel runtime: the {e existing} Figure-3 engine and
    scheme, made thread-safe by one mutex.

    The paper's schemes are sequential objects (private DS + [cond]/[act]);
    rather than re-implement them lock-free, the service runtime serializes
    every engine call behind this lock — the scheduler itself is the
    paper's, verbatim, and the certifier later checks that what the
    parallel runtime released really was serializable. The GTM domain is
    the only caller of {!run_ops}, and of {!blockers} (its victim policy);
    monitoring threads use {!stalled} concurrently (same lock), reusing
    each scheme's [explain] for live stall attribution. *)

type t

val create : ?obs:Mdbs_obs.Obs.t -> Mdbs_core.Scheme.t -> t

val run_ops : t -> Mdbs_core.Queue_op.t list -> Mdbs_core.Scheme.effect_ list
(** [run_ops t ops]: one lock acquisition for a whole batch — enqueue
    every operation in list order, then process QUEUE to emptiness and
    return the effects. This is the batched pump's hot path: the critical
    section is a pure state transition (scheme bookkeeping only); the
    returned effects — site dispatches, acks, aborts — are executed by
    the caller {e outside} the lock, so monitoring threads ({!stalled})
    are never blocked behind I/O or mailbox traffic. *)

val stalled : t -> (string * string) list
(** Snapshot of the WAIT set with reasons: [(op, explain op)] for every
    parked operation — live stall attribution from any thread. *)

val blockers : t -> Mdbs_core.Queue_op.t -> Mdbs_model.Types.gid list
(** The scheme's blockers of a parked operation, under the lock
    ({!Mdbs_core.Scheme.t}[.blockers]). The coordinator core's victim
    policy asks it only for a serialization operation parked past its
    wound window, so a tick takes the lock only then. *)

val with_engine : t -> (Mdbs_core.Engine.t -> 'a) -> 'a
(** Run [f] on the underlying engine under the lock (metrics reads:
    wait-insertion counters, step totals). *)
