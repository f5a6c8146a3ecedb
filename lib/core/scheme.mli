(** The conservative concurrency-control scheme interface (Figure 2).

    A scheme is a triple: private data structures DS, a predicate
    [cond(o_j)] over DS, and an action [act(o_j)] that updates DS and emits
    effects. Schemes never abort transactions — they only delay operations
    (conservativeness, §3). The engine (Figure 3) owns QUEUE and WAIT and
    consults [cond]/[act].

    Implementations: {!Scheme0} (per-site FIFO), {!Scheme1} (transaction-site
    graph), {!Scheme2} (TSG with dependencies), {!Scheme3} (the O-scheme that
    permits all serializable schedules), and {!Scheme_nocontrol} (an unsafe
    baseline for demonstrating why control is needed).

    {b Sharing discipline (OCaml 5).} A scheme value is {e self-contained}:
    all of its mutable data structures are captured in the closures of one
    instance and no implementation touches global mutable state, so distinct
    instances never interfere and an instance may be created on one domain
    and used on another. A single instance is {e not} internally
    synchronized — the parallel service runtime ({!Mdbs_svc.Gtm_sched})
    serializes every [cond]/[act]/[wakeups]/[blockers] call behind one
    mutex, exactly as the DES serializes them behind its event loop.
    [explain] is side-effect-free and is the one entry point other threads
    may call (under the same mutex) for stall attribution while the
    scheduler is running. *)

open Mdbs_model

type effect_ =
  | Submit_ser of Types.gid * Types.sid
      (** Hand [ser_k(G_i)] to the site's server for execution. *)
  | Forward_ack of Types.gid * Types.sid
      (** Pass the acknowledgement on to GTM1. *)
  | Abort_global of Types.gid
      (** Non-conservative schemes only ({!Scheme_otm}): the global
          transaction must abort (its serialization operation was {e not}
          submitted). The paper's Schemes 0-3 never emit this — they are
          conservative by design (§3). *)

type wakeup =
  | Wake_ser_at of Types.sid
      (** Re-check waiting [Ser] operations of this site. *)
  | Wake_fins  (** Re-check waiting [Fin] operations. *)
  | Wake_all  (** Re-check everything (fallback). *)

type t = {
  name : string;
  cond : Queue_op.t -> bool;
      (** Must be side-effect-free apart from step accounting. *)
  act : Queue_op.t -> effect_ list;
      (** Pre-condition: [cond] holds. Updates DS; returns effects in
          order. *)
  wakeups : Queue_op.t -> wakeup list;
      (** Which waiting operations [act] on this operation may have enabled.
          This is the paper's "steps required to determine the operations in
          WAIT for which cond holds due to the execution of act(o_j)": the
          engine re-checks only the designated buckets. Must be {e complete}
          (never miss an enabled operation); precision affects only cost. *)
  steps : unit -> int;
      (** Abstract steps consumed so far by [cond]/[act] — the quantity the
          paper's complexity theorems bound. *)
  describe : unit -> string;  (** One-line dump of DS, for debugging. *)
  blockers : Queue_op.t -> Types.gid list;
      (** The globals a parked serialization operation waits for, as DS
          names them: the site FIFO's head (Scheme 0), the outstanding
          [ser] or the insert queue's front (Scheme 1), the unacknowledged
          dependencies (Scheme 2), [ser_bef ∩ set_k] plus an unacknowledged
          [last_k] (Scheme 3); [[]] for the baselines, for every other
          operation and when [cond op] holds. The coordinator core's victim
          policy lets a parked operation wound the younger ones
          ({!Coord.tick}). Side-effect-free, no step accounting. *)
  explain : Queue_op.t -> string;
      (** Human-readable reason why [cond op] currently fails (which DS
          predicate blocks the operation), for wait-span attribution in the
          observability layer; a [Ser]'s reason names its [blockers].
          Side-effect-free, no step accounting; the result is unspecified
          when [cond op] holds. *)
}

val pp_effect : Format.formatter -> effect_ -> unit
