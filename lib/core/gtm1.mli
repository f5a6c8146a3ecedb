(** GTM1: the global-transaction sequencer (Figure 1, §2.3).

    GTM1 executes each global transaction strictly sequentially: the next
    operation is submitted only after the previous one's acknowledgement.
    It knows each site's serialization function and routes exactly the
    serialization operations — [Begin] for timestamp-ordering sites,
    [Commit] for 2PL/OCC sites, an injected [Ticket_op] for SGT sites —
    through GTM2; all other operations go directly to the sites. It brackets
    each transaction with [init_i] (before any operation) and [fin_i] (after
    every serialization acknowledgement).

    GTM1 is a passive state machine here: the coordinator core ({!Coord})
    asks {!next} what to do and reports completions back. *)

open Mdbs_model

type t

type step = { site : Types.sid; action : Op.action; via_gtm2 : bool }

type progress =
  | Dispatch_direct of step  (** Submit this operation straight to its site. *)
  | Dispatch_ser of Types.sid
      (** Enqueue [Ser (gid, site)] into GTM2's QUEUE. *)
  | In_flight  (** Waiting for the previous operation's acknowledgement. *)
  | Finished
      (** Script complete (or abandoned): enqueue [fin] if not already done. *)

val create : unit -> t

val admit :
  t -> Txn.t -> ?atomic:bool -> ser_point_of:(Types.sid -> Ser_fun.point) ->
  unit -> Queue_op.info
(** Register a global transaction; returns the [init] payload the caller
    must enqueue into GTM2 before anything else. With [~atomic:true] a
    [Prepare] step per site is inserted before the commits (two-phase
    commit). Raises [Invalid_argument] on a non-global or malformed
    transaction. *)

val next : t -> Types.gid -> progress
(** What GTM1 wants to do now for this transaction. Calling [next] does not
    change state; the caller confirms dispatch with {!note_dispatched}. *)

val note_dispatched : t -> Types.gid -> unit
(** The operation returned by [next] has been handed off (to the site or to
    GTM2); the transaction is in flight until {!on_ack}. *)

val on_ack : t -> Types.gid -> unit
(** The in-flight operation completed; advance the program counter. *)

val current_step : t -> Types.gid -> step option
(** The step at the program counter (the in-flight one, if any). *)

val mark_dead : t -> Types.gid -> unit
(** The transaction aborted at some site. Remaining direct operations are
    skipped; remaining serialization operations are still routed through
    GTM2 (and faked by the caller) so the scheme's data structures drain
    cleanly. *)

val is_dead : t -> Types.gid -> bool

val pc : t -> Types.gid -> int
(** The program counter: index of the current (possibly in-flight) step.
    Used as the per-transaction operation id for idempotent delivery — a
    retried or duplicated message for step [pc] is recognisable because the
    counter only advances on acknowledgement. *)

val begun_sites : t -> Types.gid -> Types.sid list
(** Sites where the transaction's [Begin] has been acknowledged but no
    [Commit]/[Abort] has completed — the sites to roll back on death. *)

val note_site_terminated : t -> Types.gid -> Types.sid -> unit
(** The transaction committed or aborted at that site. *)

val active : t -> Types.gid list
(** Admitted transactions that have not yet been finished and reaped. *)

val declaration_for : t -> Types.gid -> Types.sid -> (Item.t * bool) list
(** The transaction's access set at a site (item, write-like), used to
    predeclare locks at conservative-2PL sites before dispatching the
    begin. *)

val is_known : t -> Types.gid -> bool
(** Is the transaction still tracked (admitted, not yet finished)? *)

val finish : t -> Types.gid -> unit
(** Forget the transaction (after [fin] was enqueued). *)
