(** One site's server (Figure 1): every rule a site applies to a request,
    free of I/O. {!Mdbs_core.Gtm}, the discrete-event simulator and the
    service runtime's site workers drive it and keep only their transport;
    within the library it is the only caller of {!Local_dbms.submit},
    {!Local_dbms.declare}, {!Local_dbms.drain_completions} and
    {!Local_dbms.crash}. *)

open Mdbs_model

type answer =
  | Done  (** The step executed. *)
  | Blocked  (** The protocol queued it; {!drain} reports when it ran. *)
  | Refused of string  (** The site aborted the subtransaction. *)

type t

val create : Local_dbms.t -> t

val dbms : t -> Local_dbms.t

val sid : t -> Types.sid

type reply = {
  answer : answer;
  value : int option;  (** The value read: reads and ticket operations. *)
  known : bool;  (** [false]: the site had forgotten the transaction. *)
}

val step : t -> Types.gid -> accesses:(Item.t * bool) list -> Op.action -> reply
(** Run a global's step. Its access set here, [accesses] (item,
    write-like), is predeclared before its [Begin] where the protocol
    needs it. A site that does not know the transaction (a crash made it
    forget) runs nothing: it answers [Done] to [Commit] and [Abort], which
    it must have performed, since a participant forgets only after
    completing, and [Refused "site-amnesia"] to anything else, whose work
    was lost. *)

val resolve : t -> Types.gid -> Op.action -> unit
(** A rollback or a recovery verdict: [Commit] or [Abort] the
    subtransaction if it is still active here. *)

(** Where a local transaction stands. Locals bypass the GTM: a driver runs
    one action per {!local_step}, and the drain resumes a parked one. *)
type progress =
  | Ready  (** Its next action may run. *)
  | Parked  (** Blocked in the protocol; {!drain} reports when it ran. *)
  | Committed  (** Its last action ran. *)
  | Aborted of string  (** The protocol aborted it here. *)

val start_local : t -> Txn.t -> unit
(** Declares its lock set where the protocol needs it; it is [Ready]. *)

val local_step : t -> Types.tid -> Op.action * progress
(** Runs its next action; [Invalid_argument] if it has none here. *)

val is_local : t -> Types.tid -> bool
(** Started here and neither ended nor killed by a crash. *)

type completion =
  | Unblocked of Types.gid * Op.action  (** A global's [Blocked] step ran. *)
  | Resumed of Types.tid * Op.action * progress
      (** A parked local's action ran: it is [Ready], or [Committed] if
          that was its last. *)

val drain : t -> completion list
(** Completions since the last drain, in execution order. *)

type crash = { in_doubt : Types.gid list; dead_locals : Types.tid list }

val crash : t -> crash option
(** Crash and restart the site ({!Local_dbms.crash}): its local
    transactions die, ascending in [dead_locals]; prepared globals survive
    in doubt. A site without a write-ahead log has nothing to recover
    from: [None], and nothing changes. *)
