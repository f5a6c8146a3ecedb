(** One worker domain per local site (Figure 1's server + local DBMS).

    The worker owns its {!Mdbs_site.Local_dbms.t} exclusively, as the
    paper's autonomy assumption demands, and applies every request through
    the site's server ({!Mdbs_site.Server}), whose rules {!Mdbs_core.Gtm}
    and the simulator share. It keeps the transport: its domain and an
    unbounded mailbox of global steps ({!Exec}), rollbacks ({!Resolve}),
    local transactions ({!Run_local}, bypassing the GTM as pre-existing
    local applications do), fault injection ({!Crash}) and shutdown
    ({!Stop}). Replies go to the GTM through the [reply] callback (the GTM
    inbox's urgent lane, so a worker never deadlocks against a full
    admission queue); a step answered [Blocked] surfaces as {!Unblocked}
    from the completion drain that follows every request.

    The worker is batch-pipelined: each wakeup drains its whole mailbox
    ({!Mailbox.drain}), executes every request in arrival order — a
    {!Batch} carries one GTM dispatch round in dispatch order, so
    per-site execution order still equals GTM dispatch order, the
    capture-faithfulness invariant the certifier relies on — makes the
    batch durable with one group-commit fsync, and only then ships all
    resulting replies as {e one} coalesced [reply] callback and settles
    local clients' promises. *)

open Mdbs_model

type request =
  | Exec of {
      req : int;  (** Correlation id, echoed in the answer. *)
      tid : Types.tid;
      action : Op.action;
      accesses : (Item.t * bool) list;
          (** The global's access set here, predeclared before its
              [Begin] where the protocol needs it. *)
    }
  | Resolve of { tid : Types.tid; action : Op.action }
      (** Roll back ([Abort]) or complete ([Commit]) the global's
          subtransaction if it is still active here. No reply. *)
  | Batch of request list
      (** One dispatch round for this site, in GTM dispatch order; the
          worker executes it in list order (per-site pipelining without
          reordering). *)
  | Run_local of {
      txn : Txn.t;
      promise : Outcome.t Promise.t;
    }
  | Crash
      (** {!Mdbs_site.Server.crash}; a site without a write-ahead log
          ignores it and sends no {!Crashed}. *)
  | Stop  (** Finish the queue and exit the domain. *)

type reply =
  | Answer of { req : int; tid : Types.tid; answer : Mdbs_site.Server.answer }
      (** The site server's answer to an {!Exec}; [Refused] also carries
          the text of an exception the step raised. *)
  | Unblocked of { tid : Types.tid }
      (** A step of a global that was answered [Blocked] has now
          executed. *)
  | Crashed of { sid : Types.sid; in_doubt : Types.tid list }

type t

val spawn :
  reply:(reply list -> unit) ->
  ?observe:(Types.tid -> Op.action -> string -> unit) ->
  ?on_local_done:(Types.tid -> unit) ->
  Mdbs_site.Local_dbms.t ->
  t
(** Start the domain. [reply] receives the coalesced replies of one
    wakeup (never [[]]), in execution order. [observe tid action outcome]
    is called after every executed operation (from the worker domain —
    the callback must be thread-safe; the runtime wires it to the locked
    span sink). [on_local_done tid] fires when a {!Run_local} transaction
    reaches its terminal state here (committed, aborted, killed by a
    crash, or abandoned at shutdown) — after its final schedule entry was
    recorded; the runtime feeds the streaming certifier's [End] from
    it. *)

val sid : t -> Types.sid

val send : t -> request -> unit
(** Never blocks (unbounded mailbox). *)

val ops_handled : t -> int
(** Requests executed so far, counting each member of a {!Batch}
    (readable from any domain). *)

val join : t -> Mdbs_site.Local_dbms.t
(** Wait for the domain to exit (send {!Stop} first) and hand back the
    site for post-run capture: schedules, storage, WAL state. *)
