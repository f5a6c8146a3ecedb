(** The assembled global transaction manager: GTM1 + GTM2 (engine + scheme)
    + servers, wired to a set of local DBMSs (Figure 1).

    This is the synchronous front door of the library: admit global
    transactions, submit local transactions directly to their sites (they
    bypass the GTM, as the paper's pre-existing local applications do), and
    {!pump} until quiescence. Examples and tests use this module
    directly.

    It drives the coordinator core ({!Coord}), which owns every per-global
    rule, and one server per site ({!Mdbs_site.Server}), which owns every
    site rule, with no transport at all: a step runs at its site's server
    at once and the answer goes straight back to the core; a local
    transaction runs there until it ends or waits. A site may reject a
    global subtransaction (deadlock victim, late timestamp, failed
    validation); the core then rolls it back everywhere. This module keeps
    the statuses and one rule of its own, its victim policy: a cross-site
    deadlock (invisible to every single site) is broken by killing the
    youngest blocked global after a quiescent round. *)

open Mdbs_model

type t

type status = Active | Committed | Aborted of string

val create :
  ?obs:Mdbs_obs.Obs.t -> ?atomic_commit:bool -> scheme:Scheme.t ->
  sites:Mdbs_site.Local_dbms.t list -> unit -> t
(** [~atomic_commit:true] runs global transactions under two-phase commit:
    a prepare round precedes the commits, so a validation failure at any
    site aborts the transaction everywhere {e before} any site committed —
    closing the atomicity gap the paper leaves as future work. Default
    false (the paper's model).

    [?obs] (default {!Mdbs_obs.Obs.disabled}) is handed to the engine; see
    {!Engine.create}. {!recover} inherits it, closing the crashed engine's
    open wait spans first. *)

val engine : t -> Engine.t

val site : t -> Types.sid -> Mdbs_site.Local_dbms.t

val sites : t -> Mdbs_site.Local_dbms.t list

val submit_global : t -> Txn.t -> unit
(** Admit a global transaction (enqueues its [init]); progress happens in
    {!pump}. *)

val submit_local : t -> Txn.t -> unit
(** Start a local transaction directly at its site; it advances during
    {!pump} if blocked. *)

val pump : t -> unit
(** Run everything to quiescence: engine, dispatch, completions, forced
    aborts of cross-site deadlock victims. *)

val run_global : t -> Txn.t -> status
(** [submit_global] + [pump] + status. *)

val run_local : t -> Txn.t -> status

val status : t -> Types.tid -> status
(** Status of any submitted transaction. *)

val ser_schedule : t -> Ser_schedule.t
(** The recorded [ser(S)] (audit data, §2.3). *)

val schedules : t -> Schedule.t list
(** All local schedules (audit data). *)

val audit : t -> Serializability.verdict
(** Global conflict-serializability of everything committed so far. *)

val gtm_log : t -> Gtm_log.t
(** The GTM's durable log: admissions, dispatch/ack progress, 2PC
    decisions. Survives a GTM crash (see {!recover}). *)

val recover : old:t -> scheme:Scheme.t -> t
(** Crash the GTM of [old] and return its restarted replacement: a fresh
    engine around [scheme], a fresh GTM1, the same sites, and the survived
    durable log. Every transaction the log shows admitted-but-unfinished is
    resolved by presumed abort: a logged [Commit] decision is completed at
    every site where the subtransaction is still live (including in-doubt
    2PC participants); anything else — including transactions whose
    decision was never logged — is aborted at all such sites. Blocked local
    transactions are resumed by a final {!pump}. *)
