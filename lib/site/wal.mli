(** Per-site write-ahead log: the durability substrate for crash recovery.

    The paper closes with "further work still remains on making the
    developed schemes fault-tolerant". This log is the site-local half of
    that work: physical before/after images for redo-undo recovery, plus
    transaction status records — including [Prepared], which makes
    two-phase-commit participants recoverable (in-doubt transactions
    survive a crash and await the coordinator's verdict).

    The log models stable storage: it survives {!Local_dbms.crash} while
    every volatile structure (lock tables, timestamps, validation state,
    buffered writes, blocked operations) is lost. *)

open Mdbs_model

type record = Mdbs_storage_lsm.Group_wal.record =
  | Load of Item.t * int  (** Initial database contents. *)
  | Begin of Types.tid
  | Write of Types.tid * Item.t * int * int  (** item, before, after. *)
  | Prepared of Types.tid
  | Committed of Types.tid
  | Aborted of Types.tid
      (** Shared with the on-disk group-commit WAL
          ({!Mdbs_storage_lsm.Group_wal}): the logical and durable logs
          carry the same record stream. *)

type t

val create : unit -> t

val append : t -> record -> unit

val records : t -> record list
(** In append order. *)

val length : t -> int

type analysis = {
  committed : Mdbs_util.Iset.t;
  aborted : Mdbs_util.Iset.t;
  in_doubt : Mdbs_util.Iset.t;
      (** Prepared, with no commit/abort record: awaiting the global
          decision. *)
  losers : Mdbs_util.Iset.t;
      (** Begun but neither committed, aborted nor prepared: active at the
          crash; their effects must be undone. *)
}

val analyze : t -> analysis

val recovered_state : t -> (Item.t * int) list
(** Redo-undo result: replay every load and write in log order, then undo
    the losers' writes (newest first). Committed and in-doubt effects
    survive. *)

val undo_entries : t -> Types.tid -> (Item.t * int) list
(** Before-images of the transaction's writes, newest first — what an
    in-doubt transaction needs registered so a post-recovery abort can roll
    it back. *)

val written_items : t -> Types.tid -> Item.t list
(** Items the transaction wrote (deduplicated, in first-write order); used
    to re-acquire locks for in-doubt transactions at recovery. *)

val pp_record : Format.formatter -> record -> unit
