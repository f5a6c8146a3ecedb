(** A local DBMS: one site of the multidatabase.

    Executes submitted operations under the site's concurrency-control
    protocol, records the local schedule, and acknowledges completions. It
    does not distinguish local transactions from global subtransactions
    (§2.1) — both are just transactions to it.

    Blocking protocols (2PL) may answer [Waiting]; the blocked operation
    executes later, when a conflicting transaction releases its locks, and
    surfaces through {!drain_completions}. Certification protocols may answer
    [Aborted]: the transaction's effects at this site have been rolled back
    and its [Abort] recorded. Drivers reach it through a site server
    ({!Server}). *)

open Mdbs_model

type t

type outcome =
  | Executed of int option
      (** Operation done; the payload is the value read (reads and ticket
          operations). *)
  | Waiting  (** Blocked inside the protocol; completion arrives later. *)
  | Aborted of string
      (** The protocol rejected the operation; the transaction is aborted at
          this site (effects undone, [Abort] recorded). *)

type completion = { tid : Types.tid; action : Op.action; outcome : outcome }
(** Deferred results: a previously [Waiting] operation that has now executed,
    always with outcome [Executed _]. *)

type backend = [ `Mem | `Lsm of string ]
(** Storage engine: the in-memory map, or the persistent LSM engine
    rooted at a directory ([`Lsm dir]). *)

val create :
  ?protocol:Types.protocol_kind -> ?durable:bool -> ?backend:backend ->
  ?lsm_params:Mdbs_storage_lsm.Lsm.params -> Types.sid -> t
(** A fresh site (default protocol: strict 2PL; default backend [`Mem])
    with empty storage. [~durable:true] attaches a write-ahead log
    ({!Wal}), enabling {!crash}. [`Lsm _] implies durability: the
    engine's on-disk log is fed from the logical one. [lsm_params] tunes
    the engine (memtable watermark, compaction trigger, cache size);
    ignored for [`Mem]. *)

val attach_obs : t -> Mdbs_obs.Obs.t -> unit
(** Wire the site into an observability bundle: per-site
    [local_commits_total] / [local_aborts_total] / [wal_records_total]
    counters, and a ["site.crash"] instant (with in-doubt and loser counts)
    on the site's track at every {!crash}. Defaults to
    {!Mdbs_obs.Obs.disabled}. *)

val set_op_tap : t -> (Types.tid -> Op.action -> unit) -> unit
(** Install a hook that observes every local-schedule entry at the moment
    it is recorded — the service runtime's streaming-certifier feed. Runs
    on the site's own execution thread; must be cheap and must not call
    back into the site. *)

val site_id : t -> Types.sid

val protocol_kind : t -> Types.protocol_kind

val serialization_point : t -> Ser_fun.point

val load : t -> (Item.t * int) list -> unit
(** Initialize storage outside any transaction. *)

val declare : t -> Types.tid -> (Item.t * Mdbs_lcc.Cc_types.mode) list -> unit
(** Predeclare a transaction's access set, before its [Begin]. Required by
    conservative-2PL sites (see {!needs_declarations}); ignored elsewhere. *)

val needs_declarations : t -> bool

val submit : t -> Types.tid -> Op.action -> outcome
(** Execute one operation on behalf of a transaction. [Begin] must come
    first; [Commit]/[Abort] end the transaction at this site. Submitting for
    a transaction with an operation still [Waiting] is a checked error. *)

val drain_completions : t -> completion list
(** Operations that completed since the last drain (unblocked lock waiters),
    in execution order. *)

val schedule : t -> Schedule.t
(** The recorded local schedule [S_k]. *)

val storage_value : t -> Item.t -> int

val active_count : t -> int
(** Transactions begun but not yet committed/aborted here. *)

val has_pending : t -> Types.tid -> bool
(** Is one of the transaction's operations blocked inside the protocol? *)

val is_durable : t -> bool
(** Has the site a write-ahead log? *)

val crash : t -> unit
(** Crash and restart the site (durable sites only; raises
    [Invalid_argument] otherwise). All volatile state dies: active
    transactions abort (recorded in the schedule), blocked operations and
    buffered writes vanish, the protocol restarts cold. Storage is rebuilt
    from the write-ahead log by redo-undo; {e prepared} transactions
    survive as in-doubt: their effects are retained, their write locks (or
    OCC validation records) are re-acquired, and they await {!submit} of
    [Commit] or [Abort] — the coordinator's verdict. *)

val in_doubt : t -> Types.tid list
(** Prepared transactions awaiting resolution after the last {!crash}. *)

val wal_length : t -> int
(** {e Logical} WAL entries — records appended to the in-memory log,
    whether or not any byte has reached a disk (0 for non-durable sites).
    For what is actually durable, see {!durable_bytes}. *)

val durable_bytes : t -> int
(** Bytes of the backend's on-disk WAL covered by an fsync — the
    persistence measure {!wal_length} is not. Always 0 for the [`Mem]
    backend, whose log is process-local by design. *)

val sync_durable : t -> unit
(** Group-commit point: write and fsync every WAL record the backend has
    buffered since the last sync (no-op for [`Mem]). The service runtime
    calls this once per site-worker batch, so one fsync covers every
    transaction that prepared/committed in the batch. *)

val backend_name : t -> string
(** ["mem"] or ["lsm"], for reports. *)

val close : t -> unit
(** Sync and release backend resources (file descriptors). The site must
    not execute operations afterwards; schedule and WAL queries remain
    valid. *)

val is_active : t -> Types.tid -> bool
(** Has the transaction begun here without yet committing/aborting?
    (In-doubt transactions re-installed by {!crash} count as active.) The
    site server ({!Server}) uses this to spot a transaction a crash made
    it forget. *)

val wal_state : t -> (Item.t * int) list option
(** The state the write-ahead log predicts a crash would recover
    ({!Wal.recovered_state}); [None] for non-durable sites. The chaos
    harness checks it against {!storage_items} at end of run. *)

val storage_items : t -> (Item.t * int) list
(** Current storage contents, sorted by item. *)
