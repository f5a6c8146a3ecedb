(** Group-commit write-ahead log: the durable, on-disk counterpart of the
    site's logical WAL ({!Mdbs_site.Wal}).

    Records are buffered in memory by {!append} and hit disk on {!sync} —
    one write plus one fsync covering every record buffered since the last
    sync. The service runtime calls {!sync} once per site-worker mailbox
    batch, so a single fsync certifies the commit points of all
    transactions that prepared or committed in that batch: group commit.
    The [lsm_fsync_batch_size] histogram records how many commit-point
    records each fsync covered.

    On disk each record is framed [len][payload][crc32]. Reads stop at the
    first bad frame (a torn tail from a crash mid-write) and the writer
    truncates to the clean prefix before appending — the unsynced suffix
    is exactly the bounded loss group commit permits. *)

open Mdbs_model

type record =
  | Load of Item.t * int
  | Begin of Types.tid
  | Write of Types.tid * Item.t * int * int  (** item, before, after. *)
  | Prepared of Types.tid
  | Committed of Types.tid
  | Aborted of Types.tid

val is_commit_point : record -> bool
(** [Prepared]/[Committed]/[Aborted] — the records whose durability a
    transaction's outcome acknowledgment depends on. *)

type t

val open_ : string -> t * record list
(** Open (creating if absent) the log at this path, returning the clean
    records already on disk. A torn tail is truncated away. *)

val append : t -> record -> unit
(** Buffer a record; durable only after the next {!sync}. *)

val sync : t -> unit
(** Write and fsync everything buffered (no-op when empty). *)

val appended : t -> int
(** Records in the current log (including any still buffered) — the
    manifest's coverage mark is measured against this count. Drops at
    each {!rotate}. *)

val total_appended : t -> int
(** Records ever appended across rotations, including those recovered at
    {!open_} — the monotonic counter behind [wal_records_total]. *)

val durable_bytes : t -> int
(** Bytes covered by an fsync over the log's life, a checkpoint's rewrite
    included — the honest durability measure, as opposed to the logical
    record count. Never decreases, though {!rotate} shrinks the file. *)

val fsyncs : t -> int

val rotations : t -> int

val live_count : t -> int
(** Records belonging to transactions not yet resolved by a
    [Committed]/[Aborted] — what a {!rotate} would keep. *)

val rotate : t -> unit
(** Checkpoint the log: atomically rewrite it to just the unresolved
    transactions' records ({!live_count} of them). Only sound immediately
    after a manifest publish whose [wal_records] equals the pre-rotation
    {!live_count}: every dropped record is then reflected in the runs,
    and replaying the old log past that mark is idempotent if the crash
    lands before the rename. *)

val discard_pending : t -> unit
(** Drop the records buffered since the last {!sync} — the bounded loss a
    real power failure inflicts. Leaves the in-memory counters stale, so
    only call it immediately before abandoning the handle for a reopen. *)

val attach_metrics :
  t -> labels:(string * string) list -> Mdbs_obs.Metrics.t -> unit
(** Register [lsm_fsync_batch_size] and [lsm_fsync_ms] histograms. *)

val close : t -> unit
(** {!sync}, then release the descriptor. *)

val read_file : string -> record list * int
(** Decode a log image without opening it for append: the clean records
    and the clean byte count ([mdbs recover]'s read path). *)

type analysis = {
  committed : Mdbs_util.Iset.t;
  aborted : Mdbs_util.Iset.t;
  in_doubt : Mdbs_util.Iset.t;
  losers : Mdbs_util.Iset.t;
}

val analyze : record list -> analysis
(** Same classification as {!Mdbs_site.Wal.analyze}, over decoded disk
    records. *)

val ms_bounds : float array
(** Histogram bounds for sub-millisecond-to-50ms latencies, shared by the
    storage-tier timing instruments. *)
