(** The persistent LSM storage engine: memtable over leveled SSTables,
    fronted by a group-commit WAL.

    Presents the same contract as the in-memory site storage
    ({!Mdbs_site.Storage}): integer values, unwritten items read as 0,
    per-transaction before-image undo logs. Writes land in the
    {!Memtable} and spill to L0 {!Sstable} runs at the watermark;
    {!Levels} compacts runs and tracks them in a CRC-checked manifest;
    reads fall through memtable → L0 → L1 via the heat-aware
    {!Block_cache}.

    Durability protocol: the caller appends each logical WAL record via
    {!wal_append} and calls {!wal_sync} at its group-commit points. A
    flush syncs the WAL before writing a run, so on-disk runs never get
    ahead of the durable log. Recovery ({!open_dir}) is manifest → WAL
    suffix redo → loser undo with logged compensation — the file-backed
    equivalent of {!Mdbs_site.Wal.recovered_state}. *)

open Mdbs_model

type params = {
  memtable_entries : int;  (** Flush watermark (distinct buffered items). *)
  block_entries : int;  (** Entries per SSTable data block. *)
  l0_trigger : int;  (** L0 run count that triggers compaction. *)
  run_entries : int;  (** Max entries per compacted L1 run. *)
  cache_blocks : int;  (** Block cache capacity. *)
  wal_checkpoint_records : int;
      (** Reclaimable log records (those of resolved transactions) that
          force a checkpoint at the next group-commit point, bounding the
          WAL even when the memtable never crosses its watermark. *)
}

val default_params : params
(** 1024-entry memtable, 64-entry blocks, compaction at 4 L0 runs,
    4096-entry L1 runs, 64-block cache, checkpoint at 4096 WAL records. *)

type t

val open_dir : ?params:params -> string -> t
(** Open (or create) a store rooted at a directory, running recovery:
    manifest runs, then WAL-suffix redo, then loser undo (compensation
    logged and synced). Raises {!Sstable.Corrupt} on damaged files. *)

val get : t -> Item.t -> int

val set : t -> Item.t -> int -> unit

val delete : t -> Item.t -> unit

val write_logged : t -> Types.tid -> Item.t -> int -> unit

val commit_txn : t -> Types.tid -> unit

val register_undo : t -> Types.tid -> (Item.t * int) list -> unit

val undo_log : t -> Types.tid -> (Item.t * int) list

val undo_txn : t -> Types.tid -> unit

val items : t -> (Item.t * int) list
(** Live state (memtable over runs, tombstones resolved), sorted. *)

val load : t -> (Item.t * int) list -> unit

val wal_append : t -> Group_wal.record -> unit

val wal_sync : t -> unit
(** The group-commit point: one fsync for everything appended since the
    last one. Also the WAL-bound checkpoint trigger — if a rewrite would
    drop at least [wal_checkpoint_records] records, the store flushes
    (or, with an empty memtable, just republishes the manifest mark) and
    rotates the log. Safe here and only here: at a group-commit point
    every appended record's effect is applied. *)

val durable_bytes : t -> int

val recovered_in_doubt : t -> Types.tid list
(** Prepared-but-unresolved transactions found by the last {!open_dir}. *)

val crash_reset : ?lossy:bool -> t -> t
(** Simulate a crash-and-restart in process: sync pending WAL appends
    (the caller already logged its compensation), drop all volatile state
    and reopen from disk. Metrics attachments carry over. With
    [~lossy:true] the pending appends are discarded instead of synced —
    a power-failure crash that loses the unsynced group-commit window,
    so recovery rewinds to the durable prefix (fault-injection mode;
    acknowledged outcomes are still never lost, because acks ride behind
    the fsync). *)

val flush : t -> unit
(** Force a memtable flush (tests). *)

val attach_metrics :
  t -> labels:(string * string) list -> Mdbs_obs.Metrics.t -> unit
(** Register the storage-tier instruments: [lsm_flushes_total],
    [lsm_compactions_total], [lsm_cache_{hits,misses}_total],
    [lsm_read_ms], [lsm_fsync_ms], [lsm_fsync_batch_size]. *)

val close : t -> unit

val predicted_items : string -> (Item.t * int) list
(** Offline audit: the state a site directory's files promise — manifest
    runs overlaid with the WAL records past the manifest's high-water
    mark, losers undone from their before-images. Recovered storage must
    equal this, item for item ([mdbs recover] and the QCheck schedule
    property both check it). Reads the directory without mutating it. *)

type stats = {
  flushes : int;
  compactions : int;
  cache_hits : int;
  cache_misses : int;
  fsyncs : int;
  wal_records_total : int;
      (** Ever appended, across checkpoint rotations (monotonic). *)
  wal_rotations : int;
  bytes_durable : int;
  l0_runs : int;
  l1_runs : int;
  memtable : int;
}

val stats : t -> stats

val mkdir_p : string -> unit
