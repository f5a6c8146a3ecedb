open Mdbs_model
module Metrics = Mdbs_obs.Metrics
module Stats = Mdbs_util.Stats
module Iset = Mdbs_util.Iset

type params = {
  memtable_entries : int;
  block_entries : int;
  l0_trigger : int;
  run_entries : int;
  cache_blocks : int;
  wal_checkpoint_records : int;
}

let default_params =
  {
    memtable_entries = 1024;
    block_entries = 64;
    l0_trigger = 4;
    run_entries = 4096;
    cache_blocks = 64;
    wal_checkpoint_records = 4096;
  }

type t = {
  dir : string;
  params : params;
  mem : Memtable.t;
  wal : Group_wal.t;
  levels : Levels.t;
  undo : (Types.tid, (Item.t * int) list ref) Hashtbl.t; (* newest first *)
  recovered_in_doubt : Types.tid list;
  mutable h_read : Stats.histogram;
  mutable timed : bool;
  mutable metrics : ((string * string) list * Metrics.t) option;
      (* remembered so crash_reset can re-attach to the same registry *)
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let wal_path dir = Filename.concat dir "wal.log"

(* Raw state write: into the memtable, never triggering a flush. Flush
   decisions happen only on the transaction-visible write path, so replay
   can never publish a manifest claiming WAL records it has not applied. *)
let put_raw t item e = Memtable.put t.mem item e

let read_levels t item =
  if t.timed then begin
    let t0 = Unix.gettimeofday () in
    let e = Levels.find t.levels item in
    Metrics.observe t.h_read ((Unix.gettimeofday () -. t0) *. 1000.);
    e
  end
  else Levels.find t.levels item

let get t item =
  match Memtable.find t.mem item with
  | Some (Memtable.Value v) -> v
  | Some Memtable.Tombstone -> 0
  | None -> (
      match read_levels t item with
      | Some (Memtable.Value v) -> v
      | Some Memtable.Tombstone | None -> 0)

let flush t =
  if not (Memtable.is_empty t.mem) then begin
    (* WAL strictly ahead of data: every record a run could contain must
       be durable before the manifest references the run. *)
    Group_wal.sync t.wal;
    (* The manifest's high-water mark is the post-checkpoint log length:
       after rotation only unresolved transactions' records remain, and
       all of them are already folded into the runs. If the process dies
       between the publish and the rotation, recovery replays the old
       log's suffix past this mark — a subset of records the new run
       already reflects, so the replay is idempotent. *)
    let kept = Group_wal.live_count t.wal in
    Levels.flush t.levels ~wal_records:kept (Memtable.entries t.mem);
    Memtable.clear t.mem;
    Group_wal.rotate t.wal;
    ignore (Levels.maybe_compact t.levels)
  end

let maybe_flush t =
  if Memtable.length t.mem >= t.params.memtable_entries then flush t

let put t item e =
  put_raw t item e;
  maybe_flush t

let set t item v = put t item (Memtable.Value v)

let delete t item = put t item Memtable.Tombstone

let write_logged t tid item v =
  let before = get t item in
  (match Hashtbl.find_opt t.undo tid with
  | Some log -> log := (item, before) :: !log
  | None -> Hashtbl.replace t.undo tid (ref [ (item, before) ]));
  set t item v

let commit_txn t tid = Hashtbl.remove t.undo tid

let register_undo t tid entries =
  match Hashtbl.find_opt t.undo tid with
  | Some log -> log := entries @ !log
  | None -> Hashtbl.replace t.undo tid (ref entries)

let undo_log t tid =
  match Hashtbl.find_opt t.undo tid with Some log -> !log | None -> []

let undo_txn t tid =
  (* Raw puts, one flush decision at the end: the caller appends all the
     compensation records before applying the undo, so a watermark flush
     halfway through would publish a manifest claiming records whose
     effects had only partially reached the memtable. *)
  (match Hashtbl.find_opt t.undo tid with
  | Some log ->
      List.iter
        (fun (item, before) -> put_raw t item (Memtable.Value before))
        !log
  | None -> ());
  Hashtbl.remove t.undo tid;
  maybe_flush t

let items t =
  let state =
    List.fold_left
      (fun map (item, e) -> Levels.ItemMap.add item e map)
      (Levels.state t.levels) (Memtable.entries t.mem)
  in
  Levels.ItemMap.fold
    (fun item e acc ->
      match e with
      | Memtable.Value v -> (item, v) :: acc
      | Memtable.Tombstone -> acc)
    state []
  |> List.rev

let load t pairs = List.iter (fun (item, v) -> set t item v) pairs

let wal_append t r = Group_wal.append t.wal r

(* Checkpoint the log even when the memtable never crosses its watermark
   (a hot keyspace smaller than the memtable rewrites the same entries
   forever and would otherwise grow the WAL without bound). With a
   non-empty memtable this is an early flush; with an empty one we only
   advance the manifest's mark and rewrite the log — sound because an
   empty memtable means no effect record since the last flush is
   uncovered. *)
let checkpoint t =
  if Memtable.is_empty t.mem then begin
    Group_wal.sync t.wal;
    Levels.checkpoint t.levels ~wal_records:(Group_wal.live_count t.wal);
    Group_wal.rotate t.wal
  end
  else flush t

(* Trigger on the reclaimable part of the log only: a rotation keeps the
   unresolved transactions' records, so once those alone reach the bound
   (one long-lived transaction) a trigger on the log's length would
   rewrite the whole log at every sync. *)
let maybe_checkpoint t =
  if
    Group_wal.appended t.wal - Group_wal.live_count t.wal
    >= t.params.wal_checkpoint_records
  then checkpoint t

(* The group-commit point is also the only safe WAL-bound trigger site:
   every appended record's effect has been applied by now (mid-operation
   windows — e.g. compensation records appended before the undo runs —
   never reach here). Never trigger from [wal_append] itself. *)
let wal_sync t =
  Group_wal.sync t.wal;
  maybe_checkpoint t

let durable_bytes t = Group_wal.durable_bytes t.wal

let recovered_in_doubt t = t.recovered_in_doubt

(* --- open / recovery ---------------------------------------------------- *)
(* Order: manifest (runs give the state as of the last flush) → WAL suffix
   redo (records past the manifest's high-water mark, applied in log
   order) → loser undo (newest first), with compensation records appended
   and synced so the log stays pure redo across repeated crashes. This is
   the same redo-undo doctrine as Wal.recovered_state, executed against
   files. *)

let open_dir ?(params = default_params) dir =
  mkdir_p dir;
  let wal, records = Group_wal.open_ (wal_path dir) in
  let levels =
    Levels.open_ ~block_entries:params.block_entries
      ~l0_trigger:params.l0_trigger ~run_entries:params.run_entries
      ~cache_blocks:params.cache_blocks dir
  in
  let analysis = Group_wal.analyze records in
  let t =
    {
      dir;
      params;
      mem = Memtable.create ();
      wal;
      levels;
      undo = Hashtbl.create 16;
      recovered_in_doubt = Iset.to_list analysis.Group_wal.in_doubt;
      h_read = Metrics.histogram Metrics.null "lsm_read_ms";
      timed = false;
      metrics = None;
    }
  in
  (* Redo: replay the WAL suffix the runs do not cover. *)
  let base = Levels.wal_records levels in
  List.iteri
    (fun i r ->
      if i >= base then
        match r with
        | Group_wal.Load (item, v) | Group_wal.Write (_, item, _, v) ->
            put_raw t item (Memtable.Value v)
        | Group_wal.Begin _ | Group_wal.Prepared _ | Group_wal.Committed _
        | Group_wal.Aborted _ -> ())
    records;
  (* Undo the losers — transactions active at the crash — newest write
     first, logging compensation so a second recovery sees them aborted. *)
  if not (Iset.is_empty analysis.Group_wal.losers) then begin
    Iset.iter
      (fun tid ->
        List.iter
          (fun r ->
            match r with
            | Group_wal.Write (owner, item, before, _) when owner = tid ->
                let now = get t item in
                Group_wal.append wal (Group_wal.Write (tid, item, now, before));
                put_raw t item (Memtable.Value before)
            | _ -> ())
          (List.rev records);
        Group_wal.append wal (Group_wal.Aborted tid))
      analysis.Group_wal.losers;
    Group_wal.sync wal
  end;
  maybe_flush t;
  t

let attach_metrics t ~labels metrics =
  t.metrics <- Some (labels, metrics);
  t.h_read <-
    Metrics.histogram metrics ~labels ~bounds:Group_wal.ms_bounds "lsm_read_ms";
  t.timed <- Metrics.enabled metrics;
  Group_wal.attach_metrics t.wal ~labels metrics;
  Levels.attach_metrics t.levels ~labels metrics

let close t =
  Group_wal.close t.wal;
  Levels.close t.levels

(* Crash: volatile state (memtable, undo logs, cache) dies; everything
   else is rebuilt from manifest + WAL. Pending WAL appends are synced
   first — the in-process caller (Local_dbms.crash) has already logged
   compensation for its losers, and those records must survive into the
   reopened log. [~lossy:true] instead drops the unsynced buffer, the
   bounded loss a real power failure inflicts between group commits:
   recovery then sees only the durable prefix, so unacknowledged
   commits vanish while every synced one survives. *)
let crash_reset ?(lossy = false) t =
  if lossy then Group_wal.discard_pending t.wal else Group_wal.sync t.wal;
  close t;
  let t' = open_dir ~params:t.params t.dir in
  (match t.metrics with
  | Some (labels, metrics) -> attach_metrics t' ~labels metrics
  | None -> ());
  t'

(* Offline audit predictor ([mdbs recover], tests): the state the on-disk
   files alone promise, computed the flat way — manifest runs, WAL-suffix
   redo past the manifest's mark, loser undo from before-images — with
   none of [open_dir]'s memtable machinery. With WAL checkpointing the
   log holds only unresolved transactions plus the post-flush suffix, so
   "replay(WAL) over manifest" is the auditable invariant, not
   "replay(WAL)" alone. *)
let predicted_items dir =
  let records, _ = Group_wal.read_file (wal_path dir) in
  let levels = Levels.open_ dir in
  let base = Levels.wal_records levels in
  let state = ref (Levels.state levels) in
  Levels.close levels;
  List.iteri
    (fun i r ->
      if i >= base then
        match r with
        | Group_wal.Load (item, v) | Group_wal.Write (_, item, _, v) ->
            state := Levels.ItemMap.add item (Memtable.Value v) !state
        | Group_wal.Begin _ | Group_wal.Prepared _ | Group_wal.Committed _
        | Group_wal.Aborted _ -> ())
    records;
  let analysis = Group_wal.analyze records in
  Iset.iter
    (fun tid ->
      List.iter
        (fun r ->
          match r with
          | Group_wal.Write (owner, item, before, _) when owner = tid ->
              state := Levels.ItemMap.add item (Memtable.Value before) !state
          | _ -> ())
        (List.rev records))
    analysis.Group_wal.losers;
  Levels.ItemMap.fold
    (fun item e acc ->
      match e with
      | Memtable.Value v -> (item, v) :: acc
      | Memtable.Tombstone -> acc)
    !state []
  |> List.rev

type stats = {
  flushes : int;
  compactions : int;
  cache_hits : int;
  cache_misses : int;
  fsyncs : int;
  wal_records_total : int;
  wal_rotations : int;
  bytes_durable : int;
  l0_runs : int;
  l1_runs : int;
  memtable : int;
}

let stats t =
  let l0, l1 = Levels.runs t.levels in
  {
    flushes = Levels.flushes t.levels;
    compactions = Levels.compactions t.levels;
    cache_hits = Block_cache.hits (Levels.cache t.levels);
    cache_misses = Block_cache.misses (Levels.cache t.levels);
    fsyncs = Group_wal.fsyncs t.wal;
    wal_records_total = Group_wal.total_appended t.wal;
    wal_rotations = Group_wal.rotations t.wal;
    bytes_durable = Group_wal.durable_bytes t.wal;
    l0_runs = l0;
    l1_runs = l1;
    memtable = Memtable.length t.mem;
  }
