(* Tests of the persistent LSM storage engine: memtable flush boundary,
   SSTable CRC rejection, torn-tail WAL truncation, tombstone-dropping
   compaction, cache behavior, and the recovery property that the state
   predicted by replaying the on-disk WAL equals the recovered storage —
   plus a mem-vs-lsm differential over the chaos harness. *)

open Mdbs_model
module Lsm = Mdbs_storage_lsm.Lsm
module Memtable = Mdbs_storage_lsm.Memtable
module Sstable = Mdbs_storage_lsm.Sstable
module Group_wal = Mdbs_storage_lsm.Group_wal
module Local_dbms = Mdbs_site.Local_dbms
module Chaos = Mdbs_experiments.Chaos
module Workload = Mdbs_sim.Workload
module Des = Mdbs_sim.Des

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let key k = Item.Key k

(* Each test gets its own directory under the system temp dir; removed on
   success (failures leave the evidence behind). *)
let base_dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mdbs-test-lsm-%d" (Unix.getpid ()))

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir = Filename.concat base_dir (string_of_int !dir_counter) in
  Lsm.mkdir_p dir;
  dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let clean l = List.sort compare (List.filter (fun (_, v) -> v <> 0) l)

(* Small-everything tuning so a handful of writes exercises flush,
   compaction and the cache. *)
let tiny =
  {
    Lsm.memtable_entries = 4;
    block_entries = 4;
    l0_trigger = 2;
    run_entries = 16;
    cache_blocks = 4;
    wal_checkpoint_records = 64;
  }

(* --------------------------------------------------------------- memtable *)

let memtable_flush_boundary () =
  let dir = fresh_dir () in
  let t = Lsm.open_dir ~params:tiny dir in
  (* Three distinct items: strictly below the watermark, nothing flushes. *)
  Lsm.set t (key 0) 10;
  Lsm.set t (key 1) 11;
  Lsm.set t (key 1) 12 (* overwrite: still one distinct item *);
  Lsm.set t (key 2) 13;
  let st = Lsm.stats t in
  check_int "no flush below the watermark" 0 st.Lsm.flushes;
  check_int "memtable holds distinct items" 3 st.Lsm.memtable;
  (* The fourth distinct item crosses the watermark. *)
  Lsm.set t (key 3) 14;
  let st = Lsm.stats t in
  check_int "one flush at the watermark" 1 st.Lsm.flushes;
  check_int "memtable drained" 0 st.Lsm.memtable;
  check_int "one L0 run" 1 st.Lsm.l0_runs;
  (* Reads fall through to the run; the overwrite won. *)
  check_int "flushed value readable" 12 (Lsm.get t (key 1));
  Alcotest.(check (list (pair int int)))
    "items survive the flush"
    [ (0, 10); (1, 12); (2, 13); (3, 14) ]
    (List.map
       (fun (i, v) -> ((match i with Item.Key k -> k | Item.Ticket -> -1), v))
       (Lsm.items t));
  Lsm.close t;
  rm_rf dir

(* ---------------------------------------------------------------- sstable *)

let sstable_roundtrip () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "run.sst" in
  let entries =
    List.init 10 (fun i ->
        ( key (2 * i),
          if i = 7 then Memtable.Tombstone else Memtable.Value (100 + i) ))
  in
  Sstable.write ~path ~block_entries:4 entries;
  let t = Sstable.open_file ~id:1 path in
  check_int "entry count" 10 (Sstable.count t);
  check_int "blocks of four" 3 (Sstable.blocks t);
  check_bool "roundtrip" true (Sstable.read_all t = entries);
  (* Point lookups through the sparse index: every present key, plus
     misses inside and outside the key range. *)
  List.iter
    (fun (k, e) ->
      check_bool "find present" true
        (Sstable.find t ~block:Sstable.read_block k = Some e))
    entries;
  check_bool "miss between keys" true
    (Sstable.find t ~block:Sstable.read_block (key 3) = None);
  check_bool "miss past the end" true
    (Sstable.find t ~block:Sstable.read_block (key 99) = None);
  Sstable.close t;
  rm_rf dir

let sstable_corrupt_block_rejected () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "run.sst" in
  Sstable.write ~path ~block_entries:4
    (List.init 12 (fun i -> (key i, Memtable.Value i)));
  (* Flip one byte in the first data block: the footer and index still
     parse, but the block's CRC must reject the read. *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 6 Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  let t = Sstable.open_file ~id:1 path in
  check_bool "corrupt block raises" true
    (match Sstable.read_all t with
    | _ -> false
    | exception Sstable.Corrupt _ -> true);
  Sstable.close t;
  rm_rf dir

let sstable_corrupt_footer_rejected () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "run.sst" in
  Sstable.write ~path ~block_entries:4
    (List.init 8 (fun i -> (key i, Memtable.Value i)));
  (* Truncate mid-footer: the run must be rejected whole at open. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Unix.ftruncate fd (size - 4);
  Unix.close fd;
  check_bool "truncated footer raises at open" true
    (match Sstable.open_file ~id:1 path with
    | _ -> false
    | exception Sstable.Corrupt _ -> true);
  rm_rf dir

let sstable_corrupt_footer_field_rejected () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "run.sst" in
  Sstable.write ~path ~block_entries:4
    (List.init 8 (fun i -> (key i, Memtable.Value i)));
  (* Flip a byte inside the footer's min_key field: the magic and the
     index still parse, but the footer CRC must reject the file — a
     corrupted key range would otherwise silently misroute finds. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd (size - Sstable.footer_size + 25) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
  Unix.close fd;
  check_bool "corrupt footer field raises at open" true
    (match Sstable.open_file ~id:1 path with
    | _ -> false
    | exception Sstable.Corrupt _ -> true);
  rm_rf dir

(* -------------------------------------------------------------- group WAL *)

let wal_torn_tail_truncated () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal.log" in
  let t, existing = Group_wal.open_ path in
  check_int "fresh log" 0 (List.length existing);
  Group_wal.append t (Group_wal.Begin 1);
  Group_wal.append t (Group_wal.Write (1, key 0, 0, 5));
  Group_wal.append t (Group_wal.Committed 1);
  Group_wal.sync t;
  Group_wal.close t;
  (* A crash mid-append leaves a torn frame: simulate with trailing junk. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND ] 0 in
  ignore (Unix.write fd (Bytes.of_string "\x0c\x00\x00\x00torn") 0 8);
  Unix.close fd;
  let records, _clean_bytes = Group_wal.read_file path in
  check_int "only the clean prefix decodes" 3 (List.length records);
  (* Reopening truncates the tail and appends cleanly after it. *)
  let t, recovered = Group_wal.open_ path in
  check_int "recovered the clean prefix" 3 (List.length recovered);
  Group_wal.append t (Group_wal.Begin 2);
  Group_wal.append t (Group_wal.Committed 2);
  Group_wal.sync t;
  Group_wal.close t;
  let records, _ = Group_wal.read_file path in
  check_int "appended past the truncation" 5 (List.length records);
  check_bool "tail record intact" true
    (List.nth records 4 = Group_wal.Committed 2);
  rm_rf dir

(* A committed write/commit pair through the full Lsm API, so every
   storage effect has a matching WAL record. *)
let committed_write t tid kvs =
  Lsm.wal_append t (Group_wal.Begin tid);
  List.iter
    (fun (k, v) ->
      let item = key k in
      let before = Lsm.get t item in
      Lsm.wal_append t (Group_wal.Write (tid, item, before, v));
      Lsm.set t item v)
    kvs;
  Lsm.wal_append t (Group_wal.Committed tid);
  Lsm.wal_sync t

let disk_predicts_storage dir t =
  clean (Lsm.predicted_items dir) = clean (Lsm.items t)

let wal_checkpoint_bounds_log () =
  let dir = fresh_dir () in
  let t = ref (Lsm.open_dir ~params:tiny dir) in
  (* 50 committed transactions over a small keyspace: without
     checkpointing the log would retain all ~400 records; with it, each
     flush truncates to the unresolved set (empty here). *)
  for tid = 1 to 50 do
    committed_write !t tid (List.init 6 (fun k -> (k, tid)))
  done;
  let st = Lsm.stats !t in
  check_bool "flushes happened" true (st.Lsm.flushes > 1);
  check_bool "checkpoints happened" true (st.Lsm.wal_rotations > 1);
  check_bool "total record count is monotonic" true
    (st.Lsm.wal_records_total >= 50 * 8);
  let records, _ = Group_wal.read_file (Filename.concat dir "wal.log") in
  check_bool "log holds only the post-checkpoint suffix" true
    (List.length records < 100);
  check_bool "disk predicts storage" true (disk_predicts_storage dir !t);
  (* An unresolved transaction's records must survive checkpointing: a
     later crash still needs its before-images for undo. *)
  Lsm.wal_append !t (Group_wal.Begin 99);
  let before = Lsm.get !t (key 0) in
  Lsm.wal_append !t (Group_wal.Write (99, key 0, before, 12345));
  Lsm.set !t (key 0) 12345;
  (* Force at least one flush (and so a checkpoint) with 99 still open. *)
  List.iteri (fun i v -> committed_write !t (200 + i) [ (50 + i, v) ])
    [ 7; 7; 7; 7 ];
  let st2 = Lsm.stats !t in
  check_bool "checkpointed with a transaction open" true
    (st2.Lsm.wal_rotations > st.Lsm.wal_rotations);
  let records, _ = Group_wal.read_file (Filename.concat dir "wal.log") in
  check_bool "open transaction's records survive the checkpoint" true
    (List.exists
       (function Group_wal.Write (99, _, _, _) -> true | _ -> false)
       records);
  (* Crash: the loser is undone from its checkpointed before-image. *)
  t := Lsm.crash_reset !t;
  check_int "loser undone across the checkpoint" before
    (Lsm.get !t (key 0));
  check_bool "disk predicts storage after recovery" true
    (disk_predicts_storage dir !t);
  Lsm.close !t;
  rm_rf dir

let wal_bound_without_watermark () =
  let dir = fresh_dir () in
  (* A hot keyspace far smaller than the memtable: the watermark never
     trips, so only the group-commit-point bound can checkpoint the
     log. Without it the WAL would retain all ~1200 records. *)
  let params = { tiny with Lsm.memtable_entries = 64 } in
  let t = ref (Lsm.open_dir ~params dir) in
  let durable = ref 0 in
  for tid = 1 to 150 do
    committed_write !t tid (List.init 6 (fun k -> (k, tid)));
    (* A checkpoint shrinks the log file, never the durable-bytes count. *)
    check_bool "durable bytes never decrease" true
      (Lsm.durable_bytes !t >= !durable);
    durable := Lsm.durable_bytes !t
  done;
  let st = Lsm.stats !t in
  check_bool "bound trigger checkpointed" true (st.Lsm.wal_rotations > 1);
  check_bool "total record count is monotonic" true
    (st.Lsm.wal_records_total >= 150 * 8);
  let records, _ = Group_wal.read_file (Filename.concat dir "wal.log") in
  check_bool "log bounded below the checkpoint threshold + one batch" true
    (List.length records <= params.Lsm.wal_checkpoint_records + 8);
  check_bool "disk predicts storage" true (disk_predicts_storage dir !t);
  t := Lsm.crash_reset !t;
  check_int "hot key recovered" 150 (Lsm.get !t (key 0));
  check_bool "disk predicts storage after recovery" true
    (disk_predicts_storage dir !t);
  Lsm.close !t;
  rm_rf dir

(* One long-lived transaction whose records alone exceed the checkpoint
   bound: a checkpoint cannot drop them, so the trigger must wait for the
   reclaimable part of the log to reach the bound instead of rewriting
   the log at every group-commit sync. *)
let wal_checkpoint_no_storm () =
  let dir = fresh_dir () in
  let params =
    { tiny with Lsm.memtable_entries = 1024; wal_checkpoint_records = 8 }
  in
  let t = Lsm.open_dir ~params dir in
  Lsm.wal_append t (Group_wal.Begin 99);
  for k = 0 to 8 do
    Lsm.wal_append t (Group_wal.Write (99, key (100 + k), 0, 1));
    Lsm.set t (key (100 + k)) 1
  done;
  Lsm.wal_sync t;
  let before = (Lsm.stats t).Lsm.wal_rotations in
  let commits = 6 in
  for tid = 1 to commits do
    committed_write t tid [ (tid, tid) ]
  done;
  let rotations = (Lsm.stats t).Lsm.wal_rotations - before in
  check_bool "reclaimable records still trigger checkpoints" true
    (rotations > 0);
  check_bool "rotations do not grow with every sync" true
    (rotations < commits);
  let records, _ = Group_wal.read_file (Filename.concat dir "wal.log") in
  check_bool "open transaction's records survive" true
    (List.length
       (List.filter
          (function Group_wal.Write (99, _, _, _) -> true | _ -> false)
          records)
    = 9);
  Lsm.close t;
  rm_rf dir

let lossy_crash_loses_only_unacked () =
  let dir = fresh_dir () in
  let t = ref (Lsm.open_dir ~params:tiny dir) in
  (* Acked: committed and group-commit-synced. *)
  committed_write !t 1 [ (0, 5) ];
  (* Unacked: committed in memory, but the crash lands before the fsync
     that would precede any acknowledgment. *)
  Lsm.wal_append !t (Group_wal.Begin 2);
  Lsm.wal_append !t (Group_wal.Write (2, key 0, 5, 9));
  Lsm.set !t (key 0) 9;
  Lsm.wal_append !t (Group_wal.Write (2, key 1, 0, 7));
  Lsm.set !t (key 1) 7;
  Lsm.wal_append !t (Group_wal.Committed 2);
  t := Lsm.crash_reset ~lossy:true !t;
  check_int "acked commit survives" 5 (Lsm.get !t (key 0));
  check_int "unacked commit vanishes whole" 0 (Lsm.get !t (key 1));
  check_bool "disk predicts storage" true (disk_predicts_storage dir !t);
  let records, _ = Group_wal.read_file (Filename.concat dir "wal.log") in
  check_bool "lost suffix absent from the log" true
    (not
       (List.exists
          (function
            | Group_wal.Begin 2 | Group_wal.Committed 2 -> true | _ -> false)
          records));
  Lsm.close !t;
  rm_rf dir

let wal_group_commit_batches () =
  let dir = fresh_dir () in
  let t, _ = Group_wal.open_ (Filename.concat dir "wal.log") in
  (* Three transactions' commit points under one sync: one fsync. *)
  List.iter
    (fun tid ->
      Group_wal.append t (Group_wal.Begin tid);
      Group_wal.append t (Group_wal.Write (tid, key tid, 0, tid));
      Group_wal.append t (Group_wal.Committed tid))
    [ 1; 2; 3 ];
  check_int "nothing durable before sync" 0 (Group_wal.durable_bytes t);
  Group_wal.sync t;
  check_int "one fsync for the batch" 1 (Group_wal.fsyncs t);
  check_bool "bytes durable after sync" true (Group_wal.durable_bytes t > 0);
  Group_wal.sync t;
  check_int "empty sync is a no-op" 1 (Group_wal.fsyncs t);
  Group_wal.close t;
  rm_rf dir

(* ------------------------------------------------------------- compaction *)

let compaction_drops_tombstones () =
  let dir = fresh_dir () in
  let t = Lsm.open_dir ~params:tiny dir in
  List.init 4 (fun i -> i) |> List.iter (fun i -> Lsm.set t (key i) (i + 1));
  let st = Lsm.stats t in
  check_int "first flush" 1 st.Lsm.flushes;
  (* Delete one flushed key, then fill to the watermark again: the second
     flush reaches the L0 trigger and compacts both runs into L1. *)
  Lsm.delete t (key 1);
  Lsm.set t (key 10) 11;
  Lsm.set t (key 11) 12;
  Lsm.set t (key 12) 13;
  let st = Lsm.stats t in
  check_int "second flush" 2 st.Lsm.flushes;
  check_int "compacted at the trigger" 1 st.Lsm.compactions;
  check_int "L0 empty after compaction" 0 st.Lsm.l0_runs;
  check_bool "L1 populated" true (st.Lsm.l1_runs >= 1);
  check_int "deleted key reads as unwritten" 0 (Lsm.get t (key 1));
  let want = [ (key 0, 1); (key 2, 3); (key 3, 4);
               (key 10, 11); (key 11, 12); (key 12, 13) ] in
  check_bool "tombstone and its victim both gone" true
    (clean (Lsm.items t) = clean want);
  (* The dropped tombstone must stay dropped across a reopen: the merged
     run is the bottom level, nothing older can resurface. *)
  Lsm.close t;
  let t = Lsm.open_dir ~params:tiny dir in
  check_bool "state identical after reopen" true
    (clean (Lsm.items t) = clean want);
  check_int "deleted key still unwritten" 0 (Lsm.get t (key 1));
  Lsm.close t;
  rm_rf dir

let cache_heats_on_reread () =
  let dir = fresh_dir () in
  let t = Lsm.open_dir ~params:tiny dir in
  List.init 8 (fun i -> i) |> List.iter (fun i -> Lsm.set t (key i) (i + 1));
  let st = Lsm.stats t in
  check_bool "flushed to disk" true (st.Lsm.flushes >= 1);
  (* First read of a flushed block misses; rereads hit. *)
  List.init 8 (fun i -> i) |> List.iter (fun i -> ignore (Lsm.get t (key i)));
  let st1 = Lsm.stats t in
  check_bool "cold reads missed" true (st1.Lsm.cache_misses > 0);
  List.init 8 (fun i -> i) |> List.iter (fun i -> ignore (Lsm.get t (key i)));
  let st2 = Lsm.stats t in
  check_bool "hot rereads hit" true (st2.Lsm.cache_hits > st1.Lsm.cache_hits);
  check_int "no extra misses when hot" st1.Lsm.cache_misses
    st2.Lsm.cache_misses;
  Lsm.close t;
  rm_rf dir

(* ----------------------------------------------- recovery (QCheck property)

   Random schedules of committed transactions, crashes (clean and lossy)
   and clean reopens, with an optional dangling loser right before each
   crash. Two invariants after every recovery and at the end:
   - the store equals the model (committed-and-durable effects only; every
     commit here syncs, so a lossy crash can only lose the dangling loser);
   - the on-disk files alone — manifest runs, WAL suffix, loser undo —
     predict exactly the live storage ([mdbs recover]'s audit, across
     arbitrary interleavings of flushes and WAL checkpoints). *)

type sched_op =
  | Txn of (int * int) list  (* committed: (key, value) writes *)
  | Crash of (int * int) list  (* loser writes left dangling, then crash *)
  | Lossy of (int * int) list
      (* loser writes, then a power-failure crash that drops the unsynced
         group-commit window *)
  | Reopen  (* clean close + open *)

let sched_gen =
  let open QCheck.Gen in
  let writes = list_size (int_range 1 3) (pair (int_range 0 7) (int_range 0 9)) in
  list_size (int_range 1 14)
    (frequency
       [ (6, map (fun w -> Txn w) writes);
         (2, map (fun w -> Crash w) writes);
         (2, map (fun w -> Lossy w) writes);
         (1, return Reopen) ])

let sched_print ops =
  String.concat ";"
    (List.map
       (function
         | Txn w ->
             "C:" ^ String.concat ","
                      (List.map (fun (k, v) -> Printf.sprintf "x%d=%d" k v) w)
         | Crash w ->
             "X:" ^ String.concat ","
                      (List.map (fun (k, v) -> Printf.sprintf "x%d=%d" k v) w)
         | Lossy w ->
             "L:" ^ String.concat ","
                      (List.map (fun (k, v) -> Printf.sprintf "x%d=%d" k v) w)
         | Reopen -> "R")
       ops)

let replay_property =
  QCheck.Test.make ~name:"replay(WAL) over manifest equals recovered storage"
    ~count:60
    (QCheck.make ~print:sched_print sched_gen)
    (fun ops ->
      let dir = fresh_dir () in
      let t = ref (Lsm.open_dir ~params:tiny dir) in
      let model = Hashtbl.create 8 in
      let next_tid = ref 0 in
      let write tid (k, v) =
        let item = key k in
        let before = Lsm.get !t item in
        Lsm.wal_append !t (Group_wal.Write (tid, item, before, v));
        Lsm.set !t item v
      in
      let model_items () =
        Hashtbl.fold (fun k v acc -> (key k, v) :: acc) model []
      in
      let consistent () =
        clean (Lsm.items !t) = clean (model_items ())
        && disk_predicts_storage dir !t
      in
      let ok = ref true in
      List.iter
        (fun op ->
          incr next_tid;
          let tid = !next_tid in
          match op with
          | Txn writes ->
              Lsm.wal_append !t (Group_wal.Begin tid);
              List.iter (write tid) writes;
              Lsm.wal_append !t (Group_wal.Committed tid);
              Lsm.wal_sync !t;
              List.iter (fun (k, v) -> Hashtbl.replace model k v) writes
          | Crash writes ->
              (* The loser's writes reach the store and the WAL but never a
                 commit record: recovery must undo them. *)
              Lsm.wal_append !t (Group_wal.Begin tid);
              List.iter (write tid) writes;
              t := Lsm.crash_reset !t;
              ok := !ok && consistent ()
          | Lossy writes ->
              (* Same dangling loser, but the unsynced tail of the log dies
                 with the power: whatever a mid-transaction flush made
                 durable is undone as a loser, the rest never existed. All
                 commits synced, so the model is untouched either way. *)
              Lsm.wal_append !t (Group_wal.Begin tid);
              List.iter (write tid) writes;
              t := Lsm.crash_reset ~lossy:true !t;
              ok := !ok && consistent ()
          | Reopen ->
              Lsm.close !t;
              t := Lsm.open_dir ~params:tiny dir;
              ok := !ok && consistent ())
        ops;
      Lsm.wal_sync !t;
      ok := !ok && consistent ();
      Lsm.close !t;
      rm_rf dir;
      !ok)

(* -------------------------------------------- backend dispatch equivalence *)

let exec site tid action =
  match Local_dbms.submit site tid action with
  | Local_dbms.Executed v -> v
  | Local_dbms.Waiting -> Alcotest.fail "unexpected wait"
  | Local_dbms.Aborted r -> Alcotest.failf "unexpected abort: %s" r

let lsm_site_crash_recovers () =
  let dir = fresh_dir () in
  let site = Local_dbms.create ~backend:(`Lsm dir) ~lsm_params:tiny 0 in
  check_bool "lsm backend reports itself" true
    (Local_dbms.backend_name site = "lsm");
  Local_dbms.load site [ (key 0, 100) ];
  ignore (exec site 1 Op.Begin);
  ignore (exec site 1 (Op.Write (key 0, -40)));
  ignore (exec site 1 Op.Commit);
  Local_dbms.sync_durable site;
  check_bool "commit made bytes durable" true (Local_dbms.durable_bytes site > 0);
  (* An in-flight loser dies with the crash. *)
  ignore (exec site 2 Op.Begin);
  ignore (exec site 2 (Op.Write (key 0, 999)));
  ignore (exec site 2 (Op.Write (key 1, 7)));
  Local_dbms.crash site;
  check_int "committed survived" 60 (Local_dbms.storage_value site (key 0));
  check_int "loser undone" 0 (Local_dbms.storage_value site (key 1));
  (* The logical WAL and the on-disk storage agree after recovery. *)
  (match Local_dbms.wal_state site with
  | Some predicted ->
      check_bool "WAL predicts storage" true
        (clean predicted = clean (Local_dbms.storage_items site))
  | None -> Alcotest.fail "lsm site is durable");
  (* Post-crash work lands in the recovered store. *)
  ignore (exec site 3 Op.Begin);
  ignore (exec site 3 (Op.Write (key 0, 1)));
  ignore (exec site 3 Op.Commit);
  check_int "post-crash work" 61 (Local_dbms.storage_value site (key 0));
  Local_dbms.close site;
  (* A whole-process restart sees the same state: reopen from disk. *)
  let t = Lsm.open_dir ~params:tiny dir in
  check_int "state survives process exit" 61 (Lsm.get t (key 0));
  Lsm.close t;
  rm_rf dir

(* The chaos differential: same fault plan, same seed, one run on the mem
   backend and one on the lsm backend. The discrete-event simulation is
   deterministic, and storage is below the scheduler's visibility, so the
   entire result record — commits, aborts, retries, simulated makespan,
   serializability — must be identical, and both must pass all checks. *)
let chaos_mem_lsm_differential () =
  let root = fresh_dir () in
  let mix =
    match Mdbs_sim.Fault.parse_mix "crash=1,drop=0.05,dup=0.03" with
    | Ok mix -> mix
    | Error msg -> Alcotest.failf "bad mix: %s" msg
  in
  let base =
    {
      Chaos.base_config with
      Des.workload =
        { Chaos.base_config.Des.workload with Workload.lsm_params = Some tiny };
    }
  in
  List.iter
    (fun seed ->
      let mem = Chaos.run_one ~base ~mix ~seed Mdbs_core.Registry.S3 in
      let lsm =
        Chaos.run_one ~base ~data_dir:root ~mix ~seed Mdbs_core.Registry.S3
      in
      check_bool
        (Printf.sprintf "seed %d: mem checks pass" seed)
        true
        (Chaos.ok mem.Chaos.checks);
      check_bool
        (Printf.sprintf "seed %d: lsm checks pass" seed)
        true
        (Chaos.ok lsm.Chaos.checks);
      check_bool
        (Printf.sprintf "seed %d: identical results across backends" seed)
        true
        (mem.Chaos.result = lsm.Chaos.result))
    (List.init 13 (fun i -> 101 + (7 * i)));
  rm_rf root

let () =
  Alcotest.run "mdbs-lsm"
    [
      ( "memtable",
        [ Alcotest.test_case "flush-boundary" `Quick memtable_flush_boundary ] );
      ( "sstable",
        [
          Alcotest.test_case "roundtrip" `Quick sstable_roundtrip;
          Alcotest.test_case "corrupt-block" `Quick sstable_corrupt_block_rejected;
          Alcotest.test_case "corrupt-footer" `Quick sstable_corrupt_footer_rejected;
          Alcotest.test_case "corrupt-footer-field" `Quick
            sstable_corrupt_footer_field_rejected;
        ] );
      ( "wal",
        [
          Alcotest.test_case "torn-tail" `Quick wal_torn_tail_truncated;
          Alcotest.test_case "group-commit" `Quick wal_group_commit_batches;
          Alcotest.test_case "checkpoint" `Quick wal_checkpoint_bounds_log;
          Alcotest.test_case "checkpoint-no-storm" `Quick wal_checkpoint_no_storm;
          Alcotest.test_case "checkpoint-no-watermark" `Quick
            wal_bound_without_watermark;
          Alcotest.test_case "lossy-crash" `Quick lossy_crash_loses_only_unacked;
        ] );
      ( "compaction",
        [
          Alcotest.test_case "tombstones-dropped" `Quick compaction_drops_tombstones;
          Alcotest.test_case "cache-heat" `Quick cache_heats_on_reread;
        ] );
      ("recovery", [ QCheck_alcotest.to_alcotest replay_property ]);
      ( "backend",
        [
          Alcotest.test_case "site-crash-recovers" `Quick lsm_site_crash_recovers;
          Alcotest.test_case "chaos-differential" `Slow chaos_mem_lsm_differential;
        ] );
    ]
