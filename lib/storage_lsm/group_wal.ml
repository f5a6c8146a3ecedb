open Mdbs_model
module Crc32 = Mdbs_util.Crc32
module Iset = Mdbs_util.Iset
module Metrics = Mdbs_obs.Metrics
module Stats = Mdbs_util.Stats

type record =
  | Load of Item.t * int
  | Begin of Types.tid
  | Write of Types.tid * Item.t * int * int
  | Prepared of Types.tid
  | Committed of Types.tid
  | Aborted of Types.tid

let is_commit_point = function
  | Prepared _ | Committed _ | Aborted _ -> true
  | Load _ | Begin _ | Write _ -> false

(* --- record framing ---------------------------------------------------- *)
(* [len:u32][payload][crc32(payload):u32]; payload = tag byte + fields. *)

let encode_payload buf = function
  | Load (item, v) ->
      Buffer.add_char buf '\000';
      Codec.add_item buf item;
      Codec.add_i64 buf v
  | Begin tid ->
      Buffer.add_char buf '\001';
      Codec.add_i64 buf tid
  | Write (tid, item, before, after) ->
      Buffer.add_char buf '\002';
      Codec.add_i64 buf tid;
      Codec.add_item buf item;
      Codec.add_i64 buf before;
      Codec.add_i64 buf after
  | Prepared tid ->
      Buffer.add_char buf '\003';
      Codec.add_i64 buf tid
  | Committed tid ->
      Buffer.add_char buf '\004';
      Codec.add_i64 buf tid
  | Aborted tid ->
      Buffer.add_char buf '\005';
      Codec.add_i64 buf tid

let encode buf r =
  let payload = Buffer.create 40 in
  encode_payload payload r;
  let p = Buffer.to_bytes payload in
  Codec.add_u32 buf (Bytes.length p);
  Buffer.add_bytes buf p;
  Codec.add_u32 buf (Crc32.digest_bytes p 0 (Bytes.length p))

let decode_payload b off len =
  let item_at o = Codec.get_item b o in
  let i64 o = Codec.get_i64 b o in
  match Char.code (Bytes.get b off) with
  | 0 when len = 18 -> Load (item_at (off + 1), i64 (off + 10))
  | 1 when len = 9 -> Begin (i64 (off + 1))
  | 2 when len = 34 ->
      Write (i64 (off + 1), item_at (off + 9), i64 (off + 18), i64 (off + 26))
  | 3 when len = 9 -> Prepared (i64 (off + 1))
  | 4 when len = 9 -> Committed (i64 (off + 1))
  | 5 when len = 9 -> Aborted (i64 (off + 1))
  | _ -> failwith "Group_wal: bad record payload"

(* Decode a whole log image. Stops at the first bad frame — a torn tail
   from a crash mid-write — and reports how many bytes were clean, so the
   writer can truncate before appending. *)
let decode_all b =
  let total = Bytes.length b in
  let records = ref [] in
  let off = ref 0 in
  let clean = ref 0 in
  (try
     while !off + 8 <= total do
       let len = Codec.get_u32 b !off in
       if len <= 0 || !off + 4 + len + 4 > total then raise Exit;
       let crc = Codec.get_u32 b (!off + 4 + len) in
       if Crc32.digest_bytes b (!off + 4) len <> crc then raise Exit;
       records := decode_payload b (!off + 4) len :: !records;
       off := !off + 4 + len + 4;
       clean := !off
     done
   with Exit | Failure _ -> ());
  (List.rev !records, !clean)

let read_file path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let b = Bytes.create len in
    really_input ic b 0 len;
    close_in ic;
    decode_all b
  end

(* --- the log ----------------------------------------------------------- *)

type t = {
  path : string;
  mutable fd : Unix.file_descr;
  buf : Buffer.t; (* encoded records not yet written/fsynced *)
  mutable appended : int; (* records in the current log, incl. buffered *)
  mutable total : int; (* records ever appended, across rotations *)
  mutable pending_commit_points : int;
  mutable synced_bytes : int;
  mutable fsyncs : int;
  mutable rotations : int;
  live : (Types.tid, (int * record) list ref) Hashtbl.t;
      (* per unresolved transaction: its records (newest first), each
         tagged with its position in the current log — exactly what a
         checkpoint must carry forward. *)
  mutable h_batch : Stats.histogram;
  mutable h_fsync : Stats.histogram;
  mutable timed : bool;
}

(* Maintain the unresolved-transaction record set as the log grows. A
   [Load] is pure state — once a flush folds it into a run it is never
   needed again, so it is not retained. *)
let track_live t seq r =
  match r with
  | Load _ -> ()
  | Begin tid | Write (tid, _, _, _) | Prepared tid -> (
      match Hashtbl.find_opt t.live tid with
      | Some l -> l := (seq, r) :: !l
      | None -> Hashtbl.replace t.live tid (ref [ (seq, r) ]))
  | Committed tid | Aborted tid -> Hashtbl.remove t.live tid

let ms_bounds =
  [| 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.; 2.5; 5.; 10.; 25.; 50. |]

let batch_bounds = [| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]

let open_ path =
  (* A crash between writing and renaming a checkpoint leaves a stray
     tmp; the real log is authoritative. *)
  (try Sys.remove (path ^ ".tmp") with Sys_error _ -> ());
  let records, clean = read_file path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd clean;
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let t =
    {
      path;
      fd;
      buf = Buffer.create 4096;
      appended = List.length records;
      total = List.length records;
      pending_commit_points = 0;
      synced_bytes = clean;
      fsyncs = 0;
      rotations = 0;
      live = Hashtbl.create 16;
      h_batch = Metrics.histogram Metrics.null "lsm_fsync_batch_size";
      h_fsync = Metrics.histogram Metrics.null "lsm_fsync_ms";
      timed = false;
    }
  in
  List.iteri (track_live t) records;
  (t, records)

let attach_metrics t ~labels metrics =
  t.h_batch <-
    Metrics.histogram metrics ~labels ~bounds:batch_bounds
      "lsm_fsync_batch_size";
  t.h_fsync <- Metrics.histogram metrics ~labels ~bounds:ms_bounds "lsm_fsync_ms";
  t.timed <- Metrics.enabled metrics

let append t r =
  encode t.buf r;
  track_live t t.appended r;
  t.appended <- t.appended + 1;
  t.total <- t.total + 1;
  if is_commit_point r then
    t.pending_commit_points <- t.pending_commit_points + 1

let sync t =
  if Buffer.length t.buf > 0 then begin
    let b = Buffer.to_bytes t.buf in
    Buffer.clear t.buf;
    Codec.write_fully t.fd b;
    let t0 = if t.timed then Unix.gettimeofday () else 0. in
    Unix.fsync t.fd;
    if t.timed then
      Metrics.observe t.h_fsync ((Unix.gettimeofday () -. t0) *. 1000.);
    t.fsyncs <- t.fsyncs + 1;
    if t.pending_commit_points > 0 then
      Metrics.observe t.h_batch (float_of_int t.pending_commit_points);
    t.pending_commit_points <- 0;
    t.synced_bytes <- t.synced_bytes + Bytes.length b
  end

let appended t = t.appended

let total_appended t = t.total

let durable_bytes t = t.synced_bytes

let fsyncs t = t.fsyncs

let rotations t = t.rotations

let live_count t = Hashtbl.fold (fun _ l acc -> acc + List.length !l) t.live 0

(* Checkpoint: rewrite the log to just the unresolved transactions'
   records, in their original order. Callers invoke this right after a
   manifest publish that covers every current record — so everything
   dropped here is reconstructible from the runs, and everything kept is
   exactly what loser-undo and in-doubt analysis still need. The swap is
   atomic (tmp + rename + directory fsync); a crash at any point leaves
   either the old log (longer, replay is idempotent past the manifest's
   high-water mark) or the new one. *)
let rotate t =
  sync t;
  let kept =
    List.sort
      (fun (a, _) (b, _) -> compare a b)
      (Hashtbl.fold (fun _ l acc -> !l @ acc) t.live [])
  in
  let out = Buffer.create 4096 in
  List.iter (fun (_, r) -> encode out r) kept;
  let b = Buffer.to_bytes out in
  let tmp = t.path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Codec.write_fully fd b;
  Unix.fsync fd;
  Unix.close fd;
  Unix.rename tmp t.path;
  let dfd = Unix.openfile (Filename.dirname t.path) [ Unix.O_RDONLY ] 0 in
  Unix.fsync dfd;
  Unix.close dfd;
  (* The old descriptor still names the replaced inode: reopen. *)
  Unix.close t.fd;
  let fd = Unix.openfile t.path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  t.fd <- fd;
  t.appended <- List.length kept;
  t.synced_bytes <- t.synced_bytes + Bytes.length b;
  t.rotations <- t.rotations + 1;
  (* Renumber the kept records to their positions in the new log. *)
  Hashtbl.reset t.live;
  List.iteri (fun i (_, r) -> track_live t i r) kept

(* Simulate losing the unsynced group-commit window (power loss, not a
   clean restart): the buffered records never reach disk. The in-memory
   bookkeeping ([appended], [live]) is intentionally not rolled back —
   this is only sound immediately before discarding [t] for a reopen,
   which rebuilds both from the durable file. *)
let discard_pending t =
  Buffer.clear t.buf;
  t.pending_commit_points <- 0

let close t =
  sync t;
  Unix.close t.fd

(* --- recovery analysis -------------------------------------------------- *)
(* Mirrors the logical WAL's analyze (lib/site/wal.ml): both run the same
   redo-undo doctrine over the same record stream, one in memory and one
   from disk. *)

type analysis = {
  committed : Iset.t;
  aborted : Iset.t;
  in_doubt : Iset.t;
  losers : Iset.t;
}

let analyze records =
  let begun = ref Iset.empty in
  let committed = ref Iset.empty in
  let aborted = ref Iset.empty in
  let prepared = ref Iset.empty in
  List.iter
    (fun r ->
      match r with
      | Load _ -> ()
      | Begin tid -> begun := Iset.add tid !begun
      | Write (tid, _, _, _) -> begun := Iset.add tid !begun
      | Prepared tid -> prepared := Iset.add tid !prepared
      | Committed tid -> committed := Iset.add tid !committed
      | Aborted tid -> aborted := Iset.add tid !aborted)
    records;
  let resolved = Iset.union !committed !aborted in
  let in_doubt = Iset.diff !prepared resolved in
  let losers = Iset.diff (Iset.diff !begun resolved) in_doubt in
  { committed = !committed; aborted = !aborted; in_doubt; losers }
