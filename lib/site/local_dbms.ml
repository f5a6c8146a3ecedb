open Mdbs_model
module Protocol = Mdbs_lcc.Protocol
module Cc_types = Mdbs_lcc.Cc_types
module Obs = Mdbs_obs.Obs
module Sink = Mdbs_obs.Sink
module Metrics = Mdbs_obs.Metrics

type outcome = Executed of int option | Waiting | Aborted of string

type completion = { tid : Types.tid; action : Op.action; outcome : outcome }

type backend = [ `Mem | `Lsm of string ]

type t = {
  site : Types.sid;
  kind : Types.protocol_kind;
  backend : backend;
  mutable protocol : Protocol.t; (* volatile: replaced wholesale at crash *)
  mutable store : Storage.packed;
      (* mem: volatile cache over the log; lsm: persistent engine *)
  sched : Schedule.t; (* observer-side audit record, not site state *)
  pending : (Types.tid, Op.action) Hashtbl.t;
  buffered : (Types.tid, (Item.t * int) list ref) Hashtbl.t;
      (* deferred write effects of write-buffering protocols, oldest first *)
  active : (Types.tid, unit) Hashtbl.t;
  mutable completions : completion list; (* newest first *)
  wal : Wal.t option; (* stable storage, present when durable *)
  mutable in_doubt : Types.tid list;
  mutable obs : Obs.t;
  mutable tap : (Types.tid -> Op.action -> unit) option;
      (* streaming-certifier hook: sees every schedule entry as recorded *)
  mutable m_commits : Metrics.counter;
  mutable m_aborts : Metrics.counter;
  mutable m_wal : Metrics.counter;
}

(* Backend dispatch: each call unpacks the engine module once. The match
   lives here — everything below talks to [t.store] only through these. *)
let s_get (Storage.Packed ((module S), s)) item = S.get s item
let s_set (Storage.Packed ((module S), s)) item v = S.set s item v
let s_write_logged (Storage.Packed ((module S), s)) tid item v =
  S.write_logged s tid item v
let s_commit_txn (Storage.Packed ((module S), s)) tid = S.commit_txn s tid
let s_register_undo (Storage.Packed ((module S), s)) tid entries =
  S.register_undo s tid entries
let s_undo_log (Storage.Packed ((module S), s)) tid = S.undo_log s tid
let s_undo_txn (Storage.Packed ((module S), s)) tid = S.undo_txn s tid
let s_items (Storage.Packed ((module S), s)) = S.items s
let s_wal_append (Storage.Packed ((module S), s)) r = S.wal_append s r
let s_wal_sync (Storage.Packed ((module S), s)) = S.wal_sync s
let s_durable_bytes (Storage.Packed ((module S), s)) = S.durable_bytes s
let s_attach_metrics (Storage.Packed ((module S), s)) ~labels m =
  S.attach_metrics s ~labels m
let s_close (Storage.Packed ((module S), s)) = S.close s
let s_crash_reset (Storage.Packed ((module S), s)) ~predicted =
  Storage.Packed ((module S), S.crash_reset s ~predicted)

let make_store ?lsm_params backend =
  match backend with
  | `Mem ->
      Storage.Packed
        ((module Storage : Storage.S with type t = Storage.t), Storage.create ())
  | `Lsm dir ->
      Storage.Packed
        ( (module Backend_lsm : Storage.S with type t = Backend_lsm.t),
          Backend_lsm.open_dir ?params:lsm_params dir )

let create ?(protocol = Types.Two_phase_locking) ?(durable = false)
    ?(backend = `Mem) ?lsm_params site =
  (* A persistent backend without a WAL could not recover: the engine's
     redo log is fed by the logical one, so `Lsm implies durable. *)
  let durable = durable || match backend with `Lsm _ -> true | `Mem -> false in
  {
    site;
    kind = protocol;
    backend;
    protocol = Protocol.create protocol;
    store = make_store ?lsm_params backend;
    sched = Schedule.create site;
    pending = Hashtbl.create 16;
    buffered = Hashtbl.create 16;
    active = Hashtbl.create 16;
    completions = [];
    wal = (if durable then Some (Wal.create ()) else None);
    in_doubt = [];
    obs = Obs.disabled;
    tap = None;
    m_commits = Metrics.counter Metrics.null "local_commits_total";
    m_aborts = Metrics.counter Metrics.null "local_aborts_total";
    m_wal = Metrics.counter Metrics.null "wal_records_total";
  }

let attach_obs t obs =
  let labels = [ ("site", string_of_int t.site) ] in
  t.obs <- obs;
  t.m_commits <- Metrics.counter obs.Obs.metrics ~labels "local_commits_total";
  t.m_aborts <- Metrics.counter obs.Obs.metrics ~labels "local_aborts_total";
  t.m_wal <- Metrics.counter obs.Obs.metrics ~labels "wal_records_total";
  s_attach_metrics t.store ~labels obs.Obs.metrics

let set_op_tap t f = t.tap <- Some f

(* Every local-schedule entry flows through here, so the streaming
   certifier sees exactly the op sequence the batch trace will carry —
   including crash-compensation aborts. *)
let record t tid action =
  Schedule.record t.sched tid action;
  match t.tap with None -> () | Some f -> f tid action

(* Append to both logs: the logical WAL (analysis, predicted state) and
   the backend's durable one (a no-op for mem). The streams are identical
   by construction — that is what makes mem-vs-lsm recovery equivalent. *)
let append_wal t wal record =
  Wal.append wal record;
  s_wal_append t.store record

let log t record =
  match t.wal with
  | Some wal ->
      append_wal t wal record;
      Metrics.inc t.m_wal
  | None -> ()

let site_id t = t.site

let protocol_kind t = Protocol.kind t.protocol

let serialization_point t = Protocol.serialization_point t.protocol

(* Every data effect follows its WAL record (standard log-before-data):
   a persistent backend may flush mid-effect, and the run it publishes
   must never contain state the durable log cannot explain. *)
let load t pairs =
  List.iter
    (fun (item, v) ->
      log t (Wal.Load (item, v));
      s_set t.store item v)
    pairs

let schedule t = t.sched

let storage_value t item = s_get t.store item

let active_count t = Hashtbl.length t.active

let has_pending t tid = Hashtbl.mem t.pending tid

let buffer_write t tid item delta =
  match Hashtbl.find_opt t.buffered tid with
  | Some writes -> writes := !writes @ [ (item, delta) ]
  | None -> Hashtbl.replace t.buffered tid (ref [ (item, delta) ])

let declare t tid accesses = Protocol.declare t.protocol tid accesses

let needs_declarations t = Protocol.needs_declarations t.protocol

(* Apply the storage effect of a granted data action and record it in the
   local schedule. Write-buffering protocols (OCC) defer write installation —
   and its schedule entry, which fixes the conflict order — to commit. *)
let apply_granted t tid action =
  match action with
  | Op.Begin ->
      (* A blocked conservative-2PL begin that just obtained its locks. *)
      log t (Wal.Begin tid);
      record t tid Op.Begin;
      Executed None
  | Op.Read item ->
      record t tid action;
      Executed (Some (s_get t.store item))
  | Op.Write (item, delta) ->
      if Protocol.buffers_writes t.protocol then begin
        buffer_write t tid item delta;
        Executed None
      end
      else begin
        let before = s_get t.store item in
        log t (Wal.Write (tid, item, before, before + delta));
        s_write_logged t.store tid item (before + delta);
        record t tid action;
        Executed None
      end
  | Op.Ticket_op ->
      let v = s_get t.store Item.Ticket in
      if Protocol.buffers_writes t.protocol then buffer_write t tid Item.Ticket 1
      else begin
        log t (Wal.Write (tid, Item.Ticket, v, v + 1));
        s_write_logged t.store tid Item.Ticket (v + 1)
      end;
      record t tid action;
      Executed (Some v)
  | Op.Prepare | Op.Commit | Op.Abort ->
      invalid_arg "Local_dbms.apply_granted: control action"

let process_unblocked t unblocked =
  List.iter
    (fun utid ->
      match Hashtbl.find_opt t.pending utid with
      | None -> ()
      | Some action ->
          Hashtbl.remove t.pending utid;
          let outcome = apply_granted t utid action in
          t.completions <- { tid = utid; action; outcome } :: t.completions)
    unblocked

let forget t tid =
  Hashtbl.remove t.pending tid;
  Hashtbl.remove t.buffered tid;
  Hashtbl.remove t.active tid;
  if t.in_doubt <> [] then t.in_doubt <- List.filter (fun d -> d <> tid) t.in_doubt

let do_abort t tid reason =
  let unblocked = Protocol.abort t.protocol tid in
  Metrics.inc t.m_aborts;
  (* Log the undo as compensation writes so recovery is pure redo for
     everything except crash-time losers. *)
  (match t.wal with
  | None -> ()
  | Some wal ->
      let undo = s_undo_log t.store tid in
      let current = Hashtbl.create 4 in
      List.iter
        (fun (item, before) ->
          let now =
            match Hashtbl.find_opt current item with
            | Some v -> v
            | None -> s_get t.store item
          in
          append_wal t wal (Wal.Write (tid, item, now, before));
          Hashtbl.replace current item before)
        undo;
      append_wal t wal (Wal.Aborted tid);
      Metrics.inc ~by:(List.length undo + 1) t.m_wal);
  s_undo_txn t.store tid;
  forget t tid;
  record t tid Op.Abort;
  process_unblocked t unblocked;
  Aborted reason

let install_buffered t tid =
  match Hashtbl.find_opt t.buffered tid with
  | None -> ()
  | Some writes ->
      List.iter
        (fun (item, delta) ->
          let before = s_get t.store item in
          log t (Wal.Write (tid, item, before, before + delta));
          s_set t.store item (before + delta);
          (* Ticket entries were already recorded at access time. *)
          if not (Item.equal item Item.Ticket) then
            record t tid (Op.Write (item, delta)))
        !writes;
      Hashtbl.remove t.buffered tid

let submit t tid action =
  if action <> Op.Abort && Hashtbl.mem t.pending tid then
    invalid_arg "Local_dbms.submit: transaction has an operation in flight";
  match action with
  | Op.Begin -> (
      Hashtbl.replace t.active tid ();
      match Protocol.begin_txn t.protocol tid with
      | Cc_types.Granted ->
          log t (Wal.Begin tid);
          record t tid Op.Begin;
          Executed None
      | Cc_types.Blocked ->
          (* Conservative 2PL: the declared lock set is partly held by
             others; the begin completes when they release. *)
          Hashtbl.replace t.pending tid Op.Begin;
          Waiting
      | Cc_types.Rejected reason -> do_abort t tid reason)
  | Op.Abort -> do_abort t tid "requested"
  | Op.Prepare -> (
      match Protocol.prepare t.protocol tid with
      | Cc_types.Granted ->
          (* Validation done: install buffered writes tentatively (undo
             log kept) so that a later global abort can roll them back,
             while the local commit cannot fail anymore. *)
          (match Hashtbl.find_opt t.buffered tid with
          | None -> ()
          | Some writes ->
              List.iter
                (fun (item, delta) ->
                  let before = s_get t.store item in
                  log t (Wal.Write (tid, item, before, before + delta));
                  s_write_logged t.store tid item (before + delta);
                  if not (Item.equal item Item.Ticket) then
                    record t tid (Op.Write (item, delta)))
                !writes;
              Hashtbl.remove t.buffered tid);
          log t (Wal.Prepared tid);
          Executed None
      | Cc_types.Rejected reason -> do_abort t tid reason
      | Cc_types.Blocked -> invalid_arg "Local_dbms.submit: prepare blocked")
  | Op.Commit -> (
      let result, unblocked = Protocol.commit t.protocol tid in
      match result with
      | Cc_types.Granted ->
          install_buffered t tid;
          s_commit_txn t.store tid;
          forget t tid;
          log t (Wal.Committed tid);
          Metrics.inc t.m_commits;
          record t tid Op.Commit;
          process_unblocked t unblocked;
          Executed None
      | Cc_types.Rejected reason ->
          process_unblocked t unblocked;
          do_abort t tid reason
      | Cc_types.Blocked -> invalid_arg "Local_dbms.submit: commit blocked")
  | Op.Read _ | Op.Write _ | Op.Ticket_op -> (
      let item =
        match Op.action_item action with Some i -> i | None -> assert false
      in
      let mode =
        match Cc_types.mode_of_action action with
        | Some m -> m
        | None -> assert false
      in
      match Protocol.access t.protocol tid item mode with
      | Cc_types.Granted -> apply_granted t tid action
      | Cc_types.Blocked ->
          Hashtbl.replace t.pending tid action;
          Waiting
      | Cc_types.Rejected reason -> do_abort t tid reason)

(* --- crash and recovery ------------------------------------------------ *)

let in_doubt t = t.in_doubt

let is_durable t = t.wal <> None

let crash t =
  match t.wal with
  | None -> invalid_arg "Local_dbms.crash: site is not durable"
  | Some wal ->
      let analysis = Wal.analyze wal in
      (* Every volatile transaction dies with the site; in-doubt ones
         survive in the log. Record the deaths for the audit. *)
      Hashtbl.iter
        (fun tid () ->
          if not (Mdbs_util.Iset.mem tid analysis.Wal.in_doubt) then
            record t tid Op.Abort)
        t.active;
      (* Roll the losers back in the log itself: compensation writes plus
         an abort record, as do_abort does. The log stays pure redo (plus
         current losers), so a second crash — or an end-of-run state check
         — never re-undoes these transactions over later writes. *)
      Mdbs_util.Iset.iter
        (fun tid ->
          let undo = Wal.undo_entries wal tid in
          let current = Hashtbl.create 4 in
          List.iter
            (fun (item, before) ->
              let now =
                match Hashtbl.find_opt current item with
                | Some v -> v
                | None -> s_get t.store item
              in
              append_wal t wal (Wal.Write (tid, item, now, before));
              Hashtbl.replace current item before)
            undo;
          append_wal t wal (Wal.Aborted tid);
          Metrics.inc ~by:(List.length undo + 1) t.m_wal)
        analysis.Wal.losers;
      if Sink.enabled t.obs.Obs.sink then
        Sink.instant t.obs.Obs.sink
          ~track:(Sink.site_track t.obs.Obs.sink t.site)
          ~attrs:
            [
              ( "in_doubt",
                string_of_int (Mdbs_util.Iset.cardinal analysis.Wal.in_doubt) );
              ( "losers",
                string_of_int (Mdbs_util.Iset.cardinal analysis.Wal.losers) );
            ]
          "site.crash";
      Hashtbl.reset t.pending;
      Hashtbl.reset t.buffered;
      Hashtbl.reset t.active;
      t.completions <- [];
      (* Rebuild volatile state from stable storage. The mem backend
         reloads the logical WAL's redo-undo result; the lsm backend
         recovers from its own manifest + on-disk WAL — the compensation
         records just appended are synced down with it, so both arrive at
         the same state. *)
      t.protocol <- Protocol.create t.kind;
      t.store <- s_crash_reset t.store ~predicted:(Wal.recovered_state wal);
      t.in_doubt <- Mdbs_util.Iset.to_list analysis.Wal.in_doubt;
      (* Re-install the in-doubt transactions: re-acquire write access (locks
         for the locking protocols, a fresh validated record for OCC) and
         make them abortable by registering their before-images. *)
      List.iter
        (fun tid ->
          ignore (Protocol.begin_txn t.protocol tid);
          List.iter
            (fun item ->
              match Protocol.access t.protocol tid item Cc_types.Write_mode with
              | Cc_types.Granted -> ()
              | Cc_types.Blocked | Cc_types.Rejected _ ->
                  invalid_arg "Local_dbms.crash: in-doubt relock failed")
            (Wal.written_items wal tid);
          ignore (Protocol.prepare t.protocol tid);
          Hashtbl.replace t.active tid ();
          s_register_undo t.store tid (Wal.undo_entries wal tid))
        t.in_doubt

let wal_length t = match t.wal with Some wal -> Wal.length wal | None -> 0

let sync_durable t = s_wal_sync t.store

let durable_bytes t = s_durable_bytes t.store

let backend_name t = match t.backend with `Mem -> "mem" | `Lsm _ -> "lsm"

let close t =
  sync_durable t;
  s_close t.store

let is_active t tid = Hashtbl.mem t.active tid

let wal_state t =
  match t.wal with Some wal -> Some (Wal.recovered_state wal) | None -> None

let storage_items t = s_items t.store

let drain_completions t =
  let done_list = List.rev t.completions in
  t.completions <- [];
  done_list
