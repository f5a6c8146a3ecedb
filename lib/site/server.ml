open Mdbs_model

type answer = Done | Blocked | Refused of string

type reply = { answer : answer; value : int option; known : bool }

type progress = Ready | Parked | Committed | Aborted of string

type completion =
  | Unblocked of Types.gid * Op.action
  | Resumed of Types.tid * Op.action * progress

type crash = { in_doubt : Types.gid list; dead_locals : Types.tid list }

(* [locals]: the live local transactions and the actions each has left. *)
type t = { dbms : Local_dbms.t; locals : (Types.tid, Op.action list) Hashtbl.t }

let create dbms = { dbms; locals = Hashtbl.create 16 }

let dbms t = t.dbms

let sid t = Local_dbms.site_id t.dbms

let declare t tid accesses =
  if Local_dbms.needs_declarations t.dbms then
    Local_dbms.declare t.dbms tid
      (List.map
         (fun (item, write) ->
           (item, Mdbs_lcc.Cc_types.(if write then Write_mode else Read_mode)))
         accesses)

let step t gid ~accesses action =
  if action <> Op.Begin && not (Local_dbms.is_active t.dbms gid) then
    let answer =
      match action with Op.Commit | Op.Abort -> Done | _ -> Refused "site-amnesia"
    in
    { answer; value = None; known = false }
  else begin
    if action = Op.Begin then declare t gid accesses;
    let answer, value =
      match Local_dbms.submit t.dbms gid action with
      | Local_dbms.Executed value -> (Done, value)
      | Local_dbms.Waiting -> (Blocked, None)
      | Local_dbms.Aborted reason -> (Refused reason, None)
    in
    { answer; value; known = true }
  end

let resolve t gid action =
  if Local_dbms.is_active t.dbms gid then ignore (Local_dbms.submit t.dbms gid action)

let start_local t txn =
  declare t txn.Txn.id (Txn.accesses_at txn (sid t));
  Hashtbl.replace t.locals txn.Txn.id (List.map (fun s -> s.Txn.action) txn.Txn.script)

let is_local t tid = Hashtbl.mem t.locals tid

(* The local is out of the table while its action runs, so a submit that
   raises leaves nothing for a later crash to kill twice. *)
let local_step t tid =
  match Hashtbl.find_opt t.locals tid with
  | None | Some [] -> invalid_arg "Server.local_step: no local action to run"
  | Some (action :: rest) ->
      Hashtbl.remove t.locals tid;
      let progress =
        match Local_dbms.submit t.dbms tid action with
        | Local_dbms.Executed _ when rest = [] -> Committed
        | Local_dbms.Executed _ -> Ready
        | Local_dbms.Waiting -> Parked
        | Local_dbms.Aborted reason -> Aborted reason
      in
      if progress = Ready || progress = Parked then Hashtbl.replace t.locals tid rest;
      (action, progress)

let drain t =
  List.map
    (fun (c : Local_dbms.completion) ->
      match Hashtbl.find_opt t.locals c.tid with
      | Some [] ->
          Hashtbl.remove t.locals c.tid;
          Resumed (c.tid, c.action, Committed)
      | Some _ -> Resumed (c.tid, c.action, Ready)
      | None -> Unblocked (c.tid, c.action))
    (Local_dbms.drain_completions t.dbms)

let crash t =
  if not (Local_dbms.is_durable t.dbms) then None
  else begin
    let dead_locals = List.sort compare (List.of_seq (Hashtbl.to_seq_keys t.locals)) in
    Hashtbl.reset t.locals;
    Local_dbms.crash t.dbms;
    Some { in_doubt = Local_dbms.in_doubt t.dbms; dead_locals }
  end
