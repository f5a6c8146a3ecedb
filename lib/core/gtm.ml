open Mdbs_model
module Local_dbms = Mdbs_site.Local_dbms
module Cc_types = Mdbs_lcc.Cc_types

type status = Active | Committed | Aborted of string

type t = {
  engine : Engine.t;
  coord : Coord.t;
  atomic_commit : bool;
  site_tbl : (Types.sid, Local_dbms.t) Hashtbl.t;
  ser_log : Ser_schedule.t;
  local_cont : (Types.tid, Types.sid * Op.action list) Hashtbl.t;
      (* blocked local transactions: site and actions still to run *)
  statuses : (Types.tid, status) Hashtbl.t;
  mutable forced_aborts : int;
  gtm_log : Gtm_log.t; (* stable storage: survives a GTM crash *)
}

let find_site site_tbl sid =
  match Hashtbl.find_opt site_tbl sid with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Gtm.site: unknown site %d" sid)

(* Carry out the coordinator's effects synchronously: a step runs at its
   site at once and its answer goes straight back to the core. *)
let perform ~site_tbl ~ser_log ~statuses ~gtm_log ~reason_of coord effect =
  let site = find_site site_tbl in
  match effect with
  | Coord.Run { gid; pc; site = sid; action; ser } ->
      let dbms = site sid in
      if action = Op.Begin && Local_dbms.needs_declarations dbms then
        Local_dbms.declare dbms gid (Coord.declaration coord gid sid);
      let answer =
        match Local_dbms.submit dbms gid action with
        | Local_dbms.Executed _ ->
            if ser then Ser_schedule.record ser_log sid gid;
            Coord.Done
        | Local_dbms.Waiting -> Coord.Blocked
        | Local_dbms.Aborted reason -> Coord.Refused reason
      in
      ignore (Coord.reply coord gid ~pc answer)
  | Coord.Rollback (gid, sid) -> ignore (Local_dbms.submit (site sid) gid Op.Abort)
  | Coord.Resolve (gid, sid, d) ->
      let dbms = site sid in
      if Local_dbms.is_active dbms gid then
        ignore
          (Local_dbms.submit dbms gid
             (match d with Gtm_log.Commit -> Op.Commit | Gtm_log.Abort -> Op.Abort))
  | Coord.Log r -> Gtm_log.append gtm_log r
  | Coord.Finish { gid; outcome; recovered } ->
      Hashtbl.replace statuses gid
        (match outcome with
        | Coord.Committed -> Committed
        | Coord.Aborted r when recovered ->
            (* Why it died, if the crashed incarnation still knew. *)
            Aborted (Option.value (reason_of gid) ~default:r)
        | Coord.Aborted r -> Aborted r)

let make ~engine ~atomic_commit ~site_tbl ~ser_log ~local_cont ~statuses
    ~forced_aborts ~gtm_log ~reason_of =
  let protocol_of sid = Local_dbms.protocol_kind (find_site site_tbl sid) in
  let gtm2 ops =
    Engine.enqueue_all engine ops;
    Engine.run engine
  in
  {
    engine;
    atomic_commit;
    coord =
      Coord.create ~atomic:atomic_commit ~protocol_of ~gtm2
        ~perform:(perform ~site_tbl ~ser_log ~statuses ~gtm_log ~reason_of)
        ();
    site_tbl;
    ser_log;
    local_cont;
    statuses;
    forced_aborts;
    gtm_log;
  }

let create ?(obs = Mdbs_obs.Obs.disabled) ?(atomic_commit = false) ~scheme
    ~sites () =
  let site_tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace site_tbl (Local_dbms.site_id s) s) sites;
  make ~engine:(Engine.create ~obs scheme) ~atomic_commit ~site_tbl
    ~ser_log:(Ser_schedule.create ()) ~local_cont:(Hashtbl.create 16)
    ~statuses:(Hashtbl.create 64) ~forced_aborts:0 ~gtm_log:(Gtm_log.create ())
    ~reason_of:(fun _ -> None)

let engine t = t.engine

let gtm_log t = t.gtm_log

let site t sid = find_site t.site_tbl sid

let sites t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.site_tbl []
  |> List.sort (fun a b -> compare (Local_dbms.site_id a) (Local_dbms.site_id b))

let ser_schedule t = t.ser_log

let schedules t = List.map Local_dbms.schedule (sites t)

let audit t = Serializability.check (schedules t)

let forced_aborts t = t.forced_aborts

let status t tid =
  match Hashtbl.find_opt t.statuses tid with Some s -> s | None -> Active

let submit_global t txn =
  Coord.admit t.coord txn;
  Hashtbl.replace t.statuses txn.Txn.id Active

(* --- local transactions ---------------------------------------------- *)

let rec run_local_actions t tid sid actions =
  match actions with
  | [] -> Hashtbl.replace t.statuses tid Committed
  | action :: rest -> (
      match Local_dbms.submit (site t sid) tid action with
      | Local_dbms.Executed _ -> run_local_actions t tid sid rest
      | Local_dbms.Waiting -> Hashtbl.replace t.local_cont tid (sid, rest)
      | Local_dbms.Aborted reason -> Hashtbl.replace t.statuses tid (Aborted reason))

let submit_local t txn =
  let sid =
    match txn.Txn.kind with
    | Txn.Local sid -> sid
    | Txn.Global _ -> invalid_arg "Gtm.submit_local: global transaction"
  in
  Hashtbl.replace t.statuses txn.Txn.id Active;
  let dbms = site t sid in
  if Local_dbms.needs_declarations dbms then
    Local_dbms.declare dbms txn.Txn.id
      (List.map
         (fun (item, write) ->
           (item, if write then Cc_types.Write_mode else Cc_types.Read_mode))
         (Txn.accesses_at txn sid));
  let actions = List.map (fun s -> s.Txn.action) txn.Txn.script in
  run_local_actions t txn.Txn.id sid actions

(* --- completions ------------------------------------------------------ *)

let handle_completion t sid (completion : Local_dbms.completion) =
  let tid = completion.Local_dbms.tid in
  match Hashtbl.find_opt t.local_cont tid with
  | Some (cont_sid, rest) ->
      Hashtbl.remove t.local_cont tid;
      run_local_actions t tid cont_sid rest
  | None -> (
      (* A blocked step of a global transaction executed. *)
      match Coord.reply t.coord tid Coord.Done with
      | Some step when step.Gtm1.via_gtm2 -> Ser_schedule.record t.ser_log sid tid
      | Some _ | None -> ())

let drain_completions t =
  List.fold_left
    (fun progressed s ->
      match Local_dbms.drain_completions s with
      | [] -> progressed
      | completions ->
          List.iter (handle_completion t (Local_dbms.site_id s)) completions;
          true)
    false (sites t)

(* --- forced aborts (cross-site deadlocks) ----------------------------- *)

(* A quiescent round with transactions still blocked at sites means a
   cross-site deadlock (each site's waits-for graph is acyclic, the cycle
   spans sites). Kill the youngest blocked global transaction. *)
let force_abort_one t =
  match List.rev (Coord.blocked t.coord) with
  | [] -> false
  | (victim, _) :: _ ->
      t.forced_aborts <- t.forced_aborts + 1;
      ignore (Coord.kill t.coord victim "global-deadlock");
      true

(* --- the pump ---------------------------------------------------------- *)

let pump t =
  let poll () = drain_completions t in
  ignore (Coord.pump ~poll t.coord);
  while force_abort_one t do
    ignore (Coord.pump ~poll t.coord)
  done

(* --- GTM crash and recovery ------------------------------------------- *)

(* A GTM crash loses every volatile structure: GTM1 program counters, the
   engine's QUEUE/WAIT, the scheme's data structures, the in-flight
   messages. What survives: the durable {!Gtm_log}, and the sites
   themselves (untouched — a GTM failure is not a site failure). Recovery
   is presumed abort: every unfinished transaction with a logged Commit
   decision is completed (Commit delivered to every site where its
   subtransaction is still live, including in-doubt participants of a
   concurrent site crash); every other unfinished transaction is aborted at
   every such site. Undecided transactions cannot have committed anywhere
   under 2PC — the decision record precedes the first commit message — so
   aborting them everywhere preserves atomicity.

   The resolution operations bypass the (fresh) GTM2: its new scheme
   instance has no pending structures to consult, and the relative
   serialization order of the resolved transactions was fixed before the
   crash (every serialization point except a 2PL commit precedes prepare;
   commit-point sites order the surviving commits by the locks the
   transactions still hold). *)
let recover ~old ~scheme =
  Engine.close_open_spans old.engine ~reason:"gtm-crash";
  let t =
    make
      ~engine:(Engine.create ~obs:(Engine.obs old.engine) scheme)
      ~atomic_commit:old.atomic_commit ~site_tbl:old.site_tbl ~ser_log:old.ser_log
      ~local_cont:old.local_cont ~statuses:old.statuses
      ~forced_aborts:old.forced_aborts ~gtm_log:old.gtm_log
      ~reason_of:(Coord.death_reason old.coord)
  in
  Coord.recover t.coord t.gtm_log;
  (* Resolution released locks; blocked local transactions may now run. *)
  pump t;
  t

let run_global t txn =
  submit_global t txn;
  pump t;
  status t txn.Txn.id

let run_local t txn =
  submit_local t txn;
  pump t;
  status t txn.Txn.id
