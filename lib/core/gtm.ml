open Mdbs_model
module Local_dbms = Mdbs_site.Local_dbms
module Server = Mdbs_site.Server

type status = Active | Committed | Aborted of string

type t = {
  engine : Engine.t;
  coord : Coord.t;
  atomic_commit : bool;
  servers : Server.t list; (* by site id *)
  ser_log : Ser_schedule.t;
  statuses : (Types.tid, status) Hashtbl.t;
  gtm_log : Gtm_log.t; (* stable storage: survives a GTM crash *)
}

let find_server servers sid =
  match List.find_opt (fun s -> Server.sid s = sid) servers with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Gtm.site: unknown site %d" sid)

(* Carry out the coordinator's effects synchronously: a step runs at its
   site's server at once and its answer goes straight back to the core. *)
let perform ~servers ~ser_log ~statuses ~gtm_log ~reason_of coord effect =
  let server = find_server servers in
  match effect with
  | Coord.Run { gid; pc; site = sid; action; ser } ->
      let r =
        Server.step (server sid) gid ~accesses:(Coord.declaration coord gid sid) action
      in
      if ser && r.Server.answer = Server.Done then Ser_schedule.record ser_log sid gid;
      ignore (Coord.reply coord gid ~pc r.Server.answer)
  | Coord.Rollback (gid, sid) | Coord.Resolve (gid, sid, Gtm_log.Abort) ->
      Server.resolve (server sid) gid Op.Abort
  | Coord.Resolve (gid, sid, Gtm_log.Commit) -> Server.resolve (server sid) gid Op.Commit
  | Coord.Log r -> Gtm_log.append gtm_log r
  | Coord.Finish { gid; outcome; recovered } ->
      Hashtbl.replace statuses gid
        (match outcome with
        | Coord.Committed -> Committed
        | Coord.Aborted r when recovered ->
            (* Why it died, if the crashed incarnation still knew. *)
            Aborted (Option.value (reason_of gid) ~default:r)
        | Coord.Aborted r -> Aborted r)

let make ~engine ~atomic_commit ~servers ~ser_log ~statuses ~gtm_log ~reason_of =
  let protocol_of sid =
    Local_dbms.protocol_kind (Server.dbms (find_server servers sid))
  in
  let gtm2 ops =
    Engine.enqueue_all engine ops;
    Engine.run engine
  in
  {
    engine;
    atomic_commit;
    coord =
      Coord.create ~atomic:atomic_commit ~protocol_of ~gtm2
        ~perform:(perform ~servers ~ser_log ~statuses ~gtm_log ~reason_of)
        ();
    servers;
    ser_log;
    statuses;
    gtm_log;
  }

let create ?(obs = Mdbs_obs.Obs.disabled) ?(atomic_commit = false) ~scheme
    ~sites () =
  let servers =
    List.map Server.create sites
    |> List.sort (fun a b -> compare (Server.sid a) (Server.sid b))
  in
  make ~engine:(Engine.create ~obs scheme) ~atomic_commit ~servers
    ~ser_log:(Ser_schedule.create ()) ~statuses:(Hashtbl.create 64)
    ~gtm_log:(Gtm_log.create ()) ~reason_of:(fun _ -> None)

let engine t = t.engine

let gtm_log t = t.gtm_log

let site t sid = Server.dbms (find_server t.servers sid)

let sites t = List.map Server.dbms t.servers

let ser_schedule t = t.ser_log

let schedules t = List.map Local_dbms.schedule (sites t)

let audit t = Serializability.check (schedules t)

let status t tid =
  match Hashtbl.find_opt t.statuses tid with Some s -> s | None -> Active

let submit_global t txn =
  Coord.admit t.coord txn;
  Hashtbl.replace t.statuses txn.Txn.id Active

(* --- local transactions ---------------------------------------------- *)

(* Run a local transaction until it parks or ends. *)
let rec advance_local t srv tid = function
  | Server.Ready -> advance_local t srv tid (snd (Server.local_step srv tid))
  | Server.Parked -> ()
  | Server.Committed -> Hashtbl.replace t.statuses tid Committed
  | Server.Aborted reason -> Hashtbl.replace t.statuses tid (Aborted reason)

let submit_local t txn =
  let sid =
    match txn.Txn.kind with
    | Txn.Local sid -> sid
    | Txn.Global _ -> invalid_arg "Gtm.submit_local: global transaction"
  in
  Hashtbl.replace t.statuses txn.Txn.id Active;
  let srv = find_server t.servers sid in
  Server.start_local srv txn;
  advance_local t srv txn.Txn.id Server.Ready

(* --- completions ------------------------------------------------------ *)

let handle_completion t srv = function
  | Server.Unblocked (gid, _) -> (
      match Coord.reply t.coord gid Coord.Done with
      | Some step when step.Gtm1.via_gtm2 ->
          Ser_schedule.record t.ser_log (Server.sid srv) gid
      | Some _ | None -> ())
  | Server.Resumed (tid, _, progress) -> advance_local t srv tid progress

let drain_completions t =
  List.fold_left
    (fun progressed srv ->
      match Server.drain srv with
      | [] -> progressed
      | completions ->
          List.iter (handle_completion t srv) completions;
          true)
    false t.servers

(* --- forced aborts (cross-site deadlocks) ----------------------------- *)

(* A quiescent round with transactions still blocked at sites means a
   cross-site deadlock (each site's waits-for graph is acyclic, the cycle
   spans sites). Kill the youngest blocked global transaction. *)
let force_abort_one t =
  match List.rev (Coord.blocked t.coord) with
  | [] -> false
  | (victim, _) :: _ ->
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
      ~atomic_commit:old.atomic_commit ~servers:old.servers ~ser_log:old.ser_log
      ~statuses:old.statuses ~gtm_log:old.gtm_log
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
