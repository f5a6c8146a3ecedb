open Mdbs_model

type outcome = Committed | Aborted of string

type effect_ =
  | Run of {
      gid : Types.gid;
      pc : int;
      site : Types.sid;
      action : Op.action;
      ser : bool;
    }
  | Rollback of Types.gid * Types.sid
  | Resolve of Types.gid * Types.sid * Gtm_log.decision
  | Log of Gtm_log.record
  | Finish of { gid : Types.gid; outcome : outcome; recovered : bool }

type reply = Mdbs_site.Server.answer = Done | Blocked | Refused of string

type victim = { victim : Types.gid; reason : string; wounder : Types.gid option }

let default_tick_ms = 5.
let default_wound_ms = 20.
let default_deadline_ms = 250.

(* What the core adds to GTM1's per-global state. *)
type global = {
  birth : int; (* wound-wait age: the gid of the logical txn's first attempt *)
  mutable awaiting : int option; (* pc of the step out at a site *)
  mutable decision : Gtm_log.decision option;
  mutable reason : string option;
  mutable terminated : Types.sid list;
      (* sites where the subtransaction was rolled back or the site
         terminated it: no rollback is fired there again *)
  mutable blocked_at : float; (* when a site answered Blocked for this step *)
  mutable wounded : int list; (* births this global wounded in this wait *)
}

(* A serialization operation parked in GTM2: its site, and the tick that
   first saw it there. *)
type park = { site : Types.sid; mutable since : float option }

type t = {
  gtm1 : Gtm1.t;
  atomic : bool;
  protocol_of : Types.sid -> Types.protocol_kind;
  gtm2 : Queue_op.t list -> Scheme.effect_ list;
  perform : t -> effect_ -> unit;
  globals : (Types.gid, global) Hashtbl.t;
  blocked : (Types.gid, Types.sid) Hashtbl.t;
  parked : (Types.gid, park) Hashtbl.t;
  pending : Queue_op.t Queue.t; (* GTM2 operations for the next round *)
  wound_ms : float;
  deadline_ms : float;
  blockers : Queue_op.t -> Types.gid list;
  mutable progressed : bool; (* something moved since the last tick *)
  mutable last_progress : float; (* the tick that saw it *)
}

let create ?(wound_after_ms = default_wound_ms)
    ?(deadline_ms = default_deadline_ms) ?(blockers = fun _ -> []) ~atomic
    ~protocol_of ~gtm2 ~perform () =
  {
    gtm1 = Gtm1.create ();
    atomic;
    protocol_of;
    gtm2;
    perform;
    globals = Hashtbl.create 64;
    blocked = Hashtbl.create 16;
    parked = Hashtbl.create 16;
    pending = Queue.create ();
    wound_ms = wound_after_ms;
    deadline_ms;
    blockers;
    progressed = false;
    last_progress = 0.;
  }

let emit t e = t.perform t e

let enqueue t op = Queue.add op t.pending

(* --- queries ------------------------------------------------------------ *)

let is_known t gid = Hashtbl.mem t.globals gid

let is_dead t gid = is_known t gid && Gtm1.is_dead t.gtm1 gid

let commit_decided t gid =
  match Hashtbl.find_opt t.globals gid with
  | Some g -> g.decision = Some Gtm_log.Commit
  | None -> false

let death_reason t gid =
  match Hashtbl.find_opt t.globals gid with Some g -> g.reason | None -> None

let active t = Gtm1.active t.gtm1

let current_step t gid =
  if is_known t gid then Gtm1.current_step t.gtm1 gid else None

let awaiting t gid =
  match Hashtbl.find_opt t.globals gid with Some g -> g.awaiting | None -> None

let blocked t =
  List.sort compare (Hashtbl.fold (fun gid sid acc -> (gid, sid) :: acc) t.blocked [])

let blocked_count t = Hashtbl.length t.blocked

let begun_sites t gid = Gtm1.begun_sites t.gtm1 gid

let declaration t gid sid = Gtm1.declaration_for t.gtm1 gid sid

(* --- the rules ------------------------------------------------------------ *)

(* Log a decision; the latest one stands (without 2PC a decided Commit can
   still die at a refusing site). *)
let decide t gid g d =
  if g.decision <> Some d then begin
    g.decision <- Some d;
    emit t (Log (Gtm_log.Decided (gid, d)))
  end

let step_of t gid =
  match Gtm1.current_step t.gtm1 gid with
  | Some step -> step
  | None -> invalid_arg "Coord: no current step"

(* Advance GTM1 past the in-flight step. *)
let ack t gid =
  emit t (Log (Gtm_log.Acked (gid, Gtm1.pc t.gtm1 gid)));
  Gtm1.on_ack t.gtm1 gid

(* The step's round trip is over: a serialization operation's ack goes
   through GTM2, a direct step's advances GTM1. *)
let complete t gid (step : Gtm1.step) =
  if step.Gtm1.via_gtm2 then enqueue t (Queue_op.Ack (gid, step.Gtm1.site))
  else ack t gid

let rollback t gid g sid =
  if not (List.mem sid g.terminated) then begin
    g.terminated <- sid :: g.terminated;
    emit t (Rollback (gid, sid))
  end

(* The step's answer is in: nothing of the global is out at a site. *)
let settle t gid g =
  g.awaiting <- None;
  Hashtbl.remove t.blocked gid

(* The global aborted somewhere: mark it dead, decide Abort and roll it back
   at every site where its subtransaction is active. [terminated_at] is a
   site that already terminated it. A step blocked at a site would wait for
   a completion the rollback discards, so it completes now. Remaining
   serialization operations still flow through GTM2 and are acknowledged
   without a site. Under 2PC a decided Commit is final: refused. *)
let mark_dead t gid reason ~terminated_at =
  match Hashtbl.find_opt t.globals gid with
  | Some g
    when (not (Gtm1.is_dead t.gtm1 gid))
         && not (t.atomic && g.decision = Some Gtm_log.Commit) ->
      Gtm1.mark_dead t.gtm1 gid;
      g.reason <- Some reason;
      decide t gid g Gtm_log.Abort;
      let terminate s =
        rollback t gid g s;
        Gtm1.note_site_terminated t.gtm1 gid s
      in
      Option.iter
        (fun s ->
          g.terminated <- s :: g.terminated;
          Gtm1.note_site_terminated t.gtm1 gid s)
        terminated_at;
      let blocked = Hashtbl.find_opt t.blocked gid in
      Option.iter terminate blocked;
      List.iter terminate (Gtm1.begun_sites t.gtm1 gid);
      if blocked <> None then begin
        settle t gid g;
        complete t gid (step_of t gid)
      end;
      true
  | Some _ | None -> false

(* --- inputs --------------------------------------------------------------- *)

let admit ?birth t txn =
  let ser_point_of sid =
    (if t.atomic then Ser_fun.for_protocol_atomic else Ser_fun.for_protocol)
      (t.protocol_of sid)
  in
  let info = Gtm1.admit t.gtm1 txn ~atomic:t.atomic ~ser_point_of () in
  Hashtbl.replace t.globals txn.Txn.id
    {
      birth = Option.value birth ~default:txn.Txn.id;
      awaiting = None;
      decision = None;
      reason = None;
      terminated = [];
      blocked_at = 0.;
      wounded = [];
    };
  t.progressed <- true;
  emit t (Log (Gtm_log.Admitted (txn, t.atomic)));
  enqueue t (Queue_op.Init info)

let finish t gid g =
  enqueue t (Queue_op.Fin gid);
  let outcome =
    if Gtm1.is_dead t.gtm1 gid then
      Aborted (match g.reason with Some r -> r | None -> "aborted")
    else Committed
  in
  if outcome = Committed then decide t gid g Gtm_log.Commit;
  emit t (Log (Gtm_log.Finished gid));
  Gtm1.finish t.gtm1 gid;
  Hashtbl.remove t.globals gid;
  emit t (Finish { gid; outcome; recovered = false })

(* Drive one global as far as it goes without a reply. A synchronous
   caller may answer a Run inside [perform]; the loop then carries on with
   the next step. *)
let rec drive t gid =
  match Gtm1.next t.gtm1 gid with
  | Gtm1.In_flight -> false
  | Gtm1.Finished ->
      finish t gid (Hashtbl.find t.globals gid);
      true
  | Gtm1.Dispatch_ser sid ->
      emit t (Log (Gtm_log.Dispatched (gid, Gtm1.pc t.gtm1 gid)));
      Gtm1.note_dispatched t.gtm1 gid;
      (* Parked until GTM2 submits it; a new wait wounds afresh. *)
      Hashtbl.replace t.parked gid { site = sid; since = None };
      (Hashtbl.find t.globals gid).wounded <- [];
      enqueue t (Queue_op.Ser (gid, sid));
      true
  | Gtm1.Dispatch_direct step ->
      let g = Hashtbl.find t.globals gid in
      let pc = Gtm1.pc t.gtm1 gid in
      emit t (Log (Gtm_log.Dispatched (gid, pc)));
      if step.Gtm1.action = Op.Commit && not (Gtm1.is_dead t.gtm1 gid) then
        decide t gid g Gtm_log.Commit;
      Gtm1.note_dispatched t.gtm1 gid;
      g.awaiting <- Some pc;
      emit t
        (Run
           { gid; pc; site = step.Gtm1.site; action = step.Gtm1.action; ser = false });
      ignore (drive t gid);
      true

let gtm2_effect t = function
  | Scheme.Submit_ser (gid, sid) ->
      Hashtbl.remove t.parked gid;
      if Gtm1.is_dead t.gtm1 gid then enqueue t (Queue_op.Ack (gid, sid))
      else begin
        let step = step_of t gid in
        if step.Gtm1.site <> sid || not step.Gtm1.via_gtm2 then
          invalid_arg "Coord: Submit_ser does not match the current step";
        let g = Hashtbl.find t.globals gid in
        (* Under 2PC, reaching a Commit means every prepare was
           acknowledged: decide before the first Commit leaves. *)
        if step.Gtm1.action = Op.Commit then decide t gid g Gtm_log.Commit;
        let pc = Gtm1.pc t.gtm1 gid in
        g.awaiting <- Some pc;
        emit t (Run { gid; pc; site = sid; action = step.Gtm1.action; ser = true })
      end
  | Scheme.Forward_ack (gid, _) -> if is_known t gid then ack t gid
  | Scheme.Abort_global gid ->
      (* A non-conservative scheme refused the serialization operation
         before it reached its site. *)
      Hashtbl.remove t.parked gid;
      ignore (mark_dead t gid "gtm2-abort" ~terminated_at:None);
      if is_known t gid then ack t gid

let pump ?(poll = fun () -> false) t =
  let rec loop moved =
    let ops = List.of_seq (Queue.to_seq t.pending) in
    Queue.clear t.pending;
    let effects = t.gtm2 ops in
    List.iter (gtm2_effect t) effects;
    let polled = poll () in
    let driven =
      List.fold_left (fun acc gid -> drive t gid || acc) false (Gtm1.active t.gtm1)
    in
    if effects <> [] || polled || driven then loop true
    else if not (Queue.is_empty t.pending) then loop moved
    else moved
  in
  let moved = loop false in
  if moved then t.progressed <- true;
  moved

let reply t gid ?pc ?(now = 0.) r =
  match Hashtbl.find_opt t.globals gid with
  | None -> None
  | Some g -> (
      match (g.awaiting, pc) with
      | Some p, Some q when p <> q -> None
      | Some _, None when not (Hashtbl.mem t.blocked gid) -> None
      | None, _ -> None
      | Some _, _ ->
          let step = step_of t gid in
          let sid = step.Gtm1.site in
          let dead = Gtm1.is_dead t.gtm1 gid in
          (match r with
          | Blocked when not dead ->
              (* A repeated answer for the same wait keeps its stamp. *)
              if not (Hashtbl.mem t.blocked gid) then begin
                Hashtbl.replace t.blocked gid sid;
                g.blocked_at <- now;
                g.wounded <- []
              end
          | Blocked ->
              (* A kill landed while this answer was in flight: nobody
                 would ever complete the wait. *)
              settle t gid g;
              rollback t gid g sid;
              complete t gid step
          | Done ->
              settle t gid g;
              (* The kill's sweep missed a step that was out when the
                 global died (an in-flight Begin is not yet a begun site):
                 roll it back where it ran, unless it was that site's
                 Commit. *)
              if dead && step.Gtm1.action <> Op.Commit then rollback t gid g sid;
              complete t gid step
          | Refused reason ->
              settle t gid g;
              ignore (mark_dead t gid reason ~terminated_at:(Some sid));
              complete t gid step);
          if not (r = Blocked && not dead) then t.progressed <- true;
          Some step)

let kill t gid reason = mark_dead t gid reason ~terminated_at:None

(* --- the victim policy ------------------------------------------------- *)

(* A global whose commit is decided is past the point of cheap retry and
   about to finish anyway: never a victim. *)
let killable t gid =
  match Hashtbl.find_opt t.globals gid with
  | Some g -> g.decision <> Some Gtm_log.Commit && not (Gtm1.is_dead t.gtm1 gid)
  | None -> false

(* [f] over the killable entries of a per-gid table. *)
let candidates t tbl f =
  Hashtbl.fold
    (fun gid x acc ->
      if killable t gid then f gid (Hashtbl.find t.globals gid) x :: acc else acc)
    tbl []

(* Safety valve: nothing moved for the deadline and no waiter is past a
   window. A step out at a site will be answered, so killing its global
   frees nothing; only GTM2 delays for good. Kill the youngest parked
   global, whose fake acks unwedge the scheme, and no one when nothing is
   parked. *)
let valve t ~now =
  if now -. t.last_progress <= t.deadline_ms then None
  else
    match candidates t t.parked (fun gid g _ -> (g.birth, gid)) with
    | [] -> None
    | first :: rest ->
        let _, victim =
          List.fold_left
            (fun (b, g) (b', g') -> if Wound.older b g b' g' then (b', g') else (b, g))
            first rest
        in
        Some { victim; reason = "stall-timeout"; wounder = None }

(* One decision per tick. The first tick that sees a parked operation
   stamps its wait. Only when some waiter aged into the wound window does
   the tick pay for the resident sweep, and only a parked waiter past its
   window asks GTM2 for its blockers. *)
let tick t ~now =
  if t.progressed then begin
    t.progressed <- false;
    t.last_progress <- now
  end;
  Hashtbl.iter (fun _ p -> if p.since = None then p.since <- Some now) t.parked;
  let waiter gid g w_at w_since =
    { Wound.w_gid = gid; w_birth = g.birth; w_at; w_since; w_wounded = g.wounded }
  in
  (* A parked waiter's victims are the blockers its scheme names that are
     themselves blocked at a site: one merely slow, in flight or parked,
     is no sign of a cycle, and wounding it early fed wound storms. *)
  let site_blocked_blockers gid sid =
    lazy
      (List.filter (Hashtbl.mem t.blocked) (t.blockers (Queue_op.Ser (gid, sid))))
  in
  let waiters =
    candidates t t.blocked (fun gid g sid -> waiter gid g (Wound.Site sid) g.blocked_at)
    @ candidates t t.parked (fun gid g p ->
          waiter gid g
            (Wound.Gtm2 (site_blocked_blockers gid p.site))
            (Option.value p.since ~default:now))
  in
  let verdict =
    if Wound.quiet ~now ~wound_after_ms:t.wound_ms ~waiters then valve t ~now
    else
      let residents =
        candidates t t.globals (fun gid g _ ->
            { Wound.r_gid = gid; r_birth = g.birth;
              r_sites = Gtm1.begun_sites t.gtm1 gid })
      in
      match
        Wound.decide ~now ~wound_after_ms:t.wound_ms ~deadline_ms:t.deadline_ms
          ~waiters ~residents
      with
      | Wound.Wound { wounder; victim } ->
          let w = Hashtbl.find t.globals wounder in
          w.wounded <- (Hashtbl.find t.globals victim).birth :: w.wounded;
          Some { victim; reason = "wound"; wounder = Some wounder }
      | Wound.Timeout victim ->
          Some { victim; reason = "stall-deadline"; wounder = None }
      | Wound.No_kill -> valve t ~now
  in
  match verdict with
  | Some v when kill t v.victim v.reason ->
      t.last_progress <- now;
      verdict
  | Some _ | None -> None

let site_crash t sid ~in_doubt =
  t.progressed <- true;
  List.iter
    (fun gid ->
      let g = Hashtbl.find t.globals gid in
      let begun = List.mem sid (Gtm1.begun_sites t.gtm1 gid) in
      let out_here =
        g.awaiting <> None
        && match Gtm1.current_step t.gtm1 gid with
           | Some step -> step.Gtm1.site = sid
           | None -> false
      in
      (* The crash wiped the subtransaction there, a blocked step with it;
         a step still in flight gets its answer (and the orphan rule). *)
      let wiped = begun || Hashtbl.find_opt t.blocked gid = Some sid in
      if (begun || out_here) && not (List.mem gid in_doubt) then
        ignore
          (mark_dead t gid "site-crash"
             ~terminated_at:(if wiped then Some sid else None)))
    (Gtm1.active t.gtm1)

let recover t log =
  List.iter
    (fun (entry : Gtm_log.entry) ->
      let txn = entry.Gtm_log.txn in
      let gid = txn.Txn.id in
      let decision =
        match entry.Gtm_log.decision with
        | Some d -> d
        | None ->
            emit t (Log (Gtm_log.Decided (gid, Gtm_log.Abort)));
            Gtm_log.Abort
      in
      List.iter (fun sid -> emit t (Resolve (gid, sid, decision))) (Txn.sites txn);
      emit t (Log (Gtm_log.Finished gid));
      emit t
        (Finish
           {
             gid;
             outcome =
               (match decision with
               | Gtm_log.Commit -> Committed
               | Gtm_log.Abort -> Aborted "gtm-crash");
             recovered = true;
           }))
    (Gtm_log.analyze log)
