open Mdbs_model
module Rng = Mdbs_util.Rng
module Binary_heap = Mdbs_util.Binary_heap
module Stats = Mdbs_util.Stats
module Engine = Mdbs_core.Engine
module Scheme = Mdbs_core.Scheme
module Gtm1 = Mdbs_core.Gtm1
module Coord = Mdbs_core.Coord
module Gtm_log = Mdbs_core.Gtm_log
module Registry = Mdbs_core.Registry
module Local_dbms = Mdbs_site.Local_dbms
module Cc_types = Mdbs_lcc.Cc_types
module Json = Mdbs_analysis.Json
module Obs = Mdbs_obs.Obs
module Sink = Mdbs_obs.Sink
module Metrics = Mdbs_obs.Metrics

type config = {
  workload : Workload.config;
  n_global : int;
  global_rate : float;
  locals_per_site : int;
  local_rate : float;
  service_ms : float;
  latency_ms : float;
  deadlock_timeout_ms : float;
  max_restarts : int;
  seed : int;
  atomic_commit : bool;
  faults : Fault.t;
  retry_timeout_ms : float;
  max_retries : int;
  obs : Obs.t;
}

let default =
  {
    workload = Workload.default;
    n_global = 60;
    global_rate = 0.05;
    locals_per_site = 20;
    local_rate = 0.05;
    service_ms = 1.0;
    latency_ms = 2.0;
    deadlock_timeout_ms = 200.0;
    max_restarts = 10;
    seed = 23;
    atomic_commit = false;
    faults = Fault.none;
    retry_timeout_ms = 50.0;
    max_retries = 6;
    obs = Obs.disabled;
  }

type result = {
  scheme_name : string;
  committed_global : int;
  failed_global : int;
  restarts : int;
  committed_local : int;
  aborted_local : int;
  forced_aborts : int;
  ser_waits : int;
  scheme_steps : int;
  makespan_ms : float;
  throughput_per_s : float;
  mean_response_ms : float;
  p95_response_ms : float;
  serializable : bool;
  ser_s_serializable : bool;
  races : int;
  site_crashes : int;
  gtm_recoveries : int;
  msg_drops : int;
  msg_dups : int;
  retries : int;
  in_doubt_resolved : int;
}

type run = {
  result : result;
  trace : Mdbs_analysis.Trace.t;
  sites : Local_dbms.t list;
  attempts : Txn.t list;  (* admission order *)
  obs : Obs.t;  (* the config's bundle, filled by the run *)
}

type op_kind = Ser_op | Direct_op

type event =
  | Global_arrival of Txn.t * int * float
      (* transaction, restart budget, logical start time *)
  | Local_arrival of Types.sid * Txn.t * int
  | Site_deliver of Types.sid * Types.tid * int * Op.action * op_kind
      (* operation [pc] of a global transaction reaches its site *)
  | Site_abort of Types.sid * Types.gid (* rollback order reaches the site *)
  | Local_step of Types.sid * Types.tid * Op.action list
  | Gtm_ack of Types.gid * int * string option
      (* a site's answer for operation [pc]: [Some reason] = refused *)
  | Deadlock_scan
  | Fault_event of Fault.fault
  | Retry_check of Types.gid * int * int (* gid, pc, attempt *)
  | Recovery_commit of Types.sid * Types.gid
      (* a recovered GTM completes a logged Commit decision at a site *)

type sim = {
  config : config;
  mutable engine : Engine.t; (* volatile: replaced at a GTM crash *)
  mutable coord : Coord.t; (* volatile: replaced at a GTM crash *)
  make_scheme : unit -> Scheme.t; (* fresh scheme for a restarted GTM *)
  gtm_log : Gtm_log.t; (* the GTM's stable storage *)
  site_tbl : (Types.sid, Local_dbms.t) Hashtbl.t;
  heap : (float * int * event) Binary_heap.t;
  mutable seq : int;
  mutable clock : float;
  mutable last_commit : float;
  rng : Rng.t;
  faults_enabled : bool;
  link_rng : Rng.t; (* dedicated stream: link faults are plan-deterministic *)
  ser_log : Ser_schedule.t;
  (* blocked operations at sites: value = (kind, pc, block start time) *)
  pending_global : (Types.sid * Types.gid, op_kind * int * float) Hashtbl.t;
  local_cont : (Types.tid, Types.sid * Op.action list * float) Hashtbl.t;
  started : (Types.gid, float) Hashtbl.t; (* logical start per attempt *)
  budgets : (Types.gid, Txn.t * int) Hashtbl.t;
  (* per-site memory of executed operations (volatile, dies with the site):
     a redelivered operation is re-acknowledged from here, never re-run *)
  dedup : (Types.sid * Types.gid * int, string option) Hashtbl.t;
  slow : (Types.sid, float * float) Hashtbl.t; (* factor, until *)
  dead_local : (Types.tid, unit) Hashtbl.t; (* locals killed by a site crash *)
  live_local_at : (Types.tid, Types.sid) Hashtbl.t;
  mutable committed_global : int;
  mutable failed_global : int;
  mutable restarts : int;
  mutable committed_local : int;
  mutable aborted_local : int;
  mutable forced_aborts : int;
  mutable ser_waits : int; (* accumulated across GTM incarnations *)
  mutable scheme_steps : int; (* likewise *)
  mutable responses : float list;
  mutable live_globals : int; (* logical transactions not yet resolved *)
  mutable live_locals : int;
  mutable global_attempts : Txn.t list;
  mutable site_crashes : int;
  mutable gtm_recoveries : int;
  mutable msg_drops : int;
  mutable msg_dups : int;
  mutable retries : int;
  mutable in_doubt_resolved : int;
  obs : Obs.t;
  (* open spans, keyed by what closes them: the admission-to-resolution
     span per attempt, the dispatch-to-ack span per in-flight operation
     (GTM1 is strictly sequential per transaction, so at most one), and the
     site-blocked span per pending_global entry *)
  txn_spans : (Types.gid, int) Hashtbl.t;
  op_spans : (Types.gid, int * float) Hashtbl.t; (* span, dispatch time *)
  blocked_spans : (Types.sid * Types.gid, int) Hashtbl.t;
  prepared_at : (Types.sid * Types.gid, float) Hashtbl.t;
  m_abort_causes : (string, Metrics.counter) Hashtbl.t;
  m_ser_latency : Mdbs_util.Stats.histogram;
  m_response : Mdbs_util.Stats.histogram;
  m_in_doubt : Mdbs_util.Stats.histogram;
  net_track : int; (* link-fault instants live here *)
  gtm_track : int;
}

let schedule sim delay event =
  sim.seq <- sim.seq + 1;
  Binary_heap.push sim.heap (sim.clock +. delay, sim.seq, event)

let site sim sid = Hashtbl.find sim.site_tbl sid

(* --- observability helpers --------------------------------------------- *)

let tracing sim = Sink.enabled sim.obs.Obs.sink

(* Coarse cause bucket for the aborts-by-cause counter. *)
let abort_cause reason =
  if String.length reason >= 7 && String.sub reason 0 7 = "ticket:" then
    "ticket-conflict"
  else
    match reason with
    | "wait-die" | "deadlock" | "c2pl-deadlock" -> "deadlock"
    | "global-deadlock" -> "deadlock-timeout"
    | "sgt-cycle" | "gtm2-abort" -> "cycle"
    | "occ-validation" | "to-late-read" | "to-late-write" | "to-late-update" ->
        "validation"
    | "site-crash" | "site-amnesia" | "retry-exhausted" | "gtm-crash" -> "fault"
    | _ -> "other"

let count_abort sim reason =
  if sim.obs.Obs.live then begin
    let cause = abort_cause reason in
    let c =
      match Hashtbl.find_opt sim.m_abort_causes cause with
      | Some c -> c
      | None ->
          let c =
            Metrics.counter sim.obs.Obs.metrics
              ~labels:[ ("cause", cause) ]
              "des_aborts_total"
          in
          Hashtbl.replace sim.m_abort_causes cause c;
          c
    in
    Metrics.inc c
  end

let end_blocked_span sim key ~outcome =
  match Hashtbl.find_opt sim.blocked_spans key with
  | Some span ->
      Hashtbl.remove sim.blocked_spans key;
      Sink.end_span sim.obs.Obs.sink ~attrs:[ ("outcome", outcome) ] span
  | None -> ()

(* Close the dispatch-to-ack span; returns the dispatch time (for the
   ser-latency histogram). *)
let end_op_span sim gid ~outcome =
  match Hashtbl.find_opt sim.op_spans gid with
  | Some (span, t0) ->
      Hashtbl.remove sim.op_spans gid;
      Sink.end_span sim.obs.Obs.sink ~attrs:[ ("outcome", outcome) ] span;
      Some t0
  | None -> None

let end_txn_span sim gid ~outcome =
  match Hashtbl.find_opt sim.txn_spans gid with
  | Some span ->
      Hashtbl.remove sim.txn_spans gid;
      (* Close any children still open (deepest first) so the per-track
         close order stays LIFO even on abort/crash paths. *)
      let blocked =
        Hashtbl.fold
          (fun ((_, g) as key) _ acc -> if g = gid then key :: acc else acc)
          sim.blocked_spans []
      in
      List.iter (fun key -> end_blocked_span sim key ~outcome) blocked;
      ignore (end_op_span sim gid ~outcome);
      Sink.end_span sim.obs.Obs.sink ~attrs:[ ("outcome", outcome) ] span
  | None -> ()

let note_prepared sim sid gid =
  if sim.obs.Obs.live then Hashtbl.replace sim.prepared_at (sid, gid) sim.clock

(* The coordinator's verdict reached a prepared participant: the in-doubt
   window at this site closes. *)
let resolve_prepared sim sid gid =
  match Hashtbl.find_opt sim.prepared_at (sid, gid) with
  | Some t0 ->
      Hashtbl.remove sim.prepared_at (sid, gid);
      Metrics.observe sim.m_in_doubt (sim.clock -. t0)
  | None -> ()

let service sim = Rng.exponential sim.rng (1.0 /. sim.config.service_ms)

(* Service time at a site, stretched while a slowdown fault is active. *)
let service_at sim sid =
  let s = service sim in
  if sim.faults_enabled then
    match Hashtbl.find_opt sim.slow sid with
    | Some (factor, until) when sim.clock < until -> s *. factor
    | _ -> s
  else s

(* --- the faulty transport --------------------------------------------- *)

let flip sim p = p > 0.0 && Rng.float sim.link_rng 1.0 < p

(* One-way GTM<->site latency, possibly fault-delayed. *)
let link_delay sim =
  let link = sim.config.faults.Fault.link in
  if sim.faults_enabled && flip sim link.Fault.delay then
    sim.config.latency_ms +. link.Fault.delay_ms
  else sim.config.latency_ms

(* Send a message over a GTM<->site link: in fault mode it may be dropped,
   duplicated or delayed (coin flips from the dedicated link stream). *)
let send_link sim ~extra event =
  if not sim.faults_enabled then schedule sim (extra +. sim.config.latency_ms) event
  else begin
    let link = sim.config.faults.Fault.link in
    let dropped = flip sim link.Fault.drop in
    let dup = flip sim link.Fault.duplicate in
    if dropped then begin
      sim.msg_drops <- sim.msg_drops + 1;
      Sink.instant sim.obs.Obs.sink ~track:sim.net_track "msg.drop"
    end
    else schedule sim (extra +. link_delay sim) event;
    if dup then begin
      sim.msg_dups <- sim.msg_dups + 1;
      Sink.instant sim.obs.Obs.sink ~track:sim.net_track "msg.dup";
      schedule sim (extra +. link_delay sim) event
    end
  end

(* Capped exponential backoff for the GTM's retry timer. *)
let backoff sim attempt =
  let d = sim.config.retry_timeout_ms *. (2.0 ** float_of_int attempt) in
  Float.min d (8.0 *. sim.config.retry_timeout_ms)

(* Dispatch operation [pc] of [gid] to its site. The operation id (gid, pc)
   makes delivery idempotent: the site caches the outcome per id, and the
   GTM accepts only the acknowledgement it is waiting on. *)
let send_to_site sim sid gid pc action kind ~attempt =
  send_link sim ~extra:0.0 (Site_deliver (sid, gid, pc, action, kind));
  if sim.faults_enabled then
    schedule sim (backoff sim attempt) (Retry_check (gid, pc, attempt))

(* Acknowledge operation [pc] back to the GTM (also a faulty link). *)
let ack_to_gtm sim gid pc failure ~extra =
  send_link sim ~extra (Gtm_ack (gid, pc, failure))

let declare_if_needed sim gid sid action =
  if action = Op.Begin then begin
    let dbms = site sim sid in
    if Local_dbms.needs_declarations dbms then
      Local_dbms.declare dbms gid (Coord.declaration sim.coord gid sid)
  end

(* The GTM takes a site's answer for step [pc] through the core, which
   drops stale ones (a duplicate, or a message that outlived a retry or a
   GTM restart). A direct step's span closes here with [outcome]; a
   serialization operation's closes when GTM2 forwards its ack. *)
let accept ?(outcome = "acked") sim gid pc answer =
  match Coord.reply sim.coord gid ~pc answer with
  | Some step when not step.Gtm1.via_gtm2 -> ignore (end_op_span sim gid ~outcome)
  | Some _ | None -> ()

(* Process completions that a site event may have unblocked. *)
let drain_site sim sid =
  List.iter
    (fun completion ->
      let tid = completion.Local_dbms.tid in
      match Hashtbl.find_opt sim.pending_global (sid, tid) with
      | Some (kind, pc, _) ->
          Hashtbl.remove sim.pending_global (sid, tid);
          end_blocked_span sim (sid, tid) ~outcome:"completed";
          if sim.faults_enabled then Hashtbl.replace sim.dedup (sid, tid, pc) None;
          (match kind with
          | Ser_op -> Ser_schedule.record sim.ser_log sid tid
          | Direct_op -> ());
          ack_to_gtm sim tid pc None ~extra:(service_at sim sid)
      | None -> (
          match Hashtbl.find_opt sim.local_cont tid with
          | Some (cont_sid, rest, _) ->
              Hashtbl.remove sim.local_cont tid;
              schedule sim (service_at sim cont_sid) (Local_step (cont_sid, tid, rest))
          | None -> ()))
    (Local_dbms.drain_completions (site sim sid))

(* Open the dispatch-to-ack span of the global's current step. *)
let begin_op_span sim gid name attrs =
  if sim.obs.Obs.live then
    let span =
      if tracing sim then
        Sink.begin_span sim.obs.Obs.sink
          ~track:(Sink.txn_track sim.obs.Obs.sink gid)
          ~attrs name
      else 0
    in
    Hashtbl.replace sim.op_spans gid (span, sim.clock)

(* The core finished an attempt. One a recovered GTM resolved from the log
   has no client to retry for: aborted, it fails rather than restarts. *)
let finish_global sim gid outcome ~recovered =
  let span_outcome =
    match outcome with
    | Coord.Committed ->
        sim.committed_global <- sim.committed_global + 1;
        sim.live_globals <- sim.live_globals - 1;
        sim.last_commit <- sim.clock;
        (match Hashtbl.find_opt sim.started gid with
        | Some started ->
            sim.responses <- (sim.clock -. started) :: sim.responses;
            if sim.obs.Obs.live && not recovered then
              Metrics.observe sim.m_response (sim.clock -. started)
        | None -> ());
        if recovered then "recovered-commit" else "committed"
    | Coord.Aborted reason -> (
        match Hashtbl.find_opt sim.budgets gid with
        | Some (txn, budget) when budget > 0 && not recovered ->
            sim.restarts <- sim.restarts + 1;
            let clone = { txn with Txn.id = Types.fresh_tid () } in
            (* Back off a little before retrying. *)
            schedule sim (2.0 *. sim.config.latency_ms)
              (Global_arrival (clone, budget - 1, Hashtbl.find sim.started gid));
            "restart:" ^ reason
        | _ ->
            sim.failed_global <- sim.failed_global + 1;
            sim.live_globals <- sim.live_globals - 1;
            if recovered then "recovered-abort" else "failed:" ^ reason)
  in
  if recovered then sim.in_doubt_resolved <- sim.in_doubt_resolved + 1;
  end_txn_span sim gid ~outcome:span_outcome;
  Hashtbl.remove sim.budgets gid

(* Carry out the coordinator's effects in simulated time. Its log records
   double as the trace: a serialization operation's span opens when it is
   dispatched to GTM2 and closes when its ack is forwarded; a decision is an
   instant. *)
let perform sim coord = function
  | Coord.Run { gid; pc; site = sid; action; ser } ->
      if not ser then
        begin_op_span sim gid "op"
          [ ("action", Op.action_to_string action); ("site", string_of_int sid) ];
      send_to_site sim sid gid pc action (if ser then Ser_op else Direct_op)
        ~attempt:0
  | Coord.Rollback (gid, sid) | Coord.Resolve (gid, sid, Gtm_log.Abort) ->
      schedule sim sim.config.latency_ms (Site_abort (sid, gid))
  | Coord.Resolve (gid, sid, Gtm_log.Commit) ->
      schedule sim sim.config.latency_ms (Recovery_commit (sid, gid))
  | Coord.Log record -> (
      Gtm_log.append sim.gtm_log record;
      let ser_step gid =
        match Coord.current_step coord gid with
        | Some step when step.Gtm1.via_gtm2 -> Some step.Gtm1.site
        | Some _ | None -> None
      in
      match record with
      | Gtm_log.Dispatched (gid, _) -> (
          match ser_step gid with
          | Some sid -> begin_op_span sim gid "ser" [ ("site", string_of_int sid) ]
          | None -> ())
      | Gtm_log.Acked (gid, _) when ser_step gid <> None -> (
          match end_op_span sim gid ~outcome:"acked" with
          | Some t0 when sim.obs.Obs.live ->
              Metrics.observe sim.m_ser_latency (sim.clock -. t0)
          | Some _ | None -> ())
      | Gtm_log.Decided (gid, d) ->
          if d = Gtm_log.Abort then
            count_abort sim
              (Option.value (Coord.death_reason coord gid) ~default:"gtm-crash");
          if tracing sim then
            Sink.instant sim.obs.Obs.sink
              ~track:(Sink.txn_track sim.obs.Obs.sink gid)
              ~attrs:
                [
                  ( "decision",
                    match d with Gtm_log.Commit -> "commit" | Gtm_log.Abort -> "abort"
                  );
                ]
              "2pc.decision"
      | _ -> ())
  | Coord.Finish { gid; outcome; recovered } -> finish_global sim gid outcome ~recovered

(* GTM2 for the current incarnation. A serialization operation the scheme
   refuses closes its span here. *)
let gtm2 sim ops =
  Engine.enqueue_all sim.engine ops;
  let effects = Engine.run sim.engine in
  List.iter
    (function
      | Scheme.Abort_global gid -> ignore (end_op_span sim gid ~outcome:"gtm2-abort")
      | Scheme.Submit_ser _ | Scheme.Forward_ack _ -> ())
    effects;
  effects

let new_coord sim =
  Coord.create ~atomic:sim.config.atomic_commit
    ~protocol_of:(fun sid -> Local_dbms.protocol_kind (site sim sid))
    ~gtm2:(gtm2 sim) ~perform:(perform sim) ()

let admit_global sim txn budget started =
  Coord.admit sim.coord txn;
  sim.global_attempts <- txn :: sim.global_attempts;
  Hashtbl.replace sim.started txn.Txn.id started;
  Hashtbl.replace sim.budgets txn.Txn.id (txn, budget);
  if tracing sim then
    Hashtbl.replace sim.txn_spans txn.Txn.id
      (Sink.begin_span sim.obs.Obs.sink
         ~track:(Sink.txn_track sim.obs.Obs.sink txn.Txn.id)
         ~attrs:
           [
             ( "sites",
               String.concat "," (List.map string_of_int (Txn.sites txn)) );
             ("budget", string_of_int budget);
           ]
         "txn")

let handle_site_deliver sim sid tid pc action kind =
  if not (Coord.is_known sim.coord tid) then ()
  else if Coord.is_dead sim.coord tid then begin
    (* The rollback raced this operation; acknowledge without executing. *)
    match kind with
    | Ser_op -> accept sim tid pc Coord.Done
    | Direct_op -> ack_to_gtm sim tid pc None ~extra:0.0
  end
  else begin
    let dbms = site sim sid in
    if sim.faults_enabled && Hashtbl.mem sim.dedup (sid, tid, pc) then
      (* Redelivery of an executed operation: re-acknowledge the cached
         outcome; never re-execute, never re-record ser(S). *)
      ack_to_gtm sim tid pc (Hashtbl.find sim.dedup (sid, tid, pc)) ~extra:0.0
    else if sim.faults_enabled && Hashtbl.mem sim.pending_global (sid, tid) then
      (* Redelivery of an operation still blocked here: its eventual
         completion produces the (single) acknowledgement. *)
      ()
    else if
      sim.faults_enabled && action = Op.Prepare
      && List.mem tid (Local_dbms.in_doubt dbms)
    then begin
      (* Retried prepare for a transaction already prepared (and carried
         through a site crash): the vote stands. *)
      Hashtbl.replace sim.dedup (sid, tid, pc) None;
      ack_to_gtm sim tid pc None ~extra:0.0
    end
    else if
      sim.faults_enabled && action <> Op.Begin
      && not (Local_dbms.is_active dbms tid)
    then begin
      (* The restarted site has no memory of this transaction. A Commit
         (or Abort) for a forgotten transaction must already have been
         performed — a participant forgets only after completing, and under
         2PC a commit is only sent once the prepare acknowledgement proved
         the transaction durable here. Anything else means the
         subtransaction's work was lost in the crash: vote no. *)
      match action with
      | Op.Commit | Op.Abort -> ack_to_gtm sim tid pc None ~extra:0.0
      | _ -> ack_to_gtm sim tid pc (Some "site-amnesia") ~extra:0.0
    end
    else begin
      declare_if_needed sim tid sid action;
      match Local_dbms.submit dbms tid action with
      | Local_dbms.Executed value ->
          if sim.faults_enabled then Hashtbl.replace sim.dedup (sid, tid, pc) None;
          (match action with
          | Op.Prepare -> note_prepared sim sid tid
          | Op.Commit | Op.Abort -> resolve_prepared sim sid tid
          | Op.Ticket_op ->
              if tracing sim then
                Sink.instant sim.obs.Obs.sink
                  ~track:(Sink.txn_track sim.obs.Obs.sink tid)
                  ~attrs:
                    [
                      ("site", string_of_int sid);
                      ( "value",
                        match value with Some v -> string_of_int v | None -> "?"
                      );
                    ]
                  "ticket"
          | Op.Begin | Op.Read _ | Op.Write _ -> ());
          (match kind with
          | Ser_op -> Ser_schedule.record sim.ser_log sid tid
          | Direct_op -> ());
          ack_to_gtm sim tid pc None ~extra:(service_at sim sid);
          drain_site sim sid
      | Local_dbms.Waiting ->
          Hashtbl.replace sim.pending_global (sid, tid) (kind, pc, sim.clock);
          if tracing sim then
            Hashtbl.replace sim.blocked_spans (sid, tid)
              (Sink.begin_span sim.obs.Obs.sink
                 ~track:(Sink.txn_track sim.obs.Obs.sink tid)
                 ~attrs:
                   [
                     ("site", string_of_int sid);
                     ("action", Op.action_to_string action);
                   ]
                 "site.blocked")
      | Local_dbms.Aborted reason ->
          (* A rejected ticket operation is the scheme's serialization
             conflict — classify it apart from ordinary data conflicts. *)
          let reason =
            if action = Op.Ticket_op then "ticket:" ^ reason else reason
          in
          if sim.faults_enabled then
            Hashtbl.replace sim.dedup (sid, tid, pc) (Some reason);
          ack_to_gtm sim tid pc (Some reason) ~extra:0.0;
          drain_site sim sid
    end
  end

let handle_local_step sim sid tid actions =
  match actions with
  | [] ->
      sim.committed_local <- sim.committed_local + 1;
      sim.live_locals <- sim.live_locals - 1;
      Hashtbl.remove sim.live_local_at tid
  | action :: rest -> (
      match Local_dbms.submit (site sim sid) tid action with
      | Local_dbms.Executed _ ->
          if rest = [] then begin
            sim.committed_local <- sim.committed_local + 1;
            sim.live_locals <- sim.live_locals - 1;
            Hashtbl.remove sim.live_local_at tid
          end
          else schedule sim (service_at sim sid) (Local_step (sid, tid, rest));
          drain_site sim sid
      | Local_dbms.Waiting -> Hashtbl.replace sim.local_cont tid (sid, rest, sim.clock)
      | Local_dbms.Aborted _ ->
          sim.aborted_local <- sim.aborted_local + 1;
          sim.live_locals <- sim.live_locals - 1;
          Hashtbl.remove sim.live_local_at tid;
          drain_site sim sid)

(* Kill the youngest global transaction blocked longer than the timeout. *)
let deadlock_scan sim =
  let victims =
    Hashtbl.fold
      (fun (sid, gid) (_, pc, since) acc ->
        if sim.clock -. since >= sim.config.deadlock_timeout_ms then
          (gid, sid, pc) :: acc
        else acc)
      sim.pending_global []
  in
  match List.sort (fun (a, _, _) (b, _, _) -> compare b a) victims with
  | [] -> ()
  | (gid, sid, pc) :: _ ->
      sim.forced_aborts <- sim.forced_aborts + 1;
      Hashtbl.remove sim.pending_global (sid, gid);
      end_blocked_span sim (sid, gid) ~outcome:"deadlock-timeout";
      if tracing sim then
        Sink.instant sim.obs.Obs.sink
          ~track:(Sink.txn_track sim.obs.Obs.sink gid)
          ~attrs:[ ("site", string_of_int sid) ]
          "deadlock.kill";
      (* The site gives up the blocked operation: the GTM hears a refusal. *)
      ignore (Local_dbms.submit (site sim sid) gid Op.Abort);
      resolve_prepared sim sid gid;
      accept ~outcome:"global-deadlock" sim gid pc (Coord.Refused "global-deadlock");
      drain_site sim sid

(* --- fault application ------------------------------------------------- *)

(* Crash and restart a site. Volatile state (protocol, blocked operations,
   the operation-dedup memory) dies; storage recovers from the WAL; prepared
   transactions survive in doubt. The GTM treats every transaction that had
   reached the site without preparing there as aborted by the crash. *)
let apply_site_crash sim sid =
  sim.site_crashes <- sim.site_crashes + 1;
  let dbms = site sim sid in
  Local_dbms.crash dbms;
  let stale =
    Hashtbl.fold
      (fun ((s, _, _) as key) _ acc -> if s = sid then key :: acc else acc)
      sim.dedup []
  in
  List.iter (Hashtbl.remove sim.dedup) stale;
  let blocked =
    Hashtbl.fold
      (fun ((s, _) as key) _ acc -> if s = sid then key :: acc else acc)
      sim.pending_global []
  in
  List.iter
    (fun key ->
      Hashtbl.remove sim.pending_global key;
      end_blocked_span sim key ~outcome:"site-crash")
    blocked;
  (* Local transactions active here died with the site. *)
  let dead_locals =
    Hashtbl.fold
      (fun tid s acc -> if s = sid then tid :: acc else acc)
      sim.live_local_at []
  in
  List.iter
    (fun tid ->
      Hashtbl.replace sim.dead_local tid ();
      Hashtbl.remove sim.live_local_at tid;
      Hashtbl.remove sim.local_cont tid;
      sim.aborted_local <- sim.aborted_local + 1;
      sim.live_locals <- sim.live_locals - 1)
    (List.sort compare dead_locals);
  (* Global subtransactions that reached this site without preparing were
     wiped (including any whose current operation targeted the site — its
     outcome, if any, is unrecoverable). In-doubt ones survive. *)
  Coord.site_crash sim.coord sid ~in_doubt:(Local_dbms.in_doubt dbms)

(* Crash and restart the GTM. Volatile state — GTM1 program counters, the
   engine's QUEUE/WAIT, the scheme's structures, in-flight message
   bookkeeping — is lost; the durable log survives. Recovery is presumed
   abort: unfinished transactions with a logged Commit decision are
   completed at every site; all others are aborted everywhere. Messages of
   the previous incarnation still in the network die against the new
   core's reply matching. *)
let apply_gtm_crash sim =
  sim.gtm_recoveries <- sim.gtm_recoveries + 1;
  sim.ser_waits <- sim.ser_waits + Engine.ser_wait_insertions sim.engine;
  sim.scheme_steps <- sim.scheme_steps + (Engine.scheme sim.engine).Scheme.steps ();
  (* Close the dying incarnation's open wait spans before the engine is
     replaced; they are the deepest frames on their transactions' tracks. *)
  Engine.close_open_spans sim.engine ~reason:"gtm-crash";
  sim.engine <- Engine.create ~obs:sim.obs (sim.make_scheme ());
  sim.coord <- new_coord sim;
  if tracing sim then
    Sink.instant sim.obs.Obs.sink ~track:sim.gtm_track
      ~attrs:
        [
          ( "unfinished",
            string_of_int (List.length (Gtm_log.analyze sim.gtm_log)) );
        ]
      "gtm.crash";
  Coord.recover sim.coord sim.gtm_log

let apply_fault sim = function
  | Fault.Site_crash sid -> apply_site_crash sim sid
  | Fault.Gtm_crash -> apply_gtm_crash sim
  | Fault.Slow_site { sid; factor; duration } ->
      Hashtbl.replace sim.slow sid (factor, sim.clock +. duration)

let handle_event sim event =
  match event with
  | Global_arrival (txn, budget, started) -> admit_global sim txn budget started
  | Local_arrival (sid, txn, _budget) ->
      let dbms = site sim sid in
      if Local_dbms.needs_declarations dbms then
        Local_dbms.declare dbms txn.Txn.id
          (List.map
             (fun (item, write) ->
               (item, if write then Cc_types.Write_mode else Cc_types.Read_mode))
             (Txn.accesses_at txn sid));
      Hashtbl.replace sim.live_local_at txn.Txn.id sid;
      handle_local_step sim sid txn.Txn.id (List.map (fun s -> s.Txn.action) txn.Txn.script)
  | Site_deliver (sid, tid, pc, action, kind) ->
      handle_site_deliver sim sid tid pc action kind
  | Site_abort (sid, gid) ->
      Hashtbl.remove sim.pending_global (sid, gid);
      end_blocked_span sim (sid, gid) ~outcome:"aborted";
      if Local_dbms.is_active (site sim sid) gid then
        ignore (Local_dbms.submit (site sim sid) gid Op.Abort);
      resolve_prepared sim sid gid;
      drain_site sim sid
  | Local_step (sid, tid, actions) ->
      if not (Hashtbl.mem sim.dead_local tid) then
        handle_local_step sim sid tid actions
  | Gtm_ack (gid, pc, None) -> accept sim gid pc Coord.Done
  | Gtm_ack (gid, pc, Some reason) ->
      accept ~outcome:reason sim gid pc (Coord.Refused reason)
  | Deadlock_scan ->
      deadlock_scan sim;
      if sim.live_globals > 0 then
        schedule sim sim.config.deadlock_timeout_ms Deadlock_scan
  | Fault_event fault -> apply_fault sim fault
  | Retry_check (gid, pc, attempt) ->
      if Coord.awaiting sim.coord gid = Some pc then begin
        let step =
          match Coord.current_step sim.coord gid with
          | Some s -> s
          | None -> assert false
        in
        let kind = if step.Gtm1.via_gtm2 then Ser_op else Direct_op in
        if Coord.is_dead sim.coord gid then
          (* Dead and its resolution message was lost: complete the step
             internally so the transaction drains. *)
          accept sim gid pc Coord.Done
        else if
          attempt >= sim.config.max_retries
          && (not (Coord.commit_decided sim.coord gid))
          && Coord.kill sim.coord gid "retry-exhausted"
        then
          (* Retries exhausted before a decision: presume the site
             unreachable and abort. A decided Commit is never abandoned —
             it keeps retrying (the site will answer eventually). *)
          accept sim gid pc Coord.Done
        else begin
          sim.retries <- sim.retries + 1;
          if tracing sim then
            Sink.instant sim.obs.Obs.sink
              ~track:(Sink.txn_track sim.obs.Obs.sink gid)
              ~attrs:
                [
                  ("attempt", string_of_int (attempt + 1));
                  ("site", string_of_int step.Gtm1.site);
                ]
              "retry";
          send_to_site sim step.Gtm1.site gid pc step.Gtm1.action kind
            ~attempt:(attempt + 1)
        end
      end
  | Recovery_commit (sid, gid) ->
      let dbms = site sim sid in
      if Local_dbms.is_active dbms gid then
        ignore (Local_dbms.submit dbms gid Op.Commit);
      resolve_prepared sim sid gid;
      drain_site sim sid

(* Single source for the result's scalar fields: the JSON export and the
   metrics snapshot both read this list, so they cannot drift. *)
let result_fields r =
  [
    ("scheme", Json.Str r.scheme_name);
    ("committed_global", Json.Int r.committed_global);
    ("failed_global", Json.Int r.failed_global);
    ("restarts", Json.Int r.restarts);
    ("committed_local", Json.Int r.committed_local);
    ("aborted_local", Json.Int r.aborted_local);
    ("forced_aborts", Json.Int r.forced_aborts);
    ("ser_waits", Json.Int r.ser_waits);
    ("scheme_steps", Json.Int r.scheme_steps);
    ("makespan_ms", Json.Float r.makespan_ms);
    ("throughput_per_s", Json.Float r.throughput_per_s);
    ("mean_response_ms", Json.Float r.mean_response_ms);
    ("p95_response_ms", Json.Float r.p95_response_ms);
    ("serializable", Json.Bool r.serializable);
    ("ser_s_serializable", Json.Bool r.ser_s_serializable);
    ("races", Json.Int r.races);
    ("site_crashes", Json.Int r.site_crashes);
    ("gtm_recoveries", Json.Int r.gtm_recoveries);
    ("msg_drops", Json.Int r.msg_drops);
    ("msg_dups", Json.Int r.msg_dups);
    ("retries", Json.Int r.retries);
    ("in_doubt_resolved", Json.Int r.in_doubt_resolved);
  ]

(* Mirror the end-of-run result into the metrics registry: Int fields become
   [des_<field>] counters, Float/Bool fields gauges. *)
let publish_result_metrics metrics r =
  List.iter
    (fun (name, v) ->
      let name = "des_" ^ name in
      match v with
      | Json.Int n -> Metrics.inc ~by:n (Metrics.counter metrics name)
      | Json.Float f -> Metrics.set (Metrics.gauge metrics name) f
      | Json.Bool b ->
          Metrics.set (Metrics.gauge metrics name) (if b then 1.0 else 0.0)
      | _ -> ())
    (result_fields r)

let run_scheme config make_scheme =
  let faults_enabled = not (Fault.is_none config.faults) in
  let workload =
    if faults_enabled then { config.workload with Workload.durable = true }
    else config.workload
  in
  let rng = Rng.create config.seed in
  let sites = Workload.make_sites workload in
  let site_tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace site_tbl (Local_dbms.site_id s) s) sites;
  let first_scheme = make_scheme () in
  let scheme_name = first_scheme.Scheme.name in
  let obs = config.obs in
  let sim =
    {
      config;
      engine = Engine.create ~obs first_scheme;
      (* A core with no effects until [sim] exists; replaced below. *)
      coord =
        Coord.create ~atomic:false ~protocol_of:(fun _ -> Types.Two_phase_locking)
          ~gtm2:(fun _ -> []) ~perform:(fun _ _ -> ()) ();
      make_scheme;
      gtm_log = Gtm_log.create ();
      site_tbl;
      heap =
        Binary_heap.create
          ~cmp:(fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2))
          ();
      seq = 0;
      clock = 0.0;
      last_commit = 0.0;
      rng;
      faults_enabled;
      link_rng = Rng.create (config.faults.Fault.link_seed + 1);
      ser_log = Ser_schedule.create ();
      pending_global = Hashtbl.create 32;
      local_cont = Hashtbl.create 32;
      started = Hashtbl.create 64;
      budgets = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      slow = Hashtbl.create 4;
      dead_local = Hashtbl.create 16;
      live_local_at = Hashtbl.create 32;
      committed_global = 0;
      failed_global = 0;
      restarts = 0;
      committed_local = 0;
      aborted_local = 0;
      forced_aborts = 0;
      ser_waits = 0;
      scheme_steps = 0;
      responses = [];
      live_globals = config.n_global;
      live_locals = config.locals_per_site * workload.Workload.m;
      global_attempts = [];
      site_crashes = 0;
      gtm_recoveries = 0;
      msg_drops = 0;
      msg_dups = 0;
      retries = 0;
      in_doubt_resolved = 0;
      obs;
      txn_spans = Hashtbl.create 64;
      op_spans = Hashtbl.create 32;
      blocked_spans = Hashtbl.create 32;
      prepared_at = Hashtbl.create 32;
      m_abort_causes = Hashtbl.create 8;
      m_ser_latency = Metrics.histogram obs.Obs.metrics "des_ser_latency_ms";
      m_response = Metrics.histogram obs.Obs.metrics "des_response_ms";
      m_in_doubt = Metrics.histogram obs.Obs.metrics "des_in_doubt_ms";
      net_track = Sink.track obs.Obs.sink "net";
      gtm_track = Sink.track obs.Obs.sink "gtm";
    }
  in
  sim.coord <- new_coord sim;
  (* Span/metric timestamps are simulated time, read live off the clock. *)
  Obs.set_clock obs (fun () -> sim.clock);
  if obs.Obs.live then
    List.iter (fun dbms -> Local_dbms.attach_obs dbms obs) sites;
  (* Arrival processes. *)
  let t = ref 0.0 in
  for _ = 1 to config.n_global do
    t := !t +. Rng.exponential rng config.global_rate;
    let txn = Workload.global_txn rng workload in
    sim.seq <- sim.seq + 1;
    Binary_heap.push sim.heap (!t, sim.seq, Global_arrival (txn, config.max_restarts, !t))
  done;
  List.iter
    (fun dbms ->
      let sid = Local_dbms.site_id dbms in
      let t = ref 0.0 in
      for _ = 1 to config.locals_per_site do
        t := !t +. Rng.exponential rng config.local_rate;
        let txn = Workload.local_txn rng workload sid in
        sim.seq <- sim.seq + 1;
        Binary_heap.push sim.heap (!t, sim.seq, Local_arrival (sid, txn, 0))
      done)
    sites;
  schedule sim config.deadlock_timeout_ms Deadlock_scan;
  if faults_enabled then
    List.iter
      (fun (at, fault) ->
        sim.seq <- sim.seq + 1;
        Binary_heap.push sim.heap (at, sim.seq, Fault_event fault))
      config.faults.Fault.events;
  (* Main loop. *)
  let steps = ref 0 in
  let continue_running = ref true in
  while !continue_running do
    match Binary_heap.pop sim.heap with
    | None -> continue_running := false
    | Some (time, _, event) ->
        incr steps;
        if !steps > 2_000_000 then failwith "Des: event budget exceeded";
        sim.clock <- time;
        handle_event sim event;
        ignore (Coord.pump sim.coord)
  done;
  (* Close anything still open so exported traces are well-formed: the
     engine's wait spans are deepest, then each surviving transaction's
     blocked/op/txn spans (end_txn_span keeps the LIFO order), then any
     orphans. *)
  if sim.obs.Obs.live then begin
    Engine.close_open_spans sim.engine ~reason:"end-of-run";
    let keys tbl = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl []) in
    List.iter (fun g -> end_txn_span sim g ~outcome:"end-of-run") (keys sim.txn_spans);
    List.iter (fun k -> end_blocked_span sim k ~outcome:"end-of-run") (keys sim.blocked_spans);
    List.iter (fun g -> ignore (end_op_span sim g ~outcome:"end-of-run")) (keys sim.op_spans)
  end;
  let schedules = List.map Local_dbms.schedule sites in
  let responses = sim.responses in
  let attempts = List.rev sim.global_attempts in
  let trace =
    Mdbs_analysis.Trace.of_schedules
      ~protocols:
        (List.map
           (fun dbms -> (Local_dbms.site_id dbms, Local_dbms.protocol_kind dbms))
           sites)
      ~globals:(List.map (fun txn -> (txn.Txn.id, Txn.sites txn)) attempts)
      ~ser_events:(Ser_schedule.events sim.ser_log)
      schedules
  in
  let races = List.length (Mdbs_analysis.Race.detect trace) in
  let result =
    {
      scheme_name;
      committed_global = sim.committed_global;
      failed_global = sim.failed_global;
      restarts = sim.restarts;
      committed_local = sim.committed_local;
      aborted_local = sim.aborted_local;
      forced_aborts = sim.forced_aborts;
      ser_waits = sim.ser_waits + Engine.ser_wait_insertions sim.engine;
      scheme_steps =
        sim.scheme_steps + (Engine.scheme sim.engine).Scheme.steps ();
      makespan_ms = sim.clock;
      throughput_per_s =
        (if sim.last_commit > 0.0 then
           float_of_int sim.committed_global /. sim.last_commit *. 1000.0
         else 0.0);
      mean_response_ms = (match responses with [] -> 0.0 | _ -> Stats.mean responses);
      p95_response_ms =
        (match responses with [] -> 0.0 | _ -> Stats.percentile responses 95.0);
      serializable = Serializability.is_serializable schedules;
      ser_s_serializable = Ser_schedule.is_serializable sim.ser_log;
      races;
      site_crashes = sim.site_crashes;
      gtm_recoveries = sim.gtm_recoveries;
      msg_drops = sim.msg_drops;
      msg_dups = sim.msg_dups;
      retries = sim.retries;
      in_doubt_resolved = sim.in_doubt_resolved;
    }
  in
  if sim.obs.Obs.live then publish_result_metrics sim.obs.Obs.metrics result;
  { result; trace; sites; attempts; obs = sim.obs }

let run config scheme =
  if List.exists (fun (_, f) -> f = Fault.Gtm_crash) config.faults.Fault.events
  then
    invalid_arg
      "Des.run: a plan with GTM crashes needs a scheme factory (use run_full)";
  (run_scheme config (fun () -> scheme)).result

let run_full config kind =
  Types.reset_tids ();
  run_scheme config (fun () -> Registry.make kind)

let run_kind config kind = (run_full config kind).result

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d committed (%d failed, %d restarts), throughput %.1f/s, \
     response mean %.1f ms / p95 %.1f ms; locals %d/%d; forced %d; waits %d; \
     steps %d; CSR %b; ser(S) %b; races %d@]"
    r.scheme_name r.committed_global r.failed_global r.restarts r.throughput_per_s
    r.mean_response_ms r.p95_response_ms r.committed_local r.aborted_local
    r.forced_aborts r.ser_waits r.scheme_steps r.serializable r.ser_s_serializable
    r.races;
  if
    r.site_crashes + r.gtm_recoveries + r.msg_drops + r.msg_dups + r.retries
    + r.in_doubt_resolved
    > 0
  then
    Format.fprintf ppf
      "@,  faults: %d site crash(es), %d GTM recover(ies), %d drop(s), \
       %d dup(s), %d retr(ies), %d resolved by recovery"
      r.site_crashes r.gtm_recoveries r.msg_drops r.msg_dups r.retries
      r.in_doubt_resolved

let result_to_json r = Json.Obj (result_fields r)
