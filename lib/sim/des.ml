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
module Server = Mdbs_site.Server
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

(* One attempt of a logical global transaction. *)
type attempt = {
  txn : Txn.t;
  budget : int; (* restarts left *)
  started : float; (* the logical transaction's first arrival *)
  birth : Types.gid; (* its first attempt's gid: the wound-wait age *)
}

type event =
  | Global_arrival of attempt
  | Local_arrival of Types.sid * Txn.t * int
  | Site_deliver of Types.sid * Types.tid * int * Op.action * op_kind
      (* operation [pc] of a global transaction reaches its site *)
  | Site_resolve of Types.sid * Types.gid * Op.action
      (* a rollback, or a recovered GTM's verdict, reaches the site *)
  | Local_step of Types.sid * Types.tid (* a local's next action *)
  | Gtm_ack of Types.gid * int * Coord.reply
      (* a site's answer for operation [pc] *)
  | Tick (* the victim policy's timer *)
  | Fault_event of Fault.fault
  | Retry_check of Types.gid * int * int (* gid, pc, attempt *)

type sim = {
  config : config;
  mutable engine : Engine.t; (* volatile: replaced at a GTM crash *)
  mutable coord : Coord.t; (* volatile: replaced at a GTM crash *)
  make_scheme : unit -> Scheme.t; (* fresh scheme for a restarted GTM *)
  gtm_log : Gtm_log.t; (* the GTM's stable storage *)
  servers : (Types.sid, Server.t) Hashtbl.t;
  heap : (float * int * event) Binary_heap.t;
  mutable seq : int;
  mutable clock : float;
  mutable last_commit : float;
  rng : Rng.t;
  faults_enabled : bool;
  link_rng : Rng.t; (* dedicated stream: link faults are plan-deterministic *)
  ser_log : Ser_schedule.t;
  (* blocked operations at sites: value = (kind, pc) *)
  pending_global : (Types.sid * Types.gid, op_kind * int) Hashtbl.t;
  attempts_live : (Types.gid, attempt) Hashtbl.t; (* admitted, not finished *)
  (* per-site memory of executed operations (volatile, dies with the site):
     a redelivered operation is re-acknowledged from here, never re-run *)
  dedup : (Types.sid * Types.gid * int, Coord.reply) Hashtbl.t;
  slow : (Types.sid, float * float) Hashtbl.t; (* factor, until *)
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

let server sim sid = Hashtbl.find sim.servers sid

let site sim sid = Server.dbms (server sim sid)

(* --- observability helpers --------------------------------------------- *)

let tracing sim = Sink.enabled sim.obs.Obs.sink

(* Coarse cause bucket for the aborts-by-cause counter. *)
let abort_cause reason =
  if String.length reason >= 7 && String.sub reason 0 7 = "ticket:" then
    "ticket-conflict"
  else
    match reason with
    | "wait-die" | "deadlock" | "c2pl-deadlock" -> "deadlock"
    | "wound" -> "wound"
    | "stall-deadline" | "stall-timeout" -> "stall_kill"
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
   ser-latency histogram). A site hears of a kill one link latency after
   the GTM decided, so the step's [site.blocked] child may still be open:
   it closes first, keeping the track's close order LIFO. *)
let end_op_span sim gid ~outcome =
  match Hashtbl.find_opt sim.op_spans gid with
  | Some (span, t0) ->
      Hashtbl.remove sim.op_spans gid;
      Hashtbl.fold
        (fun ((_, g) as key) _ acc -> if g = gid then key :: acc else acc)
        sim.blocked_spans []
      |> List.iter (fun key -> end_blocked_span sim key ~outcome);
      Sink.end_span sim.obs.Obs.sink ~attrs:[ ("outcome", outcome) ] span;
      Some t0
  | None -> None

let end_txn_span sim gid ~outcome =
  match Hashtbl.find_opt sim.txn_spans gid with
  | Some span ->
      Hashtbl.remove sim.txn_spans gid;
      (* Close the open step (and its blocked child) first, so the
         per-track close order stays LIFO even on abort/crash paths. *)
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

(* Answer operation [pc] back to the GTM (also a faulty link). *)
let ack_to_gtm sim gid pc answer ~extra =
  send_link sim ~extra (Gtm_ack (gid, pc, answer))

(* The GTM takes a site's answer for step [pc] through the core, which
   drops stale ones (a duplicate, or a message that outlived a retry or a
   GTM restart). The step's span closes at the core's [Acked] record. *)
let accept sim gid pc answer =
  ignore (Coord.reply sim.coord gid ~pc ~now:sim.clock answer)

(* Where a local transaction's last action left it: its next action runs
   one service time later. *)
let local_progress sim sid tid = function
  | Server.Ready -> schedule sim (service_at sim sid) (Local_step (sid, tid))
  | Server.Parked -> ()
  | Server.Committed ->
      sim.committed_local <- sim.committed_local + 1;
      sim.live_locals <- sim.live_locals - 1
  | Server.Aborted _ ->
      sim.aborted_local <- sim.aborted_local + 1;
      sim.live_locals <- sim.live_locals - 1

(* Process completions that a site event may have unblocked. *)
let drain_site sim sid =
  List.iter
    (function
      | Server.Unblocked (tid, _) -> (
          match Hashtbl.find_opt sim.pending_global (sid, tid) with
          | Some (kind, pc) ->
              Hashtbl.remove sim.pending_global (sid, tid);
              end_blocked_span sim (sid, tid) ~outcome:"completed";
              if sim.faults_enabled then Hashtbl.replace sim.dedup (sid, tid, pc) Coord.Done;
              (match kind with
              | Ser_op -> Ser_schedule.record sim.ser_log sid tid
              | Direct_op -> ());
              ack_to_gtm sim tid pc Coord.Done ~extra:(service_at sim sid)
          | None -> ())
      | Server.Resumed (tid, _, progress) -> local_progress sim sid tid progress)
    (Server.drain (server sim sid))

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
   has no client to retry for: aborted, it fails rather than restarts. A
   restart keeps the first attempt's start time and birth. *)
let finish_global sim gid outcome ~recovered =
  let attempt = Hashtbl.find sim.attempts_live gid in
  Hashtbl.remove sim.attempts_live gid;
  let span_outcome =
    match outcome with
    | Coord.Committed ->
        sim.committed_global <- sim.committed_global + 1;
        sim.live_globals <- sim.live_globals - 1;
        sim.last_commit <- sim.clock;
        let response = sim.clock -. attempt.started in
        sim.responses <- response :: sim.responses;
        if sim.obs.Obs.live && not recovered then
          Metrics.observe sim.m_response response;
        if recovered then "recovered-commit" else "committed"
    | Coord.Aborted reason when attempt.budget > 0 && not recovered ->
        sim.restarts <- sim.restarts + 1;
        let txn = { attempt.txn with Txn.id = Types.fresh_tid () } in
        (* Back off a little before retrying. *)
        schedule sim (2.0 *. sim.config.latency_ms)
          (Global_arrival { attempt with txn; budget = attempt.budget - 1 });
        "restart:" ^ reason
    | Coord.Aborted reason ->
        sim.failed_global <- sim.failed_global + 1;
        sim.live_globals <- sim.live_globals - 1;
        if recovered then "recovered-abort" else "failed:" ^ reason
  in
  if recovered then sim.in_doubt_resolved <- sim.in_doubt_resolved + 1;
  end_txn_span sim gid ~outcome:span_outcome

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
      schedule sim sim.config.latency_ms (Site_resolve (sid, gid, Op.Abort))
  | Coord.Resolve (gid, sid, Gtm_log.Commit) ->
      schedule sim sim.config.latency_ms (Site_resolve (sid, gid, Op.Commit))
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
      | Gtm_log.Acked (gid, _) -> (
          (* The step's round trip is over; a dead global's says why it
             died. *)
          let outcome =
            Option.value (Coord.death_reason coord gid) ~default:"acked"
          in
          match end_op_span sim gid ~outcome with
          | Some t0 when sim.obs.Obs.live && ser_step gid <> None ->
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
  Coord.create
    ~blockers:(fun op -> (Engine.scheme sim.engine).Scheme.blockers op)
    ~atomic:sim.config.atomic_commit
    ~protocol_of:(fun sid -> Local_dbms.protocol_kind (site sim sid))
    ~gtm2:(gtm2 sim) ~perform:(perform sim) ()

let admit_global sim ({ txn; budget; started = _; birth } as attempt) =
  Coord.admit ~birth sim.coord txn;
  sim.global_attempts <- txn :: sim.global_attempts;
  Hashtbl.replace sim.attempts_live txn.Txn.id attempt;
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
    | Direct_op -> ack_to_gtm sim tid pc Coord.Done ~extra:0.0
  end
  else if sim.faults_enabled && Hashtbl.mem sim.dedup (sid, tid, pc) then
    (* Redelivery of an executed operation: re-acknowledge the cached
       outcome; never re-execute, never re-record ser(S). *)
    ack_to_gtm sim tid pc (Hashtbl.find sim.dedup (sid, tid, pc)) ~extra:0.0
  else if sim.faults_enabled && Hashtbl.mem sim.pending_global (sid, tid) then
    (* Redelivery of an operation still blocked here: say so again (the
       first answer may have been lost); its completion answers Done. *)
    ack_to_gtm sim tid pc Coord.Blocked ~extra:0.0
  else if
    sim.faults_enabled && action = Op.Prepare
    && List.mem tid (Local_dbms.in_doubt (site sim sid))
  then begin
    (* Retried prepare for a transaction already prepared (and carried
       through a site crash): the vote stands. *)
    Hashtbl.replace sim.dedup (sid, tid, pc) Coord.Done;
    ack_to_gtm sim tid pc Coord.Done ~extra:0.0
  end
  else
    match
      Server.step (server sim sid) tid
        ~accesses:(Coord.declaration sim.coord tid sid) action
    with
    | { Server.known = false; answer; _ } ->
        (* The restarted site forgot the transaction and answered without
           running the step. *)
        ack_to_gtm sim tid pc answer ~extra:0.0
    | { Server.answer = Server.Done; value; _ } ->
        if sim.faults_enabled then Hashtbl.replace sim.dedup (sid, tid, pc) Coord.Done;
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
                      match value with Some v -> string_of_int v | None -> "?" );
                  ]
                "ticket"
        | Op.Begin | Op.Read _ | Op.Write _ -> ());
        (match kind with
        | Ser_op -> Ser_schedule.record sim.ser_log sid tid
        | Direct_op -> ());
        ack_to_gtm sim tid pc Coord.Done ~extra:(service_at sim sid);
        drain_site sim sid
    | { Server.answer = Server.Blocked; _ } ->
        (* The GTM hears of the wait: it starts the global's wait clock
           for the victim policy. *)
        ack_to_gtm sim tid pc Coord.Blocked ~extra:0.0;
        Hashtbl.replace sim.pending_global (sid, tid) (kind, pc);
        if tracing sim then
          Hashtbl.replace sim.blocked_spans (sid, tid)
            (Sink.begin_span sim.obs.Obs.sink
               ~track:(Sink.txn_track sim.obs.Obs.sink tid)
               ~attrs:
                 [ ("site", string_of_int sid); ("action", Op.action_to_string action) ]
               "site.blocked")
    | { Server.answer = Server.Refused reason; _ } ->
        (* A rejected ticket operation is the scheme's serialization
           conflict — classify it apart from ordinary data conflicts. *)
        let reason = if action = Op.Ticket_op then "ticket:" ^ reason else reason in
        if sim.faults_enabled then
          Hashtbl.replace sim.dedup (sid, tid, pc) (Coord.Refused reason);
        ack_to_gtm sim tid pc (Coord.Refused reason) ~extra:0.0;
        drain_site sim sid

let handle_local_step sim sid tid =
  let progress = snd (Server.local_step (server sim sid) tid) in
  local_progress sim sid tid progress;
  if progress <> Server.Parked then drain_site sim sid

(* --- fault application ------------------------------------------------- *)

(* Crash and restart a site. Volatile state (protocol, blocked operations,
   the operation-dedup memory) dies; storage recovers from the WAL; prepared
   transactions survive in doubt. The GTM treats every transaction that had
   reached the site without preparing there as aborted by the crash. *)
let apply_site_crash sim sid =
  match Server.crash (server sim sid) with
  | None -> () (* no write-ahead log: nothing to crash *)
  | Some { Server.in_doubt; dead_locals } ->
      sim.site_crashes <- sim.site_crashes + 1;
      Hashtbl.filter_map_inplace
        (fun (s, _, _) answer -> if s = sid then None else Some answer)
        sim.dedup;
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
      let dead = List.length dead_locals in
      sim.aborted_local <- sim.aborted_local + dead;
      sim.live_locals <- sim.live_locals - dead;
      (* Global subtransactions that reached this site without preparing
         were wiped (including any whose current operation targeted the
         site — its outcome, if any, is unrecoverable). In-doubt ones
         survive. *)
      Coord.site_crash sim.coord sid ~in_doubt

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
  | Global_arrival attempt -> admit_global sim attempt
  | Local_arrival (sid, txn, _budget) ->
      Server.start_local (server sim sid) txn;
      handle_local_step sim sid txn.Txn.id
  | Site_deliver (sid, tid, pc, action, kind) ->
      handle_site_deliver sim sid tid pc action kind
  | Site_resolve (sid, gid, action) ->
      (* Only a rollback can meet a blocked step: no Commit ever blocks. *)
      Hashtbl.remove sim.pending_global (sid, gid);
      end_blocked_span sim (sid, gid) ~outcome:"aborted";
      Server.resolve (server sim sid) gid action;
      resolve_prepared sim sid gid;
      drain_site sim sid
  | Local_step (sid, tid) ->
      (* A site crash may have killed it since. *)
      if Server.is_local (server sim sid) tid then handle_local_step sim sid tid
  | Gtm_ack (gid, pc, answer) -> accept sim gid pc answer
  | Tick ->
      Option.iter
        (fun { Coord.victim; reason; wounder } ->
          sim.forced_aborts <- sim.forced_aborts + 1;
          if tracing sim then
            Sink.instant sim.obs.Obs.sink
              ~track:(Sink.txn_track sim.obs.Obs.sink victim)
              ~attrs:
                (("reason", reason)
                :: Option.fold wounder ~none:[] ~some:(fun w ->
                       [ ("wounder", string_of_int w) ]))
              "victim")
        (Coord.tick sim.coord ~now:sim.clock);
      if sim.live_globals > 0 then schedule sim Coord.default_tick_ms Tick
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
  let servers = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace servers (Local_dbms.site_id s) (Server.create s)) sites;
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
      servers;
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
      attempts_live = Hashtbl.create 64;
      dedup = Hashtbl.create 256;
      slow = Hashtbl.create 4;
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
    Binary_heap.push sim.heap
      ( !t,
        sim.seq,
        Global_arrival
          { txn; budget = config.max_restarts; started = !t; birth = txn.Txn.id } )
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
  schedule sim Coord.default_tick_ms Tick;
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
