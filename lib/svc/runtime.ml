open Mdbs_model
module Local_dbms = Mdbs_site.Local_dbms
module Gtm1 = Mdbs_core.Gtm1
module Coord = Mdbs_core.Coord
module Scheme = Mdbs_core.Scheme
module Engine = Mdbs_core.Engine
module Obs = Mdbs_obs.Obs
module Sink = Mdbs_obs.Sink
module Metrics = Mdbs_obs.Metrics
module Timeseries = Mdbs_obs.Timeseries
module Export = Mdbs_obs.Export
module Slo = Mdbs_obs.Slo
module Flight = Mdbs_obs.Flight
module Trace = Mdbs_analysis.Trace
module Analysis = Mdbs_analysis.Analysis
module Incremental = Mdbs_analysis.Incremental

type certify_mode = Certify_batch | Certify_live | Certify_soak

type config = {
  scheme : Scheme.t;
  sites : Local_dbms.t list;
  atomic_commit : bool;
  capacity : int;
  max_active : int;
  stall_timeout_ms : float;
  wound_after_ms : float;
  tick_ms : float;
  shed_parked : int;
  shed_blocked : int;
  obs : Obs.t;
  certify : certify_mode;
  cert_checkpoint_every : int;
  telemetry_out : string option;
  openmetrics_out : string option;
  telemetry_interval_ms : float;
  slos : Slo.spec list;
  flight_dump : string option;
}

let config ?(atomic_commit = false) ?(capacity = 64) ?(max_active = 64)
    ?(stall_timeout_ms = Coord.default_deadline_ms) ?wound_after_ms
    ?(tick_ms = Coord.default_tick_ms) ?shed_parked
    ?shed_blocked ?(obs = Obs.disabled) ?(certify = Certify_batch)
    ?(cert_checkpoint_every = 4096) ?telemetry_out ?openmetrics_out
    ?(telemetry_interval_ms = 1000.) ?(slos = []) ?flight_dump ~scheme ~sites
    () =
  if capacity < 1 then invalid_arg "Runtime.config: capacity < 1";
  if max_active < 1 then invalid_arg "Runtime.config: max_active < 1";
  if cert_checkpoint_every < 1 then
    invalid_arg "Runtime.config: cert_checkpoint_every < 1";
  let wound_after_ms =
    match wound_after_ms with
    | Some w ->
        if w <= 0. then invalid_arg "Runtime.config: wound_after_ms <= 0";
        w
    | None ->
        (* A few ticks of patience before wounding, but never past the hard
           deadline. *)
        Float.min (Float.max (4. *. tick_ms) Coord.default_wound_ms)
          stall_timeout_ms
  in
  let shed_parked =
    match shed_parked with Some n -> n | None -> 8 * max_active
  in
  let shed_blocked =
    match shed_blocked with Some n -> n | None -> max_active
  in
  if shed_parked < 1 then invalid_arg "Runtime.config: shed_parked < 1";
  if shed_blocked < 1 then invalid_arg "Runtime.config: shed_blocked < 1";
  if telemetry_interval_ms <= 0. then
    invalid_arg "Runtime.config: telemetry_interval_ms <= 0";
  { scheme; sites; atomic_commit; capacity; max_active; stall_timeout_ms;
    wound_after_ms; tick_ms; shed_parked; shed_blocked; obs; certify;
    cert_checkpoint_every; telemetry_out; openmetrics_out;
    telemetry_interval_ms; slos; flight_dump }

type msg =
  | Admit of { txn : Txn.t; birth : int; promise : Outcome.t Promise.t }
      (** [birth] is the age stamp for wound-wait: the gid of the logical
          transaction's {e first} attempt (a retry inherits it, so a
          transaction only grows older relative to the live population). *)
  | Replies of Site_worker.reply list
      (** One coalesced wakeup's worth of worker replies, in execution
          order. *)
  | Tick

type stats = {
  admitted : int;
  committed : int;
  aborted : int;
  rejected : int;
  sheds : int;
  force_aborts : int;
  wounds : int;
  stall_kills : int;
  site_crashes : int;
  active : int;
  inbox_hwm : int;
  abort_causes : (string * int) list;
  ops_per_site : (Types.sid * int) list;
}

(* Every abort (and shed) lands in exactly one cause bucket — the
   svc_aborts_total{cause} breakdown the bench reports. *)
let abort_cause_names =
  [ "wound"; "stall_kill"; "scheme_reject"; "shed"; "crash"; "other" ]

let cause_of_reason = function
  | "wound" -> "wound"
  | "stall-timeout" | "stall-deadline" -> "stall_kill"
  | "site-crash" | "site-amnesia" -> "crash"
  | "shutdown" | "duplicate-admission" -> "other"
  | _ -> "scheme_reject"

type result = {
  scheme_name : string;
  trace : Trace.t;
  analysis : Analysis.t;
  certified : bool;
  live : Live_cert.summary option;
  run_stats : stats;
  elapsed_ms : float;
  wait_insertions : int;
  ser_waits : int;
  engine_steps : int;
  scheme_steps : int;
  slo : Slo.summary option;
  flight_dumps : (string * string) list;
  durable_bytes : int;
}

(* Live-telemetry state, owned by the ticker thread (window flushes) with
   a final flush from {!shutdown} after every domain joined — [tl_lock]
   serializes the two. Flushing takes only the Metrics registration lock
   (inside {!Metrics.snapshot}); it never touches sink_mutex or the sched
   lock, so no ordering with them arises. *)
type telem = {
  tl_ts : Timeseries.t;
  tl_slo : Slo.t option;
  tl_jsonl : out_channel option;
  tl_om_path : string option;
  tl_metrics : Metrics.t;
  tl_lock : Mutex.t;
  mutable tl_breach_dumped : bool;
}

(* Everything both the GTM domain and the client-facing API touch. All
   mutable fields are atomics or internally locked objects. *)
type shared = {
  cfg_atomic : bool;
  cfg_max_active : int;
  cfg_stall_ms : float;
  cfg_wound_ms : float;
  cfg_shed_parked : int;
  cfg_shed_blocked : int;
  s_name : string;
  (* Off in soak mode: the GTM's ser(S)/admission audit log would grow with
     run length, and the shutdown batch pass over it would re-analyze the
     whole run — the live verdict alone carries soak certification. *)
  retain_audit : bool;
  live_cert : Live_cert.t option;
  inbox : msg Mailbox.t;
  sched : Gtm_sched.t;
  clock : Clock.t;
  obs : Obs.t;
  sink_mutex : Mutex.t;
  protocols : (Types.sid * Types.protocol_kind) list;
  accepting : bool Atomic.t;
  draining : bool Atomic.t;
  pending_ticks : int Atomic.t;
  a_admitted : int Atomic.t;
  a_committed : int Atomic.t;
  a_aborted : int Atomic.t;
  a_rejected : int Atomic.t;
  a_sheds : int Atomic.t;
  a_wounds : int Atomic.t;
  a_stall_kills : int Atomic.t;
  a_crashes : int Atomic.t;
  a_active : int Atomic.t;
  cause_counts : (string * int Atomic.t) list;
  m_committed : Metrics.counter;
  m_aborted : Metrics.counter;
  m_force : Metrics.counter;
  m_abort_cause : (string * Metrics.counter) list;
  m_inbox_depth : Metrics.gauge;
  m_active_peak : Metrics.gauge;
  m_batch_peak : Metrics.gauge;
  m_response : Mdbs_util.Stats.histogram;
  telem : telem option;
  flight : Flight.t;
  cert_dump_fired : bool Atomic.t;
}

(* What the GTM domain hands back when it exits. *)
type capture = {
  cap_ser_events : (Types.gid * Types.sid) list;
  cap_globals : (Types.tid * Types.sid list) list;
}

type t = {
  sh : shared;
  workers : Site_worker.t list;
  worker_tbl : (Types.sid, Site_worker.t) Hashtbl.t;
  gtm_domain : capture Domain.t;
  ticker_stop : bool Atomic.t;
  ticker : Thread.t;
  mutable shutdown_memo : result option;
}

(* ------------------------------------------------------- GTM domain state *)

(* The GTM domain's private state around the coordinator core
   ({!Mdbs_core.Coord}). Two batch buffers amortize the hot path: the core
   collects every GTM2 queue operation produced while a drained inbox batch
   is handled, so the engine lock is taken once per pump round instead of
   once per operation; [outbox] collects every site dispatch of the round,
   flushed as one [Batch] message per site (one mailbox put per site per
   round), in dispatch order — per-site execution order equals dispatch
   order, which Theorem 2 needs. *)

type gst = {
  sh' : shared;
  worker_of : Types.sid -> Site_worker.t;
  mutable coord : Coord.t;
  ser_log : Ser_schedule.t;
  promises : (Types.tid, Outcome.t Promise.t) Hashtbl.t;
  admit_times : (Types.gid, float) Hashtbl.t;
      (* admission clock stamp, single-writer (GTM domain): feeds the
         svc_response_ms histogram at finish *)
  parked : (Txn.t * int * Outcome.t Promise.t) Queue.t;
  txn_spans : (Types.gid, int) Hashtbl.t;
  outbox : (Types.sid, Site_worker.request Queue.t) Hashtbl.t;
  mutable outbox_sites : Types.sid list;  (* sites with queued dispatches *)
  mutable globals_rev : (Types.tid * Types.sid list) list;
}

let with_sink g f =
  if Sink.enabled g.sh'.obs.Obs.sink then begin
    Mutex.lock g.sh'.sink_mutex;
    (match f g.sh'.obs.Obs.sink with
    | () -> Mutex.unlock g.sh'.sink_mutex
    | exception e ->
        Mutex.unlock g.sh'.sink_mutex;
        raise e)
  end

let cert_feed g evs =
  match g.sh'.live_cert with
  | Some lc -> Live_cert.feed lc evs
  | None -> ()

let bump_cause sh cause =
  (match List.assoc_opt cause sh.cause_counts with
  | Some a -> Atomic.incr a
  | None -> ());
  match List.assoc_opt cause sh.m_abort_cause with
  | Some c -> Metrics.inc c
  | None -> ()

(* Close one telemetry window: stream the JSONL line, atomically rewrite
   the OpenMetrics exposition (cumulative snapshot), evaluate the SLOs,
   and dump the flight recorder on the first breach. Called from the
   ticker while the run is live and once more from {!shutdown} after all
   domains joined, so the last window's sums complete the conservation
   identity (windowed deltas add up to the final counters). *)
let telem_flush sh ~now_ms =
  match sh.telem with
  | None -> ()
  | Some tl ->
      Mutex.lock tl.tl_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock tl.tl_lock)
        (fun () ->
          let w = Timeseries.flush tl.tl_ts ~now_ms in
          (match tl.tl_jsonl with
          | Some oc ->
              output_string oc (Export.window_to_jsonl w);
              output_char oc '\n';
              flush oc
          | None -> ());
          (match tl.tl_om_path with
          | Some path ->
              Export.write_atomic ~path
                (Export.to_openmetrics (Metrics.snapshot tl.tl_metrics))
          | None -> ());
          Flight.record sh.flight ~ts_ms:now_ms ~track:0 ~name:"telemetry.window"
            [ ("window", string_of_int w.Timeseries.w_index) ];
          match tl.tl_slo with
          | None -> ()
          | Some slo ->
              let evals = Slo.observe slo w in
              if
                (not tl.tl_breach_dumped)
                && List.exists (fun e -> e.Slo.verdict = Slo.Breach) evals
              then begin
                tl.tl_breach_dumped <- true;
                ignore
                  (Flight.trigger sh.flight ~ts_ms:now_ms ~reason:"slo-breach")
              end)

let now g = Clock.now_ms g.sh'.clock

(* Buffer a request on the site's outbox; {!flush_outbox} ships the
   round. Order within a site is preserved end to end: outbox FIFO →
   Batch list order → worker execution order. *)
let send g sid req =
  let box =
    match Hashtbl.find_opt g.outbox sid with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace g.outbox sid q;
        q
  in
  if Queue.is_empty box then g.outbox_sites <- sid :: g.outbox_sites;
  Queue.add req box

let flush_outbox g =
  let sites = g.outbox_sites in
  g.outbox_sites <- [];
  List.iter
    (fun sid ->
      match Hashtbl.find_opt g.outbox sid with
      | None -> ()
      | Some box ->
          let reqs = List.of_seq (Queue.to_seq box) in
          Queue.clear box;
          (match reqs with
          | [] -> ()
          | [ one ] -> Site_worker.send (g.worker_of sid) one
          | many -> Site_worker.send (g.worker_of sid) (Site_worker.Batch many)))
    (List.rev sites)

(* ------------------------------------------------------- transaction end *)

let finish_txn g gid outcome =
  let final =
    match outcome with
    | Coord.Committed -> Outcome.Committed
    | Coord.Aborted reason -> Outcome.Aborted reason
  in
  (match final with
  | Outcome.Committed ->
      Atomic.incr g.sh'.a_committed;
      Metrics.inc g.sh'.m_committed
  | Outcome.Aborted reason ->
      Atomic.incr g.sh'.a_aborted;
      Metrics.inc g.sh'.m_aborted;
      bump_cause g.sh' (cause_of_reason reason)
  | Outcome.Shed -> assert false (* sheds never reach admission *));
  (match Hashtbl.find_opt g.admit_times gid with
  | Some t0 ->
      Hashtbl.remove g.admit_times gid;
      Metrics.observe g.sh'.m_response (now g -. t0)
  | None -> ());
  Flight.record g.sh'.flight ~ts_ms:(now g) ~track:0
    ~name:
      (match final with
      | Outcome.Committed -> "txn.commit"
      | _ -> "txn.abort")
    (( "gid", string_of_int gid )
    ::
    (match final with
    | Outcome.Aborted reason -> [ ("reason", reason) ]
    | _ -> []));
  Atomic.decr g.sh'.a_active;
  with_sink g (fun sink ->
      match Hashtbl.find_opt g.txn_spans gid with
      | Some span ->
          Hashtbl.remove g.txn_spans gid;
          Sink.end_span sink
            ~attrs:[ ("outcome", Outcome.to_string final) ]
            span
      | None -> ());
  cert_feed g [ Incremental.End gid ];
  match Hashtbl.find_opt g.promises gid with
  | Some p ->
      Hashtbl.remove g.promises gid;
      Promise.fulfill p final
  | None -> ()

(* Carry out the core's effects: steps and rollbacks go to the sites'
   outboxes, a finished global settles its promise. A step's request id is
   its program counter, so the core matches the answer. The service keeps
   no coordinator log. *)
let perform g coord = function
  | Coord.Run { gid; pc; site = sid; action; ser = _ } ->
      send g sid
        (Site_worker.Exec
           { req = pc; tid = gid; action; accesses = Coord.declaration coord gid sid })
  | Coord.Rollback (gid, sid) | Coord.Resolve (gid, sid, Mdbs_core.Gtm_log.Abort) ->
      send g sid (Site_worker.Resolve { tid = gid; action = Op.Abort })
  | Coord.Resolve (gid, sid, Mdbs_core.Gtm_log.Commit) ->
      send g sid (Site_worker.Resolve { tid = gid; action = Op.Commit })
  | Coord.Log _ -> ()
  | Coord.Finish { gid; outcome; recovered = _ } -> finish_txn g gid outcome

(* GTM2 behind its lock. All sink writers (workers' instants, the engine's
   wait spans) serialize on sink_mutex; lock order is sink_mutex > sched
   lock. *)
let gtm2 sh ops =
  if Sink.enabled sh.obs.Obs.sink then begin
    Mutex.lock sh.sink_mutex;
    match Gtm_sched.run_ops sh.sched ops with
    | effects ->
        Mutex.unlock sh.sink_mutex;
        effects
    | exception ex ->
        Mutex.unlock sh.sink_mutex;
        raise ex
  end
  else Gtm_sched.run_ops sh.sched ops

(* ------------------------------------------------------------- admission *)

let admit_now g txn birth promise =
  let gid = txn.Txn.id in
  if Coord.is_known g.coord gid then begin
    (* A tid the GTM is still tracking: admitting it again would make
       ser(S) visit a site twice for one id (retries must reissue under a
       fresh id — {!Txn.with_id}). Refuse without touching any counter. *)
    Promise.fulfill promise (Outcome.Aborted "duplicate-admission")
  end
  else begin
  Hashtbl.replace g.promises gid promise;
  Hashtbl.replace g.admit_times gid (now g);
  Flight.record g.sh'.flight ~ts_ms:(now g) ~track:0 ~name:"txn.admit"
    [ ("gid", string_of_int gid) ];
  if g.sh'.retain_audit then
    g.globals_rev <- (gid, Txn.sites txn) :: g.globals_rev;
  cert_feed g [ Incremental.Global (gid, Txn.sites txn) ];
  Atomic.incr g.sh'.a_admitted;
  Atomic.incr g.sh'.a_active;
  Metrics.set_max g.sh'.m_active_peak (float_of_int (Atomic.get g.sh'.a_active));
  with_sink g (fun sink ->
      let span =
        Sink.begin_span sink
          ~track:(Sink.txn_track sink gid)
          ~attrs:[ ("sites", String.concat "," (List.map string_of_int (Txn.sites txn))) ]
          "svc.txn"
      in
      Hashtbl.replace g.txn_spans gid span);
  Coord.admit ~birth g.coord txn
  end

let admit_parked g =
  let admitted = ref false in
  while
    (not (Queue.is_empty g.parked))
    && Atomic.get g.sh'.a_active < g.sh'.cfg_max_active
  do
    let txn, birth, promise = Queue.pop g.parked in
    admit_now g txn birth promise;
    admitted := true
  done;
  !admitted

(* ----------------------------------------------------------- site replies *)

(* Hand a site's answer to the core; a serialization operation that
   executed joins ser(S). *)
let answer g gid ?pc ?now r =
  match Coord.reply g.coord gid ?pc ?now r with
  | Some step when r = Coord.Done && step.Gtm1.via_gtm2 ->
      let sid = step.Gtm1.site in
      if g.sh'.retain_audit then Ser_schedule.record g.ser_log sid gid;
      cert_feed g [ Incremental.Ser (gid, sid) ]
  | Some _ | None -> ()

let handle_reply g = function
  | Site_worker.Answer { req; tid; answer = Coord.Blocked } ->
      (* The stamp starts the global's wait clock. *)
      answer g tid ~pc:req ~now:(now g) Coord.Blocked
  | Site_worker.Answer { req; tid; answer = r } -> answer g tid ~pc:req r
  | Site_worker.Unblocked { tid } -> answer g tid Coord.Done
  | Site_worker.Crashed { sid; in_doubt } ->
      Atomic.incr g.sh'.a_crashes;
      with_sink g (fun sink ->
          Sink.instant sink
            ~track:(Sink.site_track sink sid)
            ~attrs:[ ("in_doubt", string_of_int (List.length in_doubt)) ]
            "svc.site_crash");
      Flight.record g.sh'.flight ~ts_ms:(now g) ~track:(1 + sid)
        ~name:"site.crash"
        [ ("in_doubt", string_of_int (List.length in_doubt)) ];
      ignore
        (Flight.trigger g.sh'.flight ~ts_ms:(now g)
           ~reason:(Printf.sprintf "site-%d-crash" sid));
      Coord.site_crash g.coord sid ~in_doubt

(* -------------------------------------------------- stalls and deadlocks *)

(* One pass of the core's victim policy ({!Coord.tick}); count the victim
   it returns. *)
let on_tick g =
  match Coord.tick g.coord ~now:(now g) with
  | None -> false
  | Some { Coord.victim; reason = _; wounder } ->
      Metrics.inc g.sh'.m_force;
      Atomic.incr (if wounder = None then g.sh'.a_stall_kills else g.sh'.a_wounds);
      Flight.record g.sh'.flight ~ts_ms:(now g) ~track:0
        ~name:(if wounder = None then "txn.stall_kill" else "txn.wound")
        (("victim", string_of_int victim)
        :: Option.fold wounder ~none:[] ~some:(fun w ->
               [ ("wounder", string_of_int w) ]));
      true

(* ------------------------------------------------------------- the pump *)

(* Run the core to quiescence — the asynchronous Figure-3 loop, batched:
   every queue operation produced while handling a drained inbox batch
   enters the engine in one lock acquisition per round
   ({!Gtm_sched.run_ops}) — then admit parked globals into freed slots and
   go again. *)
let rec pump g =
  ignore (Coord.pump g.coord);
  if admit_parked g then pump g

(* -------------------------------------------------------- the GTM domain *)

(* Handle one drained inbox batch: classify every message first, then run
   the engine once over everything the batch produced. Admissions,
   worker reply bundles and ticks all funnel into the same pump round, so
   the per-message cost of the old loop (one lock acquisition + one
   engine fixpoint each) is paid once per batch. *)
let handle_batch g msgs =
  let ticks = ref 0 in
  List.iter
    (fun msg ->
      match msg with
      | Admit { txn; birth; promise } ->
          if Atomic.get g.sh'.draining then
            Promise.fulfill promise (Outcome.Aborted "shutdown")
          else if
            (* Admission shedding: refuse {e before} the transaction
               acquires any per-site state. A deep parked queue or many
               site-blocked globals means admitting more work only feeds
               the contention that is already killing transactions — a
               shed client backs off without costing any site a rollback. *)
            Queue.length g.parked >= g.sh'.cfg_shed_parked
            || Coord.blocked_count g.coord >= g.sh'.cfg_shed_blocked
          then begin
            Atomic.incr g.sh'.a_sheds;
            bump_cause g.sh' "shed";
            Flight.record g.sh'.flight ~ts_ms:(now g) ~track:0 ~name:"txn.shed"
              [ ("gid", string_of_int txn.Txn.id) ];
            Promise.fulfill promise Outcome.Shed
          end
          else if Atomic.get g.sh'.a_active < g.sh'.cfg_max_active then
            admit_now g txn birth promise
          else Queue.add (txn, birth, promise) g.parked
      | Replies rs -> List.iter (handle_reply g) rs
      | Tick ->
          incr ticks;
          ignore (Atomic.fetch_and_add g.sh'.pending_ticks (-1)))
    msgs;
  pump g;
  (* The tick check runs after the pump so freshly made progress counts,
     and at most once per batch however many ticks were queued. A kill
     fake-acks the victim: run its queue operations now rather than
     waiting for the next wakeup. *)
  if !ticks > 0 && on_tick g then pump g

let gtm_loop sh worker_of =
  let g =
    {
      sh' = sh;
      worker_of;
      (* A core with no effects until [g] exists; replaced below. *)
      coord =
        Coord.create ~atomic:false ~protocol_of:(fun _ -> Types.Two_phase_locking)
          ~gtm2:(fun _ -> []) ~perform:(fun _ _ -> ()) ();
      ser_log = Ser_schedule.create ();
      promises = Hashtbl.create 64;
      admit_times = Hashtbl.create 64;
      parked = Queue.create ();
      txn_spans = Hashtbl.create 64;
      outbox = Hashtbl.create 16;
      outbox_sites = [];
      globals_rev = [];
    }
  in
  let protocol_of sid =
    match List.assoc_opt sid sh.protocols with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "svc: unknown site %d" sid)
  in
  g.coord <-
    Coord.create ~wound_after_ms:sh.cfg_wound_ms ~deadline_ms:sh.cfg_stall_ms
      ~blockers:(Gtm_sched.blockers sh.sched)
      ~atomic:sh.cfg_atomic ~protocol_of ~gtm2:(gtm2 sh) ~perform:(perform g) ();
  let done_ () =
    Atomic.get sh.draining
    && Coord.active g.coord = []
    && Queue.is_empty g.parked
    && Mailbox.length sh.inbox = 0
  in
  let rec loop () =
    match Mailbox.drain sh.inbox with
    | [] -> ()
    | msgs ->
        Metrics.set_max sh.m_batch_peak (float_of_int (List.length msgs));
        handle_batch g msgs;
        (* Ship every site's dispatch round as one message per site. *)
        flush_outbox g;
        Metrics.set_max sh.m_inbox_depth
          (float_of_int (Mailbox.length sh.inbox));
        if done_ () then () else loop ()
  in
  (* A scheduling bug must not wedge the whole runtime: a dead GTM domain
     silently swallows its exception until the (never-reached) join.
     Scream first, then re-raise for the join. *)
  (try loop ()
   with ex ->
     Printf.eprintf "[svc gtm] FATAL: %s\n%s%!"
       (Printexc.to_string ex)
       (Printexc.get_backtrace ());
     raise ex);
  {
    cap_ser_events = Ser_schedule.events g.ser_log;
    cap_globals = List.rev g.globals_rev;
  }

(* ------------------------------------------------------------ public API *)

let start (cfg : config) =
  let clock = Clock.start () in
  let obs = cfg.obs in
  if obs.Obs.live then Obs.set_clock obs (fun () -> Clock.now_ms clock);
  let inbox = Mailbox.create ~capacity:cfg.capacity () in
  let sink_mutex = Mutex.create () in
  let protocols =
    List.map
      (fun dbms -> (Local_dbms.site_id dbms, Local_dbms.protocol_kind dbms))
      cfg.sites
  in
  (* The streaming certifier, fed from every producer: [Site] declarations
     now, op taps on the site DBMSs below, GTM events from the GTM domain.
     Soak mode drops the audit-record retention and the certifier's stable
     order prefix, so run-length memory reduces to the active window. *)
  let live_cert =
    match cfg.certify with
    | Certify_batch -> None
    | Certify_live ->
        Some
          (Live_cert.start ~checkpoint_every:cfg.cert_checkpoint_every
             ~obs ())
    | Certify_soak ->
        List.iter
          (fun dbms -> Schedule.set_capture (Local_dbms.schedule dbms) false)
          cfg.sites;
        Some
          (Live_cert.start ~checkpoint_every:cfg.cert_checkpoint_every
             ~retain_order:false ~obs ())
  in
  (match live_cert with
  | None -> ()
  | Some lc ->
      Live_cert.feed lc
        (List.map (fun (sid, p) -> Incremental.Site (sid, Some p)) protocols);
      List.iter
        (fun dbms ->
          let sid = Local_dbms.site_id dbms in
          Local_dbms.set_op_tap dbms (fun tid action ->
              Live_cert.feed lc [ Incremental.Op (sid, tid, action) ]))
        cfg.sites);
  (* Register the per-site instruments (local commit/abort/WAL counters,
     and the LSM storage tier's flush/compaction/cache/fsync metrics for
     persistent backends) in the run's registry. Metrics only: the span
     sink is single-domain and the sites run in worker domains, so they
     get a null sink (the registry itself is mutex-protected). *)
  if Metrics.enabled obs.Obs.metrics then
    List.iter
      (fun dbms ->
        Local_dbms.attach_obs dbms
          { obs with Obs.sink = Mdbs_obs.Sink.null; live = false })
      cfg.sites;
  let labels = [ ("scheme", cfg.scheme.Scheme.name) ] in
  let sh =
    {
      cfg_atomic = cfg.atomic_commit;
      cfg_max_active = cfg.max_active;
      cfg_stall_ms = cfg.stall_timeout_ms;
      cfg_wound_ms = cfg.wound_after_ms;
      cfg_shed_parked = cfg.shed_parked;
      cfg_shed_blocked = cfg.shed_blocked;
      s_name = cfg.scheme.Scheme.name;
      retain_audit = cfg.certify <> Certify_soak;
      live_cert;
      inbox;
      sched = Gtm_sched.create ~obs cfg.scheme;
      clock;
      obs;
      sink_mutex;
      protocols;
      accepting = Atomic.make true;
      draining = Atomic.make false;
      pending_ticks = Atomic.make 0;
      a_admitted = Atomic.make 0;
      a_committed = Atomic.make 0;
      a_aborted = Atomic.make 0;
      a_rejected = Atomic.make 0;
      a_sheds = Atomic.make 0;
      a_wounds = Atomic.make 0;
      a_stall_kills = Atomic.make 0;
      a_crashes = Atomic.make 0;
      a_active = Atomic.make 0;
      cause_counts =
        List.map (fun c -> (c, Atomic.make 0)) abort_cause_names;
      m_committed = Metrics.counter obs.Obs.metrics ~labels "svc_committed_total";
      m_aborted = Metrics.counter obs.Obs.metrics ~labels "svc_aborted_total";
      m_force = Metrics.counter obs.Obs.metrics ~labels "svc_force_aborts_total";
      m_abort_cause =
        List.map
          (fun c ->
            ( c,
              Metrics.counter obs.Obs.metrics
                ~labels:(("cause", c) :: labels)
                "svc_aborts_total" ))
          abort_cause_names;
      m_inbox_depth = Metrics.gauge obs.Obs.metrics ~labels "svc_inbox_depth_max";
      m_active_peak = Metrics.gauge obs.Obs.metrics ~labels "svc_active_peak";
      m_batch_peak = Metrics.gauge obs.Obs.metrics ~labels "svc_batch_peak";
      m_response = Metrics.histogram obs.Obs.metrics ~labels "svc_response_ms";
      telem =
        (if
           cfg.telemetry_out = None && cfg.openmetrics_out = None
           && cfg.slos = []
         then None
         else
           Some
             {
               tl_ts =
                 Timeseries.create ~interval_ms:cfg.telemetry_interval_ms
                   obs.Obs.metrics;
               tl_slo =
                 (match cfg.slos with
                 | [] -> None
                 | specs -> Some (Slo.create specs));
               tl_jsonl = Option.map open_out cfg.telemetry_out;
               tl_om_path = cfg.openmetrics_out;
               tl_metrics = obs.Obs.metrics;
               tl_lock = Mutex.create ();
               tl_breach_dumped = false;
             });
      flight = Flight.create ~dir:cfg.flight_dump ();
      cert_dump_fired = Atomic.make false;
    }
  in
  let reply rs = ignore (Mailbox.put_urgent inbox (Replies rs)) in
  let observe_for sid =
    if obs.Obs.live && Sink.enabled obs.Obs.sink then (fun tid action outcome ->
      Mutex.lock sink_mutex;
      let sink = obs.Obs.sink in
      Sink.instant sink
        ~track:(Sink.site_track sink sid)
        ~attrs:
          [
            ("tid", string_of_int tid);
            ("action", Op.action_to_string action);
            ("outcome", outcome);
          ]
        "site.op";
      Mutex.unlock sink_mutex)
    else fun _ _ _ -> ()
  in
  let on_local_done =
    (* Locals never reach the GTM, so their [End] comes from the worker —
       right after the terminal op was recorded (same thread), so it lands
       in the event lane after the txn's last schedule entry. *)
    match live_cert with
    | Some lc -> Some (fun tid -> Live_cert.feed lc [ Incremental.End tid ])
    | None -> None
  in
  let workers =
    List.map
      (fun dbms ->
        Site_worker.spawn ~reply ?on_local_done
          ~observe:(observe_for (Local_dbms.site_id dbms))
          dbms)
      cfg.sites
  in
  let worker_tbl = Hashtbl.create 16 in
  List.iter (fun w -> Hashtbl.replace worker_tbl (Site_worker.sid w) w) workers;
  let worker_of sid =
    match Hashtbl.find_opt worker_tbl sid with
    | Some w -> w
    | None -> invalid_arg (Printf.sprintf "svc: unknown site %d" sid)
  in
  let gtm_domain = Domain.spawn (fun () -> gtm_loop sh worker_of) in
  let ticker_stop = Atomic.make false in
  let tick_s = cfg.tick_ms /. 1000. in
  let ticker =
    Thread.create
      (fun () ->
        while not (Atomic.get ticker_stop) do
          Thread.delay tick_s;
          (* At most one tick in flight: the ticker never floods a busy
             GTM, and an idle GTM still gets its stall heartbeat. *)
          if Atomic.get sh.pending_ticks = 0 then begin
            Atomic.incr sh.pending_ticks;
            ignore (Mailbox.put_urgent inbox Tick)
          end;
          (* Telemetry piggybacks on the same heartbeat: window flushes
             and the cert-violation flight trigger both run here, off the
             GTM hot path. *)
          (match sh.telem with
          | Some tl when Timeseries.due tl.tl_ts ~now_ms:(Clock.now_ms clock)
            ->
              telem_flush sh ~now_ms:(Clock.now_ms clock)
          | _ -> ());
          if Flight.enabled sh.flight && not (Atomic.get sh.cert_dump_fired)
          then
            match sh.live_cert with
            | Some lc when Live_cert.violated lc ->
                Atomic.set sh.cert_dump_fired true;
                ignore
                  (Flight.trigger sh.flight ~ts_ms:(Clock.now_ms clock)
                     ~reason:"cert-violation")
            | _ -> ()
        done)
      ()
  in
  {
    sh;
    workers;
    worker_tbl;
    gtm_domain;
    ticker_stop;
    ticker;
    shutdown_memo = None;
  }

let scheme_name t = t.sh.s_name

let n_sites t = List.length t.workers

let aborted_promise reason =
  let p = Promise.create () in
  Promise.fulfill p (Outcome.Aborted reason);
  p

let submit_global t ?birth txn =
  if not (Txn.is_global txn) then
    invalid_arg "Runtime.submit_global: local transaction";
  let birth = match birth with Some b -> b | None -> txn.Txn.id in
  if not (Atomic.get t.sh.accepting) then aborted_promise "shutdown"
  else begin
    let p = Promise.create () in
    if Mailbox.put t.sh.inbox (Admit { txn; birth; promise = p }) then p
    else aborted_promise "shutdown"
  end

let try_submit_global t ?birth txn =
  if not (Txn.is_global txn) then
    invalid_arg "Runtime.try_submit_global: local transaction";
  let birth = match birth with Some b -> b | None -> txn.Txn.id in
  if not (Atomic.get t.sh.accepting) then None
  else begin
    let p = Promise.create () in
    match
      Mailbox.try_put t.sh.inbox (Admit { txn; birth; promise = p })
    with
    | `Ok -> Some p
    | `Full ->
        Atomic.incr t.sh.a_rejected;
        None
    | `Closed -> None
  end

let submit_local t txn =
  let sid =
    match txn.Txn.kind with
    | Txn.Local sid -> sid
    | Txn.Global _ -> invalid_arg "Runtime.submit_local: global transaction"
  in
  if not (Atomic.get t.sh.accepting) then aborted_promise "shutdown"
  else begin
    let p = Promise.create () in
    (match Hashtbl.find_opt t.worker_tbl sid with
    | Some w -> Site_worker.send w (Site_worker.Run_local { txn; promise = p })
    | None -> invalid_arg (Printf.sprintf "Runtime.submit_local: unknown site %d" sid));
    p
  end

let crash_site t sid =
  match Hashtbl.find_opt t.worker_tbl sid with
  | Some w -> Site_worker.send w Site_worker.Crash
  | None -> invalid_arg (Printf.sprintf "Runtime.crash_site: unknown site %d" sid)

let stats t =
  {
    admitted = Atomic.get t.sh.a_admitted;
    committed = Atomic.get t.sh.a_committed;
    aborted = Atomic.get t.sh.a_aborted;
    rejected = Atomic.get t.sh.a_rejected;
    sheds = Atomic.get t.sh.a_sheds;
    force_aborts = Atomic.get t.sh.a_wounds + Atomic.get t.sh.a_stall_kills;
    wounds = Atomic.get t.sh.a_wounds;
    stall_kills = Atomic.get t.sh.a_stall_kills;
    site_crashes = Atomic.get t.sh.a_crashes;
    active = Atomic.get t.sh.a_active;
    inbox_hwm = Mailbox.high_watermark t.sh.inbox;
    abort_causes =
      List.filter_map
        (fun (c, a) ->
          match Atomic.get a with 0 -> None | n -> Some (c, n))
        t.sh.cause_counts;
    ops_per_site =
      List.map (fun w -> (Site_worker.sid w, Site_worker.ops_handled w)) t.workers;
  }

let stalled t = Gtm_sched.stalled t.sh.sched

let live_violated t = Option.map Live_cert.violated t.sh.live_cert

let shutdown t =
  match t.shutdown_memo with
  | Some r -> r
  | None ->
      Atomic.set t.sh.accepting false;
      Atomic.set t.sh.draining true;
      (* Kick the GTM loop awake; account the tick so the ticker's
         one-in-flight budget stays balanced (the drain may need many more
         ticks to stall-kill whatever is still blocked). *)
      Atomic.incr t.sh.pending_ticks;
      ignore (Mailbox.put_urgent t.sh.inbox Tick);
      let cap = Domain.join t.gtm_domain in
      (* The GTM exited with nothing active: workers only hold local
         transactions now; stop and reclaim them. *)
      List.iter (fun w -> Site_worker.send w Site_worker.Stop) t.workers;
      let dbms_list = List.map Site_worker.join t.workers in
      (* Workers joined, so the main thread may touch the sites: one last
         group-commit sync, then account what actually reached disk. *)
      List.iter Local_dbms.sync_durable dbms_list;
      let durable_bytes =
        List.fold_left (fun acc d -> acc + Local_dbms.durable_bytes d) 0
          dbms_list
      in
      Atomic.set t.ticker_stop true;
      Thread.join t.ticker;
      let elapsed_ms = Clock.now_ms t.sh.clock in
      let trace =
        Trace.of_schedules ~protocols:t.sh.protocols ~globals:cap.cap_globals
          ~ser_events:cap.cap_ser_events
          (List.map Local_dbms.schedule dbms_list)
      in
      (* Workers, GTM and ticker joined: every producer has quiesced, so
         one last flush closes the final (partial) window and completes
         the conservation identity — windowed sums now equal the final
         run-level counters. *)
      telem_flush t.sh ~now_ms:elapsed_ms;
      (match t.sh.telem with
      | Some { tl_jsonl = Some oc; _ } -> close_out_noerr oc
      | _ -> ());
      (* Workers and GTM joined: every producer has quiesced. *)
      let live = Option.map Live_cert.stop t.sh.live_cert in
      let analysis = Analysis.analyze trace in
      let live_ok =
        match live with
        | None -> true
        | Some s -> (not s.Live_cert.violated) && s.Live_cert.chain_ok
      in
      (* A violation the ticker's poll never saw (e.g. detected in the
         drain's last events) still deserves its black box. *)
      if (not live_ok) && not (Atomic.get t.sh.cert_dump_fired) then begin
        Atomic.set t.sh.cert_dump_fired true;
        ignore
          (Flight.trigger t.sh.flight ~ts_ms:elapsed_ms
             ~reason:"cert-violation")
      end;
      let wait_insertions, ser_waits, engine_steps, scheme_steps =
        Gtm_sched.with_engine t.sh.sched (fun e ->
            ( Engine.total_wait_insertions e,
              Engine.ser_wait_insertions e,
              Engine.engine_steps e,
              (Engine.scheme e).Scheme.steps () ))
      in
      let r =
        {
          scheme_name = t.sh.s_name;
          trace;
          analysis;
          certified = Analysis.certified analysis && live_ok;
          live;
          run_stats = stats t;
          elapsed_ms;
          wait_insertions;
          ser_waits;
          engine_steps;
          scheme_steps;
          slo =
            (match t.sh.telem with
            | Some { tl_slo = Some s; _ } -> Some (Slo.summary s)
            | _ -> None);
          flight_dumps = Flight.dumps t.sh.flight;
          durable_bytes;
        }
      in
      t.shutdown_memo <- Some r;
      r
