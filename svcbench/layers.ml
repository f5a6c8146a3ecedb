(* Layer replays for the traced run. A captured trace (or a synthetic
   engine workload) is pushed through one layer's public functions with
   nothing else running, and only those calls are timed, so each number
   belongs to that layer alone. *)

module Trace = Mdbs_analysis.Trace
module Incremental = Mdbs_analysis.Incremental
module Certifier = Mdbs_analysis.Certifier
module Lint = Mdbs_analysis.Lint
module Local_dbms = Mdbs_site.Local_dbms
module Replay = Mdbs_sim.Replay
module Registry = Mdbs_core.Registry
module Schedule = Mdbs_model.Schedule

let now = Driver.now

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

type sites = {
  submit_us : float list;  (** Per {!Local_dbms.submit} call. *)
  sync_ms : float list;  (** Per {!Local_dbms.sync_durable} call. *)
  ops : int;
  divergences : int;
      (** Operations the fresh site did not execute as recorded — the
          transaction is dropped from the replay from there on. *)
}

(* Each site's recorded schedule, in order, through {!Local_dbms.submit} on
   a fresh site with the same protocol, backend and preload; a group-commit
   {!Local_dbms.sync_durable} whenever [batch] log records have built up,
   as the live site worker does once per batch. *)
let replay_sites (trace : Trace.t) ~backend ~keys ~batch ~dir =
  let submit_us = ref [] and sync_ms = ref [] in
  let ops = ref 0 and divergences = ref 0 in
  List.iter
    (fun (si : Trace.site_info) ->
      match si.protocol with
      | None -> ()
      | Some protocol ->
          let sdir = Filename.concat dir (Printf.sprintf "replay-site-%d" si.sid) in
          let backend =
            match backend with Workloads.Mem -> `Mem | Workloads.Lsm -> `Lsm sdir
          in
          let dbms = Local_dbms.create ~protocol ~backend si.sid in
          Local_dbms.load dbms keys;
          let dropped = Hashtbl.create 16 in
          let synced = ref (Local_dbms.wal_length dbms) in
          List.iter
            (fun { Schedule.tid; action } ->
              if not (Hashtbl.mem dropped tid) then begin
                let out, s = timed (fun () -> Local_dbms.submit dbms tid action) in
                incr ops;
                submit_us := (s *. 1e6) :: !submit_us;
                (match out with
                | Local_dbms.Executed _ -> ()
                | Local_dbms.Waiting | Local_dbms.Aborted _ ->
                    incr divergences;
                    Hashtbl.replace dropped tid ());
                ignore (Local_dbms.drain_completions dbms);
                if Local_dbms.wal_length dbms - !synced >= batch then begin
                  let (), s = timed (fun () -> Local_dbms.sync_durable dbms) in
                  sync_ms := (s *. 1000.) :: !sync_ms;
                  synced := Local_dbms.wal_length dbms
                end
              end)
            si.ops;
          Local_dbms.close dbms;
          rm_rf sdir)
    trace.sites;
  {
    submit_us = !submit_us;
    sync_ms = !sync_ms;
    ops = !ops;
    divergences = !divergences;
  }

(* The trace as the live certifier would have received it, fed to a fresh
   {!Incremental} checker. Returns microseconds per event and whether the
   stream certified. *)
let replay_incremental trace =
  let events = Incremental.events_of_trace trace in
  let inc = Incremental.create () in
  let (), s = timed (fun () -> List.iter (Incremental.feed inc) events) in
  let n = List.length events in
  ((if n = 0 then 0. else s *. 1e6 /. float_of_int n), not (Incremental.violated inc))

type analysis = { csr_s : float; theorem2_s : float; lint_s : float; clean : bool }

let replay_analysis trace =
  let csr, csr_s = timed (fun () -> Certifier.certify trace) in
  let t2, theorem2_s = timed (fun () -> Certifier.certify_theorem2 trace) in
  let lint, lint_s = timed (fun () -> Lint.run trace) in
  {
    csr_s;
    theorem2_s;
    lint_s;
    clean =
      Certifier.is_certified csr && Certifier.is_certified t2
      && Lint.errors lint = 0;
  }

(* The GTM2 engine alone, per scheme, on the benchmark's shape: four sites,
   two per transaction, 32 in flight. *)
let engine_txns = 2000

let replay_engine kind =
  let config =
    { Replay.m = 4; n_txns = engine_txns; d_av = 2; concurrency = 32;
      ack_latency = 2 }
  in
  let r, s = timed (fun () -> Replay.run ~seed:17 config (Registry.make kind)) in
  (s *. 1e6 /. float_of_int engine_txns, r.Replay.certified)
