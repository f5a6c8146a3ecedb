(* Tests of the coordinator half of fault tolerance and the chaos harness:
   GTM crash recovery from the durable log (in-doubt transactions resolved
   to the logged decision, undecided ones presumed aborted everywhere),
   fault-injecting simulation runs whose every outcome is certified, and
   bit-for-bit determinism of faulty runs. *)

open Mdbs_model
module Gtm = Mdbs_core.Gtm
module Gtm_log = Mdbs_core.Gtm_log
module Registry = Mdbs_core.Registry
module Local_dbms = Mdbs_site.Local_dbms
module Des = Mdbs_sim.Des
module Fault = Mdbs_sim.Fault
module Workload = Mdbs_sim.Workload
module Chaos = Mdbs_experiments.Chaos
module Trace = Mdbs_analysis.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let x0 = Item.Key 0
let x1 = Item.Key 1

let exec site tid action =
  match Local_dbms.submit site tid action with
  | Local_dbms.Executed v -> v
  | Local_dbms.Waiting -> Alcotest.fail "unexpected wait"
  | Local_dbms.Aborted r -> Alcotest.failf "unexpected abort: %s" r

let make_pair () =
  let a = Local_dbms.create ~protocol:Types.Two_phase_locking ~durable:true 0 in
  let b = Local_dbms.create ~protocol:Types.Two_phase_locking ~durable:true 1 in
  Local_dbms.load a [ (x0, 100) ];
  Local_dbms.load b [ (x1, 100) ];
  (a, b)

let make_gtm sites =
  Gtm.create ~atomic_commit:true ~scheme:(Registry.make Registry.S3) ~sites ()

(* Prepare [tid] at both sites: a 2PC participant that has voted yes. *)
let prepare_at_both a b tid =
  ignore (exec a tid Op.Begin);
  ignore (exec a tid (Op.Write (x0, -30)));
  ignore (exec a tid Op.Prepare);
  ignore (exec b tid Op.Begin);
  ignore (exec b tid (Op.Write (x1, 30)));
  ignore (exec b tid Op.Prepare)

let transfer_txn tid =
  Txn.global ~id:tid [ (0, [ Op.Write (x0, -30) ]); (1, [ Op.Write (x1, 30) ]) ]

(* --------------------------------------------------- GTM log and recovery *)

let gtm_log_analyze () =
  let log = Gtm_log.create () in
  let t1 = transfer_txn 1 and t2 = transfer_txn 2 and t3 = transfer_txn 3 in
  Gtm_log.append log (Gtm_log.Admitted (t1, true));
  Gtm_log.append log (Gtm_log.Dispatched (1, 0));
  Gtm_log.append log (Gtm_log.Acked (1, 0));
  Gtm_log.append log (Gtm_log.Admitted (t2, true));
  Gtm_log.append log (Gtm_log.Decided (1, Gtm_log.Commit));
  Gtm_log.append log (Gtm_log.Admitted (t3, true));
  Gtm_log.append log (Gtm_log.Decided (3, Gtm_log.Abort));
  Gtm_log.append log (Gtm_log.Finished 3);
  match Gtm_log.analyze log with
  | [ e1; e2 ] ->
      (* admission order, finished entries gone *)
      check_int "first unfinished" 1 e1.Gtm_log.txn.Txn.id;
      check_bool "decision survived" true (e1.Gtm_log.decision = Some Gtm_log.Commit);
      check_int "dispatch progress" 1 e1.Gtm_log.dispatched;
      check_int "ack progress" 1 e1.Gtm_log.acked;
      check_int "second unfinished" 2 e2.Gtm_log.txn.Txn.id;
      check_bool "undecided" true (e2.Gtm_log.decision = None)
  | entries -> Alcotest.failf "expected 2 unfinished entries, got %d" (List.length entries)

let recover_completes_logged_commit () =
  (* The old GTM logged the Commit decision; the commit messages never
     left. One participant site even crashed — its in-doubt WAL entry is
     all that remains. Recovery must commit at every site. *)
  Types.reset_tids ();
  let a, b = make_pair () in
  let gtm = make_gtm [ a; b ] in
  let tid = Types.fresh_tid () in
  prepare_at_both a b tid;
  Gtm_log.append (Gtm.gtm_log gtm) (Gtm_log.Admitted (transfer_txn tid, true));
  Gtm_log.append (Gtm.gtm_log gtm) (Gtm_log.Decided (tid, Gtm_log.Commit));
  Local_dbms.crash a;
  Alcotest.(check (list int)) "in doubt at the crashed site" [ tid ]
    (Local_dbms.in_doubt a);
  let gtm = Gtm.recover ~old:gtm ~scheme:(Registry.make Registry.S3) in
  check_bool "committed" true (Gtm.status gtm tid = Gtm.Committed);
  check_int "debit applied" 70 (Local_dbms.storage_value a x0);
  check_int "credit applied" 130 (Local_dbms.storage_value b x1);
  Alcotest.(check (list int)) "in doubt resolved" [] (Local_dbms.in_doubt a)

let recover_presumes_abort_undecided () =
  (* Prepared at both sites but no decision on disk: presumed abort, at
     the crashed site and the live one alike. *)
  Types.reset_tids ();
  let a, b = make_pair () in
  let gtm = make_gtm [ a; b ] in
  let tid = Types.fresh_tid () in
  prepare_at_both a b tid;
  Gtm_log.append (Gtm.gtm_log gtm) (Gtm_log.Admitted (transfer_txn tid, true));
  Local_dbms.crash a;
  let gtm = Gtm.recover ~old:gtm ~scheme:(Registry.make Registry.S3) in
  (match Gtm.status gtm tid with
  | Gtm.Aborted _ -> ()
  | _ -> Alcotest.fail "undecided transaction must be presumed aborted");
  check_int "rolled back at the crashed site" 100 (Local_dbms.storage_value a x0);
  check_int "rolled back at the live site" 100 (Local_dbms.storage_value b x1);
  check_bool "abort logged for the next incarnation" true
    (Gtm_log.decision_of (Gtm.gtm_log gtm) tid = Some Gtm_log.Abort)

let recover_aborts_admitted_unbegun () =
  Types.reset_tids ();
  let a, b = make_pair () in
  let gtm = make_gtm [ a; b ] in
  let tid = Types.fresh_tid () in
  Gtm.submit_global gtm (transfer_txn tid);
  let gtm = Gtm.recover ~old:gtm ~scheme:(Registry.make Registry.S3) in
  match Gtm.status gtm tid with
  | Gtm.Aborted _ -> ()
  | _ -> Alcotest.fail "admitted-but-unbegun must be aborted by recovery"

let recover_resolves_each_to_its_decision () =
  (* Two in-doubt participants, opposite logged decisions: each must be
     resolved to its own verdict. *)
  Types.reset_tids ();
  let a, b = make_pair () in
  let gtm = make_gtm [ a; b ] in
  let tc = Types.fresh_tid () in
  let ta = Types.fresh_tid () in
  prepare_at_both a b tc;
  ignore (exec a ta Op.Begin);
  ignore (exec a ta (Op.Write (x1, 9)));
  ignore (exec a ta Op.Prepare);
  let log = Gtm.gtm_log gtm in
  Gtm_log.append log (Gtm_log.Admitted (transfer_txn tc, true));
  Gtm_log.append log
    (Gtm_log.Admitted (Txn.global ~id:ta [ (0, [ Op.Write (x1, 9) ]) ], true));
  Gtm_log.append log (Gtm_log.Decided (tc, Gtm_log.Commit));
  Gtm_log.append log (Gtm_log.Decided (ta, Gtm_log.Abort));
  Local_dbms.crash a;
  check_int "both in doubt" 2 (List.length (Local_dbms.in_doubt a));
  let gtm = Gtm.recover ~old:gtm ~scheme:(Registry.make Registry.S3) in
  check_bool "commit verdict honoured" true (Gtm.status gtm tc = Gtm.Committed);
  (match Gtm.status gtm ta with
  | Gtm.Aborted _ -> ()
  | _ -> Alcotest.fail "abort verdict honoured");
  check_int "committed transfer applied" 70 (Local_dbms.storage_value a x0);
  check_int "aborted write rolled back" 0 (Local_dbms.storage_value a x1);
  check_bool "site A schedule serializable" true
    (Serializability.is_serializable [ Local_dbms.schedule a ])

(* --------------------------------------------------------- des under fire *)

let mix_exn spec =
  match Fault.parse_mix spec with
  | Ok mix -> mix
  | Error msg -> Alcotest.fail msg

let site_crash_run_checks () =
  let o = Chaos.run_one ~mix:(mix_exn "crash=1,drop=0.05,dup=0.03") ~seed:101 Registry.S3 in
  check_bool "certified" true o.Chaos.checks.Chaos.certified;
  check_bool "atomic" true o.Chaos.checks.Chaos.atomic;
  check_bool "wal-consistent" true o.Chaos.checks.Chaos.wal_consistent;
  check_bool "crash applied" true (o.Chaos.result.Des.site_crashes > 0);
  check_bool "drops happened" true (o.Chaos.result.Des.msg_drops > 0);
  check_bool "retries happened" true (o.Chaos.result.Des.retries > 0)

let gtm_crash_run_checks () =
  let o = Chaos.run_one ~mix:(mix_exn "gtm=1,crash=1,dup=0.05") ~seed:101 Registry.S3 in
  check_bool "checks pass" true (Chaos.ok o.Chaos.checks);
  check_bool "gtm recovered" true (o.Chaos.result.Des.gtm_recoveries > 0);
  check_bool "recovery resolved transactions" true
    (o.Chaos.result.Des.in_doubt_resolved > 0)

let faulty_run_deterministic () =
  let mix = mix_exn "crash=1,gtm=1,drop=0.05,dup=0.03" in
  let config = Chaos.config_for ~mix ~seed:314 () in
  let r1 = Des.run_full config Registry.S2 in
  let r2 = Des.run_full config Registry.S2 in
  check_bool "identical results" true (r1.Des.result = r2.Des.result);
  Alcotest.(check string) "identical traces" (Trace.to_string r1.Des.trace)
    (Trace.to_string r2.Des.trace)

let fault_free_unchanged () =
  (* An empty plan must leave the simulator bit-for-bit as it was. *)
  let config = { Des.default with Des.n_global = 30 } in
  let plain = Des.run_full config Registry.S3 in
  let faulted = Des.run_full { config with Des.faults = Fault.none } Registry.S3 in
  check_bool "identical" true (plain.Des.result = faulted.Des.result)

let sweep_zero_violations () =
  (* The acceptance sweep: >= 200 faulty runs across Schemes 0-3 mixing
     every fault kind; no uncertified committed schedule, no atomicity
     violation, no WAL divergence — and each fault kind actually fired. *)
  let outcomes = Chaos.sweep () in
  check_bool ">= 200 runs" true (List.length outcomes >= 200);
  List.iter
    (fun o ->
      if not (Chaos.ok o.Chaos.checks) then
        Alcotest.failf "violation: %s seed %d mix %s (certified %b atomic %b wal %b)"
          (Registry.name o.Chaos.kind) o.Chaos.seed o.Chaos.spec
          o.Chaos.checks.Chaos.certified o.Chaos.checks.Chaos.atomic
          o.Chaos.checks.Chaos.wal_consistent)
    outcomes;
  let total f = List.fold_left (fun acc o -> acc + f o.Chaos.result) 0 outcomes in
  check_bool "site crashes fired" true (total (fun r -> r.Des.site_crashes) > 0);
  check_bool "gtm crashes fired" true (total (fun r -> r.Des.gtm_recoveries) > 0);
  check_bool "drops fired" true (total (fun r -> r.Des.msg_drops) > 0);
  check_bool "dups fired" true (total (fun r -> r.Des.msg_dups) > 0);
  check_bool "retries fired" true (total (fun r -> r.Des.retries) > 0);
  check_bool "in-doubt resolutions happened" true
    (total (fun r -> r.Des.in_doubt_resolved) > 0)

(* ------------------------------------------- one-phase crash plan *)

(* A site crash and a GTM crash inside a one-phase-commit run (times in
   ms): both are applied, and what committed stays serializable and
   certified. *)
let driver_round_faults () =
  let config =
    {
      Des.default with
      Des.n_global = 24;
      workload = { Workload.default with Workload.m = 3 };
      faults =
        {
          Fault.none with
          Fault.events = [ (50.0, Fault.Site_crash 0); (150.0, Fault.Gtm_crash) ];
        };
    }
  in
  let run = Des.run_full config Registry.S3 in
  let r = run.Des.result in
  check_int "site crash applied" 1 r.Des.site_crashes;
  check_int "gtm recovery applied" 1 r.Des.gtm_recoveries;
  check_bool "still serializable" true r.Des.serializable;
  check_bool "still certified" true
    (Mdbs_analysis.Analysis.certified
       (Mdbs_analysis.Analysis.analyze run.Des.trace))

(* A restarted GTM needs a fresh scheme instance: [Des.run], handed a
   single scheme value, refuses a plan with a GTM crash. *)
let driver_gtm_crash_needs_remake () =
  let config =
    {
      Des.default with
      Des.faults = { Fault.none with Fault.events = [ (0.5, Fault.Gtm_crash) ] };
    }
  in
  Alcotest.check_raises "remake required"
    (Invalid_argument
       "Des.run: a plan with GTM crashes needs a scheme factory (use run_full)")
    (fun () -> ignore (Des.run config (Registry.make Registry.S3)))

let () =
  Alcotest.run "mdbs-chaos"
    [
      ( "gtm-recovery",
        [
          Alcotest.test_case "log-analyze" `Quick gtm_log_analyze;
          Alcotest.test_case "completes-logged-commit" `Quick
            recover_completes_logged_commit;
          Alcotest.test_case "presumes-abort-undecided" `Quick
            recover_presumes_abort_undecided;
          Alcotest.test_case "aborts-admitted-unbegun" `Quick
            recover_aborts_admitted_unbegun;
          Alcotest.test_case "per-transaction-verdicts" `Quick
            recover_resolves_each_to_its_decision;
        ] );
      ( "des-faults",
        [
          Alcotest.test_case "site-crash-run" `Quick site_crash_run_checks;
          Alcotest.test_case "gtm-crash-run" `Quick gtm_crash_run_checks;
          Alcotest.test_case "deterministic" `Quick faulty_run_deterministic;
          Alcotest.test_case "fault-free-unchanged" `Quick fault_free_unchanged;
          Alcotest.test_case "sweep-zero-violations" `Quick sweep_zero_violations;
        ] );
      ( "driver-faults",
        [
          Alcotest.test_case "round-mode" `Quick driver_round_faults;
          Alcotest.test_case "needs-remake" `Quick driver_gtm_crash_needs_remake;
        ] );
    ]
