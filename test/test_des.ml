(* Tests for the timed discrete-event simulator. *)

module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
module Registry = Mdbs_core.Registry

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_config =
  {
    Des.default with
    Des.n_global = 20;
    locals_per_site = 6;
    seed = 3;
    workload = { Workload.default with m = 3; d_av = 2; data_per_site = 10 };
  }

let completes_and_serializable kind () =
  let r = Des.run_kind small_config kind in
  check_int "all resolved"
    small_config.Des.n_global
    (r.Des.committed_global + r.Des.failed_global);
  check_bool "serializable" true r.Des.serializable;
  check_bool "ser(S)" true r.Des.ser_s_serializable;
  check_bool "clock advanced" true (r.Des.makespan_ms > 0.0);
  check_bool "throughput positive" true (r.Des.throughput_per_s > 0.0);
  check_bool "responses measured" true (r.Des.mean_response_ms > 0.0);
  check_int "locals resolved"
    (small_config.Des.locals_per_site * small_config.Des.workload.Workload.m)
    (r.Des.committed_local + r.Des.aborted_local)

let deterministic () =
  let r1 = Des.run_kind small_config Registry.S3 in
  let r2 = Des.run_kind small_config Registry.S3 in
  check_int "same commits" r1.Des.committed_global r2.Des.committed_global;
  Alcotest.(check (float 1e-9)) "same makespan" r1.Des.makespan_ms r2.Des.makespan_ms;
  Alcotest.(check (float 1e-9))
    "same mean response" r1.Des.mean_response_ms r2.Des.mean_response_ms

let latency_hurts_response () =
  let fast = Des.run_kind { small_config with Des.latency_ms = 0.5 } Registry.S3 in
  let slow = Des.run_kind { small_config with Des.latency_ms = 10.0 } Registry.S3 in
  check_bool "higher latency, slower responses" true
    (slow.Des.mean_response_ms > fast.Des.mean_response_ms)

let cross_site_deadlocks_resolved () =
  (* 2PL everywhere, tiny hot key space: cross-site deadlocks are certain;
     the victim policy must resolve them all (nothing stranded). *)
  let config =
    {
      Des.default with
      Des.n_global = 25;
      locals_per_site = 4;
      seed = 9;
      workload =
        {
          Workload.default with
          m = 3;
          d_av = 2;
          data_per_site = 2;
          write_ratio = 1.0;
          protocols = [ Mdbs_model.Types.Two_phase_locking ];
        };
    }
  in
  let r = Des.run_kind config Registry.S3 in
  check_int "all resolved" config.Des.n_global
    (r.Des.committed_global + r.Des.failed_global);
  check_bool "deadlocks happened and were broken" true (r.Des.forced_aborts > 0);
  check_bool "still serializable" true r.Des.serializable

let atomic_mode_runs () =
  let config =
    {
      small_config with
      Des.atomic_commit = true;
      workload =
        {
          small_config.Des.workload with
          Workload.protocols =
            [ Mdbs_model.Types.Optimistic; Mdbs_model.Types.Two_phase_locking ];
        };
    }
  in
  let r = Des.run_kind config Registry.S3 in
  check_int "all resolved" config.Des.n_global
    (r.Des.committed_global + r.Des.failed_global);
  check_bool "serializable" true r.Des.serializable

(* Without 2PC a commit is one message per site, and an OCC site can still
   refuse its Commit after another site committed. Such an attempt is dead:
   the reported commit count must equal the attempts that committed at
   every site they visited and aborted at none (E13's config). *)
let committed_means_committed_everywhere kind () =
  let config =
    {
      Des.default with
      Des.n_global = 60;
      seed = 23;
      workload = { Workload.default with m = 4; d_av = 2; data_per_site = 32 };
    }
  in
  let run = Des.run_full config kind in
  let module Schedule = Mdbs_model.Schedule in
  let module Txn = Mdbs_model.Txn in
  let schedule sid =
    Mdbs_site.Local_dbms.schedule
      (List.find
         (fun db -> Mdbs_site.Local_dbms.site_id db = sid)
         run.Des.sites)
  in
  let everywhere txn =
    let tid = txn.Txn.id in
    List.for_all
      (fun sid ->
        Mdbs_util.Iset.mem tid (Schedule.committed (schedule sid))
        && not (Mdbs_util.Iset.mem tid (Schedule.aborted (schedule sid))))
      (Txn.sites txn)
  in
  check_int "committed = committed at every site"
    (List.length (List.filter everywhere run.Des.attempts))
    run.Des.result.Des.committed_global

let scheme_cases f =
  List.map
    (fun kind -> Alcotest.test_case (Registry.name kind) `Quick (f kind))
    Registry.all

let () =
  Alcotest.run "mdbs-des"
    [
      ("completes", scheme_cases completes_and_serializable);
      ( "behaviour",
        [
          Alcotest.test_case "deterministic" `Quick deterministic;
          Alcotest.test_case "latency-hurts" `Quick latency_hurts_response;
          Alcotest.test_case "deadlock-timeout" `Quick cross_site_deadlocks_resolved;
          Alcotest.test_case "atomic-mode" `Quick atomic_mode_runs;
        ] );
      ( "one-phase-commit",
        List.map
          (fun kind ->
            Alcotest.test_case (Registry.name kind) `Quick
              (committed_means_committed_everywhere kind))
          Registry.extended );
    ]
