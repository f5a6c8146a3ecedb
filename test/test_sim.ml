(* End-to-end tests of the replay harness and the discrete-event simulator:
   every paper scheme must drive random workloads to completion with a
   globally serializable outcome. *)

module Registry = Mdbs_core.Registry
module Replay = Mdbs_sim.Replay
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload

let check = Alcotest.(check bool)

let replay_completes kind () =
  let config = { Replay.default with n_txns = 40; m = 5; d_av = 2 } in
  let result = Replay.run ~seed:11 config (Registry.make kind) in
  Alcotest.(check int)
    "every serialization operation submitted" (config.n_txns * config.d_av)
    result.Replay.submits;
  check "steps positive" true (result.Replay.total_steps > 0)

let replay_zero_latency kind () =
  let config =
    { Replay.default with n_txns = 30; m = 4; d_av = 3; ack_latency = 0 }
  in
  let result = Replay.run ~seed:3 config (Registry.make kind) in
  Alcotest.(check int) "submits" (30 * 3) result.Replay.submits

let driver_serializable kind () =
  let config =
    {
      Des.default with
      n_global = 24;
      seed = 5;
      workload = { Workload.default with m = 4; d_av = 2; data_per_site = 8 };
    }
  in
  let result = Des.run_kind config kind in
  check "globally serializable" true result.Des.serializable;
  check "ser(S) serializable" true result.Des.ser_s_serializable;
  check "some commits" true (result.Des.committed_global > 0)

let scheme_cases f =
  List.map
    (fun kind -> Alcotest.test_case (Registry.name kind) `Quick (f kind))
    Registry.all

let driver_high_contention kind () =
  let config =
    {
      Des.default with
      n_global = 40;
      seed = 23;
      locals_per_site = 30;
      workload =
        { Workload.default with m = 3; d_av = 2; data_per_site = 4; hotspot = 2 };
    }
  in
  let result = Des.run_kind config kind in
  check "globally serializable under contention" true result.Des.serializable;
  check "ser(S) serializable under contention" true result.Des.ser_s_serializable

let () =
  Alcotest.run "mdbs-sim"
    [
      ("replay-completes", scheme_cases replay_completes);
      ("replay-zero-latency", scheme_cases replay_zero_latency);
      ("driver-serializable", scheme_cases driver_serializable);
      ("driver-contention", scheme_cases driver_high_contention);
    ]
