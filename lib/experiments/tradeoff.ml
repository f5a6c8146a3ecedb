module Registry = Mdbs_core.Registry
module Scheme1 = Mdbs_core.Scheme1
module Replay = Mdbs_sim.Replay
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
open Mdbs_model

let conservative_vs_optimistic ?(seeds = [ 2; 4; 6; 8; 10 ]) () =
  let davs = [ 1; 2; 3; 4 ] in
  let measure kind d_av =
    let config = { Replay.m = 6; n_txns = 48; d_av; concurrency = 12; ack_latency = 0 } in
    List.fold_left
      (fun (waits, aborts, uncert) seed ->
        let r = Replay.run_fixed ~seed config (Registry.make kind) in
        ( waits + r.Replay.ser_waits,
          aborts + r.Replay.aborts,
          uncert + if r.Replay.certified then 0 else 1 ))
      (0, 0, 0) seeds
  in
  let rows =
    List.map
      (fun d_av ->
        let w0, _, u0 = measure Registry.S0 d_av in
        let w3, _, u3 = measure Registry.S3 d_av in
        let wo, ao, uo = measure Registry.Otm d_av in
        [
          string_of_int d_av;
          Report.i w0;
          Report.i w3;
          Report.i wo;
          Report.i ao;
          Report.i (u0 + u3 + uo);
        ])
      davs
  in
  {
    Report.id = "E9";
    title =
      "conservative delay vs optimistic abort: waits (and otm aborts) as \
       contention rises (48 txns, m=6, totals over 5 seeds)";
    headers =
      [
        "d_av"; "scheme0 waits"; "scheme3 waits"; "otm waits"; "otm ABORTS";
        "uncertified";
      ];
    rows;
    notes =
      [
        "otm never waits beyond transport but aborts whole global \
         transactions — the cost S3's point 1 calls 'expensive, highly \
         undesirable'";
        "scheme3 delays a few operations and aborts nothing: the paper's \
         case for conservative schemes";
        "uncertified = runs (over all three schemes) whose realized ser(S) \
         the static certifier could not certify — must be 0";
      ];
  }

let marking_ablation ?(seeds = [ 3; 5; 8; 13; 21 ]) () =
  let config = { Replay.m = 16; n_txns = 64; d_av = 2; concurrency = 8; ack_latency = 0 } in
  let total scheme_of =
    List.fold_left
      (fun acc seed -> acc + (Replay.run_fixed ~seed config (scheme_of ())).Replay.ser_waits)
      0 seeds
  in
  let cycle = total (fun () -> Scheme1.make ~mark_policy:Scheme1.Mark_on_cycle ()) in
  let always = total (fun () -> Scheme1.make ~mark_policy:Scheme1.Mark_always ()) in
  let scheme0 = total (fun () -> Registry.make Registry.S0) in
  {
    Report.id = "E10";
    title =
      "Scheme 1 marking ablation: what the TSG cycle test buys (waits, \
       totals over 5 seeds, m=16, d_av=2)";
    headers = [ "variant"; "ser waits" ];
    rows =
      [
        [ "scheme1, mark on TSG cycle (paper)"; Report.i cycle ];
        [ "scheme1, mark always (ablation)"; Report.i always ];
        [ "scheme0 (FIFO reference)"; Report.i scheme0 ];
      ];
    notes =
      [
        "marking everything collapses Scheme 1 toward Scheme 0's FIFO \
         discipline; the cycle test is where the concurrency comes from";
      ];
  }

let atomic_commit ?(seeds = [ 1; 2; 3; 4; 5; 6 ]) () =
  let run atomic =
    List.fold_left
      (fun (commits, restarts, waits, halves) seed ->
        let config =
          {
            Des.default with
            n_global = 30;
            seed;
            atomic_commit = atomic;
            workload =
              {
                Workload.default with
                m = 3;
                d_av = 2;
                data_per_site = 4;
                hotspot = 2;
                write_ratio = 0.7;
                protocols = [ Types.Optimistic; Types.Optimistic; Types.Two_phase_locking ];
              };
          }
        in
        let run = Des.run_full config Registry.S3 in
        let r = run.Des.result in
        ( commits + r.Des.committed_global,
          restarts + r.Des.restarts,
          waits + r.Des.ser_waits,
          halves
          + List.length (List.filter (Chaos.half_committed run) run.Des.attempts) ))
      (0, 0, 0, 0) seeds
  in
  let row label (commits, restarts, waits, halves) =
    [ label; Report.i commits; Report.i restarts; Report.i waits; Report.i halves ]
  in
  {
    Report.id = "E12";
    title =
      Printf.sprintf
        "atomic commitment extension: one-phase vs two-phase commit over \
         OCC-heavy sites under contention (30 globals x 6 seeds, Scheme 3, \
         discrete-event, %g globals/ms)"
        Des.default.Des.global_rate;
    headers = [ "mode"; "g-commit"; "restarts"; "ser waits"; "HALF-COMMITS" ];
    rows =
      [
        row "one-phase (paper's model)" (run false);
        row "two-phase commit" (run true);
      ];
    notes =
      [
        "half-commits = attempts committed at some site but not at all of \
         theirs: the atomicity anomaly the paper leaves to future work; 2PC \
         drives it to zero";
        "2PC is not free at this load: it commits fewer globals and \
         restarts more than one-phase commit";
      ];
  }

let protocol_mix ?(seed = 11) () =
  let run protocols label =
    let config =
      {
        Des.default with
        n_global = 40;
        seed;
        workload =
          {
            Workload.default with
            m = 4;
            d_av = 2;
            data_per_site = 10;
            hotspot = 4;
            protocols;
          };
      }
    in
    let r = Des.run_kind config Registry.S3 in
    [
      label;
      Report.i r.Des.committed_global;
      Report.i r.Des.restarts;
      Report.i r.Des.forced_aborts;
      Report.i r.Des.ser_waits;
      (if r.Des.serializable then "yes" else "NO");
    ]
  in
  let rows =
    List.map
      (fun kind -> run [ kind ] (Types.protocol_name kind))
      Types.all_protocols
    @ [ run Types.all_protocols "mixed" ]
  in
  {
    Report.id = "E11";
    title =
      Printf.sprintf
        "local-protocol substrate ablation (same workload, Scheme 3, 40 \
         globals over 4 homogeneous sites, discrete-event, %g globals/ms)"
        Des.default.Des.global_rate;
    headers = [ "protocol"; "g-commit"; "restarts"; "forced"; "ser waits"; "CSR" ];
    rows;
    notes =
      [
        "TO and OCC restart on late or invalidated accesses and wait-die \
         2PL on its die rule; conservative 2PL predeclares its locks and \
         restarts once; SGT pays for GTM tickets";
        "2PL wedges: its cross-site deadlocks are invisible to every site, \
         and the 200 ms scan's one youngest victim per scan does not \
         unwedge the run (29 of 40 fail after 10 restarts each). scheme3, \
         otm and nocontrol give identical counts, so no GTM2 scheme causes \
         it; a 1000 ms timeout gives the same counts with a 5x makespan; at \
         0.02 and 0.01 globals/ms the row commits 40 of 40 with 0 forced";
      ];
  }
