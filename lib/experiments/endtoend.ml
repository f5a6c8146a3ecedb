module Registry = Mdbs_core.Registry
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
module Analysis = Mdbs_analysis.Analysis

let default_config =
  {
    Des.default with
    n_global = 60;
    global_rate = 0.01;
    locals_per_site = 12;
    seed = 19;
    workload =
      { Workload.default with m = 4; d_av = 2; data_per_site = 12; hotspot = 4 };
  }

let result_row (run : Des.run) =
  let r = run.Des.result in
  let analysis = Analysis.analyze run.Des.trace in
  [
    r.Des.scheme_name;
    Report.i r.Des.committed_global;
    Report.i r.Des.restarts;
    Report.i r.Des.failed_global;
    Report.i r.Des.committed_local;
    Report.i r.Des.aborted_local;
    Report.i r.Des.forced_aborts;
    Report.i r.Des.ser_waits;
    Report.i r.Des.scheme_steps;
    (if r.Des.serializable then "yes" else "NO");
    (if r.Des.ser_s_serializable then "yes" else "NO");
    Report.i (Mdbs_analysis.Lint.errors analysis.Analysis.diagnostics);
    (if Analysis.certified analysis then "yes" else "NO");
  ]

let headers =
  [
    "scheme";
    "g-commit";
    "restarts";
    "g-failed";
    "l-commit";
    "l-abort";
    "forced";
    "ser waits";
    "steps";
    "CSR";
    "ser(S)";
    "lint err";
    "cert";
  ]

let run ?(config = default_config) () =
  let rows =
    List.map
      (fun kind -> result_row (Des.run_full config kind))
      Registry.all_with_baseline
  in
  {
    Report.id = "E7";
    title =
      Printf.sprintf
        "end-to-end MDBS (discrete-event, %g globals/ms): %d global txns \
         over %d heterogeneous sites (2PL/TO/SGT/OCC), hotspot contention, \
         locals bypassing the GTM"
        config.Des.global_rate config.Des.n_global
        config.Des.workload.Workload.m;
    headers;
    rows;
    notes =
      [
        "schemes 0-3 must show CSR=yes and ser(S)=yes (Theorems 3, 5, 8); \
         nocontrol may show NO";
        "restarts, forced deadlock victims and ser waits fall together \
         from scheme0 to scheme1 to schemes 2-3 (S3's argument: a delayed \
         ser(S) operation holds its subtransaction's locks)";
        "lint err / cert come from the static analysis pass over the \
         captured trace: error-severity diagnostics and whether the \
         certifier discharged both obligations";
      ];
  }

let violation_hunt ?(attempts = 50) () =
  let rec hunt seed =
    if seed > attempts then None
    else begin
      let config =
        {
          default_config with
          seed;
          n_global = 40;
          workload =
            {
              Workload.default with
              m = 3;
              d_av = 2;
              data_per_site = 4;
              hotspot = 2;
              write_ratio = 0.7;
            };
        }
      in
      let run = Des.run_full config Registry.Nocontrol in
      if not run.Des.result.Des.serializable then Some (seed, run)
      else hunt (seed + 1)
    end
  in
  let rows, notes =
    match hunt 1 with
    | Some (seed, run) ->
        ( [ result_row run ],
          [
            Printf.sprintf
              "baseline violates global serializability at seed %d — the \
               anomaly the paper's schemes exist to prevent"
              seed;
          ] )
    | None ->
        ( [],
          [
            Printf.sprintf
              "no violation found in %d seeds (try more contention)" attempts;
          ] )
  in
  {
    Report.id = "E7b";
    title =
      Printf.sprintf
        "no-control baseline: first seed with a global serializability \
         violation (CSR = NO; discrete-event, %g globals/ms)"
        default_config.Des.global_rate;
    headers;
    rows;
    notes;
  }
