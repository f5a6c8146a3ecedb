module Registry = Mdbs_core.Registry
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
module Obs = Mdbs_obs.Obs
module Metrics = Mdbs_obs.Metrics

let default_config =
  {
    Des.default with
    n_global = 60;
    seed = 23;
    workload = { Workload.default with m = 4; d_av = 2; data_per_site = 32 };
  }

let wait_table ?(config = default_config) () =
  let rows =
    List.map
      (fun kind ->
        (* Metrics only: the engine stamps every ser(S) operation's
           QUEUE-to-dispatch wait into gtm2_queue_wait_ms{scheme,site}. *)
        let obs = Obs.create ~trace:false () in
        let r = Des.run_kind { config with Des.obs } kind in
        let snap = Metrics.snapshot obs.Obs.metrics in
        match Metrics.sum_hist snap "gtm2_queue_wait_ms" with
        | Some h ->
            [
              r.Des.scheme_name;
              Report.i h.Metrics.count;
              Report.f (Metrics.snap_mean h);
              Report.f (Metrics.snap_percentile h 50.0);
              Report.f (Metrics.snap_percentile h 95.0);
              Report.f (Metrics.snap_percentile h 99.0);
              Report.f r.Des.mean_response_ms;
            ]
        | None ->
            [ r.Des.scheme_name; "0"; "-"; "-"; "-"; "-";
              Report.f r.Des.mean_response_ms ])
      Registry.all
  in
  {
    Report.id = "E15";
    title =
      Printf.sprintf
        "GTM2 queue-wait distribution per scheme (metrics layer; %d globals \
         over %d sites, same workload as E13)"
        config.Des.n_global config.Des.workload.Workload.m;
    headers =
      [ "scheme"; "ser ops"; "mean ms"; "p50 ms"; "p95 ms"; "p99 ms"; "resp ms" ];
    rows;
    notes =
      [
        "percentiles are bucket upper bounds (powers of two); a ser \
         operation that passes the scheme's test immediately contributes a \
         zero wait";
        "scheme0's FIFO parks every ser operation behind the whole \
         predecessor transaction, so its wait tail and response time grow \
         together (scheme1's per-site insert queues behave nearly the same \
         at this load); schemes 2-3 admit more interleavings and cut the \
         p95 wait 8x — the quantitative form of S3's concurrency \
         argument";
      ];
  }
