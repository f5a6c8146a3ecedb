module Registry = Mdbs_core.Registry
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload

let default_config =
  {
    Des.default with
    n_global = 60;
    seed = 23;
    workload = { Workload.default with m = 4; d_av = 2; data_per_site = 32 };
  }

let scheme_comparison ?(config = default_config) () =
  let rows =
    List.map
      (fun kind ->
        let r = Des.run_kind config kind in
        [
          r.Des.scheme_name;
          Report.i r.Des.committed_global;
          Report.i r.Des.restarts;
          Report.i r.Des.forced_aborts;
          Printf.sprintf "%.1f" r.Des.throughput_per_s;
          Printf.sprintf "%.1f" r.Des.mean_response_ms;
          Printf.sprintf "%.1f" r.Des.p95_response_ms;
          (if r.Des.serializable then "yes" else "NO");
        ])
      Registry.extended
  in
  {
    Report.id = "E13";
    title =
      Printf.sprintf
        "timed end-to-end comparison (discrete-event: service %.1f ms, \
         latency %.1f ms, %d globals over %d heterogeneous sites)"
        config.Des.service_ms config.Des.latency_ms config.Des.n_global
        config.Des.workload.Workload.m;
    headers =
      [ "scheme"; "commit"; "restarts"; "forced"; "tput/s"; "mean ms"; "p95 ms"; "CSR" ];
    rows;
    notes =
      [
        "S3's qualitative claims, measured: FIFO (scheme0) delays whole \
         subtransactions (mean response 1.4x scheme3's, p95 2.2x); the \
         smarter schemes' extra scheduling steps cost nothing visible at \
         realistic latencies";
      ];
  }

let latency_sweep ?(latencies = [ 0.5; 2.0; 8.0 ]) () =
  let rows =
    List.map
      (fun latency_ms ->
        Printf.sprintf "%.1f" latency_ms
        :: List.map
             (fun kind ->
               let r = Des.run_kind { default_config with Des.latency_ms } kind in
               Printf.sprintf "%.1f" r.Des.mean_response_ms)
             Registry.all)
      latencies
  in
  {
    Report.id = "E13b";
    title = "mean global response time (ms) vs GTM-site one-way latency (ms)";
    headers = "latency" :: List.map Registry.name Registry.all;
    rows;
    notes =
      [
        "sequential per-transaction dispatch (S2.3) makes every scheme pay \
         ~2 x latency per operation; the scheduling discipline separates \
         them on top of that";
      ];
  }
