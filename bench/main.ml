(* Benchmark harness: regenerates every "result" of the paper.

   The paper's evaluation is analytic — complexity theorems and a
   degree-of-concurrency ordering rather than measured tables — so each
   theorem/claim becomes one experiment:

     E1-E4  steps/transaction sweeps (Scheme 0 of S4; Theorems 4, 6, 9)
     E5     degree of concurrency (WAIT insertions), Scheme 1/2
            incomparability witnesses, Scheme 3's permits-all check (S4-S7)
     E6     minimal-Delta intractability (Theorem 7)
     E7     end-to-end MDBS + the no-control violation hunt (Thms 2/3/5/8)

   The experiment tables (abstract step counts — the unit the theorems
   bound) are printed first; then one Bechamel wall-clock Test.make per
   experiment confirms that real time tracks the abstract counters. *)

module Registry = Mdbs_core.Registry
module Replay = Mdbs_sim.Replay
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
module Tsgd = Mdbs_core.Tsgd
module Eliminate_cycles = Mdbs_core.Eliminate_cycles
module Minimal_delta = Mdbs_core.Minimal_delta
module Rng = Mdbs_util.Rng
open Mdbs_experiments

let print_tables () =
  List.iter
    (fun (id, table) ->
      Report.print (table ());
      (* E5 again at low contention: EXPERIMENTS.md's second E5 table. *)
      if id = "E5" then
        Report.print
          (Concurrency.wait_table
             ~config:{ Replay.m = 16; n_txns = 64; d_av = 2; concurrency = 8; ack_latency = 0 }
             ()))
    Catalog.tables

(* ----------------------------------------------------- Bechamel section *)

open Bechamel
open Toolkit

let replay_bench kind ~n_txns ~d_av ~concurrency =
  Test.make
    ~name:
      (Printf.sprintf "E1-E4 replay %s (n=%d d_av=%d)" (Registry.name kind)
         concurrency d_av)
    (Staged.stage (fun () ->
         let config = { Replay.m = 16; n_txns; d_av; concurrency; ack_latency = 2 } in
         ignore (Replay.run ~seed:17 config (Registry.make kind))))

let wait_bench kind =
  Test.make
    ~name:(Printf.sprintf "E5 open-loop %s" (Registry.name kind))
    (Staged.stage (fun () ->
         ignore
           (Replay.run_fixed ~seed:5
              { Replay.m = 8; n_txns = 64; d_av = 3; concurrency = 16; ack_latency = 0 }
              (Registry.make kind))))

let grow_tsgd rng n =
  let tsgd = Tsgd.create () in
  for gid = 1 to n do
    Tsgd.add_txn tsgd gid (Rng.sample_distinct rng 2 6);
    let delta, _ = Eliminate_cycles.run tsgd gid in
    List.iter (fun (src, site) -> Tsgd.add_dep tsgd src site gid) delta
  done;
  tsgd

let ec_bench n =
  Test.make
    ~name:(Printf.sprintf "E6 Eliminate_Cycles growth (n=%d)" n)
    (Staged.stage (fun () -> ignore (grow_tsgd (Rng.create 31) n)))

let exact_bench n =
  Test.make
    ~name:(Printf.sprintf "E6 exact minimal-Delta (n=%d)" n)
    (Staged.stage (fun () ->
         let rng = Rng.create 31 in
         let tsgd = grow_tsgd rng n in
         Tsgd.add_txn tsgd (n + 1) (Rng.sample_distinct rng 2 6);
         ignore (Minimal_delta.minimum ~limit:20_000 tsgd (n + 1))))

let endtoend_bench kind =
  Test.make
    ~name:(Printf.sprintf "E7 end-to-end %s" (Registry.name kind))
    (Staged.stage (fun () ->
         let config =
           {
             Des.default with
             n_global = 30;
             seed = 19;
             workload = { Workload.default with m = 4; d_av = 2; data_per_site = 12 };
           }
         in
         ignore (Des.run_kind config kind)))

(* Service-runtime primitives: the two-lane mailbox is on the hot path of
   every GTM/worker exchange, the substream derivation on every client
   spawn. *)
let mailbox_bench =
  Test.make ~name:"svc mailbox put/take (cap 64)"
    (Staged.stage (fun () ->
         let box = Mdbs_svc.Mailbox.create ~capacity:64 () in
         for i = 1 to 64 do
           ignore (Mdbs_svc.Mailbox.put box i)
         done;
         for _ = 1 to 64 do
           ignore (Mdbs_svc.Mailbox.take box)
         done))

let substream_bench =
  Test.make ~name:"svc rng substream derive+draw"
    (Staged.stage
       (let parent = Rng.create 7 in
        fun () ->
          for i = 0 to 31 do
            ignore (Rng.int64 (Rng.substream parent i))
          done))

(* Wound-wait tick cost: [quiet] is the lock-free pre-check every ticker
   tick pays, [decide] the full two-rule scan paid only when a wound
   window has elapsed. Population sized like a saturated GTM (hundreds of
   blocked entries). *)
let wound_waiters n =
  List.init n (fun i ->
      {
        Mdbs_svc.Wound.w_gid = i + 1;
        w_birth = i + 1;
        w_site = i mod 8;
        w_since = float_of_int (i mod 50);
        w_wounded = [];
      })

let wound_residents n =
  List.init n (fun i ->
      {
        Mdbs_svc.Wound.r_gid = i + 1;
        r_birth = i + 1;
        r_sites = [ i mod 8; (i + 1) mod 8 ];
      })

let wound_quiet_bench n =
  let waiters = wound_waiters n in
  Test.make
    ~name:(Printf.sprintf "svc wound quiet pre-check (%d waiters)" n)
    (Staged.stage (fun () ->
         (* Windows all open: the common no-kill tick. *)
         assert
           (Mdbs_svc.Wound.quiet ~now:49.5 ~wound_after_ms:100. ~waiters)))

let wound_decide_bench n =
  let waiters = wound_waiters n in
  let residents = wound_residents n in
  Test.make
    ~name:(Printf.sprintf "svc wound decide (%d waiters)" n)
    (Staged.stage (fun () ->
         ignore
           (Mdbs_svc.Wound.decide ~now:200. ~wound_after_ms:100.
              ~deadline_ms:400. ~waiters ~residents)))

let mailbox_drain_bench =
  Test.make ~name:"svc mailbox bulk put/drain (cap 64)"
    (Staged.stage (fun () ->
         let box = Mdbs_svc.Mailbox.create ~capacity:64 () in
         for i = 1 to 64 do
           ignore (Mdbs_svc.Mailbox.put box i)
         done;
         ignore (Mdbs_svc.Mailbox.drain box)))

(* Engine-level: the full GTM2 queue-operation sequence of [n] sequential
   global transactions over [m] sites (init, ser x m, ack x m, fin), fed
   through the locked scheduler either one lock round per operation (the
   pre-batching hot path) or as a single run_ops batch — the difference is
   the dispatch amortization the service runtime banks on. *)
module Queue_op = Mdbs_core.Queue_op

let engine_ops ~n_txns ~m =
  List.concat
    (List.init n_txns (fun i ->
         let gid = i + 1 in
         let sites = List.init m (fun s -> s) in
         List.concat
           [
             [ Queue_op.Init { Queue_op.gid; ser_sites = sites } ];
             List.map (fun s -> Queue_op.Ser (gid, s)) sites;
             List.map (fun s -> Queue_op.Ack (gid, s)) sites;
             [ Queue_op.Fin gid ];
           ]))

let gtm_sched_per_op_bench =
  let ops = engine_ops ~n_txns:32 ~m:4 in
  Test.make ~name:"svc gtm_sched scheme3 per-op lock (32 txns)"
    (Staged.stage (fun () ->
         let sched = Mdbs_svc.Gtm_sched.create (Registry.make Registry.S3) in
         List.iter (fun op -> ignore (Mdbs_svc.Gtm_sched.run_ops sched [ op ])) ops))

let gtm_sched_batched_bench =
  let ops = engine_ops ~n_txns:32 ~m:4 in
  Test.make ~name:"svc gtm_sched scheme3 batched run_ops (32 txns)"
    (Staged.stage (fun () ->
         let sched = Mdbs_svc.Gtm_sched.create (Registry.make Registry.S3) in
         ignore (Mdbs_svc.Gtm_sched.run_ops sched ops)))

(* Runtime-level: a whole (small) certified closed-loop run, domains and
   all — end-to-end cost of the batched service hot path. *)
let runtime_loadgen_bench =
  let wl = { Workload.default with m = 2; data_per_site = 16 } in
  Test.make ~name:"svc runtime loadgen scheme3 (m=2, 4 clients x 3)"
    (Staged.stage (fun () ->
         ignore
           (Mdbs_svc.Loadgen.run
              (Mdbs_svc.Runtime.config ~scheme:(Registry.make Registry.S3)
                 ~sites:(Workload.make_sites wl) ())
              (Mdbs_svc.Loadgen.config ~seed:11 ~wl
                 (Closed { clients = 4; txns_per_client = 3 })))))

(* Streaming-certifier throughput: feed a prebuilt clean event stream
   (the event sequence of [n] sequential 2-site global transactions)
   through Incremental.feed — the per-event cost every live-certified
   run pays, GC sweeps included. *)
module Incremental = Mdbs_analysis.Incremental

let incremental_events ~n_txns ~m =
  List.concat
    (List.init n_txns (fun i ->
         let gid = i + 1 in
         let sites = List.init m (fun s -> s) in
         List.concat
           [
             [ Incremental.Global (gid, sites) ];
             List.concat_map
               (fun s ->
                 [
                   Incremental.Op (s, gid, Mdbs_model.Op.Begin);
                   Incremental.Op
                     (s, gid, Mdbs_model.Op.Write (Mdbs_model.Item.Key (i mod 8), 1));
                 ])
               sites;
             List.map (fun s -> Incremental.Ser (gid, s)) sites;
             List.map (fun s -> Incremental.Op (s, gid, Mdbs_model.Op.Commit)) sites;
             [ Incremental.End gid ];
           ]))

let incremental_feed_bench ~retain_order n_txns =
  let events = incremental_events ~n_txns ~m:2 in
  let n_events = List.length events in
  Test.make
    ~name:
      (Printf.sprintf "analysis incremental feed (%d events%s)" n_events
         (if retain_order then "" else ", soak"))
    (Staged.stage (fun () ->
         let inc = Incremental.create ~strict_end:false ~retain_order () in
         Incremental.feed_list inc events;
         assert (not (Incremental.violated inc))))

let benchmarks () =
  let tests =
    List.concat
      [
        List.map
          (fun kind -> replay_bench kind ~n_txns:96 ~d_av:3 ~concurrency:16)
          Registry.all;
        List.map wait_bench Registry.all;
        [ ec_bench 16; ec_bench 32; exact_bench 8; exact_bench 10 ];
        List.map endtoend_bench Registry.all;
        [ mailbox_bench; mailbox_drain_bench; substream_bench;
          wound_quiet_bench 256; wound_decide_bench 256;
          gtm_sched_per_op_bench; gtm_sched_batched_bench;
          runtime_loadgen_bench;
          incremental_feed_bench ~retain_order:true 256;
          incremental_feed_bench ~retain_order:false 256 ];
      ]
  in
  Test.make_grouped ~name:"mdbs" tests

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] (benchmarks ()) in
  let results = Analyze.all ols instance raw in
  print_endline "== Bechamel wall-clock (monotonic clock, ns/run) ==";
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let estimate =
          match Analyze.OLS.estimates result with
          | Some (est :: _) -> Printf.sprintf "%.0f" est
          | Some [] | None -> "-"
        in
        [ name; estimate ] :: acc)
      results []
    |> List.sort compare
  in
  Mdbs_util.Table.print ~headers:[ "benchmark"; "ns/run" ] rows

let () =
  print_tables ();
  run_bechamel ()
