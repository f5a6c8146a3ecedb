(* Tests of the parallel service runtime: mailbox backpressure and
   admission, promises, certified smoke runs of every scheme on real
   domains, parked-admission draining, local transactions alongside
   globals, and graceful degradation when a site worker crashes mid-run. *)

module Mailbox = Mdbs_svc.Mailbox
module Promise = Mdbs_svc.Promise
module Runtime = Mdbs_svc.Runtime
module Loadgen = Mdbs_svc.Loadgen
module Outcome = Mdbs_svc.Outcome
module Retry = Mdbs_svc.Retry
module Wound = Mdbs_core.Wound
module Registry = Mdbs_core.Registry
module Workload = Mdbs_sim.Workload
module Fault = Mdbs_sim.Fault
module Analysis = Mdbs_analysis.Analysis
module Certificate = Mdbs_analysis.Certificate
module Incremental = Mdbs_analysis.Incremental
module Live_cert = Mdbs_svc.Live_cert
module Rng = Mdbs_util.Rng
module Local_dbms = Mdbs_site.Local_dbms
module Types = Mdbs_model.Types
module Op = Mdbs_model.Op
module Txn = Mdbs_model.Txn
module Item = Mdbs_model.Item

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* -------------------------------------------------------------- mailbox *)

let mailbox_fifo () =
  let box = Mailbox.create ~capacity:4 () in
  check_bool "put 1" true (Mailbox.put box 1);
  check_bool "put 2" true (Mailbox.put box 2);
  ignore (Mailbox.put_urgent box 99);
  (* Urgent lane overtakes the normal lane. *)
  Alcotest.(check (option int)) "urgent first" (Some 99) (Mailbox.take box);
  Alcotest.(check (option int)) "then fifo" (Some 1) (Mailbox.take box);
  Alcotest.(check (option int)) "then fifo" (Some 2) (Mailbox.take box)

let mailbox_admission () =
  (* The bounded normal lane is the admission-control surface: try_put
     refuses exactly when the lane is at capacity. *)
  let box = Mailbox.create ~capacity:2 () in
  Alcotest.(check bool) "ok" true (Mailbox.try_put box 1 = `Ok);
  Alcotest.(check bool) "ok" true (Mailbox.try_put box 2 = `Ok);
  Alcotest.(check bool) "full" true (Mailbox.try_put box 3 = `Full);
  (* The urgent lane is exempt from the bound. *)
  check_bool "urgent accepted" true (Mailbox.put_urgent box 4);
  (* take serves the urgent item first; only draining a *normal* item
     frees admission space. *)
  Alcotest.(check (option int)) "urgent served" (Some 4) (Mailbox.take box);
  Alcotest.(check bool) "still full" true (Mailbox.try_put box 5 = `Full);
  Alcotest.(check (option int)) "normal served" (Some 1) (Mailbox.take box);
  Alcotest.(check bool) "space again" true (Mailbox.try_put box 5 = `Ok);
  check_int "hwm" 3 (Mailbox.high_watermark box)

let mailbox_backpressure () =
  (* A blocked producer resumes when a consumer drains the lane. *)
  let box = Mailbox.create ~capacity:1 () in
  check_bool "fill" true (Mailbox.put box 0);
  let unblocked = Atomic.make false in
  let producer =
    Thread.create
      (fun () ->
        ignore (Mailbox.put box 1);
        Atomic.set unblocked true)
      ()
  in
  Thread.delay 0.02;
  check_bool "producer blocked while full" false (Atomic.get unblocked);
  Alcotest.(check (option int)) "drain" (Some 0) (Mailbox.take box);
  Thread.join producer;
  check_bool "producer resumed" true (Atomic.get unblocked);
  Alcotest.(check (option int)) "value arrived" (Some 1) (Mailbox.take box)

let mailbox_close () =
  let box = Mailbox.create ~capacity:2 () in
  check_bool "put" true (Mailbox.put box 1);
  Mailbox.close box;
  check_bool "put after close refused" false (Mailbox.put box 2);
  Alcotest.(check bool) "closed" true (Mailbox.try_put box 2 = `Closed);
  (* Drains what was accepted, then signals end-of-stream. *)
  Alcotest.(check (option int)) "drains" (Some 1) (Mailbox.take box);
  Alcotest.(check (option int)) "eos" None (Mailbox.take box)

(* drain empties both lanes in one call: the whole urgent lane first, then
   the whole normal lane, FIFO within each. *)
let mailbox_drain_order () =
  let box = Mailbox.create ~capacity:8 () in
  check_bool "put 1" true (Mailbox.put box 1);
  check_bool "put 2" true (Mailbox.put box 2);
  ignore (Mailbox.put_urgent box 91);
  check_bool "put 3" true (Mailbox.put box 3);
  ignore (Mailbox.put_urgent box 92);
  Alcotest.(check (list int)) "urgent lane first, FIFO within lanes"
    [ 91; 92; 1; 2; 3 ]
    (Mailbox.drain box);
  check_int "emptied" 0 (Mailbox.length box)

(* A bulk drain frees the whole normal lane at once, so *every* producer
   blocked on the bound resumes (broadcast, not a single signal). *)
let mailbox_drain_backpressure () =
  let box = Mailbox.create ~capacity:3 () in
  check_bool "fill 1" true (Mailbox.put box 1);
  check_bool "fill 2" true (Mailbox.put box 2);
  check_bool "fill 3" true (Mailbox.put box 3);
  let resumed = Atomic.make 0 in
  let producers =
    List.init 3 (fun i ->
        Thread.create
          (fun () ->
            ignore (Mailbox.put box (10 + i));
            Atomic.incr resumed)
          ())
  in
  Thread.delay 0.02;
  check_int "producers blocked while full" 0 (Atomic.get resumed);
  let first = Mailbox.drain box in
  check_int "full drain" 3 (List.length first);
  List.iter Thread.join producers;
  check_int "all producers resumed" 3 (Atomic.get resumed);
  (* The three queued values all landed (order among racing producers is
     unspecified). *)
  let rest = Mailbox.drain box in
  Alcotest.(check (list int)) "late values arrived" [ 10; 11; 12 ]
    (List.sort compare rest)

(* Once closed and emptied, drain returns [] instead of blocking. *)
let mailbox_drain_close () =
  let box = Mailbox.create ~capacity:2 () in
  check_bool "put" true (Mailbox.put box 7);
  Mailbox.close box;
  Alcotest.(check (list int)) "drains the residue" [ 7 ] (Mailbox.drain box);
  Alcotest.(check (list int)) "eos" [] (Mailbox.drain box)

(* -------------------------------------------------------------- promise *)

let promise_basic () =
  let p = Promise.create () in
  check_bool "not fulfilled" false (Promise.is_fulfilled p);
  let got = ref None in
  let waiter = Thread.create (fun () -> got := Some (Promise.await p)) () in
  Promise.fulfill p 42;
  Thread.join waiter;
  Alcotest.(check (option int)) "awaited" (Some 42) !got;
  (* First fulfillment wins; later ones are ignored. *)
  Promise.fulfill p 7;
  check_int "still first" 42 (Promise.await p)

(* ---------------------------------------------------- certified smoke runs *)

let wl ?(durable = false) m =
  { Workload.default with Workload.m; data_per_site = 16; durable }

(* Runtime.config over fresh sites of [w]; the result still takes
   Runtime.config's optional arguments, then [()]. *)
let runtime w kind =
  Runtime.config ~scheme:(Registry.make kind) ~sites:(Workload.make_sites w)

(* [clients] closed-loop clients of [txns] logical transactions each. *)
let closed ?local_fraction ?retry ~seed w clients txns =
  Loadgen.config ?local_fraction ?retry ~seed ~wl:w
    (Loadgen.Closed { clients; txns_per_client = txns })

(* Open-loop arrivals at [rate] per second for [duration_s], retries off. *)
let open_loop ?local_fraction ~seed w rate duration_s =
  Loadgen.config ?local_fraction ~retry:Retry.off ~seed ~wl:w
    (Loadgen.Open { rate; duration_s })

(* Every scheme, on >= 4 real site domains plus the GTM domain, with a
   closed loop of concurrent clients; the realized interleaving must
   certify clean against the Theorem-2 obligations. *)
let smoke_scheme kind () =
  let r = Loadgen.run (runtime (wl 4) kind ()) (closed ~seed:7 (wl 4) 6 8) in
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted);
  check_bool "some commits" true (r.Loadgen.committed > 0);
  check_int "no violations" 0 r.Loadgen.violations;
  check_bool "certified" true r.Loadgen.certified

(* Batched-dispatch smoke: more clients than max_active on 4 sites, so the
   GTM drains multi-message inbox batches, ships multi-request Batch
   messages through the per-site outboxes, and workers coalesce replies —
   and the realized interleaving must still certify, for every scheme
   (per-site execution order = dispatch order survives the batching). *)
let batched_scheme kind () =
  let r =
    Loadgen.run
      (runtime (wl 4) kind ~capacity:8 ~max_active:8 ~tick_ms:2. ())
      (closed ~seed:23 (wl 4) 16 4)
  in
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted);
  check_bool "some commits" true (r.Loadgen.committed > 0);
  check_int "no violations" 0 r.Loadgen.violations;
  check_bool "certified" true r.Loadgen.certified

(* Conservative schemes never abort on their own, and conservative-2PL
   sites never abort unilaterally either (deadlock-free, predeclared
   locks) — so every abort in this run must come from the cross-site
   deadlock/stall detector. *)
let conservative_abort_accounting () =
  let c2pl =
    { (wl 4) with Workload.protocols = [ Mdbs_model.Types.Conservative_2pl ] }
  in
  let r = Loadgen.run (runtime c2pl Registry.S3 ()) (closed ~seed:3 c2pl 4 6) in
  let st = r.Loadgen.run.Runtime.run_stats in
  check_bool "aborts only from detector" true
    (st.Runtime.aborted
    <= st.Runtime.force_aborts + st.Runtime.stall_kills
       + st.Runtime.site_crashes);
  check_bool "certified" true r.Loadgen.certified

(* max_active below the client count forces admissions to park inside the
   GTM; everything must still drain and certify. *)
let parked_admission_drains () =
  let r =
    Loadgen.run
      (runtime (wl 4) Registry.S2 ~capacity:2 ~max_active:2 ())
      (closed ~seed:11 (wl 4) 8 5)
  in
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted);
  check_bool "certified" true r.Loadgen.certified

(* Local transactions bypass the GTM yet appear in the certified trace. *)
let locals_and_globals () =
  let r =
    Loadgen.run (runtime (wl 3) Registry.S1 ())
      (closed ~local_fraction:0.4 ~seed:5 (wl 3) 6 8)
  in
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted);
  check_bool "certified" true r.Loadgen.certified

(* Atomic commitment (2PC brackets) across the service runtime. *)
let atomic_commit_run () =
  let r =
    Loadgen.run
      (runtime (wl 4) Registry.S3 ~atomic_commit:true ())
      (closed ~seed:13 (wl 4) 4 6)
  in
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted);
  check_bool "certified" true r.Loadgen.certified

(* A read-only mix on 2PL sites never conflicts: every arrival commits. *)
let read_only =
  { (wl 3) with
    Workload.write_ratio = 0.;
    protocols = [ Types.Two_phase_locking ] }

(* Open-loop serve mode with retries off: every arrival is either accepted
   by the admission lane or rejected by backpressure, and the drained run
   still certifies. Locals count in [offered], so their commits must count
   in the commit ratio too: on the read-only mix every arrival commits and
   the ratio is exactly 1. *)
let serve_accounting () =
  let s =
    Loadgen.run
      (runtime (wl 3) Registry.S2 ~capacity:8 ())
      (open_loop ~seed:21 (wl 3) 400. 0.5)
  in
  check_int "offered split" s.Loadgen.submitted
    (s.Loadgen.accepted + s.Loadgen.rejected_backpressure);
  check_bool "made progress" true
    (s.Loadgen.run.Runtime.run_stats.Runtime.committed > 0);
  check_bool "certified" true s.Loadgen.run.Runtime.certified;
  let s =
    Loadgen.run
      (runtime read_only Registry.S3 ())
      (open_loop ~local_fraction:0.25 ~seed:22 read_only 200. 0.5)
  in
  let st = s.Loadgen.run.Runtime.run_stats in
  check_int "no global aborted" 0 st.Runtime.aborted;
  check_int "nothing refused" 0
    (s.Loadgen.rejected_backpressure + s.Loadgen.sheds);
  Alcotest.(check (float 1e-9)) "locals count as committed" 1.0
    s.Loadgen.commit_ratio;
  check_bool "certified" true s.Loadgen.run.Runtime.certified

(* The open loop times each committed logical transaction from its
   arrival: one sample per commit, none negative, percentiles in order. *)
let serve_latency () =
  let r =
    Loadgen.run
      (runtime read_only Registry.S3 ())
      (open_loop ~local_fraction:0.25 ~seed:22 read_only 200. 0.5)
  in
  check_bool "some commits" true (r.Loadgen.committed > 0);
  check_int "one sample per committed txn" r.Loadgen.committed
    (List.length r.Loadgen.latencies_ms);
  check_bool "samples non-negative" true
    (List.for_all (fun ms -> ms >= 0.) r.Loadgen.latencies_ms);
  check_bool "p50 <= p99 <= max" true
    (r.Loadgen.p50_ms <= r.Loadgen.p99_ms
    && r.Loadgen.p99_ms <= r.Loadgen.max_ms)

(* The summary distinguishes the two relief valves: mailbox backpressure
   rejections (full admission lane) versus the GTM's own Outcome.Shed
   refusals (parked/blocked bounds). The shed count observed at the client
   must agree with the runtime's own counter, and backpressure must not be
   conflated into it. *)
let serve_backpressure_vs_shed () =
  let hot = { (wl 3) with Workload.hotspot = 2 } in
  let s =
    Loadgen.run
      (runtime hot Registry.S2 ~capacity:4 ~max_active:2 ~shed_parked:1 ())
      (open_loop ~seed:33 hot 600. 0.5)
  in
  let st = s.Loadgen.run.Runtime.run_stats in
  check_int "client sheds = runtime sheds" st.Runtime.sheds s.Loadgen.sheds;
  check_int "client backpressure = runtime rejections" st.Runtime.rejected
    s.Loadgen.rejected_backpressure;
  check_int "offered split" s.Loadgen.submitted
    (s.Loadgen.accepted + s.Loadgen.rejected_backpressure);
  (* Sheds are refusals, not aborts: the abort-cause breakdown books them
     under "shed" and nowhere else. *)
  check_int "sheds bucketed as shed" st.Runtime.sheds
    (try List.assoc "shed" st.Runtime.abort_causes with Not_found -> 0);
  check_bool "certified" true s.Loadgen.run.Runtime.certified

(* ---------------------------------------------- retry, wound-wait, shed *)

(* Backoff schedule: full jitter inside [0, min(cap, base·2^(k-1))), a shed
   doubles the window, a disabled policy never sleeps, and the schedule is
   a pure function of the rng seed. *)
let retry_delay_bounds () =
  let pol = Retry.policy ~max_attempts:6 ~base_ms:4. ~cap_ms:64. () in
  let rng = Rng.create 99 in
  for attempt = 1 to 6 do
    let window =
      Float.min 64. (4. *. Float.pow 2. (float_of_int (attempt - 1)))
    in
    for _ = 1 to 40 do
      let d = Retry.delay_ms pol rng ~attempt ~shed:false in
      check_bool "non-negative" true (d >= 0.);
      check_bool "inside window" true (d < window);
      let ds = Retry.delay_ms pol rng ~attempt ~shed:true in
      check_bool "shed window at most doubled" true (ds < 2. *. window)
    done
  done;
  let draw seed =
    let r = Rng.create seed in
    List.init 24 (fun i ->
        Retry.delay_ms pol r ~attempt:((i mod 6) + 1) ~shed:(i mod 3 = 0))
  in
  check_bool "deterministic under seed" true (draw 7 = draw 7);
  check_bool "distinct seeds diverge" true (draw 7 <> draw 8);
  check_bool "off never sleeps" true
    (Retry.delay_ms Retry.off (Rng.create 1) ~attempt:1 ~shed:true = 0.)

(* QCheck: on a conflict cycle of n >= 2 waiting globals (ring-shaped, so
   each waits for its predecessor), the wound-wait policy never picks the
   oldest member as the victim — under arbitrary births, sites, wait
   clocks, bystander residents, and members that are blocked at a site
   (they wait for every resident there) or parked in GTM2 (they wait for
   the blockers their scheme names). Wounds must also respect age
   priority outright: the victim is strictly younger than its wounder.
   The deadline never kills a parked member. *)
let wound_cycle_gen =
  QCheck.Gen.(
    let* n = int_range 2 8 in
    let* births = list_repeat n (int_bound 50) in
    let* sites = list_repeat n (int_bound 3) in
    let* waits = list_repeat n (float_bound_inclusive 400.) in
    let* parked = list_repeat n bool in
    let* extras = list_size (int_bound 4) (pair (int_bound 50) (int_bound 3)) in
    return (births, sites, waits, parked, extras))

let wound_cycle_arb =
  QCheck.make
    ~print:(fun (births, sites, waits, parked, extras) ->
      Printf.sprintf "births=[%s] sites=[%s] waits=[%s] parked=[%s] extras=%d"
        (String.concat ";" (List.map string_of_int births))
        (String.concat ";" (List.map string_of_int sites))
        (String.concat ";" (List.map (Printf.sprintf "%.0f") waits))
        (String.concat ";" (List.map string_of_bool parked))
        (List.length extras))
    wound_cycle_gen

let wound_never_kills_oldest =
  QCheck.Test.make ~name:"wound-wait never kills the oldest of a cycle"
    ~count:2000 wound_cycle_arb
    (fun (births, sites, waits, parked, extras) ->
      let n = List.length births in
      let now = 1000. in
      let nth = List.nth in
      (* A parked member's scheme names its predecessor and the bystanders
         at its site. *)
      let named i =
        ((i + n - 1) mod n)
        :: List.concat
             (List.mapi
                (fun j (_, s) -> if s = nth sites i then [ n + j ] else [])
                extras)
      in
      let waiters =
        List.init n (fun i ->
            { Wound.w_gid = i; w_birth = nth births i;
              w_at =
                (if nth parked i then Wound.Gtm2 (lazy (named i))
                 else Wound.Site (nth sites i));
              w_since = now -. nth waits i; w_wounded = [] })
      in
      (* Ring residency: member i holds state at its own blocked site and at
         its successor's, so every site waiter has a conflicting resident. *)
      let cycle_residents =
        List.init n (fun i ->
            { Wound.r_gid = i; r_birth = nth births i;
              r_sites =
                List.sort_uniq compare [ nth sites i; nth sites ((i + 1) mod n) ]
            })
      in
      let extra_residents =
        List.mapi
          (fun j (b, s) ->
            { Wound.r_gid = n + j; r_birth = b; r_sites = [ s ] })
          extras
      in
      let birth_of gid =
        if gid < n then nth births gid else fst (nth extras (gid - n))
      in
      let oldest =
        List.fold_left
          (fun best w ->
            if Wound.older w.Wound.w_birth w.Wound.w_gid (birth_of best) best
            then w.Wound.w_gid
            else best)
          (List.hd waiters).Wound.w_gid (List.tl waiters)
      in
      match
        Wound.decide ~now ~wound_after_ms:10. ~deadline_ms:100. ~waiters
          ~residents:(cycle_residents @ extra_residents)
      with
      | Wound.No_kill -> true
      | Wound.Timeout victim -> victim <> oldest && not (nth parked victim)
      | Wound.Wound { wounder; victim } ->
          victim <> oldest
          && Wound.older (birth_of wounder) wounder (birth_of victim) victim)

(* Certified differential across 13 seeds: the same seeded hotspot workload
   with retries off and on. Both runs must certify, and retries may only
   help the commit ratio — goodput is the point of the whole mechanism. *)
let retry_differential seed () =
  let hot = { (wl 4) with Workload.hotspot = 3 } in
  let base ~retry =
    Loadgen.run
      (runtime hot Registry.S3 ~stall_timeout_ms:120. ())
      (closed ~retry ~seed hot 4 4)
  in
  let off = base ~retry:Retry.off in
  let on =
    base ~retry:(Retry.policy ~max_attempts:10 ~base_ms:2. ~cap_ms:16. ())
  in
  check_bool "retries-off certified" true off.Loadgen.certified;
  check_bool "retries-on certified" true on.Loadgen.certified;
  check_int "same logical offer" off.Loadgen.submitted on.Loadgen.submitted;
  check_bool "retries never hurt the commit ratio" true
    (on.Loadgen.commit_ratio >= off.Loadgen.commit_ratio);
  check_bool "attempts >= logical submissions" true
    (on.Loadgen.attempts >= on.Loadgen.submitted)

(* Regression for the wound -> retry race: a wounded transaction's per-site
   state must be fully released before its retry is admitted. If release
   lagged admission, the retry's fresh tid would join the victim's leftover
   ser(S) entries and some (tid, site) pair would serialize twice. Run a
   contended, wound-heavy loop with retries and assert ser(S) never
   double-visits. *)
let wound_retry_no_double_visit () =
  let hot = { (wl 4) with Workload.hotspot = 2 } in
  let r =
    Loadgen.run
      (runtime hot Registry.S2 ~stall_timeout_ms:80. ~wound_after_ms:10.
         ~tick_ms:2. ())
      (closed
         ~retry:(Retry.policy ~max_attempts:8 ~base_ms:1. ~cap_ms:8. ())
         ~seed:57 hot 8 6)
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (tid, sid) ->
      if Hashtbl.mem seen (tid, sid) then
        Alcotest.failf "ser(S) double-visit: txn %d at site %d" tid sid;
      Hashtbl.add seen (tid, sid) ())
    r.Loadgen.run.Runtime.trace.Mdbs_analysis.Trace.ser_events;
  check_bool "certified" true r.Loadgen.certified;
  check_int "all settled" r.Loadgen.submitted
    (r.Loadgen.committed + r.Loadgen.aborted)

(* QCheck: one GTM settles and certifies under arbitrary site footprints.
   Random m up to 8 sites, locality, site-group count, hotspot and
   admission bound produce globals confined to one group or spanning
   several, admitted straight through or parked behind max_active; every
   submission must settle and the realized interleaving must certify
   against the Theorem-2 obligations. *)
let footprint_run_gen =
  QCheck.Gen.(
    let* m = int_range 2 8 in
    let* locality = float_bound_inclusive 1.0 in
    let* site_groups = int_range 0 m in
    let* max_active = oneofl [ 1; 2; 8; 64 ] in
    let* hotspot = int_bound 2 in
    let* seed = int_bound 999 in
    return (m, locality, site_groups, max_active, hotspot, seed))

let footprint_run_arb =
  QCheck.make
    ~print:(fun (m, locality, site_groups, max_active, hotspot, seed) ->
      Printf.sprintf
        "m=%d locality=%.2f site_groups=%d max_active=%d hotspot=%d seed=%d" m
        locality site_groups max_active hotspot seed)
    footprint_run_gen

let footprint_certified =
  QCheck.Test.make ~name:"sharded scheduling certifies under random footprints"
    ~count:10 footprint_run_arb
    (fun (m, locality, site_groups, max_active, hotspot, seed) ->
      let w = { (wl m) with Workload.locality; site_groups; hotspot } in
      let r =
        Loadgen.run (runtime w Registry.S3 ~max_active ()) (closed ~seed w 6 4)
      in
      r.Loadgen.certified
      && r.Loadgen.violations = 0
      && r.Loadgen.submitted = r.Loadgen.committed + r.Loadgen.aborted)

(* Certified differential across 13 seeds: the same seeded workload run
   with admission unbounded and with max_active 2, which parks most of the
   six clients' admissions — the throttle that replaced sharded GTM2
   scheduling. Both runs must settle every submission and certify clean:
   the admission bound is a scheduling change, not a correctness change. *)
let throttle_differential seed () =
  let base ~max_active =
    Loadgen.run
      (runtime (wl 4) Registry.S3 ~max_active ())
      (closed ~seed (wl 4) 6 4)
  in
  let unbounded = base ~max_active:64 in
  let throttled = base ~max_active:2 in
  check_bool "unbounded certified" true unbounded.Loadgen.certified;
  check_bool "throttled certified" true throttled.Loadgen.certified;
  check_int "unbounded violations" 0 unbounded.Loadgen.violations;
  check_int "throttled violations" 0 throttled.Loadgen.violations;
  check_int "same logical offer" unbounded.Loadgen.submitted
    throttled.Loadgen.submitted;
  check_int "unbounded all settled" unbounded.Loadgen.submitted
    (unbounded.Loadgen.committed + unbounded.Loadgen.aborted);
  check_int "throttled all settled" throttled.Loadgen.submitted
    (throttled.Loadgen.committed + throttled.Loadgen.aborted)

(* Fault injection for the in-flight races below: sites [0 .. m-1] with
   [protocols] assigned cyclically, and site 1's op tap holding [tid]'s
   Begin on the worker, before the reply leaves, until [release] is set.
   [write s v] is a subtransaction writing v to key 0 at site s. *)
let sites_holding_begin ?(protocols = [ Types.Two_phase_locking ]) m tid =
  let sites = Workload.make_sites { (wl m) with Workload.protocols } in
  let held = Atomic.make false and release = Atomic.make false in
  Local_dbms.set_op_tap (List.nth sites 1) (fun t action ->
      if t = tid && action = Op.Begin then begin
        Atomic.set held true;
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done
      end);
  (sites, held, release)

let write s v = (s, [ Op.Write (Item.Key 0, v) ])

(* Poll [cond] for up to 10 s; on a timeout let the held Begin go, so the
   worker can exit, and fail. *)
let wait_for release what cond =
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (cond ()) then begin
    Atomic.set release true;
    Alcotest.failf "timed out waiting for %s" what
  end

(* A global killed while one of its steps is in flight leaves nothing
   pending to fake-ack, and an in-flight Begin is not yet among the
   global's begun sites, so the kill's rollback sweep misses that site.
   The victim's Begin is held at site 1 while an older global blocks
   behind its write lock at site 0 and wounds it. Once released, the
   Begin's reply must roll the victim back at site 1: after the drain no
   site may hold an active subtransaction. [protocol_1] is site 1's
   protocol: 2PL sends the Begin straight to the site, timestamp ordering
   routes it through GTM2 as a serialization operation. *)
let orphan_after_in_flight_kill protocol_1 () =
  let victim = Txn.global ~id:2 [ write 0 1; write 1 1 ] in
  let sites, held, release =
    sites_holding_begin ~protocols:[ Types.Two_phase_locking; protocol_1 ] 2
      victim.Txn.id
  in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites
         ~wound_after_ms:10. ~tick_ms:2. ())
  in
  let p_victim = Runtime.submit_global rt victim in
  wait_for release "the held Begin" (fun () -> Atomic.get held);
  let p_wounder = Runtime.submit_global rt (Txn.global ~id:1 [ write 0 2 ]) in
  wait_for release "the wound" (fun () -> (Runtime.stats rt).Runtime.wounds > 0);
  Atomic.set release true;
  check_bool "victim wounded" true
    (Promise.await p_victim = Outcome.Aborted "wound");
  check_bool "wounder committed" true
    (Promise.await p_wounder = Outcome.Committed);
  let res = Runtime.shutdown rt in
  List.iter
    (fun dbms ->
      check_int
        (Printf.sprintf "no active subtransaction at site %d"
           (Local_dbms.site_id dbms))
        0
        (Local_dbms.active_count dbms))
    sites;
  check_bool "certified" true res.Runtime.certified

(* Wound-wait must not starve a retry. H (oldest) writes key 0 at site 0
   and is then held in flight at site 1; W waits for the key behind H,
   and V's attempts queue behind W. W cannot wound H, so its wait
   outlives the wound window: it may wound V once, but not V's retries,
   which inherit V's birth — else they would exhaust V's attempts while
   W is still blocked. *)
let wound_once_per_wait () =
  let h = Txn.global ~id:1 [ write 0 1; write 1 1 ] in
  let sites, held, release = sites_holding_begin 2 h.Txn.id in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites
         ~wound_after_ms:10. ~tick_ms:2. ~stall_timeout_ms:5000. ())
  in
  let p_h = Runtime.submit_global rt h in
  wait_for release "the held Begin" (fun () -> Atomic.get held);
  let p_w = Runtime.submit_global rt (Txn.global ~id:2 [ write 0 2 ]) in
  Unix.sleepf 0.03;
  (* V's client: the default retry budget, each retry a fresh tid that
     inherits V's birth. *)
  let v_outcome = ref (Outcome.Aborted "unsettled") in
  let v_client =
    Thread.create
      (fun () ->
        let rec go txn k =
          match Promise.await (Runtime.submit_global rt ~birth:3 txn) with
          | Outcome.Aborted "wound" when k < Retry.default.Retry.max_attempts ->
              Unix.sleepf 0.004;
              go (Txn.with_id txn (Types.fresh_tid ())) (k + 1)
          | out -> v_outcome := out
        in
        go (Txn.global ~id:3 [ write 0 3 ]) 1)
      ()
  in
  (* Long enough for W to wound every one of V's attempts if it may. *)
  Unix.sleepf 0.3;
  Atomic.set release true;
  Thread.join v_client;
  check_bool "H committed" true (Promise.await p_h = Outcome.Committed);
  check_bool "W committed" true (Promise.await p_w = Outcome.Committed);
  check_bool "V committed" true (!v_outcome = Outcome.Committed);
  let res = Runtime.shutdown rt in
  check_int "one wound" 1 res.Runtime.run_stats.Runtime.wounds;
  check_bool "certified" true res.Runtime.certified

(* The hard deadline kills the stalled waiter, not a younger waiter that
   arrived later. H (oldest) writes key 0 at sites 0 and 2 and is then
   held in flight at site 1; W waits for the key at site 0, and V, 100 ms
   later, at site 2. Neither has a younger resident to wound at its site.
   When W passes the deadline it is W that dies: killing V, the youngest
   waiter, would free nothing W needs. Releasing H then lets V through. *)
let deadline_spares_later_arrivals () =
  let h = Txn.global ~id:1 [ write 0 1; write 2 1; write 1 1 ] in
  let sites, held, release = sites_holding_begin 3 h.Txn.id in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites ~tick_ms:2.
         ~stall_timeout_ms:200. ())
  in
  let p_h = Runtime.submit_global rt h in
  wait_for release "the held Begin" (fun () -> Atomic.get held);
  let p_w = Runtime.submit_global rt (Txn.global ~id:2 [ write 0 2 ]) in
  Unix.sleepf 0.1;
  let p_v = Runtime.submit_global rt (Txn.global ~id:3 [ write 2 3 ]) in
  wait_for release "the deadline kill" (fun () ->
      (Runtime.stats rt).Runtime.stall_kills > 0);
  Atomic.set release true;
  check_bool "W, stalled past the deadline, killed" true
    (Promise.await p_w = Outcome.Aborted "stall-deadline");
  check_bool "V committed" true (Promise.await p_v = Outcome.Committed);
  check_bool "H committed" true (Promise.await p_h = Outcome.Committed);
  let res = Runtime.shutdown rt in
  let st = res.Runtime.run_stats in
  check_int "force_aborts counts every policy kill"
    (st.Runtime.wounds + st.Runtime.stall_kills)
    st.Runtime.force_aborts;
  check_bool "certified" true res.Runtime.certified

(* The GTM2-park cycle of test_gtm's coord/parked-cycle, on the service.
   Scheme 3, site 0 runs 2PL and site 1 TO. V, the younger, is submitted
   first: its Begin at site 1 serializes it before O there, and its write
   of z at site 1 is held until O, admitted behind it, has written x at
   site 0. Released, V blocks on x behind O at site 0, while O's Commit
   there parks in GTM2 behind V's pending one. V may not wound O, and no
   site sees the cycle: O, parked past its wound window, must wound V. The
   deadline is far out, so only that wound ends V quickly. *)
let parked_wounds_blocker () =
  let x = Item.Key 0 and y = Item.Key 1 and z = Item.Key 2 in
  let o = Txn.global ~id:1 [ (0, [ Op.Write (x, 1) ]); (1, [ Op.Write (y, 1) ]) ] in
  let v = Txn.global ~id:2 [ (1, [ Op.Write (z, 2) ]); (0, [ Op.Write (x, 2) ]) ] in
  let sites =
    Workload.make_sites
      { (wl 2) with
        Workload.protocols = [ Types.Two_phase_locking; Types.Timestamp_ordering ] }
  in
  let held = Atomic.make false
  and o_wrote = Atomic.make false
  and release = Atomic.make false in
  Local_dbms.set_op_tap (List.nth sites 1) (fun t action ->
      if t = v.Txn.id && action = Op.Write (z, 2) then begin
        Atomic.set held true;
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done
      end);
  Local_dbms.set_op_tap (List.nth sites 0) (fun t action ->
      if t = o.Txn.id && action = Op.Write (x, 1) then Atomic.set o_wrote true);
  let deadline_ms = 2000. in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites ~tick_ms:2.
         ~stall_timeout_ms:deadline_ms ())
  in
  let p_v = Runtime.submit_global rt v in
  wait_for release "V held at site 1" (fun () -> Atomic.get held);
  let p_o = Runtime.submit_global rt o in
  wait_for release "O's write of x" (fun () -> Atomic.get o_wrote);
  let released = Unix.gettimeofday () in
  Atomic.set release true;
  let v_out = Promise.await p_v in
  let waited_ms = (Unix.gettimeofday () -. released) *. 1000. in
  Alcotest.(check string) "V wounded" "aborted: wound" (Outcome.to_string v_out);
  check_bool
    (Printf.sprintf "well inside the deadline (%.0f ms)" waited_ms)
    true
    (waited_ms < deadline_ms /. 4.);
  check_bool "O committed" true (Promise.await p_o = Outcome.Committed);
  let res = Runtime.shutdown rt in
  check_int "one wound" 1 res.Runtime.run_stats.Runtime.wounds;
  check_int "no stall kill" 0 res.Runtime.run_stats.Runtime.stall_kills;
  check_bool "certified" true res.Runtime.certified

(* Admission shedding: a burst far beyond max_active with a parked bound of
   one makes the GTM refuse admissions before any per-site state exists.
   Sheds must be distinct from aborts in the accounting and the surviving
   execution must still certify. *)
let shed_under_burst () =
  let config = { (wl 2) with Workload.hotspot = 2 } in
  let sites = Workload.make_sites config in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S2) ~sites ~max_active:1
         ~shed_parked:1 ~capacity:64 ())
  in
  let rng = Rng.create 41 in
  let n = 48 in
  let promises =
    List.init n (fun _ -> Runtime.submit_global rt (Workload.global_txn rng config))
  in
  let outcomes = List.map Promise.await promises in
  let res = Runtime.shutdown rt in
  let st = res.Runtime.run_stats in
  let shed_seen =
    List.length (List.filter (fun o -> o = Outcome.Shed) outcomes)
  in
  check_bool "burst actually shed" true (st.Runtime.sheds > 0);
  check_int "promises agree with counter" st.Runtime.sheds shed_seen;
  check_int "every submission settled" n
    (st.Runtime.committed + st.Runtime.aborted + st.Runtime.sheds);
  check_int "sheds bucketed under shed" st.Runtime.sheds
    (try List.assoc "shed" st.Runtime.abort_causes with Not_found -> 0);
  check_bool "certified" true res.Runtime.certified

(* The duplicate-admission guard: resubmitting a still-tracked tid is
   refused outright rather than silently double-visiting sites. A prior
   burst keeps the GTM's inbox busy so both admissions of the duplicate
   land in one batch while the first is live. *)
let duplicate_admission_refused () =
  let config = { (wl 2) with Workload.hotspot = 2 } in
  let sites = Workload.make_sites config in
  let rt =
    Runtime.start (Runtime.config ~scheme:(Registry.make Registry.S2) ~sites ())
  in
  let rng = Rng.create 43 in
  let warm =
    List.init 24 (fun _ -> Runtime.submit_global rt (Workload.global_txn rng config))
  in
  let txn = Workload.global_txn rng config in
  let first = Runtime.submit_global rt txn in
  let dup = Runtime.submit_global rt txn in
  (match Promise.await dup with
  | Outcome.Aborted "duplicate-admission" -> ()
  | Outcome.Aborted r -> Alcotest.failf "wrong refusal reason: %s" r
  | Outcome.Committed | Outcome.Shed ->
      Alcotest.fail "duplicate admission must be refused");
  check_bool "original unaffected" true
    (Promise.await first <> Outcome.Aborted "duplicate-admission");
  List.iter (fun p -> ignore (Promise.await p)) warm;
  let res = Runtime.shutdown rt in
  check_bool "certified" true res.Runtime.certified

(* ----------------------------------------------------------- site crash *)

(* Crash one site worker mid-run (the victim chosen by realizing a Fault
   plan, as the chaos harness does). The runtime must degrade gracefully:
   every submitted transaction still reaches a final status, the crash is
   counted, and the surviving execution certifies. *)
let site_crash_graceful () =
  let m = 4 in
  let plan =
    Fault.realize
      { Fault.default_mix with Fault.site_crashes = 1; gtm_crashes = 0;
        slowdowns = 0 }
      ~seed:17 ~m ~horizon:100.
  in
  let victim =
    match
      List.find_map
        (function _, Fault.Site_crash sid -> Some sid | _ -> None)
        plan.Fault.events
    with
    | Some sid -> sid
    | None -> Alcotest.fail "plan has no site crash"
  in
  let config = wl ~durable:true m in
  let sites = Workload.make_sites config in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites
         ~stall_timeout_ms:100. ())
  in
  let rng = Rng.create 29 in
  let n = 24 in
  let promises =
    List.init n (fun i ->
        if i = n / 2 then Runtime.crash_site rt victim;
        Runtime.submit_global rt (Workload.global_txn rng config))
  in
  let statuses = List.map Promise.await promises in
  let res = Runtime.shutdown rt in
  check_int "all settled" n (List.length statuses);
  List.iter
    (fun s -> check_bool "settled, not shed" true (s <> Outcome.Shed))
    statuses;
  check_int "crash counted" 1 res.Runtime.run_stats.Runtime.site_crashes;
  check_bool "some survivors committed" true
    (res.Runtime.run_stats.Runtime.committed > 0);
  check_int "no violations" 0 (Analysis.errors res.Runtime.analysis);
  check_bool "certified" true res.Runtime.certified

(* The crash races below run two 2PL sites under Scheme 3 and the default
   batch certifier, which installs no op tap of its own. Their deadline
   outlasts the longest hold, 0.3 s, so no stall kill interferes. *)
let crash_race_runtime ~durable =
  let sites =
    Workload.make_sites
      { (wl ~durable 2) with Workload.protocols = [ Types.Two_phase_locking ] }
  in
  let start () =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites
         ~stall_timeout_ms:1000. ())
  in
  (sites, start)

let key k = Item.Key k

(* A step that reaches a restarted site behind its crash names a global
   the site has forgotten. Run as a fresh transaction, it would take a
   lock that nothing releases: the crash already terminated the global
   there, so no rollback follows. G's w(x1) is held at site 0 while the
   crash is queued behind it; the crash's Abort for G then waits 50 ms,
   so the GTM dispatches G's w(x2) behind the crash. *)
let forgotten_step_refused () =
  let sites, start = crash_race_runtime ~durable:true in
  let g =
    Txn.global ~id:1
      [ (0, [ Op.Write (key 1, 1); Op.Write (key 2, 1) ]); (1, [ Op.Read (key 3) ]) ]
  in
  let held = Atomic.make false and release = Atomic.make false in
  Local_dbms.set_op_tap (List.nth sites 0) (fun t action ->
      if t = g.Txn.id then
        match action with
        | Op.Write (Item.Key 1, _) ->
            Atomic.set held true;
            while not (Atomic.get release) do
              Unix.sleepf 0.001
            done
        | Op.Abort -> Unix.sleepf 0.05
        | _ -> ());
  let rt = start () in
  let p_g = Runtime.submit_global rt g in
  wait_for release "the held write" (fun () -> Atomic.get held);
  Runtime.crash_site rt 0;
  Atomic.set release true;
  let out_g = Promise.await p_g in
  let out_g2 =
    Promise.await
      (Runtime.submit_global rt
         (Txn.global ~id:2 [ (0, [ Op.Write (key 2, 1) ]); (1, [ Op.Read (key 3) ]) ]))
  in
  let res = Runtime.shutdown rt in
  check_bool "G aborted by the crash" true (out_g = Outcome.Aborted "site-crash");
  check_bool "G2 committed" true (out_g2 = Outcome.Committed);
  let of_g (e : Mdbs_model.Schedule.entry) = e.tid = g.Txn.id in
  let rec after_abort = function
    | [] -> []
    | e :: rest when of_g e && e.action = Op.Abort -> rest
    | _ :: rest -> after_abort rest
  in
  check_int "no step of G at site 0 after its crash abort" 0
    (List.length
       (List.filter of_g
          (after_abort
             (Mdbs_model.Schedule.entries (Local_dbms.schedule (List.nth sites 0))))));
  check_bool "certified" true res.Runtime.certified

(* A crash of a site without a write-ahead log is a no-op fault: nothing
   dies there, so the GTM must not hear of a crash either. Were G1
   killed, its subtransaction at site 0 would keep x1's lock, since the
   crash would count as its rollback there. Site 1 holds G1's Begin while
   site 0 is crashed. *)
let volatile_crash_noop () =
  let sites, start = crash_race_runtime ~durable:false in
  let g1 = Txn.global ~id:1 [ (0, [ Op.Write (key 1, 1) ]); (1, [ Op.Write (key 2, 1) ]) ] in
  let held = Atomic.make false in
  Local_dbms.set_op_tap (List.nth sites 1) (fun t action ->
      if t = g1.Txn.id && action = Op.Begin then begin
        Atomic.set held true;
        Unix.sleepf 0.3
      end);
  let rt = start () in
  let p1 = Runtime.submit_global rt g1 in
  wait_for (Atomic.make false) "the held Begin" (fun () -> Atomic.get held);
  Runtime.crash_site rt 0;
  let out1 = Promise.await p1 in
  let out2 =
    Promise.await
      (Runtime.submit_global rt
         (Txn.global ~id:2 [ (0, [ Op.Write (key 1, 1) ]); (1, [ Op.Read (key 3) ]) ]))
  in
  let res = Runtime.shutdown rt in
  check_bool "G1 committed" true (out1 = Outcome.Committed);
  check_bool "G2 committed" true (out2 = Outcome.Committed);
  check_int "no crash counted" 0 res.Runtime.run_stats.Runtime.site_crashes;
  check_bool "G1 not active at site 0" false
    (Local_dbms.is_active (List.nth sites 0) g1.Txn.id);
  check_bool "certified" true res.Runtime.certified

(* ------------------------------------- live streaming certification *)

(* Differential oracle across seeds: the loadgen with the streaming
   certifier on and locals mixed among the globals; the live verdict must
   agree with the post-hoc batch certifier on the captured trace, the
   rolling-checkpoint chain must verify, and a clean run must carry a
   final certificate the batch checker accepts against the trace. *)
let live_differential seed () =
  let kinds = [| Registry.S0; Registry.S1; Registry.S2; Registry.S3 |] in
  let kind = kinds.(seed mod Array.length kinds) in
  let r =
    Loadgen.run
      (runtime (wl 4) kind ~certify:Runtime.Certify_live
         ~cert_checkpoint_every:64 ())
      (closed ~local_fraction:0.25 ~seed (wl 4) 6 6)
  in
  let live =
    match r.Loadgen.run.Runtime.live with
    | Some s -> s
    | None -> Alcotest.fail "live summary missing"
  in
  let batch_ok = Analysis.certified r.Loadgen.run.Runtime.analysis in
  check_bool "live verdict = batch verdict" batch_ok
    (not live.Live_cert.violated);
  check_bool "checkpoint chain verified" true live.Live_cert.chain_ok;
  check_bool "several checkpoints" true (live.Live_cert.checkpoints > 1);
  (if batch_ok then
     match live.Live_cert.cert with
     | None -> Alcotest.fail "clean run must carry a certificate"
     | Some c -> (
         match Certificate.verify r.Loadgen.run.Runtime.trace c with
         | Ok () -> ()
         | Error e -> Alcotest.fail ("certificate rejected: " ^ e)));
  check_bool "certified" true r.Loadgen.certified

(* Soak mode: audit retention off at the sites, stable order off in the
   checker — the active window (not run length) bounds memory, and the
   verdict plus chain still land. *)
let live_soak_bounded () =
  let r =
    Loadgen.run
      (runtime (wl 4) Registry.S3 ~certify:Runtime.Certify_soak
         ~cert_checkpoint_every:256 ())
      (closed ~local_fraction:0.2 ~seed:5 (wl 4) 8 25)
  in
  let live =
    match r.Loadgen.run.Runtime.live with
    | Some s -> s
    | None -> Alcotest.fail "live summary missing"
  in
  check_bool "no violation" true (not live.Live_cert.violated);
  check_bool "chain ok" true live.Live_cert.chain_ok;
  let st = live.Live_cert.stats in
  check_bool "events flowed" true (st.Incremental.events > 200);
  check_bool "window bounded" true (st.Incremental.peak_live_txns < 128);
  check_bool "edges bounded" true (st.Incremental.live_edges < 1024);
  check_bool "certified" true r.Loadgen.certified

(* Crash a site mid-run with the streaming certifier on: the live feed
   sees the GTM's End before the site's crash-compensation aborts
   (non-strict End tolerates them), and both certifiers must still agree
   on the surviving execution. *)
let live_survives_crash () =
  let config = wl ~durable:true 4 in
  let sites = Workload.make_sites config in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S3) ~sites
         ~stall_timeout_ms:100. ~certify:Runtime.Certify_live
         ~cert_checkpoint_every:64 ())
  in
  let rng = Rng.create 31 in
  let n = 24 in
  let promises =
    List.init n (fun i ->
        if i = n / 2 then Runtime.crash_site rt 1;
        Runtime.submit_global rt (Workload.global_txn rng config))
  in
  List.iter (fun p -> ignore (Promise.await p)) promises;
  let res = Runtime.shutdown rt in
  let live =
    match res.Runtime.live with
    | Some s -> s
    | None -> Alcotest.fail "live summary missing"
  in
  check_bool "live verdict = batch verdict"
    (Analysis.certified res.Runtime.analysis)
    (not live.Live_cert.violated);
  check_bool "chain ok" true live.Live_cert.chain_ok;
  check_bool "certified" true res.Runtime.certified

(* Submissions after shutdown are refused, not lost. *)
let shutdown_refuses () =
  let config = wl 2 in
  let sites = Workload.make_sites config in
  let rt =
    Runtime.start
      (Runtime.config ~scheme:(Registry.make Registry.S0) ~sites ())
  in
  let rng = Rng.create 1 in
  let p = Runtime.submit_global rt (Workload.global_txn rng config) in
  ignore (Promise.await p);
  let res = Runtime.shutdown rt in
  check_bool "certified" true res.Runtime.certified;
  (match Promise.await (Runtime.submit_global rt (Workload.global_txn rng config)) with
  | Outcome.Aborted _ -> ()
  | _ -> Alcotest.fail "post-shutdown submit must abort");
  check_bool "try refuses" true
    (Runtime.try_submit_global rt (Workload.global_txn rng config) = None)

let () =
  Alcotest.run "mdbs-svc"
    [
      ( "mailbox",
        [
          Alcotest.test_case "fifo+urgent" `Quick mailbox_fifo;
          Alcotest.test_case "admission" `Quick mailbox_admission;
          Alcotest.test_case "backpressure" `Quick mailbox_backpressure;
          Alcotest.test_case "close" `Quick mailbox_close;
          Alcotest.test_case "drain-order" `Quick mailbox_drain_order;
          Alcotest.test_case "drain-backpressure" `Quick
            mailbox_drain_backpressure;
          Alcotest.test_case "drain-close" `Quick mailbox_drain_close;
        ] );
      ("promise", [ Alcotest.test_case "basic" `Quick promise_basic ]);
      ( "smoke-certified",
        List.map
          (fun kind ->
            Alcotest.test_case (Registry.name kind) `Quick (smoke_scheme kind))
          Registry.all );
      ( "smoke-batched",
        List.map
          (fun kind ->
            Alcotest.test_case (Registry.name kind) `Quick (batched_scheme kind))
          Registry.all );
      ( "runtime",
        [
          Alcotest.test_case "conservative-aborts" `Quick
            conservative_abort_accounting;
          Alcotest.test_case "parked-admission" `Quick parked_admission_drains;
          Alcotest.test_case "locals" `Quick locals_and_globals;
          Alcotest.test_case "atomic-commit" `Quick atomic_commit_run;
          Alcotest.test_case "serve" `Quick serve_accounting;
          Alcotest.test_case "serve-shed-split" `Quick
            serve_backpressure_vs_shed;
          Alcotest.test_case "serve-latency" `Quick serve_latency;
          Alcotest.test_case "shutdown" `Quick shutdown_refuses;
        ] );
      ( "robustness",
        Alcotest.test_case "backoff-bounds" `Quick retry_delay_bounds
        :: QCheck_alcotest.to_alcotest wound_never_kills_oldest
        :: Alcotest.test_case "wound-retry-no-double-visit" `Quick
             wound_retry_no_double_visit
        :: Alcotest.test_case "orphan-begin-direct" `Quick
             (orphan_after_in_flight_kill Types.Two_phase_locking)
        :: Alcotest.test_case "orphan-begin-ser" `Quick
             (orphan_after_in_flight_kill Types.Timestamp_ordering)
        :: Alcotest.test_case "wound-once-per-wait" `Quick wound_once_per_wait
        :: Alcotest.test_case "deadline-spares-later-arrivals" `Quick
             deadline_spares_later_arrivals
        :: Alcotest.test_case "parked-wounds-blocker" `Quick
             parked_wounds_blocker
        :: Alcotest.test_case "shed-burst" `Quick shed_under_burst
        :: Alcotest.test_case "duplicate-admission" `Quick
             duplicate_admission_refused
        :: List.init 13 (fun i ->
               let seed = i + 1 in
               Alcotest.test_case
                 (Printf.sprintf "retry-differential-seed-%d" seed)
                 `Quick (retry_differential seed)) );
      (* The suite and case names predate the removal of sharded GTM2
         scheduling (DESIGN §17); every run here is one GTM. *)
      ( "sharded",
        QCheck_alcotest.to_alcotest footprint_certified
        :: List.init 13 (fun i ->
               let seed = i + 1 in
               Alcotest.test_case
                 (Printf.sprintf "shard-differential-seed-%d" seed)
                 `Quick (throttle_differential seed)) );
      ( "faults",
        [
          Alcotest.test_case "site-crash" `Quick site_crash_graceful;
          Alcotest.test_case "forgotten-step-refused" `Quick forgotten_step_refused;
          Alcotest.test_case "volatile-crash-noop" `Quick volatile_crash_noop;
        ] );
      ( "live-cert",
        Alcotest.test_case "soak-bounded" `Quick live_soak_bounded
        :: Alcotest.test_case "crash" `Quick live_survives_crash
        :: List.init 13 (fun i ->
               let seed = i + 1 in
               Alcotest.test_case
                 (Printf.sprintf "differential-seed-%d" seed)
                 `Quick (live_differential seed)) );
    ]
