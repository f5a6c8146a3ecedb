(* Tests of GTM1 (sequencing, routing, ticket injection) and the assembled
   GTM (global transactions over heterogeneous sites, local aborts,
   cross-site deadlock resolution, audits). *)

open Mdbs_model
module Gtm1 = Mdbs_core.Gtm1
module Gtm = Mdbs_core.Gtm
module Registry = Mdbs_core.Registry
module Queue_op = Mdbs_core.Queue_op
module Local_dbms = Mdbs_site.Local_dbms

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let x0 = Item.Key 0
let x1 = Item.Key 1

let status_t =
  Alcotest.testable
    (fun ppf -> function
      | Gtm.Active -> Format.pp_print_string ppf "active"
      | Gtm.Committed -> Format.pp_print_string ppf "committed"
      | Gtm.Aborted r -> Format.fprintf ppf "aborted(%s)" r)
    (fun a b ->
      match (a, b) with
      | Gtm.Active, Gtm.Active | Gtm.Committed, Gtm.Committed -> true
      | Gtm.Aborted _, Gtm.Aborted _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ GTM1 *)

let points = function
  | 0 -> Ser_fun.At_begin (* a TO site *)
  | 1 -> Ser_fun.At_commit (* a 2PL site *)
  | _ -> Ser_fun.At_ticket (* an SGT site *)

let gtm1_routing () =
  let gtm1 = Gtm1.create () in
  let txn = Txn.global ~id:1 [ (0, [ Op.Read x0 ]); (1, [ Op.Write (x0, 1) ]) ] in
  let info = Gtm1.admit gtm1 txn ~ser_point_of:points () in
  Alcotest.(check (list int)) "ser sites" [ 0; 1 ] info.Queue_op.ser_sites;
  (* Step sequence: begin@0 (ser), r@0, begin@1, w@1, commit@0, commit@1 (ser). *)
  (match Gtm1.next gtm1 1 with
  | Gtm1.Dispatch_ser 0 -> ()
  | _ -> Alcotest.fail "first step must be the TO begin via GTM2");
  Gtm1.note_dispatched gtm1 1;
  Alcotest.(check bool) "in flight" true (Gtm1.next gtm1 1 = Gtm1.In_flight);
  Gtm1.on_ack gtm1 1;
  (match Gtm1.next gtm1 1 with
  | Gtm1.Dispatch_direct { Gtm1.site = 0; action = Op.Read _; via_gtm2 = false } -> ()
  | _ -> Alcotest.fail "second step: direct read at site 0");
  Gtm1.note_dispatched gtm1 1;
  Gtm1.on_ack gtm1 1;
  (match Gtm1.next gtm1 1 with
  | Gtm1.Dispatch_direct { Gtm1.site = 1; action = Op.Begin; via_gtm2 = false } -> ()
  | _ -> Alcotest.fail "third step: direct begin at 2PL site");
  Gtm1.note_dispatched gtm1 1;
  Gtm1.on_ack gtm1 1;
  Alcotest.(check (list int)) "begun at both" [ 1; 0 ] (Gtm1.begun_sites gtm1 1);
  (* write at site 1 *)
  Gtm1.note_dispatched gtm1 1;
  Gtm1.on_ack gtm1 1;
  (* commit at site 0: direct (TO site serializes at begin) *)
  (match Gtm1.next gtm1 1 with
  | Gtm1.Dispatch_direct { Gtm1.site = 0; action = Op.Commit; via_gtm2 = false } -> ()
  | _ -> Alcotest.fail "commit at TO site is direct");
  Gtm1.note_dispatched gtm1 1;
  Gtm1.on_ack gtm1 1;
  (* commit at site 1: via GTM2 (2PL serializes at commit) *)
  (match Gtm1.next gtm1 1 with
  | Gtm1.Dispatch_ser 1 -> ()
  | _ -> Alcotest.fail "commit at 2PL site routes via GTM2");
  Gtm1.note_dispatched gtm1 1;
  Gtm1.on_ack gtm1 1;
  check_bool "finished" true (Gtm1.next gtm1 1 = Gtm1.Finished)

let gtm1_ticket_injection () =
  let gtm1 = Gtm1.create () in
  let txn = Txn.global ~id:2 [ (2, [ Op.Read x0 ]) ] in
  ignore (Gtm1.admit gtm1 txn ~ser_point_of:points ());
  (* begin@2 direct, then injected ticket via GTM2, then read, commit. *)
  (match Gtm1.next gtm1 2 with
  | Gtm1.Dispatch_direct { Gtm1.action = Op.Begin; _ } -> ()
  | _ -> Alcotest.fail "begin first");
  Gtm1.note_dispatched gtm1 2;
  Gtm1.on_ack gtm1 2;
  (match Gtm1.next gtm1 2 with
  | Gtm1.Dispatch_ser 2 -> (
      match Gtm1.current_step gtm1 2 with
      | Some { Gtm1.action = Op.Ticket_op; via_gtm2 = true; _ } -> ()
      | _ -> Alcotest.fail "ticket step expected")
  | _ -> Alcotest.fail "ticket via GTM2 after begin")

let gtm1_dead_skips_direct () =
  let gtm1 = Gtm1.create () in
  let txn = Txn.global ~id:3 [ (0, [ Op.Read x0 ]); (1, [ Op.Write (x0, 1) ]) ] in
  ignore (Gtm1.admit gtm1 txn ~ser_point_of:points ());
  (* ser begin at 0 *)
  Gtm1.note_dispatched gtm1 3;
  Gtm1.on_ack gtm1 3;
  Gtm1.mark_dead gtm1 3;
  (* All remaining direct steps skipped; only the 2PL commit ser remains. *)
  (match Gtm1.next gtm1 3 with
  | Gtm1.Dispatch_ser 1 -> ()
  | _ -> Alcotest.fail "dead txn should jump to the next ser step");
  Gtm1.note_dispatched gtm1 3;
  Gtm1.on_ack gtm1 3;
  check_bool "finished after sers" true (Gtm1.next gtm1 3 = Gtm1.Finished)

let gtm1_rejects_local () =
  let gtm1 = Gtm1.create () in
  let txn = Txn.local ~id:9 ~site:0 [ Op.Read x0 ] in
  Alcotest.check_raises "local rejected"
    (Invalid_argument "Gtm1.admit: local transaction") (fun () ->
      ignore (Gtm1.admit gtm1 txn ~ser_point_of:points ()))

(* ------------------------------------------------------------------- GTM *)

let heterogeneous_sites () =
  [
    Local_dbms.create ~protocol:Types.Timestamp_ordering 0;
    Local_dbms.create ~protocol:Types.Two_phase_locking 1;
    Local_dbms.create ~protocol:Types.Serialization_graph_testing 2;
    Local_dbms.create ~protocol:Types.Optimistic 3;
  ]

let gtm_commits_across_protocols () =
  List.iter
    (fun kind ->
      Types.reset_tids ();
      let gtm = Gtm.create ~scheme:(Registry.make kind) ~sites:(heterogeneous_sites ()) () in
      let txn =
        Txn.global ~id:(Types.fresh_tid ())
          [
            (0, [ Op.Write (x0, 3) ]);
            (1, [ Op.Read x0; Op.Write (x1, 2) ]);
            (2, [ Op.Write (x0, 1) ]);
            (3, [ Op.Read x0 ]);
          ]
      in
      Alcotest.check status_t
        (Printf.sprintf "commits under %s" (Registry.name kind))
        Gtm.Committed (Gtm.run_global gtm txn);
      (* effects landed *)
      check_int "site 0 write" 3 (Local_dbms.storage_value (Gtm.site gtm 0) x0);
      check_int "site 1 write" 2 (Local_dbms.storage_value (Gtm.site gtm 1) x1);
      (* ticket consumed at the SGT site *)
      check_int "ticket taken" 1 (Local_dbms.storage_value (Gtm.site gtm 2) Item.Ticket);
      (* ser(S) has one event per site *)
      List.iter
        (fun sid ->
          check_int "ser event" 1
            (List.length (Ser_schedule.site_order (Gtm.ser_schedule gtm) sid)))
        [ 0; 1; 2; 3 ];
      check_bool "audit" true (Gtm.audit gtm = Serializability.Serializable))
    Registry.all

let gtm_concurrent_globals_serializable () =
  List.iter
    (fun kind ->
      Types.reset_tids ();
      let gtm = Gtm.create ~scheme:(Registry.make kind) ~sites:(heterogeneous_sites ()) () in
      (* Submit several conflicting globals before pumping. *)
      let txns =
        List.init 6 (fun i ->
            let a = i mod 4 and b = (i + 1) mod 4 in
            Txn.global ~id:(Types.fresh_tid ())
              [ (a, [ Op.Write (x0, 1) ]); (b, [ Op.Read x0 ]) ])
      in
      List.iter (Gtm.submit_global gtm) txns;
      Gtm.pump gtm;
      List.iter
        (fun txn ->
          match Gtm.status gtm txn.Txn.id with
          | Gtm.Active -> Alcotest.fail "still active"
          | Gtm.Committed | Gtm.Aborted _ -> ())
        txns;
      check_bool "serializable" true (Gtm.audit gtm = Serializability.Serializable);
      check_bool "ser(S) ok" true
        (Ser_schedule.is_serializable (Gtm.ser_schedule gtm)))
    Registry.all

let gtm_local_and_global_mix () =
  Types.reset_tids ();
  let gtm =
    Gtm.create ~scheme:(Registry.make Registry.S3) ~sites:(heterogeneous_sites ()) ()
  in
  let global =
    Txn.global ~id:(Types.fresh_tid ())
      [ (1, [ Op.Write (x0, 5) ]); (0, [ Op.Write (x0, 5) ]) ]
  in
  let local = Txn.local ~id:(Types.fresh_tid ()) ~site:1 [ Op.Read x0; Op.Write (x1, 1) ] in
  Gtm.submit_global gtm global;
  Gtm.submit_local gtm local;
  Gtm.pump gtm;
  check_bool "global done" true (Gtm.status gtm global.Txn.id = Gtm.Committed);
  (match Gtm.status gtm local.Txn.id with
  | Gtm.Committed | Gtm.Aborted _ -> ()
  | Gtm.Active -> Alcotest.fail "local stranded");
  check_bool "audit" true (Gtm.audit gtm = Serializability.Serializable)

let gtm_occ_validation_abort_cleans_up () =
  (* A local transaction invalidates the global's OCC read set; the global
     aborts at commit time and must be rolled back everywhere, with GTM2
     draining cleanly. *)
  Types.reset_tids ();
  let sites =
    [
      Local_dbms.create ~protocol:Types.Optimistic 0;
      Local_dbms.create ~protocol:Types.Two_phase_locking 1;
    ]
  in
  let gtm = Gtm.create ~scheme:(Registry.make Registry.S1) ~sites () in
  let gid = Types.fresh_tid () in
  let global = Txn.global ~id:gid [ (0, [ Op.Read x0 ]); (1, [ Op.Write (x1, 7) ]) ] in
  Gtm.submit_global gtm global;
  (* Sneak a conflicting local write committed at site 0 mid-flight: submit
     it right away — OCC validates at commit, so the local committing after
     the global's read dooms the global. The global's first steps run in
     pump; to guarantee interleaving we submit the local first, pump, then
     check either outcome is consistent. *)
  let local = Txn.local ~id:(Types.fresh_tid ()) ~site:0 [ Op.Write (x0, 1) ] in
  Gtm.submit_local gtm local;
  Gtm.pump gtm;
  (match Gtm.status gtm gid with
  | Gtm.Committed | Gtm.Aborted _ -> ()
  | Gtm.Active -> Alcotest.fail "global stranded");
  check_bool "audit holds either way" true (Gtm.audit gtm = Serializability.Serializable);
  (* If aborted, the 2PL site's write must have been rolled back. *)
  match Gtm.status gtm gid with
  | Gtm.Aborted _ -> check_int "rolled back" 0 (Local_dbms.storage_value (Gtm.site gtm 1) x1)
  | _ -> ()

let gtm_cross_site_deadlock_resolved () =
  (* Two globals locking x0 at two 2PL sites in opposite orders: each site's
     local waits-for graph stays acyclic, so only the GTM glue's quiescence
     rule can break the cross-site deadlock. *)
  Types.reset_tids ();
  let sites =
    [
      Local_dbms.create ~protocol:Types.Two_phase_locking 0;
      Local_dbms.create ~protocol:Types.Two_phase_locking 1;
    ]
  in
  let gtm = Gtm.create ~scheme:(Registry.make Registry.S3) ~sites () in
  let g1 =
    Txn.global ~id:(Types.fresh_tid ())
      [ (0, [ Op.Write (x0, 1) ]); (1, [ Op.Write (x0, 1) ]) ]
  in
  let g2 =
    Txn.global ~id:(Types.fresh_tid ())
      [ (1, [ Op.Write (x0, 1) ]); (0, [ Op.Write (x0, 1) ]) ]
  in
  Gtm.submit_global gtm g1;
  Gtm.submit_global gtm g2;
  Gtm.pump gtm;
  let s1 = Gtm.status gtm g1.Txn.id and s2 = Gtm.status gtm g2.Txn.id in
  check_bool "no stranding" true (s1 <> Gtm.Active && s2 <> Gtm.Active);
  check_bool "at least one committed" true (s1 = Gtm.Committed || s2 = Gtm.Committed);
  check_bool "audit" true (Gtm.audit gtm = Serializability.Serializable)

let gtm_otm_aborts_but_stays_serializable () =
  (* The non-conservative optimistic ticket method under heavy conflict:
     some globals die ("gtm2-abort") but whatever commits must be
     serializable, and GTM2's structures must drain. *)
  Types.reset_tids ();
  let sites = heterogeneous_sites () in
  let gtm = Gtm.create ~scheme:(Registry.make Registry.Otm) ~sites () in
  let txns =
    List.init 10 (fun i ->
        let a = i mod 4 and b = (i + 1) mod 4 in
        Txn.global ~id:(Types.fresh_tid ())
          [ (a, [ Op.Write (x0, 1) ]); (b, [ Op.Write (x0, 1) ]) ])
  in
  List.iter (Gtm.submit_global gtm) txns;
  Gtm.pump gtm;
  List.iter
    (fun txn -> check_bool "done" true (Gtm.status gtm txn.Txn.id <> Gtm.Active))
    txns;
  check_bool "committed part serializable" true
    (Gtm.audit gtm = Serializability.Serializable)

let gtm_conservative_2pl_sites () =
  (* Global transactions over conservative-2PL sites: the begin (= all
     locks) is the serialization operation and may block. *)
  Types.reset_tids ();
  let sites =
    [
      Local_dbms.create ~protocol:Types.Conservative_2pl 0;
      Local_dbms.create ~protocol:Types.Conservative_2pl 1;
    ]
  in
  let gtm = Gtm.create ~scheme:(Registry.make Registry.S3) ~sites () in
  let txns =
    List.init 5 (fun _ ->
        Txn.global ~id:(Types.fresh_tid ())
          [ (0, [ Op.Write (x0, 1) ]); (1, [ Op.Read x0; Op.Write (x1, 1) ]) ])
  in
  List.iter (Gtm.submit_global gtm) txns;
  Gtm.pump gtm;
  List.iter
    (fun txn ->
      check_bool "committed" true (Gtm.status gtm txn.Txn.id = Gtm.Committed))
    txns;
  check_int "all writes landed" 5 (Local_dbms.storage_value (Gtm.site gtm 0) x0);
  check_bool "audit" true (Gtm.audit gtm = Serializability.Serializable);
  check_bool "ser(S)" true (Ser_schedule.is_serializable (Gtm.ser_schedule gtm))

let gtm_nocontrol_can_violate () =
  (* Known-bad interleaving demonstrating why GTM2 exists; with the
     no-control scheme the audit may fail. We only require that the run
     completes and the audit *detects* whatever happened; the violation
     seed is exercised deterministically in the experiments (E7b). *)
  Types.reset_tids ();
  let sites = heterogeneous_sites () in
  let gtm = Gtm.create ~scheme:(Registry.make Registry.Nocontrol) ~sites () in
  let txns =
    List.init 8 (fun i ->
        let a = i mod 4 and b = (i + 1) mod 4 in
        Txn.global ~id:(Types.fresh_tid ())
          [ (a, [ Op.Write (x0, 1) ]); (b, [ Op.Write (x0, 1) ]) ])
  in
  List.iter (Gtm.submit_global gtm) txns;
  Gtm.pump gtm;
  List.iter
    (fun txn -> check_bool "done" true (Gtm.status gtm txn.Txn.id <> Gtm.Active))
    txns

(* ----------------------------------------------------------------- Coord *)

module Coord = Mdbs_core.Coord
module Engine = Mdbs_core.Engine

(* A core over a real GTM2 engine whose effects are only recorded: the test
   plays the sites and answers (or not) each Run itself. *)
let recording_coord ?(atomic = false) protocol_of =
  let effects = ref [] in
  let engine = Engine.create (Registry.make Registry.S3) in
  let coord =
    Coord.create ~atomic ~protocol_of
      ~blockers:(fun op -> (Engine.scheme engine).Mdbs_core.Scheme.blockers op)
      ~gtm2:(fun ops ->
        Engine.enqueue_all engine ops;
        Engine.run engine)
      ~perform:(fun _ e -> effects := e :: !effects)
      ()
  in
  let take () =
    let es = List.rev !effects in
    effects := [];
    es
  in
  (coord, take)

let two_site_txn gid =
  Txn.global ~id:gid [ (0, [ Op.Write (x0, 1) ]); (1, [ Op.Write (x1, 1) ]) ]

let runs es =
  List.filter_map
    (function
      | Coord.Run { pc; site; action; _ } -> Some (pc, site, action) | _ -> None)
    es

let rollbacks es =
  List.filter_map (function Coord.Rollback (g, s) -> Some (g, s) | _ -> None) es

let finishes es =
  List.filter_map
    (function Coord.Finish { gid; outcome; _ } -> Some (gid, outcome) | _ -> None)
    es

(* Answer every Run with Done and pump, until [stop] holds on the effects
   seen so far or nothing is left to answer; returns those effects. *)
let play coord take gid ~stop =
  let rec go seen =
    if stop seen then seen
    else
      match runs seen with
      | [] -> seen
      | rs ->
          List.iter (fun (pc, _, _) -> ignore (Coord.reply coord gid ~pc Coord.Done)) rs;
          ignore (Coord.pump coord);
          let fresh = take () in
          if stop fresh then fresh else go fresh
  in
  ignore (Coord.pump coord);
  go (take ())

let first_begin_at site es =
  match List.filter (fun (_, s, a) -> s = site && a = Op.Begin) (runs es) with
  | (pc, _, _) :: _ -> pc
  | [] -> Alcotest.fail "expected a Begin to go out"

let coord_orphan_rollback () =
  (* A kill lands while a Begin is out: the sweep cannot know that site, so
     the Begin's answer rolls the global back there, once. *)
  let coord, take = recording_coord (fun _ -> Types.Two_phase_locking) in
  Coord.admit coord (two_site_txn 1);
  ignore (Coord.pump coord);
  let pc = first_begin_at 0 (take ()) in
  check_bool "killed" true (Coord.kill coord 1 "test");
  check_int "nothing begun yet: no rollback" 0 (List.length (rollbacks (take ())));
  check_bool "answer taken" true (Coord.reply coord 1 ~pc Coord.Done <> None);
  Alcotest.(check (list (pair int int))) "rolled back where it ran" [ (1, 0) ]
    (rollbacks (take ()));
  check_bool "duplicate answer is stale" true (Coord.reply coord 1 ~pc Coord.Done = None);
  let rest = play coord take 1 ~stop:(fun es -> finishes es <> []) in
  check_int "no second rollback" 0 (List.length (rollbacks rest));
  match finishes rest with
  | [ (1, Coord.Aborted "test") ] -> ()
  | _ -> Alcotest.fail "expected the global to finish aborted"

let coord_blocked_after_kill () =
  (* A kill races the site's Waiting answer: nothing would ever complete
     the wait, so the core rolls back and completes the step at once. *)
  let coord, take = recording_coord (fun _ -> Types.Two_phase_locking) in
  Coord.admit coord (two_site_txn 1);
  ignore (Coord.pump coord);
  let pc = first_begin_at 0 (take ()) in
  ignore (Coord.kill coord 1 "test");
  ignore (Coord.reply coord 1 ~pc Coord.Blocked);
  Alcotest.(check (list (pair int int))) "rolled back" [ (1, 0) ] (rollbacks (take ()));
  check_int "not left blocked" 0 (Coord.blocked_count coord);
  check_bool "step completed" true (Coord.awaiting coord 1 = None)

let coord_site_crash_lost_block () =
  let coord, take = recording_coord (fun _ -> Types.Two_phase_locking) in
  Coord.admit coord (two_site_txn 1);
  ignore (Coord.pump coord);
  let pc = first_begin_at 0 (take ()) in
  ignore (Coord.reply coord 1 ~pc Coord.Blocked);
  check_int "blocked" 1 (Coord.blocked_count coord);
  Coord.site_crash coord 0 ~in_doubt:[];
  check_bool "dead" true (Coord.is_dead coord 1);
  check_int "the lost wait is completed" 0 (Coord.blocked_count coord);
  check_int "the crash already rolled it back there" 0
    (List.length (rollbacks (take ())))

let coord_crash_elsewhere_frees_block () =
  (* Blocked at site 1, begun at site 0, and site 0 crashes: the global
     dies, and its wait at site 1 would never end (the rollback discards
     the queued step), so the core completes it. *)
  let coord, take = recording_coord (fun _ -> Types.Two_phase_locking) in
  Coord.admit coord (two_site_txn 1);
  let seen = play coord take 1 ~stop:(fun es -> List.exists (fun (_, s, _) -> s = 1) (runs es)) in
  let pc = first_begin_at 1 seen in
  ignore (Coord.reply coord 1 ~pc Coord.Blocked);
  Coord.site_crash coord 0 ~in_doubt:[];
  Alcotest.(check (list (pair int int))) "rolled back at the blocked site only"
    [ (1, 1) ] (rollbacks (take ()));
  check_int "wait completed" 0 (Coord.blocked_count coord);
  let rest = play coord take 1 ~stop:(fun es -> finishes es <> []) in
  match finishes rest with
  | [ (1, Coord.Aborted "site-crash") ] -> ()
  | _ -> Alcotest.fail "expected the global to finish aborted"

let coord_decided_commit_is_final () =
  (* Under 2PC a decided Commit cannot be killed; without 2PC it can. *)
  let decided es =
    List.exists
      (function Coord.Log (Mdbs_core.Gtm_log.Decided (_, Mdbs_core.Gtm_log.Commit)) -> true | _ -> false)
      es
  in
  List.iter
    (fun atomic ->
      let coord, take = recording_coord ~atomic (fun _ -> Types.Two_phase_locking) in
      Coord.admit coord (two_site_txn 1);
      ignore (play coord take 1 ~stop:decided);
      check_bool "commit decided" true (Coord.commit_decided coord 1);
      check_bool (Printf.sprintf "kill with 2pc=%b" atomic) (not atomic)
        (Coord.kill coord 1 "test"))
    [ true; false ]

(* The cycle §3 warns of, which no site sees. Scheme 3, site 0 runs 2PL
   and site 1 TO. V's Begin at site 1 (its serialization operation there)
   executes before O's, which puts V in ser_bef(O). O, the older, holds x
   at site 0, so V's write of x blocks there; O's serialization operation
   at site 0 (its Commit) then parks in GTM2's WAIT set behind V's pending
   one. V may not wound O, which is older. O, parked, wounds the younger
   blocker its scheme names: V dies at the first tick past O's wound
   window, long before the deadline, and O commits. *)
let coord_parked_cycle () =
  let x = Item.Key 0 and y = Item.Key 1 and z = Item.Key 2 in
  let o = Txn.global ~id:1 [ (0, [ Op.Write (x, 1) ]); (1, [ Op.Write (y, 1) ]) ] in
  let v = Txn.global ~id:2 [ (1, [ Op.Write (z, 2) ]); (0, [ Op.Write (x, 2) ]) ] in
  let coord, take =
    recording_coord (function
      | 0 -> Types.Two_phase_locking
      | _ -> Types.Timestamp_ordering)
  in
  let seen = ref [] in
  let out = ref [] in
  let collect () =
    let es = take () in
    seen := !seen @ es;
    List.iter
      (function
        | Coord.Run { gid; pc; site; action; _ } -> out := !out @ [ (gid, pc, site, action) ]
        | _ -> ())
      es
  in
  (* Answer the global's outstanding step. *)
  let answer ?(now = 0.) gid r =
    match List.partition (fun (g, _, _, _) -> g = gid) !out with
    | [ (_, pc, site, action) ], rest ->
        out := rest;
        ignore (Coord.reply coord gid ~pc ~now r);
        ignore (Coord.pump coord);
        collect ();
        (site, action)
    | _ -> Alcotest.failf "expected one step of G%d out" gid
  in
  let rec run_until gid stop =
    let site, action = answer gid Coord.Done in
    if not (stop site action) then run_until gid stop
  in
  Coord.admit coord o;
  Coord.admit coord v;
  ignore (Coord.pump coord);
  collect ();
  (* V's Begin at site 1 executes first. *)
  Alcotest.(check (pair int bool)) "V's Begin at the TO site" (1, true)
    (match answer 2 Coord.Done with s, a -> (s, a = Op.Begin));
  (* O runs until its Commit at site 0 parks in GTM2. *)
  run_until 1 (fun site action -> site = 1 && action <> Op.Begin);
  check_bool "O's serialization operation parked" true
    (not (List.exists (fun (g, _, _, _) -> g = 1) !out));
  (* V runs until its write of x at site 0, which blocks behind O. *)
  run_until 2 (fun site action -> site = 0 && action = Op.Begin);
  Alcotest.(check (pair int bool)) "V's write of x blocks at the 2PL site" (0, true)
    (match answer ~now:0. 2 Coord.Blocked with s, a -> (s, a = Op.Write (x, 2)));
  check_int "V blocked" 1 (Coord.blocked_count coord);
  let rec tick now =
    match Coord.tick coord ~now with
    | None when now < 1000. -> tick (now +. Coord.default_tick_ms)
    | verdict -> (now, verdict)
  in
  let at, verdict = tick Coord.default_tick_ms in
  (* The first tick (5 ms) stamps O's park; its window ends 20 ms later. *)
  Alcotest.(check (float 0.)) "at the first tick past O's wound window"
    (Coord.default_tick_ms +. Coord.default_wound_ms) at;
  (match verdict with
  | Some { Coord.victim = 2; reason = "wound"; wounder = Some 1 } -> ()
  | Some { Coord.victim; reason; _ } -> Alcotest.failf "G%d killed by %s" victim reason
  | None -> Alcotest.fail "nothing killed");
  ignore (Coord.pump coord);
  collect ();
  (* V's rollback releases x; O's Commits go out and are answered. *)
  while List.exists (fun (g, _, _, _) -> g = 1) !out do
    ignore (answer 1 Coord.Done)
  done;
  Alcotest.(check (list (pair int string))) "outcomes"
    [ (2, "aborted wound"); (1, "committed") ]
    (List.map
       (fun (gid, outcome) ->
         ( gid,
           match outcome with
           | Coord.Committed -> "committed"
           | Coord.Aborted r -> "aborted " ^ r ))
       (finishes !seen))

(* A step that is only slow at a site is no deadlock: its answer will come,
   and killing its global frees nothing. The global's Begin stays out past
   the deadline, no policy kill lands, and it commits once answered. *)
let coord_in_flight_not_a_victim () =
  let coord, take = recording_coord (fun _ -> Types.Two_phase_locking) in
  Coord.admit coord (two_site_txn 1);
  ignore (Coord.pump coord);
  let pc = first_begin_at 0 (take ()) in
  let now = ref 0. in
  while !now < 300. do
    now := !now +. Coord.default_tick_ms;
    match Coord.tick coord ~now:!now with
    | None -> ()
    | Some { Coord.victim; reason; _ } ->
        Alcotest.failf "G%d killed by %s at %.0f ms" victim reason !now
  done;
  ignore (Coord.reply coord 1 ~pc Coord.Done);
  let rest = play coord take 1 ~stop:(fun es -> finishes es <> []) in
  match finishes rest with
  | [ (1, Coord.Committed) ] -> ()
  | _ -> Alcotest.fail "expected the global to commit"

let () =
  Alcotest.run "mdbs-gtm"
    [
      ( "gtm1",
        [
          Alcotest.test_case "routing" `Quick gtm1_routing;
          Alcotest.test_case "ticket-injection" `Quick gtm1_ticket_injection;
          Alcotest.test_case "dead-skips" `Quick gtm1_dead_skips_direct;
          Alcotest.test_case "rejects-local" `Quick gtm1_rejects_local;
        ] );
      ( "gtm",
        [
          Alcotest.test_case "commits-across-protocols" `Quick gtm_commits_across_protocols;
          Alcotest.test_case "concurrent-serializable" `Quick
            gtm_concurrent_globals_serializable;
          Alcotest.test_case "local-global-mix" `Quick gtm_local_and_global_mix;
          Alcotest.test_case "occ-abort-cleanup" `Quick gtm_occ_validation_abort_cleans_up;
          Alcotest.test_case "cross-site-deadlock" `Quick gtm_cross_site_deadlock_resolved;
          Alcotest.test_case "otm-aborts-serializable" `Quick
            gtm_otm_aborts_but_stays_serializable;
          Alcotest.test_case "conservative-2pl-sites" `Quick gtm_conservative_2pl_sites;
          Alcotest.test_case "nocontrol-completes" `Quick gtm_nocontrol_can_violate;
        ] );
      ( "coord",
        [
          Alcotest.test_case "orphan-rollback" `Quick coord_orphan_rollback;
          Alcotest.test_case "blocked-after-kill" `Quick coord_blocked_after_kill;
          Alcotest.test_case "site-crash-lost-block" `Quick coord_site_crash_lost_block;
          Alcotest.test_case "crash-elsewhere-frees-block" `Quick
            coord_crash_elsewhere_frees_block;
          Alcotest.test_case "decided-commit-is-final" `Quick coord_decided_commit_is_final;
          Alcotest.test_case "parked-cycle" `Quick coord_parked_cycle;
          Alcotest.test_case "in-flight-not-a-victim" `Quick
            coord_in_flight_not_a_victim;
        ] );
    ]
