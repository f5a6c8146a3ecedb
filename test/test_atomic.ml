(* Tests of the two-phase-commit extension (the paper defers fault
   tolerance / atomic commitment to future work; we close the gap for the
   abort-by-validation case).

   The scenario that breaks atomicity without 2PC: a global transaction
   commits at a 2PL site first, then fails OCC validation at a second site.
   One-phase commit leaves the first site's effects in place ("half
   commit"); with the prepare round, validation happens before any site
   commits, so the abort is all-or-nothing. *)

open Mdbs_model
module Gtm = Mdbs_core.Gtm
module Gtm1 = Mdbs_core.Gtm1
module Registry = Mdbs_core.Registry
module Local_dbms = Mdbs_site.Local_dbms
module Occ = Mdbs_lcc.Occ
module Cc = Mdbs_lcc.Cc_types
module Iset = Mdbs_util.Iset

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let x0 = Item.Key 0
let x1 = Item.Key 1

(* Build the half-commit scenario. Returns (status of G, value of x1 at the
   2PL site) after the dust settles.

   W (submitted first, so driven first each round) writes x0 at the OCC
   site; G writes x1 at the 2PL site and reads x0 at the OCC site. Both run
   their data phases in the same pump: G's read happens while W's write is
   still buffered, then W's validation (prepare/commit) goes through GTM2
   one queue position ahead of G's, installing the write — G's validation
   then fails. *)
let run_scenario ~atomic =
  Types.reset_tids ();
  let site_2pl = Local_dbms.create ~protocol:Types.Two_phase_locking 0 in
  let site_occ = Local_dbms.create ~protocol:Types.Optimistic 1 in
  let gtm =
    Gtm.create ~atomic_commit:atomic ~scheme:(Registry.make Registry.S3)
      ~sites:[ site_2pl; site_occ ] ()
  in
  let writer = Txn.global ~id:(Types.fresh_tid ()) [ (1, [ Op.Write (x0, 1) ]) ] in
  let gid = Types.fresh_tid () in
  let global =
    Txn.global ~id:gid [ (0, [ Op.Write (x1, 7) ]); (1, [ Op.Read x0 ]) ]
  in
  Gtm.submit_global gtm writer;
  Gtm.submit_global gtm global;
  Gtm.pump gtm;
  check_bool "writer committed" true (Gtm.status gtm writer.Txn.id = Gtm.Committed);
  (Gtm.status gtm gid, Local_dbms.storage_value site_2pl x1, gtm)

let one_phase_half_commits () =
  let status, x1_value, gtm = run_scenario ~atomic:false in
  match status with
  | Gtm.Aborted _ ->
      (* The 2PL site had already committed when validation failed: its
         write survives — the atomicity anomaly. *)
      check_int "half-committed write survives" 7 x1_value;
      (* Serializability is still intact (the audit looks per site). *)
      check_bool "still serializable" true (Gtm.audit gtm = Serializability.Serializable)
  | Gtm.Committed ->
      Alcotest.fail "expected the OCC validation to fail in this interleaving"
  | Gtm.Active -> Alcotest.fail "stranded"

let two_phase_is_atomic () =
  let status, x1_value, gtm = run_scenario ~atomic:true in
  match status with
  | Gtm.Aborted _ ->
      check_int "no site committed: write rolled back" 0 x1_value;
      check_bool "serializable" true (Gtm.audit gtm = Serializability.Serializable)
  | Gtm.Committed -> Alcotest.fail "expected validation failure"
  | Gtm.Active -> Alcotest.fail "stranded"

let occ_prepared_blocks_validation () =
  (* A prepared transaction counts as committed for later validations and
     can still be withdrawn by abort. *)
  let p = Occ.create () in
  ignore (Occ.begin_txn p 1);
  ignore (Occ.begin_txn p 2);
  ignore (Occ.access p 1 x0 Cc.Write_mode);
  ignore (Occ.access p 2 x0 Cc.Read_mode);
  check_bool "t1 prepares" true (Occ.prepare p 1 = Cc.Granted);
  (match fst (Occ.commit p 2) with
  | Cc.Rejected _ -> ()
  | _ -> Alcotest.fail "t2 must fail against the prepared t1");
  ignore (Occ.abort p 2);
  (* Withdraw t1; a fresh reader must now pass. *)
  ignore (Occ.abort p 1);
  ignore (Occ.begin_txn p 3);
  ignore (Occ.access p 3 x0 Cc.Read_mode);
  check_bool "t3 passes after withdrawal" true (fst (Occ.commit p 3) = Cc.Granted)

let occ_prepare_then_commit_never_fails () =
  let p = Occ.create () in
  ignore (Occ.begin_txn p 1);
  ignore (Occ.access p 1 x0 Cc.Read_mode);
  check_bool "prepare ok" true (Occ.prepare p 1 = Cc.Granted);
  (* A conflicting commit between prepare and commit must not break the
     prepared transaction. *)
  ignore (Occ.begin_txn p 2);
  ignore (Occ.access p 2 x1 Cc.Write_mode);
  ignore (Occ.commit p 2);
  check_bool "commit after prepare" true (fst (Occ.commit p 1) = Cc.Granted)

let gtm1_atomic_script_shape () =
  let gtm1 = Gtm1.create () in
  let txn = Txn.global ~id:1 [ (0, [ Op.Read x0 ]); (1, [ Op.Write (x0, 1) ]) ] in
  let point = function 0 -> Ser_fun.At_commit | _ -> Ser_fun.At_prepare in
  ignore (Gtm1.admit gtm1 txn ~atomic:true ~ser_point_of:point ());
  (* Walk the script: prepares must precede all commits; site 1's prepare is
     the serialization op, site 0's commit is. *)
  let rec walk acc =
    match Gtm1.next gtm1 1 with
    | Gtm1.Finished -> List.rev acc
    | Gtm1.In_flight -> Alcotest.fail "unexpected"
    | Gtm1.Dispatch_ser sid ->
        let action =
          match Gtm1.current_step gtm1 1 with
          | Some s -> s.Gtm1.action
          | None -> Alcotest.fail "no step"
        in
        Gtm1.note_dispatched gtm1 1;
        Gtm1.on_ack gtm1 1;
        walk ((sid, action, true) :: acc)
    | Gtm1.Dispatch_direct step ->
        Gtm1.note_dispatched gtm1 1;
        Gtm1.on_ack gtm1 1;
        walk ((step.Gtm1.site, step.Gtm1.action, false) :: acc)
  in
  let steps = walk [] in
  let position f =
    let rec go i = function
      | [] -> -1
      | s :: rest -> if f s then i else go (i + 1) rest
    in
    go 0 steps
  in
  let prep0 = position (fun (s, a, _) -> s = 0 && a = Op.Prepare) in
  let prep1 = position (fun (s, a, _) -> s = 1 && a = Op.Prepare) in
  let com0 = position (fun (s, a, _) -> s = 0 && a = Op.Commit) in
  let com1 = position (fun (s, a, _) -> s = 1 && a = Op.Commit) in
  check_bool "prepares exist" true (prep0 >= 0 && prep1 >= 0);
  check_bool "prepares precede all commits" true
    (prep0 < com0 && prep0 < com1 && prep1 < com0 && prep1 < com1);
  (* routing: site 1's prepare via GTM2, site 0's commit via GTM2 *)
  check_bool "prepare@1 is the ser op" true
    (List.exists (fun (s, a, via) -> s = 1 && a = Op.Prepare && via) steps);
  check_bool "commit@0 is the ser op" true
    (List.exists (fun (s, a, via) -> s = 0 && a = Op.Commit && via) steps)

(* Atomicity property: under 2PC, an aborted global transaction has no
   Commit recorded at any site; a committed one has a Commit at every
   site. *)
let atomicity_property () =
  List.iter
    (fun seed ->
      Types.reset_tids ();
      let sites =
        [
          Local_dbms.create ~protocol:Types.Optimistic 0;
          Local_dbms.create ~protocol:Types.Optimistic 1;
          Local_dbms.create ~protocol:Types.Two_phase_locking 2;
        ]
      in
      let gtm =
        Gtm.create ~atomic_commit:true ~scheme:(Registry.make Registry.S3) ~sites ()
      in
      let rng = Mdbs_util.Rng.create seed in
      let txns =
        List.init 12 (fun _ ->
            let chosen = Mdbs_util.Rng.sample_distinct rng 2 3 in
            Txn.global ~id:(Types.fresh_tid ())
              (List.map
                 (fun sid -> (sid, [ Op.Read x0; Op.Write (x0, 1) ]))
                 chosen))
      in
      List.iter (Gtm.submit_global gtm) txns;
      (* conflicting locals to force validation failures *)
      for _ = 1 to 6 do
        Gtm.submit_local gtm
          (Txn.local ~id:(Types.fresh_tid ())
             ~site:(Mdbs_util.Rng.int rng 2)
             [ Op.Write (x0, 1) ])
      done;
      Gtm.pump gtm;
      List.iter
        (fun txn ->
          let gid = txn.Txn.id in
          let committed_sites =
            List.filter
              (fun dbms ->
                Iset.mem gid (Schedule.committed (Local_dbms.schedule dbms)))
              (Gtm.sites gtm)
          in
          match Gtm.status gtm gid with
          | Gtm.Committed ->
              check_int "committed everywhere" (List.length (Txn.sites txn))
                (List.length committed_sites)
          | Gtm.Aborted _ -> check_int "committed nowhere" 0 (List.length committed_sites)
          | Gtm.Active -> Alcotest.fail "stranded")
        txns;
      check_bool "audit" true (Gtm.audit gtm = Serializability.Serializable))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let () =
  Alcotest.run "mdbs-atomic-commit"
    [
      ( "occ-prepare",
        [
          Alcotest.test_case "prepared-blocks" `Quick occ_prepared_blocks_validation;
          Alcotest.test_case "commit-after-prepare" `Quick
            occ_prepare_then_commit_never_fails;
        ] );
      ("gtm1", [ Alcotest.test_case "script-shape" `Quick gtm1_atomic_script_shape ]);
      ( "atomicity",
        [
          Alcotest.test_case "one-phase-half-commits" `Quick one_phase_half_commits;
          Alcotest.test_case "two-phase-atomic" `Quick two_phase_is_atomic;
          Alcotest.test_case "all-or-nothing-property" `Quick atomicity_property;
        ] );
    ]
