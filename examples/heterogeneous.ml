(* Why the GTM needs a concurrency-control scheme at all.

   This example runs the SAME contended workload twice over heterogeneous
   sites: once with GTM2 disabled (the no-control baseline) and once under
   Scheme 3. The baseline produces a globally non-serializable execution —
   the audit prints the witness cycle — while Scheme 3's run is clean with
   barely any delays.

     dune exec examples/heterogeneous.exe *)

open Mdbs_model
module Des = Mdbs_sim.Des
module Workload = Mdbs_sim.Workload
module Registry = Mdbs_core.Registry
module Local_dbms = Mdbs_site.Local_dbms

(* A contended configuration on the discrete-event simulator: few hot
   items, mostly writes, local traffic at every site. We hunt for the first
   seed whose uncontrolled execution is not globally serializable. *)
let contended seed =
  {
    Des.default with
    n_global = 40;
    seed;
    global_rate = 0.01;
    locals_per_site = 12;
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

let describe label r =
  Printf.printf "%-10s committed=%d restarts=%d ser-waits=%d CSR=%s ser(S)=%s\n"
    label r.Des.committed_global r.Des.restarts r.Des.ser_waits
    (if r.Des.serializable then "yes" else "NO")
    (if r.Des.ser_s_serializable then "yes" else "NO")

let () =
  (* Find a seed where the uncontrolled MDBS misbehaves: its committed local
     schedules are not globally conflict-serializable. *)
  let rec hunt seed =
    if seed > 50 then None
    else
      let r = Des.run_kind (contended seed) Registry.Nocontrol in
      if not r.Des.serializable then Some (seed, r) else hunt (seed + 1)
  in
  (match hunt 1 with
  | Some (seed, r) ->
      Printf.printf "seed %d: uncontrolled execution violates global serializability\n"
        seed;
      describe "nocontrol" r;
      let r3 = Des.run_kind (contended seed) Registry.S3 in
      describe "scheme3" r3;
      Printf.printf "same workload under Scheme 3: %s\n"
        (if r3.Des.serializable && r3.Des.ser_s_serializable then
           "serializable (violation prevented)"
         else "STILL BROKEN (bug!)");
      if not (r3.Des.serializable && r3.Des.ser_s_serializable) then exit 1
  | None ->
      print_endline
        "no violation found in 50 seeds — raise contention to demonstrate");

  (* A minimal hand-built violation, with the witness cycle printed: two
     globals ordered oppositely at two sites, no GTM2 restraint. *)
  print_newline ();
  print_endline "minimal hand-built violation (no control):";
  let site_a = Local_dbms.create ~protocol:Types.Two_phase_locking 0 in
  let site_b = Local_dbms.create ~protocol:Types.Two_phase_locking 1 in
  (* Simulate two subtransactions applied in opposite orders by driving the
     sites directly, as an uncontrolled GTM could. *)
  List.iter
    (fun (site, order) ->
      List.iter
        (fun tid ->
          ignore (Local_dbms.submit site tid Op.Begin);
          ignore (Local_dbms.submit site tid (Op.Write (Item.Key 0, 1)));
          ignore (Local_dbms.submit site tid Op.Commit))
        order)
    [ (site_a, [ 1; 2 ]); (site_b, [ 2; 1 ]) ];
  let schedules = [ Local_dbms.schedule site_a; Local_dbms.schedule site_b ] in
  Format.printf "audit: %a@." Serializability.pp_verdict
    (Serializability.check schedules);
  match Serializability.check schedules with
  | Serializability.Cycle _ -> ()
  | Serializability.Serializable ->
      print_endline "expected a violation here!";
      exit 1
