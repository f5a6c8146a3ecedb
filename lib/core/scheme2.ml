open Mdbs_model
module Iset = Mdbs_util.Iset

type state = {
  tsgd : Tsgd.t;
  executed : (Types.gid * Types.sid, unit) Hashtbl.t;
  acked : (Types.gid * Types.sid, unit) Hashtbl.t;
  mutable steps : int;
}

let make_with_tsgd () =
  let state =
    {
      tsgd = Tsgd.create ();
      executed = Hashtbl.create 64;
      acked = Hashtbl.create 64;
      steps = 0;
    }
  in
  let bump n = state.steps <- state.steps + n in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Init _ | Queue_op.Ack _ -> true
    | Queue_op.Ser (gid, site) ->
        Iset.for_all
          (fun source ->
            bump 1;
            Hashtbl.mem state.acked (source, site))
          (Tsgd.deps_into state.tsgd gid site)
    | Queue_op.Fin gid ->
        bump 1;
        not (Tsgd.has_incoming_dep state.tsgd gid)
  in
  let act op =
    match op with
    | Queue_op.Init { gid; ser_sites } ->
        Tsgd.add_txn state.tsgd gid ser_sites;
        List.iter
          (fun site ->
            Iset.iter
              (fun other ->
                bump 1;
                if other <> gid && Hashtbl.mem state.executed (other, site) then
                  Tsgd.add_dep state.tsgd other site gid)
              (Tsgd.txns_at state.tsgd site))
          ser_sites;
        let delta, ec_steps = Eliminate_cycles.run state.tsgd gid in
        bump ec_steps;
        List.iter (fun (source, site) -> Tsgd.add_dep state.tsgd source site gid) delta;
        []
    | Queue_op.Ser (gid, site) ->
        bump 1;
        Hashtbl.replace state.executed (gid, site) ();
        Iset.iter
          (fun other ->
            bump 1;
            if other <> gid && not (Hashtbl.mem state.executed (other, site)) then
              Tsgd.add_dep state.tsgd gid site other)
          (Tsgd.txns_at state.tsgd site);
        [ Scheme.Submit_ser (gid, site) ]
    | Queue_op.Ack (gid, site) ->
        bump 1;
        Hashtbl.replace state.acked (gid, site) ();
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin gid ->
        Iset.iter
          (fun site ->
            bump 1;
            Hashtbl.remove state.executed (gid, site);
            Hashtbl.remove state.acked (gid, site))
          (Tsgd.sites_of state.tsgd gid);
        Tsgd.remove_txn state.tsgd gid;
        []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site ]
    | Queue_op.Fin _ -> [ Scheme.Wake_fins ]
    | Queue_op.Init _ | Queue_op.Ser _ -> []
  in
  let blockers = function
    | Queue_op.Ser (gid, site) ->
        Iset.elements
          (Iset.filter
             (fun source -> not (Hashtbl.mem state.acked (source, site)))
             (Tsgd.deps_into state.tsgd gid site))
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match op with
    | Queue_op.Ser (_, site) -> (
        match blockers op with
        | [] -> "ready"
        | unacked ->
            Printf.sprintf "waiting for ack of dependencies {%s} at site %d"
              (String.concat ","
                 (List.map (fun g -> Printf.sprintf "G%d" g) unacked))
              site)
    | Queue_op.Fin gid ->
        if Tsgd.has_incoming_dep state.tsgd gid then
          "fin blocked: incoming TSGD dependency not yet discharged"
        else "ready"
    | Queue_op.Init _ | Queue_op.Ack _ -> "ready"
  in
  let describe () =
    Printf.sprintf "scheme2: tsgd %d txns / %d edges / %d deps"
      (List.length (Tsgd.txns state.tsgd))
      (Tsgd.edge_count state.tsgd)
      (Tsgd.dep_count state.tsgd)
  in
  ( {
      Scheme.name = "scheme2";
      cond;
      act;
      wakeups;
      steps = (fun () -> state.steps);
      describe;
      blockers;
      explain;
    },
    state.tsgd )

let make () = fst (make_with_tsgd ())
