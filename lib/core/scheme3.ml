open Mdbs_model
module Iset = Mdbs_util.Iset

type state = {
  ser_bef : (Types.gid, Iset.t ref) Hashtbl.t;
  set_k : (Types.sid, Iset.t ref) Hashtbl.t;
  last_k : (Types.sid, Types.gid) Hashtbl.t;
  acked : (Types.gid * Types.sid, unit) Hashtbl.t;
  sites_of : (Types.gid, Types.sid list) Hashtbl.t;
  mutable steps : int;
}

let make () =
  let state =
    {
      ser_bef = Hashtbl.create 64;
      set_k = Hashtbl.create 16;
      last_k = Hashtbl.create 16;
      acked = Hashtbl.create 64;
      sites_of = Hashtbl.create 64;
      steps = 0;
    }
  in
  let bump n = state.steps <- state.steps + n in
  let ser_bef gid =
    match Hashtbl.find_opt state.ser_bef gid with
    | Some s -> s
    | None ->
        let s = ref Iset.empty in
        Hashtbl.replace state.ser_bef gid s;
        s
  in
  let set_k site =
    match Hashtbl.find_opt state.set_k site with
    | Some s -> s
    | None ->
        let s = ref Iset.empty in
        Hashtbl.replace state.set_k site s;
        s
  in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Init _ | Queue_op.Ack _ -> true
    | Queue_op.Ser (gid, site) ->
        let pending = !(set_k site) in
        let predecessors = !(ser_bef gid) in
        bump (min (Iset.cardinal pending) (Iset.cardinal predecessors));
        let blocked_by_predecessor = Iset.intersects predecessors pending in
        let previous_acked =
          match Hashtbl.find_opt state.last_k site with
          | None -> true
          | Some last -> Hashtbl.mem state.acked (last, site)
        in
        (not blocked_by_predecessor) && previous_acked
    | Queue_op.Fin gid -> Iset.is_empty !(ser_bef gid)
  in
  let act op =
    match op with
    | Queue_op.Init { gid; ser_sites } ->
        Hashtbl.replace state.sites_of gid ser_sites;
        let before = ser_bef gid in
        List.iter
          (fun site ->
            let sk = set_k site in
            sk := Iset.add gid !sk;
            bump 1;
            match Hashtbl.find_opt state.last_k site with
            | None -> ()
            | Some last ->
                let inherited = Iset.add last !(ser_bef last) in
                bump (Iset.cardinal inherited);
                before := Iset.union !before inherited)
          ser_sites;
        []
    | Queue_op.Ser (gid, site) ->
        let sk = set_k site in
        sk := Iset.remove gid !sk;
        Hashtbl.replace state.last_k site gid;
        let set1 = Iset.add gid !(ser_bef gid) in
        (* Everyone with a pending serialization operation at this site is
           now serialized after gid; so is anyone already serialized after a
           member of set_k (transitive closure). *)
        let pending = !sk in
        Hashtbl.iter
          (fun other before ->
            bump 1;
            if Iset.mem other pending || Iset.intersects !before pending then begin
              bump (Iset.cardinal set1);
              before := Iset.union !before set1
            end)
          state.ser_bef;
        [ Scheme.Submit_ser (gid, site) ]
    | Queue_op.Ack (gid, site) ->
        bump 1;
        Hashtbl.replace state.acked (gid, site) ();
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin gid ->
        Hashtbl.iter
          (fun _ before ->
            bump 1;
            before := Iset.remove gid !before)
          state.ser_bef;
        (match Hashtbl.find_opt state.sites_of gid with
        | Some sites ->
            List.iter
              (fun site ->
                bump 1;
                (match Hashtbl.find_opt state.last_k site with
                | Some last when last = gid -> Hashtbl.remove state.last_k site
                | Some _ | None -> ());
                Hashtbl.remove state.acked (gid, site))
              sites
        | None -> ());
        Hashtbl.remove state.ser_bef gid;
        Hashtbl.remove state.sites_of gid;
        []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site ]
    | Queue_op.Fin _ -> [ Scheme.Wake_fins ]
    | Queue_op.Init _ | Queue_op.Ser _ -> []
  in
  (* The predecessors still pending here (never [last_k], which left
     [set_k] when it serialized), then an unacknowledged [last_k]. *)
  let blockers = function
    | Queue_op.Ser (gid, site) ->
        Iset.elements (Iset.inter !(ser_bef gid) !(set_k site))
        @ (match Hashtbl.find_opt state.last_k site with
          | Some last when not (Hashtbl.mem state.acked (last, site)) -> [ last ]
          | Some _ | None -> [])
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match op with
    | Queue_op.Ser (_, site) -> (
        let pending = !(set_k site) in
        match List.partition (fun g -> Iset.mem g pending) (blockers op) with
        | (_ :: _ as predecessors), _ ->
            Printf.sprintf
              "serialized-before predecessors {%s} still pending at site %d"
              (String.concat ","
                 (List.map (fun g -> Printf.sprintf "G%d" g) predecessors))
              site
        | [], last :: _ ->
            Printf.sprintf "previous ser(G%d) at site %d not yet acked" last site
        | [], [] -> "ready")
    | Queue_op.Fin gid ->
        let before = !(ser_bef gid) in
        if Iset.is_empty before then "ready"
        else
          Printf.sprintf "fin blocked: serialized after live {%s}"
            (String.concat ","
               (List.map
                  (fun g -> Printf.sprintf "G%d" g)
                  (Iset.elements before)))
    | Queue_op.Init _ | Queue_op.Ack _ -> "ready"
  in
  let describe () =
    Printf.sprintf "scheme3: %d active transactions" (Hashtbl.length state.ser_bef)
  in
  {
    Scheme.name = "scheme3";
    cond;
    act;
    wakeups;
    steps = (fun () -> state.steps);
    describe;
    blockers;
    explain;
  }
