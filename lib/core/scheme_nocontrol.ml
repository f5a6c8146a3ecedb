open Mdbs_model

type state = {
  last_k : (Types.sid, Types.gid) Hashtbl.t;
  acked : (Types.gid * Types.sid, unit) Hashtbl.t;
  mutable steps : int;
}

let make () =
  let state = { last_k = Hashtbl.create 16; acked = Hashtbl.create 64; steps = 0 } in
  let bump n = state.steps <- state.steps + n in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Ser (_, site) -> (
        match Hashtbl.find_opt state.last_k site with
        | None -> true
        | Some last -> Hashtbl.mem state.acked (last, site))
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> true
  in
  let act op =
    bump 1;
    match op with
    | Queue_op.Init _ -> []
    | Queue_op.Ser (gid, site) ->
        Hashtbl.replace state.last_k site gid;
        [ Scheme.Submit_ser (gid, site) ]
    | Queue_op.Ack (gid, site) ->
        Hashtbl.replace state.acked (gid, site) ();
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin _ -> []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site ]
    | Queue_op.Init _ | Queue_op.Ser _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match op with
    | Queue_op.Ser (_, site) -> (
        match Hashtbl.find_opt state.last_k site with
        | Some last when not (Hashtbl.mem state.acked (last, site)) ->
            Printf.sprintf "previous ser(G%d) at site %d not yet acked" last site
        | Some _ | None -> "ready")
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> "ready"
  in
  let describe () = "nocontrol" in
  {
    Scheme.name = "nocontrol";
    cond;
    act;
    wakeups;
    steps = (fun () -> state.steps);
    describe;
    blockers = (fun _ -> []);
    explain;
  }
