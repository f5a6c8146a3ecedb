open Mdbs_model
module Digraph = Mdbs_util.Digraph

type state = {
  graph : Digraph.t; (* serialization graph of ser(S) over tracked txns *)
  chains : (Types.sid, Types.gid list ref) Hashtbl.t;
      (* per-site execution order of serialization operations, alive txns only *)
  finned : (Types.gid, unit) Hashtbl.t;
  aborted : (Types.gid, unit) Hashtbl.t;
  last_submitted : (Types.sid, Types.gid) Hashtbl.t;
  acked : (Types.gid * Types.sid, unit) Hashtbl.t;
  mutable steps : int;
}

let chain state site =
  match Hashtbl.find_opt state.chains site with
  | Some c -> c
  | None ->
      let c = ref [] in
      Hashtbl.replace state.chains site c;
      c

(* Remove a transaction from every per-site chain, splicing an explicit
   edge between its neighbours so the site's total order is preserved
   transitively. *)
let remove_from_chains state gid =
  Hashtbl.iter
    (fun _site chain ->
      let rec splice = function
        | prev :: g :: next :: rest when g = gid ->
            Digraph.add_edge state.graph prev next;
            prev :: next :: rest
        | [ prev; g ] when g = gid -> [ prev ]
        | g :: rest when g = gid -> rest
        | x :: rest -> x :: splice rest
        | [] -> []
      in
      chain := splice !chain)
    state.chains

let prune state =
  let continue_pruning = ref true in
  while !continue_pruning do
    let prunable =
      List.filter
        (fun n ->
          Hashtbl.mem state.finned n
          && Mdbs_util.Iset.is_empty (Digraph.pred state.graph n))
        (Digraph.nodes state.graph)
    in
    if prunable = [] then continue_pruning := false
    else
      List.iter
        (fun n ->
          state.steps <- state.steps + 1;
          Digraph.remove_node state.graph n;
          remove_from_chains state n;
          Hashtbl.remove state.finned n)
        prunable
  done

let make () =
  let state =
    {
      graph = Digraph.create ();
      chains = Hashtbl.create 16;
      finned = Hashtbl.create 64;
      aborted = Hashtbl.create 64;
      last_submitted = Hashtbl.create 16;
      acked = Hashtbl.create 64;
      steps = 0;
    }
  in
  let bump n = state.steps <- state.steps + n in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> true
    | Queue_op.Ser (_, site) -> (
        match Hashtbl.find_opt state.last_submitted site with
        | None -> true
        | Some last -> Hashtbl.mem state.acked (last, site))
  in
  let act op =
    match op with
    | Queue_op.Init { gid; _ } ->
        bump 1;
        Digraph.add_node state.graph gid;
        []
    | Queue_op.Ser (gid, site) ->
        bump 1;
        if Hashtbl.mem state.aborted gid then
          (* Dead transaction draining through: let the caller fake it. *)
          [ Scheme.Submit_ser (gid, site) ]
        else begin
          let c = chain state site in
          let tail = match List.rev !c with t :: _ -> Some t | [] -> None in
          let closes_cycle =
            match tail with
            | Some t when t <> gid ->
                bump (Digraph.node_count state.graph);
                Digraph.has_path state.graph gid t
            | Some _ | None -> false
          in
          if closes_cycle then begin
            (* Optimism failed: abort instead of delaying. *)
            Hashtbl.replace state.aborted gid ();
            Digraph.remove_node state.graph gid;
            remove_from_chains state gid;
            [ Scheme.Abort_global gid ]
          end
          else begin
            (match tail with
            | Some t when t <> gid -> Digraph.add_edge state.graph t gid
            | Some _ | None -> ());
            c := !c @ [ gid ];
            Hashtbl.replace state.last_submitted site gid;
            [ Scheme.Submit_ser (gid, site) ]
          end
        end
    | Queue_op.Ack (gid, site) ->
        bump 1;
        Hashtbl.replace state.acked (gid, site) ();
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin gid ->
        bump 1;
        if Hashtbl.mem state.aborted gid then Hashtbl.remove state.aborted gid
        else Hashtbl.replace state.finned gid ();
        prune state;
        []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site ]
    | Queue_op.Init _ | Queue_op.Ser _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match op with
    | Queue_op.Ser (_, site) -> (
        match Hashtbl.find_opt state.last_submitted site with
        | Some last when not (Hashtbl.mem state.acked (last, site)) ->
            Printf.sprintf "previous ser(G%d) at site %d not yet acked" last site
        | Some _ | None -> "ready")
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> "ready"
  in
  let describe () =
    Printf.sprintf "otm: %d tracked / %d edges" (Digraph.node_count state.graph)
      (Digraph.edge_count state.graph)
  in
  {
    Scheme.name = "otm";
    cond;
    act;
    wakeups;
    steps = (fun () -> state.steps);
    describe;
    blockers = (fun _ -> []);
    explain;
  }
