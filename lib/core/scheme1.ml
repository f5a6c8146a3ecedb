open Mdbs_model
module Bigraph = Mdbs_util.Bigraph
module Dllist = Mdbs_util.Dllist

type state = {
  tsg : Bigraph.t;
  insert_q : (Types.sid, Types.gid Dllist.t) Hashtbl.t;
  delete_q : (Types.sid, Types.gid Dllist.t) Hashtbl.t;
  insert_nodes : (Types.gid * Types.sid, Types.gid Dllist.node) Hashtbl.t;
  marked : (Types.gid * Types.sid, unit) Hashtbl.t;
  outstanding : (Types.sid, Types.gid) Hashtbl.t;
      (* site -> transaction whose ser op executed but is not yet acked *)
  sites_of : (Types.gid, Types.sid list) Hashtbl.t;
  mutable steps : int;
}

let queue table site =
  match Hashtbl.find_opt table site with
  | Some q -> q
  | None ->
      let q = Dllist.create () in
      Hashtbl.replace table site q;
      q

type mark_policy = Mark_on_cycle | Mark_always

let make ?(mark_policy = Mark_on_cycle) () =
  let state =
    {
      tsg = Bigraph.create ();
      insert_q = Hashtbl.create 16;
      delete_q = Hashtbl.create 16;
      insert_nodes = Hashtbl.create 64;
      marked = Hashtbl.create 64;
      outstanding = Hashtbl.create 16;
      sites_of = Hashtbl.create 64;
      steps = 0;
    }
  in
  let bump n = state.steps <- state.steps + n in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Init _ | Queue_op.Ack _ -> true
    | Queue_op.Ser (gid, site) ->
        let no_outstanding = not (Hashtbl.mem state.outstanding site) in
        let head_ok =
          if Hashtbl.mem state.marked (gid, site) then
            match Hashtbl.find_opt state.insert_nodes (gid, site) with
            | Some node -> Dllist.is_front (queue state.insert_q site) node
            | None -> false
          else true
        in
        no_outstanding && head_ok
    | Queue_op.Fin gid ->
        let sites =
          match Hashtbl.find_opt state.sites_of gid with Some s -> s | None -> []
        in
        List.for_all
          (fun site ->
            bump 1;
            Dllist.peek_front (queue state.delete_q site) = Some gid)
          sites
  in
  let act op =
    match op with
    | Queue_op.Init { gid; ser_sites } ->
        Hashtbl.replace state.sites_of gid ser_sites;
        List.iter
          (fun site ->
            bump 1;
            Bigraph.add_edge state.tsg ~left:gid ~right:site)
          ser_sites;
        List.iter
          (fun site ->
            let node = Dllist.push_back (queue state.insert_q site) gid in
            Hashtbl.replace state.insert_nodes (gid, site) node;
            let mark =
              match mark_policy with
              | Mark_always ->
                  bump 1;
                  true
              | Mark_on_cycle ->
                  let on_cycle, visits =
                    Bigraph.edge_on_cycle state.tsg ~left:gid ~right:site
                  in
                  bump visits;
                  on_cycle
            in
            if mark then Hashtbl.replace state.marked (gid, site) ())
          ser_sites;
        []
    | Queue_op.Ser (gid, site) ->
        bump 1;
        Hashtbl.replace state.outstanding site gid;
        [ Scheme.Submit_ser (gid, site) ]
    | Queue_op.Ack (gid, site) ->
        bump 1;
        (match Hashtbl.find_opt state.outstanding site with
        | Some g when g = gid -> Hashtbl.remove state.outstanding site
        | Some _ | None -> invalid_arg "Scheme1: unexpected ack");
        (match Hashtbl.find_opt state.insert_nodes (gid, site) with
        | Some node ->
            Dllist.remove (queue state.insert_q site) node;
            Hashtbl.remove state.insert_nodes (gid, site)
        | None -> invalid_arg "Scheme1: ack for unknown ser operation");
        Hashtbl.remove state.marked (gid, site);
        ignore (Dllist.push_back (queue state.delete_q site) gid);
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin gid ->
        let sites =
          match Hashtbl.find_opt state.sites_of gid with Some s -> s | None -> []
        in
        List.iter
          (fun site ->
            bump 1;
            match Dllist.pop_front (queue state.delete_q site) with
            | Some front when front = gid -> ()
            | Some _ | None -> invalid_arg "Scheme1: fin without delete-queue head")
          sites;
        Bigraph.remove_left state.tsg gid;
        Hashtbl.remove state.sites_of gid;
        []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site; Scheme.Wake_fins ]
    | Queue_op.Fin _ -> [ Scheme.Wake_fins ]
    | Queue_op.Init _ | Queue_op.Ser _ -> []
  in
  let blockers = function
    | Queue_op.Ser (gid, site) -> (
        match Hashtbl.find_opt state.outstanding site with
        | Some other -> [ other ]
        | None when Hashtbl.mem state.marked (gid, site) -> (
            match Dllist.peek_front (queue state.insert_q site) with
            | Some front when front <> gid -> [ front ]
            | Some _ | None -> [])
        | None -> [])
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match op with
    | Queue_op.Ser (gid, site) -> (
        match (blockers op, Hashtbl.mem state.outstanding site) with
        | [ other ], true ->
            Printf.sprintf "site %d has outstanding ser(G%d) awaiting ack" site
              other
        | [ front ], false ->
            Printf.sprintf
              "marked (edge on TSG cycle): behind G%d in site-%d insert queue"
              front site
        | _ ->
            if Hashtbl.mem state.marked (gid, site) then
              "marked (edge on TSG cycle)"
            else "ready")
    | Queue_op.Fin gid -> (
        let sites =
          match Hashtbl.find_opt state.sites_of gid with Some s -> s | None -> []
        in
        let blocking =
          List.find_opt
            (fun site ->
              Dllist.peek_front (queue state.delete_q site) <> Some gid)
            sites
        in
        match blocking with
        | Some site -> (
            match Dllist.peek_front (queue state.delete_q site) with
            | Some front ->
                Printf.sprintf "fin blocked: G%d ahead in site-%d delete queue"
                  front site
            | None ->
                Printf.sprintf "fin blocked: ser(G%d) not yet acked at site %d"
                  gid site)
        | None -> "ready")
    | Queue_op.Init _ | Queue_op.Ack _ -> "ready"
  in
  let describe () =
    Printf.sprintf "scheme1: tsg %d txns / %d edges"
      (List.length (Bigraph.lefts state.tsg))
      (Bigraph.edge_count state.tsg)
  in
  {
    Scheme.name = "scheme1";
    cond;
    act;
    wakeups;
    steps = (fun () -> state.steps);
    describe;
    blockers;
    explain;
  }
