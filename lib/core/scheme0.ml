open Mdbs_model

type state = {
  queues : (Types.sid, Types.gid Queue.t) Hashtbl.t;
  mutable steps : int;
}

let site_queue state site =
  match Hashtbl.find_opt state.queues site with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace state.queues site q;
      q

let make () =
  let state = { queues = Hashtbl.create 16; steps = 0 } in
  let bump n = state.steps <- state.steps + n in
  let cond op =
    bump 1;
    match op with
    | Queue_op.Ser (gid, site) -> Queue.peek_opt (site_queue state site) = Some gid
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> true
  in
  let act op =
    match op with
    | Queue_op.Init { gid; ser_sites } ->
        List.iter
          (fun site ->
            bump 1;
            Queue.add gid (site_queue state site))
          ser_sites;
        []
    | Queue_op.Ser (gid, site) ->
        bump 1;
        [ Scheme.Submit_ser (gid, site) ]
    | Queue_op.Ack (gid, site) ->
        bump 1;
        let q = site_queue state site in
        (match Queue.take_opt q with
        | Some front when front = gid -> ()
        | Some _ | None -> invalid_arg "Scheme0: ack does not match queue head");
        [ Scheme.Forward_ack (gid, site) ]
    | Queue_op.Fin _ ->
        bump 1;
        []
  in
  let wakeups = function
    | Queue_op.Ack (_, site) -> [ Scheme.Wake_ser_at site ]
    | Queue_op.Init _ | Queue_op.Ser _ | Queue_op.Fin _ -> []
  in
  let blockers = function
    | Queue_op.Ser (gid, site) -> (
        match Option.bind (Hashtbl.find_opt state.queues site) Queue.peek_opt with
        | Some head when head <> gid -> [ head ]
        | Some _ | None -> [])
    | Queue_op.Init _ | Queue_op.Ack _ | Queue_op.Fin _ -> []
  in
  let explain op =
    match (op, blockers op) with
    | Queue_op.Ser (_, site), head :: _ ->
        Printf.sprintf "behind G%d in site-%d FIFO (depth %d)" head site
          (Queue.length (site_queue state site))
    | _ -> "ready"
  in
  let describe () =
    Hashtbl.fold
      (fun site q acc ->
        Printf.sprintf "%s s%d:[%s]" acc site
          (String.concat ";"
             (List.map string_of_int (List.of_seq (Queue.to_seq q)))))
      state.queues "scheme0"
  in
  {
    Scheme.name = "scheme0";
    cond;
    act;
    wakeups;
    steps = (fun () -> state.steps);
    describe;
    blockers;
    explain;
  }
