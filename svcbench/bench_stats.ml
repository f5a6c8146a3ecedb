module Stats = Mdbs_util.Stats

(* Each percentile with the sample count from which ten samples lie beyond
   its nearest rank: n (1 - p / 100) >= 10. *)
let ladder =
  [ (99.99, 100_000); (99.9, 10_000); (99., 1000); (95., 200); (90., 100);
    (75., 40); (50., 20) ]

let tail_percentile lat =
  let n = List.length lat in
  List.find_opt (fun (_, need) -> n >= need) ladder
  |> Option.map (fun (p, _) -> (p, Stats.percentile lat p))

let latency_ms ~due ~settled = (settled -. due) *. 1000.

type logical = { due : float; settled : float option; committed : bool }

type window = {
  due_in : int;
  committed : int;
  unsettled : int;
  latencies_ms : float list;
}

let account ~start ~stop logicals =
  let inside =
    List.filter (fun (l : logical) -> l.due >= start && l.due < stop) logicals
  in
  let lat =
    List.filter_map
      (fun (l : logical) ->
        match l.settled with
        | Some settled when l.committed -> Some (latency_ms ~due:l.due ~settled)
        | _ -> None)
      inside
  in
  {
    due_in = List.length inside;
    committed = List.length lat;
    unsettled = List.length (List.filter (fun (l : logical) -> l.settled = None) inside);
    latencies_ms = lat;
  }
