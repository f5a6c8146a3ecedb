(* Golden experiment tables: prints every table `mdbs experiments` prints,
   with E6's two wall-clock columns blanked so the output is deterministic.
   dune diffs it against golden/experiments.txt; regenerate with
   `dune promote` after an intentional change to a simulated outcome. *)

open Mdbs_experiments

let wall_clock = [ "EC ms"; "exact ms" ]

let blank_wall_clock (t : Report.table) =
  if t.Report.id <> "E6" then t
  else
    let blanked = List.map (fun h -> List.mem h wall_clock) t.Report.headers in
    {
      t with
      Report.rows =
        List.map
          (fun row -> List.map2 (fun cell b -> if b then "-" else cell) row blanked)
          t.Report.rows;
    }

let () =
  List.iter
    (fun (_, table) -> Report.print (blank_wall_clock (table ())))
    Catalog.tables
