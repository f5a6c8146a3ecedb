(* The four traffic mixes. All run Scheme 3 on four sites with the
   program's protocol cycle, two sites per global, three operations per
   subtransaction and half of them writes; they differ in how much the
   transactions share (keys per site), how load arrives, and the storage
   tier. The reasons each one exists are in README.md and BENCHMARK.json. *)

module Workload = Mdbs_sim.Workload

type load =
  | Closed of int  (** Logical transactions kept outstanding. *)
  | Open of float  (** Poisson arrivals per second. *)

type backend = Mem | Lsm

type t = {
  name : string;
  load : load;
  keys_per_site : int;
  backend : backend;
  atomic_commit : bool;
  local_fraction : float;
}

(* The closed loops stay below the outstanding counts at which the
   runtime leaves its steady regime on a 2-core host: over 32 keys/site,
   8 outstanding commit half as much as 4 and their goodput spreads twice
   as wide between runs, and 32 collapse within seconds in some runs; 32
   over 4096 keys/site spend their time in 250 ms stall deadlines instead
   of the dispatch path (README.md, "Sizing findings"). *)
let all =
  [
    { name = "contended"; load = Closed 4; keys_per_site = 32; backend = Mem;
      atomic_commit = false; local_fraction = 0. };
    { name = "uncontended"; load = Closed 16; keys_per_site = 4096;
      backend = Mem; atomic_commit = false; local_fraction = 0. };
    { name = "light"; load = Open 100.; keys_per_site = 32; backend = Mem;
      atomic_commit = false; local_fraction = 0. };
    { name = "durable"; load = Open 500.; keys_per_site = 16384;
      backend = Lsm; atomic_commit = true; local_fraction = 0.25 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* [dir] roots the per-site LSM stores; ignored for the in-memory
   backend. *)
let config w ~dir =
  {
    Workload.default with
    m = 4;
    d_av = 2;
    ops_per_subtxn = 3;
    write_ratio = 0.5;
    data_per_site = w.keys_per_site;
    backend = (match w.backend with Mem -> `Mem | Lsm -> `Lsm dir);
  }
