open Mdbs_model
module Rng = Mdbs_util.Rng

type config = {
  m : int;
  protocols : Types.protocol_kind list;
  data_per_site : int;
  d_av : int;
  ops_per_subtxn : int;
  local_ops : int;
  write_ratio : float;
  hotspot : int;
  zipf_theta : float;
  locality : float;
  site_groups : int;
  durable : bool;
  backend : [ `Mem | `Lsm of string ];
  lsm_params : Mdbs_storage_lsm.Lsm.params option;
}

let default =
  {
    m = 4;
    protocols = Types.all_protocols;
    data_per_site = 32;
    d_av = 2;
    ops_per_subtxn = 3;
    local_ops = 3;
    write_ratio = 0.5;
    hotspot = 0;
    zipf_theta = 0.0;
    locality = 0.0;
    site_groups = 0;
    durable = false;
    backend = `Mem;
    lsm_params = None;
  }

let protocol_for config sid =
  let protocols =
    match config.protocols with [] -> [ Types.Two_phase_locking ] | ps -> ps
  in
  List.nth protocols (sid mod List.length protocols)

let make_sites config =
  List.init config.m (fun sid ->
      let backend =
        match config.backend with
        | `Mem -> `Mem
        | `Lsm base -> `Lsm (Filename.concat base ("site-" ^ string_of_int sid))
      in
      Mdbs_site.Local_dbms.create ~protocol:(protocol_for config sid)
        ~durable:config.durable ~backend ?lsm_params:config.lsm_params sid)

let random_key rng config =
  let bound =
    if config.hotspot > 0 then min config.hotspot config.data_per_site
    else config.data_per_site
  in
  if config.zipf_theta > 0.0 then
    Item.Key (Mdbs_util.Zipf.sample rng ~theta:config.zipf_theta ~n:bound)
  else Item.Key (Rng.int rng bound)

let random_action rng config =
  let item = random_key rng config in
  if Rng.float rng 1.0 < config.write_ratio then Op.Write (item, 1) else Op.Read item

let data_actions rng config count = List.init count (fun _ -> random_action rng config)

let random_sites rng config d =
  let g = config.site_groups in
  if g > 1 && config.locality > 0.0 && Rng.float rng 1.0 < config.locality then begin
    (* Confine the footprint to one contiguous site group. Group k of g
       covers sites [k*m/g, (k+1)*m/g), so globals of the same group
       contend with each other and rarely with other groups. *)
    let k = Rng.int rng g in
    let base = k * config.m / g in
    let stop = (k + 1) * config.m / g in
    let span = stop - base in
    List.map (fun i -> base + i) (Rng.sample_distinct rng (min d span) span)
  end
  else Rng.sample_distinct rng d config.m

let global_txn rng config =
  let d = min config.d_av config.m in
  let sites = random_sites rng config d in
  let per_site =
    List.map (fun sid -> (sid, data_actions rng config config.ops_per_subtxn)) sites
  in
  Txn.global ~id:(Types.fresh_tid ()) per_site

let local_txn rng config sid =
  Txn.local ~id:(Types.fresh_tid ()) ~site:sid (data_actions rng config config.local_ops)

let global_txns rng config count = List.init count (fun _ -> global_txn rng config)
