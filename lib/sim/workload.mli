(** Workload generation: sites, local transactions and global transactions.

    All randomness flows from an explicit seed; equal configurations generate
    equal workloads. *)

open Mdbs_model

type config = {
  m : int;  (** Number of sites. *)
  protocols : Types.protocol_kind list;
      (** Protocol per site, cycled if shorter than [m]. *)
  data_per_site : int;  (** Items [Key 0 .. Key (data_per_site - 1)]. *)
  d_av : int;  (** Sites per global transaction. *)
  ops_per_subtxn : int;  (** Data operations at each site of a global txn. *)
  local_ops : int;  (** Data operations of a local transaction. *)
  write_ratio : float;  (** Fraction of data operations that are writes. *)
  hotspot : int;
      (** Accesses are drawn from the first [hotspot] keys when positive —
          higher contention; [0] means uniform over all keys. *)
  zipf_theta : float;
      (** When positive, keys are drawn Zipf-distributed with this skew
          parameter (rank [k] ∝ [(k+1) ** -theta]) over the key range
          (after the [hotspot] cap, if any); [0] means uniform. *)
  locality : float;
      (** Probability that a global transaction's site footprint is
          confined to one contiguous site group (see [site_groups]);
          the rest sample sites uniformly. [0] disables. *)
  site_groups : int;
      (** Number of contiguous site groups used by [locality]; group [k]
          of [g] covers sites [k*m/g .. (k+1)*m/g), so a "local" global
          contends only with globals of its own group. [<= 1] disables
          locality. *)
  durable : bool;
      (** Attach a write-ahead log to every site, enabling
          {!Mdbs_site.Local_dbms.crash}. Default [false]; fault-injecting
          runs force it on. *)
  backend : [ `Mem | `Lsm of string ];
      (** Storage engine per site. [`Lsm base] roots site [k]'s store at
          [base/site-k] and implies durability. Default [`Mem]. *)
  lsm_params : Mdbs_storage_lsm.Lsm.params option;
      (** Engine tuning for [`Lsm] (memtable watermark, compaction
          trigger, cache size); [None] means engine defaults. *)
}

val default : config

val make_sites : config -> Mdbs_site.Local_dbms.t list
(** Sites [0 .. m-1] with protocols assigned cyclically from
    [config.protocols]. *)

val global_txn : Mdbs_util.Rng.t -> config -> Txn.t
(** A fresh global transaction over [d_av] distinct random sites. *)

val local_txn : Mdbs_util.Rng.t -> config -> Types.sid -> Txn.t
(** A fresh local transaction at the given site. *)
