open Mdbs_model

type place = Site of Types.sid | Gtm2 of Types.gid list Lazy.t

type waiter = {
  w_gid : Types.gid;
  w_birth : int;
  w_at : place;
  w_since : float;
  w_wounded : int list;
}

type resident = { r_gid : Types.gid; r_birth : int; r_sites : Types.sid list }

type decision =
  | Wound of { wounder : Types.gid; victim : Types.gid }
  | Timeout of Types.gid
  | No_kill

(* Oldest first: smaller birth wins, gid breaks ties (births are unique per
   logical transaction but a retry inherits its first attempt's birth, so a
   tie means two attempts of the same logical transaction — impossible for
   concurrently admitted ones, but the order must still be total). *)
let older a_birth a_gid b_birth b_gid =
  a_birth < b_birth || (a_birth = b_birth && a_gid < b_gid)

let quiet ~now ~wound_after_ms ~waiters =
  not (List.exists (fun w -> now -. w.w_since >= wound_after_ms) waiters)

let oldest_first ws =
  List.sort
    (fun a b ->
      if a.w_birth = b.w_birth then compare a.w_gid b.w_gid
      else compare a.w_birth b.w_birth)
    ws

let decide ~now ~wound_after_ms ~deadline_ms ~waiters ~residents =
  let expired cutoff_ms w = now -. w.w_since >= cutoff_ms in
  (* Age-priority pass: the oldest waiter whose wound window elapsed wounds
     the youngest strictly-younger transaction it waits for: one holding
     state at the site it is blocked inside, or one its parked operation's
     scheme names. The wounder is by construction older than its victim,
     so the oldest member of any conflict set is never the victim. *)
  let waits_for w r =
    match w.w_at with
    | Site s -> List.mem s r.r_sites
    | Gtm2 blockers -> List.mem r.r_gid (Lazy.force blockers)
  in
  let rec wound_pass = function
    | [] -> None
    | w :: rest -> (
        let candidates =
          List.filter
            (fun r ->
              r.r_gid <> w.w_gid
              && older w.w_birth w.w_gid r.r_birth r.r_gid
              && (not (List.mem r.r_birth w.w_wounded))
              && waits_for w r)
            residents
        in
        match candidates with
        | [] -> wound_pass rest
        | c :: cs ->
            let victim =
              List.fold_left
                (fun best r ->
                  if older best.r_birth best.r_gid r.r_birth r.r_gid then r
                  else best)
                c cs
            in
            Some (Wound { wounder = w.w_gid; victim = victim.r_gid }))
  in
  match wound_pass (oldest_first (List.filter (expired wound_after_ms) waiters)) with
  | Some d -> d
  | None ->
      (* Bounded wait: some site waiter is past the hard deadline with no
         younger conflicting resident to wound anywhere — an undetectable
         stall (blocked behind an older global or a local transaction the
         GTM cannot see). Kill the youngest site waiter {e past the
         deadline}: among two or more of them the oldest survives, and a
         waiter that arrived later, queued behind the stalled one, frees
         nothing it needs — its retry would only take its place. The set
         past the deadline shrinks every tick the breach persists, so the
         wait is still bounded. A parked waiter is only slow: no victim. *)
      let at_site w = match w.w_at with Site _ -> true | Gtm2 _ -> false in
      match
        List.rev
          (oldest_first
             (List.filter (fun w -> at_site w && expired deadline_ms w) waiters))
      with
      | [] -> No_kill
      | w :: _ -> Timeout w.w_gid
