type 'a t = {
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  normal : 'a Queue.t;
  urgent : 'a Queue.t;
  cap : int;
  mutable closed : bool;
  mutable hwm : int;
}

let create ?(capacity = 64) () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity < 1";
  {
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    normal = Queue.create ();
    urgent = Queue.create ();
    cap = capacity;
    closed = false;
    hwm = 0;
  }

let total t = Queue.length t.normal + Queue.length t.urgent

(* Single-consumer contract: exactly one thread calls take/drain on a
   given mailbox (the GTM domain for the inbox, the owning worker domain
   for a site box). The consumer only waits on [not_empty] when both
   lanes are empty, so a put into a non-empty mailbox cannot have a
   waiting consumer to wake — skip the signal and save a futex call on
   the hot path. Close paths must broadcast instead (see {!close}):
   they wake the consumer *and* any producers regardless of occupancy. *)
let note_put t ~was_empty =
  let n = total t in
  if n > t.hwm then t.hwm <- n;
  if was_empty then Condition.signal t.not_empty

let put t v =
  Mutex.lock t.mutex;
  while (not t.closed) && Queue.length t.normal >= t.cap do
    Condition.wait t.not_full t.mutex
  done;
  let ok = not t.closed in
  if ok then begin
    let was_empty = total t = 0 in
    Queue.add v t.normal;
    note_put t ~was_empty
  end;
  Mutex.unlock t.mutex;
  ok

let try_put t v =
  Mutex.lock t.mutex;
  let r =
    if t.closed then `Closed
    else if Queue.length t.normal >= t.cap then `Full
    else begin
      let was_empty = total t = 0 in
      Queue.add v t.normal;
      note_put t ~was_empty;
      `Ok
    end
  in
  Mutex.unlock t.mutex;
  r

let put_urgent t v =
  Mutex.lock t.mutex;
  let ok = not t.closed in
  if ok then begin
    let was_empty = total t = 0 in
    Queue.add v t.urgent;
    note_put t ~was_empty
  end;
  Mutex.unlock t.mutex;
  ok

let pop t =
  if not (Queue.is_empty t.urgent) then Some (Queue.pop t.urgent)
  else if not (Queue.is_empty t.normal) then begin
    let v = Queue.pop t.normal in
    Condition.signal t.not_full;
    Some v
  end
  else None

let take t =
  Mutex.lock t.mutex;
  let rec loop () =
    match pop t with
    | Some _ as r -> r
    | None ->
        if t.closed then None
        else begin
          Condition.wait t.not_empty t.mutex;
          loop ()
        end
  in
  let r = loop () in
  Mutex.unlock t.mutex;
  r

(* Move every element of [q] onto [acc] (reversed). *)
let flush_rev q acc =
  let r = ref acc in
  while not (Queue.is_empty q) do
    r := Queue.pop q :: !r
  done;
  !r

let drain t =
  Mutex.lock t.mutex;
  let rec loop () =
    if Queue.is_empty t.urgent && Queue.is_empty t.normal then
      if t.closed then []
      else begin
        Condition.wait t.not_empty t.mutex;
        loop ()
      end
    else begin
      let released = not (Queue.is_empty t.normal) in
      (* Urgent lane first, then the normal lane, FIFO within each —
         the same serve order [take] yields one element at a time. *)
      let batch = List.rev (flush_rev t.normal (flush_rev t.urgent [])) in
      (* The whole bounded lane is free again: wake every blocked
         producer, not just one. *)
      if released then Condition.broadcast t.not_full;
      batch
    end
  in
  let r = loop () in
  Mutex.unlock t.mutex;
  r

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex

let length t =
  Mutex.lock t.mutex;
  let n = total t in
  Mutex.unlock t.mutex;
  n

let capacity t = t.cap

let high_watermark t =
  Mutex.lock t.mutex;
  let n = t.hwm in
  Mutex.unlock t.mutex;
  n
