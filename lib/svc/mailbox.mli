(** Bounded blocking mailbox: the inter-domain channel of the service
    runtime (mutex + condition variables).

    Two lanes share one lock: a {e normal} lane bounded by [capacity] —
    producers block in {!put} when it is full, which is how backpressure
    propagates from the GTM to the clients — and an {e urgent} lane with no
    bound, used for internal control traffic (site-worker replies, ticks)
    that must never deadlock against a full admission queue.

    Any number of producers may share a mailbox, but each mailbox has a
    {e single consumer} (the owning domain's loop): only one thread may
    call {!take}/{!drain}. The implementation exploits this — a put into
    a non-empty mailbox skips the consumer wakeup entirely, since the
    consumer only ever sleeps on an empty mailbox. FIFO order is
    preserved per lane, and {!take}/{!drain} always serve the urgent
    lane first. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** Default capacity: 64. Raises [Invalid_argument] if [capacity < 1]. *)

val put : 'a t -> 'a -> bool
(** Enqueue on the normal lane, blocking while the lane is at capacity.
    Returns [false] (without enqueueing) if the mailbox is closed. *)

val try_put : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking {!put}: [`Full] is the admission-control signal. *)

val put_urgent : 'a t -> 'a -> bool
(** Enqueue on the unbounded urgent lane; never blocks on capacity. *)

val take : 'a t -> 'a option
(** Dequeue, blocking while both lanes are empty. [None] once the mailbox
    is closed {e and} drained. *)

val drain : 'a t -> 'a list
(** Dequeue {e everything} under one lock acquisition, blocking while
    both lanes are empty: all urgent messages first, then all normal
    ones, FIFO within each lane — the order a sequence of {!take}s
    would have yielded. Draining the normal lane frees the whole
    admission bound at once, so every producer blocked in {!put} is
    woken (broadcast, not signal). [[]] once the mailbox is closed and
    drained. *)

val close : 'a t -> unit
(** Reject further puts; wake all blocked producers and consumers.
    Messages already enqueued are still delivered. *)

val length : 'a t -> int
(** Total queued messages (both lanes). *)

val capacity : 'a t -> int

val high_watermark : 'a t -> int
(** Largest {!length} ever observed — the congestion telltale. *)
