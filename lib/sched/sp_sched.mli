(** Deterministic discrete-event scheduler: simulated clients as
    cooperatively interleaved tasks over [Sp_sim.Simclock].

    While a run is active, every [Simclock.advance] performed by a task
    waits until virtual time passes (other ready tasks run in the gap),
    so independent clients' service times overlap by default.  The task
    suspends for the wait unless no other task can run before its wake
    instant; then the clock advances in place, and the switch count,
    digest, busy time and trace come out as if it had suspended.  Task
    code must still treat every charge as a possible suspension point.
    Contention is modelled explicitly with the queueing resources below:
    a {!Station} serializes door crossings into a domain, {!Rwlock} makes
    [Mrsw] grants block, and the disk keeps an elevator queue (in
    [Sp_blockdev.Disk]).  Time spent waiting in any of these queues is
    recorded in [Sp_sim.Metrics] ([queue_ns]) and on the waiting task's
    open trace span.

    Determinism: the ready queue is strict FIFO, same-instant timers wake
    in creation order, and the seed only shuffles the initial task order.
    Same seed + same task bodies give an identical schedule (see
    {!stats}), metrics and final clock. *)

(** All tasks are blocked and no timer is pending — a lost wakeup or a
    lock cycle.  The run is aborted before this is raised. *)
exception Deadlock of string

(** Raised into still-blocked tasks when a run aborts (first task
    exception wins — e.g. [Sp_fault.Crash], the machine stopping).  It
    unwinds each task so [Fun.protect] finalizers restore global state.
    Task code must never catch it. *)
exception Aborted

(** Raised when an operation overruns the ambient {!with_deadline}: by
    {!check_deadline} at an op boundary, or from inside a {!Station}
    queue wait whose cancellation timer fired.  The payload names the
    operation or resource (["station:door:fs"], ["net:read"]...).
    [Fserr.Timed_out] is an alias, so layer code can match it without
    depending on this library. *)
exception Deadline_exceeded of string

(** [true] iff the caller is executing inside a scheduler task. *)
val in_task : unit -> bool

(** Generation counter, bumped at every [run].  Long-lived queueing
    resources built on {!suspend} compare it to lazily drop queue state
    an aborted previous run left behind (a crashed task never runs its
    release path).  {!Station} and {!Rwlock} do this internally. *)
val epoch : unit -> int

type stats = {
  st_tasks : int;  (** tasks that ran, including [spawn]ed ones *)
  st_switches : int;  (** dispatches (context switches) *)
  st_digest : int;  (** order-sensitive hash of the dispatch sequence *)
}

(** [run ?seed tasks] runs each thunk as a task until all (including any
    [spawn]ed during the run) finish.  The seed shuffles the initial task
    order.  If a task raises, all other tasks are unwound with {!Aborted}
    and the first exception is re-raised.  Runs cannot nest. *)
val run : ?seed:int -> (unit -> unit) list -> stats

(** Create a task from inside a run; returns its id (see {!join}). *)
val spawn : ?name:string -> (unit -> unit) -> int

(** Suspend the calling task for [ns] virtual nanoseconds of {e idle}
    time: the clock passes but nothing is charged as busy/service time
    (use [Simclock.advance] for time the task is doing work — inside a
    task it suspends just the same, but charges busy).  Backoffs and
    inter-arrival pauses belong here.  Outside any run it simply advances
    the clock. *)
val sleep : int -> unit

(** Let other ready tasks run; no virtual time passes. *)
val yield : unit -> unit

(** Block until task [id] finishes.  Returns immediately outside a run or
    if the task is already done. *)
val join : int -> unit

(** [suspend ~on register] parks the calling task; [register] receives the
    waker that makes it ready again.  [on] labels the wait in {!Deadlock}
    reports.  Building block for custom queueing resources (the disk's
    elevator queue uses it). *)
val suspend : on:string -> ((unit -> unit) -> unit) -> unit

(** Record queue-wait time: adds to [Metrics.queue_ns] and to the calling
    task's open trace span. *)
val note_queue : int -> unit

(** [with_deadline ~ns f] runs [f] with the ambient deadline set to
    [now + ns] virtual nanoseconds — or the enclosing deadline if that is
    sooner (deadlines only tighten when nested).  The deadline is
    task-local: it travels with the task across suspensions and does not
    leak to other tasks.  Enforcement is cooperative: {!check_deadline}
    at op boundaries (the door checks on every call), plus a cancellation
    timer on {!Station} queue waits so a caller parked behind a dead or
    saturated domain is released with {!Deadline_exceeded} instead of
    waiting forever.  Works outside a run too (pure clock comparison; no
    queue waits exist there to cancel). *)
val with_deadline : ns:int -> (unit -> 'a) -> 'a

(** The ambient absolute deadline, if any. *)
val deadline : unit -> int option

(** Raise {!Deadline_exceeded} labelled [on] if the ambient deadline has
    passed.  One ref read when no deadline is set. *)
val check_deadline : on:string -> unit

(** [register_tls r] declares the global [r] {e task-local}.  The slot
    keeps one saved value per context: the value at [run] entry, and one
    per task.  The scheduler saves [!r] into the task's cell when it
    suspends and writes it back when it resumes, so state that models
    per-activity context ([Sp_obj.Door]'s current domain, the
    bulk-transfer scope depth, the ambient deadline) nests correctly
    under interleaving instead of leaking between tasks.  Tasks start
    from the run-entry value, and the run restores it on exit — normal
    or aborted.  Saves and restores overwrite cells in place, so a task
    switch allocates nothing for them.  Call once per ref, at library
    initialisation. *)
val register_tls : 'a ref -> unit

(** Write-once synchronization cell. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** Wakes all readers.  Filling twice is [Invalid_argument]. *)
  val fill : 'a t -> 'a -> unit

  (** Blocks until filled. *)
  val read : 'a t -> 'a
end

(** An s-server FIFO queueing station: [serve st ns] waits for a free
    server slot (queue time is recorded), then holds it for [ns] of
    service time.  Outside a run it degrades to [Simclock.advance ns].
    If the caller's ambient {!with_deadline} expires while it is still
    queued, the wait is cancelled and {!Deadline_exceeded} raised — the
    slot is handed to the next live waiter, never stranded. *)
module Station : sig
  type t

  val create : ?servers:int -> string -> t
  val serve : t -> int -> unit

  (** (total served, of which had to queue) *)
  val stats : t -> int * int
end

(** Fair readers/writer lock with strict-FIFO admission: a queued writer
    blocks readers that arrive after it (no writer starvation).  Scoped
    acquisition only; reentrant acquisition by the holding task runs the
    body directly.  Outside a run both combinators just run [f]. *)
module Rwlock : sig
  type t

  val create : string -> t
  val with_read : t -> (unit -> 'a) -> 'a
  val with_write : t -> (unit -> 'a) -> 'a

  (** Number of acquisitions that had to queue. *)
  val contended : t -> int
end

(** [Rwlock] in writer-only dress: a reentrant FIFO mutex. *)
module Mutex : sig
  type t

  val create : string -> t
  val with_lock : t -> (unit -> 'a) -> 'a

  (** Whether the calling task currently holds [t] (always false outside
      a run).  Lets a would-be group-commit follower detect that it is
      already inside the lock's critical section — parking there would
      deadlock the leader. *)
  val held : t -> bool
end
