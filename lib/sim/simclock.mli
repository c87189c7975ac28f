(** Virtual simulation clock.

    All simulated costs in the system (domain crossings, disk seeks, network
    round trips, per-byte copies) advance this clock rather than consuming
    wall time.  The clock is a single global counter of nanoseconds, which is
    adequate because the simulation is single-threaded and deterministic. *)

(** Current virtual time in nanoseconds since [reset]. *)
val now : unit -> int

(** Advance the clock by the given number of nanoseconds.  Negative
    increments are rejected with [Invalid_argument].  When a discrete-event
    scheduler is active and the caller is a task (see {!Sched_hook}), the
    advance becomes a virtual-time sleep: other ready tasks run until the
    clock passes the wake time (the task suspends, unless the scheduler
    can tell no other task would run first). *)
val advance : int -> unit

(** Move the clock without consulting the scheduler hook or charging busy
    time.  Scheduler internal — this is how the event loop jumps to the
    next timer, and how a wait resumed inline moves the clock; everything
    else must use {!advance}. *)
val advance_raw : int -> unit

(** Reset virtual time to zero.  Used by tests and by the benchmark harness
    between measurement runs. *)
val reset : unit -> unit

(** Render a duration in nanoseconds as a human-friendly string, e.g.
    ["1.20ms"], ["82us"]. *)
val pp_duration : Format.formatter -> int -> unit
