(** Scheduler integration points for the simulation substrate.

    [Sp_sched] (which depends on this library) installs the advance hook
    and maintains the current-task register while a discrete-event run is
    active; [Simclock] consults both on every [advance], and [Sp_trace]
    reads the per-context busy clocks to attribute self time.  With no
    scheduler active everything here is inert: the current context is the
    main context and [advance] behaves exactly as it always did. *)

(** The task id of the main (non-task) context: [-1]. *)
val main_ctx : int

(** Id of the context currently executing ([main_ctx] outside tasks). *)
val current : unit -> int

(** [set_current id busy] makes task [id] the current context, with
    [busy] as the cell its busy time is charged to.  Scheduler internal. *)
val set_current : int -> int ref -> unit

(** Make the main context current again.  Scheduler internal. *)
val set_main : unit -> unit

(** [true] iff a scheduler task is the current context. *)
val in_task : unit -> bool

(** When set and [in_task ()], [Simclock.advance n] calls this instead of
    moving the clock: the scheduler makes the task wait until virtual
    time has passed it.  Scheduler internal. *)
val advance_hook : (int -> unit) option ref

(** Charge [ns] of busy time to the current context (also accumulates the
    global total).  Called by [Simclock.advance] on the unhooked path and
    by the scheduler when it services a task's wait. *)
val note_busy : int -> unit

(** Busy time charged by the current context. *)
val busy : unit -> int

(** Busy time charged by all contexts together.  Equals elapsed wall time
    when no tasks overlap; exceeds it when they do. *)
val total_busy : unit -> int
