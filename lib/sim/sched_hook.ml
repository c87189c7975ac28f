(* Bridge between the bottom-of-stack simulation primitives and the
   discrete-event scheduler ([Sp_sched]), which lives higher in the
   dependency order.  The scheduler installs an advance hook and keeps
   the current-task register up to date; [Simclock] and [Sp_trace] read
   both without depending on the scheduler library.

   Task id -1 is the main (non-task) context.  Everything here is plain
   mutable state: the simulation is single-threaded. *)

let main_ctx = -1
let current_task = ref main_ctx
let current () = !current_task
let in_task () = !current_task >= 0

(* When set, [Simclock.advance] from inside a task routes through the
   scheduler (the task sleeps in virtual time and other tasks run). *)
let advance_hook : (int -> unit) option ref = ref None

(* Per-context busy time: virtual nanoseconds *charged by* a context, as
   opposed to wall (global-clock) time elapsed while it happened to have
   a frame open.  Under concurrency the two differ: while a task waits in
   a queue, the clock moves but the task is not busy.  Trace self-time
   attribution partitions busy time, never wall time (they coincide when
   no scheduler is active).

   Each task owns its cell, and [set_current] installs it, so a charge
   is one deref and one add, and the cell dies with its task. *)
let main_busy = ref 0
let current_busy = ref main_busy
let total_busy_ns = ref 0

let set_current id busy =
  current_task := id;
  current_busy := busy

let set_main () = set_current main_ctx main_busy

let note_busy ns =
  if ns > 0 then begin
    let c = !current_busy in
    c := !c + ns;
    total_busy_ns := !total_busy_ns + ns
  end

let busy () = !(!current_busy)
let total_busy () = !total_busy_ns
