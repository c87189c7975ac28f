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
let set_current id = current_task := id
let in_task () = !current_task >= 0

(* When set, [Simclock.advance] from inside a task routes through the
   scheduler (the task sleeps in virtual time and other tasks run). *)
let advance_hook : (int -> unit) option ref = ref None

(* Per-context busy time: virtual nanoseconds *charged by* a context, as
   opposed to wall (global-clock) time elapsed while it happened to have
   a frame open.  Under concurrency the two differ: while a task waits in
   a queue, the clock moves but the task is not busy.  Trace self-time
   attribution partitions busy time, never wall time (they coincide when
   no scheduler is active). *)
let main_busy = ref 0
let task_busy : (int, int ref) Hashtbl.t = Hashtbl.create 64
let total_busy_ns = ref 0

(* [Hashtbl.find], not [find_opt]: [note_busy] runs on every wait and
   must not allocate an option to return an existing cell. *)
let busy_cell id =
  if id < 0 then main_busy
  else
    match Hashtbl.find task_busy id with
    | r -> r
    | exception Not_found ->
        let r = ref 0 in
        Hashtbl.replace task_busy id r;
        r

let note_busy ns =
  if ns > 0 then begin
    let c = busy_cell !current_task in
    c := !c + ns;
    total_busy_ns := !total_busy_ns + ns
  end

let busy_of id = !(busy_cell id)
let busy () = busy_of !current_task
let total_busy () = !total_busy_ns

let reset () =
  current_task := main_ctx;
  advance_hook := None;
  main_busy := 0;
  total_busy_ns := 0;
  Hashtbl.reset task_busy
