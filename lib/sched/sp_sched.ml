(* Deterministic discrete-event scheduler over [Sp_sim.Simclock].

   Simulated clients run as cooperatively interleaved tasks (OCaml effect
   fibers).  A task never runs in parallel with another — the simulation
   stays single-threaded and deterministic — but whenever a task charges
   virtual time ([Simclock.advance], which every cost in the system goes
   through), other ready tasks run until the clock reaches its wake
   time.  The task suspends for that, unless no other task could run
   first: then the clock advances in place, with the same bookkeeping
   (see [wait]).  Service therefore overlaps by default;
   *serialization* is introduced only where a queueing resource ([Station],
   [Rwlock], the disk queue in [Sp_blockdev.Disk]) models contention.

   Determinism rules:
   - the ready queue is strict FIFO; the seed only shuffles the initial
     task order (and is folded into the schedule digest);
   - timers firing at the same instant wake in creation order;
   - tasks must not use wall-clock or OS randomness (nothing in the repo
     does).
   Same seed + same task bodies => identical schedule, metrics, clock. *)

module ED = Effect.Deep

exception Deadlock of string

(* Raised into blocked tasks when the run aborts (first task exception
   wins, e.g. [Sp_fault.Crash]: the machine stops).  Task code should
   never catch it. *)
exception Aborted

exception Deadline_exceeded of string

(* Task-local slots.  Globals that model *per-activity* state — the
   current domain in [Sp_obj.Door], the bulk-transfer scope depth in
   [Sp_obj.Bulk] — are only correct per task: two interleaved clients
   are each in their own domain, and their save/restore pairs do not
   nest across a suspension.  A library registers the ref itself.  Each
   slot keeps one saved value per context: index 0 is the value at [run]
   entry (the baseline), and task [t] saves at [t.t_seq + 1].  The
   scheduler saves every slot when a task suspends and reinstalls it
   when the task resumes; new tasks start from the baseline, and the run
   restores it on exit — normal or aborted.  Saving and restoring write
   array cells in place, so a task switch allocates nothing here. *)
type tls_slot = Slot : { r : 'a ref; mutable saved : 'a array } -> tls_slot

let tls_slots : tls_slot list ref = ref []
let tls_baseline = 0
let register_tls r = tls_slots := Slot { r; saved = [| !r |] } :: !tls_slots

(* Top-level recursion, not [List.iter]: a closure over [i] would
   allocate on every switch.  A slot's array grows (doubling) the first
   time a context index past its end saves. *)
let rec save_all i = function
  | [] -> ()
  | Slot s :: rest ->
      let n = Array.length s.saved in
      if i >= n then begin
        let a = Array.make (max (i + 1) (2 * n)) !(s.r) in
        Array.blit s.saved 0 a 0 n;
        s.saved <- a
      end;
      s.saved.(i) <- !(s.r);
      save_all i rest

let rec restore_all i = function
  | [] -> ()
  | Slot s :: rest ->
      s.r := s.saved.(i);
      restore_all i rest

let tls_save i = save_all i !tls_slots
let tls_restore i = restore_all i !tls_slots

(* ------------------------------------------------------------------ *)
(* Per-op deadlines                                                    *)
(* ------------------------------------------------------------------ *)

(* The ambient deadline is an absolute virtual instant, task-local like
   the current domain: each task (or the main context) carries its own.
   Enforcement is cooperative — [check_deadline] at op boundaries (the
   door checks on every call) plus a cancellation timer on [Station]
   queue waits, so a call blocked behind a saturated or dead domain is
   released instead of waiting forever.  The no-deadline path is one ref
   read. *)
let cur_deadline : int option ref = ref None

let () = register_tls cur_deadline

let deadline () = !cur_deadline

let check_deadline ~on =
  match !cur_deadline with
  | Some d when Sp_sim.Simclock.now () > d -> raise (Deadline_exceeded on)
  | _ -> ()

let with_deadline ~ns f =
  if ns < 0 then invalid_arg "Sp_sched.with_deadline: negative duration";
  let d = Sp_sim.Simclock.now () + ns in
  let d = match !cur_deadline with Some d0 -> min d0 d | None -> d in
  let saved = !cur_deadline in
  cur_deadline := Some d;
  Fun.protect ~finally:(fun () -> cur_deadline := saved) f

type task = {
  t_id : int;  (* globally unique, for trace contexts *)
  t_seq : int;  (* run-local ordinal: task-table slot, folded into the digest *)
  t_name : string option;  (* [spawn ~name]; otherwise see [task_name] *)
  t_busy : int ref;  (* busy time charged while this task is current *)
  mutable t_done : bool;
  mutable t_kont : (unit, unit) ED.continuation option;
  mutable t_blocked_on : string;
  mutable t_joiners : (unit -> unit) list;
  (* Built once per task, not per suspension: the waker handed to timers
     and [suspend] registrations, and the ready-queue entry it pushes. *)
  t_wake : unit -> unit;
  t_resume : runnable;
}

and runnable = Start of task * (unit -> unit) | Resume of task

(* Fills empty task-table and ready-ring slots, and the current-task
   register before the first dispatch. *)
let rec no_task =
  {
    t_id = Sp_sim.Sched_hook.main_ctx;
    t_seq = -1;
    t_name = None;
    t_busy = ref 0;
    t_done = true;
    t_kont = None;
    t_blocked_on = "";
    t_joiners = [];
    t_wake = ignore;
    t_resume = Resume no_task;
  }

(* The task's own cell in every TLS slot. *)
let tls_ctx task = task.t_seq + 1

type _ Effect.t +=
  | Wait : int -> unit Effect.t  (* service time: charged as busy *)
  | Sleep : int -> unit Effect.t  (* idle wait: time passes, no busy charge *)
  | Yield : unit Effect.t
  | Suspend : string * ((unit -> unit) -> unit) -> unit Effect.t

(* ------------------------------------------------------------------ *)
(* Timer heap: binary min-heap on (wake time, insertion seq)           *)
(* ------------------------------------------------------------------ *)

module Heap = struct
  (* Entries fire a closure, not a task: task wake-ups are one client
     ([fire = make_ready]), deadline cancellations another.  A stale
     entry (its purpose already served) must guard itself and no-op.

     Structure of arrays, so a sift step compares two int cells and
     touches no boxed entry; with 100k live tasks the heap is larger
     than the cache.  Sifts move a hole and write the moving entry
     once, where it lands. *)
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable fire : (unit -> unit) array;
    mutable n : int;
  }

  let create () =
    { time = Array.make 64 0; seq = Array.make 64 0; fire = Array.make 64 ignore; n = 0 }

  let is_empty t = t.n = 0
  let min_time t = t.time.(0)

  (* Entry [i] sorts before (time, seq). *)
  let before t i time seq = t.time.(i) < time || (t.time.(i) = time && t.seq.(i) < seq)

  let move t ~src ~dst =
    t.time.(dst) <- t.time.(src);
    t.seq.(dst) <- t.seq.(src);
    t.fire.(dst) <- t.fire.(src)

  let set t i time seq fire =
    t.time.(i) <- time;
    t.seq.(i) <- seq;
    t.fire.(i) <- fire

  let grow t =
    let cap = 2 * Array.length t.time in
    let extend a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 t.n;
      a'
    in
    t.time <- extend t.time 0;
    t.seq <- extend t.seq 0;
    t.fire <- extend t.fire ignore

  let rec sift_up t i time seq =
    if i = 0 then 0
    else
      let p = (i - 1) / 2 in
      if before t p time seq then i
      else begin
        move t ~src:p ~dst:i;
        sift_up t p time seq
      end

  let rec sift_down t i time seq =
    let l = (2 * i) + 1 in
    if l >= t.n then i
    else
      let c =
        if l + 1 < t.n && before t (l + 1) t.time.(l) t.seq.(l) then l + 1 else l
      in
      if before t c time seq then begin
        move t ~src:c ~dst:i;
        sift_down t c time seq
      end
      else i

  let push t time seq fire =
    if t.n = Array.length t.time then grow t;
    let i = sift_up t t.n time seq in
    t.n <- t.n + 1;
    set t i time seq fire

  (* Remove the minimum and return its closure.  The vacated last slot
     is overwritten, so the heap keeps no fired closure alive. *)
  let pop t =
    let top = t.fire.(0) in
    let last = t.n - 1 in
    let time = t.time.(last) and seq = t.seq.(last) and fire = t.fire.(last) in
    t.fire.(last) <- ignore;
    t.n <- last;
    if last > 0 then set t (sift_down t 0 time seq) time seq fire;
    top

  let clear t =
    Array.fill t.fire 0 t.n ignore;
    t.n <- 0
end

(* ------------------------------------------------------------------ *)
(* Ready queue: FIFO ring of preallocated runnables                    *)
(* ------------------------------------------------------------------ *)

module Ring = struct
  (* Power-of-two capacity; doubles when full.  A push stores a value the
     caller already holds ([t_resume], or [new_task]'s [Start]), so a
     wake-up allocates nothing.  Popped slots are cleared. *)
  type t = { mutable buf : runnable array; mutable head : int; mutable len : int }

  let empty = no_task.t_resume
  let create () = { buf = Array.make 64 empty; head = 0; len = 0 }
  let is_empty r = r.len = 0

  let push r x =
    let cap = Array.length r.buf in
    if r.len = cap then begin
      let buf = Array.make (2 * cap) empty in
      Array.blit r.buf r.head buf 0 (cap - r.head);
      Array.blit r.buf 0 buf (cap - r.head) r.head;
      r.buf <- buf;
      r.head <- 0
    end;
    r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- x;
    r.len <- r.len + 1

  let pop r =
    let x = r.buf.(r.head) in
    r.buf.(r.head) <- empty;
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.len <- r.len - 1;
    x

  let clear r =
    Array.fill r.buf 0 (Array.length r.buf) empty;
    r.head <- 0;
    r.len <- 0
end

(* ------------------------------------------------------------------ *)
(* Scheduler state                                                     *)
(* ------------------------------------------------------------------ *)

type sched = {
  ready : Ring.t;
  timers : Heap.t;
  mutable tasks : task array;  (* slot [t_seq]; [ntasks] used *)
  mutable ntasks : int;
  id_base : int;  (* [t_id] of slot 0: one run's ids are consecutive *)
  n_initial : int;  (* tasks handed to [run]; later slots were spawned *)
  mutable current_task : task;  (* the task being dispatched *)
  (* Operands of the effect being handled, passed from [effc] to the
     run's preallocated arm for it. *)
  mutable eff_ns : int;
  mutable eff_label : string;
  mutable eff_register : (unit -> unit) -> unit;
  mutable live : int;  (* spawned, not yet finished *)
  mutable timer_seq : int;
  mutable switches : int;
  mutable digest : int;
  mutable aborting : bool;
  mutable abort_exn : (exn * Printexc.raw_backtrace) option;
}

let cur : sched option ref = ref None
(* [true] while a [run] is executing (even from the scheduler's own main
   loop, where no task is current). *)
let active () = match !cur with Some _ -> true | None -> false
let in_task () = active () && Sp_sim.Sched_hook.in_task ()

let sched () =
  match !cur with
  | Some s -> s
  | None -> invalid_arg "Sp_sched: no scheduler active"

(* Task ids are globally monotonic (never reset): trace contexts from
   successive runs inside one [with_tracing] must not collide. *)
let global_ids = ref 0

(* Bumped at every [run].  Long-lived queueing resources (door stations,
   the disk queue, Mrsw locks) compare it to lazily drop state an aborted
   previous run left behind (a crashed task never runs its release). *)
let run_epoch = ref 0
let epoch () = !run_epoch

(* Built only when read — by tracing, deadlock reports and join labels:
   [t<i>] by shuffled index for the run's own tasks, [t<id>] for spawned
   ones without a name. *)
let task_name s t =
  match t.t_name with
  | Some n -> n
  | None -> "t" ^ string_of_int (if t.t_seq < s.n_initial then t.t_seq else t.t_id)

let fold_digest s id = s.digest <- ((s.digest * 1_000_003) + id + 1) land max_int

let make_ready s task =
  if (not s.aborting) && not task.t_done then begin
    task.t_blocked_on <- "";
    Ring.push s.ready task.t_resume
  end

let push_timer s time fire =
  s.timer_seq <- s.timer_seq + 1;
  Heap.push s.timers time s.timer_seq fire

let finish s task res =
  task.t_done <- true;
  task.t_kont <- None;
  s.live <- s.live - 1;
  List.iter (fun wake -> wake ()) task.t_joiners;
  task.t_joiners <- [];
  match res with
  | None -> ()
  | Some (e, bt) -> (
      match e with
      | Aborted -> ()
      | _ -> if s.abort_exn = None then s.abort_exn <- Some (e, bt))

(* Park the current task on [k] until its waker runs. *)
let park s k =
  let task = s.current_task in
  Sp_trace.on_task_suspend ();
  tls_save (tls_ctx task);
  task.t_kont <- Some k;
  task

(* One handler serves every task of a run: its arms act on
   [s.current_task], and each arm is built once here, its operands
   passed through [s], so handling an effect allocates nothing beyond
   the effect, the continuation and [Some k]. *)
let handler s =
  let park_timer k what =
    let task = park s k in
    task.t_blocked_on <- what;
    push_timer s (Sp_sim.Simclock.now () + s.eff_ns) task.t_wake
  in
  let wait_arm =
    Some
      (fun k ->
        if s.aborting then ED.continue k ()
        else begin
          (* The wait is this task's own service time: charge busy now,
             wake when the wall clock has passed it. *)
          Sp_sim.Sched_hook.note_busy s.eff_ns;
          park_timer k "timer"
        end)
  in
  let sleep_arm =
    Some
      (fun k ->
        (* Idle wait (a backoff, a pause between arrivals): time passes
           but the task was not doing work, so no busy charge — it must
           not count as service time. *)
        if s.aborting then ED.continue k () else park_timer k "sleep")
  in
  let yield_arm =
    Some
      (fun k ->
        if s.aborting then ED.continue k ()
        else Ring.push s.ready (park s k).t_resume)
  in
  let suspend_arm =
    Some
      (fun k ->
        if s.aborting then ED.discontinue k Aborted
        else begin
          let task = park s k in
          task.t_blocked_on <- s.eff_label;
          s.eff_register task.t_wake
        end)
  in
  let effc (type a) (eff : a Effect.t) : ((a, unit) ED.continuation -> unit) option =
    match eff with
    | Wait ns ->
        s.eff_ns <- ns;
        wait_arm
    | Sleep ns ->
        s.eff_ns <- ns;
        sleep_arm
    | Yield -> yield_arm
    | Suspend (what, register) ->
        s.eff_label <- what;
        s.eff_register <- register;
        suspend_arm
    | _ -> None
  in
  {
    ED.retc = (fun () -> finish s s.current_task None);
    exnc = (fun e -> finish s s.current_task (Some (e, Printexc.get_raw_backtrace ())));
    effc;
  }

(* A charge by the current task.  When no other task can run before its
   wake instant — none is ready, and no timer fires at or before it (a
   timer at that same instant was created earlier, so it fires first) —
   the task is provably the next dispatched.  Parking would push a
   timer, pop it and dispatch this same task; doing that bookkeeping in
   place gives the same clock, busy time, switch count, digest and trace
   without a fiber switch.  Task-local slots are left as they are: the
   only code that would run in between is the task's own waker.  Once a
   run aborts a wait must not move the clock, so it takes the wait
   arm. *)
let wait s ns =
  if
    (not s.aborting)
    && Ring.is_empty s.ready
    && (Heap.is_empty s.timers || Heap.min_time s.timers > Sp_sim.Simclock.now () + ns)
  then begin
    Sp_sim.Sched_hook.note_busy ns;
    Sp_trace.on_task_suspend ();
    s.timer_seq <- s.timer_seq + 1;
    Sp_sim.Simclock.advance_raw ns;
    s.switches <- s.switches + 1;
    fold_digest s s.current_task.t_seq;
    Sp_trace.on_task_resume ()
  end
  else Effect.perform (Wait ns)

let new_task s name fn =
  incr global_ids;
  (* Run-local ordinal: the digest must depend only on this run's
     schedule, not on how many tasks earlier runs created. *)
  let seq = s.ntasks in
  let rec task =
    {
      t_id = !global_ids;
      t_seq = seq;
      t_name = name;
      t_busy = ref 0;
      t_done = false;
      t_kont = None;
      t_blocked_on = "";
      t_joiners = [];
      t_wake = (fun () -> make_ready s task);
      t_resume = Resume task;
    }
  in
  if seq = Array.length s.tasks then begin
    let a = Array.make (2 * seq) no_task in
    Array.blit s.tasks 0 a 0 seq;
    s.tasks <- a
  end;
  s.tasks.(seq) <- task;
  s.ntasks <- seq + 1;
  s.live <- s.live + 1;
  Ring.push s.ready (Start (task, fn));
  task

let spawn ?name fn = (new_task (sched ()) name fn).t_id

(* A task runs under its own TLS values: the baseline on first start,
   its saved ones on resume.  After it hands control back (suspended or
   finished), the baseline comes back so the scheduler loop — and the
   next task's start — see clean globals. *)
let enter s task ctx =
  s.switches <- s.switches + 1;
  fold_digest s task.t_seq;
  s.current_task <- task;
  Sp_sim.Sched_hook.set_current task.t_id task.t_busy;
  tls_restore ctx

let leave () =
  tls_restore tls_baseline;
  Sp_sim.Sched_hook.set_main ()

let dispatch s h = function
  | Start (task, fn) ->
      enter s task tls_baseline;
      let body =
        if Sp_trace.enabled () then (fun () ->
          let label = "task:" ^ task_name s task in
          Sp_trace.span ~op:label ~src:"sched" ~dst:label fn)
        else fn
      in
      ED.match_with body () h;
      leave ()
  | Resume task -> (
      match task.t_kont with
      | None -> ()  (* finished or aborted since it was enqueued *)
      | Some k ->
          task.t_kont <- None;
          enter s task (tls_ctx task);
          Sp_trace.on_task_resume ();
          ED.continue k ();
          leave ())

(* Discontinue every still-blocked task, in creation order, so their
   [Fun.protect] finalizers run (releasing locks, closing trace frames) —
   the run's failure must not leak global state into the next run in the
   same process.  Each task unwinds as the current task, under its own
   TLS values; [run] puts the baseline back afterwards. *)
let abort_all s =
  s.aborting <- true;
  Ring.clear s.ready;
  Heap.clear s.timers;
  for i = 0 to s.ntasks - 1 do
    let task = s.tasks.(i) in
    match task.t_kont with
    | Some k when not task.t_done ->
        task.t_kont <- None;
        s.current_task <- task;
        Sp_sim.Sched_hook.set_current task.t_id task.t_busy;
        tls_restore (tls_ctx task);
        (try ED.discontinue k Aborted with _ -> ());
        Sp_sim.Sched_hook.set_main ()
    | _ -> ()
  done

let blocked_names s =
  let names = ref [] in
  for i = 0 to s.ntasks - 1 do
    let t = s.tasks.(i) in
    if not t.t_done then
      names :=
        Printf.sprintf "%s(%s)" (task_name s t)
          (if t.t_blocked_on = "" then "?" else t.t_blocked_on)
        :: !names
  done;
  List.sort String.compare !names

let rec loop s h =
  match s.abort_exn with
  | Some (e, bt) ->
      abort_all s;
      Printexc.raise_with_backtrace e bt
  | None ->
      if not (Ring.is_empty s.ready) then begin
        dispatch s h (Ring.pop s.ready);
        loop s h
      end
      else if not (Heap.is_empty s.timers) then begin
        let t = Heap.min_time s.timers in
        let dt = t - Sp_sim.Simclock.now () in
        if dt > 0 then Sp_sim.Simclock.advance_raw dt;
        while (not (Heap.is_empty s.timers)) && Heap.min_time s.timers = t do
          (Heap.pop s.timers) ()
        done;
        loop s h
      end
      else if s.live > 0 then begin
        let names = String.concat ", " (blocked_names s) in
        abort_all s;
        raise (Deadlock ("all tasks blocked, no timers pending: " ^ names))
      end

type stats = { st_tasks : int; st_switches : int; st_digest : int }

(* Tiny xorshift for the seeded initial shuffle — [Sp_fault]'s generator
   lives above this library in the dependency order. *)
let shuffle seed arr =
  let state = ref (if seed = 0 then 0x9e3779b9 else seed land max_int) in
  let next bound =
    let x = !state in
    let x = x lxor (x lsl 13) land max_int in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) land max_int in
    state := x;
    x mod bound
  in
  for i = Array.length arr - 1 downto 1 do
    let j = next (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let run ?(seed = 0) fns =
  if active () then invalid_arg "Sp_sched.run: scheduler already active";
  let arr = Array.of_list fns in
  shuffle seed arr;
  let n = Array.length arr in
  let s =
    {
      ready = Ring.create ();
      timers = Heap.create ();
      tasks = Array.make (max 64 n) no_task;
      ntasks = 0;
      id_base = !global_ids + 1;
      n_initial = n;
      current_task = no_task;
      eff_ns = 0;
      eff_label = "";
      eff_register = ignore;
      live = 0;
      timer_seq = 0;
      switches = 0;
      digest = (seed * 31) + 17;
      aborting = false;
      abort_exn = None;
    }
  in
  tls_save tls_baseline;
  incr run_epoch;
  Array.iter (fun fn -> ignore (new_task s None fn)) arr;
  let h = handler s in
  cur := Some s;
  Sp_sim.Sched_hook.advance_hook := Some (wait s);
  Fun.protect
    ~finally:(fun () ->
      cur := None;
      Sp_sim.Sched_hook.advance_hook := None;
      Sp_sim.Sched_hook.set_main ();
      tls_restore tls_baseline)
    (fun () -> loop s h);
  { st_tasks = s.ntasks; st_switches = s.switches; st_digest = s.digest }

(* ------------------------------------------------------------------ *)
(* Task-facing primitives                                              *)
(* ------------------------------------------------------------------ *)

let sleep ns =
  if ns < 0 then invalid_arg "Sp_sched.sleep: negative duration";
  if in_task () then (if ns > 0 then Effect.perform (Sleep ns))
  else Sp_sim.Simclock.advance ns

let yield () = if in_task () then Effect.perform Yield

let suspend ~on register =
  if not (in_task ()) then
    invalid_arg "Sp_sched.suspend: not inside a scheduler task";
  Effect.perform (Suspend (on, register))

(* Schedule [fire] at absolute virtual instant [time] on the current
   run's timer heap (clamped to now if already past).  No-op outside a
   run: without a scheduler nothing ever suspends, so there is no
   pending wait to cancel.  The closure must guard itself — it may fire
   after its purpose is already served. *)
let at_time time fire =
  match !cur with
  | None -> ()
  | Some s -> push_timer s (max time (Sp_sim.Simclock.now ())) fire

(* Record [dt] of queue waiting: global metric + current trace span. *)
let note_queue dt =
  if dt > 0 then begin
    Sp_sim.Metrics.add_queue_ns dt;
    Sp_trace.note_queue dt
  end

let join id =
  match !cur with
  | None -> ()
  | Some s ->
      let slot = id - s.id_base in
      if slot >= 0 && slot < s.ntasks then begin
        let task = s.tasks.(slot) in
        if not task.t_done then
          suspend ~on:("join:" ^ task_name s task) (fun wake ->
              task.t_joiners <- wake :: task.t_joiners)
      end

(* ------------------------------------------------------------------ *)
(* Ivar: write-once cell                                               *)
(* ------------------------------------------------------------------ *)

module Ivar = struct
  type 'a t = { mutable v : 'a option; mutable waiters : (unit -> unit) list }

  let create () = { v = None; waiters = [] }

  let fill t x =
    match t.v with
    | Some _ -> invalid_arg "Sp_sched.Ivar.fill: already filled"
    | None ->
        t.v <- Some x;
        let ws = List.rev t.waiters in
        t.waiters <- [];
        List.iter (fun w -> w ()) ws

  let read t =
    match t.v with
    | Some x -> x
    | None -> (
        suspend ~on:"ivar" (fun wake -> t.waiters <- wake :: t.waiters);
        match t.v with Some x -> x | None -> raise Aborted)
end

(* ------------------------------------------------------------------ *)
(* Station: an s-server FIFO queueing station                          *)
(* ------------------------------------------------------------------ *)

module Station = struct
  (* A queued caller with an ambient deadline arms a cancellation timer:
     if the timer fires while the entry is still [`Waiting] it flips to
     [`Expired] and wakes the task, which raises [Deadline_exceeded]
     *without ever owning a server slot*.  [release] skips expired
     entries when handing the slot on, so an abandoned wait can never
     strand a server. *)
  type waiter = {
    mutable w_state : [ `Waiting | `Granted | `Expired ];
    mutable w_wake : unit -> unit;
  }

  type t = {
    s_label : string;  (* ["station:" ^ name], built once: wait label, deadline payload *)
    s_servers : int;
    mutable s_busy : int;
    s_q : waiter Queue.t;
    mutable s_served : int;
    mutable s_queued : int;
    mutable s_epoch : int;
  }

  let create ?(servers = 1) name =
    if servers < 1 then invalid_arg "Sp_sched.Station.create: servers < 1";
    { s_label = "station:" ^ name; s_servers = servers; s_busy = 0; s_q = Queue.create ();
      s_served = 0; s_queued = 0; s_epoch = 0 }

  (* Drop slot/queue state a previous, aborted run left behind. *)
  let check_epoch st =
    if st.s_epoch <> epoch () then begin
      st.s_epoch <- epoch ();
      st.s_busy <- 0;
      Queue.clear st.s_q
    end

  let rec release st =
    if Queue.is_empty st.s_q then st.s_busy <- st.s_busy - 1
    else begin
      let w = Queue.pop st.s_q in
      match w.w_state with
      | `Waiting ->
          (* hand the slot to the queue head *)
          w.w_state <- `Granted;
          w.w_wake ()
      | `Expired -> release st  (* gave up while queued: skip it *)
      | `Granted -> assert false  (* granted entries leave the queue *)
    end

  let serve st ns =
    if not (in_task ()) then Sp_sim.Simclock.advance ns
    else begin
      check_epoch st;
      st.s_served <- st.s_served + 1;
      if st.s_busy >= st.s_servers then begin
        st.s_queued <- st.s_queued + 1;
        let w = { w_state = `Waiting; w_wake = ignore } in
        (match deadline () with
        | Some d ->
            at_time d (fun () ->
                if w.w_state = `Waiting then begin
                  w.w_state <- `Expired;
                  w.w_wake ()
                end)
        | None -> ());
        let t0 = Sp_sim.Simclock.now () in
        suspend ~on:st.s_label (fun wake ->
            w.w_wake <- wake;
            Queue.push w st.s_q);
        note_queue (Sp_sim.Simclock.now () - t0);
        (* Raised before the service below: we never acquired a slot, so
           there is nothing to release. *)
        if w.w_state = `Expired then raise (Deadline_exceeded st.s_label)
      end
      else st.s_busy <- st.s_busy + 1;
      (* Service time is real work: [advance] in a task charges busy. *)
      match Sp_sim.Simclock.advance ns with
      | () -> release st
      | exception e ->
          release st;
          raise e
    end

  let stats st = (st.s_served, st.s_queued)
end

(* ------------------------------------------------------------------ *)
(* Rwlock: fair (strict-FIFO) readers/writer lock                      *)
(* ------------------------------------------------------------------ *)

module Rwlock = struct
  type t = {
    rw_label : string;  (* ["rwlock:" ^ name], built once *)
    mutable readers : int list;  (* task ids holding read access *)
    mutable writer : int option;  (* task id holding write access *)
    rw_q : ([ `R | `W ] * int * (unit -> unit)) Queue.t;
    mutable rw_contended : int;
    mutable rw_epoch : int;
  }

  let create name =
    { rw_label = "rwlock:" ^ name; readers = []; writer = None; rw_q = Queue.create ();
      rw_contended = 0; rw_epoch = 0 }

  let check_epoch t =
    if t.rw_epoch <> epoch () then begin
      t.rw_epoch <- epoch ();
      t.readers <- [];
      t.writer <- None;
      Queue.clear t.rw_q
    end

  let me () = Sp_sim.Sched_hook.current ()

  (* Matched rather than compared with [Some id], so a grant check
     allocates nothing and skips polymorphic compare. *)
  let is_writer t id = match t.writer with Some w -> w = id | None -> false
  let holds t id = is_writer t id || List.mem id t.readers

  let held_write t =
    in_task ()
    &&
    (check_epoch t;
     is_writer t (me ()))

  (* Admission is strict FIFO: a queued writer blocks readers that arrive
     after it, so a steady reader stream cannot starve the writer. *)
  let drain t =
    let rec go () =
      if (not (Queue.is_empty t.rw_q)) && t.writer = None then
        match Queue.peek t.rw_q with
        | `W, id, wake ->
            if t.readers = [] then begin
              ignore (Queue.pop t.rw_q);
              t.writer <- Some id;
              wake ()
            end
        | `R, id, wake ->
            ignore (Queue.pop t.rw_q);
            t.readers <- id :: t.readers;
            wake ();
            go ()
    in
    go ()

  let wait_turn t kind =
    t.rw_contended <- t.rw_contended + 1;
    let t0 = Sp_sim.Simclock.now () in
    suspend ~on:t.rw_label (fun wake ->
        Queue.push (kind, me (), wake) t.rw_q);
    note_queue (Sp_sim.Simclock.now () - t0)

  let acquire_read t =
    if t.writer = None && Queue.is_empty t.rw_q then
      t.readers <- me () :: t.readers
    else wait_turn t `R  (* the granter records us as a reader *)

  let release_read t =
    let id = me () in
    let rec drop = function
      | [] -> []
      | x :: rest -> if x = id then rest else x :: drop rest
    in
    t.readers <- drop t.readers;
    if t.readers = [] then drain t

  let acquire_write t =
    if t.writer = None && t.readers = [] && Queue.is_empty t.rw_q then
      t.writer <- Some (me ())
    else wait_turn t `W

  let release_write t =
    t.writer <- None;
    drain t

  let with_read t f =
    if not (in_task ()) then f ()
    else if (check_epoch t; holds t (me ())) then f ()
      (* reentrant: already have access *)
    else begin
      acquire_read t;
      Fun.protect ~finally:(fun () -> release_read t) f
    end

  let with_write t f =
    if not (in_task ()) then f ()
    else if (check_epoch t; is_writer t (me ())) then f ()
      (* reentrant write *)
    else if List.mem (me ()) t.readers then
      (* Upgrade would self-deadlock behind our own read hold; the grant
         paths never do this, but a task that does keeps its read access. *)
      f ()
    else begin
      acquire_write t;
      Fun.protect ~finally:(fun () -> release_write t) f
    end

  let contended t = t.rw_contended
end

module Mutex = struct
  type t = Rwlock.t

  let create name = Rwlock.create name
  let with_lock t f = Rwlock.with_write t f
  let held t = Rwlock.held_write t
end
