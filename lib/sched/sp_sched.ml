(* Deterministic discrete-event scheduler over [Sp_sim.Simclock].

   Simulated clients run as cooperatively interleaved tasks (OCaml effect
   fibers).  A task never runs in parallel with another — the simulation
   stays single-threaded and deterministic — but whenever a task charges
   virtual time ([Simclock.advance], which every cost in the system goes
   through), it suspends and other ready tasks run until the clock
   reaches its wake time.  Service therefore overlaps by default;
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
  t_seq : int;  (* run-local ordinal, folded into the schedule digest *)
  t_name : string;
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
     ([h_fire = make_ready]), deadline cancellations another.  A stale
     entry (its purpose already served) must guard itself and no-op. *)
  type entry = { h_time : int; h_seq : int; h_fire : unit -> unit }
  type t = { mutable a : entry array; mutable n : int }

  let dummy = { h_time = 0; h_seq = 0; h_fire = ignore }

  let create () = { a = Array.make 64 dummy; n = 0 }
  let is_empty t = t.n = 0
  let lt x y = x.h_time < y.h_time || (x.h_time = y.h_time && x.h_seq < y.h_seq)

  let push t e =
    if t.n = Array.length t.a then begin
      let a' = Array.make (2 * t.n) dummy in
      Array.blit t.a 0 a' 0 t.n;
      t.a <- a'
    end;
    t.a.(t.n) <- e;
    t.n <- t.n + 1;
    let i = ref (t.n - 1) in
    while !i > 0 && lt t.a.(!i) t.a.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = t.a.(p) in
      t.a.(p) <- t.a.(!i);
      t.a.(!i) <- tmp;
      i := p
    done

  let min t = t.a.(0)

  let pop t =
    let top = t.a.(0) in
    t.n <- t.n - 1;
    t.a.(0) <- t.a.(t.n);
    t.a.(t.n) <- dummy;
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < t.n && lt t.a.(l) t.a.(!s) then s := l;
      if r < t.n && lt t.a.(r) t.a.(!s) then s := r;
      if !s = !i then continue_ := false
      else begin
        let tmp = t.a.(!s) in
        t.a.(!s) <- t.a.(!i);
        t.a.(!i) <- tmp;
        i := !s
      end
    done;
    top

  let clear t = t.n <- 0
end

(* ------------------------------------------------------------------ *)
(* Scheduler state                                                     *)
(* ------------------------------------------------------------------ *)

type sched = {
  ready : runnable Queue.t;
  timers : Heap.t;
  mutable live : int;  (* spawned, not yet finished *)
  mutable timer_seq : int;
  mutable switches : int;
  mutable digest : int;
  mutable aborting : bool;
  mutable abort_exn : (exn * Printexc.raw_backtrace) option;
  tasks : (int, task) Hashtbl.t;
}

let cur : sched option ref = ref None
let active () = !cur <> None
let in_task () = active () && Sp_sim.Sched_hook.in_task ()

let current () =
  if in_task () then Some (Sp_sim.Sched_hook.current ()) else None

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

let fold_digest s id = s.digest <- ((s.digest * 1_000_003) + id + 1) land max_int

let make_ready s task =
  if (not s.aborting) && not task.t_done then begin
    task.t_blocked_on <- "";
    Queue.push task.t_resume s.ready
  end

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

let handler s task =
  {
    ED.retc = (fun () -> finish s task None);
    exnc = (fun e -> finish s task (Some (e, Printexc.get_raw_backtrace ())));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Wait ns ->
            Some
              (fun (k : (a, unit) ED.continuation) ->
                if s.aborting then ED.continue k ()
                else begin
                  (* The wait is this task's own service time: charge busy
                     now, wake when the wall clock has passed it. *)
                  Sp_sim.Sched_hook.note_busy ns;
                  Sp_trace.on_task_suspend ();
                  tls_save (tls_ctx task);
                  task.t_kont <- Some k;
                  task.t_blocked_on <- "timer";
                  s.timer_seq <- s.timer_seq + 1;
                  Heap.push s.timers
                    {
                      Heap.h_time = Sp_sim.Simclock.now () + ns;
                      h_seq = s.timer_seq;
                      h_fire = task.t_wake;
                    }
                end)
        | Sleep ns ->
            Some
              (fun (k : (a, unit) ED.continuation) ->
                if s.aborting then ED.continue k ()
                else begin
                  (* Idle wait (a backoff, a pause between arrivals): time
                     passes but the task was not doing work, so no busy
                     charge — it must not count as service time. *)
                  Sp_trace.on_task_suspend ();
                  tls_save (tls_ctx task);
                  task.t_kont <- Some k;
                  task.t_blocked_on <- "sleep";
                  s.timer_seq <- s.timer_seq + 1;
                  Heap.push s.timers
                    {
                      Heap.h_time = Sp_sim.Simclock.now () + ns;
                      h_seq = s.timer_seq;
                      h_fire = task.t_wake;
                    }
                end)
        | Yield ->
            Some
              (fun (k : (a, unit) ED.continuation) ->
                if s.aborting then ED.continue k ()
                else begin
                  Sp_trace.on_task_suspend ();
                  tls_save (tls_ctx task);
                  task.t_kont <- Some k;
                  Queue.push task.t_resume s.ready
                end)
        | Suspend (what, register) ->
            Some
              (fun (k : (a, unit) ED.continuation) ->
                if s.aborting then ED.discontinue k Aborted
                else begin
                  Sp_trace.on_task_suspend ();
                  tls_save (tls_ctx task);
                  task.t_kont <- Some k;
                  task.t_blocked_on <- what;
                  register task.t_wake
                end)
        | _ -> None);
  }

let new_task s ?name fn =
  incr global_ids;
  let id = !global_ids in
  (* Run-local ordinal: the digest must depend only on this run's
     schedule, not on how many tasks earlier runs created. *)
  let seq = Hashtbl.length s.tasks in
  let name = match name with Some n -> n | None -> Printf.sprintf "t%d" id in
  let rec task =
    {
      t_id = id;
      t_seq = seq;
      t_name = name;
      t_done = false;
      t_kont = None;
      t_blocked_on = "";
      t_joiners = [];
      t_wake = (fun () -> make_ready s task);
      t_resume = Resume task;
    }
  in
  Hashtbl.replace s.tasks id task;
  s.live <- s.live + 1;
  Queue.push (Start (task, fn)) s.ready;
  task

let spawn ?name fn = (new_task (sched ()) ?name fn).t_id

(* A task runs under its own TLS values: the baseline on first start,
   its saved ones on resume.  After it hands control back (suspended or
   finished), the baseline comes back so the scheduler loop — and the
   next task's start — see clean globals. *)
let enter s task ctx =
  s.switches <- s.switches + 1;
  fold_digest s task.t_seq;
  Sp_sim.Sched_hook.set_current task.t_id;
  tls_restore ctx

let leave () =
  tls_restore tls_baseline;
  Sp_sim.Sched_hook.set_current Sp_sim.Sched_hook.main_ctx

let dispatch s = function
  | Start (task, fn) ->
      enter s task tls_baseline;
      let body =
        if Sp_trace.enabled () then (fun () ->
          let label = "task:" ^ task.t_name in
          Sp_trace.span ~op:label ~src:"sched" ~dst:label fn)
        else fn
      in
      ED.match_with body () (handler s task);
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

(* Discontinue every still-blocked task so their [Fun.protect] finalizers
   run (releasing locks, closing trace frames) — the run's failure must
   not leak global state into the next run in the same process.  Each
   task unwinds under its own TLS values; [run] puts the baseline back
   afterwards. *)
let abort_all s =
  s.aborting <- true;
  Queue.clear s.ready;
  Heap.clear s.timers;
  Hashtbl.iter
    (fun _ task ->
      match task.t_kont with
      | Some k when not task.t_done ->
          task.t_kont <- None;
          Sp_sim.Sched_hook.set_current task.t_id;
          tls_restore (tls_ctx task);
          (try ED.discontinue k Aborted with _ -> ());
          Sp_sim.Sched_hook.set_current Sp_sim.Sched_hook.main_ctx
      | _ -> ())
    s.tasks

let blocked_names s =
  Hashtbl.fold
    (fun _ t acc ->
      if t.t_done then acc
      else
        Printf.sprintf "%s(%s)" t.t_name
          (if t.t_blocked_on = "" then "?" else t.t_blocked_on)
        :: acc)
    s.tasks []
  |> List.sort String.compare

let rec loop s =
  match s.abort_exn with
  | Some (e, bt) ->
      abort_all s;
      Printexc.raise_with_backtrace e bt
  | None ->
      if not (Queue.is_empty s.ready) then begin
        dispatch s (Queue.pop s.ready);
        loop s
      end
      else if not (Heap.is_empty s.timers) then begin
        let t = (Heap.min s.timers).Heap.h_time in
        let dt = t - Sp_sim.Simclock.now () in
        if dt > 0 then Sp_sim.Simclock.advance_raw dt;
        while (not (Heap.is_empty s.timers)) && (Heap.min s.timers).Heap.h_time = t do
          let e = Heap.pop s.timers in
          e.Heap.h_fire ()
        done;
        loop s
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
  let s =
    {
      ready = Queue.create ();
      timers = Heap.create ();
      live = 0;
      timer_seq = 0;
      switches = 0;
      digest = (seed * 31) + 17;
      aborting = false;
      abort_exn = None;
      tasks = Hashtbl.create 64;
    }
  in
  tls_save tls_baseline;
  incr run_epoch;
  let arr = Array.of_list fns in
  shuffle seed arr;
  Array.iteri (fun i fn -> ignore (new_task s ~name:(Printf.sprintf "t%d" i) fn)) arr;
  cur := Some s;
  Sp_sim.Sched_hook.advance_hook := Some (fun ns -> Effect.perform (Wait ns));
  Fun.protect
    ~finally:(fun () ->
      cur := None;
      Sp_sim.Sched_hook.advance_hook := None;
      Sp_sim.Sched_hook.set_current Sp_sim.Sched_hook.main_ctx;
      tls_restore tls_baseline)
    (fun () -> loop s);
  { st_tasks = Hashtbl.length s.tasks; st_switches = s.switches; st_digest = s.digest }

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
  | Some s ->
      s.timer_seq <- s.timer_seq + 1;
      Heap.push s.timers
        {
          Heap.h_time = max time (Sp_sim.Simclock.now ());
          h_seq = s.timer_seq;
          h_fire = fire;
        }

(* Record [dt] of queue waiting: global metric + current trace span. *)
let note_queue dt =
  if dt > 0 then begin
    Sp_sim.Metrics.add_queue_ns dt;
    Sp_trace.note_queue dt
  end

let join id =
  match !cur with
  | None -> ()
  | Some s -> (
      match Hashtbl.find_opt s.tasks id with
      | None -> ()
      | Some task ->
          if not task.t_done then
            suspend ~on:("join:" ^ task.t_name) (fun wake ->
                task.t_joiners <- wake :: task.t_joiners))

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
