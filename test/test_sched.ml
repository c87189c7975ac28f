(* Sp_sched: deterministic discrete-event scheduling — task interleaving,
   busy-vs-idle accounting, queueing resources (Station, Rwlock), abort
   cleanup, and the determinism property the sweeps and the scale bench
   rely on (same seed => identical schedule, metrics and final clock). *)

module F = Sp_core.File
module S = Sp_core.Stackable
module C = Sp_sim.Simclock
module M = Sp_sim.Metrics
module Sched = Sp_sched

(* --- interleaving and time accounting --- *)

let test_tasks_overlap_service_time () =
  Util.in_world (fun () ->
      let t0 = C.now () in
      let stats =
        Sched.run [ (fun () -> C.advance 1_000); (fun () -> C.advance 1_000) ]
      in
      (* Independent service times overlap: the clock moves 1000, not 2000. *)
      Alcotest.(check int) "wall time is the max, not the sum" 1_000 (C.now () - t0);
      Alcotest.(check int) "both tasks ran" 2 stats.Sched.st_tasks;
      Alcotest.(check bool) "switched between tasks" true (stats.Sched.st_switches >= 2))

let test_sleep_is_idle_wait_is_busy () =
  Util.in_world (fun () ->
      let b0 = Sp_sim.Sched_hook.total_busy () in
      let t0 = C.now () in
      ignore (Sched.run [ (fun () -> Sched.sleep 700) ]);
      Alcotest.(check int) "sleep advances the clock" 700 (C.now () - t0);
      Alcotest.(check int) "sleep charges no busy time" 0
        (Sp_sim.Sched_hook.total_busy () - b0);
      ignore (Sched.run [ (fun () -> C.advance 300) ]);
      Alcotest.(check int) "advance charges busy time" 300
        (Sp_sim.Sched_hook.total_busy () - b0))

let test_spawn_and_join () =
  Util.in_world (fun () ->
      let log = ref [] in
      let push x = log := x :: !log in
      ignore
        (Sched.run
           [
             (fun () ->
               let child =
                 Sched.spawn ~name:"child" (fun () ->
                     C.advance 500;
                     push "child")
               in
               Sched.join child;
               push "parent");
           ]);
      Alcotest.(check (list string))
        "join waits for the child" [ "parent"; "child" ] !log)

let test_deadlock_detected () =
  Util.in_world (fun () ->
      let iv : unit Sched.Ivar.t = Sched.Ivar.create () in
      let blocked () = Sched.Ivar.read iv in
      match Sched.run [ blocked; blocked ] with
      | _ -> Alcotest.fail "expected Deadlock"
      | exception Sched.Deadlock msg ->
          Alcotest.(check string) "names the waiters"
            "all tasks blocked, no timers pending: t0(ivar), t1(ivar)" msg)

let test_abort_unwinds_blocked_tasks () =
  Util.in_world (fun () ->
      let iv : unit Sched.Ivar.t = Sched.Ivar.create () in
      let cleaned = ref false in
      let victim () =
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Sched.Ivar.read iv)
      in
      let killer () =
        C.advance 100;
        failwith "boom"
      in
      (match Sched.run [ victim; killer ] with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "first exception wins" "boom" msg);
      Alcotest.(check bool) "blocked task's finalizer ran" true !cleaned)

(* A finalizer that charges time while its task is unwound by an abort
   must not move the clock: once a run aborts, every wait returns at
   once, even when nothing else could run before it. *)
let finalizer_charges cleaned () =
  Fun.protect
    ~finally:(fun () ->
      C.advance 100;
      cleaned := true)
    (fun () -> Sched.suspend ~on:"never" (fun _ -> ()))

let test_deadlock_abort_keeps_clock () =
  Util.in_world (fun () ->
      let cleaned = ref false in
      let t0 = C.now () in
      (match Sched.run [ finalizer_charges cleaned ] with
      | _ -> Alcotest.fail "expected Deadlock"
      | exception Sched.Deadlock _ -> ());
      Alcotest.(check bool) "finalizer ran" true !cleaned;
      Alcotest.(check int) "finalizer's advance did not move the clock" 0 (C.now () - t0))

let test_exception_abort_keeps_clock () =
  Util.in_world (fun () ->
      let cleaned = ref false in
      let t0 = C.now () in
      let raiser () =
        C.advance 50;
        failwith "boom"
      in
      (match Sched.run [ finalizer_charges cleaned; raiser ] with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure msg -> Alcotest.(check string) "raiser's exception" "boom" msg);
      Alcotest.(check bool) "finalizer ran" true !cleaned;
      Alcotest.(check int) "clock stays at the raiser's instant" 50 (C.now () - t0))

(* --- Station --- *)

let test_station_queues_excess () =
  Util.in_world (fun () ->
      let st = Sched.Station.create ~servers:1 "t_station" in
      let q0 = M.queue_ns () in
      let t0 = C.now () in
      ignore
        (Sched.run
           [ (fun () -> Sched.Station.serve st 1_000);
             (fun () -> Sched.Station.serve st 1_000) ]);
      (* One server: the second client queues behind the first. *)
      Alcotest.(check int) "service serializes" 2_000 (C.now () - t0);
      let served, queued = Sched.Station.stats st in
      Alcotest.(check int) "both served" 2 served;
      Alcotest.(check int) "one had to queue" 1 queued;
      Alcotest.(check int) "queue wait recorded" 1_000 (M.queue_ns () - q0))

let test_station_recovers_after_abort () =
  Util.in_world (fun () ->
      let st = Sched.Station.create ~servers:1 "t_station_abort" in
      (* Abort the run while a task holds the station's only slot. *)
      (match
         Sched.run
           [
             (fun () -> Sched.Station.serve st 1_000);
             (fun () ->
               C.advance 10;
               failwith "crash");
           ]
       with
      | _ -> Alcotest.fail "expected abort"
      | exception Failure _ -> ());
      (* The epoch guard drops the stale hold: the next run must not hang. *)
      let t0 = C.now () in
      ignore (Sched.run [ (fun () -> Sched.Station.serve st 500) ]);
      Alcotest.(check int) "fresh run serves immediately" 500 (C.now () - t0))

(* --- Rwlock --- *)

let test_rwlock_readers_share () =
  Util.in_world (fun () ->
      let l = Sched.Rwlock.create "t_rw_share" in
      let t0 = C.now () in
      let reader () = Sched.Rwlock.with_read l (fun () -> C.advance 1_000) in
      ignore (Sched.run [ reader; reader ]);
      Alcotest.(check int) "two readers overlap" 1_000 (C.now () - t0))

let test_rwlock_writers_exclude () =
  Util.in_world (fun () ->
      let l = Sched.Rwlock.create "t_rw_excl" in
      let t0 = C.now () in
      let writer () = Sched.Rwlock.with_write l (fun () -> C.advance 1_000) in
      ignore (Sched.run [ writer; writer ]);
      Alcotest.(check int) "writers serialize" 2_000 (C.now () - t0);
      Alcotest.(check bool) "contention counted" true (Sched.Rwlock.contended l >= 1))

(* Strict-FIFO admission: a writer queued behind an active reader blocks
   readers that arrive later, so a steady reader stream cannot starve
   it.  Arrival order is forced with idle sleeps. *)
let test_rwlock_no_writer_starvation () =
  Util.in_world (fun () ->
      let l = Sched.Rwlock.create "t_rw_fair" in
      let log = ref [] in
      let enter who = log := who :: !log in
      let r1 () =
        Sched.Rwlock.with_read l (fun () ->
            enter "r1";
            C.advance 1_000)
      in
      let w () =
        Sched.sleep 100;
        Sched.Rwlock.with_write l (fun () ->
            enter "w";
            C.advance 1_000)
      in
      let r2 () =
        Sched.sleep 200;
        Sched.Rwlock.with_read l (fun () ->
            enter "r2";
            C.advance 1_000)
      in
      ignore (Sched.run [ r1; w; r2 ]);
      Alcotest.(check (list string))
        "writer admitted before the later reader" [ "r2"; "w"; "r1" ] !log)

let test_rwlock_reentrant () =
  Util.in_world (fun () ->
      let l = Sched.Rwlock.create "t_rw_re" in
      let hit = ref 0 in
      ignore
        (Sched.run
           [
             (fun () ->
               Sched.Rwlock.with_write l (fun () ->
                   Sched.Rwlock.with_write l (fun () ->
                       Sched.Rwlock.with_read l (fun () -> incr hit))));
           ]);
      Alcotest.(check int) "nested reacquisition runs the body" 1 !hit)

(* The reentrant grant check runs on every nested Mutex section (compfs
   re-entry, writeback under the layer lock): it must not allocate. *)
let test_rwlock_reentrant_write_no_alloc () =
  Util.in_world (fun () ->
      let l = Sched.Rwlock.create "t_rw_alloc" in
      let words = ref nan in
      let nested () = Sched.Rwlock.with_write l ignore in
      ignore
        (Sched.run
           [
             (fun () ->
               Sched.Rwlock.with_write l (fun () ->
                   words := Util.minor_words_per_call nested));
           ]);
      Alcotest.(check (float 0.)) "reentrant with_write words per call" 0. !words)

let test_mutex_serializes () =
  Util.in_world (fun () ->
      let m = Sched.Mutex.create "t_mutex" in
      let t0 = C.now () in
      let task () = Sched.Mutex.with_lock m (fun () -> C.advance 500) in
      ignore (Sched.run [ task; task; task ]);
      Alcotest.(check int) "three holders serialize" 1_500 (C.now () - t0))

(* --- task-local slots --- *)

module Door = Sp_obj.Door
module Sdomain = Sp_obj.Sdomain

(* A slot owned by this suite, to check the [register_tls] contract on a
   ref no library helper saves and restores around its own scope. *)
let probe = ref 0
let () = Sched.register_tls probe

(* What a task can observe of its task-local state. *)
let locals () =
  (Door.current (), Sp_obj.Bulk.in_scope (), Sched.deadline (), !probe)

let same_locals (d1, s1, dl1, p1) (d2, s2, dl2, p2) =
  Sdomain.equal d1 d2 && s1 = s2 && dl1 = dl2 && p1 = p2

(* Two interleaved tasks in different domains — one inside a data call
   (bulk scope) under a deadline, one inside a plain call with none —
   each see their own domain, scope, deadline and probe after every kind
   of suspension: busy wait, idle sleep, yield, a station queue. *)
let test_task_locals_survive_interleaving () =
  Util.in_world (fun () ->
      let st = Sched.Station.create ~servers:1 "t_tls_station" in
      let suspensions =
        [ (fun () -> C.advance 10); (fun () -> Sched.sleep 7); Sched.yield;
          (fun () -> Sched.Station.serve st 5) ]
      in
      let checks = ref 0 and mismatches = ref [] in
      let client ~name ~home ~server ~call ~mark ~deadline_ns () =
        Door.from home (fun () ->
            let body () =
              call server (fun () ->
                  probe := mark;
                  let mine = locals () in
                  List.iter
                    (fun suspend ->
                      for _ = 1 to 3 do
                        suspend ();
                        incr checks;
                        if not (same_locals mine (locals ())) then
                          mismatches := name :: !mismatches
                      done)
                    suspensions)
            in
            match deadline_ns with
            | Some ns -> Sched.with_deadline ~ns body
            | None -> body ())
      in
      let a =
        client ~name:"a" ~home:(Sdomain.create "t_tls_home_a")
          ~server:(Sdomain.create "t_tls_srv_a")
          ~call:(fun d f -> Door.data_call d f)
          ~mark:1 ~deadline_ns:(Some 1_000_000_000)
      and b =
        client ~name:"b" ~home:(Sdomain.create "t_tls_home_b")
          ~server:(Sdomain.create "t_tls_srv_b")
          ~call:(fun d f -> Door.call d f)
          ~mark:2 ~deadline_ns:None
      in
      probe := 5;
      let entry = locals () in
      let stats = Sched.run [ a; b ] in
      Alcotest.(check int) "every suspension checked" 24 !checks;
      Alcotest.(check (list string)) "no task saw another's locals" [] !mismatches;
      Alcotest.(check bool) "the tasks interleaved" true (stats.Sched.st_switches >= 24);
      Alcotest.(check bool) "run-entry values back after the run" true
        (same_locals entry (locals ()));
      probe := 0)

(* A run that aborts while a task is parked inside a door call — with
   its own domain, scope, deadline and probe set — leaves all of them at
   their run-entry values, here deliberately not the defaults. *)
let test_task_locals_restored_after_abort () =
  Util.in_world (fun () ->
      let app = Sdomain.create "t_tls_app" and srv = Sdomain.create "t_tls_srv" in
      let far = Sdomain.create "t_tls_far" in
      let iv : unit Sched.Ivar.t = Sched.Ivar.create () in
      let parked = ref false in
      let victim () =
        Door.from far (fun () ->
            Sched.with_deadline ~ns:1_000 (fun () ->
                Door.data_call app (fun () ->
                    probe := 7;
                    parked := true;
                    Sched.Ivar.read iv)))
      in
      let killer () =
        probe := 9;
        C.advance 100;
        failwith "boom"
      in
      Door.from app (fun () ->
          Sched.with_deadline ~ns:1_000_000 (fun () ->
              Door.data_call srv (fun () ->
                  probe := 5;
                  let entry = locals () in
                  (match Sched.run [ victim; killer ] with
                  | _ -> Alcotest.fail "expected the run to abort"
                  | exception Failure _ -> ());
                  Alcotest.(check bool) "victim was parked in its door call" true !parked;
                  Alcotest.(check bool) "run-entry values restored" true
                    (same_locals entry (locals ())))));
      probe := 0)

(* --- determinism --- *)

(* Order-sensitive hash of every stored block (raw device reads: no
   cache, no checksum machinery in the way). *)
let disk_digest disk =
  let h = ref 0 in
  for i = 0 to Sp_blockdev.Disk.block_count disk - 1 do
    h :=
      ((!h * 1_000_003) + Hashtbl.hash (Sp_blockdev.Disk.read disk i))
      land max_int
  done;
  !h

(* A miniature multi-client fs workload; [tag] keeps instance names
   unique per invocation (layer registries are keyed by name). *)
let mini_workload ~tag ~clients ~ops ~seed =
  let disk = Sp_blockdev.Disk.create ~label:("tsched-" ^ tag) ~blocks:512 () in
  Sp_sfs.Disk_layer.mkfs ~journal:true disk;
  let fs = Sp_sfs.Disk_layer.mount ~name:("tsched-" ^ tag) disk in
  let before = M.snapshot () in
  let t0 = C.now () in
  let client k () =
    let f = S.create fs (Util.name (Printf.sprintf "c%d" k)) in
    for i = 1 to ops do
      ignore (F.write f ~pos:(i * 64) (Util.pattern_bytes ~seed:(k + i) 64));
      if i mod 2 = 0 then F.sync f
    done
  in
  let stats = Sched.run ~seed (List.init clients client) in
  S.sync fs;
  let d = M.diff ~before ~after:(M.snapshot ()) in
  ( stats.Sched.st_digest,
    C.now () - t0,
    Format.asprintf "%a" M.pp d,
    disk_digest disk )

let uniq = ref 0

let qcheck_same_seed_same_run =
  let gen = QCheck2.Gen.(triple (int_range 2 6) (int_range 1 4) (int_range 0 9999)) in
  Util.qcheck_case ~count:25 "same seed => identical schedule, metrics, disk" gen
    (fun (clients, ops, seed) ->
      incr uniq;
      (* Each run in its own fresh world: identical absolute clock, so
         even on-disk timestamps must come out bit-identical. *)
      let run tag =
        Util.in_world (fun () -> mini_workload ~tag ~clients ~ops ~seed)
      in
      run (Printf.sprintf "a%d" !uniq) = run (Printf.sprintf "b%d" !uniq))

(* --- schedule order: model, pinned digests, allocation, leaks --- *)

(* A task program: [Spawn] starts a child task and carries on, every
   other step suspends once on a timer or the ready queue. *)
type step = Sleep of int | Advance of int | Yield | Spawn of step list

(* The scheduler's order rules, written as plainly as possible: a FIFO
   ready queue, and timers woken by a full sort on (instant, creation
   order).  Returns (task label, clock) per dispatch and the final
   clock.  [initial] is the run's initial task order. *)
let reference_schedule initial =
  let ready = Queue.create () and timers = ref [] and seq = ref 0 in
  let clock = ref 0 and next_label = ref (List.length initial) and log = ref [] in
  List.iter (fun t -> Queue.push t ready) initial;
  let rec run (label, steps) =
    match steps with
    | [] -> ()
    | Spawn child :: rest ->
        Queue.push (!next_label, child) ready;
        incr next_label;
        run (label, rest)
    | Yield :: rest -> Queue.push (label, rest) ready
    | (Sleep d | Advance d) :: rest ->
        incr seq;
        timers := (!clock + d, !seq, (label, rest)) :: !timers
  in
  let rec loop () =
    if not (Queue.is_empty ready) then begin
      let t = Queue.pop ready in
      log := (fst t, !clock) :: !log;
      run t;
      loop ()
    end
    else
      match List.sort (fun (t1, s1, _) (t2, s2, _) -> compare (t1, s1) (t2, s2)) !timers with
      | [] -> ()
      | (t0, _, _) :: _ as sorted ->
          clock := t0;
          let due, later = List.partition (fun (t, _, _) -> t = t0) sorted in
          List.iter (fun (_, _, task) -> Queue.push task ready) due;
          timers := later;
          loop ()
  in
  loop ();
  (List.rev !log, !clock)

(* The same programs as scheduler tasks, logging every dispatch. *)
let real_schedule ~seed programs =
  Util.in_world (fun () ->
      let log = ref [] and next_label = ref (List.length programs) in
      let rec body label steps () =
        log := (label, C.now ()) :: !log;
        List.iter
          (function
            | Spawn child ->
                let l = !next_label in
                incr next_label;
                ignore (Sched.spawn (body l child))
            | Sleep d ->
                Sched.sleep d;
                log := (label, C.now ()) :: !log
            | Advance d ->
                C.advance d;
                log := (label, C.now ()) :: !log
            | Yield ->
                Sched.yield ();
                log := (label, C.now ()) :: !log)
          steps
      in
      let stats = Sched.run ~seed (List.mapi body programs) in
      (List.rev !log, C.now (), stats))

(* 50-64 initial tasks, each spawning three children: over 200 tasks.
   Each initial task spawns two children before it first suspends, so
   the ready ring outgrows its 64 slots while its head has moved (it is
   wrapped), and then wraps; the timer heap outgrows its 64
   slots too.  Durations of 1-3 ns make same-instant ties the rule, not
   the exception. *)
let qcheck_order_matches_model =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [ (3, map (fun d -> Sleep d) (int_range 1 3));
        (3, map (fun d -> Advance d) (int_range 1 3));
        (2, pure Yield) ]
  in
  let steps = list_size (int_range 0 4) leaf in
  let parent =
    map
      (fun (pre, (c1, c2, c3), post) ->
        (Spawn c1 :: Spawn c2 :: pre) @ (Spawn c3 :: post))
      (triple steps (triple steps steps steps) steps)
  in
  let gen = pair (int_range 0 9999) (list_size (int_range 50 64) parent) in
  Util.qcheck_case ~count:30 "wake order = (instant, timer order) sort; ready is FIFO" gen
    (fun (seed, programs) ->
      let log, clock, stats = real_schedule ~seed programs in
      (* The first dispatches are the initial tasks, in the seed's
         shuffled order: that order is the model's input. *)
      let n = List.length programs in
      let initial = List.filteri (fun i _ -> i < n) log |> List.map fst in
      let expected_log, expected_clock =
        reference_schedule (List.map (fun l -> (l, List.nth programs l)) initial)
      in
      (* The digest folds each dispatched task's run-local ordinal: an
         initial task's position in that order, a spawned task's label. *)
      let ordinal = Array.make n 0 in
      List.iteri (fun i l -> ordinal.(l) <- i) initial;
      let expected_digest =
        List.fold_left
          (fun d (l, _) ->
            let id = if l < n then ordinal.(l) else l in
            ((d * 1_000_003) + id + 1) land max_int)
          ((seed * 31) + 17) expected_log
      in
      List.sort compare initial = List.init n Fun.id
      && log = expected_log && clock = expected_clock
      && stats.Sched.st_digest = expected_digest
      && stats.Sched.st_switches = List.length log
      && stats.Sched.st_tasks = 4 * n)

(* One fixed task set mixing a two-server station queue, spawn/join, an
   Ivar and yields.  The digests, switch counts and final clocks were
   recorded before the scheduler's queues and task table were rebuilt;
   they pin its order exactly. *)
let pinned_run seed =
  Util.in_world (fun () ->
      let st = Sched.Station.create ~servers:2 "t_pinned" in
      let iv : int Sched.Ivar.t = Sched.Ivar.create () in
      let client k () =
        for i = 1 to 3 do
          Sched.Station.serve st (100 + (10 * k));
          Sched.sleep (7 * i);
          if i = 2 then Sched.yield ()
        done
      in
      let reader k () =
        let v = Sched.Ivar.read iv in
        C.advance (v + k);
        Sched.Station.serve st 30
      in
      let filler () =
        C.advance 450;
        Sched.Ivar.fill iv 25
      in
      let parent () =
        let kids =
          List.init 3 (fun k ->
              Sched.spawn (fun () ->
                  Sched.Station.serve st 50;
                  Sched.yield ();
                  C.advance (10 * k)))
        in
        List.iter Sched.join kids;
        C.advance 5
      in
      let stats =
        Sched.run ~seed (List.init 4 client @ List.init 3 reader @ [ filler; parent ])
      in
      (stats.Sched.st_digest, stats.Sched.st_switches, C.now ()))

let test_pinned_schedule () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "digest, switches, clock at seed %d" seed)
        expected (pinned_run seed))
    [
      (1, (3297026697155925781, 78, 831));
      (7, (2946971796969807082, 78, 851));
      (42, (2274796464465502921, 78, 851));
    ]

(* Minor words per context switch over a run of 64 tasks that each
   switch 2000 times. *)
let words_per_switch body =
  Util.in_world (fun () ->
      let tasks = List.init 64 (fun _ () -> for i = 1 to 2_000 do body i done) in
      ignore (Sched.run tasks);  (* warm-up: task-local slot arrays grow *)
      let w0 = Gc.minor_words () in
      let stats = Sched.run tasks in
      (Gc.minor_words () -. w0) /. float_of_int stats.Sched.st_switches)

(* A parked timer switch allocates the effect, the continuation and
   [Some k]; a yield only the last two.  A wait resumed inline (see
   [test_inline_wait_allocation]) allocates nothing. *)
let test_timer_switch_allocation () =
  let words = words_per_switch (fun i -> if i land 1 = 0 then Sched.sleep 3 else C.advance 3) in
  Alcotest.(check bool) (Printf.sprintf "sleep/advance switch: %.2f words <= 8" words) true
    (words <= 8.)

(* A lone task's charges are each provably next: every one resumes
   inline, counted as a switch like a parked wait, with no fiber switch
   and nothing allocated.  The extra switch is the task's start. *)
let test_inline_wait_allocation () =
  Util.in_world (fun () ->
      let task () =
        for _ = 1 to 10_000 do
          C.advance 3
        done
      in
      ignore (Sched.run [ task ]);
      let w0 = Gc.minor_words () in
      let stats = Sched.run [ task ] in
      let words = (Gc.minor_words () -. w0) /. float_of_int stats.Sched.st_switches in
      Alcotest.(check int) "one switch per charge, plus the start" 10_001
        stats.Sched.st_switches;
      Alcotest.(check bool) (Printf.sprintf "inline wait: %.2f words <= 0.5" words) true
        (words <= 0.5))

let test_yield_switch_allocation () =
  let words = words_per_switch (fun _ -> Sched.yield ()) in
  Alcotest.(check bool) (Printf.sprintf "yield switch: %.2f words <= 5" words) true
    (words <= 5.)

(* A task's whole life: start, one sleep, finish.  The count includes the
   test's own closure and list cell for the task. *)
let test_task_life_allocation () =
  Util.in_world (fun () ->
      let n = 2_000 in
      let round () = ignore (Sched.run (List.init n (fun i () -> Sched.sleep (1 + (i land 3))))) in
      round ();
      let w0 = Gc.minor_words () in
      round ();
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      Alcotest.(check bool) (Printf.sprintf "task life: %.1f words <= 64" words) true
        (words <= 64.))

(* Nothing per task may outlive its run: busy clocks, wakers and timer
   closures die with the run. *)
let test_no_per_task_state_survives_runs () =
  Util.in_world (fun () ->
      let round () = ignore (Sched.run (List.init 1_000 (fun _ () -> C.advance 1))) in
      let live_words () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      round ();
      let before = live_words () in
      for _ = 1 to 100 do
        round ()
      done;
      let grown = live_words () - before in
      Alcotest.(check bool)
        (Printf.sprintf "live words grew by %d over 100 runs of 1000 tasks (< 1000)" grown)
        true (grown < 1_000))

(* --- concurrent rpc_retry backoff --- *)

(* Two clients whose RPCs are dropped back off concurrently: idle sleeps
   overlap, so the two retry storms take barely longer than one.  (Before
   the scheduler the backoff was a serial clock charge: two clients cost
   twice one.) *)
let test_concurrent_retries_overlap () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let model = Sp_sim.Cost_model.current () in
      let one_client src =
        let net = Sp_dfs.Net.create () in
        fun () ->
          Sp_dfs.Net.rpc_retry ~retries:3 net ~src ~dst:"srv" ~bytes:64
            (fun () -> ())
      in
      let drops src =
        Sp_fault.rule ~point:"net.rpc" ~label:(src ^ "->srv") ~count:2
          Sp_fault.Drop
      in
      (* Serial baseline: one client alone, outside any run. *)
      let t0 = C.now () in
      Sp_fault.with_plan (Sp_fault.plan ~seed:1 [ drops "a" ]) (one_client "a");
      let serial = C.now () - t0 in
      Alcotest.(check bool) "baseline includes backoff" true
        (serial >= 3 * model.Sp_sim.Cost_model.net_rtt_ns);
      (* Concurrent: both clients dropped twice each, retrying together. *)
      let t1 = C.now () in
      Sp_fault.with_plan
        (Sp_fault.plan ~seed:1 [ drops "a"; drops "b" ])
        (fun () ->
          ignore (Sched.run [ one_client "a"; one_client "b" ]));
      let concurrent = C.now () - t1 in
      Alcotest.(check bool)
        (Printf.sprintf "two retry storms overlap (%d < 3/2 * %d)" concurrent
           serial)
        true
        (concurrent < serial * 3 / 2))

let suite =
  [
    Alcotest.test_case "tasks overlap service time" `Quick
      test_tasks_overlap_service_time;
    Alcotest.test_case "sleep is idle, advance is busy" `Quick
      test_sleep_is_idle_wait_is_busy;
    Alcotest.test_case "spawn and join" `Quick test_spawn_and_join;
    Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
    Alcotest.test_case "abort unwinds blocked tasks" `Quick
      test_abort_unwinds_blocked_tasks;
    Alcotest.test_case "deadlock abort: finalizer's advance keeps clock" `Quick
      test_deadlock_abort_keeps_clock;
    Alcotest.test_case "exception abort: finalizer's advance keeps clock" `Quick
      test_exception_abort_keeps_clock;
    Alcotest.test_case "station queues excess" `Quick test_station_queues_excess;
    Alcotest.test_case "station recovers after abort" `Quick
      test_station_recovers_after_abort;
    Alcotest.test_case "rwlock readers share" `Quick test_rwlock_readers_share;
    Alcotest.test_case "rwlock writers exclude" `Quick
      test_rwlock_writers_exclude;
    Alcotest.test_case "rwlock no writer starvation" `Quick
      test_rwlock_no_writer_starvation;
    Alcotest.test_case "rwlock reentrant" `Quick test_rwlock_reentrant;
    Alcotest.test_case "rwlock reentrant write allocates nothing" `Quick
      test_rwlock_reentrant_write_no_alloc;
    Alcotest.test_case "mutex serializes" `Quick test_mutex_serializes;
    Alcotest.test_case "task locals survive interleaving" `Quick
      test_task_locals_survive_interleaving;
    Alcotest.test_case "task locals restored after abort" `Quick
      test_task_locals_restored_after_abort;
    qcheck_same_seed_same_run;
    Alcotest.test_case "concurrent rpc retries overlap" `Quick
      test_concurrent_retries_overlap;
    qcheck_order_matches_model;
    Alcotest.test_case "pinned schedule at three seeds" `Quick test_pinned_schedule;
    Alcotest.test_case "sleep/advance switch allocation" `Quick
      test_timer_switch_allocation;
    Alcotest.test_case "inline wait allocation" `Quick test_inline_wait_allocation;
    Alcotest.test_case "yield switch allocation" `Quick test_yield_switch_allocation;
    Alcotest.test_case "task life allocation bound" `Quick test_task_life_allocation;
    Alcotest.test_case "no per-task state survives runs" `Quick
      test_no_per_task_state_survives_runs;
  ]
