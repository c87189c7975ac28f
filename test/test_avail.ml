(* Sp_avail: deadlines, jittered backoff, circuit breaker, and their
   interaction with the scheduler's queueing stations. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module DL = Sp_sfs.Disk_layer
module Sup = Sp_supervise
module A = Sp_avail
module Rng = Sp_fault.Rng

(* Same supervised two-level stack as test_supervise. *)
let build ?budget ?backoff_ns tag =
  let disk = Sp_blockdev.Disk.create ~label:(tag ^ ".dev") ~blocks:1024 () in
  DL.mkfs ~journal:true disk;
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ ".vmm") in
  let levels =
    [
      Sup.level ~name:(tag ^ ".disk") (fun ~lower:_ ->
          DL.mount ~name:(tag ^ ".disk") disk);
      Sup.level ~name:(tag ^ ".coh") (fun ~lower ->
          let fs = Sp_coherency.Coherency_layer.make ~vmm ~name:(tag ^ ".coh") () in
          S.stack_on fs (Option.get lower);
          fs);
    ]
  in
  let sup = Sup.supervise ?budget ?backoff_ns ~name:tag levels in
  (disk, vmm, sup)

(* --- backoff --- *)

let policy_gen =
  QCheck2.Gen.(
    let* base = 1 -- 1_000_000 in
    let* cap = 1 -- 10_000_000 in
    let* attempts = 2 -- 12 in
    let* jitter = float_bound_inclusive 1.0 in
    let* seed = 0 -- 1000 in
    return (base, cap, attempts, jitter, seed))

let qcheck_backoff_deterministic =
  Util.qcheck_case ~count:200 "same seed, same jittered delays" policy_gen
    (fun (base, cap, attempts, jitter, seed) ->
      let p =
        A.Backoff.make ~base_ns:base ~max_delay_ns:cap ~max_attempts:attempts
          ~jitter ()
      in
      let draws () =
        let rng = Rng.create seed in
        List.init attempts (fun i -> A.Backoff.delay_ns p ~rng ~attempt:(i + 1))
      in
      let a = draws () and b = draws () in
      (* Determinism in the rng state... *)
      a = b
      (* ...and every delay within the unjittered envelope. *)
      && List.for_all2
           (fun d i ->
             let raw =
               min cap (base * (1 lsl min 20 i))
               (* delay_ns caps the shift too; mirror the bound *)
             in
             d >= 0
             && d <= raw
             && float_of_int d >= ((1.0 -. jitter) *. float_of_int raw) -. 1.0)
           a
           (List.init attempts (fun i -> i)))

let test_backoff_unjittered_exact () =
  Util.in_world (fun () ->
      let p =
        A.Backoff.make ~base_ns:1000 ~max_delay_ns:6000 ~max_attempts:5
          ~jitter:0.0 ()
      in
      let rng = Rng.create 42 in
      Alcotest.(check (list int))
        "doubling then capped" [ 1000; 2000; 4000; 6000; 6000 ]
        (List.init 5 (fun i -> A.Backoff.delay_ns p ~rng ~attempt:(i + 1))))

let test_backoff_pause_is_idle () =
  Util.in_world (fun () ->
      let p =
        A.Backoff.make ~base_ns:1_000 ~max_delay_ns:1_000 ~max_attempts:2
          ~jitter:0.0 ()
      in
      let rng = Rng.create 7 in
      let t0 = Sp_sim.Simclock.now () in
      A.Backoff.pause p ~rng ~attempt:1;
      Alcotest.(check int) "paused exactly the delay" 1_000
        (Sp_sim.Simclock.now () - t0);
      (* A pause that would cross the ambient deadline raises without
         sleeping. *)
      let t1 = Sp_sim.Simclock.now () in
      Alcotest.(check bool) "pause past deadline raises eagerly" true
        (try
           Sp_sched.with_deadline ~ns:10 (fun () ->
               A.Backoff.pause p ~rng ~attempt:2);
           false
         with Sp_sched.Deadline_exceeded _ -> Sp_sim.Simclock.now () = t1))

(* --- station slot release on a mid-queue deadline (regression) --- *)

let test_station_deadline_releases_slot () =
  Util.in_world (fun () ->
      let st = Sp_sched.Station.create ~servers:1 "avail.station" in
      let b_timed_out = ref false and c_done_at = ref (-1) in
      ignore
        (Sp_sched.run ~seed:1
           [
             (fun () -> Sp_sched.Station.serve st 10_000_000);
             (fun () ->
               Sp_sched.sleep 100;
               try
                 Sp_sched.with_deadline ~ns:1_000_000 (fun () ->
                     Sp_sched.Station.serve st 5_000_000)
               with Sp_sched.Deadline_exceeded _ -> b_timed_out := true);
             (fun () ->
               Sp_sched.sleep 200;
               Sp_sched.Station.serve st 2_000_000;
               c_done_at := Sp_sim.Simclock.now ());
           ]);
      Alcotest.(check bool) "queued waiter timed out" true !b_timed_out;
      (* The slot passed straight from the long server to the waiter
         behind the cancelled one: no stranded slot, no extra wait. *)
      Alcotest.(check int) "next waiter served immediately after" 12_000_000
        !c_done_at)

(* --- deadline on the door path --- *)

let test_deadline_times_out_op () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let disk = Sp_blockdev.Disk.create ~label:"to.dev" ~blocks:512 () in
      DL.mkfs disk;
      let fs = DL.mount ~name:"to.fs" disk in
      let before = Sp_sim.Metrics.snapshot () in
      Alcotest.(check bool) "deadline surfaces as Fserr.Timed_out" true
        (try
           A.call ~name:"to" ~deadline_ns:1_000 (fun () ->
               ignore (S.create fs (Util.name "a"));
               S.sync fs);
           false
         with Sp_core.Fserr.Timed_out _ -> true);
      Alcotest.(check int) "counted as a loud failure" 1
        (Util.metrics_since before).Sp_sim.Metrics.avail_failed)

(* --- retry through a restart window --- *)

let test_retried_through_restart () =
  Util.in_world (fun () ->
      let _disk, _vmm, sup = build ~backoff_ns:1_000_000 "ar" in
      Fun.protect ~finally:(fun () -> Sup.unsupervise sup) @@ fun () ->
      let fs = Sup.handle sup in
      let f = S.create fs (Util.name "a") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "live"));
      S.sync fs;
      A.Breaker.reset "ar";
      let before = Sp_sim.Metrics.snapshot () in
      let got1 = ref Bytes.empty and got2 = ref Bytes.empty in
      let read () = F.read_all (S.open_file fs (Util.name "a")) in
      ignore
        (Sp_sched.run ~seed:3
           [
             (fun () ->
               Sup.kill sup "ar.coh";
               got1 := A.call ~name:"ar" read);
             (fun () ->
               (* Land inside the other task's restart window: the
                  Dead_domain escapes and only backoff-retry saves us. *)
               Sp_sched.sleep 100;
               got2 := A.call ~name:"ar" read);
           ]);
      Util.check_str "first caller served" "live" !got1;
      Util.check_str "concurrent caller served" "live" !got2;
      Alcotest.(check bool) "at least one op needed an availability retry"
        true
        ((Util.metrics_since before).Sp_sim.Metrics.avail_retried >= 1))

(* --- breaker: exhaustion trips, shed, degraded --- *)

let test_breaker_shed_and_degraded () =
  Util.in_world (fun () ->
      let disk = Sp_blockdev.Disk.create ~label:"bk.dev" ~blocks:512 () in
      DL.mkfs disk;
      let fs = DL.mount ~name:"bk.fs" disk in
      ignore (S.create fs (Util.name "a"));
      S.sync fs;
      Sp_obj.Sdomain.kill fs.S.sfs_domain;
      A.Breaker.reset "bk";
      let quick = A.Backoff.make ~base_ns:100 ~max_attempts:3 () in
      let before = Sp_sim.Metrics.snapshot () in
      (* Unsupervised dead domain: retries exhaust, the call fails
         loudly and trips the breaker for a cooldown. *)
      Alcotest.(check bool) "retry exhaustion raises Unavailable" true
        (try
           ignore
             (A.call ~name:"bk" ~policy:quick (fun () ->
                  S.open_file fs (Util.name "a")));
           false
         with A.Unavailable _ -> true);
      Alcotest.(check int) "counted failed" 1
        (Util.metrics_since before).Sp_sim.Metrics.avail_failed;
      Alcotest.(check bool) "breaker now open" true
        (A.Breaker.blocking "bk" <> None);
      (* While open: shed without touching the corpse... *)
      Alcotest.(check bool) "open breaker sheds" true
        (try
           ignore
             (A.call ~name:"bk" ~policy:quick (fun () ->
                  S.open_file fs (Util.name "a")));
           false
         with A.Unavailable _ -> true);
      Alcotest.(check int) "counted shed" 1
        (Util.metrics_since before).Sp_sim.Metrics.avail_shed;
      (* ...or serve the caller-supplied degraded fallback. *)
      let served =
        A.call ~name:"bk" ~policy:quick
          ~degraded:(fun () -> "frozen view")
          (fun () ->
            ignore (S.open_file fs (Util.name "a"));
            "live")
      in
      Alcotest.(check string) "degraded fallback served" "frozen view" served;
      Alcotest.(check int) "counted degraded" 1
        (Util.metrics_since before).Sp_sim.Metrics.avail_degraded)

(* The half-open protocol under contention: once the cooldown elapses,
   exactly one of N concurrent tasks is admitted as the probe (the
   admission in [Breaker.blocking] is atomic — no suspension point);
   everyone else sheds until the probe's outcome, and a successful
   probe closes the breaker. *)
let test_breaker_half_open_single_probe () =
  Util.in_world (fun () ->
      let name = "tav-half" in
      A.Breaker.reset name;
      A.Breaker.trip ~cooldown_ns:1_000 ~reason:"forced" name;
      Alcotest.(check bool) "open during cooldown" true
        (A.Breaker.blocking name <> None);
      let admitted = ref 0 and shed = ref 0 in
      let caller () =
        Sp_sched.sleep 2_000;
        (* past the cooldown: all eight wake at the same instant *)
        match A.Breaker.blocking name with
        | None ->
            Alcotest.(check bool) "admitted caller is the probe" true
              (A.Breaker.probing name);
            incr admitted;
            (* hold the probe across a suspension so every other task
               observes the half-open window before the outcome lands *)
            Sp_sched.sleep 5_000;
            A.Breaker.note_ok name
        | Some _ -> incr shed
      in
      ignore (Sp_sched.run ~seed:11 (List.init 8 (fun _ -> caller)));
      Alcotest.(check int) "exactly one probe admitted" 1 !admitted;
      Alcotest.(check int) "every other caller shed" 7 !shed;
      Alcotest.(check bool) "probe success closed the breaker" true
        (A.Breaker.blocking name = None))

(* --- concurrent layer-crash sweep smoke --- *)

let test_concurrent_sweep_smoke () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let r =
        Sp_sweep.run ~stride:16
          (Sp_failover.Layer_crash_sweep.scenario ~clients:2 ~ops:4 ~seed:3 ())
      in
      let counter = Sp_sweep.counter r.Sp_sweep.counters in
      Alcotest.(check int) "one point per layer" 4 r.Sp_sweep.points;
      Alcotest.(check int) "all served" r.Sp_sweep.points (Sp_sweep.count r "served");
      Alcotest.(check int) "no synced byte lost" 0 (Sp_sweep.count r "lost");
      Alcotest.(check int) "volume stayed clean" 0 (Sp_sweep.count r "corrupt");
      Alcotest.(check int) "no deadline overruns" 0 (counter "deadline_misses");
      Alcotest.(check bool) "restarts observed" true (counter "restarts" > 0))

let suite =
  [
    qcheck_backoff_deterministic;
    Alcotest.test_case "backoff: unjittered series exact" `Quick
      test_backoff_unjittered_exact;
    Alcotest.test_case "backoff: pause is idle, deadline-eager" `Quick
      test_backoff_pause_is_idle;
    Alcotest.test_case "station: mid-queue deadline releases the slot" `Quick
      test_station_deadline_releases_slot;
    Alcotest.test_case "deadline: op overrun surfaces Timed_out" `Quick
      test_deadline_times_out_op;
    Alcotest.test_case "retry: concurrent caller rides out a restart" `Quick
      test_retried_through_restart;
    Alcotest.test_case "breaker: exhaustion trips, shed, degraded" `Quick
      test_breaker_shed_and_degraded;
    Alcotest.test_case "breaker: half-open admits exactly one probe" `Quick
      test_breaker_half_open_single_probe;
    Alcotest.test_case "sweep: concurrent smoke (2 clients)" `Quick
      test_concurrent_sweep_smoke;
  ]
