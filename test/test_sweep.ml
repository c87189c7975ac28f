(* The sweep engine against a fake scenario (no file system), and the
   verdict/exit-code contract of the four sweep subcommands. *)

module W = Sp_sweep

(* A fake scenario: [classify] picks each point's class; its message
   names the point, and [counters] supplies the per-point counters. *)
let fake ?(axes = [ ("x", 4) ]) ?(counters = fun _ -> []) classify =
  {
    W.label = "FAKE-SWEEP";
    params = [ ("mode", "test") ];
    trailer = [ ("seed", "7") ];
    classes = [ "ok"; "lost"; "detected"; "unavailable" ];
    failing = [ "lost"; "detected"; "unavailable" ];
    axes;
    run =
      (fun p ->
        {
          W.cls = classify p;
          msg = Printf.sprintf "%s@%d" p.W.axis p.W.at;
          counters = counters p;
        });
  }

let all cls _ = cls

let test_stride_enumeration () =
  let seen = ref [] in
  let r =
    W.run ~stride:3
      (fake
         ~axes:[ ("a", 7); ("b", 3); ("c", 0) ]
         (fun p ->
           seen := (p.W.axis, p.W.index, p.W.at) :: !seen;
           "ok"))
  in
  Alcotest.(check (list (triple string int int)))
    "points 1, 1+stride, ... per axis, bound not a multiple of the stride"
    [ ("a", 0, 1); ("a", 1, 4); ("a", 2, 7); ("b", 3, 1) ]
    (List.rev !seen);
  Alcotest.(check int) "points counted" 4 r.W.points;
  Alcotest.(check int) "all in class ok" 4 (W.count r "ok")

let test_first_failure_is_earliest () =
  let r =
    W.run ~stride:1
      (fake
         ~axes:[ ("a", 5); ("b", 5) ]
         (fun p ->
           match (p.W.axis, p.W.at) with
           | "a", 3 -> "detected"
           | "b", 1 -> "lost"
           | _ -> "ok"))
  in
  (match r.W.first_failure with
  | Some (p, v) ->
      Alcotest.(check (pair string int)) "earliest point" ("a", 3) (p.W.axis, p.W.at);
      Alcotest.(check string) "its class" "detected" v.W.cls
  | None -> Alcotest.fail "no first failure recorded");
  Alcotest.(check (option string))
    "one failure line" (Some "FIRST-FAILURE axis=a at=3 class=detected: a@3")
    (W.failure_line r);
  Alcotest.(check int) "failures tallied" 2 (W.failures r)

let test_counters_combine () =
  let r =
    W.run ~stride:1
      (fake
         ~axes:[ ("x", 4) ]
         ~counters:(fun p ->
           [
             ("n", W.Sum p.W.at);
             ("pages", W.Pair (1, p.W.at));
             ("gap", W.Max (if p.W.at = 2 then 50 else p.W.at));
           ])
         (all "ok"))
  in
  Alcotest.(check int) "sum" 10 (W.counter r.W.counters "n");
  Alcotest.(check int) "gap takes the max, not the sum" 50
    (W.counter r.W.counters "gap");
  Alcotest.(check string) "verdict line"
    "FAKE-SWEEP mode=test points=4 ok=4 lost=0 detected=0 unavailable=0 n=10 \
     pages=4+10 gap=50 seed=7"
    (W.verdict_line r);
  Alcotest.(check (option string)) "no failure line" None (W.failure_line r)

let test_exit_codes () =
  let sweep ?(axes = [ ("x", 3) ]) classify = W.run ~stride:1 (fake ~axes classify) in
  let clean = sweep (all "ok") in
  let lost_once = sweep (fun p -> if p.W.at = 2 then "lost" else "ok") in
  let detected_once = sweep (fun p -> if p.W.at = 3 then "detected" else "ok") in
  let all_unavailable = sweep (all "unavailable") in
  let empty = sweep ~axes:[ ("x", 0) ] (all "ok") in
  let code expect reports = W.exit_code expect reports in
  (* a clean sweep *)
  Alcotest.(check int) "clean sweep passes" 0 (code W.Clean [ clean ]);
  Alcotest.(check int) "any failing point fails it" 1 (code W.Clean [ lost_once ]);
  (* crash --expect-inconsistent: some damage of any failing class *)
  let damage = W.Some_in [ "lost"; "detected" ] in
  Alcotest.(check int) "damage found" 0 (code damage [ lost_once ]);
  Alcotest.(check int) "no damage" 1 (code damage [ clean ]);
  (* ... and with --torn and checksums, detected >= 1 *)
  Alcotest.(check int) "lost but never detected" 1
    (code (W.Some_in [ "detected" ]) [ lost_once ]);
  Alcotest.(check int) "detected" 0 (code (W.Some_in [ "detected" ]) [ detected_once ]);
  (* scrub --expect-undetected sums its three kinds *)
  Alcotest.(check int) "one kind had it" 0
    (code (W.Some_in [ "lost" ]) [ clean; clean; lost_once ]);
  Alcotest.(check int) "no kind had it" 1
    (code (W.Some_in [ "lost" ]) [ clean; clean; clean ]);
  (* failover / dfs-sweep --expect-unavailable *)
  let every = W.Every "unavailable" in
  Alcotest.(check int) "every point unavailable" 0 (code every [ all_unavailable ]);
  Alcotest.(check int) "one point served" 1
    (code every [ sweep (fun p -> if p.W.at = 1 then "ok" else "unavailable") ]);
  Alcotest.(check int) "one point lost" 1
    (code every [ sweep (fun p -> if p.W.at = 1 then "lost" else "unavailable") ]);
  Alcotest.(check int) "no points" 1 (code every [ empty ])

(* --- CLI verdicts ---

   Each sweep subcommand, normal and inverted arm, at a size that runs
   in well under a second: both arms must exit 0, and everything printed
   on stdout (verdict lines plus the single FIRST-FAILURE line) is
   pinned.  Tests run
   from [_build/default/test/], so the binary lives one directory up. *)

let springfs = Filename.concat ".." (Filename.concat "bin" "springfs.exe")

let run_cli args =
  let out = Filename.temp_file "springfs" ".out" in
  let code =
    Sys.command
      (Filename.quote_command springfs (args @ [ "--seed"; "7" ]) ~stdout:out
         ~stderr:Filename.null)
  in
  let ic = open_in out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (code, text)

let cli_cases =
  [
    ( "crash --ops 8 --stride 4",
      "CRASH-SWEEP journal=on checksums=on points=11 survived=11 lost=0 \
       corrupt=0 detected=0 seed=7 ops=8 io=44\n" );
    ( "crash --ops 8 --stride 4 --no-journal --expect-inconsistent",
      "CRASH-SWEEP journal=off checksums=on points=17 survived=15 lost=0 \
       corrupt=2 detected=0 seed=7 ops=8 io=66\n\
       FIRST-FAILURE axis=write at=41 class=corrupt: block 20 referenced but \
       free (+4 more)\n" );
    ( "scrub --ops 6 --stride 8",
      "SCRUB-SWEEP kind=bitrot checksums=on mirror=off points=1 absorbed=0 \
       detected=1 repaired=0 silent=0 seed=7 ops=6 io=5\n\
       SCRUB-SWEEP kind=misdirected checksums=on mirror=off points=4 \
       absorbed=3 detected=1 repaired=0 silent=0 seed=7 ops=6 io=32\n\
       SCRUB-SWEEP kind=lost checksums=on mirror=off points=4 absorbed=3 \
       detected=1 repaired=0 silent=0 seed=7 ops=6 io=32\n" );
    ( "scrub --ops 10 --stride 4 --no-checksums --expect-undetected",
      "SCRUB-SWEEP kind=bitrot checksums=off mirror=off points=2 absorbed=2 \
       detected=0 repaired=0 silent=0 seed=7 ops=10 io=7\n\
       SCRUB-SWEEP kind=misdirected checksums=off mirror=off points=11 \
       absorbed=7 detected=2 repaired=0 silent=2 seed=7 ops=10 io=42\n\
       SCRUB-SWEEP kind=lost checksums=off mirror=off points=11 absorbed=7 \
       detected=2 repaired=0 silent=2 seed=7 ops=10 io=42\n\
       FIRST-FAILURE axis=misdirected at=13 class=silent: f5: read back 13104 \
       byte(s) differing from what was written\n" );
    ( "failover --ops 8 --stride 4",
      "LAYER-CRASH-SWEEP supervised=on clients=1 layers=4 points=8 served=8 \
       unavailable=0 lost=0 corrupt=0 restarts=20 reconciled=2+18 \
       op_served=0 retried=0 shed=0 failed=0 deadline_misses=0 \
       worst_gap_ns=0 seed=7 ops=8\n" );
    ( "failover --ops 8 --stride 4 --no-supervisor --expect-unavailable",
      "LAYER-CRASH-SWEEP supervised=off clients=1 layers=4 points=8 served=0 \
       unavailable=8 lost=0 corrupt=0 restarts=0 reconciled=0+0 op_served=0 \
       retried=0 shed=0 failed=0 deadline_misses=0 worst_gap_ns=0 seed=7 \
       ops=8\n\
       FIRST-FAILURE axis=lcs.disk at=1 class=unavailable: lcs.disk\n" );
    ( "dfs-sweep --nodes 2 --clients 2 --ops 16 --stride 7",
      "DFS-SWEEP mode=kill nodes=2 clients=2 leases=on points=3 served=3 \
       unavailable=0 lost=0 corrupt=0 restarts=4 warm=18 cold=20 \
       inval_sent=2 inval_shed=0 inval_lapsed=6 stale_blocked=12 \
       stale_served=0 wrong_shard=0 op_served=48 retried=0 shed=0 failed=0 \
       deadline_misses=0 worst_gap_ns=18836800 seed=7 ops=16\n" );
    ( "dfs-sweep --partition --clients 2 --ops 16 --stride 7 --no-leases \
       --expect-unavailable",
      "DFS-SWEEP mode=partition nodes=3 clients=2 leases=off points=2 \
       served=0 unavailable=2 lost=0 corrupt=0 restarts=0 warm=0 cold=25 \
       inval_sent=0 inval_shed=0 inval_lapsed=0 stale_blocked=0 \
       stale_served=0 wrong_shard=0 op_served=18 retried=0 shed=0 failed=0 \
       deadline_misses=0 worst_gap_ns=40388800 seed=7 ops=16\n\
       FIRST-FAILURE axis=boundary at=1 class=unavailable: partition:c0: \
       leaseless client had no warm service while partitioned\n" );
  ]

let test_cli_verdicts () =
  if not (Sys.file_exists springfs) then Alcotest.skip ()
  else
    List.iter
      (fun (args, want) ->
        let code, out = run_cli (String.split_on_char ' ' args) in
        Alcotest.(check string) (args ^ ": stdout") want out;
        Alcotest.(check int) (args ^ ": exit code") 0 code)
      cli_cases

let test_cli_usage_error () =
  if not (Sys.file_exists springfs) then Alcotest.skip ()
  else
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 2") 2
          (fst (run_cli args)))
      [ [ "crash"; "--stride"; "0" ]; [ "dfs-sweep"; "--partition"; "--clients"; "1" ] ]

let suite =
  [
    Alcotest.test_case "stride enumeration per axis" `Quick test_stride_enumeration;
    Alcotest.test_case "first failure is the earliest" `Quick
      test_first_failure_is_earliest;
    Alcotest.test_case "counters sum, gap takes the max" `Quick test_counters_combine;
    Alcotest.test_case "expectation rules map to exit codes" `Quick test_exit_codes;
    Alcotest.test_case "cli verdicts" `Quick test_cli_verdicts;
    Alcotest.test_case "cli usage errors exit 2" `Quick test_cli_usage_error;
  ]
