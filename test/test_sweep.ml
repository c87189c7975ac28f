(* The sweep engine against a fake scenario (no file system), the file
   model's comparer and the live write rule, and the verdict/exit-code
   contract of the four sweep subcommands. *)

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

let test_counter_changes_rejected () =
  let changed ~at counters =
    fake ~axes:[ ("x", 2) ]
      ~counters:(fun p -> if p.W.at = at then counters else [ ("n", W.Sum 1) ])
      (all "ok")
  in
  List.iter
    (fun (what, s) ->
      Alcotest.check_raises what
        (Invalid_argument "Sp_sweep: counter names changed between points")
        (fun () -> ignore (W.run ~stride:1 s)))
    [
      ("renamed", changed ~at:2 [ ("m", W.Sum 1) ]);
      ("one more", changed ~at:2 [ ("n", W.Sum 1); ("m", W.Sum 1) ]);
      ("one fewer", changed ~at:2 []);
    ]

(* --- The file model and its comparer, on a real volume --- *)

let volume name =
  let disk = Sp_blockdev.Disk.create ~label:name ~blocks:256 () in
  Sp_sfs.Disk_layer.mkfs disk;
  Sp_sfs.Disk_layer.mount ~name disk

let test_files_mismatch () =
  let fs = volume "files-kit" in
  let m = W.Files.create fs in
  W.Files.write m "f0" ~pos:3 (Bytes.of_string "abc");
  W.Files.write m "f1" ~pos:0 (Bytes.of_string "xyz");
  W.Files.sync m;
  let check what want =
    Alcotest.(check (option string)) what want (W.Files.mismatch fs (W.Files.expected m))
  in
  check "exact volume" None;
  Alcotest.(check (list (pair string string)))
    "expected contents, holes zero-filled"
    [ ("f0", "\000\000\000abc"); ("f1", "xyz") ]
    (List.map (fun (n, b) -> (n, Bytes.to_string b)) (W.Files.expected m));
  let path n = Sp_naming.Sname.of_components [ n ] in
  ignore
    (Sp_core.File.write (Sp_core.Stackable.open_file fs (path "f1")) ~pos:1
       (Bytes.of_string "Y"));
  check "one byte flipped"
    (Some "f1: read back 3 byte(s) differing from what was written");
  Sp_core.Stackable.remove fs (path "f0");
  check "a file missing" (Some "file set {f1} <> {f0,f1}")

let test_files_since_sync () =
  let fs = volume "files-model" in
  let m = W.Files.create fs in
  let contents l = List.map (Option.map Bytes.to_string) l in
  let files l = List.map (fun (n, b) -> (n, Bytes.to_string b)) l in
  W.Files.write m "f0" ~pos:0 (Bytes.of_string "aa");
  W.Files.sync m;
  W.Files.write m "f0" ~pos:3 (Bytes.of_string "b");
  W.Files.write m "f1" ~pos:0 (Bytes.of_string "c");
  Alcotest.(check (list (pair string string))) "synced cut" [ ("f0", "aa") ]
    (files (W.Files.synced m));
  Alcotest.(check (list (option string)))
    "f0: newer versions, then the synced one"
    [ Some "aa\000b"; Some "aa" ]
    (contents (W.Files.since_sync m "f0"));
  Alcotest.(check (list (option string)))
    "f1: written, bare, absent before the sync"
    [ Some "c"; Some ""; None ]
    (contents (W.Files.since_sync m "f1"));
  Alcotest.(check (list (pair int int))) "f0 spans" [ (3, 1) ]
    (W.Files.written_since_sync m "f0");
  W.Files.remove m "f0";
  Alcotest.(check bool) "f0 removed" false (W.Files.present m "f0");
  Alcotest.(check (list (pair int int))) "a remove drops the spans" []
    (W.Files.written_since_sync m "f0");
  Alcotest.(check (option (list (pair string string)))) "no sync in flight" None
    (Option.map files (W.Files.in_flight m));
  W.Files.adopt m (W.Files.read_back fs);
  Alcotest.(check (list (pair string string))) "adopted as the synced cut"
    [ ("f1", "c") ] (files (W.Files.synced m));
  Alcotest.(check (list (option string))) "nothing newer than the adopted cut"
    [ Some "c" ] (contents (W.Files.since_sync m "f1"))

let test_pinned_edges () =
  let w ~seq ~done_at = { W.Live.pos = 0; data = Bytes.empty; seq; done_at } in
  let pinned what want w ~cut ~safe_after =
    Alcotest.(check bool) what want (W.Live.pinned w ~cut ~safe_after)
  in
  pinned "completed at the cut" true (w ~seq:3 ~done_at:5) ~cut:5 ~safe_after:max_int;
  pinned "completed after the cut" false (w ~seq:3 ~done_at:6) ~cut:5 ~safe_after:max_int;
  pinned "started at safe_after" false (w ~seq:9 ~done_at:10) ~cut:0 ~safe_after:9;
  pinned "started after safe_after" true (w ~seq:10 ~done_at:11) ~cut:0 ~safe_after:9;
  pinned "never completed, before the cut" false (w ~seq:1 ~done_at:(-1)) ~cut:5
    ~safe_after:max_int;
  pinned "never completed, after recovery" false (w ~seq:10 ~done_at:(-1)) ~cut:0
    ~safe_after:(-1)

(* --- CLI verdicts ---

   Each sweep subcommand, normal and inverted arm, at a size that runs
   in well under a second: both arms must exit 0, and everything printed
   on stdout (verdict lines plus the single FIRST-FAILURE line) is
   pinned. *)

(* Every sweep runs at seed 7; [stack] and [tables] have no seed to set.
   Returns the exit code, stdout and stderr. *)
let run_cli args =
  Util.run_springfs
    (match args with ("stack" | "tables") :: _ -> args | _ -> args @ [ "--seed"; "7" ])

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
    ( "crash --clients 4 --ops 8 --stride 4",
      "CRASH-SWEEP journal=on checksums=on clients=4 points=30 survived=30 \
       lost=0 corrupt=0 detected=0 seed=7 ops=8 io=118\n" );
    ( "crash --clients 4 --ops 8 --stride 4 --no-journal --expect-inconsistent",
      "CRASH-SWEEP journal=off checksums=on clients=4 points=51 survived=43 \
       lost=4 corrupt=4 detected=0 seed=7 ops=8 io=202\n\
       FIRST-FAILURE axis=write at=117 class=corrupt: block 37 referenced but \
       free (+20 more)\n" );
    ( "scrub --clients 4 --ops 8 --stride 4",
      "SCRUB-SWEEP kind=bitrot checksums=on mirror=off clients=4 points=5 \
       absorbed=0 detected=5 repaired=0 silent=0 seed=7 ops=8 io=18\n\
       SCRUB-SWEEP kind=misdirected checksums=on mirror=off clients=4 \
       points=21 absorbed=12 detected=9 repaired=0 silent=0 seed=7 ops=8 \
       io=82\n\
       SCRUB-SWEEP kind=lost checksums=on mirror=off clients=4 points=21 \
       absorbed=13 detected=8 repaired=0 silent=0 seed=7 ops=8 io=82\n" );
    ( "scrub --clients 4 --ops 8 --stride 4 --no-checksums --expect-undetected",
      "SCRUB-SWEEP kind=bitrot checksums=off mirror=off clients=4 points=5 \
       absorbed=2 detected=0 repaired=0 silent=3 seed=7 ops=8 io=18\n\
       SCRUB-SWEEP kind=misdirected checksums=off mirror=off clients=4 \
       points=19 absorbed=13 detected=0 repaired=0 silent=6 seed=7 ops=8 \
       io=76\n\
       SCRUB-SWEEP kind=lost checksums=off mirror=off clients=4 points=19 \
       absorbed=13 detected=0 repaired=0 silent=6 seed=7 ops=8 io=76\n\
       FIRST-FAILURE axis=bitrot at=9 class=silent: c0f1: read back 10217 \
       byte(s) differing from what was written\n" );
    ( "failover --clients 4 --ops 16 --stride 2",
      "LAYER-CRASH-SWEEP supervised=on clients=4 layers=4 points=32 served=32 \
       unavailable=0 lost=0 corrupt=0 restarts=80 reconciled=91+91 \
       op_served=512 retried=83 shed=0 failed=0 deadline_misses=0 \
       worst_gap_ns=227557325 seed=7 ops=16\n" );
    ( "failover --clients 4 --ops 16 --stride 2 --no-supervisor \
       --expect-unavailable",
      "LAYER-CRASH-SWEEP supervised=off clients=4 layers=4 points=32 served=0 \
       unavailable=32 lost=0 corrupt=0 restarts=0 reconciled=0+0 \
       op_served=156 retried=0 shed=229 failed=127 deadline_misses=0 \
       worst_gap_ns=402919000 seed=7 ops=16\n\
       FIRST-FAILURE axis=lcs.disk at=1 class=unavailable: lcs.disk\n" );
    (* Four protocol layers, each the cache manager of the one below. *)
    ( "stack -l cryptfs,compfs,integrityfs,coherency --ops 50",
      "stack: coherency -> integrityfs -> compfs -> cryptfs -> coherency -> \
       sfs_disk\n\
       50 x (write+read+stat) of 4096 bytes: 299.81ms simulated\n\
       events: cross_domain_calls=246 local_calls=4 kernel_calls=4 \
       page_faults=2\n\
      \        page_ins=4 page_outs=8 disk_reads=4 disk_writes=18 \
       net_messages=0\n\
      \        net_bytes=0 coherency_actions=4 attr_fetches=2 faults_injected=0\n\
      \        net_retries=0 checksum_failures=0 integrity_repairs=0\n\
      \        bulk_handoffs=107 bulk_copies=119 bulk_setups=8 readahead_hits=0\n\
      \        readahead_wasted=0 name_cache_hits=0 name_cache_misses=0\n\
      \        name_cache_negative_hits=0 queue_ns=0 avail_shed=0 \
       avail_retried=0\n\
      \        avail_failed=0 avail_degraded=0\n" );
  ]

let test_cli_verdicts () =
  if not (Sys.file_exists Util.springfs_exe) then Alcotest.skip ()
  else
    List.iter
      (fun (args, want) ->
        let code, out, _ = run_cli (String.split_on_char ' ' args) in
        Alcotest.(check string) (args ^ ": stdout") want out;
        Alcotest.(check int) (args ^ ": exit code") 0 code)
      cli_cases

let test_cli_usage_error () =
  if not (Sys.file_exists Util.springfs_exe) then Alcotest.skip ()
  else
    List.iter
      (fun args ->
        Alcotest.(check int) (String.concat " " args ^ " exits 2") 2
          (let code, _, _ = run_cli args in
           code))
      [ [ "crash"; "--stride"; "0" ]; [ "dfs-sweep"; "--partition"; "--clients"; "1" ] ]

(* A stack that fails only once the workload runs ends like one that
   cannot be built: one [stack error:] line on stderr and exit 1. *)
let test_cli_stack_error () =
  if not (Sys.file_exists Util.springfs_exe) then Alcotest.skip ()
  else
    List.iter
      (fun (args, out, err) ->
        let code, got_out, got_err = run_cli (String.split_on_char ' ' args) in
        Alcotest.(check int) (args ^ ": exit code") 1 code;
        Alcotest.(check string) (args ^ ": stdout") out got_out;
        Alcotest.(check string) (args ^ ": stderr") err got_err)
      [
        ("stack -l nosuchfs", "", "stack error: nosuchfs: no such creator\n");
        ( "stack -l mirrorfs --ops 5",
          "stack: mirrorfs -> coherency -> sfs_disk\n",
          "stack error: mirrorfs0: needs two underlays\n" );
      ]

(* [tables] selects from Sp_benchlib.Tables by name; a name the list
   lacks is a usage error, not an empty run. *)
let test_cli_tables () =
  if not (Sys.file_exists Util.springfs_exe) then Alcotest.skip ()
  else begin
    let code, out, _ = run_cli [ "tables"; "table2" ] in
    Alcotest.(check int) "tables table2: exit code" 0 code;
    Alcotest.(check bool) "tables table2 prints Table 2" true
      (List.exists
         (String.starts_with ~prefix:"Table 2:")
         (String.split_on_char '\n' out));
    let code, out, _ = run_cli [ "tables"; "tabel2" ] in
    Alcotest.(check int) "tables tabel2: exit code" 2 code;
    Alcotest.(check string) "tables tabel2: stdout" "" out
  end

let suite =
  [
    Alcotest.test_case "stride enumeration per axis" `Quick test_stride_enumeration;
    Alcotest.test_case "first failure is the earliest" `Quick
      test_first_failure_is_earliest;
    Alcotest.test_case "counters sum, gap takes the max" `Quick test_counters_combine;
    Alcotest.test_case "expectation rules map to exit codes" `Quick test_exit_codes;
    Alcotest.test_case "counter changes between points rejected" `Quick
      test_counter_changes_rejected;
    Alcotest.test_case "files: comparer finds a flip and a missing file" `Quick
      test_files_mismatch;
    Alcotest.test_case "files: versions and spans since the last sync" `Quick
      test_files_since_sync;
    Alcotest.test_case "live: pinned rule at its edges" `Quick test_pinned_edges;
    Alcotest.test_case "cli verdicts" `Quick test_cli_verdicts;
    Alcotest.test_case "cli usage errors exit 2" `Quick test_cli_usage_error;
    Alcotest.test_case "cli stack errors exit 1" `Quick test_cli_stack_error;
    Alcotest.test_case "cli tables: unknown name exits 2" `Quick test_cli_tables;
  ]
