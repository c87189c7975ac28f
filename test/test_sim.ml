let test_clock_advances () =
  Sp_sim.Simclock.reset ();
  Alcotest.(check int) "starts at zero" 0 (Sp_sim.Simclock.now ());
  Sp_sim.Simclock.advance 150;
  Sp_sim.Simclock.advance 50;
  Alcotest.(check int) "accumulates" 200 (Sp_sim.Simclock.now ())

let test_clock_rejects_negative () =
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Simclock.advance: negative duration") (fun () ->
      Sp_sim.Simclock.advance (-1))

let test_pp_duration () =
  let s ns = Format.asprintf "%a" Sp_sim.Simclock.pp_duration ns in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.5us" (s 1_500);
  Alcotest.(check string) "ms" "13.70ms" (s 13_700_000);
  Alcotest.(check string) "s" "2.00s" (s 2_000_000_000)

let test_cost_model_with_model () =
  let before = Sp_sim.Cost_model.current () in
  let inner =
    Sp_sim.Cost_model.with_model Util.fast_model (fun () ->
        (Sp_sim.Cost_model.current ()).Sp_sim.Cost_model.cross_domain_call_ns)
  in
  Alcotest.(check int) "fast model installed" 1 inner;
  Alcotest.(check bool) "restored" true (Sp_sim.Cost_model.current () == before)

let test_cost_model_restores_on_exn () =
  let before = Sp_sim.Cost_model.current () in
  (try
     Sp_sim.Cost_model.with_model Util.fast_model (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" true
    (Sp_sim.Cost_model.current () == before)

let test_metrics_diff () =
  Sp_sim.Metrics.reset ();
  let before = Sp_sim.Metrics.snapshot () in
  Sp_sim.Metrics.incr_disk_reads ();
  Sp_sim.Metrics.incr_disk_reads ();
  Sp_sim.Metrics.incr_net_messages ();
  Sp_sim.Metrics.add_net_bytes 100;
  let after = Sp_sim.Metrics.snapshot () in
  let d = Sp_sim.Metrics.diff ~before ~after in
  Alcotest.(check int) "disk reads" 2 d.Sp_sim.Metrics.disk_reads;
  Alcotest.(check int) "net messages" 1 d.Sp_sim.Metrics.net_messages;
  Alcotest.(check int) "net bytes" 100 d.Sp_sim.Metrics.net_bytes;
  Alcotest.(check int) "untouched counter" 0 d.Sp_sim.Metrics.page_ins

let test_metrics_reset () =
  Sp_sim.Metrics.incr_page_faults ();
  Sp_sim.Metrics.reset ();
  let s = Sp_sim.Metrics.snapshot () in
  Alcotest.(check int) "zeroed" 0 s.Sp_sim.Metrics.page_faults

(* Counters are bumped in place: an increment (one per door crossing)
   allocates nothing. *)
let test_metrics_bump_allocates_nothing () =
  Sp_sim.Metrics.reset ();
  let bump () =
    Sp_sim.Metrics.incr_cross_domain_calls ();
    Sp_sim.Metrics.add_queue_ns 3
  in
  Alcotest.(check (float 0.)) "minor words per bump" 0.
    (Util.minor_words_per_call bump);
  Sp_sim.Metrics.reset ()

(* Snapshots are copies: later increments never show through. *)
let test_metrics_snapshot_is_frozen () =
  Sp_sim.Metrics.reset ();
  Sp_sim.Metrics.incr_page_ins ();
  let s = Sp_sim.Metrics.snapshot () in
  Sp_sim.Metrics.incr_page_ins ();
  Sp_sim.Metrics.add_net_bytes 7;
  Alcotest.(check int) "page_ins as taken" 1 s.Sp_sim.Metrics.page_ins;
  Alcotest.(check int) "net_bytes as taken" 0 s.Sp_sim.Metrics.net_bytes;
  Alcotest.(check int) "live counter moved on" 2 (Sp_sim.Metrics.snapshot ()).page_ins

(* Each [incr_*]/[add_*] lands in its own field: bump every counter by a
   distinct amount and read the fields back through [pp]. *)
let test_metrics_counters_distinct () =
  let module M = Sp_sim.Metrics in
  M.reset ();
  let bumps =
    [ M.incr_cross_domain_calls; M.incr_local_calls; M.incr_kernel_calls;
      M.incr_page_faults; M.incr_page_ins; M.incr_page_outs; M.incr_disk_reads;
      M.incr_disk_writes; M.incr_net_messages; (fun () -> M.add_net_bytes 1);
      M.incr_coherency_actions; M.incr_attr_fetches; M.incr_faults_injected;
      M.incr_net_retries; M.incr_checksum_failures; M.incr_integrity_repairs;
      M.incr_bulk_handoffs; M.incr_bulk_copies; M.incr_bulk_setups;
      M.incr_readahead_hits; M.incr_readahead_wasted; M.incr_name_cache_hits;
      M.incr_name_cache_misses; M.incr_name_cache_negative_hits;
      (fun () -> M.add_queue_ns 1); M.incr_avail_shed; M.incr_avail_retried;
      M.incr_avail_failed; M.incr_avail_degraded ]
  in
  List.iteri (fun i bump -> for _ = 0 to i do bump () done) bumps;
  let s = M.snapshot () in
  let fields =
    [ s.cross_domain_calls; s.local_calls; s.kernel_calls; s.page_faults; s.page_ins;
      s.page_outs; s.disk_reads; s.disk_writes; s.net_messages; s.net_bytes;
      s.coherency_actions; s.attr_fetches; s.faults_injected; s.net_retries;
      s.checksum_failures; s.integrity_repairs; s.bulk_handoffs; s.bulk_copies;
      s.bulk_setups; s.readahead_hits; s.readahead_wasted; s.name_cache_hits;
      s.name_cache_misses; s.name_cache_negative_hits; s.queue_ns; s.avail_shed;
      s.avail_retried; s.avail_failed; s.avail_degraded ]
  in
  Alcotest.(check (list int)) "field i counts i+1"
    (List.init (List.length bumps) (fun i -> i + 1))
    fields;
  Alcotest.(check (list int)) "getters agree"
    [ s.net_messages; s.queue_ns ]
    [ M.net_messages (); M.queue_ns () ];
  let d = M.diff ~before:s ~after:(M.add s s) in
  Alcotest.(check bool) "add then diff round-trips" true (d = s);
  let printed = Format.asprintf "%a" M.pp s in
  Alcotest.(check bool) "pp names every field" true
    (List.for_all
       (fun needle ->
         let n = String.length needle and m = String.length printed in
         let rec scan i = i + n <= m && (String.sub printed i n = needle || scan (i + 1)) in
         scan 0)
       [ "cross_domain_calls=1"; "net_bytes=10"; "queue_ns=25"; "avail_degraded=29" ]);
  M.reset ()

let suite =
  [
    Alcotest.test_case "clock advances" `Quick test_clock_advances;
    Alcotest.test_case "clock rejects negative" `Quick test_clock_rejects_negative;
    Alcotest.test_case "pp_duration" `Quick test_pp_duration;
    Alcotest.test_case "with_model scopes" `Quick test_cost_model_with_model;
    Alcotest.test_case "with_model restores on exn" `Quick
      test_cost_model_restores_on_exn;
    Alcotest.test_case "metrics diff" `Quick test_metrics_diff;
    Alcotest.test_case "metrics reset" `Quick test_metrics_reset;
    Alcotest.test_case "metrics bump allocates nothing" `Quick
      test_metrics_bump_allocates_nothing;
    Alcotest.test_case "metrics snapshot is frozen" `Quick
      test_metrics_snapshot_is_frozen;
    Alcotest.test_case "metrics counters distinct" `Quick
      test_metrics_counters_distinct;
  ]
