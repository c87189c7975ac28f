(* Structural assertions behind Table 2 and Table 3: the benchmark harness
   prints the numbers; these tests pin the *shape* so regressions are
   caught by `dune runtest`. *)

module F = Sp_core.File
module S = Sp_core.Stackable

let ps = Sp_vm.Vm_types.page_size

type config = { fs : S.t; label : string }

let make_config kind =
  let vmm = Sp_vm.Vmm.create ~node:"local" ("vmm-" ^ kind) in
  let disk = Util.fresh_disk ~blocks:2048 () in
  let fs =
    match kind with
    | "mono" -> Sp_coherency.Spring_sfs.make_mono ~vmm ~name:("sfs-" ^ kind) disk
    | "same" ->
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:("sfs-" ^ kind)
          ~same_domain:true disk
    | _ ->
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:("sfs-" ^ kind)
          ~same_domain:false disk
  in
  { fs; label = kind }

(* Simulated time for one warm operation. *)
let time_one f =
  let t0 = Sp_sim.Simclock.now () in
  f ();
  Sp_sim.Simclock.now () - t0

let setup_file cfg =
  let f = S.create cfg.fs (Util.name "bench") in
  ignore (F.write f ~pos:0 (Util.pattern_bytes ps));
  (* Warm every path. *)
  ignore (S.open_file cfg.fs (Util.name "bench"));
  ignore (F.read f ~pos:0 ~len:ps);
  ignore (F.stat f);
  f

let test_open_overheads () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let open_time cfg =
        let _ = setup_file cfg in
        time_one (fun () -> ignore (S.open_file cfg.fs (Util.name "bench")))
      in
      let mono = open_time (make_config "mono") in
      let same = open_time (make_config "same") in
      let split = open_time (make_config "split") in
      let ratio a b = float_of_int a /. float_of_int b in
      (* Paper: +39% for one domain, +101% for two domains. *)
      Alcotest.(check bool)
        (Printf.sprintf "same-domain open overhead moderate (%.2fx)" (ratio same mono))
        true
        (ratio same mono > 1.15 && ratio same mono < 1.8);
      Alcotest.(check bool)
        (Printf.sprintf "two-domain open overhead large (%.2fx)" (ratio split mono))
        true
        (ratio split mono > 1.6 && ratio split mono < 2.6);
      Alcotest.(check bool) "two domains slower than one" true (split > same))

let test_cached_ops_no_stacking_overhead () =
  (* "when the coherency layer caches the results of read, write, and stat
     calls, there is no overhead from stacking" *)
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let measure cfg =
        let f = setup_file cfg in
        let read = time_one (fun () -> ignore (F.read f ~pos:0 ~len:ps)) in
        let write =
          time_one (fun () -> ignore (F.write f ~pos:0 (Util.pattern_bytes ps)))
        in
        let stat = time_one (fun () -> ignore (F.stat f)) in
        (read, write, stat)
      in
      let r1, w1, s1 = measure (make_config "mono") in
      let r2, w2, s2 = measure (make_config "same") in
      let r3, w3, s3 = measure (make_config "split") in
      let close a b =
        let fa = float_of_int a and fb = float_of_int b in
        Float.abs (fa -. fb) /. Float.max fa fb < 0.05
      in
      Alcotest.(check bool) "cached read identical across configs" true
        (close r1 r2 && close r2 r3);
      Alcotest.(check bool) "cached write identical across configs" true
        (close w1 w2 && close w2 w3);
      Alcotest.(check bool) "cached stat identical across configs" true
        (close s1 s2 && close s2 s3);
      (* And in the right ballpark: ~0.1-0.3 ms for 4KB cached IO. *)
      Alcotest.(check bool) "cached 4KB read ~0.1-0.4ms" true
        (r1 > 50_000 && r1 < 400_000))

let test_uncached_ops_disk_bound () =
  (* "without caching by the coherency layer ... the disk overhead is much
     higher than the cross domain call overhead" *)
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let measure cfg =
        let f = setup_file cfg in
        S.sync cfg.fs;
        S.drop_caches cfg.fs;
        time_one (fun () -> ignore (F.read f ~pos:0 ~len:ps))
      in
      let mono = measure (make_config "mono") in
      let split = measure (make_config "split") in
      Alcotest.(check bool) "uncached read is disk-bound (>5ms)" true
        (mono > 5_000_000);
      let ratio = float_of_int split /. float_of_int mono in
      Alcotest.(check bool)
        (Printf.sprintf "stacking overhead insignificant when disk-bound (%.3fx)"
           ratio)
        true
        (ratio < 1.1))

let test_spring_vs_sunos_ratios () =
  (* Table 3: Spring is 2-7x slower than SunOS on warm operations. *)
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      (* SunOS side. *)
      let disk = Sp_blockdev.Disk.create ~blocks:2048 () in
      let ufs = Sp_baseline.Unixfs.mkfs_and_mount disk in
      let fd = Sp_baseline.Unixfs.creat ufs "bench" in
      ignore (Sp_baseline.Unixfs.write ufs fd ~pos:0 (Util.pattern_bytes ps));
      ignore (Sp_baseline.Unixfs.openf ufs "bench");
      ignore (Sp_baseline.Unixfs.read ufs fd ~pos:0 ~len:ps);
      ignore (Sp_baseline.Unixfs.fstat ufs fd);
      let u_open = time_one (fun () -> ignore (Sp_baseline.Unixfs.openf ufs "bench")) in
      let u_read =
        time_one (fun () -> ignore (Sp_baseline.Unixfs.read ufs fd ~pos:0 ~len:ps))
      in
      let u_stat = time_one (fun () -> ignore (Sp_baseline.Unixfs.fstat ufs fd)) in
      (* Spring side (production config: split domains). *)
      let cfg = make_config "split" in
      let f = setup_file cfg in
      let s_open = time_one (fun () -> ignore (S.open_file cfg.fs (Util.name "bench"))) in
      let s_read = time_one (fun () -> ignore (F.read f ~pos:0 ~len:ps)) in
      let s_stat = time_one (fun () -> ignore (F.stat f)) in
      let in_band what lo spring unix =
        let r = float_of_int spring /. float_of_int unix in
        Alcotest.(check bool)
          (Printf.sprintf "%s: spring/sunos ratio %.1fx in [%.1f, 8]" what r lo)
          true
          (r >= lo && r <= 8.0)
      in
      in_band "open" 1.5 s_open u_open;
      (* The bulk path hands cached data across the door by reference, so a
         warm read costs barely more than the monolithic baseline (the
         paper's 0.16 vs 0.11 ms is a 1.45x; ours lands nearer 1.1x). *)
      in_band "read" 1.0 s_read u_read;
      in_band "stat" 1.5 s_stat u_stat;
      (* Absolute SunOS magnitudes match Table 3's order. *)
      Alcotest.(check bool) "sunos open ~127us" true
        (u_open > 60_000 && u_open < 250_000);
      Alcotest.(check bool) "sunos fstat ~28us" true
        (u_stat > 10_000 && u_stat < 60_000))

let test_name_cache_removes_open_overhead () =
  (* §6.4: "name caching can be used to eliminate the [domain-crossing
     open] overhead". *)
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let cfg = make_config "split" in
      let _ = setup_file cfg in
      let plain = time_one (fun () -> ignore (S.open_file cfg.fs (Util.name "bench"))) in
      let cache = Sp_naming.Name_cache.create ~capacity:64 () in
      ignore (S.open_file_cached cache cfg.fs (Util.name "bench"));
      let cached =
        time_one (fun () -> ignore (S.open_file_cached cache cfg.fs (Util.name "bench")))
      in
      Alcotest.(check bool)
        (Printf.sprintf "cached open (%.0fus) << plain open (%.0fus)"
           (float_of_int cached /. 1e3)
           (float_of_int plain /. 1e3))
        true
        (cached * 4 < plain))

let test_macro_claim () =
  (* §6.4: the open overhead "will not be significant for real
     applications". *)
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let results = Sp_benchlib.Macro.run () in
      match results with
      | [ mono; _one; two ] ->
          let overhead =
            float_of_int two.Sp_benchlib.Macro.total_ns
            /. float_of_int mono.Sp_benchlib.Macro.total_ns
          in
          Alcotest.(check bool)
            (Printf.sprintf "macro overhead small (%.2fx < 1.25x)" overhead)
            true (overhead < 1.25)
      | _ -> Alcotest.fail "expected three configurations")

(* --- the perf guard ---

   BENCH_10.json's rows are simulated, so [--check-perf] compares them
   exactly: any move, either way, fails, and so does a row present on one
   side only. *)

module PJ = Sp_benchlib.Perf_json

let guard_rows =
  [
    { PJ.table = "table2"; label = "open, two domains"; ns = 386000 };
    { PJ.table = "availability"; label = "64 clients, ops served"; ns = 1024 };
    { PJ.table = "namespace"; label = "a \"quoted\"\tlabel \\"; ns = 7 };
  ]

let with_ns label ns =
  List.map (fun (r : PJ.row) -> if r.label = label then { r with ns } else r) guard_rows

let test_perf_rows_round_trip () =
  Alcotest.(check bool) "parse (to_string rows) = rows" true
    (PJ.parse (PJ.to_string guard_rows) = guard_rows);
  Alcotest.(check bool) "a run equal to its baseline passes" true
    (PJ.check ~baseline:guard_rows ~fresh:guard_rows = [])

let test_perf_guard_exact () =
  let verdict name fresh want =
    Alcotest.(check bool) name true (PJ.check ~baseline:guard_rows ~fresh = want)
  in
  let served = with_ns "64 clients, ops served" 819 in
  verdict "a 20% drop in ops served fails" served [ PJ.Changed (List.nth served 1, 1024) ];
  let opened = with_ns "open, two domains" 386001 in
  verdict "a 1 ns move fails" opened [ PJ.Changed (List.hd opened, 386000) ];
  verdict "a baseline row the run lacks fails" (List.tl guard_rows)
    [ PJ.Missing (List.hd guard_rows) ];
  let extra = { PJ.table = "scale"; label = "new row"; ns = 1 } in
  verdict "a run row the baseline lacks fails" (guard_rows @ [ extra ]) [ PJ.Added extra ]

(* --- profiling the tables ---

   [springfs profile tables] traces each table under its own root, opened
   after the table's world reset.  A reset inside an open root restarts
   the clock and the counters under it, and the root row reads negative
   counts.  Two tables, so a reset falls between them. *)

let test_tables_trace_per_root () =
  let null = Format.make_formatter (fun _ _ _ -> ()) ignore in
  Sp_benchlib.Tables.iter [ "table2"; "table3" ] (fun name print ->
      let (), trace = Sp_trace.with_tracing ~root:name (fun () -> print null) in
      let root =
        List.find (fun sp -> sp.Sp_trace.sp_id = trace.Sp_trace.tr_root) trace.tr_spans
      in
      let m = root.sp_self_metrics in
      List.iter
        (fun (what, n) ->
          Alcotest.(check bool) (Printf.sprintf "%s: root %s >= 0" name what) true (n >= 0))
        [
          ("crossings", m.cross_domain_calls);
          ("local calls", m.local_calls);
          ("kernel calls", m.kernel_calls);
          ("disk reads", m.disk_reads);
          ("disk writes", m.disk_writes);
        ];
      Alcotest.(check int) (name ^ ": root starts at the reset") 0 root.sp_start;
      Alcotest.(check int) (name ^ ": no span dropped") 0 trace.tr_dropped;
      Alcotest.(check int)
        (name ^ ": self times sum to the total")
        trace.tr_total_ns
        (List.fold_left (fun acc sp -> acc + sp.Sp_trace.sp_self_ns) 0 trace.tr_spans))

let suite =
  [
    Alcotest.test_case "table2: open overheads" `Quick test_open_overheads;
    Alcotest.test_case "table2: cached ops overhead-free" `Quick
      test_cached_ops_no_stacking_overhead;
    Alcotest.test_case "table2: uncached disk-bound" `Quick
      test_uncached_ops_disk_bound;
    Alcotest.test_case "table3: spring vs sunos ratios" `Quick
      test_spring_vs_sunos_ratios;
    Alcotest.test_case "6.4: name cache kills open overhead" `Quick
      test_name_cache_removes_open_overhead;
    Alcotest.test_case "6.4: macro workload overhead small" `Slow test_macro_claim;
    Alcotest.test_case "perf guard: rows round-trip" `Quick test_perf_rows_round_trip;
    Alcotest.test_case "perf guard: any move fails" `Quick test_perf_guard_exact;
    Alcotest.test_case "profile tables: one trace root per table" `Quick
      test_tables_trace_per_root;
  ]
