(* Crash consistency: the write-ahead journal, the crash sweep, and
   qcheck properties over random workloads and crash points. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module D = Sp_blockdev.Disk
module DL = Sp_sfs.Disk_layer
module CS = Sp_sfs.Crash_sweep

(* --- journal basics --- *)

let test_journaled_mount_roundtrip () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"jrt" ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"jrt0" disk in
      Alcotest.(check bool) "journaled" true (DL.journaled fs);
      let f = S.create fs (Util.name "a") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "journaled data"));
      Alcotest.(check bool) "writes buffer before sync" true (DL.journal_pending fs >= 0);
      S.sync fs;
      Alcotest.(check int) "nothing pending after sync" 0 (DL.journal_pending fs);
      (match DL.journal_stats fs with
      | Some st -> Alcotest.(check bool) "committed" true (st.Sp_sfs.Journal.js_commits >= 1)
      | None -> Alcotest.fail "journal stats missing");
      Alcotest.(check int) "fsck clean" 0 (List.length (Sp_sfs.Fsck.check disk));
      let fs2 = DL.mount ~name:"jrt1" disk in
      Util.check_str "data after remount" "journaled data"
        (F.read_all (S.open_file fs2 (Util.name "a"))))

let test_unjournaled_volume_unchanged () =
  Util.in_world (fun () ->
      (* Default mkfs stays journal-free and the superblock says so. *)
      let disk = Util.fresh_disk ~blocks:256 ~label:"nojl" () in
      let fs = DL.mount ~name:"nojl0" disk in
      Alcotest.(check bool) "not journaled" false (DL.journaled fs);
      Alcotest.(check bool) "no stats" true (DL.journal_stats fs = None);
      Alcotest.(check int) "recover is a no-op" 0 (DL.recover disk))

let test_crash_mid_commit_recovers () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"jmc" ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"jmc0" disk in
      let f = S.create fs (Util.name "a") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "SURVIVES"));
      S.sync fs;
      ignore (F.write f ~pos:0 (Util.bytes_of_string "never-synced"));
      (* Crash on the second device write of the next commit. *)
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"disk.write" ~label:"jmc" ~after:1 ~count:1
              Sp_fault.Fail_stop ]
      in
      (try Sp_fault.with_plan plan (fun () -> S.sync fs)
       with Sp_fault.Crash _ -> ());
      let replayed = DL.recover disk in
      Alcotest.(check bool) "recover ran" true (replayed >= 0);
      Alcotest.(check int) "fsck clean after crash" 0
        (List.length (Sp_sfs.Fsck.check disk));
      let fs2 = DL.mount ~name:"jmc1" disk in
      let got = Bytes.to_string (F.read_all (S.open_file fs2 (Util.name "a"))) in
      Alcotest.(check bool) "a consistent cut survived" true
        (got = "SURVIVES" || got = "never-synced"))

(* --- the sweep --- *)

let test_journaled_sweep_survives () =
  Util.in_world (fun () ->
      let r = Sp_sweep.run ~stride:3 (CS.scenario ~journal:true ~ops:14 ~seed:11 ()) in
      Alcotest.(check bool) "swept something" true (r.Sp_sweep.points > 5);
      Alcotest.(check int) "no synced write lost" 0 (Sp_sweep.count r "lost");
      Alcotest.(check int) "no corruption" 0 (Sp_sweep.count r "corrupt");
      Alcotest.(check int) "all survived" r.Sp_sweep.points (Sp_sweep.count r "survived"))

let test_torn_journaled_sweep_survives () =
  Util.in_world (fun () ->
      let r = Sp_sweep.run ~stride:5 (CS.scenario ~torn:true ~journal:true ~ops:14 ~seed:11 ()) in
      Alcotest.(check int) "torn commits recovered everywhere" r.Sp_sweep.points
        (Sp_sweep.count r "survived"))

let test_unjournaled_sweep_finds_damage () =
  Util.in_world (fun () ->
      let r = Sp_sweep.run ~stride:1 (CS.scenario ~journal:false ~ops:20 ~seed:11 ()) in
      Alcotest.(check bool) "sweep demonstrates inconsistency without a journal" true
        (Sp_sweep.failures r >= 1);
      Alcotest.(check bool) "and reports where" true (r.Sp_sweep.first_failure <> None))

let test_torn_unjournaled_checksums_detect () =
  (* A torn write on an unjournaled volume can shear a block in a way the
     structural fsck cannot see.  With checksums on, every such point must
     come back Detected (or honestly Lost/Corrupt) — never a clean
     Survived serving sheared bytes as good data. *)
  Util.in_world (fun () ->
      let r = Sp_sweep.run ~stride:2 (CS.scenario ~torn:true ~journal:false ~ops:20 ~seed:11 ()) in
      Alcotest.(check bool) "checksums positively detect torn writes" true
        (Sp_sweep.count r "detected" >= 1))

let test_sweep_deterministic () =
  Util.in_world (fun () ->
      let run () = Sp_sweep.run ~stride:2 (CS.scenario ~journal:false ~ops:16 ~seed:23 ()) in
      let a = run () and b = run () in
      Alcotest.(check bool) "identical seed, identical report" true (a = b))

let qcheck_random_crash_point_survives =
  let gen = QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 10_000)) in
  Util.qcheck_case ~count:15 "journal survives a random crash in a random workload" gen
    (fun (seed, point) ->
      Util.in_world (fun () ->
          let ops = 8 + (seed mod 5) in
          let writes = CS.workload_writes ~journal:true ~ops ~seed () in
          let crash_at = 1 + (point mod max 1 writes) in
          CS.run_point ~journal:true ~ops ~seed ~crash_at () = CS.Survived))

(* --- concurrent clients --- *)

let test_concurrent_sweep_survives () =
  Util.in_world (fun () ->
      let r = Sp_sweep.run ~stride:11 (CS.scenario ~clients:8 ~journal:true ~ops:4 ~seed:7 ()) in
      Alcotest.(check string) "eight clients" "8" (Sp_sweep.param r "clients");
      Alcotest.(check bool) "swept some points" true (r.Sp_sweep.points >= 5);
      Alcotest.(check int) "nothing lost" 0 (Sp_sweep.count r "lost");
      Alcotest.(check int) "nothing corrupt" 0 (Sp_sweep.count r "corrupt");
      Alcotest.(check int) "nothing merely detected" 0 (Sp_sweep.count r "detected");
      Alcotest.(check int) "all survived" r.Sp_sweep.points (Sp_sweep.count r "survived"))

let qcheck_concurrent_crash_point_survives =
  let gen = QCheck2.Gen.(pair (int_range 1 10_000) (int_range 0 10_000)) in
  Util.qcheck_case ~count:8
    "journal survives a random crash under concurrent clients" gen
    (fun (seed, point) ->
      Util.in_world (fun () ->
          let clients = 2 + (seed mod 5) in
          let writes =
            CS.workload_writes ~clients ~journal:true ~ops:4 ~seed ()
          in
          let crash_at = 1 + (point mod max 1 writes) in
          CS.run_point ~clients ~journal:true ~ops:4 ~seed ~crash_at ()
          = CS.Survived))

(* --- journal replay idempotency --- *)

let image disk =
  List.init (D.block_count disk) (fun i -> Bytes.to_string (D.read disk i))

let test_recover_idempotent () =
  (* Replaying the journal of a crashed image must be idempotent: a
     second [recover] on the already-recovered image changes nothing. *)
  Util.in_world (fun () ->
      let disk = D.create ~label:"idem.dev" ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"idem.fs" disk in
      let f = S.create fs (Util.name "a") in
      for i = 0 to 7 do
        ignore (F.write f ~pos:(i * 4096) (Bytes.make 4096 (Char.chr (97 + i))))
      done;
      (* Crash at the first home write of the sealed commit: the journal
         holds a full committed transaction awaiting replay. *)
      let plan =
        Sp_fault.plan
          [
            Sp_fault.rule ~point:"disk.write" ~label:"idem.dev" ~after:10
              ~count:1 Sp_fault.Fail_stop;
          ]
      in
      (try Sp_fault.with_plan plan (fun () -> S.sync fs)
       with Sp_fault.Crash _ -> ());
      let replayed1 = DL.recover disk in
      let after_first = image disk in
      let replayed2 = DL.recover disk in
      let after_second = image disk in
      Alcotest.(check bool) "first recover replays" true (replayed1 >= 0);
      Alcotest.(check int) "second recover finds a clean journal" 0 replayed2;
      Alcotest.(check bool) "images byte-identical" true
        (List.for_all2 String.equal after_first after_second);
      Alcotest.(check int) "fsck clean after double recovery" 0
        (List.length (Sp_sfs.Fsck.check disk)))

(* --- bitmap round-trip properties --- *)

let qcheck_bitmap_matches_model =
  let gen = QCheck2.Gen.(list_size (int_range 1 120) (pair bool (int_range 0 199))) in
  Util.qcheck_case ~count:50 "bitmap set/clear/find_free matches a bool-array model" gen
    (fun ops ->
      Util.in_world (fun () ->
          let disk = D.create ~blocks:8 () in
          let bits = 200 in
          let bm = Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk) ~start:1 ~blocks:2 ~bits in
          let model = Array.make bits false in
          List.iter
            (fun (set, i) ->
              if set then Sp_sfs.Bitmap.set bm i else Sp_sfs.Bitmap.clear bm i;
              model.(i) <- set)
            ops;
          let model_used = Array.fold_left (fun n b -> if b then n + 1 else n) 0 model in
          let model_free =
            let rec go i = if i >= bits then None else if model.(i) then go (i + 1) else Some i in
            go 0
          in
          Sp_sfs.Bitmap.used bm = model_used
          && Sp_sfs.Bitmap.find_free bm = model_free
          && Array.for_all (fun x -> x)
               (Array.init bits (fun i -> Sp_sfs.Bitmap.is_set bm i = model.(i)))
          &&
          (* Survives a flush + reload from the device. *)
          (Sp_sfs.Bitmap.flush bm;
           let bm2 = Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk) ~start:1 ~blocks:2 ~bits in
           Array.for_all (fun x -> x)
             (Array.init bits (fun i -> Sp_sfs.Bitmap.is_set bm2 i = model.(i))))))

let suite =
  [
    Alcotest.test_case "journaled mount roundtrip" `Quick test_journaled_mount_roundtrip;
    Alcotest.test_case "unjournaled volume unchanged" `Quick
      test_unjournaled_volume_unchanged;
    Alcotest.test_case "crash mid-commit recovers" `Quick test_crash_mid_commit_recovers;
    Alcotest.test_case "journaled sweep survives" `Slow test_journaled_sweep_survives;
    Alcotest.test_case "torn journaled sweep survives" `Slow
      test_torn_journaled_sweep_survives;
    Alcotest.test_case "unjournaled sweep finds damage" `Slow
      test_unjournaled_sweep_finds_damage;
    Alcotest.test_case "torn unjournaled sweep: checksums detect" `Slow
      test_torn_unjournaled_checksums_detect;
    Alcotest.test_case "sweep deterministic" `Slow test_sweep_deterministic;
    Alcotest.test_case "concurrent sweep survives" `Slow
      test_concurrent_sweep_survives;
    Alcotest.test_case "journal replay idempotent" `Quick test_recover_idempotent;
    qcheck_random_crash_point_survives;
    qcheck_concurrent_crash_point_survives;
    qcheck_bitmap_matches_model;
  ]
