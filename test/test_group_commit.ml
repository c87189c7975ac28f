(* Journal group commit: the clean-volume sync fast path, leader/follower
   absorption under concurrent syncs, the group_commit:false control, and
   the qcheck equivalence of both modes on a single client. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module D = Sp_blockdev.Disk
module DL = Sp_sfs.Disk_layer
module CS = Sp_sfs.Crash_sweep
module Rng = Sp_fault.Rng

(* A fast model whose only nonzero cost is the commit-delay window, so
   the leader suspends and concurrent syncs get a window to pile into
   while everything else stays zero-cost and count-deterministic. *)
let delay_model =
  { Util.fast_model with Sp_sim.Cost_model.commit_delay_ns = 20_000 }

let jstats fs =
  match DL.journal_stats fs with
  | Some st -> st
  | None -> Alcotest.fail "journal stats missing"

(* --- clean-volume sync fast path --- *)

let test_clean_sync_zero_io () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"gcfp" ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"gcfp0" disk in
      let f = S.create fs (Util.name "a") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "dirty"));
      S.sync fs;
      let commits = (jstats fs).Sp_sfs.Journal.js_commits in
      let st = D.stats disk in
      (* Nothing is dirty: sync must return without touching the device
         or writing another transaction. *)
      S.sync fs;
      S.sync fs;
      Alcotest.(check int) "no reads on clean sync" st.D.reads (D.stats disk).D.reads;
      Alcotest.(check int) "no writes on clean sync" st.D.writes (D.stats disk).D.writes;
      Alcotest.(check int) "no new commits" commits
        (jstats fs).Sp_sfs.Journal.js_commits)

(* --- concurrent absorption --- *)

let clients = 4

let concurrent_syncs ~group_commit ~label () =
  let disk = D.create ~label ~blocks:512 () in
  DL.mkfs ~journal:true disk;
  let fs = DL.mount ~group_commit ~name:(label ^ "0") disk in
  let files =
    List.init clients (fun k -> S.create fs (Util.name (Printf.sprintf "f%d" k)))
  in
  S.sync fs;
  let task k f () =
    ignore (F.write f ~pos:0 (Util.pattern_bytes ~seed:(k + 1) 256));
    S.sync fs
  in
  ignore (Sp_sched.run ~seed:3 (List.mapi task files));
  (disk, fs)

let test_group_commit_absorbs () =
  Util.in_world ~model:delay_model (fun () ->
      let disk, fs = concurrent_syncs ~group_commit:true ~label:"gcab" () in
      let st = jstats fs in
      Alcotest.(check bool) "a leader ran" true
        (st.Sp_sfs.Journal.js_group_commits >= 1);
      (* The first sync becomes leader and sleeps through the window; the
         other three arrive before the seal and park. *)
      Alcotest.(check int) "followers absorbed" (clients - 1)
        st.Sp_sfs.Journal.js_absorbed_syncs;
      Alcotest.(check int) "nothing left pending" 0 (DL.journal_pending fs);
      (* Every follower's write is covered by the sealed commit. *)
      let fs2 = DL.mount ~name:"gcab1" disk in
      List.iteri
        (fun k f ->
          ignore f;
          Util.check_bytes
            (Printf.sprintf "f%d durable" k)
            (Util.pattern_bytes ~seed:(k + 1) 256)
            (F.read_all
               (S.open_file fs2 (Util.name (Printf.sprintf "f%d" k)))))
        (List.init clients Fun.id))

let test_no_group_commit_control () =
  Util.in_world ~model:delay_model (fun () ->
      let _disk, fs = concurrent_syncs ~group_commit:false ~label:"gcct" () in
      let st = jstats fs in
      Alcotest.(check int) "no leaders" 0 st.Sp_sfs.Journal.js_group_commits;
      Alcotest.(check int) "no absorbed syncs" 0
        st.Sp_sfs.Journal.js_absorbed_syncs;
      (* The first task's sync flushes everything dirty so far; later
         syncs may legally find the volume clean (the fast path is
         independent of group commit).  What the control must show is
         that no window ever formed — counted above — and that at least
         the population sync and one task sync committed. *)
      Alcotest.(check bool) "dirty syncs still commit" true
        (st.Sp_sfs.Journal.js_commits >= 2))

(* --- single-client equivalence (qcheck) --- *)

let image disk =
  List.init (D.block_count disk) (fun i -> Bytes.to_string (D.read disk i))

(* The same seeded script, group commit on vs off, one client: with
   nobody to batch with, the leader path must reduce to exactly the
   direct path — identical device writes, byte-identical volumes. *)
let run_script ~group_commit seed nops =
  Util.in_world (fun () ->
      let label = Printf.sprintf "gceq%c%d" (if group_commit then 'y' else 'n') seed in
      let disk = D.create ~label ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~group_commit ~name:(label ^ "0") disk in
      let exists = Hashtbl.create 4 in
      let task () =
        let rng = Rng.create seed in
        for _ = 1 to nops do
          let n = Printf.sprintf "f%d" (Rng.int rng 3) in
          match Rng.int rng 6 with
          | 0 -> S.sync fs
          | 1 ->
              if Hashtbl.mem exists n then begin
                S.remove fs (Util.name n);
                Hashtbl.remove exists n
              end
          | _ ->
              let f =
                if Hashtbl.mem exists n then S.open_file fs (Util.name n)
                else begin
                  Hashtbl.replace exists n ();
                  S.create fs (Util.name n)
                end
              in
              ignore
                (F.write f ~pos:(Rng.int rng 4096)
                   (Util.pattern_bytes ~seed:(Rng.int rng 1000) (1 + Rng.int rng 512)))
        done;
        S.sync fs
      in
      ignore (Sp_sched.run ~seed [ task ]);
      image disk)

let qcheck_single_client_equivalence =
  let gen = QCheck2.Gen.(pair (int_range 1 10_000) (int_range 4 24)) in
  Util.qcheck_case ~count:12
    "group commit on vs off is byte-identical for one client" gen
    (fun (seed, nops) ->
      run_script ~group_commit:true seed nops
      = run_script ~group_commit:false seed nops)

(* --- crash points inside leader/follower windows --- *)

let test_sync_heavy_concurrent_sweep () =
  Util.in_world ~model:delay_model (fun () ->
      let r =
        Sp_sweep.run ~stride:7
          (CS.scenario ~clients:3 ~sync_heavy:true ~journal:true ~ops:4 ~seed:11 ())
      in
      Alcotest.(check string) "sync-heavy" "on" (Sp_sweep.param r "sync-heavy");
      Alcotest.(check bool) "swept some points" true (r.Sp_sweep.points >= 5);
      Alcotest.(check int) "nothing lost" 0 (Sp_sweep.count r "lost");
      Alcotest.(check int) "nothing corrupt" 0 (Sp_sweep.count r "corrupt");
      Alcotest.(check int) "nothing merely detected" 0 (Sp_sweep.count r "detected");
      Alcotest.(check int) "all survived" r.Sp_sweep.points (Sp_sweep.count r "survived"))

(* --- on-disk bytes pinned across group commits --- *)

(* [clients] clients of 1 KiB writes on a checksummed journaled volume,
   a sync after every second op; each client's last op writes a whole
   block.  Under [delay_model] the syncs pile into leader windows, and
   every batch carries its checksum-region block. *)
let pinned_workload label =
  let disk = D.create ~label ~blocks:512 () in
  DL.mkfs ~journal:true disk;
  let fs = DL.mount ~name:(label ^ "0") disk in
  let files =
    List.init clients (fun k -> S.create fs (Util.name (Printf.sprintf "p%d" k)))
  in
  S.sync fs;
  let task k f () =
    for i = 0 to 7 do
      let pos, len = if i = 7 then (2 * D.block_size, D.block_size) else (i * 1024, 1024) in
      ignore (F.write f ~pos (Util.pattern_bytes ~seed:((k * 8) + i + 1) len));
      if i mod 2 = 1 then S.sync fs
    done
  in
  ignore (Sp_sched.run ~seed:5 (List.mapi task files));
  (disk, fs)

let test_pinned_disk_bytes () =
  Util.in_world ~model:delay_model (fun () ->
      let disk, fs = pinned_workload "pin" in
      let st = jstats fs in
      Alcotest.(check bool) "syncs absorbed into leader windows" true
        (st.Sp_sfs.Journal.js_absorbed_syncs >= 1);
      Alcotest.(check int) "commits" 5 st.Sp_sfs.Journal.js_commits;
      Alcotest.(check int) "journal writes" 46 st.Sp_sfs.Journal.js_journal_writes;
      Alcotest.(check int) "raw device digest" 0xf9629f5f (Util.device_digest disk);
      Alcotest.(check int) "fsck clean" 0
        (List.length (Sp_sfs.Fsck.check ~verify_checksums:true disk)))

(* Re-dirty the pinned volume, then crash its next sync on device write
   [after + 1]: [Some count] when the crash left a sealed header holding
   [count] entries. *)
let crash_sync label ~after =
  let disk, fs = pinned_workload label in
  List.init clients Fun.id
  |> List.iter (fun k ->
         let f = S.open_file fs (Util.name (Printf.sprintf "p%d" k)) in
         ignore (F.write f ~pos:(k * 1024) (Util.pattern_bytes ~seed:(k + 50) 1024)));
  let plan =
    Sp_fault.plan
      [ Sp_fault.rule ~point:"disk.write" ~label ~after ~count:1 Sp_fault.Fail_stop ]
  in
  (match Sp_fault.with_plan plan (fun () -> Sp_sched.run [ (fun () -> S.sync fs) ]) with
  | _ -> Alcotest.fail "the sync finished before the crash point"
  | exception Sp_fault.Crash _ -> ());
  let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
  let header = D.read disk layout.Sp_sfs.Layout.journal_start in
  let sealed = Bytes.get_int32_le header 4 = 1l in
  (disk, if sealed then Some (Int32.to_int (Bytes.get_int32_le header 16)) else None)

(* The first crash point that leaves a sealed header is the write right
   after the seal.  Replay verifies every journalled block against the
   header's entries — the sums recorded at commit — so remounting must
   copy the whole batch home, region block included. *)
let test_crash_after_seal_replays_batch () =
  Util.in_world ~model:delay_model (fun () ->
      let rec first_sealed after =
        if after > 64 then Alcotest.fail "no crash point left a sealed header"
        else
          match crash_sync (Printf.sprintf "seal%d" after) ~after with
          | disk, Some count -> (disk, count)
          | _, None -> first_sealed (after + 1)
      in
      let disk, count = first_sealed 0 in
      Alcotest.(check int) "entries in the sealed batch" 6 count;
      let fs = DL.mount ~name:"seal-remount" disk in
      Alcotest.(check int) "replayed the batch's entries" count
        (jstats fs).Sp_sfs.Journal.js_replayed;
      Alcotest.(check int) "fsck with checksums clean" 0
        (List.length (Sp_sfs.Fsck.check ~verify_checksums:true disk));
      List.iter
        (fun k ->
          let got = F.read_all (S.open_file fs (Util.name (Printf.sprintf "p%d" k))) in
          Util.check_bytes
            (Printf.sprintf "p%d re-dirtied range" k)
            (Util.pattern_bytes ~seed:(k + 50) 1024)
            (Bytes.sub got (k * 1024) 1024))
        (List.init clients Fun.id))

(* --- indexed-directory churn under group commit --- *)

(* Read-only index I/O over the raw device for the root-level directory
   [dir]: its inode's direct and single-indirect blocks, holes as
   zeros. *)
let raw_dir_io disk dir =
  let module L = Sp_sfs.Layout in
  let layout = L.decode_superblock (D.read disk 0) in
  let inode ino =
    let block = D.read disk (layout.L.inode_table_start + (ino / L.inodes_per_block)) in
    Sp_sfs.Inode.decode (Bytes.sub block (ino mod L.inodes_per_block * L.inode_size) L.inode_size)
  in
  let root = inode 0 in
  let root_block = D.read disk root.Sp_sfs.Inode.direct.(0) in
  let rec find off =
    if off >= D.block_size then Alcotest.failf "no %s in the root directory" dir
    else
      match Sp_dir.Entry.decode root_block off with
      | Some e when e.Sp_dir.Entry.name = dir -> e.Sp_dir.Entry.ino
      | _ -> find (off + Sp_dir.Entry.entry_size)
  in
  let d = inode (find 0) in
  let file_block fb =
    if fb < L.n_direct then d.Sp_sfs.Inode.direct.(fb)
    else if d.Sp_sfs.Inode.indirect = 0 then 0
    else
      let table = D.read disk d.Sp_sfs.Inode.indirect in
      Int32.to_int (Bytes.get_int32_le table ((fb - L.n_direct) * 4))
  in
  {
    Sp_dir.Index.read =
      (fun fb ->
        match file_block fb with 0 -> Bytes.make D.block_size '\000' | b -> D.read disk b);
    write = (fun _ _ -> Alcotest.fail "raw_dir_io is read-only");
  }

(* Eight clients create, remove and sync their own names in one indexed
   directory of a checksummed journaled volume.  Creates and removes
   patch the same cached root and leaf blocks the journal holds for the
   next commit, so the pinned bytes show that those buffers commit
   exactly what the mutations left in them. *)
let test_indexed_churn () =
  Util.in_world ~model:delay_model (fun () ->
      let disk = D.create ~label:"churn" ~blocks:1024 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"churn0" disk in
      S.mkdir fs (Util.name "d");
      let base = List.init 140 (Printf.sprintf "b%03d") in
      List.iter (fun n -> ignore (S.create fs (Util.name ("d/" ^ n)))) base;
      S.sync fs;
      let live = Array.make 8 [] in
      let task k () =
        for i = 0 to 11 do
          let n = Printf.sprintf "c%dx%02d" k i in
          ignore (S.create fs (Util.name ("d/" ^ n)));
          live.(k) <- live.(k) @ [ n ];
          if i mod 3 = 2 then begin
            S.remove fs (Util.name ("d/" ^ List.hd live.(k)));
            live.(k) <- List.tl live.(k)
          end;
          if i mod 2 = 1 then S.sync fs
        done;
        S.sync fs
      in
      ignore (Sp_sched.run ~seed:5 (List.init 8 task));
      let st = jstats fs and digest = Util.device_digest disk in
      let model = List.sort compare (base @ List.concat (Array.to_list live)) in
      let listing fs = List.sort compare (S.listdir fs (Util.name "d")) in
      Alcotest.(check (list string)) "listing matches the model" model (listing fs);
      Alcotest.(check (list string)) "cold remount agrees" model
        (listing (DL.mount ~name:"churn1" disk));
      Alcotest.(check int) "fsck with checksums clean" 0
        (List.length (Sp_sfs.Fsck.check ~verify_checksums:true disk));
      let io = raw_dir_io disk "d" in
      Alcotest.(check bool) "directory is indexed" true
        (Sp_dir.Index.is_index_root (io.Sp_dir.Index.read 0));
      Alcotest.(check bool) "index check clean" true
        (Sp_dir.Index.check io = Sp_dir.Index.clean_report);
      Alcotest.(check bool) "syncs absorbed into leader windows" true
        (st.Sp_sfs.Journal.js_absorbed_syncs >= 1);
      Alcotest.(check int) "commits" 7 st.Sp_sfs.Journal.js_commits;
      Alcotest.(check int) "journal writes" 161 st.Sp_sfs.Journal.js_journal_writes;
      Alcotest.(check int) "raw device digest" 0x611b3ebc digest)

let suite =
  [
    Alcotest.test_case "clean-volume sync charges no device I/O" `Quick
      test_clean_sync_zero_io;
    Alcotest.test_case "concurrent syncs absorb into one leader commit" `Quick
      test_group_commit_absorbs;
    Alcotest.test_case "group_commit:false keeps one commit per sync" `Quick
      test_no_group_commit_control;
    qcheck_single_client_equivalence;
    Alcotest.test_case "pinned disk bytes under group commit" `Quick
      test_pinned_disk_bytes;
    Alcotest.test_case "crash after a sealed header replays the batch" `Quick
      test_crash_after_seal_replays_batch;
    Alcotest.test_case "indexed-directory churn under group commit" `Quick
      test_indexed_churn;
    Alcotest.test_case "sync-heavy concurrent crash sweep survives" `Slow
      test_sync_heavy_concurrent_sweep;
  ]
