module F = Sp_core.File
module S = Sp_core.Stackable
module K = Sp_sfs.Fsck

let problems_str ps =
  String.concat "; " (List.map (Format.asprintf "%a" K.pp_problem) ps)

let check_clean what disk =
  let ps = K.check disk in
  Alcotest.(check string) what "" (problems_str ps)

let fresh_mounted ?(blocks = 2048) () =
  let disk = Util.fresh_disk ~blocks () in
  (disk, Sp_sfs.Disk_layer.mount ~name:"fsck-t" disk)

let test_empty_volume_clean () =
  Util.in_world (fun () ->
      let disk = Util.fresh_disk () in
      check_clean "freshly formatted volume" disk)

let test_clean_after_workload () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted () in
      S.mkdir fs (Util.name "a");
      S.mkdir fs (Util.name "a/b");
      let f1 = S.create fs (Util.name "a/file1") in
      ignore (F.write f1 ~pos:0 (Util.pattern_bytes 20_000));
      let f2 = S.create fs (Util.name "a/b/file2") in
      ignore (F.write f2 ~pos:0 (Util.pattern_bytes 100));
      (* A hard link and a removal, then a truncate. *)
      Sp_naming.Context.bind fs.S.sfs_ctx (Util.name "link1") (F.File f1);
      ignore (S.create fs (Util.name "doomed"));
      S.remove fs (Util.name "doomed");
      F.truncate f1 5_000;
      S.sync fs;
      check_clean "after workload + sync" disk)

let test_clean_after_random_workload () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted ~blocks:4096 () in
      let rng = ref 7 in
      let next bound =
        rng := ((!rng * 1103515245) + 12345) land 0x3fffffff;
        !rng mod bound
      in
      let live = ref [] in
      for i = 0 to 60 do
        match next 4 with
        | 0 ->
            let name = Printf.sprintf "r%d" i in
            let f = S.create fs (Util.name name) in
            ignore (F.write f ~pos:(next 3 * 4096) (Util.pattern_bytes (1 + next 9000)));
            live := name :: !live
        | 1 when !live <> [] ->
            let name = List.nth !live (next (List.length !live)) in
            S.remove fs (Util.name name);
            live := List.filter (fun n -> n <> name) !live
        | 2 when !live <> [] ->
            let name = List.nth !live (next (List.length !live)) in
            let f = S.open_file fs (Util.name name) in
            F.truncate f (next 5000)
        | _ when !live <> [] ->
            let name = List.nth !live (next (List.length !live)) in
            let f = S.open_file fs (Util.name name) in
            ignore (F.write f ~pos:(next 8000) (Util.pattern_bytes (1 + next 4000)))
        | _ -> ()
      done;
      S.sync fs;
      check_clean "after random workload" disk)

let test_clean_through_stack () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let disk = Util.fresh_disk ~blocks:4096 () in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"fsck-stack" ~same_domain:false
          disk
      in
      let comp = Sp_compfs.Compfs.make ~vmm ~name:"fsck-comp" () in
      S.stack_on comp sfs;
      let f = S.create comp (Util.name "doc") in
      ignore (F.write f ~pos:0 (Util.pattern_bytes 30_000));
      F.truncate f 9_999;
      S.sync comp;
      S.sync sfs;
      check_clean "below a compression stack" disk)

let corrupt_and_expect what disk mutate expect =
  mutate ();
  let ps = K.check disk in
  Alcotest.(check bool)
    (Printf.sprintf "%s detected (got: %s)" what (problems_str ps))
    true (List.exists expect ps)

let test_detects_bitmap_leak () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted () in
      ignore (S.create fs (Util.name "x"));
      S.sync fs;
      (* Mark a random free data block as allocated. *)
      let layout = Sp_sfs.Layout.compute ~checksums:true ~total_blocks:2048 () in
      let bb =
        Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk) ~start:layout.Sp_sfs.Layout.block_bitmap_start
          ~blocks:layout.Sp_sfs.Layout.block_bitmap_blocks ~bits:2048
      in
      corrupt_and_expect "leaked block" disk
        (fun () ->
          Sp_sfs.Bitmap.set bb 1500;
          Sp_sfs.Bitmap.flush bb)
        (function K.Block_leak 1500 -> true | _ -> false))

let test_detects_dangling_entry () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted () in
      ignore (S.create fs (Util.name "x"));
      S.sync fs;
      (* Free inode 1 in the bitmap while the root entry still names it. *)
      let layout = Sp_sfs.Layout.compute ~checksums:true ~total_blocks:2048 () in
      let ib =
        Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk) ~start:layout.Sp_sfs.Layout.inode_bitmap_start
          ~blocks:layout.Sp_sfs.Layout.inode_bitmap_blocks
          ~bits:layout.Sp_sfs.Layout.inode_count
      in
      corrupt_and_expect "dangling directory entry" disk
        (fun () ->
          Sp_sfs.Bitmap.clear ib 1;
          Sp_sfs.Bitmap.flush ib)
        (function K.Free_inode_referenced (1, "x") -> true | _ -> false))

let test_detects_bad_nlink () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted () in
      ignore (S.create fs (Util.name "x"));
      S.sync fs;
      (* Stamp a wrong link count straight into the inode table. *)
      let layout = Sp_sfs.Layout.compute ~checksums:true ~total_blocks:2048 () in
      corrupt_and_expect "bad link count" disk
        (fun () ->
          let tb = layout.Sp_sfs.Layout.inode_table_start in
          let block = Sp_blockdev.Disk.read disk tb in
          (* inode 1 lives at offset inode_size in the first table block *)
          Bytes.set_uint16_le block (Sp_sfs.Layout.inode_size + 2) 9;
          Sp_blockdev.Disk.write disk tb block)
        (function K.Bad_nlink (1, 1, 9) -> true | _ -> false))

let test_detects_unreachable_inode () =
  Util.in_world (fun () ->
      let disk, fs = fresh_mounted () in
      ignore (S.create fs (Util.name "orphan-to-be"));
      S.sync fs;
      (* Clobber the root directory entry without freeing the inode. *)
      let layout = Sp_sfs.Layout.compute ~checksums:true ~total_blocks:2048 () in
      corrupt_and_expect "unreachable inode" disk
        (fun () ->
          (* The root dir's first data block is the first data block. *)
          let b = layout.Sp_sfs.Layout.data_start in
          Sp_blockdev.Disk.write disk b (Bytes.make 4096 '\000'))
        (function K.Unreachable_inode 1 -> true | _ -> false))

(* --- CLI exit-code contract ---

   README documents: [springfs fsck] exits 1 when the image is damaged
   and 0 when it is clean (including clean-after-recovery).  Pin both
   sides against the real binary. *)

let run_cli args =
  Sys.command (Filename.quote_command Util.springfs_exe args ~stdout:Filename.null)

let test_cli_exit_codes () =
  if not (Sys.file_exists Util.springfs_exe) then
    Alcotest.skip ()
  else begin
    (* Crash write 26 lands mid-flush of the second (journaled)
       transaction: without replay the image mixes old and new
       metadata and fsck must exit 1. *)
    Alcotest.(check int) "damaged image exits 1" 1
      (run_cli [ "fsck"; "--journal"; "--crash-at-write"; "26"; "--no-recover" ]);
    (* Same crash point, but recovery replays the journal first. *)
    Alcotest.(check int) "recovered image exits 0" 0
      (run_cli [ "fsck"; "--journal"; "--crash-at-write"; "26" ]);
    Alcotest.(check int) "undamaged run exits 0" 0 (run_cli [ "fsck" ])
  end

let suite =
  [
    Alcotest.test_case "empty volume clean" `Quick test_empty_volume_clean;
    Alcotest.test_case "clean after workload" `Quick test_clean_after_workload;
    Alcotest.test_case "clean after random workload" `Quick
      test_clean_after_random_workload;
    Alcotest.test_case "clean below a stack" `Quick test_clean_through_stack;
    Alcotest.test_case "detects block leak" `Quick test_detects_bitmap_leak;
    Alcotest.test_case "detects dangling entry" `Quick test_detects_dangling_entry;
    Alcotest.test_case "detects bad nlink" `Quick test_detects_bad_nlink;
    Alcotest.test_case "detects unreachable inode" `Quick
      test_detects_unreachable_inode;
    Alcotest.test_case "cli exit codes" `Quick test_cli_exit_codes;
  ]
