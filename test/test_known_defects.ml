(* Standing defects, pinned as they reproduce today.  Item numbers are
   those of ROADMAP.md's open items.

   Each case runs one item's reproducer and checks today's wrong
   outcome exactly, then prints [KNOWN-DEFECT item=N reproduces=yes].
   So a defect that vanishes or changes shape fails here instead of
   waiting for someone to re-check it by hand.  The change that fixes a
   defect turns its case into a plain regression test of the right
   outcome. *)

module F = Sp_core.File
module S = Sp_core.Stackable

let reproduces item = Printf.printf "KNOWN-DEFECT item=%d reproduces=yes\n%!" item

(* Item 14: a write that lands while its page's writeback waits in
   [Disk.write] is marked clean when the push returns, so the next
   eviction drops it.  Task A writes a page of 'A' and syncs; task B
   writes 100 bytes of 'B' at offset 0 while that sync is in flight.
   After a whole-volume sync and a cache drop, a cold read returns A's
   byte where B's belongs. *)
let test_writeback_race () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "kd14-vmm" in
      let fs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"kd14" ~same_domain:false
          (Util.fresh_disk ~blocks:512 ~label:"kd14" ())
      in
      let f = S.create fs (Util.name "f") in
      let synced_at = ref 0 and written_at = ref 0 in
      let task_a () =
        ignore (F.write f ~pos:0 (Bytes.make Sp_vm.Vm_types.page_size 'A'));
        F.sync f;
        synced_at := Sp_sim.Simclock.now ()
      in
      let task_b () =
        Sp_sched.sleep 2_000_000;
        ignore (F.write f ~pos:0 (Bytes.make 100 'B'));
        written_at := Sp_sim.Simclock.now ()
      in
      ignore (Sp_sched.run ~seed:1 [ task_a; task_b ]);
      Alcotest.(check bool) "B wrote while A's sync was in flight" true
        (!written_at < !synced_at);
      S.sync fs;
      S.drop_caches fs;
      Util.check_str "the cold read returns A's byte, not B's" "A"
        (F.read (S.open_file fs (Util.name "f")) ~pos:0 ~len:1);
      reproduces 14)

(* Item 9: off the CI seeds, [failover] loses a byte its oracle pins:
   always the coherency layer's kill point at op boundary 22. *)
let test_failover_pinned_loss () =
  let code, out, _ =
    Util.run_springfs
      [ "failover"; "--ops"; "24"; "--clients"; "3"; "--stride"; "3"; "--seed"; "1" ]
  in
  Alcotest.(check int) "the sweep fails" 1 code;
  match String.split_on_char '\n' out with
  | verdict :: first :: _ ->
      Alcotest.(check bool) "one point lost" true
        (List.mem "lost=1" (String.split_on_char ' ' verdict));
      Alcotest.(check string) "the first failure's class and message"
        "FIRST-FAILURE axis=lcs.coh at=22 class=lost: c1[391]: pinned byte lost: \
         '\\000' <> '\\237'"
        first;
      reproduces 9
  | _ -> Alcotest.failf "unexpected output: %S" out

(* Item 23: a table's rows depend on what ran before it in the same
   process.  Alone, the journal table prints the 64- and 1000-client
   sync p99 below; after the scale table, as in [bench/main.exe] and so
   in BENCH_10.json, it prints 804928.0us and 728661.6us.  The scale
   table's worlds take names from the process-wide counter that names
   the journal's, and the coherency layer's [sync] walks its files in
   hash order of names built from them. *)
let test_journal_alone () =
  let code, out, _ = Util.run_springfs [ "tables"; "journal" ] in
  Alcotest.(check int) "springfs tables journal exits 0" 0 code;
  let sync_p99 clients =
    List.find_map
      (fun line ->
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | c :: _ :: _ :: _ :: _ :: p99 :: _ when c = clients -> Some p99
        | _ -> None)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check (option string)) "64 clients, sync p99" (Some "806468.0us")
    (sync_p99 "64");
  Alcotest.(check (option string)) "1000 clients, sync p99" (Some "740461.6us")
    (sync_p99 "1000");
  reproduces 23

(* Item 27: over a split SFS, cryptfs and integrityfs lose synced bytes
   when the stack's caches were dropped between two syncs.  [hello] is
   written and synced, the caches dropped, the file re-opened and
   [ world] written at 5 and synced.  A fresh SFS and layer over the same
   disk then read [hello] and six zero bytes; without the drop they read
   [hello world]. *)
let reread_after ~drop layer =
  Util.in_world (fun () ->
      let disk = Util.fresh_disk ~blocks:512 ~label:"kd27" () in
      let stack vmm_name =
        let vmm = Sp_vm.Vmm.create ~node:"local" vmm_name in
        let sfs =
          Sp_coherency.Spring_sfs.make_split ~vmm ~name:"kd27" ~same_domain:false disk
        in
        let fs = layer ~vmm in
        S.stack_on fs sfs;
        fs
      in
      let fs = stack "kd27-vmm" in
      let f = S.create fs (Util.name "f") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "hello"));
      F.sync f;
      S.sync fs;
      if drop then S.drop_caches fs;
      let f = S.open_file fs (Util.name "f") in
      ignore (F.write f ~pos:5 (Util.bytes_of_string " world"));
      F.sync f;
      F.read (S.open_file (stack "kd27-fresh") (Util.name "f")) ~pos:0 ~len:11)

let test_transform_drop_loss () =
  List.iter
    (fun (what, layer) ->
      Util.check_str (what ^ ", no drop: both writes read back") "hello world"
        (reread_after ~drop:false layer);
      Util.check_str (what ^ ", after the drop: the second write is lost")
        "hello\000\000\000\000\000\000" (reread_after ~drop:true layer))
    [
      ("cryptfs", fun ~vmm -> Sp_cryptfs.Cryptfs.make ~vmm ~name:"kd27-crypt" ~key:"k" ());
      ("integrityfs", fun ~vmm -> Sp_integrity.Integrityfs.make ~vmm ~name:"kd27-int" ());
    ];
  reproduces 27

let suite =
  [
    Alcotest.test_case "item 14: write during writeback is lost" `Quick
      test_writeback_race;
    Alcotest.test_case "item 9: failover loses a pinned byte at seed 1" `Quick
      test_failover_pinned_loss;
    Alcotest.test_case "item 23: journal rows depend on what ran first" `Quick
      test_journal_alone;
    Alcotest.test_case "item 27: a layer's drop loses a synced write" `Quick
      test_transform_drop_loss;
  ]
