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

let suite =
  [
    Alcotest.test_case "item 14: write during writeback is lost" `Quick
      test_writeback_race;
    Alcotest.test_case "item 9: failover loses a pinned byte at seed 1" `Quick
      test_failover_pinned_loss;
  ]
