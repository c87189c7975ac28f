module F = Sp_core.File
module S = Sp_core.Stackable
module M = Sp_mirrorfs.Mirrorfs

let make_stack () =
  let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
  let sfs_a =
    Sp_coherency.Spring_sfs.make_split ~vmm ~name:"sfsA" ~same_domain:false
      (Util.fresh_disk ())
  in
  let sfs_b =
    Sp_coherency.Spring_sfs.make_split ~vmm ~name:"sfsB" ~same_domain:false
      (Util.fresh_disk ())
  in
  let mirror = M.make ~vmm ~name:"mirror" () in
  S.stack_on mirror sfs_a;
  S.stack_on mirror sfs_b;
  (vmm, sfs_a, sfs_b, mirror)

let test_fig3_two_underlays () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      Alcotest.(check (list string)) "stacked on two file systems"
        [ sfs_a.S.sfs_name; sfs_b.S.sfs_name ]
        (List.map (fun l -> l.S.sfs_name) (mirror.S.sfs_unders ()));
      let vmm2 = Sp_vm.Vmm.create ~node:"x" "x" in
      let third =
        Sp_coherency.Spring_sfs.make_split ~vmm:vmm2 ~name:"sfsC" ~same_domain:false
          (Util.fresh_disk ())
      in
      try
        S.stack_on mirror third;
        Alcotest.fail "third underlay must be rejected"
      with S.Stack_error _ -> ())

let test_writes_reach_both () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      let f = S.create mirror (Util.name "r") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "replicated"));
      F.sync f;
      Util.check_str "primary" "replicated"
        (F.read (S.open_file sfs_a (Util.name "r")) ~pos:0 ~len:10);
      Util.check_str "secondary" "replicated"
        (F.read (S.open_file sfs_b (Util.name "r")) ~pos:0 ~len:10);
      Alcotest.(check bool) "verify" true (M.verify mirror (Util.name "r")))

let test_failover_on_primary_loss () =
  Util.in_world (fun () ->
      let _vmm, _a, _b, mirror = make_stack () in
      let f = S.create mirror (Util.name "ha") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "available"));
      F.sync f;
      M.set_degraded mirror (Some M.Primary);
      Util.check_str "reads served by secondary" "available"
        (F.read (S.open_file mirror (Util.name "ha")) ~pos:0 ~len:9);
      Alcotest.(check int) "stat via secondary" 9 (F.stat f).Sp_vm.Attr.len)

let test_degraded_write_and_repair () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      let f = S.create mirror (Util.name "heal") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "v1"));
      F.sync f;
      (* Secondary goes down; writes continue on the primary only. *)
      M.set_degraded mirror (Some M.Secondary);
      ignore (F.write f ~pos:0 (Util.bytes_of_string "v2"));
      F.sync f;
      Util.check_str "primary has v2" "v2"
        (F.read (S.open_file sfs_a (Util.name "heal")) ~pos:0 ~len:2);
      Util.check_str "secondary still has v1" "v1"
        (F.read (S.open_file sfs_b (Util.name "heal")) ~pos:0 ~len:2);
      Alcotest.(check bool) "replicas diverged" false (M.verify mirror (Util.name "heal"));
      (* Secondary returns; repair copies primary over it. *)
      M.repair mirror (Util.name "heal");
      M.set_degraded mirror None;
      Alcotest.(check bool) "repaired" true (M.verify mirror (Util.name "heal"));
      Util.check_str "secondary healed" "v2"
        (F.read (S.open_file sfs_b (Util.name "heal")) ~pos:0 ~len:2))

(* A file created while the secondary is down carries the primary's
   handle in both slots; [repair] must swap the real secondary handle into
   the pair the open file writes through. *)
let test_created_degraded_then_repaired () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      M.set_degraded mirror (Some M.Secondary);
      let f = S.create mirror (Util.name "late") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "one"));
      F.sync f;
      M.repair mirror (Util.name "late");
      Alcotest.(check bool) "repair clears the degraded mark" true (M.degraded mirror = None);
      ignore (F.write f ~pos:0 (Util.bytes_of_string "two"));
      F.sync f;
      Util.check_str "primary has the later write" "two"
        (F.read (S.open_file sfs_a (Util.name "late")) ~pos:0 ~len:3);
      Util.check_str "secondary has the later write" "two"
        (F.read (S.open_file sfs_b (Util.name "late")) ~pos:0 ~len:3);
      Alcotest.(check bool) "verify" true (M.verify mirror (Util.name "late")))

let test_dirs_and_remove () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      S.mkdir mirror (Util.name "d");
      let f = S.create mirror (Util.name "d/x") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "deep"));
      F.sync f;
      Util.check_str "nested via mirror ctx" "deep"
        (F.read (S.open_file mirror (Util.name "d/x")) ~pos:0 ~len:4);
      S.remove mirror (Util.name "d/x");
      Alcotest.(check (list string)) "primary dir empty" []
        (S.listdir sfs_a (Util.name "d"));
      Alcotest.(check (list string)) "secondary dir empty" []
        (S.listdir sfs_b (Util.name "d")))

let test_truncate_both () =
  Util.in_world (fun () ->
      let _vmm, sfs_a, sfs_b, mirror = make_stack () in
      let f = S.create mirror (Util.name "t") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "0123456789"));
      F.sync f;
      F.truncate f 3;
      F.sync f;
      Alcotest.(check int) "primary len" 3
        (F.stat (S.open_file sfs_a (Util.name "t"))).Sp_vm.Attr.len;
      Alcotest.(check int) "secondary len" 3
        (F.stat (S.open_file sfs_b (Util.name "t"))).Sp_vm.Attr.len)

let test_mapped_access () =
  Util.in_world (fun () ->
      let vmm, _a, sfs_b, mirror = make_stack () in
      let f = S.create mirror (Util.name "m") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "mirror mapping"));
      F.sync f;
      let m = Sp_vm.Vmm.map vmm f.F.f_mem in
      Util.check_str "mapping reads" "mirror mapping" (Sp_vm.Vmm.read m ~pos:0 ~len:14);
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "MIRROR");
      Sp_vm.Vmm.msync m;
      Util.check_str "mapped write replicated" "MIRROR"
        (F.read (S.open_file sfs_b (Util.name "m")) ~pos:0 ~len:6))

let test_fail_repair_fail_other_twin () =
  (* Regression: [repair] must reset the degraded mark, or a later
     failure of the *other* replica cannot fail over (the Io_error used
     to escape because the mirror still thought it was degraded). *)
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm-frf" in
      let mk n label =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:n ~same_domain:false
          (Util.fresh_disk ~label ())
      in
      let mirror = M.make ~vmm ~name:"mirror-frf" () in
      S.stack_on mirror (mk "frfA" "twinA");
      S.stack_on mirror (mk "frfB" "twinB");
      let f = S.create mirror (Util.name "t") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "v1"));
      F.sync f;
      (* Twin A's device fails mid-sync: the mirror degrades and the
         write completes on twin B alone. *)
      let fail label =
        Sp_fault.plan [ Sp_fault.rule ~point:"disk.write" ~label Sp_fault.Io_error ]
      in
      Sp_fault.with_plan (fail "twinA") (fun () ->
          ignore (F.write f ~pos:0 (Util.bytes_of_string "v2"));
          F.sync f);
      Alcotest.(check bool) "degraded after twin A fails" true
        (M.degraded mirror <> None);
      (* Twin A returns; repair heals it AND clears the degraded mark. *)
      M.repair mirror (Util.name "t");
      Alcotest.(check bool) "repair resets the degraded mark" true
        (M.degraded mirror = None);
      Alcotest.(check bool) "replicas identical after repair" true
        (M.verify mirror (Util.name "t"));
      (* Now the OTHER twin fails: the mirror must fail over again
         instead of letting the Io_error escape. *)
      Sp_fault.with_plan (fail "twinB") (fun () ->
          ignore (F.write f ~pos:0 (Util.bytes_of_string "v3"));
          F.sync f);
      Alcotest.(check bool) "failed over to the repaired twin" true
        (M.degraded mirror <> None);
      Util.check_str "served after the second failover" "v3"
        (F.read (S.open_file mirror (Util.name "t")) ~pos:0 ~len:2))

(* A layer's introspection narrows the stackable it is given, so two
   instances that share a name never read each other's state. *)
let test_same_name_instances_apart () =
  Util.in_world (fun () ->
      let small = Sp_sfs.Disk_layer.mount ~name:"twin" (Util.fresh_disk ~blocks:1024 ()) in
      let large = Sp_sfs.Disk_layer.mount ~name:"twin" (Util.fresh_disk ~blocks:4096 ()) in
      let ref_small =
        Sp_sfs.Disk_layer.mount ~name:"twin-ref-small" (Util.fresh_disk ~blocks:1024 ())
      in
      let ref_large =
        Sp_sfs.Disk_layer.mount ~name:"twin-ref-large" (Util.fresh_disk ~blocks:4096 ())
      in
      Alcotest.(check int) "first twin: its own free blocks"
        (Sp_sfs.Disk_layer.free_blocks ref_small)
        (Sp_sfs.Disk_layer.free_blocks small);
      Alcotest.(check int) "second twin: its own free blocks"
        (Sp_sfs.Disk_layer.free_blocks ref_large)
        (Sp_sfs.Disk_layer.free_blocks large);
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let m1 = M.make ~vmm ~name:"twin-mirror" () in
      let m2 = M.make ~vmm ~name:"twin-mirror" () in
      M.set_degraded m1 (Some M.Primary);
      Alcotest.(check bool) "first mirror degraded" true (M.degraded m1 = Some M.Primary);
      Alcotest.(check bool) "second mirror untouched" true (M.degraded m2 = None);
      Alcotest.check_raises "narrowing the wrong layer"
        (Invalid_argument "twin: not a mirrorfs layer") (fun () ->
          ignore (M.degraded small));
      Alcotest.check_raises "and the other way round"
        (Invalid_argument "twin-mirror: not a disk layer") (fun () ->
          ignore (Sp_sfs.Disk_layer.free_blocks m1)))

let suite =
  [
    Alcotest.test_case "fig3: stacks on two underlays" `Quick test_fig3_two_underlays;
    Alcotest.test_case "fail, repair, fail the other twin (regression)" `Quick
      test_fail_repair_fail_other_twin;
    Alcotest.test_case "writes reach both replicas" `Quick test_writes_reach_both;
    Alcotest.test_case "failover on primary loss" `Quick test_failover_on_primary_loss;
    Alcotest.test_case "degraded write + repair" `Quick test_degraded_write_and_repair;
    Alcotest.test_case "created while degraded, written after repair" `Quick
      test_created_degraded_then_repaired;
    Alcotest.test_case "dirs and remove" `Quick test_dirs_and_remove;
    Alcotest.test_case "truncate both" `Quick test_truncate_both;
    Alcotest.test_case "mapped access" `Quick test_mapped_access;
    Alcotest.test_case "same-named instances keep their own state" `Quick
      test_same_name_instances_apart;
  ]
