(* Coverage sweep of smaller public APIs: channel registry maintenance,
   attribute helpers, interposition forwarding, Spring_sfs accessors and
   the UNIX emulation's positional calls. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module V = Sp_vm.Vm_types

let test_pager_lib_registry () =
  Util.in_world (fun () ->
      let reg = Sp_vm.Pager_lib.create () in
      let ram = Ram_pager.create ~label:"r" () in
      ignore ram;
      let dummy_pager ~id:_ =
        {
          V.p_domain = Sp_obj.Sdomain.create "p";
          p_label = "dummy";
          p_page_in = (fun ~offset:_ ~size ~access:_ -> Bytes.create size);
          p_page_out = (fun ~offset:_ _ -> ());
          p_write_out = (fun ~offset:_ _ -> ());
          p_sync = (fun ~offset:_ _ -> ());
          p_sync_v = (fun _ -> ());
          p_done_with = (fun () -> ());
          p_exten = [];
        }
      in
      let destroyed = ref 0 in
      let manager name =
        {
          V.cm_id = name;
          cm_domain = Sp_obj.Sdomain.create name;
          cm_connect =
            (fun ~key:_ _ ->
              {
                V.c_domain = Sp_obj.Sdomain.create (name ^ "-cache");
                c_label = name;
                c_flush_back = (fun ~offset:_ ~size:_ -> []);
                c_deny_writes = (fun ~offset:_ ~size:_ -> []);
                c_write_back = (fun ~offset:_ ~size:_ -> []);
                c_delete_range = (fun ~offset:_ ~size:_ -> ());
                c_zero_fill = (fun ~offset:_ ~size:_ -> ());
                c_populate = (fun ~offset:_ ~access:_ _ -> ());
                c_destroy = (fun () -> incr destroyed);
                c_exten = [];
              });
        }
      in
      let r1 = Sp_vm.Pager_lib.bind reg ~key:"k1" ~make_pager:dummy_pager (manager "m1") in
      let r1' = Sp_vm.Pager_lib.bind reg ~key:"k1" ~make_pager:dummy_pager (manager "m1") in
      Alcotest.(check int) "bind is idempotent per (manager,key)"
        r1.V.cr_channel_id r1'.V.cr_channel_id;
      let _r2 = Sp_vm.Pager_lib.bind reg ~key:"k1" ~make_pager:dummy_pager (manager "m2") in
      let _r3 = Sp_vm.Pager_lib.bind reg ~key:"k2" ~make_pager:dummy_pager (manager "m1") in
      Alcotest.(check int) "three channels" 3 (Sp_vm.Pager_lib.channel_count reg);
      Alcotest.(check int) "two for k1" 2
        (List.length (Sp_vm.Pager_lib.channels_for_key reg ~key:"k1"));
      Alcotest.(check bool) "find by id" true
        (Sp_vm.Pager_lib.find reg ~id:r1.V.cr_channel_id <> None);
      Sp_vm.Pager_lib.remove reg r1.V.cr_channel_id;
      Alcotest.(check bool) "removed" true
        (Sp_vm.Pager_lib.find reg ~id:r1.V.cr_channel_id = None);
      Sp_vm.Pager_lib.destroy_key reg ~key:"k1";
      Alcotest.(check int) "k1 gone" 0
        (List.length (Sp_vm.Pager_lib.channels_for_key reg ~key:"k1"));
      Alcotest.(check int) "destroy_cache invoked" 1 !destroyed;
      Alcotest.(check int) "k2 remains" 1 (Sp_vm.Pager_lib.channel_count reg))

let test_attr_helpers () =
  Util.in_world (fun () ->
      Sp_sim.Simclock.advance 1000;
      let a = Sp_vm.Attr.fresh Sp_vm.Attr.Regular in
      Alcotest.(check int) "fresh stamps now" 1000 a.Sp_vm.Attr.atime;
      Sp_sim.Simclock.advance 500;
      let a2 = Sp_vm.Attr.touch_mtime a in
      Alcotest.(check int) "mtime updated" 1500 a2.Sp_vm.Attr.mtime;
      Alcotest.(check int) "ctime follows mtime" 1500 a2.Sp_vm.Attr.ctime;
      Alcotest.(check int) "atime untouched" 1000 a2.Sp_vm.Attr.atime;
      let a3 = Sp_vm.Attr.with_len a2 77 in
      Alcotest.(check int) "with_len" 77 a3.Sp_vm.Attr.len;
      Alcotest.(check bool) "equal reflexive" true (Sp_vm.Attr.equal a3 a3);
      Alcotest.(check bool) "equal detects change" false (Sp_vm.Attr.equal a2 a3))

let test_interpose_forwarding_ops () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"misc-sfs" ~same_domain:false
          (Util.fresh_disk ())
      in
      let f = S.create sfs (Util.name "fwd") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "0123456789"));
      let seen = ref [] in
      let w =
        Sp_core.Interpose.interpose_file ~domain:(Sp_obj.Sdomain.create "w")
          (Sp_core.Interpose.logging_hooks ~log:(fun op -> seen := op :: !seen))
          f
      in
      (* Every forwarded operation works and is observed. *)
      F.truncate w 4;
      let attr = F.stat w in
      F.set_attr w (Sp_vm.Attr.touch_mtime attr);
      F.sync w;
      Alcotest.(check (list string)) "all ops observed"
        [ "truncate"; "stat"; "set_attr"; "sync" ]
        (List.rev !seen);
      Alcotest.(check int) "truncate forwarded" 4 (F.stat f).Sp_vm.Attr.len)

let test_spring_sfs_accessors () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"acc" ~same_domain:false
          (Util.fresh_disk ())
      in
      let base = Sp_coherency.Spring_sfs.disk_layer sfs in
      Alcotest.(check string) "disk layer type" "sfs_disk" base.S.sfs_type;
      Alcotest.(check string) "base accessor agrees" base.S.sfs_name
        (S.base sfs).S.sfs_name;
      ignore (S.create sfs (Util.name "x"));
      Alcotest.(check bool) "free space reported" true
        (Sp_sfs.Disk_layer.free_blocks base > 0);
      Alcotest.(check bool) "inode cache counted" true
        (Sp_sfs.Disk_layer.cached_inodes base > 0);
      Alcotest.(check int) "no attributes cached by a create" 0
        (Sp_coherency.Coherency_layer.cached_attrs sfs);
      (* A stat caches the one file's attributes. *)
      ignore (Sp_core.File.stat (S.open_file sfs (Util.name "x")));
      Alcotest.(check int) "coherency attrs counted" 1
        (Sp_coherency.Coherency_layer.cached_attrs sfs))

let test_unix_positional_and_ftruncate () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"posix" ~same_domain:false
          (Util.fresh_disk ())
      in
      let p = Sp_unix.Unix_emul.create_process ~root:sfs () in
      let module U = Sp_unix.Unix_emul in
      let get = function Ok v -> v | Error _ -> Alcotest.fail "errno" in
      let fd = get (U.creat p "/pp") in
      Alcotest.(check int) "pwrite" 6
        (get (U.pwrite p fd ~pos:10 (Bytes.of_string "abcdef")));
      Util.check_str "pread" "cde" (get (U.pread p fd ~pos:12 ~len:3));
      (* Positional calls do not move the seek pointer. *)
      Util.check_str "seek pointer unmoved" "\000\000" (get (U.read p fd 2));
      ignore (get (U.ftruncate p fd 12));
      Alcotest.(check int) "ftruncate" 12 (get (U.fstat p fd)).Sp_vm.Attr.len;
      Alcotest.(check (list int)) "open fds" [ fd ] (U.open_fds p);
      ignore (get (U.close p fd));
      Alcotest.(check (list int)) "closed" [] (U.open_fds p))

let test_door_nested_attribution () =
  Util.in_world (fun () ->
      let a = Sp_obj.Sdomain.create "a" in
      let b = Sp_obj.Sdomain.create "b" in
      let before = Sp_sim.Metrics.snapshot () in
      (* user -> a -> b -> a: three crossings, then a->a local. *)
      Sp_obj.Door.call a (fun () ->
          Sp_obj.Door.call b (fun () ->
              Sp_obj.Door.call a (fun () -> Sp_obj.Door.call a (fun () -> ()))));
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "crossings" 3 d.Sp_sim.Metrics.cross_domain_calls;
      Alcotest.(check int) "locals" 1 d.Sp_sim.Metrics.local_calls)

let test_versionfs_unknown_version () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"vf" ~same_domain:false
          (Util.fresh_disk ())
      in
      let ver = Sp_versionfs.Versionfs.make ~name:"vf0" () in
      S.stack_on ver sfs;
      ignore (S.create ver (Util.name "f"));
      Alcotest.(check (list int)) "no versions yet" []
        (Sp_versionfs.Versionfs.versions ver (Util.name "f"));
      Alcotest.(check bool) "unknown version raises" true
        (try
           ignore (Sp_versionfs.Versionfs.open_version ver (Util.name "f") 3);
           false
         with Sp_core.Fserr.No_such_file _ -> true))

let suite =
  [
    Alcotest.test_case "pager_lib registry" `Quick test_pager_lib_registry;
    Alcotest.test_case "attr helpers" `Quick test_attr_helpers;
    Alcotest.test_case "interpose forwards all ops" `Quick
      test_interpose_forwarding_ops;
    Alcotest.test_case "spring_sfs accessors" `Quick test_spring_sfs_accessors;
    Alcotest.test_case "unix positional io" `Quick test_unix_positional_and_ftruncate;
    Alcotest.test_case "door nested attribution" `Quick test_door_nested_attribution;
    Alcotest.test_case "versionfs unknown version" `Quick
      test_versionfs_unknown_version;
  ]
