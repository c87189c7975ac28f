module F = Sp_core.File
module S = Sp_core.Stackable
module N = Sp_naming.Sname

let make_sfs () =
  let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
  let disk = Util.fresh_disk () in
  (vmm, Sp_coherency.Spring_sfs.make_split ~vmm ~name:"sfs" ~same_domain:false disk)

(* --- File helpers --- *)

let test_read_all () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "r") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "whole file"));
      Util.check_str "read_all" "whole file" (F.read_all f))

let test_of_obj () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "x") in
      Alcotest.(check bool) "file narrows" true (F.of_obj (F.File f) <> None);
      Alcotest.(check bool) "context does not" true
        (F.of_obj (Sp_naming.Context.Context sfs.S.sfs_ctx) = None))

(* --- Stack builder --- *)

let test_stack_builder () =
  Util.in_world (fun () ->
      let vmm, sfs = make_sfs () in
      let creators =
        Sp_naming.Context.make ~domain:(Sp_obj.Sdomain.create "creators")
          ~label:"fs_creators" ()
      in
      S.register_creator creators (Sp_coherency.Coherency_layer.creator ~vmm ());
      S.register_creator creators (Sp_compfs.Compfs.creator ~vmm ());
      let top =
        Sp_core.Stack_builder.stack ~creators ~base:sfs
          [ ("compfs", "comp0"); ("coherency", "coh1") ]
      in
      Alcotest.(check (list string)) "tower composed"
        [ "coherency"; "compfs"; "coherency"; "sfs_disk" ]
        (List.map (fun l -> l.S.sfs_type) (Sp_core.Stack_builder.layers top));
      (* It actually works end to end. *)
      let f = S.create top (Util.name "built") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "stacked"));
      Util.check_str "io" "stacked" (F.read f ~pos:0 ~len:7))

let test_expose_and_resolve_fs () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let root =
        Sp_naming.Context.make ~domain:(Sp_obj.Sdomain.create "ns") ~label:"/" ()
      in
      Sp_core.Stack_builder.expose ~root ~at:(N.of_string "mnt") sfs;
      let got = Sp_core.Stack_builder.resolve_fs root (N.of_string "mnt") in
      Alcotest.(check string) "same fs" sfs.S.sfs_name got.S.sfs_name;
      Alcotest.check_raises "not an fs"
        (S.Stack_error "nope: not a stackable file system") (fun () ->
          Sp_naming.Context.bind root (N.of_string "nope") (Test_naming.Leaf 1);
          ignore (Sp_core.Stack_builder.resolve_fs root (N.of_string "nope"))))

(* --- Object interposition (§5) --- *)

let test_interpose_logging () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "watched") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "data"));
      let log = ref [] in
      let hooks = Sp_core.Interpose.logging_hooks ~log:(fun op -> log := op :: !log) in
      let watched =
        Sp_core.Interpose.interpose_file ~domain:(Sp_obj.Sdomain.create "wd") hooks f
      in
      ignore (F.read watched ~pos:0 ~len:4);
      ignore (F.stat watched);
      ignore (F.write watched ~pos:0 (Util.bytes_of_string "x"));
      Alcotest.(check (list string)) "ops observed in order" [ "read"; "stat"; "write" ]
        (List.rev !log);
      (* Forwarding is transparent. *)
      Util.check_str "write reached original" "xata" (F.read f ~pos:0 ~len:4))

let test_interpose_read_only () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "ro") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "locked"));
      let ro =
        Sp_core.Interpose.interpose_file ~domain:(Sp_obj.Sdomain.create "ro")
          (Sp_core.Interpose.read_only_hooks ())
          f
      in
      Util.check_str "reads pass" "locked" (F.read ro ~pos:0 ~len:6);
      (try
         ignore (F.write ro ~pos:0 (Util.bytes_of_string "nope"));
         Alcotest.fail "write should be refused"
       with Sp_core.Fserr.Read_only _ -> ());
      try
        F.truncate ro 0;
        Alcotest.fail "truncate should be refused"
      with Sp_core.Fserr.Read_only _ -> ())

let test_interpose_override_read () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "up") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "lower case"));
      let upper_hooks =
        {
          Sp_core.Interpose.no_hooks with
          on_read =
            Some
              (fun orig ~pos ~len ->
                Bytes.map
                  (fun c -> Char.uppercase_ascii c)
                  (F.read orig ~pos ~len));
        }
      in
      let shouting =
        Sp_core.Interpose.interpose_file ~domain:(Sp_obj.Sdomain.create "up")
          upper_hooks f
      in
      Util.check_str "semantics changed per-file" "LOWER CASE"
        (F.read shouting ~pos:0 ~len:10);
      Util.check_str "original untouched" "lower case" (F.read f ~pos:0 ~len:10))

let test_interpose_names () =
  (* Name-resolution-time interposition: replace a context binding and
     intercept selected file resolutions. *)
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      S.mkdir sfs (Util.name "dir");
      let secret = S.create sfs (Util.name "dir/secret") in
      ignore (F.write secret ~pos:0 (Util.bytes_of_string "hidden"));
      let plain = S.create sfs (Util.name "dir/plain") in
      ignore (F.write plain ~pos:0 (Util.bytes_of_string "open"));
      let root =
        Sp_naming.Context.make ~domain:(Sp_obj.Sdomain.create "ns") ~label:"/" ()
      in
      let dir_ctx =
        Sp_naming.Context.resolve_context sfs.S.sfs_ctx (N.of_string "dir")
      in
      Sp_naming.Context.bind root (N.of_string "mnt")
        (Sp_naming.Context.Context
           (Sp_naming.Context.make ~domain:(Sp_obj.Sdomain.create "mnt") ~label:"mnt" ()));
      Sp_naming.Context.bind root (N.of_string "mnt/dir")
        (Sp_naming.Context.Context dir_ctx);
      let domain = Sp_obj.Sdomain.create "interposer" in
      let count = ref 0 in
      let wrap f =
        Sp_core.Interpose.interpose_file ~domain
          (Sp_core.Interpose.logging_hooks ~log:(fun _ -> incr count))
          f
      in
      let _orig =
        Sp_core.Interpose.interpose_names ~domain ~root ~at:(N.of_string "mnt/dir")
          ~select:(fun n -> n = "secret")
          ~wrap ()
      in
      (* Resolutions now go through the interposer. *)
      let via_name path =
        match Sp_naming.Context.resolve root (N.of_string path) with
        | F.File f -> f
        | _ -> Alcotest.fail "expected file"
      in
      let s = via_name "mnt/dir/secret" in
      let p = via_name "mnt/dir/plain" in
      ignore (F.read s ~pos:0 ~len:6);
      ignore (F.read p ~pos:0 ~len:4);
      Alcotest.(check int) "only selected file intercepted" 1 !count;
      Util.check_str "data still flows" "hidden" (F.read s ~pos:0 ~len:6))

let test_interpose_names_requires_bind_permission () =
  Util.in_world (fun () ->
      let _vmm, sfs = make_sfs () in
      let acl = Sp_naming.Acl.make [ ("*", [ Sp_naming.Acl.Resolve ]) ] in
      let root =
        Sp_naming.Context.make ~domain:(Sp_obj.Sdomain.create "ns") ~label:"/" ~acl ()
      in
      (* Binding (and hence interposing) is denied to everyone. *)
      ignore sfs;
      try
        let _ =
          Sp_core.Interpose.interpose_names ~principal:"mallory"
            ~domain:(Sp_obj.Sdomain.create "evil") ~root ~at:(N.of_string "x")
            ~select:(fun _ -> true)
            ~wrap:Fun.id ()
        in
        Alcotest.fail "unauthenticated interposition must fail"
      with Sp_naming.Context.Denied _ | Sp_naming.Context.Unbound _ -> ())

(* The four layers built on [Over_one]: the exported context works only
   once stacked, even after an open that failed before [stack_on]; the
   one lower slot takes one [stack_on]; and each layer's one table of
   files gives one upper file per lower file until a remove. *)
let test_over_one_layers () =
  Util.in_world (fun () ->
      let vmm, sfs = make_sfs () in
      let layers =
        [
          Sp_coherency.Coherency_layer.make ~vmm ~name:"one-coh" ();
          Sp_compfs.Compfs.make ~vmm ~name:"one-comp" ();
          Sp_cryptfs.Cryptfs.make ~vmm ~name:"one-crypt" ~key:"k" ();
          Sp_integrity.Integrityfs.make ~vmm ~name:"one-int" ();
        ]
      in
      List.iter
        (fun layer ->
          let t = layer.S.sfs_type in
          let path = Util.name (t ^ "-f") in
          let stack_error what f =
            match f () with
            | _ -> Alcotest.failf "%s: %s must raise Stack_error" t what
            | exception S.Stack_error _ -> ()
          in
          stack_error "open before stack_on" (fun () -> S.open_file layer path);
          S.stack_on layer sfs;
          stack_error "second stack_on" (fun () -> S.stack_on layer sfs);
          let f = S.create layer path in
          Alcotest.(check bool) (t ^ ": open after create") true
            (S.open_file layer path == f);
          S.remove layer path;
          let g = S.create layer path in
          Alcotest.(check bool) (t ^ ": create after remove is new") true (g != f);
          Alcotest.(check bool) (t ^ ": open after re-create") true
            (S.open_file layer path == g))
        layers)

let test_rename () =
  Util.in_world (fun () ->
      let vmm, sfs = make_sfs () in
      (* Rename through a two-layer stack. *)
      let comp = Sp_compfs.Compfs.make ~vmm ~name:"ren-comp" () in
      S.stack_on comp sfs;
      let f = S.create comp (Util.name "old") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "movable"));
      F.sync f;
      S.rename comp ~src:(Util.name "old") ~dst:(Util.name "new");
      Alcotest.check_raises "old gone" (Sp_core.Fserr.No_such_file "old") (fun () ->
          ignore (S.open_file comp (Util.name "old")));
      Util.check_str "content under new name" "movable"
        (F.read (S.open_file comp (Util.name "new")) ~pos:0 ~len:7);
      (* Destination conflicts rejected. *)
      ignore (S.create comp (Util.name "third"));
      try
        S.rename comp ~src:(Util.name "third") ~dst:(Util.name "new");
        Alcotest.fail "rename over existing should fail"
      with Sp_core.Fserr.Already_exists _ -> ())

(* Two tasks rename the same source concurrently.  Door crossings
   suspend under [Sp_sched] (paper_1993 charges them), so without the
   per-directory rename lock both tasks pass the lookup before either
   removes — last-wins leaves the file bound under two names.  With the
   lock exactly one wins and the loser fails loudly. *)
let test_concurrent_rename_race () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let _vmm, sfs = make_sfs () in
      let f = S.create sfs (Util.name "race-src") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "single copy"));
      F.sync f;
      let wins = ref 0 and losses = ref 0 in
      let mover dst () =
        match S.rename sfs ~src:(Util.name "race-src") ~dst:(Util.name dst) with
        | () -> incr wins
        | exception Sp_core.Fserr.No_such_file _ -> incr losses
      in
      ignore (Sp_sched.run ~seed:5 [ mover "race-a"; mover "race-b" ]);
      Alcotest.(check int) "exactly one rename won" 1 !wins;
      Alcotest.(check int) "the loser failed loudly" 1 !losses;
      let bound p =
        match S.open_file sfs (Util.name p) with
        | _ -> 1
        | exception Sp_core.Fserr.No_such_file _ -> 0
      in
      Alcotest.(check int) "source unbound" 0 (bound "race-src");
      Alcotest.(check int) "bound under exactly one destination" 1
        (bound "race-a" + bound "race-b");
      let survivor = if bound "race-a" = 1 then "race-a" else "race-b" in
      Util.check_str "content preserved under the winner" "single copy"
        (F.read (S.open_file sfs (Util.name survivor)) ~pos:0 ~len:11))

let test_cached_fs_view () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let _vmm, sfs = make_sfs () in
      ignore (S.create sfs (Util.name "hot"));
      let view = Sp_core.Cached_fs.attach sfs in
      (* First open misses; later opens hit without domain crossings. *)
      ignore (S.open_file view (Util.name "hot"));
      let before = Sp_sim.Metrics.snapshot () in
      for _ = 1 to 10 do
        ignore (S.open_file view (Util.name "hot"))
      done;
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "cached opens cross no domains" 0
        d.Sp_sim.Metrics.cross_domain_calls;
      let stats = Sp_core.Cached_fs.stats view in
      Alcotest.(check int) "hits counted" 10 stats.Sp_naming.Name_cache.hits;
      (* Mutations through the view invalidate the cached entry. *)
      S.remove view (Util.name "hot");
      Alcotest.check_raises "removal visible immediately"
        (Sp_core.Fserr.No_such_file "hot") (fun () ->
          ignore (S.open_file view (Util.name "hot")));
      (* Re-creating through the view is also coherent. *)
      ignore (S.create view (Util.name "hot"));
      ignore (S.open_file view (Util.name "hot")))

let suite =
  [
    Alcotest.test_case "file read_all" `Quick test_read_all;
    Alcotest.test_case "file of_obj" `Quick test_of_obj;
    Alcotest.test_case "stack builder composes towers" `Quick test_stack_builder;
    Alcotest.test_case "expose and resolve fs" `Quick test_expose_and_resolve_fs;
    Alcotest.test_case "interpose: logging watchdog" `Quick test_interpose_logging;
    Alcotest.test_case "interpose: read-only watchdog" `Quick test_interpose_read_only;
    Alcotest.test_case "interpose: semantic override" `Quick
      test_interpose_override_read;
    Alcotest.test_case "interpose at name resolution" `Quick test_interpose_names;
    Alcotest.test_case "interposition needs authentication" `Quick
      test_interpose_names_requires_bind_permission;
    Alcotest.test_case "one-lower layers: stack_on and the file memo" `Quick
      test_over_one_layers;
    Alcotest.test_case "rename through stack" `Quick test_rename;
    Alcotest.test_case "rename: concurrent same-source race" `Quick
      test_concurrent_rename_race;
    Alcotest.test_case "6.4: cached-fs view" `Quick test_cached_fs_view;
  ]
