module V = Sp_vm.Vm_types

let ps = V.page_size

let setup () =
  let vmm = Sp_vm.Vmm.create ~node:"local" "test" in
  let ram = Ram_pager.create ~label:"obj" () in
  (vmm, ram)

let test_page_geometry () =
  Alcotest.(check int) "index" 0 (V.page_index 4095);
  Alcotest.(check int) "index 2" 1 (V.page_index 4096);
  Alcotest.(check (list int)) "covering" [ 0; 1 ]
    (V.pages_covering ~offset:4000 ~size:200);
  Alcotest.(check (list int)) "covering exact" [ 1 ]
    (V.pages_covering ~offset:4096 ~size:4096);
  Alcotest.(check (list int)) "empty" [] (V.pages_covering ~offset:0 ~size:0)

let test_map_read_write () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.bytes_of_string "hello world");
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      Util.check_str "reads backing store" "hello"
        (Sp_vm.Vmm.read m ~pos:0 ~len:5);
      Sp_vm.Vmm.write m ~pos:6 (Util.bytes_of_string "spring");
      Util.check_str "read back through cache" "hello spring"
        (Sp_vm.Vmm.read m ~pos:0 ~len:12);
      (* Not yet pushed to the pager. *)
      Util.check_str "store unchanged before msync" "world"
        (Ram_pager.peek ram ~pos:6 ~len:5);
      Sp_vm.Vmm.msync m;
      Util.check_str "store updated after msync" "spring"
        (Ram_pager.peek ram ~pos:6 ~len:6))

let test_faults_and_hits () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (3 * ps));
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:(2 * ps));
      let mid = Sp_sim.Metrics.snapshot () in
      let d1 = Sp_sim.Metrics.diff ~before ~after:mid in
      Alcotest.(check int) "two faults for two pages" 2 d1.Sp_sim.Metrics.page_faults;
      Alcotest.(check int) "two page-ins" 2 d1.Sp_sim.Metrics.page_ins;
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:(2 * ps));
      let d2 = Sp_sim.Metrics.diff ~before:mid ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "no faults on hit" 0 d2.Sp_sim.Metrics.page_faults;
      Alcotest.(check int) "no page-ins on hit" 0 d2.Sp_sim.Metrics.page_ins)

let test_write_upgrades_mode () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes ps);
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:16);
      (* page now cached read-only *)
      let before = Sp_sim.Metrics.snapshot () in
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "X");
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "upgrade faults once" 1 d.Sp_sim.Metrics.page_faults;
      (* second write hits *)
      let before = Sp_sim.Metrics.snapshot () in
      Sp_vm.Vmm.write m ~pos:1 (Util.bytes_of_string "Y");
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "no fault once writable" 0 d.Sp_sim.Metrics.page_faults)

let test_cache_unification () =
  (* Two equivalent memory objects must share the same cached pages. *)
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      let m1 = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let m2 = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      Sp_vm.Vmm.write m1 ~pos:0 (Util.bytes_of_string "shared!");
      Util.check_str "visible through second mapping without sync" "shared!"
        (Sp_vm.Vmm.read m2 ~pos:0 ~len:7);
      Alcotest.(check int) "one VMM entry" 1 (Sp_vm.Vmm.entry_count vmm);
      Alcotest.(check int) "one channel at the pager" 1
        (List.length (Ram_pager.channels ram)))

let test_two_vmms_two_channels () =
  (* Figure 2: one memory object cached at two VMMs -> one channel per VMM. *)
  Util.in_world (fun () ->
      let vmm1 = Sp_vm.Vmm.create ~node:"n1" "vmm1" in
      let vmm2 = Sp_vm.Vmm.create ~node:"n2" "vmm2" in
      let ram = Ram_pager.create ~label:"obj" () in
      let _m1 = Sp_vm.Vmm.map vmm1 (Ram_pager.memory_object ram) in
      let _m2 = Sp_vm.Vmm.map vmm2 (Ram_pager.memory_object ram) in
      Alcotest.(check int) "two channels" 2
        (List.length (Ram_pager.channels ram)))

let with_channel f =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (2 * ps));
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:(2 * ps));
      let ch =
        match Ram_pager.channels ram with
        | [ ch ] -> ch
        | _ -> Alcotest.fail "expected one channel"
      in
      f vmm ram m ch)

let test_deny_writes () =
  with_channel (fun _vmm _ram m ch ->
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "dirty data");
      let extents =
        V.deny_writes ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:(2 * ps)
      in
      (match extents with
      | [ e ] ->
          Alcotest.(check int) "extent offset" 0 e.V.ext_offset;
          Util.check_str "extent has the dirty bytes" "dirty data"
            (Bytes.sub e.V.ext_data 0 10)
      | _ -> Alcotest.fail "expected exactly one dirty extent");
      (* Page is still readable without fault (retained read-only)... *)
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:4);
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "read hits after deny" 0 d.Sp_sim.Metrics.page_faults;
      (* ...but writing faults again (mode downgraded). *)
      let before = Sp_sim.Metrics.snapshot () in
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "x");
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "write faults after deny" 1 d.Sp_sim.Metrics.page_faults)

let test_flush_back () =
  with_channel (fun _vmm _ram m ch ->
      Sp_vm.Vmm.write m ~pos:ps (Util.bytes_of_string "page two");
      let extents =
        V.flush_back ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:(2 * ps)
      in
      Alcotest.(check int) "one dirty extent" 1 (List.length extents);
      Alcotest.(check int) "cache emptied" 0 (Sp_vm.Vmm.cached_pages m);
      (* Next read faults. *)
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:4);
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "fault after flush" 1 d.Sp_sim.Metrics.page_faults)

let test_write_back_retains () =
  with_channel (fun _vmm _ram m ch ->
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "keep me");
      let extents =
        V.write_back ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:(2 * ps)
      in
      Alcotest.(check int) "dirty data returned" 1 (List.length extents);
      (* Still writable without a fault. *)
      let before = Sp_sim.Metrics.snapshot () in
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "again");
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "no fault" 0 d.Sp_sim.Metrics.page_faults;
      (* And a second write_back sees fresh dirty data. *)
      let extents =
        V.write_back ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:(2 * ps)
      in
      Alcotest.(check int) "second round dirty" 1 (List.length extents))

let test_delete_range_discards () =
  with_channel (fun _vmm ram m ch ->
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "DOOMED");
      V.delete_range ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:ps;
      (* Dirty data was discarded, not written back. *)
      let store = Ram_pager.peek ram ~pos:0 ~len:6 in
      Alcotest.(check bool) "store does not contain DOOMED" false
        (Bytes.to_string store = "DOOMED"))

let test_populate_and_zero_fill () =
  with_channel (fun _vmm _ram m ch ->
      V.populate ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~access:V.Read_only
        (Util.bytes_of_string "populated");
      let before = Sp_sim.Metrics.snapshot () in
      Util.check_str "populated data readable" "populated"
        (Sp_vm.Vmm.read m ~pos:0 ~len:9);
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "no fault after populate" 0 d.Sp_sim.Metrics.page_faults;
      V.zero_fill ch.Sp_vm.Pager_lib.ch_cache ~offset:0 ~size:ps;
      Util.check_str "zero filled" "\000\000\000" (Sp_vm.Vmm.read m ~pos:0 ~len:3))

let test_unmap_pushes_dirty () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "persist");
      Sp_vm.Vmm.unmap m;
      Util.check_str "dirty data reached pager" "persist"
        (Ram_pager.peek ram ~pos:0 ~len:7);
      Alcotest.check_raises "use after unmap"
        (Failure "Vmm: access through unmapped mapping") (fun () ->
          ignore (Sp_vm.Vmm.read m ~pos:0 ~len:1)))

let test_drop_caches () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "save me");
      Sp_vm.Vmm.drop_caches vmm;
      Util.check_str "dirty pushed before drop" "save me"
        (Ram_pager.peek ram ~pos:0 ~len:7);
      Alcotest.(check int) "pages dropped" 0 (Sp_vm.Vmm.cached_pages m);
      (* Mapping still valid; next access faults data back in. *)
      Util.check_str "refault works" "save me" (Sp_vm.Vmm.read m ~pos:0 ~len:7))

let test_set_length () =
  Util.in_world (fun () ->
      let _vmm, ram = setup () in
      let mem = Ram_pager.memory_object ram in
      V.set_length mem 100;
      Alcotest.(check int) "grown" 100 (V.get_length mem);
      Ram_pager.poke ram ~pos:0 (Util.bytes_of_string "0123456789");
      V.set_length mem 4;
      Alcotest.(check int) "shrunk" 4 (V.get_length mem);
      V.set_length mem 10;
      Util.check_str "tail zeroed by shrink" "0123\000\000"
        (Ram_pager.peek ram ~pos:0 ~len:6))

(* qcheck property: any sequence of aligned writes through the mapping,
   followed by msync, leaves the backing store equal to a model byte
   array. *)
let prop_writes_match_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (pair (int_range 0 (4 * ps)) (int_range 1 64)))
  in
  Util.qcheck_case ~count:50 "vmm writes match byte-array model" gen
    (fun writes ->
      Util.in_world (fun () ->
          let vmm, ram = setup () in
          let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
          let model = Bytes.make ((4 * ps) + 64) '\000' in
          List.iteri
            (fun i (pos, len) ->
              let data = Util.pattern_bytes ~seed:(i + 1) len in
              Sp_vm.Vmm.write m ~pos data;
              Bytes.blit data 0 model pos len)
            writes;
          Sp_vm.Vmm.msync m;
          let stored =
            Ram_pager.peek ram ~pos:0 ~len:(Bytes.length model)
          in
          (* Compare only written regions: unwritten pager bytes are zero in
             both. *)
          Bytes.equal stored model))

(* qcheck model of the [Pager_lib] registry: random binds, removes,
   key and global destroys, and cache-domain kills checked after every
   step against an association list scanned naively.  A kill restarts
   the manager in a fresh domain and then fences every channel of the
   dead incarnation, by [live_cache], [live_channels_for_key] or a
   re-bind, so no dead channel survives into a later destroy. *)
type pl_op =
  | Bind of int * int
  | Remove of int
  | Destroy_key of int
  | Destroy_all
  | Kill of int * [ `Live_cache | `Live_keys | `Rebind ]

let pl_op_to_string = function
  | Bind (m, k) -> Printf.sprintf "bind m%d k%d" m k
  | Remove id -> Printf.sprintf "remove %d" id
  | Destroy_key k -> Printf.sprintf "destroy_key k%d" k
  | Destroy_all -> "destroy_all"
  | Kill (m, f) ->
      Printf.sprintf "kill m%d (%s)" m
        (match f with `Live_cache -> "live_cache" | `Live_keys -> "live_keys" | `Rebind -> "rebind")

let prop_pager_lib_model =
  let gen =
    QCheck2.Gen.(
      let* managers = int_range 1 4 and* keys = int_range 1 6 in
      let m = int_range 0 (managers - 1) and k = int_range 0 (keys - 1) in
      let op =
        frequency
          [
            (6, map2 (fun m k -> Bind (m, k)) m k);
            (2, map (fun id -> Remove id) (int_range 1 30));
            (1, map (fun k -> Destroy_key k) k);
            (1, pure Destroy_all);
            (1, map2 (fun m f -> Kill (m, f)) m (oneofl [ `Live_cache; `Live_keys; `Rebind ]));
          ]
      in
      triple (pure managers) (pure keys) (list_size (int_range 1 40) op))
  in
  let print (managers, keys, ops) =
    Printf.sprintf "%d managers, %d keys: %s" managers keys
      (String.concat "; " (List.map pl_op_to_string ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"pager_lib matches assoc-list model" ~print gen
       (fun (managers, keys, ops) ->
         Util.in_world (fun () ->
             let module PL = Sp_vm.Pager_lib in
             let reg = PL.create () in
             let key k = Printf.sprintf "k%d" k in
             let gen_of = Array.make managers 0 in
             let doms = Array.init managers (fun m -> Sp_obj.Sdomain.create (Printf.sprintf "m%d" m)) in
             let destroyed = ref 0 in
             let manager m =
               let dom = doms.(m) in
               {
                 V.cm_id = Printf.sprintf "m%d" m;
                 cm_domain = dom;
                 cm_connect =
                   (fun ~key:_ _ ->
                     {
                       V.c_domain = dom;
                       c_label = "model";
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
             let pager ~id:_ =
               {
                 V.p_domain = Sp_obj.Sdomain.create "pager";
                 p_label = "model";
                 p_page_in = (fun ~offset:_ ~size ~access:_ -> Bytes.create size);
                 p_page_out = (fun ~offset:_ _ -> ());
                 p_write_out = (fun ~offset:_ _ -> ());
                 p_sync = (fun ~offset:_ _ -> ());
                 p_sync_v = (fun _ -> ());
                 p_done_with = (fun () -> ());
                 p_exten = [];
               }
             in
             (* model: (id, manager, key, incarnation), in ascending id *)
             let model = ref [] and next_id = ref 0 and expect_destroyed = ref 0 in
             let dead (_, m, _, g) = g < gen_of.(m) in
             let model_bind m k =
               (match List.find_opt (fun (_, m', k', _) -> m' = m && k' = k) !model with
               | Some c when dead c -> model := List.filter (( != ) c) !model
               | _ -> ());
               match List.find_opt (fun (_, m', k', _) -> m' = m && k' = k) !model with
               | Some (id, _, _, _) -> id
               | None ->
                   incr next_id;
                   model := !model @ [ (!next_id, m, k, gen_of.(m)) ];
                   !next_id
             in
             let bind m k =
               let expected = model_bind m k in
               let got = (PL.bind reg ~key:(key k) ~make_pager:pager (manager m)).V.cr_channel_id in
               if got <> expected then
                 QCheck2.Test.fail_reportf "bind m%d k%d: channel %d, model %d" m k got expected
             in
             let ids_of chs = List.map (fun ch -> ch.PL.ch_id) chs in
             let check step =
               let fail fmt = QCheck2.Test.fail_reportf ("after %s: " ^^ fmt) step in
               if PL.channel_count reg <> List.length !model then
                 fail "channel_count %d, model %d" (PL.channel_count reg) (List.length !model);
               if ids_of (PL.channels reg) <> List.map (fun (id, _, _, _) -> id) !model then
                 fail "channels differ";
               for id = 0 to !next_id + 1 do
                 let want =
                   List.find_map
                     (fun (id', m, k, _) -> if id' = id then Some (Printf.sprintf "m%d" m, key k) else None)
                     !model
                 in
                 let got = Option.map (fun ch -> (ch.PL.ch_manager_id, ch.PL.ch_key)) (PL.find reg ~id) in
                 if got <> want then fail "find %d differs" id
               done;
               for k = 0 to keys - 1 do
                 let want = List.filter_map (fun (id, _, k', _) -> if k' = k then Some id else None) !model in
                 if ids_of (PL.channels_for_key reg ~key:(key k)) <> want then
                   fail "channels_for_key k%d: [%s], model [%s]" k
                     (String.concat "," (List.map string_of_int (ids_of (PL.channels_for_key reg ~key:(key k)))))
                     (String.concat "," (List.map string_of_int want))
               done;
               if !destroyed <> !expect_destroyed then
                 fail "%d caches destroyed, model %d" !destroyed !expect_destroyed
             in
             List.iter
               (fun op ->
                 (match op with
                 | Bind (m, k) -> bind m k
                 | Remove id ->
                     PL.remove reg id;
                     model := List.filter (fun (id', _, _, _) -> id' <> id) !model
                 | Destroy_key k ->
                     let gone, kept = List.partition (fun (_, _, k', _) -> k' = k) !model in
                     expect_destroyed := !expect_destroyed + List.length gone;
                     model := kept;
                     PL.destroy_key reg ~key:(key k)
                 | Destroy_all ->
                     expect_destroyed := !expect_destroyed + List.length !model;
                     model := [];
                     PL.destroy_all reg
                 | Kill (m, fence) ->
                     let stale = List.filter (fun (_, m', _, _) -> m' = m) !model in
                     Sp_obj.Sdomain.kill doms.(m);
                     doms.(m) <- Sp_obj.Sdomain.create (Printf.sprintf "m%d'" m);
                     gen_of.(m) <- gen_of.(m) + 1;
                     (match fence with
                     | `Live_cache ->
                         List.iter
                           (fun (id, _, _, _) ->
                             if PL.live_cache reg ~id <> None then
                               QCheck2.Test.fail_reportf "live_cache %d served a dead domain" id)
                           stale;
                         model := List.filter (fun c -> not (dead c)) !model
                     | `Live_keys ->
                         for k = 0 to keys - 1 do
                           let live = ids_of (PL.live_channels_for_key reg ~key:(key k)) in
                           model := List.filter (fun c -> not (dead c)) !model;
                           let want =
                             List.filter_map (fun (id, _, k', _) -> if k' = k then Some id else None) !model
                           in
                           if live <> want then
                             QCheck2.Test.fail_reportf "live_channels_for_key k%d differs" k
                         done
                     | `Rebind -> List.iter (fun (_, _, k, _) -> bind m k) stale);
                     (* the fenced channels are gone from both indexes *)
                     List.iter
                       (fun (id, _, k, _) ->
                         if PL.find reg ~id <> None || List.mem id (ids_of (PL.channels_for_key reg ~key:(key k)))
                         then QCheck2.Test.fail_reportf "fenced channel %d still indexed" id)
                       stale);
                 check (pl_op_to_string op))
               ops;
             true)))

let test_readahead () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (16 * ps));
      Sp_vm.Vmm.set_readahead vmm ~pages:7;
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = Sp_sim.Metrics.snapshot () in
      (* Sequential read of 16 pages: first fault is not part of a run;
         the second triggers an 8-page batch; etc. *)
      for i = 0 to 15 do
        ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:ps)
      done;
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check bool)
        (Printf.sprintf "page-ins collapse (%d <= 4)" d.Sp_sim.Metrics.page_ins)
        true
        (d.Sp_sim.Metrics.page_ins <= 4);
      (* Data is still correct. *)
      Util.check_bytes "sequential content intact"
        (Util.pattern_bytes (16 * ps))
        (Sp_vm.Vmm.read m ~pos:0 ~len:(16 * ps)))

let test_readahead_random_access_not_triggered () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (16 * ps));
      Sp_vm.Vmm.set_readahead vmm ~pages:7;
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = Sp_sim.Metrics.snapshot () in
      (* Stride-2 access never continues a run. *)
      for i = 0 to 7 do
        ignore (Sp_vm.Vmm.read m ~pos:(2 * i * ps) ~len:16)
      done;
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "one page-in per random fault" 8 d.Sp_sim.Metrics.page_ins)

let test_readahead_writes_stay_coherent () =
  (* Read-ahead pages are read-only; writing one must fault RW through the
     pager like any other page. *)
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (4 * ps));
      Sp_vm.Vmm.set_readahead vmm ~pages:3;
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:ps);
      ignore (Sp_vm.Vmm.read m ~pos:ps ~len:ps);
      (* pages 1..3 now cached read-only via read-ahead *)
      let before = Sp_sim.Metrics.snapshot () in
      Sp_vm.Vmm.write m ~pos:(2 * ps) (Util.bytes_of_string "RW");
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "upgrade faulted" 1 d.Sp_sim.Metrics.page_faults;
      Sp_vm.Vmm.msync m;
      Util.check_str "write landed" "RW" (Ram_pager.peek ram ~pos:(2 * ps) ~len:2))

let test_capacity_bound () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (16 * ps));
      Sp_vm.Vmm.set_capacity vmm ~pages:(Some 4);
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      for i = 0 to 15 do
        ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:16)
      done;
      Alcotest.(check bool)
        (Printf.sprintf "cache bounded (%d <= 4)" (Sp_vm.Vmm.total_cached_pages vmm))
        true
        (Sp_vm.Vmm.total_cached_pages vmm <= 4);
      Alcotest.(check bool) "evictions happened" true (Sp_vm.Vmm.evictions vmm >= 12);
      (* Data still correct after refault. *)
      Util.check_bytes "data intact under pressure"
        (Bytes.sub (Util.pattern_bytes (16 * ps)) 0 ps)
        (Sp_vm.Vmm.read m ~pos:0 ~len:ps))

let test_eviction_preserves_dirty () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Sp_vm.Vmm.set_capacity vmm ~pages:(Some 2);
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      (* Dirty several pages; eviction must push them to the pager, so no
         update is lost even without msync. *)
      for i = 0 to 7 do
        Sp_vm.Vmm.write m ~pos:(i * ps) (Util.pattern_bytes ~seed:(i + 1) 64)
      done;
      Sp_vm.Vmm.msync m;
      for i = 0 to 7 do
        Util.check_bytes
          (Printf.sprintf "page %d survived eviction" i)
          (Util.pattern_bytes ~seed:(i + 1) 64)
          (Ram_pager.peek ram ~pos:(i * ps) ~len:64)
      done)

let test_lru_order () =
  Util.in_world (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (8 * ps));
      Sp_vm.Vmm.set_capacity vmm ~pages:(Some 3);
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:4);        (* page 0 *)
      ignore (Sp_vm.Vmm.read m ~pos:ps ~len:4);       (* page 1 *)
      ignore (Sp_vm.Vmm.read m ~pos:(2 * ps) ~len:4); (* page 2 *)
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:4);        (* refresh page 0 *)
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:(3 * ps) ~len:4); (* evicts page 1 (LRU) *)
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:4);        (* page 0 still cached *)
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "only the new page faulted" 1 d.Sp_sim.Metrics.page_faults)

(* A prefetched page replaced in place (here by the write's upgrade
   fault) retires as wasted read-ahead, like one dropped untouched. *)
let test_readahead_replaced_counts_wasted () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (8 * ps));
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:ps);
      ignore (Sp_vm.Vmm.read m ~pos:ps ~len:ps);
      Alcotest.(check (list int)) "pages 2-3 prefetched" [ 0; 1; 2; 3 ]
        (Sp_vm.Vmm.resident_pages m);
      Sp_vm.Vmm.write m ~pos:(2 * ps) (Util.bytes_of_string "W");
      Sp_vm.Vmm.drop_caches vmm;
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "no read-ahead hits" 0 d.Sp_sim.Metrics.readahead_hits;
      Alcotest.(check int) "both prefetched pages wasted" 2 d.Sp_sim.Metrics.readahead_wasted)

(* Evicting a clean page at capacity allocates nothing: a fault that
   evicts costs the same minor words as one that finds a free slot. *)
let test_eviction_allocation () =
  Util.in_world (fun () ->
      let cap = 32 and rounds = 200 in
      let vmm, ram = setup () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes ((cap + (2 * rounds) + 2) * ps));
      Sp_vm.Vmm.set_capacity vmm ~pages:(Some cap);
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let cache =
        match Ram_pager.channels ram with
        | [ ch ] -> ch.Sp_vm.Pager_lib.ch_cache
        | _ -> Alcotest.fail "expected one channel"
      in
      for i = 0 to cap - 1 do
        ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:1)
      done;
      let next = ref cap in
      let fault () =
        let w0 = Gc.minor_words () in
        ignore (Sp_vm.Vmm.read m ~pos:(!next * ps) ~len:1);
        incr next;
        Gc.minor_words () -. w0
      in
      let evicting = ref 0. and free = ref 0. in
      for _ = 1 to rounds do
        (* at capacity: this fault evicts *)
        evicting := !evicting +. fault ();
        (* free the slot it took, so the next fault evicts nothing *)
        V.delete_range cache ~offset:((!next - 1) * ps) ~size:ps;
        free := !free +. fault ()
      done;
      Alcotest.(check int) "one eviction per evicting fault" rounds (Sp_vm.Vmm.evictions vmm);
      Alcotest.(check (float 0.)) "eviction allocates nothing" 0.
        ((!evicting -. !free) /. float_of_int rounds))

(* qcheck model of VMM eviction: a pure LRU reference (min-stamp fold
   over a table of resident (file, page) pairs) run beside the real VMM
   on random faults, hits, writes, range drops, downgrades, zero-fills,
   cache-object destroys, pager reconnects, [drop_caches] and capacity
   changes over several files.  After every step the exact resident set
   of each file, the eviction count and the O(1) resident total must
   match. *)
type vm_op =
  | Read of int * int
  | Write of int * int
  | Flush_back of int * int
  | Delete_range of int * int
  | Deny_writes of int
  | Zero_fill of int * int
  | Destroy of int
  | Reconnect of int
  | Drop_caches
  | Capacity of int option

let vm_files = 3
let vm_pages = 8

let vm_op_to_string = function
  | Read (f, p) -> Printf.sprintf "read %d:%d" f p
  | Write (f, p) -> Printf.sprintf "write %d:%d" f p
  | Flush_back (f, p) -> Printf.sprintf "flush_back %d:%d+2" f p
  | Delete_range (f, p) -> Printf.sprintf "delete_range %d:%d+2" f p
  | Deny_writes f -> Printf.sprintf "deny_writes %d" f
  | Zero_fill (f, p) -> Printf.sprintf "zero_fill %d:%d" f p
  | Destroy f -> Printf.sprintf "destroy %d" f
  | Reconnect f -> Printf.sprintf "reconnect %d" f
  | Drop_caches -> "drop_caches"
  | Capacity None -> "capacity none"
  | Capacity (Some c) -> Printf.sprintf "capacity %d" c

type vm_model = {
  resident : (int * int, int * V.access) Hashtbl.t;  (* stamp, mode *)
  mutable clock : int;
  mutable cap : int option;
  mutable evicted : int;
}

let vm_model_step m op =
  let stamp () =
    m.clock <- m.clock + 1;
    m.clock
  in
  let insert key mode =
    (match m.cap with
    | Some c ->
        let guard = ref (2 * c) in
        while Hashtbl.length m.resident >= c && !guard > 0 do
          let oldest, _ =
            Hashtbl.fold
              (fun k (s, _) (bk, bs) -> if s < bs then (k, s) else (bk, bs))
              m.resident ((-1, -1), max_int)
          in
          Hashtbl.remove m.resident oldest;
          m.evicted <- m.evicted + 1;
          decr guard
        done
    | None -> ());
    Hashtbl.replace m.resident key (stamp (), mode)
  in
  let drop_where p =
    List.iter (Hashtbl.remove m.resident)
      (Hashtbl.fold (fun k _ acc -> if p k then k :: acc else acc) m.resident [])
  in
  match op with
  | Read (f, p) -> (
      match Hashtbl.find_opt m.resident (f, p) with
      | Some (_, mode) -> Hashtbl.replace m.resident (f, p) (stamp (), mode)
      | None -> insert (f, p) V.Read_only)
  | Write (f, p) -> (
      match Hashtbl.find_opt m.resident (f, p) with
      | Some (_, V.Read_write) -> Hashtbl.replace m.resident (f, p) (stamp (), V.Read_write)
      | _ -> insert (f, p) V.Read_write)
  | Flush_back (f, p) | Delete_range (f, p) ->
      drop_where (fun (f', p') -> f' = f && p' >= p && p' < p + 2)
  | Deny_writes f ->
      Hashtbl.filter_map_inplace
        (fun (f', _) (s, mode) -> Some (s, if f' = f then V.Read_only else mode))
        m.resident
  | Zero_fill (f, p) -> insert (f, p) V.Read_only
  | Destroy f | Reconnect f -> drop_where (fun (f', _) -> f' = f)
  | Drop_caches -> Hashtbl.reset m.resident
  | Capacity c -> m.cap <- c

let prop_vmm_eviction_model =
  let gen =
    QCheck2.Gen.(
      let f = int_range 0 (vm_files - 1) and p = int_range 0 (vm_pages - 1) in
      let op =
        frequency
          [
            (10, map2 (fun f p -> Read (f, p)) f p);
            (4, map2 (fun f p -> Write (f, p)) f p);
            (1, map2 (fun f p -> Flush_back (f, p)) f p);
            (1, map2 (fun f p -> Delete_range (f, p)) f p);
            (1, map (fun f -> Deny_writes f) f);
            (1, map2 (fun f p -> Zero_fill (f, p)) f p);
            (1, map (fun f -> Destroy f) f);
            (1, map (fun f -> Reconnect f) f);
            (1, pure Drop_caches);
            (1, map (fun c -> Capacity c) (opt ~ratio:0.8 (int_range 1 10)));
          ]
      in
      pair (opt ~ratio:0.8 (int_range 1 10)) (list_size (int_range 1 80) op))
  in
  let print (cap, ops) =
    Printf.sprintf "capacity %s: %s"
      (match cap with None -> "none" | Some c -> string_of_int c)
      (String.concat "; " (List.map vm_op_to_string ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"vmm eviction matches LRU model" ~print gen
       (fun (cap, ops) ->
         Util.in_world (fun () ->
             let module Vmm = Sp_vm.Vmm in
             let vmm = Vmm.create ~node:"local" "model" in
             Vmm.set_capacity vmm ~pages:cap;
             (* each file's pager can be replaced by a fresh incarnation
                (same label, so same cache key) to force a reconnect *)
             let pager f =
               let ram = Ram_pager.create ~label:(Printf.sprintf "f%d" f) () in
               Ram_pager.poke ram ~pos:0 (Util.pattern_bytes ~seed:(f + 1) (vm_pages * ps));
               (ram, Vmm.map vmm (Ram_pager.memory_object ram))
             in
             let files = Array.init vm_files pager in
             let cache f =
               match Ram_pager.channels (fst files.(f)) with
               | [ ch ] -> ch.Sp_vm.Pager_lib.ch_cache
               | _ -> QCheck2.Test.fail_reportf "file %d: expected one channel" f
             in
             let model = { resident = Hashtbl.create 16; clock = 0; cap; evicted = 0 } in
             List.iteri
               (fun i op ->
                 let mp f = snd files.(f) in
                 (match op with
                 | Read (f, p) -> ignore (Vmm.read (mp f) ~pos:(p * ps) ~len:1)
                 | Write (f, p) -> Vmm.write (mp f) ~pos:(p * ps) (Bytes.make 1 'w')
                 | Flush_back (f, p) ->
                     ignore (V.flush_back (cache f) ~offset:(p * ps) ~size:(2 * ps))
                 | Delete_range (f, p) -> V.delete_range (cache f) ~offset:(p * ps) ~size:(2 * ps)
                 | Deny_writes f ->
                     ignore (V.deny_writes (cache f) ~offset:0 ~size:(vm_pages * ps))
                 | Zero_fill (f, p) -> V.zero_fill (cache f) ~offset:(p * ps) ~size:ps
                 | Destroy f ->
                     V.destroy_cache (cache f);
                     files.(f) <- pager f
                 | Reconnect f -> files.(f) <- pager f
                 | Drop_caches -> Vmm.drop_caches vmm
                 | Capacity c -> Vmm.set_capacity vmm ~pages:c);
                 vm_model_step model op;
                 let fail fmt =
                   QCheck2.Test.fail_reportf ("step %d (%s): " ^^ fmt) i (vm_op_to_string op)
                 in
                 for f = 0 to vm_files - 1 do
                   let want =
                     List.sort Int.compare
                       (Hashtbl.fold
                          (fun (f', p) _ acc -> if f' = f then p :: acc else acc)
                          model.resident [])
                   and got = Vmm.resident_pages (mp f) in
                   if got <> want then
                     fail "file %d resident [%s], model [%s]" f
                       (String.concat "," (List.map string_of_int got))
                       (String.concat "," (List.map string_of_int want))
                 done;
                 if Vmm.evictions vmm <> model.evicted then
                   fail "%d evictions, model %d" (Vmm.evictions vmm) model.evicted;
                 let sum = Array.fold_left (fun acc (_, m) -> acc + Vmm.cached_pages m) 0 files in
                 if Vmm.total_cached_pages vmm <> sum then
                   fail "total_cached_pages %d, per-mapping sum %d" (Vmm.total_cached_pages vmm) sum)
               ops;
             true)))

let test_capacity_validation () =
  Util.in_world (fun () ->
      let vmm, _ = setup () in
      Alcotest.check_raises "zero rejected" (Invalid_argument "Vmm.set_capacity")
        (fun () -> Sp_vm.Vmm.set_capacity vmm ~pages:(Some 0)))

let suite =
  [
    Alcotest.test_case "page geometry" `Quick test_page_geometry;
    Alcotest.test_case "map/read/write/msync" `Quick test_map_read_write;
    Alcotest.test_case "faults then hits" `Quick test_faults_and_hits;
    Alcotest.test_case "write upgrades mode" `Quick test_write_upgrades_mode;
    Alcotest.test_case "equivalent objects share cache" `Quick test_cache_unification;
    Alcotest.test_case "fig2: two VMMs, two channels" `Quick test_two_vmms_two_channels;
    Alcotest.test_case "deny_writes" `Quick test_deny_writes;
    Alcotest.test_case "flush_back" `Quick test_flush_back;
    Alcotest.test_case "write_back retains" `Quick test_write_back_retains;
    Alcotest.test_case "delete_range discards" `Quick test_delete_range_discards;
    Alcotest.test_case "populate and zero_fill" `Quick test_populate_and_zero_fill;
    Alcotest.test_case "unmap pushes dirty" `Quick test_unmap_pushes_dirty;
    Alcotest.test_case "drop_caches" `Quick test_drop_caches;
    Alcotest.test_case "set_length" `Quick test_set_length;
    Alcotest.test_case "readahead batches sequential faults" `Quick test_readahead;
    Alcotest.test_case "readahead skips random access" `Quick
      test_readahead_random_access_not_triggered;
    Alcotest.test_case "readahead pages upgrade correctly" `Quick
      test_readahead_writes_stay_coherent;
    Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
    Alcotest.test_case "eviction preserves dirty data" `Quick
      test_eviction_preserves_dirty;
    Alcotest.test_case "lru order" `Quick test_lru_order;
    Alcotest.test_case "capacity validation" `Quick test_capacity_validation;
    Alcotest.test_case "replaced prefetched page counts as wasted" `Quick
      test_readahead_replaced_counts_wasted;
    Alcotest.test_case "clean eviction allocates nothing" `Quick test_eviction_allocation;
    prop_writes_match_model;
    prop_pager_lib_model;
    prop_vmm_eviction_model;
  ]
