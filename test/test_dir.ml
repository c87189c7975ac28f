(* Sp_dir and its integration: indexed directories (flat/indexed
   equivalence, cold remount, fsck's dirindex category, crash sweep over
   the htree split) and name-cache coherence against namespace mutations
   and supervised restart. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module DL = Sp_sfs.Disk_layer
module C = Sp_naming.Context
module NC = Sp_naming.Name_cache
module N = Sp_naming.Sname
module Disk = Sp_blockdev.Disk

let uid = ref 0

let tag p =
  incr uid;
  Printf.sprintf "%s%d" p !uid

(* A bare disk-layer volume with a directory "d"; [dir_index:false]
   keeps it flat past the upgrade threshold. *)
let fresh_fs ?(blocks = 4096) ?(journal = false) ?(dir_index = true) p =
  let t = tag p in
  let disk = Disk.create ~label:(t ^ ".dev") ~blocks () in
  DL.mkfs ~journal disk;
  let fs = DL.mount ~dir_index ~name:t disk in
  S.mkdir fs (N.of_string "d");
  (disk, fs)

let fname i = Printf.sprintf "d/n%03d" i

(* ------------------------------------------------------------------ *)
(* Indexed directories                                                 *)
(* ------------------------------------------------------------------ *)

(* Crossing the upgrade threshold must not change observable contents,
   on the live mount or after a cold remount. *)
let test_upgrade_preserves_contents () =
  Util.in_world (fun () ->
      let disk, fs = fresh_fs "up" in
      let n = 200 in
      for i = 0 to n - 1 do
        ignore (S.create fs (N.of_string (fname i)))
      done;
      let expect =
        List.init n (fun i -> Printf.sprintf "n%03d" i) |> List.sort compare
      in
      Alcotest.(check (list string))
        "all entries listed" expect
        (S.listdir fs (N.of_string "d"));
      for i = 0 to n - 1 do
        ignore (S.open_file fs (N.of_string (fname i)))
      done;
      for i = 0 to n - 1 do
        if i mod 4 = 0 then S.remove fs (N.of_string (fname i))
      done;
      let expect =
        List.filter (fun s -> int_of_string (String.sub s 1 3) mod 4 <> 0) expect
      in
      Alcotest.(check (list string))
        "after removals" expect
        (S.listdir fs (N.of_string "d"));
      S.sync fs;
      let fs' = DL.mount ~name:(tag "up-re") disk in
      Alcotest.(check (list string))
        "cold remount agrees" expect
        (S.listdir fs' (N.of_string "d")))

(* Cursor batches partition the listing: bounded, disjoint, complete,
   terminated by the cookie (never by an empty batch). *)
let test_cursor_batches () =
  Util.in_world (fun () ->
      let _disk, fs = fresh_fs "cur" in
      for i = 0 to 199 do
        ignore (S.create fs (N.of_string (fname i)))
      done;
      let rec drain cookie acc =
        let batch, next = S.readdir fs (N.of_string "d") ~cookie ~limit:7 in
        Alcotest.(check bool) "batch bounded" true (List.length batch <= 7);
        let acc = acc @ batch in
        match next with Some c -> drain c acc | None -> acc
      in
      let got = drain 0 [] |> List.sort compare in
      Alcotest.(check (list string))
        "batches cover the directory"
        (List.init 200 (fun i -> Printf.sprintf "n%03d" i) |> List.sort compare)
        got)

(* Random create/remove/rename schedules observe identically on a flat
   (index disabled) and an indexed volume, live and after remount. *)
let prop_flat_indexed_equivalence =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 80) (triple (int_range 0 2) (int_range 0 47) (int_range 0 47)))
  in
  Util.qcheck_case ~count:12 "flat/indexed equivalence" gen (fun ops ->
      Util.in_world (fun () ->
          let disk_f, flat = fresh_fs ~dir_index:false "eqf" in
          let disk_i, indexed = fresh_fs ~dir_index:true "eqi" in
          (* Both volumes start past the upgrade threshold. *)
          List.iter
            (fun fs ->
              for i = 0 to 139 do
                ignore (S.create fs (N.of_string (fname i)))
              done)
            [ flat; indexed ];
          let nm k = N.of_string (Printf.sprintf "d/q%02d" k) in
          let apply fs op =
            try
              (match op with
              | 0, k, _ -> ignore (S.create fs (nm k))
              | 1, k, _ -> S.remove fs (nm k)
              | _, k, k' -> S.rename fs ~src:(nm k) ~dst:(nm k'))
              ; `Ok
            with _ -> `Err
          in
          let ok = ref true in
          List.iter
            (fun op ->
              if apply flat op <> apply indexed op then ok := false)
            ops;
          let agree a b = List.sort compare a = List.sort compare b in
          if not (agree (S.listdir flat (N.of_string "d"))
                    (S.listdir indexed (N.of_string "d")))
          then ok := false;
          for k = 0 to 47 do
            let seen fs =
              match S.open_file fs (nm k) with
              | _ -> true
              | exception _ -> false
            in
            if seen flat <> seen indexed then ok := false
          done;
          S.sync flat;
          S.sync indexed;
          let flat' = DL.mount ~name:(tag "eqf-re") disk_f in
          let indexed' = DL.mount ~name:(tag "eqi-re") disk_i in
          if not (agree (S.listdir flat' (N.of_string "d"))
                    (S.listdir indexed' (N.of_string "d")))
          then ok := false;
          !ok))

(* ------------------------------------------------------------------ *)
(* Fsck: the dirindex category                                         *)
(* ------------------------------------------------------------------ *)

let test_fsck_dirindex () =
  Util.in_world (fun () ->
      let disk, fs = fresh_fs "fd" in
      for i = 0 to 199 do
        ignore (S.create fs (N.of_string (fname i)))
      done;
      S.sync fs;
      Alcotest.(check bool) "clean volume has no problems" true
        (Sp_sfs.Fsck.check disk = []);
      (* Zero a used leaf slot behind the fs's back: the header's entry
         count now disagrees with the leaves. *)
      let smashed = ref false in
      for b = 0 to Disk.block_count disk - 1 do
        if not !smashed then begin
          let blk = Disk.read disk b in
          if Sp_dir.Index.is_leaf blk then
            match Sp_dir.Entry.decode blk 64 with
            | Some _ ->
                Bytes.blit Sp_dir.Entry.free_slot 0 blk 64
                  Sp_dir.Entry.entry_size;
                Disk.write disk b blk;
                smashed := true
            | None -> ()
        end
      done;
      Alcotest.(check bool) "found a populated leaf to smash" true !smashed;
      let dirindex =
        List.filter
          (function Sp_sfs.Fsck.Dir_index _ -> true | _ -> false)
          (Sp_sfs.Fsck.check disk)
      in
      Alcotest.(check bool) "fsck reports a dirindex problem" true
        (dirindex <> []))

(* A rotted name length byte: longer than any name [encode] writes, so
   a decoder that trusted it would read the next slot's bytes (slot 0)
   or run off the block (slot 62, the last before the trailer).  Both
   must decode to nothing, and fsck must report the slots instead of
   escaping with an exception. *)
let test_fsck_damaged_name_length () =
  Util.in_world (fun () ->
      let t = tag "dl" in
      let disk = Disk.create ~label:(t ^ ".dev") ~blocks:4096 () in
      DL.mkfs ~checksums:false disk;
      let fs = DL.mount ~name:t disk in
      S.mkdir fs (N.of_string "d");
      for i = 0 to 199 do
        ignore (S.create fs (N.of_string (fname i)))
      done;
      S.sync fs;
      let es = Sp_dir.Entry.entry_size in
      let last = (Sp_dir.Index.entries_per_leaf - 1) * es in
      let forged = ref false in
      for b = 0 to Disk.block_count disk - 1 do
        if not !forged then begin
          let blk = Disk.read disk b in
          if Sp_dir.Index.is_leaf blk && Sp_dir.Entry.decode blk 0 <> None then begin
            Bytes.set_uint8 blk 5 70;
            Bytes.set_uint8 blk (last + 5) 200;
            Disk.write disk b blk;
            forged := true;
            Alcotest.(check bool) "slot 0 decodes to nothing" true
              (Sp_dir.Entry.decode blk 0 = None);
            Alcotest.(check bool) "slot 62 decodes to nothing" true
              (Sp_dir.Entry.decode blk last = None)
          end
        end
      done;
      Alcotest.(check bool) "found a leaf to forge" true !forged;
      (* "d" is inode 1, the first one allocated after the root. *)
      let faults =
        List.filter_map
          (function Sp_sfs.Fsck.Dir_index (ino, what) -> Some (ino, what) | _ -> None)
          (Sp_sfs.Fsck.check disk)
      in
      Alcotest.(check (list int)) "faults name the directory" [ 1 ]
        (List.sort_uniq compare (List.map fst faults));
      Alcotest.(check bool) "the damaged slots are reported" true
        (List.mem (1, "2 slot(s) with a damaged name length") faults))

(* ------------------------------------------------------------------ *)
(* Allocation bounds of index queries and updates                      *)
(* ------------------------------------------------------------------ *)

(* An index over an in-memory block array: [read] hands out the stored
   block and [write] stores what it is given, as the disk layer's cache
   does. *)
let mem_index ~entries =
  let blocks = Array.make 4 Bytes.empty in
  let io =
    {
      Sp_dir.Index.read = (fun fb -> blocks.(fb));
      write = (fun fb b -> blocks.(fb) <- b);
    }
  in
  let ents =
    List.init entries (fun i ->
        { Sp_dir.Entry.ino = i + 1; is_dir = false; name = Printf.sprintf "e%03d" i })
  in
  ignore (Sp_dir.Index.build io ~entries:ents ~buckets:1 ~start:1 : int);
  io

(* A miss scans all 62 entries of the one leaf: compared in place, not
   decoded into records. *)
let test_lookup_miss_allocation () =
  let io = mem_index ~entries:62 in
  let words =
    Util.words_per_call (fun () -> ignore (Sp_dir.Index.lookup io "absent" : _ option))
  in
  if words > 32. then
    Alcotest.failf "lookup miss allocates %.0f words (bound 32)" words

(* An add then remove of one name patches the cached leaf and root in
   place: less than one 4 KiB block of allocation for the pair. *)
let test_add_remove_allocation () =
  let io = mem_index ~entries:62 in
  let e = { Sp_dir.Entry.ino = 99; is_dir = false; name = "churn" } in
  let words =
    Util.words_per_call (fun () ->
        Sp_dir.Index.add io e;
        ignore (Sp_dir.Index.remove io "churn" : bool))
  in
  if words > 128. then
    Alcotest.failf "add + remove allocates %.0f words (bound 128)" words;
  Alcotest.(check int) "round trips leave the count" 62
    (Sp_dir.Index.read_header io).Sp_dir.Index.entries

(* ------------------------------------------------------------------ *)
(* The disk layer's directory path                                     *)
(* ------------------------------------------------------------------ *)

let link_name i = Printf.sprintf "l%04d" i

(* A volume whose directory "d" holds [n] hard links to one file "f",
   so its size costs no inodes.  Past 1024 names the index has been
   rebuilt twice (the upgrade at 129 names, growth at 1025): every leaf
   then lies past the 12 direct blocks, behind the indirect block, and
   the extents before it are punched holes. *)
let linked_dir ?journal n =
  let disk, fs = fresh_fs ?journal "ln" in
  let f = F.File (S.create fs (N.of_string "f")) in
  let d = C.resolve_context fs.S.sfs_ctx (N.of_string "d") in
  for i = 0 to n - 1 do
    C.bind d (N.of_string (link_name i)) f
  done;
  (disk, fs, f, d)

(* A create + remove pair through the disk layer's own block cache and
   block map: the leaf each writes lies past file block 12, and mapping
   an already-mapped block copies no indirect table (one 4 KiB copy
   alone is 513 words). *)
let test_churn_allocation () =
  Util.in_world (fun () ->
      let _disk, fs, f, d = linked_dir ~journal:true 1100 in
      S.sync fs;
      let churn = N.of_string "churn" in
      let words =
        Util.words_per_call (fun () ->
            C.bind d churn f;
            C.unbind d churn)
      in
      if words > 512. then
        Alcotest.failf "bind + unbind allocates %.0f words (bound 512)" words)

(* One 32-name readdir page from cookie 0 skips the punched holes by a
   slot read each and builds the names straight from the leaf. *)
let test_readdir_page_allocation () =
  Util.in_world (fun () ->
      let _disk, fs, _f, _d = linked_dir ~journal:true 1100 in
      let dir = N.of_string "d" in
      let words =
        Util.words_per_call (fun () ->
            let page, next = S.readdir fs dir ~cookie:0 ~limit:32 in
            if List.length page <> 32 || next = None then
              Alcotest.fail "a page of 32 names and a cookie")
      in
      if words > 480. then
        Alcotest.failf "a 32-name readdir page allocates %.0f words (bound 480)" words)

(* Every name in "d", read in cookie-resumed pages of 7. *)
let paged fs =
  let dir = N.of_string "d" in
  let rec go cookie acc =
    let batch, next = S.readdir fs dir ~cookie ~limit:7 in
    let acc = List.rev_append batch acc in
    match next with Some c -> go c acc | None -> acc
  in
  List.sort compare (go 0 [])

(* The block cache against a model, through three rebuilds (the
   upgrade, growth at 1025 and at 2049 names) and removals that leave
   free slots: live, after [drop_caches] and after a cold remount.  A
   directory made after the emptied one is removed reuses its inode and
   must see none of its blocks, also once it passes one flat block and
   its block 0 is read for the format test. *)
let test_dir_cache_model () =
  Util.in_world (fun () ->
      let n = 2100 in
      let disk, fs, _f, d = linked_dir ~journal:true n in
      for i = 0 to n - 1 do
        if i mod 3 = 0 then C.unbind d (N.of_string (link_name i))
      done;
      let model =
        List.filter (fun s -> int_of_string (String.sub s 1 4) mod 3 <> 0)
          (List.init n link_name)
      in
      Alcotest.(check (list string)) "live pages" model (paged fs);
      S.drop_caches fs;
      Alcotest.(check (list string)) "after drop_caches" model (paged fs);
      S.sync fs;
      let fs' = DL.mount ~name:(tag "ln-re") disk in
      Alcotest.(check (list string)) "after a cold remount" model (paged fs');
      Alcotest.(check bool) "fsck is clean" true (Sp_sfs.Fsck.check disk = []);
      let label path = (C.resolve_context fs'.S.sfs_ctx (N.of_string path)).C.ctx_label in
      let old_label = label "d" in
      List.iter (fun s -> S.remove fs' (N.of_string ("d/" ^ s))) model;
      S.remove fs' (N.of_string "d");
      S.mkdir fs' (N.of_string "e");
      Alcotest.(check string) "the new directory reuses the inode" old_label (label "e");
      Alcotest.(check (list string)) "a reused inode lists nothing" []
        (S.listdir fs' (N.of_string "e"));
      let f' = F.File (S.open_file fs' (N.of_string "f")) in
      let e = C.resolve_context fs'.S.sfs_ctx (N.of_string "e") in
      let fresh = List.init 70 (fun i -> Printf.sprintf "m%02d" i) in
      List.iter (fun s -> C.bind e (N.of_string s) f') fresh;
      Alcotest.(check (list string)) "and lists only its own names" fresh
        (S.listdir fs' (N.of_string "e")))

(* ------------------------------------------------------------------ *)
(* Crash sweep over the htree split                                    *)
(* ------------------------------------------------------------------ *)

(* Drive a directory from flat through the upgrade and first growth;
   two syncs put device writes both before and after the split. *)
let split_workload fs =
  for i = 0 to 119 do
    ignore (S.create fs (N.of_string (fname i)))
  done;
  S.sync fs;
  for i = 120 to 159 do
    ignore (S.create fs (N.of_string (fname i)))
  done;
  S.sync fs

let split_writes ~journal =
  Util.in_world (fun () ->
      let disk, fs = fresh_fs ~journal "cw" in
      let before = (Disk.stats disk).Disk.writes in
      split_workload fs;
      (Disk.stats disk).Disk.writes - before)

(* Crash at device write [crash_at] of the split workload; recover and
   return structural fsck problems plus whether the remounted directory
   walks coherently (every listed name opens). *)
let split_point ~journal ~label ~crash_at =
  Util.in_world (fun () ->
      let t = tag label in
      let disk = Disk.create ~label:(t ^ ".dev") ~blocks:4096 () in
      DL.mkfs ~journal ~checksums:false disk;
      let fs = DL.mount ~name:t disk in
      S.mkdir fs (N.of_string "d");
      let plan =
        Sp_fault.plan ~seed:crash_at
          [
            Sp_fault.rule ~point:"disk.write" ~label:(t ^ ".dev")
              ~after:(crash_at - 1) ~count:1 Sp_fault.Fail_stop;
          ]
      in
      (match Sp_fault.with_plan plan (fun () -> split_workload fs) with
      | () -> ()
      | exception Sp_fault.Crash _ -> ());
      ignore (DL.recover disk);
      let problems = Sp_sfs.Fsck.check disk in
      let coherent =
        let fs' = DL.mount ~name:(tag "cw-re") disk in
        match S.listdir fs' (N.of_string "d") with
        | names ->
            List.for_all
              (fun n ->
                match S.open_file fs' (N.of_string ("d/" ^ n)) with
                | _ -> true
                | exception _ -> false)
              names
        (* Before the first commit the consistent cut has no "d" at all. *)
        | exception (Sp_core.Fserr.No_such_file _ | C.Unbound _) -> true
        | exception _ -> false
      in
      (problems, coherent))

let test_split_crash_journaled () =
  let writes = split_writes ~journal:true in
  Alcotest.(check bool) "workload writes the device" true (writes > 0);
  let stride = max 1 (writes / 40) in
  let pt = ref 1 in
  while !pt <= writes do
    let problems, coherent =
      split_point ~journal:true ~label:"cwj" ~crash_at:!pt
    in
    if problems <> [] then
      Alcotest.failf "crash point %d: fsck found %a" !pt Sp_sfs.Fsck.pp_problem
        (List.hd problems);
    if not coherent then
      Alcotest.failf "crash point %d: recovered directory incoherent" !pt;
    pt := !pt + stride
  done

(* Without the journal the same sweep must catch the split mid-flight at
   some point — the control that proves the injector bites. *)
let test_split_crash_unjournaled_control () =
  let writes = split_writes ~journal:false in
  let stride = max 1 (writes / 40) in
  let bad = ref false in
  let pt = ref 1 in
  while (not !bad) && !pt <= writes do
    let problems, coherent =
      split_point ~journal:false ~label:"cwu" ~crash_at:!pt
    in
    if problems <> [] || not coherent then bad := true;
    pt := !pt + stride
  done;
  Alcotest.(check bool)
    "some unjournaled crash point is inconsistent" true !bad

(* ------------------------------------------------------------------ *)
(* Name-cache coherence                                                *)
(* ------------------------------------------------------------------ *)

(* Warm hits on the two-domain stack cross no domains (paper §6.4: open
   overhead "can be eliminated by name caching"). *)
let test_cache_zero_crossings_warm () =
  Util.in_world (fun () ->
      let t = tag "nz" in
      let vmm = Sp_vm.Vmm.create ~node:t ("vmm-" ^ t) in
      let disk = Disk.create ~label:(t ^ ".dev") ~blocks:1024 () in
      DL.mkfs disk;
      let fs =
        Sp_coherency.Spring_sfs.make_split ~node:t ~vmm ~name:t
          ~same_domain:false disk
      in
      ignore (S.create fs (N.of_string "a"));
      let cache = NC.create ~capacity:8 () in
      ignore (S.open_file_cached cache fs (N.of_string "a"));
      let before = Sp_sim.Metrics.snapshot () in
      ignore (S.open_file_cached cache fs (N.of_string "a"));
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "warm open crosses no domains" 0
        d.Sp_sim.Metrics.cross_domain_calls;
      Alcotest.(check int) "hit counted" 1 (NC.stats cache).NC.hits)

(* Stale positives die on remove; stale negatives die on create. *)
let test_cache_mutation_coherence () =
  Util.in_world (fun () ->
      let _disk, fs = fresh_fs "nm" in
      let cache = NC.create ~capacity:8 () in
      ignore (S.create fs (N.of_string "d/a"));
      ignore (S.open_file_cached cache fs (N.of_string "d/a"));
      ignore (S.open_file_cached cache fs (N.of_string "d/a"));
      Alcotest.(check int) "warmed" 1 (NC.stats cache).NC.hits;
      S.remove fs (N.of_string "d/a");
      Alcotest.(check bool) "no stale positive after remove" true
        (match S.open_file_cached cache fs (N.of_string "d/a") with
        | _ -> false
        | exception Sp_core.Fserr.No_such_file _ -> true))

let test_cache_negative_dropped_on_create () =
  Util.in_world (fun () ->
      let _disk, fs = fresh_fs "nn" in
      let cache = NC.create ~capacity:8 () in
      (match S.open_file_cached cache fs (N.of_string "d/b") with
      | _ -> Alcotest.fail "unbound name resolved"
      | exception Sp_core.Fserr.No_such_file _ -> ());
      (match S.open_file_cached cache fs (N.of_string "d/b") with
      | _ -> Alcotest.fail "unbound name resolved"
      | exception Sp_core.Fserr.No_such_file _ -> ());
      Alcotest.(check bool) "negative entry served" true
        ((NC.stats cache).NC.negative_hits >= 1);
      ignore (S.create fs (N.of_string "d/b"));
      (match S.open_file_cached cache fs (N.of_string "d/b") with
      | _ -> ()
      | exception Sp_core.Fserr.No_such_file _ ->
          Alcotest.fail "stale negative served after create"))

(* Rebind through interposition: the cached resolution of d/x must not
   survive an interposer rebinding "d".  Interposition happens in a
   plain context tree (the disk layer's own contexts refuse rebind of a
   populated directory) holding a real file. *)
let test_cache_interpose_coherence () =
  Util.in_world (fun () ->
      let _disk, fs = fresh_fs "ni" in
      let f = S.create fs (N.of_string "d/x") in
      ignore (F.write f ~pos:0 (Bytes.of_string "plain"));
      let mk label =
        C.make ~domain:(Sp_obj.Sdomain.create ("ni:" ^ label)) ~label ()
      in
      let root = mk "root" and sub = mk "sub" in
      C.bind root (N.of_string "d") (C.Context sub);
      C.bind sub (N.of_string "x") (F.File f);
      let cache = NC.create ~capacity:8 () in
      let resolve () =
        match NC.resolve cache root (N.of_string "d/x") with
        | F.File g -> g
        | _ -> Alcotest.fail "d/x is not a file"
      in
      ignore (resolve ());
      ignore (resolve ());
      Alcotest.(check int) "warmed" 1 (NC.stats cache).NC.hits;
      let domain = Sp_obj.Sdomain.create "interposer" in
      ignore
        (Sp_core.Interpose.interpose_names ~domain ~root
           ~at:(N.of_string "d")
           ~select:(fun _ -> true)
           ~wrap:(Sp_core.Interpose.interpose_file ~domain
                    (Sp_core.Interpose.read_only_hooks ()))
           ());
      let g = resolve () in
      Alcotest.(check bool) "interposed file served, not the stale one" true
        (match F.write g ~pos:0 (Bytes.of_string "nope") with
        | _ -> false
        | exception Sp_core.Fserr.Read_only _ -> true))

(* Supervised restart: entries minted by the dead incarnation must be
   fenced, not handed out. *)
let test_cache_supervised_restart () =
  Util.in_world (fun () ->
      let t = tag "ns" in
      let disk = Disk.create ~label:(t ^ ".dev") ~blocks:1024 () in
      DL.mkfs ~journal:true disk;
      let vmm = Sp_vm.Vmm.create ~node:"local" (t ^ ".vmm") in
      let levels =
        [
          Sp_supervise.level ~name:(t ^ ".disk") (fun ~lower:_ ->
              DL.mount ~name:(t ^ ".disk") disk);
          Sp_supervise.level ~name:(t ^ ".coh") (fun ~lower ->
              let fs =
                Sp_coherency.Coherency_layer.make ~vmm ~name:(t ^ ".coh") ()
              in
              S.stack_on fs (Option.get lower);
              fs);
        ]
      in
      let sup = Sp_supervise.supervise ~name:t levels in
      Fun.protect ~finally:(fun () -> Sp_supervise.unsupervise sup)
      @@ fun () ->
      let fs = Sp_supervise.handle sup in
      let f = S.create fs (N.of_string "a") in
      ignore (F.write f ~pos:0 (Bytes.of_string "survives"));
      S.sync fs;
      let cache = NC.create ~capacity:8 () in
      ignore (S.open_file_cached cache fs (N.of_string "a"));
      ignore (S.open_file_cached cache fs (N.of_string "a"));
      Alcotest.(check int) "warmed before the crash" 1 (NC.stats cache).NC.hits;
      Sp_supervise.kill sup (t ^ ".coh");
      (* Trip the supervisor: the next plain call restarts the level and
         bumps the coherence epoch. *)
      ignore (S.open_file fs (N.of_string "a"));
      let g = S.open_file_cached cache fs (N.of_string "a") in
      Util.check_str "fenced entry re-resolved against the new incarnation"
        "survives" (F.read_all g))

let suite =
  [
    Alcotest.test_case "upgrade preserves contents" `Quick
      test_upgrade_preserves_contents;
    Alcotest.test_case "cursor batches" `Quick test_cursor_batches;
    prop_flat_indexed_equivalence;
    Alcotest.test_case "fsck dirindex category" `Quick test_fsck_dirindex;
    Alcotest.test_case "fsck reports a damaged name length" `Quick
      test_fsck_damaged_name_length;
    Alcotest.test_case "index lookup miss allocation bound" `Quick
      test_lookup_miss_allocation;
    Alcotest.test_case "index add + remove allocation bound" `Quick
      test_add_remove_allocation;
    Alcotest.test_case "disk-layer churn allocation bound" `Quick
      test_churn_allocation;
    Alcotest.test_case "readdir page allocation bound" `Quick
      test_readdir_page_allocation;
    Alcotest.test_case "directory block cache matches a model" `Quick
      test_dir_cache_model;
    Alcotest.test_case "htree split crash sweep (journaled)" `Slow
      test_split_crash_journaled;
    Alcotest.test_case "htree split crash control (unjournaled)" `Slow
      test_split_crash_unjournaled_control;
    Alcotest.test_case "name cache: warm hit crosses no domains" `Quick
      test_cache_zero_crossings_warm;
    Alcotest.test_case "name cache: remove kills stale positive" `Quick
      test_cache_mutation_coherence;
    Alcotest.test_case "name cache: create kills stale negative" `Quick
      test_cache_negative_dropped_on_create;
    Alcotest.test_case "name cache: interpose rebind invalidates" `Quick
      test_cache_interpose_coherence;
    Alcotest.test_case "name cache: supervised restart fences" `Quick
      test_cache_supervised_restart;
  ]
