(* Page-buffer ownership at the pager interface (Vm_types): the buffer a
   page-in returns belongs to the caller, and a writeback payload is only
   lent for the duration of the call.  Every pager in the tree is checked
   over a one-page file through a probe channel of its own, and a write
   landing while a writeback waits on the disk must not reach the platter
   through the buffer the VMM handed down.  Nor may a write-through
   change the checksum-region image another write-through has handed to
   the device. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module V = Sp_vm.Vm_types
module D = Sp_blockdev.Disk
module DL = Sp_sfs.Disk_layer

let ps = V.page_size
let page0 = Util.pattern_bytes ~seed:1 ps

(* A cache manager that keeps the pager end of its channel and answers
   every coherency action with nothing cached. *)
let probe_pager tag mem =
  let got = ref None in
  let domain = Sp_obj.Sdomain.create ("probe:" ^ tag) in
  let cache =
    {
      V.c_domain = domain;
      c_label = "probe:" ^ tag;
      c_flush_back = (fun ~offset:_ ~size:_ -> []);
      c_deny_writes = (fun ~offset:_ ~size:_ -> []);
      c_write_back = (fun ~offset:_ ~size:_ -> []);
      c_delete_range = (fun ~offset:_ ~size:_ -> ());
      c_zero_fill = (fun ~offset:_ ~size:_ -> ());
      c_populate = (fun ~offset:_ ~access:_ _ -> ());
      c_destroy = (fun () -> ());
      c_exten = [];
    }
  in
  let manager =
    {
      V.cm_id = "probe:" ^ tag;
      cm_domain = domain;
      cm_connect =
        (fun ~key:_ pager ->
          got := Some pager;
          cache);
    }
  in
  ignore (V.bind mem manager V.Read_write);
  match !got with Some p -> p | None -> Alcotest.fail (tag ^ ": no channel set up")

(* The pager contract over [mem], a one-page file holding [page0];
   [cold ()] pushes everything down and drops every cache above the
   store. *)
let check_contract tag mem ~cold =
  let p = probe_pager (tag ^ ".in") mem in
  let first = V.page_in p ~offset:0 ~size:ps ~access:V.Read_only in
  Util.check_bytes (tag ^ ": page_in") page0 first;
  Bytes.fill first 0 ps 'X';
  Util.check_bytes
    (tag ^ ": a mutated page_in result leaves the next one alone")
    page0
    (V.page_in p ~offset:0 ~size:ps ~access:V.Read_only);
  let pushes =
    [
      ("sync", fun b -> V.sync p ~offset:0 b);
      ("sync_v", fun b -> V.sync_v p [ { V.ext_offset = 0; ext_data = b } ]);
      ("page_out", fun b -> V.page_out p ~offset:0 b);
      ("write_out", fun b -> V.write_out p ~offset:0 b);
    ]
  in
  List.iteri
    (fun i (op, push) ->
      let payload = Util.pattern_bytes ~seed:(i + 2) ps in
      let sent = Bytes.copy payload in
      push payload;
      Bytes.fill payload 0 ps 'Y';
      cold ();
      let q = probe_pager (Printf.sprintf "%s.%s" tag op) mem in
      Util.check_bytes
        (Printf.sprintf "%s: %s payload mutated after the call" tag op)
        sent
        (V.page_in q ~offset:0 ~size:ps ~access:V.Read_only))
    pushes

(* Create "f" on [fs], write [page0] and sync it down. *)
let seeded fs =
  let f = S.create fs (Util.name "f") in
  ignore (F.write f ~pos:0 page0);
  F.sync f;
  f

let cold_stack vmm fs () =
  S.sync fs;
  Sp_vm.Vmm.drop_caches vmm;
  S.drop_caches fs

let split ~vmm name = Sp_coherency.Spring_sfs.make_split ~vmm ~name ~same_domain:false (Util.fresh_disk ())

(* One layer [top] stacked on a fresh SFS. *)
let over_sfs tag make =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ "-vmm") in
      let top = make ~vmm in
      S.stack_on top (split ~vmm (tag ^ "-sfs"));
      let f = seeded top in
      check_contract tag f.F.f_mem ~cold:(cold_stack vmm top))

let test_sfs () =
  (* The disk layer's own pager, on a journaled volume: the journal keeps
     the blocks it is given until the commit. *)
  Util.in_world (fun () ->
      let disk = D.create ~label:"own-sfs" ~blocks:512 () in
      DL.mkfs ~journal:true disk;
      let fs = DL.mount ~name:"own-sfs0" disk in
      let f = seeded fs in
      check_contract "sfs" f.F.f_mem ~cold:(fun () ->
          S.sync fs;
          S.drop_caches fs))

let test_coherency () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-coh-vmm" in
      let fs = split ~vmm "own-coh" in
      let f = seeded fs in
      check_contract "coherency" f.F.f_mem ~cold:(cold_stack vmm fs))

let test_compfs () =
  over_sfs "own-comp" (fun ~vmm -> Sp_compfs.Compfs.make ~vmm ~name:"own-comp" ())

let test_cryptfs () =
  over_sfs "own-crypt" (fun ~vmm ->
      Sp_cryptfs.Cryptfs.make ~vmm ~name:"own-crypt" ~key:"k" ())

let test_integrityfs () =
  over_sfs "own-integ" (fun ~vmm ->
      Sp_integrity.Integrityfs.make ~vmm ~name:"own-integ" ())

let test_mirrorfs () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-mirror-vmm" in
      let mirror = Sp_mirrorfs.Mirrorfs.make ~vmm ~name:"own-mirror" () in
      S.stack_on mirror (split ~vmm "own-mirrorA");
      S.stack_on mirror (split ~vmm "own-mirrorB");
      let f = seeded mirror in
      check_contract "mirrorfs" f.F.f_mem ~cold:(cold_stack vmm mirror))

let test_unionfs () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-union-vmm" in
      let union = Sp_unionfs.Unionfs.make ~vmm ~name:"own-union" () in
      S.stack_on union (split ~vmm "own-union-top");
      S.stack_on union (split ~vmm "own-union-low");
      let f = seeded union in
      check_contract "unionfs" f.F.f_mem ~cold:(cold_stack vmm union))

let test_ram_pager () =
  Util.in_world (fun () ->
      let r = Ram_pager.create ~label:"own-ram" () in
      let mem = Ram_pager.memory_object r in
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-ram-vmm" in
      let m = Sp_vm.Vmm.map vmm mem in
      Sp_vm.Vmm.write m ~pos:0 page0;
      Sp_vm.Vmm.msync m;
      check_contract "ram_pager" mem ~cold:(fun () -> ()))

let test_dfs_proxy () =
  (* The pager a remote bind hands back is the network proxy of the
     server's pager. *)
  Util.in_world (fun () ->
      let net = Sp_dfs.Net.create () in
      let vmm = Sp_vm.Vmm.create ~node:"alpha" "own-dfs-vmm" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~node:"alpha" ~vmm ~name:"own-dfs-sfs"
          ~same_domain:false (Util.fresh_disk ())
      in
      let dfs = Sp_dfs.Dfs.make_server ~node:"alpha" ~net ~vmm ~name:"own-dfs" () in
      S.stack_on dfs sfs;
      ignore (seeded dfs);
      let import = Sp_dfs.Dfs.import ~net ~client_node:"beta" dfs in
      let rf = S.open_file import (Util.name "f") in
      check_contract "dfs proxy" rf.F.f_mem ~cold:(cold_stack vmm dfs))

(* --- a write landing while its page is being written back --- *)

(* Every disk access seeks for 5 ms, so a writeback parks in [Disk.write]
   before the block is stored. *)
let slow_disk = { Util.fast_model with Sp_sim.Cost_model.disk_seek_ns = 5_000_000 }

let test_write_during_writeback () =
  Util.in_world ~model:slow_disk (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-cow-vmm" in
      let disk = Util.fresh_disk ~blocks:512 ~label:"own-cow" () in
      let fs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"own-cow" ~same_domain:false disk
      in
      let f = S.create fs (Util.name "f") in
      let synced_at = ref 0 and written_at = ref 0 in
      let task_a () =
        ignore (F.write f ~pos:0 (Bytes.make ps 'A'));
        F.sync f;
        synced_at := Sp_sim.Simclock.now ()
      in
      let task_b () =
        Sp_sched.sleep 1_000_000;
        ignore (F.write f ~pos:0 (Bytes.make 100 'B'));
        written_at := Sp_sim.Simclock.now ()
      in
      ignore (Sp_sched.run ~seed:1 [ task_a; task_b ]);
      Alcotest.(check bool) "B wrote while A's sync was in flight" true
        (!written_at < !synced_at);
      let a_page = Bytes.make ps 'A' in
      let blocks = List.init (D.block_count disk) (D.read disk) in
      Alcotest.(check bool) "the device holds A's page" true
        (List.exists (Bytes.equal a_page) blocks);
      Alcotest.(check bool) "no device block holds B's bytes" false
        (List.exists (fun b -> Bytes.sub_string b 0 100 = String.make 100 'B') blocks);
      let cached = Bytes.cat (Bytes.make 100 'B') (Bytes.make (ps - 100) 'A') in
      Util.check_bytes "the VMM page holds B's bytes" cached (F.read f ~pos:0 ~len:ps);
      Alcotest.(check int) "raw device digest" 0x7d630cac (Util.device_digest disk))

(* --- the checksum-region image during its own write-through --- *)

(* Two tasks write through one raw checksummed dev, to data blocks whose
   entries share a region block.  An SFS's volume lock serializes its
   writes, so the interleaving is built on the volume's [Journal] dev
   directly.  B's data write goes ahead of A's region write in the
   elevator, so B records its entry while A's region write waits.  B's
   own region write is then lost (a [Lost_write] fault), and the device
   keeps the region block exactly as A's write stored it: A's entry
   without B's, the image A had when it issued the write. *)
let test_region_write_during_region_write () =
  Util.in_world ~model:slow_disk (fun () ->
      let disk = Util.fresh_disk ~blocks:512 ~label:"own-rgn" () in
      let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
      let dev = Sp_sfs.Journal.make ~csum:(Option.get (Sp_sfs.Csum.attach disk layout)) disk in
      let block_a = layout.Sp_sfs.Layout.data_start + 40
      and block_b = layout.Sp_sfs.Layout.data_start + 80 in
      let data_a = Bytes.make ps 'A' and data_b = Bytes.make ps 'B' in
      let b_started_at = ref 0 and a_done_at = ref 0 in
      let task_a () =
        Sp_sfs.Journal.write dev block_a data_a;
        a_done_at := Sp_sim.Simclock.now ()
      in
      let task_b () =
        Sp_sched.sleep 1_000_000;
        b_started_at := Sp_sim.Simclock.now ();
        Sp_sfs.Journal.write dev block_b data_b
      in
      (* Device writes: A's data, B's data, A's region block, B's. *)
      let lose_b_region =
        Sp_fault.rule ~point:"disk.write" ~label:"own-rgn" ~after:3 ~count:1
          Sp_fault.Lost_write
      in
      let plan = Sp_fault.plan [ lose_b_region ] in
      Sp_fault.with_plan plan (fun () -> ignore (Sp_sched.run ~seed:1 [ task_a; task_b ]));
      Alcotest.(check int) "B's region write lost" 1 (Sp_fault.fired plan);
      Alcotest.(check bool) "B wrote while A's write-through was in flight" true
        (!b_started_at < !a_done_at);
      let region = Option.get (Sp_sfs.Csum.attach disk layout) in
      Alcotest.(check bool) "the device holds A's entry" true
        (Sp_sfs.Csum.matches region block_a (Sp_sfs.Csum.cksum data_a));
      Alcotest.(check bool) "the device lacks B's entry" false
        (Sp_sfs.Csum.matches region block_b (Sp_sfs.Csum.cksum data_b));
      Alcotest.(check int) "raw device digest" 0xc75cd65e (Util.device_digest disk))

(* A pager that writes the page it is being handed, in the middle of
   every push, and records the payload as it reads it afterwards: what a
   task writing during a [Disk.write] wait does, without a scheduler. *)
let test_lent_buffers_never_change () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-lend-vmm" in
      let mapping = ref None and seen = ref [] in
      let push ~offset:_ data =
        Option.iter (fun m -> Sp_vm.Vmm.write m ~pos:0 (Bytes.make 100 'B')) !mapping;
        seen := Bytes.to_string data :: !seen
      in
      let domain = Sp_obj.Sdomain.create "own-lend" in
      let pager =
        {
          V.p_domain = domain;
          p_label = "own-lend";
          p_page_in = (fun ~offset:_ ~size ~access:_ -> Bytes.make size '\000');
          p_page_out = push;
          p_write_out = push;
          p_sync = push;
          p_sync_v = V.sync_each push;
          p_done_with = ignore;
          p_exten = [];
        }
      in
      let registry = Sp_vm.Pager_lib.create () in
      let mem =
        {
          V.m_domain = domain;
          m_label = "own-lend";
          m_bind =
            (fun manager _ ->
              Sp_vm.Pager_lib.bind registry ~key:"own-lend"
                ~make_pager:(fun ~id:_ -> pager)
                manager);
          m_get_length = (fun () -> ps);
          m_set_length = ignore;
        }
      in
      let m = Sp_vm.Vmm.map vmm mem in
      let a_page = String.make ps 'A' in
      let b_then_a = String.make 100 'B' ^ String.make (ps - 100) 'A' in
      let push_with clustered =
        Sp_vm.Vmm.set_clustered vmm clustered;
        Sp_vm.Vmm.write m ~pos:0 (Bytes.of_string a_page);
        seen := [];
        mapping := Some m;
        Sp_vm.Vmm.msync m;
        mapping := None;
        Alcotest.(check (list string))
          (Printf.sprintf "clustered=%b: the payload read after a mid-call write" clustered)
          [ a_page ] !seen;
        Util.check_str "the page took the write" b_then_a (Sp_vm.Vmm.read m ~pos:0 ~len:ps)
      in
      push_with true;
      push_with false;
      (* Extents a coherency action hands out stay out: the next write
         leaves them as they were. *)
      let cache = (List.hd (Sp_vm.Pager_lib.channels registry)).Sp_vm.Pager_lib.ch_cache in
      Sp_vm.Vmm.write m ~pos:0 (Bytes.of_string a_page);
      let lent = V.write_back cache ~offset:0 ~size:ps in
      Sp_vm.Vmm.write m ~pos:0 (Bytes.make 100 'B');
      Alcotest.(check (list string)) "write_back extents after a later write" [ a_page ]
        (List.map (fun x -> Bytes.to_string x.V.ext_data) lent);
      Util.check_str "the page took the later write" b_then_a (Sp_vm.Vmm.read m ~pos:0 ~len:ps);
      let zeroed = V.write_back cache ~offset:0 ~size:ps in
      V.zero_fill cache ~offset:0 ~size:100;
      Alcotest.(check (list string)) "write_back extents after a partial zero_fill"
        [ b_then_a ]
        (List.map (fun x -> Bytes.to_string x.V.ext_data) zeroed))

(* --- two cache managers on every protocol user --- *)

(* Each layer that runs the single-writer/multiple-readers protocol over
   its upper channels, stacked as in the contract tests above:
   [make ~vmm] returns the top of the stack, whose own mappings use
   [vmm]. *)
let protocol_users =
  let over_split make ~vmm tag =
    let top = make ~vmm tag in
    S.stack_on top (split ~vmm (tag ^ "-sfs"));
    top
  and over_two make ~vmm tag =
    let top = make ~vmm tag in
    S.stack_on top (split ~vmm (tag ^ "-a"));
    S.stack_on top (split ~vmm (tag ^ "-b"));
    top
  in
  [
    ("coherency", fun ~vmm tag -> split ~vmm tag);
    ("compfs", over_split (fun ~vmm name -> Sp_compfs.Compfs.make ~vmm ~name ()));
    ( "cryptfs",
      over_split (fun ~vmm name -> Sp_cryptfs.Cryptfs.make ~vmm ~name ~key:"k" ()) );
    ( "integrityfs",
      over_split (fun ~vmm name -> Sp_integrity.Integrityfs.make ~vmm ~name ()) );
    ("mirrorfs", over_two (fun ~vmm name -> Sp_mirrorfs.Mirrorfs.make ~vmm ~name ()));
    ("unionfs", over_two (fun ~vmm name -> Sp_unionfs.Unionfs.make ~vmm ~name ()));
  ]

(* Two VMMs on distinct nodes map one two-page file beside the layer's
   own mapping: a write is seen by the other manager, a second writer
   merges, and a shrink under a dirty page followed by an extending
   write leaves the cut range zero in every cache and on the store. *)
let two_managers tag make () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" ("two-" ^ tag ^ "-vmm") in
      let top = make ~vmm ("two-" ^ tag) in
      let f = S.create top (Util.name "f") in
      let initial = Util.pattern_bytes ~seed:5 (2 * ps) in
      ignore (F.write f ~pos:0 initial);
      F.sync f;
      let vmm_a = Sp_vm.Vmm.create ~node:"a" ("two-" ^ tag ^ "-a") in
      let vmm_b = Sp_vm.Vmm.create ~node:"b" ("two-" ^ tag ^ "-b") in
      let ma = Sp_vm.Vmm.map vmm_a f.F.f_mem in
      let mb = Sp_vm.Vmm.map vmm_b f.F.f_mem in
      Sp_vm.Vmm.write ma ~pos:0 (Bytes.of_string "from A");
      Util.check_str (tag ^ ": B reads A's write") "from A" (Sp_vm.Vmm.read mb ~pos:0 ~len:6);
      Sp_vm.Vmm.write mb ~pos:6 (Bytes.of_string "+B");
      Util.check_str (tag ^ ": A reads the merge") "from A+B"
        (Sp_vm.Vmm.read ma ~pos:0 ~len:8);
      Sp_vm.Vmm.write ma ~pos:ps (Bytes.of_string "second page");
      F.truncate f (ps + 3);
      Util.check_str (tag ^ ": A's cached page is zero past the cut")
        ("sec" ^ String.make 8 '\000')
        (Sp_vm.Vmm.read ma ~pos:ps ~len:11);
      ignore (F.write f ~pos:(ps + 10) (Bytes.of_string "z"));
      let tail = "sec" ^ String.make 7 '\000' ^ "z" in
      Util.check_str (tag ^ ": A reads the cut and the extension") tail
        (Sp_vm.Vmm.read ma ~pos:ps ~len:11);
      Util.check_str (tag ^ ": B reads the cut and the extension") tail
        (Sp_vm.Vmm.read mb ~pos:ps ~len:11);
      Sp_vm.Vmm.msync ma;
      Sp_vm.Vmm.msync mb;
      cold_stack vmm top ();
      Sp_vm.Vmm.drop_caches vmm_a;
      Sp_vm.Vmm.drop_caches vmm_b;
      let want = "from A+B" ^ Bytes.sub_string initial 8 (ps - 8) ^ tail in
      let g = S.open_file top (Util.name "f") in
      Alcotest.(check int) (tag ^ ": length after a cold drop") (ps + 11)
        (F.stat g).Sp_vm.Attr.len;
      Util.check_str (tag ^ ": a fresh open after a cold drop") want
        (F.read g ~pos:0 ~len:(ps + 11)))

(* --- allocation --- *)

(* A cold one-page read through SFS + coherency + VMM allocates the
   disk's copy of the block, which the fault keeps as the page, and the
   caller's result: two pages and some change (1202 words).  Copying the
   pager's buffer into the page would allocate a third (1729). *)
let test_cold_read_allocation () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-rd-vmm" in
      let fs = split ~vmm "own-rd" in
      let f = seeded fs in
      let words =
        Util.words_per_call (fun () ->
            Sp_vm.Vmm.drop_caches vmm;
            ignore (F.read f ~pos:0 ~len:ps))
      in
      if words > 1450. then
        Alcotest.failf "cold one-page read: %.0f words per call (bound 1450)" words)

(* The same cold one-page read through a transform layer over the split
   SFS: the layer's grant path (holder bookkeeping, the lower read and
   the layer's own decoding) on top of the read above.  Each bound is 2%
   over the measured cost: 3337 words through compfs, 2888 through
   cryptfs and 2370 through integrityfs. *)
let transform_read_bound (tag, bound, make) =
  Alcotest.test_case ("cold one-page read allocation: " ^ tag) `Quick (fun () ->
      Util.in_world (fun () ->
          let vmm = Sp_vm.Vmm.create ~node:"local" ("rd-" ^ tag ^ "-vmm") in
          let top = make ~vmm ("rd-" ^ tag) in
          S.stack_on top (split ~vmm ("rd-" ^ tag ^ "-sfs"));
          let f = seeded top in
          let words =
            Util.words_per_call (fun () ->
                Sp_vm.Vmm.drop_caches vmm;
                ignore (F.read f ~pos:0 ~len:ps))
          in
          if words > bound then
            Alcotest.failf "%s: cold one-page read: %.0f words per call (bound %.0f)"
              tag words bound))

let transform_read_bounds =
  List.map transform_read_bound
    [
      ("compfs", 3404., fun ~vmm name -> Sp_compfs.Compfs.make ~vmm ~name ());
      ( "cryptfs",
        2945.,
        fun ~vmm name -> Sp_cryptfs.Cryptfs.make ~vmm ~name ~key:"k" () );
      ( "integrityfs",
        2417.,
        fun ~vmm name -> Sp_integrity.Integrityfs.make ~vmm ~name () );
    ]

(* Pushing one dirty page lends the page's buffer to the pager: no page
   is allocated (81 words).  Copying it for the push would cost 600. *)
let test_msync_allocation () =
  Util.in_world (fun () ->
      let r = Ram_pager.create ~label:"own-ms-ram" () in
      let vmm = Sp_vm.Vmm.create ~node:"local" "own-ms-vmm" in
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object r) in
      let one = Bytes.make 1 'x' in
      let words =
        Util.words_per_call (fun () ->
            Sp_vm.Vmm.write m ~pos:0 one;
            Sp_vm.Vmm.msync m)
      in
      if words >= 513. then
        Alcotest.failf "msync of one dirty page: %.0f words per call (bound 513)" words)

let suite =
  [
    Alcotest.test_case "contract: sfs" `Quick test_sfs;
    Alcotest.test_case "contract: coherency" `Quick test_coherency;
    Alcotest.test_case "contract: compfs" `Quick test_compfs;
    Alcotest.test_case "contract: cryptfs" `Quick test_cryptfs;
    Alcotest.test_case "contract: mirrorfs" `Quick test_mirrorfs;
    Alcotest.test_case "contract: unionfs" `Quick test_unionfs;
    Alcotest.test_case "contract: integrityfs" `Quick test_integrityfs;
    Alcotest.test_case "contract: ram_pager" `Quick test_ram_pager;
    Alcotest.test_case "contract: dfs proxy" `Quick test_dfs_proxy;
    Alcotest.test_case "write during writeback stays off the platter" `Quick
      test_write_during_writeback;
    Alcotest.test_case "lent buffers never change" `Quick test_lent_buffers_never_change;
    Alcotest.test_case "write-through during a region write keeps the image" `Quick
      test_region_write_during_region_write;
  ]
  @ List.map
      (fun (tag, make) ->
        Alcotest.test_case ("two cache managers: " ^ tag) `Quick (two_managers tag make))
      protocol_users
  @ [
    Alcotest.test_case "cold one-page read allocation bound" `Quick
      test_cold_read_allocation;
    Alcotest.test_case "one-page msync allocation bound" `Quick test_msync_allocation;
  ]
  @ transform_read_bounds

