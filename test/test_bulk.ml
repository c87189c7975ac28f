(* The bulk data path (Sp_obj.Bulk): accounting invariants, amortised channel
   setup, adaptive read-ahead gating, and a qcheck equivalence property
   showing the three optimisations never change what any layer stores. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module M = Sp_sim.Metrics

let ps = Sp_vm.Vm_types.page_size
let paper = Sp_sim.Cost_model.paper_1993

let counter = ref 0

let fresh_tag prefix =
  incr counter;
  Printf.sprintf "%s%d" prefix !counter

(* A two-domain (or mono) SFS with one warm 4KB file, ready for cached
   reads/writes. *)
let make_stack ?(mono = false) () =
  let tag = fresh_tag "bulk" in
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  let disk = Util.fresh_disk ~label:("disk-" ^ tag) () in
  let sfs =
    if mono then Sp_coherency.Spring_sfs.make_mono ~node:tag ~vmm ~name:tag disk
    else
      Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:tag
        ~same_domain:false disk
  in
  let f = S.create sfs (Util.name "bench") in
  ignore (F.write f ~pos:0 (Util.pattern_bytes ps));
  ignore (F.read f ~pos:0 ~len:ps);
  (vmm, sfs, f)

let test_same_domain_zero_marshalling_copies () =
  Util.in_world ~model:paper (fun () ->
      let _, _, f = make_stack ~mono:true () in
      let before = M.snapshot () in
      (* A caller living in the file's own domain (a layer calling a
         same-domain lower layer): the payload is handed over by
         reference, never marshalled. *)
      Sp_obj.Door.call f.F.f_domain (fun () -> ignore (F.read f ~pos:0 ~len:ps));
      let d = M.diff ~before ~after:(M.snapshot ()) in
      Alcotest.(check int) "no marshalling copy at a same-domain boundary" 0
        d.M.bulk_copies;
      Alcotest.(check bool) "payload handed over by reference" true
        (d.M.bulk_handoffs >= 1))

let test_cross_domain_exactly_one_copy () =
  Util.in_world ~model:paper (fun () ->
      let _, _, f = make_stack () in
      let before = M.snapshot () in
      let t0 = Sp_sim.Simclock.now () in
      ignore (F.read f ~pos:0 ~len:ps);
      let elapsed = Sp_sim.Simclock.now () - t0 in
      let d = M.diff ~before ~after:(M.snapshot ()) in
      Alcotest.(check int) "exactly one copy into the bulk buffer" 1
        d.M.bulk_copies;
      Alcotest.(check int) "the source copy is suppressed (handoff)" 1
        d.M.bulk_handoffs;
      (* One amortised bulk call plus one 4KB copy: the cached row of
         Table 2 (paper: ~0.16 ms). *)
      Alcotest.(check int) "warm cached 4KB read cost"
        (paper.Sp_sim.Cost_model.bulk_call_ns
        + (ps * paper.Sp_sim.Cost_model.copy_per_byte_ns))
        elapsed)

let test_bulk_setup_amortised_per_channel () =
  Util.in_world ~model:paper (fun () ->
      let _, _, f = make_stack () in
      let before = M.snapshot () in
      let t0 = Sp_sim.Simclock.now () in
      ignore (F.read f ~pos:0 ~len:ps);
      let first = Sp_sim.Simclock.now () - t0 in
      let t1 = Sp_sim.Simclock.now () in
      ignore (F.read f ~pos:0 ~len:ps);
      let second = Sp_sim.Simclock.now () - t1 in
      let d = M.diff ~before ~after:(M.snapshot ()) in
      (* The channel was established during stack warm-up: later calls
         never pay setup again, so repeated warm reads cost the same. *)
      Alcotest.(check int) "no new bulk channels on warm calls" 0 d.M.bulk_setups;
      Alcotest.(check int) "second call costs the same as the first" first second)

let test_bulk_disabled_restores_legacy_costs () =
  Util.in_world ~model:paper (fun () ->
      let _, _, f = make_stack () in
      let with_flag on =
        Sp_obj.Bulk.with_enabled on (fun () ->
            let t0 = Sp_sim.Simclock.now () in
            ignore (F.read f ~pos:0 ~len:ps);
            Sp_sim.Simclock.now () - t0)
      in
      let legacy = with_flag false in
      let bulk = with_flag true in
      (* Off = full door crossing + marshalling copy at the boundary + the
         source copy; on = amortised bulk call + one copy total. *)
      Alcotest.(check int) "legacy cost: door + two copies"
        (paper.Sp_sim.Cost_model.cross_domain_call_ns
        + (2 * ps * paper.Sp_sim.Cost_model.copy_per_byte_ns))
        legacy;
      Alcotest.(check bool) "bulk path is cheaper" true (bulk < legacy))

let test_fast_model_readahead_windowless () =
  (* Under the fast model the adaptive window must stay at zero so the
     ~300 existing tests keep their deterministic page-in counts. *)
  Util.in_world (fun () ->
      let ram = Ram_pager.create ~label:(fresh_tag "ram") () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (8 * ps));
      let vmm = Sp_vm.Vmm.create ~node:"local" (fresh_tag "vmmfast") in
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = M.snapshot () in
      for i = 0 to 7 do
        ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:ps)
      done;
      let d = M.diff ~before ~after:(M.snapshot ()) in
      Alcotest.(check int) "one page-in per page, no prefetch" 8 d.M.page_ins;
      Alcotest.(check int) "no read-ahead hits" 0 d.M.readahead_hits;
      Alcotest.(check int) "no read-ahead waste" 0 d.M.readahead_wasted)

let test_adaptive_readahead_batches_and_collapses () =
  Util.in_world ~model:paper (fun () ->
      let ram = Ram_pager.create ~label:(fresh_tag "ram") () in
      Ram_pager.poke ram ~pos:0 (Util.pattern_bytes (32 * ps));
      let vmm = Sp_vm.Vmm.create ~node:"local" (fresh_tag "vmmada") in
      let m = Sp_vm.Vmm.map vmm (Ram_pager.memory_object ram) in
      let before = M.snapshot () in
      for i = 0 to 31 do
        ignore (Sp_vm.Vmm.read m ~pos:(i * ps) ~len:ps)
      done;
      let d = M.diff ~before ~after:(M.snapshot ()) in
      (* Window doubling 2,4,8,16 batches a 32-page run into a handful of
         page-ins; every page is either a fault or a prefetch hit. *)
      Alcotest.(check bool)
        (Printf.sprintf "page-ins collapse (%d <= 6)" d.M.page_ins)
        true (d.M.page_ins <= 6);
      Alcotest.(check int) "hits + faults cover the file" 32
        (d.M.readahead_hits + d.M.page_ins);
      Alcotest.(check int) "nothing prefetched was wasted" 0 d.M.readahead_wasted;
      (* A non-sequential fault collapses the window: the jump back is a
         plain single-page fetch. *)
      let before = M.snapshot () in
      ignore (Sp_vm.Vmm.read m ~pos:0 ~len:ps);
      Sp_vm.Vmm.drop_caches vmm;
      ignore (Sp_vm.Vmm.read m ~pos:(20 * ps) ~len:ps);
      let d = M.diff ~before ~after:(M.snapshot ()) in
      Alcotest.(check int) "random fault fetches one page" 1 d.M.page_ins)

(* ------------------------------------------------------------------ *)
(* Equivalence: optimisations on vs off                                *)
(* ------------------------------------------------------------------ *)

type op = Write of int * int * int | Read of int * int | Truncate of int | Sync

let max_pos = 24 * ps

let interp_op (kind, pos, len, seed) =
  let pos = pos mod max_pos and len = 1 + (len mod (4 * ps)) in
  match kind mod 10 with
  | 0 | 1 | 2 | 3 -> Write (pos, len, seed)
  | 4 | 5 | 6 -> Read (pos, len)
  | 7 -> Truncate (pos mod (max_pos / 2))
  | _ -> Sync

let apply_op f = function
  | Write (pos, len, seed) ->
      ignore (F.write f ~pos (Util.pattern_bytes ~seed:(1 + abs seed) len));
      Bytes.empty
  | Read (pos, len) -> F.read f ~pos ~len
  | Truncate len ->
      F.truncate f len;
      Bytes.empty
  | Sync ->
      F.sync f;
      Bytes.empty

let all_off f = Sp_obj.Bulk.with_enabled false f

let equivalence_prop raw_ops =
  let ops = List.map interp_op raw_ops in
  Util.in_world ~model:paper (fun () ->
      (* Stack A: bulk + adaptive read-ahead + clustered writeback (the
         defaults).  Stack B: all three off — the PR-4 data path. *)
      let vmm_a, fs_a, fa = make_stack () in
      let vmm_b, fs_b, fb = make_stack () in
      ignore vmm_a;
      Sp_vm.Vmm.set_adaptive vmm_b false;
      Sp_vm.Vmm.set_clustered vmm_b false;
      let ok = ref true in
      List.iter
        (fun op ->
          let ra = apply_op fa op in
          let rb = all_off (fun () -> apply_op fb op) in
          if not (Bytes.equal ra rb) then ok := false)
        ops;
      (* Post-sync lower-layer state: push everything down, drop every
         cache, and reread from disk on both stacks. *)
      F.sync fa;
      all_off (fun () -> F.sync fb);
      S.drop_caches fs_a;
      Sp_vm.Vmm.drop_caches vmm_a;
      all_off (fun () ->
          S.drop_caches fs_b;
          Sp_vm.Vmm.drop_caches vmm_b);
      let la = (F.stat fa).Sp_vm.Attr.len and lb = (F.stat fb).Sp_vm.Attr.len in
      if la <> lb then ok := false
      else begin
        let ca = F.read fa ~pos:0 ~len:la in
        let cb = all_off (fun () -> F.read fb ~pos:0 ~len:lb) in
        if not (Bytes.equal ca cb) then ok := false
      end;
      !ok)

let test_equivalence =
  Util.qcheck_case ~count:30 "optimisations never change stored bytes"
    QCheck2.Gen.(
      list_size (int_range 5 30)
        (tup4 (int_range 0 1000) (int_range 0 max_pos) (int_range 0 (4 * ps))
           (int_range 0 10000)))
    equivalence_prop

let suite =
  [
    Alcotest.test_case "same-domain: zero marshalling copies" `Quick
      test_same_domain_zero_marshalling_copies;
    Alcotest.test_case "cross-domain: exactly one copy" `Quick
      test_cross_domain_exactly_one_copy;
    Alcotest.test_case "bulk setup amortised per channel" `Quick
      test_bulk_setup_amortised_per_channel;
    Alcotest.test_case "bulk off restores legacy costs" `Quick
      test_bulk_disabled_restores_legacy_costs;
    Alcotest.test_case "fast model: read-ahead windowless" `Quick
      test_fast_model_readahead_windowless;
    Alcotest.test_case "adaptive read-ahead batches and collapses" `Quick
      test_adaptive_readahead_batches_and_collapses;
    test_equivalence;
  ]
