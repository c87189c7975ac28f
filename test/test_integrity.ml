module F = Sp_core.File
module S = Sp_core.Stackable
module D = Sp_blockdev.Disk
module DL = Sp_sfs.Disk_layer
module I = Sp_integrity.Integrityfs
module M = Sp_mirrorfs.Mirrorfs
module Scrub = Sp_integrity.Scrubber
module CS = Sp_integrity.Corruption_sweep

let ps = Sp_vm.Vm_types.page_size

(* ---------------- Integrityfs: the stackable checksum layer -------- *)

let make_integrity_stack tag =
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ "-vmm") in
  let lower =
    Sp_coherency.Spring_sfs.make_split ~vmm ~name:(tag ^ "-low") ~same_domain:false
      (Util.fresh_disk ~label:(tag ^ "-disk") ())
  in
  let ifs = I.make ~vmm ~name:(tag ^ "-int") () in
  S.stack_on ifs lower;
  (vmm, lower, ifs)

let test_integrityfs_passthrough () =
  Util.in_world (fun () ->
      let vmm, _lower, ifs = make_integrity_stack "ipass" in
      let f = S.create ifs (Util.name "a") in
      let data = Util.pattern_bytes (3 * ps) in
      ignore (F.write f ~pos:0 data);
      F.sync f;
      Sp_vm.Vmm.drop_caches vmm;
      Util.check_bytes "round-trip through the checksum layer" data (F.read_all f);
      Alcotest.(check bool) "re-read pages verified against recorded sums" true
        (I.verified ifs > 0);
      Alcotest.(check int) "no failures" 0 (I.failures ifs))

let test_integrityfs_detects_lower_mutation () =
  Util.in_world (fun () ->
      let vmm, lower, ifs = make_integrity_stack "irot" in
      let f = S.create ifs (Util.name "a") in
      ignore (F.write f ~pos:0 (Bytes.make (2 * ps) 'i'));
      F.sync f;
      (* Something below the layer silently changes bytes: write straight
         to the lower file, bypassing integrityfs. *)
      let low = S.open_file lower (Util.name "a") in
      ignore (F.write low ~pos:7 (Util.bytes_of_string "TAMPER"));
      F.sync low;
      Sp_vm.Vmm.drop_caches vmm;
      let fails0 = Sp_sim.Metrics.(snapshot ()).checksum_failures in
      (match F.read f ~pos:0 ~len:ps with
      | _ -> Alcotest.fail "tampered page served without a checksum error"
      | exception Sp_core.Fserr.Checksum_error _ -> ());
      Alcotest.(check int) "failure counted" 1 (I.failures ifs);
      Alcotest.(check bool) "metric bumped" true
        (Sp_sim.Metrics.(snapshot ()).checksum_failures > fails0);
      (* Even a full-page overwrite faults the tampered page in first and
         trips again — the layer never silently forgives.  Truncating
         discards the recorded sums with the data; a rewrite then reads
         clean. *)
      (match F.write f ~pos:0 (Bytes.make ps 'j') with
      | _ -> Alcotest.fail "overwrite of a tampered page must fault it in and trip"
      | exception Sp_core.Fserr.Checksum_error _ -> ());
      F.truncate f 0;
      ignore (F.write f ~pos:0 (Bytes.make ps 'j'));
      F.sync f;
      Sp_vm.Vmm.drop_caches vmm;
      Util.check_str "rewritten page reads clean" "jjjj" (F.read f ~pos:0 ~len:4))

(* ---------------- Scrubber over the on-disk checksum region -------- *)

(* Two identically-filled journaled volumes. *)
let filled_twin tag =
  let disk = D.create ~label:tag ~blocks:2048 () in
  DL.mkfs ~journal:true disk;
  let fs = DL.mount ~name:(tag ^ "-fs") disk in
  let f = S.create fs (Util.name "fill") in
  for p = 0 to 63 do
    ignore (F.write f ~pos:(p * ps) (Bytes.make ps (Char.chr (0x41 + (p land 0xf)))))
  done;
  S.sync fs;
  (disk, fs)

(* Flip one bit in [n] in-use, checksum-covered blocks (scanning from the
   top of the device, i.e. the data area). *)
let rot_blocks disk n =
  let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
  let c = Option.get (Sp_sfs.Csum.attach disk layout) in
  let rotted = ref [] in
  let b = ref (layout.Sp_sfs.Layout.total_blocks - 1) in
  while List.length !rotted < n && !b > 0 do
    if Sp_sfs.Csum.covers c !b then begin
      let data = D.read disk !b in
      if Bytes.exists (fun ch -> ch <> '\000') data then begin
        Bytes.set data 0 (Char.chr (Char.code (Bytes.get data 0) lxor 0x01));
        D.write disk !b data;
        rotted := !b :: !rotted
      end
    end;
    decr b
  done;
  !rotted

let test_scrubber_detects_and_repairs () =
  Util.in_world (fun () ->
      let da, fsa = filled_twin "scrubA" in
      let db, _ = filled_twin "scrubB" in
      let rotted = rot_blocks da 2 in
      Alcotest.(check int) "two blocks rotted" 2 (List.length rotted);
      let detect = Scrub.run da in
      Alcotest.(check int) "detect-only finds both" 2 detect.Scrub.sr_bad;
      Alcotest.(check int) "detect-only repairs nothing" 0 detect.Scrub.sr_repaired;
      Alcotest.(check bool) "scans the data area" true (detect.Scrub.sr_scanned > 64);
      let repair = Scrub.run ~repair_with:(Scrub.from_device db) da in
      Alcotest.(check int) "repairs both from the twin" 2 repair.Scrub.sr_repaired;
      let clean = Scrub.run da in
      Alcotest.(check int) "volume clean after repair" 0 clean.Scrub.sr_bad;
      (* And the repaired bytes are the right ones. *)
      S.drop_caches fsa;
      let got = F.read_all (S.open_file fsa (Util.name "fill")) in
      Alcotest.(check char) "first page content restored" 'A' (Bytes.get got 0))

let test_scrubber_without_checksum_region () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"scrub-nocs" ~blocks:256 () in
      DL.mkfs ~checksums:false disk;
      let r = Scrub.run disk in
      Alcotest.(check int) "nothing to scan without a checksum region" 0
        r.Scrub.sr_scanned)

(* ---------------- Mirror self-healing ------------------------------ *)

let make_mirror tag =
  let mk lbl =
    let d = D.create ~label:lbl ~blocks:1024 () in
    DL.mkfs ~journal:true d;
    (d, DL.mount ~name:lbl d)
  in
  let da, fa = mk (tag ^ "A") in
  let db, fb = mk (tag ^ "B") in
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ "-vmm") in
  let mirror = M.make ~vmm ~name:(tag ^ "-m") () in
  S.stack_on mirror fa;
  S.stack_on mirror fb;
  (vmm, da, db, mirror)

(* Rot the data block holding [marker]-filled content on [disk]. *)
let rot_content_block disk marker =
  let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
  let c = Option.get (Sp_sfs.Csum.attach disk layout) in
  let found = ref (-1) in
  for b = layout.Sp_sfs.Layout.total_blocks - 1 downto 1 do
    if !found < 0 && Sp_sfs.Csum.covers c b && Bytes.get (D.read disk b) 0 = marker
    then found := b
  done;
  Alcotest.(check bool) "found a data block to rot" true (!found >= 0);
  let data = D.read disk !found in
  Bytes.set data 0 'X';
  D.write disk !found data

let test_mirror_self_heals_both_twins () =
  Util.in_world (fun () ->
      let vmm, da, db, mirror = make_mirror "heal2" in
      let f = S.create mirror (Util.name "h") in
      ignore (F.write f ~pos:0 (Bytes.make (2 * ps) 'h'));
      F.sync f;
      let cold_read () =
        Sp_vm.Vmm.drop_caches vmm;
        S.drop_caches mirror;
        F.read_all f
      in
      (* Rot twin A: the read must be served from B (correct bytes), the
         bad copy rewritten in place, and nothing degraded. *)
      rot_content_block da 'h';
      let got = cold_read () in
      Alcotest.(check char) "served clean bytes from the good twin" 'h'
        (Bytes.get got 0);
      Alcotest.(check int) "one repair" 1 (M.repairs mirror);
      Alcotest.(check int) "no failover" 0 (M.failovers mirror);
      Alcotest.(check bool) "not degraded" true (M.degraded mirror = None);
      Alcotest.(check bool) "twins identical again" true (M.verify mirror (Util.name "h"));
      (* Rot twin B: ordinary reads are served by the primary and never
         notice; the background scrub finds and heals it. *)
      rot_content_block db 'h';
      Alcotest.(check char) "reads still clean (primary serves)" 'h'
        (Bytes.get (cold_read ()) 0);
      let repaired = M.scrub mirror in
      Alcotest.(check int) "scrub healed the secondary" 1 repaired;
      Alcotest.(check int) "repair counter cumulative" 2 (M.repairs mirror);
      Alcotest.(check bool) "twins identical after scrub" true
        (M.verify mirror (Util.name "h"));
      Alcotest.(check int) "scrub of a clean mirror repairs nothing" 0
        (M.scrub mirror))

(* ---------------- Device sums -------------------------------------- *)

(* A split SFS on its own disk holding one synced page of ['a'], read
   back cold once so every block the read touches has a warm device sum;
   [cold] drops every cache and reads the page again. *)
let warm_split tag =
  let vmm = Sp_vm.Vmm.create ~node:"local" (tag ^ "-vmm") in
  let disk = Util.fresh_disk ~blocks:512 ~label:tag () in
  let fs = Sp_coherency.Spring_sfs.make_split ~vmm ~name:tag ~same_domain:false disk in
  let f = S.create fs (Util.name "f") in
  ignore (F.write f ~pos:0 (Bytes.make ps 'a'));
  F.sync f;
  let cold () =
    Sp_vm.Vmm.drop_caches vmm;
    S.drop_caches fs;
    F.read f ~pos:0 ~len:ps
  in
  Util.check_str "warm read" (String.make ps 'a') (cold ());
  (f, cold)

let expect_checksum_error what cold =
  match cold () with
  | got -> Alcotest.failf "%s: served %C without a checksum error" what (Bytes.get got 0)
  | exception Sp_core.Fserr.Checksum_error _ -> ()

(* A cold read makes two device reads, the i-node block and then the
   data block.  Rot flips the data block's stored bit as the second read
   returns it: the device must forget its warm sum, or the flip is
   served. *)
let test_read_rot_beats_warm_sum () =
  Util.in_world (fun () ->
      let _, cold = warm_split "sum-rot" in
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"disk.read" ~label:"sum-rot" ~after:1 ~count:1 Sp_fault.Bitrot ]
      in
      Sp_fault.with_plan plan (fun () -> expect_checksum_error "read-side rot" cold);
      Alcotest.(check int) "the rot fired" 1 (Sp_fault.fired plan))

(* A sync of one page writes the data block first.  A lost data write
   leaves the old bytes and their warm sum on the device; a rotted one
   stores other bytes than those whose sum the write-through records.
   Either way the device must not adopt the recorded sum. *)
let write_fault_not_adopted (what, fault) =
  Alcotest.test_case ("device sum: " ^ what ^ " after a warm read") `Quick (fun () ->
      Util.in_world (fun () ->
          let tag = "sum-" ^ String.sub what 0 4 in
          let f, cold = warm_split tag in
          let plan = Sp_fault.plan [ Sp_fault.rule ~point:"disk.write" ~label:tag ~count:1 fault ] in
          Sp_fault.with_plan plan (fun () ->
              ignore (F.write f ~pos:0 (Bytes.make ps 'b'));
              F.sync f);
          Alcotest.(check int) "the data write met the fault" 1 (Sp_fault.fired plan);
          expect_checksum_error what cold))

(* Verification folds nothing: a warm verified read of a covered block
   allocates the device's copy and nothing more (514 words), and a
   write-through allocates the region block's image and its dirty list
   (583 words).  Passing the seeded sum boxed would add to both. *)
let test_verified_io_allocation () =
  Util.in_world (fun () ->
      let disk = Util.fresh_disk ~blocks:512 ~label:"sum-alloc" () in
      let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
      let dev = Sp_sfs.Journal.make ~csum:(Option.get (Sp_sfs.Csum.attach disk layout)) disk in
      let n = layout.Sp_sfs.Layout.data_start + 7 in
      let data = Util.pattern_bytes ~seed:9 ps in
      Sp_sfs.Journal.write dev n data;
      let read = Util.words_per_call (fun () -> ignore (Sp_sfs.Journal.read dev n : bytes)) in
      let write = Util.words_per_call (fun () -> Sp_sfs.Journal.write dev n data) in
      if read > 514. then Alcotest.failf "warm verified read: %.0f words (bound 514)" read;
      if write > 583. then Alcotest.failf "write-through: %.0f words (bound 583)" write)

(* ---------------- Corruption sweep --------------------------------- *)

let test_sweep_checksums_catch_everything () =
  List.iter
    (fun kind ->
      let r = Sp_sweep.run ~stride:4 (CS.scenario ~kind ~ops:10 ~seed:7 ()) in
      Alcotest.(check int)
        (Printf.sprintf "no silent corruption (%s)" (CS.kind_name kind))
        0 (Sp_sweep.count r "silent");
      Alcotest.(check bool)
        (Printf.sprintf "sweep visited points (%s)" (CS.kind_name kind))
        true (r.Sp_sweep.points > 0))
    [ CS.Bitrot; CS.Misdirected; CS.Lost ]

let test_sweep_mirror_repairs () =
  let r =
    Sp_sweep.run ~stride:2
      (CS.scenario ~mirror:true ~kind:CS.Misdirected ~ops:14 ~seed:7 ())
  in
  Alcotest.(check int) "no silent corruption through the mirror" 0
    (Sp_sweep.count r "silent");
  Alcotest.(check bool) "mirror healed at least one point" true
    (Sp_sweep.count r "repaired" > 0)

let test_sweep_control_without_checksums () =
  (* The control that proves the harness can see silent corruption at
     all: with the checksum region off, bit rot in file data is served
     back without complaint. *)
  let r =
    Sp_sweep.run ~stride:1
      (CS.scenario ~checksums:false ~kind:CS.Bitrot ~ops:20 ~seed:7 ())
  in
  Alcotest.(check bool) "bit rot served silently without checksums" true
    (Sp_sweep.count r "silent" > 0);
  Alcotest.(check bool) "and the report names the first silent point" true
    (r.Sp_sweep.first_failure <> None)

let test_sweep_deterministic () =
  let run () =
    Sp_sweep.verdict_line
      (Sp_sweep.run ~stride:4 (CS.scenario ~kind:CS.Misdirected ~ops:10 ~seed:3 ()))
  in
  Alcotest.(check string) "same seed, same report" (run ()) (run ())

(* On a checksums-off volume a lost or misdirected write at I/O 32 brings
   a removed directory entry back, and the workload's next [create "f4"]
   raises [Already_exists]: a loud failure, so the point is detected
   rather than escaping the sweep. *)
let test_sweep_resurrected_entry_detected () =
  List.iter
    (fun kind ->
      Alcotest.(check string)
        (CS.kind_name kind ^ " at I/O 32")
        "detected: already exists: f4"
        (match CS.run_point ~checksums:false ~kind ~ops:14 ~seed:10 ~at:32 () with
        | CS.Detected m -> "detected: " ^ m
        | _ -> "not detected"))
    [ CS.Misdirected; CS.Lost ]

(* Bit rot in an i-node on a checksums-off volume gives a file an
   impossible length: reading it back raises the typed [No_space] the
   block map raises past its last block, before any buffer is sized for
   it, so the point is detected. *)
let test_sweep_rotten_length_detected () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      Alcotest.(check string)
        "bitrot at read 7 of three clients"
        "detected: no space: corr-bitrotns4-v: file too large"
        (match
           CS.run_point ~checksums:false ~clients:3 ~kind:CS.Bitrot ~ops:8 ~seed:4
             ~at:7 ()
         with
        | CS.Detected m -> "detected: " ^ m
        | _ -> "not detected"))

let test_concurrent_sweep_nothing_silent () =
  Util.in_world (fun () ->
      List.iter
        (fun kind ->
          let r = Sp_sweep.run ~stride:9 (CS.scenario ~clients:8 ~kind ~ops:6 ~seed:7 ()) in
          Alcotest.(check string) "eight clients" "8" (Sp_sweep.param r "clients");
          Alcotest.(check bool)
            (CS.kind_name kind ^ ": swept some points")
            true (r.Sp_sweep.points >= 4);
          Alcotest.(check int) (CS.kind_name kind ^ ": nothing silent") 0
            (Sp_sweep.count r "silent"))
        [ CS.Bitrot; CS.Misdirected; CS.Lost ])

(* ---------------- qcheck: single-bit flips never get through ------- *)

let flip_case =
  let gen = QCheck2.Gen.(pair small_nat (int_bound ((ps * 8) - 1))) in
  let uniq = ref 0 in
  Util.qcheck_case ~count:30 "single-bit flip in a checksummed block is detected"
    gen (fun (seed, bit) ->
      incr uniq;
      Util.in_world (fun () ->
          let tag = Printf.sprintf "qflip%d" !uniq in
          let disk = D.create ~label:tag ~blocks:256 () in
          DL.mkfs disk;
          let fs = DL.mount ~name:(tag ^ "-fs") disk in
          let f = S.create fs (Util.name "q") in
          let data = Util.pattern_bytes ~seed:(seed + 1) ps in
          ignore (F.write f ~pos:0 data);
          S.sync fs;
          (* Round trip holds before anything is flipped. *)
          S.drop_caches fs;
          let clean = Bytes.equal (F.read_all f) data in
          (* Flip one bit of the stored data block behind the layer's
             back, then read again: the flip must surface as a checksum
             error, never as different bytes. *)
          let layout = Sp_sfs.Layout.decode_superblock (D.read disk 0) in
          let c = Option.get (Sp_sfs.Csum.attach disk layout) in
          let blk = ref (-1) in
          for b = layout.Sp_sfs.Layout.total_blocks - 1 downto 1 do
            if !blk < 0 && Sp_sfs.Csum.covers c b then begin
              let stored = D.read disk b in
              if Bytes.equal stored data then blk := b
            end
          done;
          if !blk < 0 then QCheck2.Test.fail_report "data block not found";
          let stored = D.read disk !blk in
          let byte = bit / 8 and k = bit mod 8 in
          Bytes.set stored byte
            (Char.chr (Char.code (Bytes.get stored byte) lxor (1 lsl k)));
          D.write disk !blk stored;
          S.drop_caches fs;
          let detected =
            match F.read_all f with
            | _ -> false
            | exception Sp_core.Fserr.Checksum_error _ -> true
          in
          clean && detected))

(* FNV-1a from state [h], masked to 32 bits after every byte: the
   reference every fold is checked against. *)
let fnv_masked ?(h = 0x811c9dc5) s =
  let h = ref h in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff) s;
  !h

(* Checksums are on-disk bytes: the once-masked folds must equal FNV-1a
   masked to 32 bits after every byte, the padded form over the explicit
   zero-padded block. *)
let prop_fnv1a_masked_once =
  let bs = Sp_blockdev.Disk.block_size in
  Util.qcheck_case ~count:200 "fnv1a folds match per-byte-masked reference"
    QCheck2.Gen.(string_size (int_range 0 bs))
    (fun s ->
      let b = Bytes.of_string s in
      let h = fnv_masked s in
      Sp_sfs.Csum.cksum b = h
      && Sp_dir.Hash.fnv1a s = h
      && Sp_sfs.Csum.cksum_padded b
         = fnv_masked (s ^ String.make (bs - String.length s) '\000'))

(* The fold multiplies a range's trailing zeros and its [pad] in one
   power of the prime.  Buffers are a random prefix (often empty, so
   all-zero buffers come up) then a zero run of any length, with [off],
   [len], [pad] and the starting state random: windows that end inside
   the run, inside the prefix or on a word boundary, and a pad after a
   zero tail. *)
let prop_fold_zero_runs =
  let bs = Sp_blockdev.Disk.block_size in
  let gen =
    QCheck2.Gen.(
      let* prefix = frequency [ (1, return ""); (3, string_size (int_range 1 64)) ] in
      let* zeros = frequency [ (1, return 0); (2, int_range 1 16); (4, int_range 17 bs) ] in
      let b = prefix ^ String.make zeros '\000' in
      let n = String.length b in
      let* off = frequency [ (1, return 0); (1, int_range 0 n) ] in
      let* len = frequency [ (2, return (n - off)); (1, int_range 0 (n - off)) ] in
      let* pad = frequency [ (1, return 0); (1, int_range 1 bs) ] in
      let* h = frequency [ (1, return Sp_dir.Hash.basis); (1, int_range 0 0xffffffff) ] in
      return (b, off, len, pad, h))
  in
  let print (b, off, len, pad, h) =
    Printf.sprintf "%d bytes (%d trailing zeros) off=%d len=%d pad=%d h=%#x" (String.length b)
      (Sp_dir.Hash.zero_tail (Bytes.of_string b))
      off len pad h
  in
  Util.qcheck_case ~count:500 "fnv1a fold of zero runs matches per-byte-masked reference"
    gen (fun ((b, off, len, pad, h) as case) ->
      let got = Sp_dir.Hash.fold h (Bytes.of_string b) ~off ~len ~pad in
      let want = fnv_masked ~h (String.sub b off len ^ String.make pad '\000') in
      got = want || QCheck2.Test.fail_reportf "%s: fold %#x, reference %#x" (print case) got want)

(* Published FNV-1a-32 vectors, plus the zero block every fresh covered
   block starts with. *)
let test_fnv1a_known_answers () =
  let check name expected s =
    Alcotest.(check int) name expected (Sp_dir.Hash.fnv1a s);
    Alcotest.(check int) (name ^ " (cksum)") expected (Sp_sfs.Csum.cksum (Bytes.of_string s))
  in
  check "empty" 0x811c9dc5 "";
  check "a" 0xe40c292c "a";
  check "foobar" 0xbf9cf968 "foobar";
  check "zero block" 0x76efddc5 (String.make Sp_blockdev.Disk.block_size '\000');
  Alcotest.(check int) "padded empty = zero block" 0x76efddc5
    (Sp_sfs.Csum.cksum_padded Bytes.empty)

(* A fold resumed from a masked state over the rest of the bytes (and
   over zero padding) equals the fold of the whole: the journal header
   check folds around its checksum field this way. *)
let prop_fold_resumes =
  Util.qcheck_case ~count:200 "fnv1a fold resumes across a split"
    QCheck2.Gen.(pair (string_size (int_range 0 256)) (int_range 0 256))
    (fun (s, cut) ->
      let b = Bytes.of_string s in
      let cut = min cut (Bytes.length b) in
      let h = Sp_dir.Hash.(fold basis) b ~off:0 ~len:cut ~pad:0 in
      let h = Sp_dir.Hash.fold h b ~off:cut ~len:(Bytes.length b - cut) ~pad:3 in
      h = Sp_dir.Hash.fnv1a (s ^ "\000\000\000"))

(* The fold keeps its state unboxed: a boxed [Int64] state would pass
   every value test above and allocate on every byte, and a boxed word
   in the zero-run scan would allocate on every eight. *)
let test_fnv1a_allocates_nothing () =
  let bs = Sp_blockdev.Disk.block_size in
  let block = Util.pattern_bytes ~seed:5 bs in
  let zero_tail = Bytes.copy block in
  Bytes.fill zero_tail 1024 (bs - 1024) '\000';
  let zero = Bytes.make bs '\000' in
  let name = "a-directory-entry-name" in
  Alcotest.(check (float 0.)) "Csum.cksum of a block" 0.
    (Util.minor_words_per_call (fun () -> ignore (Sp_sfs.Csum.cksum block : int)));
  Alcotest.(check (float 0.)) "Csum.cksum of a block with a 3 KiB zero tail" 0.
    (Util.minor_words_per_call (fun () -> ignore (Sp_sfs.Csum.cksum zero_tail : int)));
  Alcotest.(check (float 0.)) "Csum.cksum of an all-zero block" 0.
    (Util.minor_words_per_call (fun () -> ignore (Sp_sfs.Csum.cksum zero : int)));
  Alcotest.(check (float 0.)) "Hash.fnv1a of a name" 0.
    (Util.minor_words_per_call (fun () -> ignore (Sp_dir.Hash.fnv1a name : int)))

let suite =
  [
    prop_fnv1a_masked_once;
    Alcotest.test_case "fnv1a known answers" `Quick test_fnv1a_known_answers;
    prop_fold_resumes;
    prop_fold_zero_runs;
    Alcotest.test_case "fnv1a folds allocate nothing" `Quick test_fnv1a_allocates_nothing;
    Alcotest.test_case "integrityfs: pass-through + verified counter" `Quick
      test_integrityfs_passthrough;
    Alcotest.test_case "integrityfs: detects lower-layer mutation" `Quick
      test_integrityfs_detects_lower_mutation;
    Alcotest.test_case "scrubber: detects rot and repairs from a twin" `Quick
      test_scrubber_detects_and_repairs;
    Alcotest.test_case "scrubber: no checksum region, nothing scanned" `Quick
      test_scrubber_without_checksum_region;
    Alcotest.test_case "mirror: self-heals rot on either twin" `Quick
      test_mirror_self_heals_both_twins;
    Alcotest.test_case "device sum: read-side rot after a warm read" `Quick
      test_read_rot_beats_warm_sum;
    write_fault_not_adopted ("lost data write", Sp_fault.Lost_write);
    write_fault_not_adopted ("rotted data write", Sp_fault.Bitrot);
    Alcotest.test_case "device sum: verified I/O allocation" `Quick
      test_verified_io_allocation;
    Alcotest.test_case "sweep: checksums leave nothing silent" `Slow
      test_sweep_checksums_catch_everything;
    Alcotest.test_case "sweep: mirror mode repairs" `Slow test_sweep_mirror_repairs;
    Alcotest.test_case "sweep: checksums-off control is silent" `Slow
      test_sweep_control_without_checksums;
    Alcotest.test_case "sweep: deterministic" `Quick test_sweep_deterministic;
    Alcotest.test_case "sweep: resurrected entry is detected" `Quick
      test_sweep_resurrected_entry_detected;
    Alcotest.test_case "sweep: impossible file length is detected" `Quick
      test_sweep_rotten_length_detected;
    Alcotest.test_case "sweep: concurrent clients, nothing silent" `Slow
      test_concurrent_sweep_nothing_silent;
    flip_case;
  ]
