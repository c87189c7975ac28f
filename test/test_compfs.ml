module F = Sp_core.File
module S = Sp_core.Stackable
module V = Sp_vm.Vm_types

let ps = V.page_size

let make_stack ?(coherent = true) () =
  let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
  let disk = Util.fresh_disk ~blocks:4096 () in
  let sfs = Sp_coherency.Spring_sfs.make_split ~vmm ~name:"sfs" ~same_domain:false disk in
  let comp = Sp_compfs.Compfs.make ~coherent ~vmm ~name:"compfs" () in
  S.stack_on comp sfs;
  (vmm, sfs, comp)

(* --- Lz --- *)

let test_lz_roundtrip_basic () =
  let cases =
    [
      "";
      "a";
      "hello world";
      String.concat "" (List.init 100 (fun _ -> "abcabcabc"));
      String.init 300 (fun i -> Char.chr (i mod 256));
      Bytes.to_string (Bytes.make 5000 'x');
    ]
  in
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      Util.check_bytes "roundtrip" b (Sp_compfs.Lz.decompress (Sp_compfs.Lz.compress b)))
    cases

let test_lz_compresses_redundant () =
  let redundant = Bytes.make ps 'z' in
  let c = Sp_compfs.Lz.compress redundant in
  Alcotest.(check bool) "shrinks redundant page" true (Bytes.length c < ps / 4)

let test_lz_incompressible_bounded () =
  let noise = Util.pattern_bytes ps in
  let c = Sp_compfs.Lz.compress noise in
  Alcotest.(check bool) "bounded expansion" true (Bytes.length c <= ps + 6)

let test_lz_rejects_corrupt () =
  Alcotest.(check bool) "corrupt header rejected" true
    (try
       ignore (Sp_compfs.Lz.decompress (Bytes.of_string "zz"));
       false
     with Invalid_argument _ -> true);
  let bogus = Bytes.make 10 '\255' in
  Alcotest.(check bool) "unknown kind rejected" true
    (try
       ignore (Sp_compfs.Lz.decompress bogus);
       false
     with Invalid_argument _ -> true)

let prop_lz_roundtrip =
  let gen =
    QCheck2.Gen.(
      oneof
        [
          string_size (int_range 0 2000);
          (* Highly repetitive inputs stress the match encoder. *)
          map
            (fun (s, n) ->
              String.concat "" (List.init (min 50 (n + 1)) (fun _ -> s)))
            (pair (string_size (int_range 1 20)) (int_range 1 50));
        ])
  in
  Util.qcheck_case ~count:200 "lz roundtrip" gen (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Sp_compfs.Lz.decompress (Sp_compfs.Lz.compress b)))

(* The compressed bytes are on-disk format: every input must encode
   exactly as the original list-chain compressor ([Lz_reference]) did.
   Lengths run to 9000 so inputs cross the 4096-byte window, and the
   low-entropy shapes overflow the 16-entry chain truncation. *)
let prop_lz_matches_reference =
  let open QCheck2.Gen in
  let len = int_range 0 9000 in
  let alphabet =
    let* a = int_range 2 3 in
    string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound (a - 1))) len
  in
  let payload =
    let+ o = int_bound 255 and+ n = len in
    String.init n (fun i -> Char.chr (((i + o) * 131) land 0xff))
  in
  let runs =
    let+ rs = list_size (int_range 0 40) (pair (int_bound 3) (int_range 1 600)) in
    let s = String.concat "" (List.map (fun (c, r) -> String.make r (Char.chr c)) rs) in
    String.sub s 0 (min 9000 (String.length s))
  in
  let periodic =
    let+ base = string_size (int_range 1 300)
    and+ n = len
    and+ noise = list_size (int_range 0 20) (pair (int_bound 8999) char) in
    let b = Bytes.init n (fun i -> base.[i mod String.length base]) in
    List.iter (fun (i, c) -> if i < n then Bytes.set b i c) noise;
    Bytes.to_string b
  in
  (* A random period on either side of the window: the older copy is
     the only candidate, and only in-window ones may match. *)
  let far_repeat =
    let+ base = string_size (int_range 4000 4200) and+ n = len in
    String.init n (fun i -> base.[i mod String.length base])
  in
  (* No shrinking: each step reruns both compressors on up to 9000
     bytes, and a failing seed already reproduces. *)
  Util.qcheck_case ~count:300 "lz matches reference compressor"
    (no_shrink (oneof [ string_size len; alphabet; payload; runs; periodic; far_repeat ]))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal (Sp_compfs.Lz.compress b) (Lz_reference.compress b))

(* Every short string over a small alphabet: each way a match can end
   against the input's end, a chain can tie, or a match can overlap its
   own source.  [alphabet] symbols up to [max_len] bytes: 32,767 inputs
   over {a,b} and 29,524 over {a,b,c}. *)
let lz_exhaustive alphabet max_len () =
  let k = String.length alphabet in
  let differ = ref 0 and first = ref None and total = ref 0 in
  for len = 0 to max_len do
    let b = Bytes.make len alphabet.[0] in
    let count = int_of_float (float_of_int k ** float_of_int len) in
    for code = 0 to count - 1 do
      let c = ref code in
      for i = 0 to len - 1 do
        Bytes.set b i alphabet.[!c mod k];
        c := !c / k
      done;
      incr total;
      if not (Bytes.equal (Sp_compfs.Lz.compress b) (Lz_reference.compress b)) then begin
        incr differ;
        if !first = None then first := Some (Bytes.to_string b)
      end
    done
  done;
  match !first with
  | None -> ()
  | Some s -> Alcotest.failf "%d of %d inputs encode differently; first %S" !differ !total s

(* A range compressed where it lies gives the bytes of compressing a copy
   of it, at any offset, even when the bytes around it would match. *)
let prop_lz_compress_sub =
  let open QCheck2.Gen in
  let gen =
    let* s = string_size ~gen:(char_range 'a' 'd') (int_range 0 9000) in
    let n = String.length s in
    let* pos = int_range 0 n in
    let+ len = int_range 0 (n - pos) in
    (s, pos, len)
  in
  Util.qcheck_case ~count:200 "lz compress_sub matches compress of the slice" gen
    (fun (s, pos, len) ->
      let b = Bytes.of_string s in
      Bytes.equal
        (Sp_compfs.Lz.compress_sub b ~pos ~len)
        (Sp_compfs.Lz.compress (Bytes.sub b pos len)))

let test_lz_compress_sub_range () =
  let b = Bytes.make 10 'x' in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos %d len %d" pos len)
        (Invalid_argument "Lz.compress_sub")
        (fun () -> ignore (Sp_compfs.Lz.compress_sub b ~pos ~len)))
    [ (-1, 2); (0, 11); (5, 6); (11, 0); (3, -1) ]

let springbench_page = Bytes.init ps (fun i -> Char.chr ((i * 131) land 0xff))

(* Digests of [Lz.compress] taken with the original compressor. *)
let test_lz_format_pinned () =
  let text =
    String.concat ""
      (List.init 300 (fun i -> Printf.sprintf "file%04d: the quick brown fox\n" (i mod 97)))
  in
  let three =
    let x = ref 7 in
    Bytes.init 6000 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x7fffffff;
        Char.chr (Char.code 'a' + ((!x lsr 16) mod 3)))
  in
  List.iter
    (fun (name, input, digest) ->
      Alcotest.(check string)
        name digest
        (Digest.to_hex (Digest.bytes (Sp_compfs.Lz.compress input))))
    [
      ("springbench page", springbench_page, "4d1f166b5bbc36176532ff1e9caad12b");
      ("9000-byte text", Bytes.of_string text, "f950ea03dc7ccec19e9942057b765d96");
      ("3-symbol alphabet", three, "aee297b5700ca5d0dc5be310b35b3957");
    ]

(* A warm compress allocates its result and nothing else.  Both counters
   are read: [Gc.allocated_bytes] sees a major-heap result (over 256
   words), while OCaml 5.1 undercounts minor allocation in it, so minor
   words are checked on their own. *)
let test_lz_allocates_only_result () =
  List.iter
    (fun page ->
      ignore (Sp_compfs.Lz.compress page);
      let a0 = Gc.allocated_bytes () in
      let w0 = Gc.minor_words () in
      let c = Sp_compfs.Lz.compress page in
      let w1 = Gc.minor_words () in
      let a1 = Gc.allocated_bytes () in
      let bound = float_of_int (Bytes.length c + 256) in
      Alcotest.(check bool) "allocated bytes" true (a1 -. a0 <= bound);
      Alcotest.(check bool) "minor bytes" true
        ((w1 -. w0) *. float_of_int (Sys.word_size / 8) <= bound))
    [ springbench_page; Bytes.make ps 'z'; Util.pattern_bytes ps ]

let test_lz_rejects_overlong_header () =
  let b = Bytes.make 16 '\000' in
  Bytes.set_uint8 b 0 1;
  Bytes.set_int32_le b 1 0x7fffffffl;
  (* Heap statistics are brought up to date only by a collection. *)
  let top_heap_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.top_heap_words
  in
  let top0 = top_heap_words () in
  Alcotest.(check bool) "rejected" true
    (match Sp_compfs.Lz.decompress b with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let grown = top_heap_words () - top0 in
  Alcotest.(check bool) "no large allocation" true (grown * (Sys.word_size / 8) < 1 lsl 20)

(* --- COMPFS --- *)

let test_basic_io () =
  Util.in_world (fun () ->
      let _vmm, _sfs, comp = make_stack () in
      let f = S.create comp (Util.name "doc.txt") in
      let n = F.write f ~pos:0 (Util.bytes_of_string "compressed world") in
      Alcotest.(check int) "written" 16 n;
      Util.check_str "read back" "compressed world" (F.read f ~pos:0 ~len:100);
      Alcotest.(check int) "logical length" 16 (F.stat f).Sp_vm.Attr.len)

let test_lower_holds_compressed () =
  Util.in_world (fun () ->
      let _vmm, sfs, comp = make_stack () in
      let f = S.create comp (Util.name "z") in
      let payload = Bytes.make (4 * ps) 'q' in
      ignore (F.write f ~pos:0 payload);
      S.sync comp;
      (* The container in the lower fs holds compressed chunks, not the
         plain payload. *)
      let lower = S.open_file sfs (Util.name "z") in
      let raw = F.read_all lower in
      Alcotest.(check bool) "container smaller than logical (after compaction)"
        true
        (Bytes.length raw < 4 * ps);
      Alcotest.(check int) "savings observable via api" (Bytes.length raw)
        (Sp_compfs.Compfs.container_bytes comp (Util.name "z"));
      Alcotest.(check int) "logical api" (4 * ps)
        (Sp_compfs.Compfs.logical_bytes comp (Util.name "z")))

let test_persistence () =
  Util.in_world (fun () ->
      let vmm, _sfs, comp = make_stack () in
      ignore vmm;
      let f = S.create comp (Util.name "p") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "persist me please"));
      S.sync comp;
      (* Fresh compfs over the same lower file system re-reads containers. *)
      let vmm2 = Sp_vm.Vmm.create ~node:"local" "vmm2" in
      let comp2 = Sp_compfs.Compfs.make ~vmm:vmm2 ~name:"compfs2" () in
      S.stack_on comp2 (List.hd (comp.S.sfs_unders ()));
      let f2 = S.open_file comp2 (Util.name "p") in
      Util.check_str "reload" "persist me please" (F.read f2 ~pos:0 ~len:17);
      Alcotest.(check int) "length reload" 17 (F.stat f2).Sp_vm.Attr.len)

let test_random_overwrites () =
  Util.in_world (fun () ->
      let _vmm, _sfs, comp = make_stack () in
      let f = S.create comp (Util.name "rw") in
      let model = Bytes.make (3 * ps) '\000' in
      let cases = [ (0, 100); (ps - 50, 120); (2 * ps, ps); (10, 10); (ps, 1) ] in
      List.iteri
        (fun i (pos, len) ->
          let data = Util.pattern_bytes ~seed:(i + 3) len in
          ignore (F.write f ~pos data);
          Bytes.blit data 0 model pos len)
        cases;
      let total = (2 * ps) + ps in
      Util.check_bytes "content matches model" (Bytes.sub model 0 total)
        (F.read f ~pos:0 ~len:total))

let test_truncate () =
  Util.in_world (fun () ->
      let _vmm, _sfs, comp = make_stack () in
      let f = S.create comp (Util.name "t") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "0123456789"));
      F.truncate f 4;
      Alcotest.(check int) "len" 4 (F.stat f).Sp_vm.Attr.len;
      Util.check_str "clipped" "0123" (F.read f ~pos:0 ~len:20);
      ignore (F.write f ~pos:6 (Util.bytes_of_string "XY"));
      Util.check_str "zero gap" "0123\000\000XY" (F.read f ~pos:0 ~len:8))

let test_mapped_access () =
  Util.in_world (fun () ->
      let vmm, _sfs, comp = make_stack () in
      let f = S.create comp (Util.name "m") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "mapped compfs"));
      let m = Sp_vm.Vmm.map vmm f.F.f_mem in
      Util.check_str "mapping decompresses" "mapped compfs"
        (Sp_vm.Vmm.read m ~pos:0 ~len:13);
      Sp_vm.Vmm.write m ~pos:0 (Util.bytes_of_string "MAPPED");
      Sp_vm.Vmm.msync m;
      Util.check_str "mapped writes land compressed" "MAPPED compfs"
        (F.read f ~pos:0 ~len:13))

let test_fig5_incoherent () =
  (* Non-coherent stacking: direct writes to the container are NOT seen by
     COMPFS (its decompressed view stays stale). *)
  Util.in_world (fun () ->
      let _vmm, sfs, comp = make_stack ~coherent:false () in
      let f = S.create comp (Util.name "i") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "original data!!"));
      let before = F.read f ~pos:0 ~len:15 in
      (* Clobber the container directly through the lower file system. *)
      let lower = S.open_file sfs (Util.name "i") in
      ignore (F.write lower ~pos:ps (Bytes.make 64 '!'));
      let after = F.read f ~pos:0 ~len:15 in
      Util.check_bytes "compfs view unchanged (incoherent by design)" before after)

let test_fig6_coherent () =
  (* Coherent stacking: the C3-P3 connection lets the lower layer revoke
     COMPFS's state, so direct container writes become visible. *)
  Util.in_world (fun () ->
      let _vmm, sfs, comp = make_stack ~coherent:true () in
      let f = S.create comp (Util.name "c") in
      ignore (F.write f ~pos:0 (Bytes.make ps 'a'));
      S.sync comp;
      Util.check_str "initial" "aaaa" (F.read f ~pos:0 ~len:4);
      (* Rewrite the whole container through the lower file system with a
         fresh valid container (one chunk of 'b' page). *)
      let replacement =
        let chunk = Sp_compfs.Lz.compress (Bytes.make ps 'b') in
        let clen = Bytes.length chunk in
        let h = Bytes.make 8 '\000' in
        Bytes.set_uint16_le h 0 0xc4a9;
        Bytes.set_uint16_le h 2 0;
        Bytes.set_int32_le h 4 (Int32.of_int clen);
        let header = Bytes.make 24 '\000' in
        Bytes.set_int32_le header 0 0x434d5046l;
        Bytes.set_int64_le header 4 (Int64.of_int ps);
        Bytes.set_int64_le header 12 (Int64.of_int (ps + 8 + clen));
        (header, Bytes.cat h chunk)
      in
      let header, log = replacement in
      let lower = S.open_file sfs (Util.name "c") in
      ignore (F.write lower ~pos:ps log);
      ignore (F.write lower ~pos:0 header);
      Util.check_str "compfs sees rewritten container" "bbbb"
        (F.read f ~pos:0 ~len:4))

let test_coherent_upward_via_coherency_layer () =
  (* §6.3 composition: coherency layer on compfs gives coherent sharing of
     compfs files between two cache managers. *)
  Util.in_world (fun () ->
      let vmm, _sfs, comp = make_stack () in
      let top = Sp_coherency.Coherency_layer.make ~vmm ~name:"cohtop" () in
      S.stack_on top comp;
      let f = S.create top (Util.name "shared") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "v1 data"));
      let vmm_b = Sp_vm.Vmm.create ~node:"b" "vmm_b" in
      let mb = Sp_vm.Vmm.map vmm_b f.F.f_mem in
      Util.check_str "B reads through full stack" "v1 data"
        (Sp_vm.Vmm.read mb ~pos:0 ~len:7);
      Sp_vm.Vmm.write mb ~pos:0 (Util.bytes_of_string "v2");
      Util.check_str "A sees B's write" "v2 data" (F.read f ~pos:0 ~len:7))

let test_compaction_reclaims () =
  Util.in_world (fun () ->
      let _vmm, _sfs, comp = make_stack () in
      let f = S.create comp (Util.name "churn") in
      (* Overwrite the same page many times: log grows, compaction shrinks. *)
      for i = 0 to 20 do
        ignore (F.write f ~pos:0 (Util.pattern_bytes ~seed:i ps));
        F.sync f
      done;
      let before = Sp_compfs.Compfs.container_bytes comp (Util.name "churn") in
      S.sync comp;
      let after = Sp_compfs.Compfs.container_bytes comp (Util.name "churn") in
      Alcotest.(check bool) "compaction reclaims space" true (after <= before);
      Alcotest.(check bool) "single live chunk remains" true (after < (2 * ps) + 64);
      Util.check_bytes "data survives compaction" (Util.pattern_bytes ~seed:20 ps)
        (F.read f ~pos:0 ~len:ps))

let test_dirs_and_remove () =
  Util.in_world (fun () ->
      let _vmm, _sfs, comp = make_stack () in
      S.mkdir comp (Util.name "d");
      let f = S.create comp (Util.name "d/x") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "in dir"));
      Util.check_str "nested io" "in dir"
        (F.read (S.open_file comp (Util.name "d/x")) ~pos:0 ~len:6);
      S.remove comp (Util.name "d/x");
      Alcotest.check_raises "gone" (Sp_core.Fserr.No_such_file "d/x") (fun () ->
          ignore (S.open_file comp (Util.name "d/x"))))

let prop_compfs_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 12) (pair (int_range 0 (3 * ps)) (int_range 1 500)))
  in
  Util.qcheck_case ~count:20 "compfs random writes match model" gen (fun writes ->
      Util.in_world (fun () ->
          let _vmm, _sfs, comp = make_stack () in
          let f = S.create comp (Util.name "prop") in
          let size = (3 * ps) + 500 in
          let model = Bytes.make size '\000' in
          let len = ref 0 in
          List.iteri
            (fun i (pos, n) ->
              let data = Util.pattern_bytes ~seed:(i + 41) n in
              ignore (F.write f ~pos data);
              Bytes.blit data 0 model pos n;
              len := max !len (pos + n))
            writes;
          let got = F.read f ~pos:0 ~len:size in
          Bytes.equal got (Bytes.sub model 0 !len)))

let suite =
  [
    Alcotest.test_case "lz roundtrip basics" `Quick test_lz_roundtrip_basic;
    Alcotest.test_case "lz compresses redundancy" `Quick test_lz_compresses_redundant;
    Alcotest.test_case "lz incompressible bounded" `Quick test_lz_incompressible_bounded;
    Alcotest.test_case "lz rejects corrupt input" `Quick test_lz_rejects_corrupt;
    prop_lz_roundtrip;
    prop_lz_matches_reference;
    Alcotest.test_case "lz matches reference on every {a,b} string to 14 bytes" `Quick
      (lz_exhaustive "ab" 14);
    Alcotest.test_case "lz matches reference on every {a,b,c} string to 9 bytes" `Quick
      (lz_exhaustive "abc" 9);
    prop_lz_compress_sub;
    Alcotest.test_case "lz compress_sub checks its range" `Quick test_lz_compress_sub_range;
    Alcotest.test_case "lz format pinned" `Quick test_lz_format_pinned;
    Alcotest.test_case "lz compress allocates only its result" `Quick
      test_lz_allocates_only_result;
    Alcotest.test_case "lz rejects overlong header" `Quick test_lz_rejects_overlong_header;
    Alcotest.test_case "basic io" `Quick test_basic_io;
    Alcotest.test_case "lower holds compressed data" `Quick test_lower_holds_compressed;
    Alcotest.test_case "persistence across instances" `Quick test_persistence;
    Alcotest.test_case "random overwrites" `Quick test_random_overwrites;
    Alcotest.test_case "truncate" `Quick test_truncate;
    Alcotest.test_case "mapped access" `Quick test_mapped_access;
    Alcotest.test_case "fig5: incoherent stacking" `Quick test_fig5_incoherent;
    Alcotest.test_case "fig6: coherent stacking" `Quick test_fig6_coherent;
    Alcotest.test_case "coherent upward via 6.3" `Quick
      test_coherent_upward_via_coherency_layer;
    Alcotest.test_case "compaction reclaims space" `Quick test_compaction_reclaims;
    Alcotest.test_case "dirs and remove" `Quick test_dirs_and_remove;
    prop_compfs_model;
  ]
