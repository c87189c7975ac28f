module D = Sp_blockdev.Disk

let test_read_write_roundtrip () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:8 () in
      let data = Util.pattern_bytes D.block_size in
      D.write disk 3 data;
      Util.check_bytes "roundtrip" data (D.read disk 3))

let test_short_write_zero_pads () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:4 () in
      D.write disk 0 (Util.bytes_of_string "abc");
      let back = D.read disk 0 in
      Util.check_str "payload" "abc" (Bytes.sub back 0 3);
      Alcotest.(check char) "padded" '\000' (Bytes.get back 3))

let test_bounds () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:4 () in
      Alcotest.check_raises "read oob"
        (Invalid_argument "Disk disk0: block 4 out of range") (fun () ->
          ignore (D.read disk 4));
      Alcotest.check_raises "negative"
        (Invalid_argument "Disk disk0: block -1 out of range") (fun () ->
          ignore (D.read disk (-1))))

let test_oversize_write_rejected () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:4 () in
      Alcotest.check_raises "too big"
        (Invalid_argument "Disk disk0: write larger than a block") (fun () ->
          D.write disk 0 (Bytes.create (D.block_size + 1))))

let test_latency_model () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let model = Sp_sim.Cost_model.paper_1993 in
      let disk = D.create ~blocks:64 () in
      (* Head starts at 0: first access to block 0 costs transfer only. *)
      let t0 = Sp_sim.Simclock.now () in
      ignore (D.read disk 0);
      Alcotest.(check int) "sequential from head position"
        model.Sp_sim.Cost_model.disk_per_block_ns
        (Sp_sim.Simclock.now () - t0);
      (* Adjacent block: no seek. *)
      let t1 = Sp_sim.Simclock.now () in
      ignore (D.read disk 1);
      Alcotest.(check int) "adjacent block skips seek"
        model.Sp_sim.Cost_model.disk_per_block_ns
        (Sp_sim.Simclock.now () - t1);
      (* Far block: seek + rotate + transfer. *)
      let t2 = Sp_sim.Simclock.now () in
      ignore (D.read disk 50);
      Alcotest.(check int) "random block seeks"
        (model.Sp_sim.Cost_model.disk_seek_ns
        + model.Sp_sim.Cost_model.disk_rotate_ns
        + model.Sp_sim.Cost_model.disk_per_block_ns)
        (Sp_sim.Simclock.now () - t2))

let test_stats () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:16 () in
      ignore (D.read disk 0);
      ignore (D.read disk 9);
      D.write disk 2 (Bytes.create 1);
      let s = D.stats disk in
      Alcotest.(check int) "reads" 2 s.D.reads;
      Alcotest.(check int) "writes" 1 s.D.writes;
      Alcotest.(check bool) "seeks counted" true (s.D.seeks >= 1);
      D.reset_stats disk;
      Alcotest.(check int) "reset" 0 (D.stats disk).D.reads)

let test_metrics_integration () =
  Util.in_world (fun () ->
      let disk = D.create ~blocks:4 () in
      let before = Sp_sim.Metrics.snapshot () in
      ignore (D.read disk 0);
      D.write disk 1 (Bytes.create 4);
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "global disk reads" 1 d.Sp_sim.Metrics.disk_reads;
      Alcotest.(check int) "global disk writes" 1 d.Sp_sim.Metrics.disk_writes)

let prop_blocks_independent =
  let gen = QCheck2.Gen.(list_size (int_range 1 16) (int_range 0 15)) in
  Util.qcheck_case ~count:50 "writes to one block never leak to another" gen
    (fun targets ->
      Util.in_world (fun () ->
          let disk = D.create ~blocks:16 () in
          let model = Array.make 16 (Bytes.make D.block_size '\000') in
          List.iteri
            (fun i b ->
              let data = Util.pattern_bytes ~seed:(i + 7) D.block_size in
              D.write disk b data;
              model.(b) <- data)
            targets;
          Array.to_list model
          |> List.mapi (fun i expected -> Bytes.equal (D.read disk i) expected)
          |> List.for_all Fun.id))

(* A block that is zero but for one byte must be stored, never taken
   for a zero write that leaves a never-written block unmaterialised, and
   stored whole over a materialised block.  Every position is tried with
   0x01, 0x80 (the byte a shifted or sign-extended word compare drops at
   a word's end) and 0xff; the materialised block's sum is warm before
   each overwrite, so a kept stale sum shows too. *)
let test_one_byte_blocks () =
  Util.in_world (fun () ->
      let pattern = Util.pattern_bytes ~seed:3 D.block_size in
      let data = Bytes.make D.block_size '\000' in
      let stored kind ~v ~pos disk =
        let back = D.read disk 0 in
        if not (Bytes.equal back data) then
          Alcotest.failf "%s block, %#x at %d: bytes read back differ" kind v pos;
        if D.sum disk 0 <> Sp_sfs.Csum.cksum back then
          Alcotest.failf "%s block, %#x at %d: device sum" kind v pos
      in
      let disk = D.create ~blocks:1 () in
      List.iter
        (fun v ->
          for pos = 0 to D.block_size - 1 do
            Bytes.set data pos (Char.chr v);
            let fresh = D.create ~blocks:1 () in
            D.write fresh 0 data;
            stored "never-written" ~v ~pos fresh;
            D.write disk 0 pattern;
            ignore (D.sum disk 0 : int);
            D.write disk 0 data;
            stored "materialised" ~v ~pos disk;
            Bytes.set data pos '\000'
          done)
        [ 0x01; 0x80; 0xff ];
      (* a short write over a materialised block leaves a zero tail *)
      let short = Util.pattern_bytes ~seed:4 1024 in
      D.write disk 0 pattern;
      ignore (D.sum disk 0 : int);
      D.write disk 0 short;
      let back = D.read disk 0 in
      Util.check_bytes "1 KiB payload" short (Bytes.sub back 0 1024);
      Util.check_bytes "zero tail" (Bytes.make (D.block_size - 1024) '\000')
        (Bytes.sub back 1024 (D.block_size - 1024));
      Alcotest.(check int) "short write's sum" (Sp_sfs.Csum.cksum back) (D.sum disk 0))

(* The device's sum tracks its stored bytes through every write shape
   and every fault that changes, misplaces or drops them.  A step is a
   write (full, short, all-zero — mostly to a never-written block — or a
   two-block vector) that may meet one fault, after which each written
   block is offered the caller's fold of its data, as the journal does;
   or a read that rots the block it returns.  After every step each
   block's sum must equal the fold of what a read returns, and checking
   it warms every sum before the next step. *)
let prop_sum_tracks_bytes =
  let blocks = 8 in
  let step = QCheck2.Gen.(quad (int_range 0 4) (int_range 0 (blocks - 2)) (int_range 0 5) nat) in
  Util.qcheck_case ~count:300 "device sum equals the fold of the stored bytes"
    QCheck2.Gen.(list_size (int_range 1 24) step)
    (fun steps ->
      Util.in_world (fun () ->
          let disk = D.create ~blocks () in
          let data shape seed =
            match shape with
            | 0 -> Util.pattern_bytes ~seed:(seed mod 3) D.block_size
            | 1 -> Util.pattern_bytes ~seed (1 + (seed mod (D.block_size - 1)))
            | _ -> Bytes.make (if seed land 1 = 0 then D.block_size else seed mod D.block_size) '\000'
          in
          let sound () =
            List.for_all
              (fun n -> D.sum disk n = Sp_sfs.Csum.cksum (D.read disk n))
              (List.init blocks Fun.id)
          in
          (* [seed] also places a torn write's cut and a rotted bit *)
          let under fault ~point ~seed ~after f =
            match fault with
            | None -> f ()
            | Some fault ->
                Sp_fault.with_plan
                  (Sp_fault.plan ~seed [ Sp_fault.rule ~point ~after ~count:1 fault ])
                  f
          in
          List.for_all
            (fun (shape, n, fault, seed) ->
              (match shape with
              | 4 ->
                  under (Some Sp_fault.Bitrot) ~point:"disk.read" ~seed ~after:0 (fun () ->
                      ignore (D.read disk n))
              | _ ->
                  let fault =
                    List.nth
                      Sp_fault.
                        [ None; Some Torn_write; Some Bitrot; Some Misdirected_write; Some Lost_write; None ]
                      fault
                  in
                  (* the zero shape goes to the never-written top block *)
                  let n = if shape = 2 && seed land 2 = 0 then blocks - 1 else n in
                  let writes =
                    if shape = 3 then [ (n, data 0 seed); (n + 1, data 0 (seed + 1)) ]
                    else [ (n, data shape seed) ]
                  in
                  (* a vector's fault may hit either block *)
                  let after = if shape = 3 then seed land 1 else 0 in
                  under fault ~point:"disk.write" ~seed ~after (fun () ->
                      match writes with
                      | [ (n, d) ] -> D.write disk n d
                      | _ -> D.write_vec disk writes);
                  List.iter (fun (n, d) -> D.adopt_sum disk n d (Sp_sfs.Csum.cksum_padded d)) writes);
              sound ())
            steps))

(* The elevator's SCAN pick as it was first written — two filters and a
   fold under polymorphic tuple compare — kept as the reference the
   one-pass pick must match.  [pending] is newest first. *)
let scan_reference ~head pending =
  let ahead (b, _, _) = b >= head in
  let pick a b =
    let (ba, sa, _) = a and (bb, sb, _) = b in
    if (ba, sa) <= (bb, sb) then a else b
  in
  match List.filter ahead pending with
  | x :: rest -> List.fold_left pick x rest
  | [] -> (
      match pending with
      | x :: rest -> List.fold_left pick x rest
      | [] -> assert false)

(* Task [i] reads [blocks.(i)], arriving [i] ns into the run: task 0
   takes the idle device and everyone else queues behind its seek, in
   index order.  Returns the blocks in the order they were served (a
   served task records before anything else can run). *)
let served_order ?(seed = 1) disk blocks =
  let order = ref [] in
  let task i () =
    Sp_sched.sleep i;
    ignore (D.read disk blocks.(i));
    order := blocks.(i) :: !order
  in
  ignore (Sp_sched.run ~seed (List.init (Array.length blocks) task));
  List.rev !order

(* The order [scan_reference] serves the same queue in, arrival seq
   being the task index. *)
let reference_order blocks =
  let pending = ref (List.rev (List.init (Array.length blocks - 1) (fun i -> (blocks.(i + 1), i + 1, ())))) in
  let head = ref blocks.(0) and out = ref [ blocks.(0) ] in
  while !pending <> [] do
    let (b, seq, ()) = scan_reference ~head:!head !pending in
    pending := List.filter (fun (_, s, _) -> s <> seq) !pending;
    head := b;
    out := b :: !out
  done;
  List.rev !out

let test_elevator_order () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      (* ties (5, 5, 9, 9), blocks behind the head (1, 2, 3), the head
         itself (7) and a wrap past the top *)
      let blocks = [| 7; 9; 3; 5; 60; 1; 9; 7; 5; 2; 40; 3 |] in
      let served = served_order (D.create ~blocks:64 ()) blocks in
      Alcotest.(check (list int)) "served in SCAN order" [ 7; 7; 9; 9; 40; 60; 1; 2; 3; 3; 5; 5 ] served;
      Alcotest.(check (list int)) "reference agrees" (reference_order blocks) served)

let prop_elevator_matches_reference =
  let gen = QCheck2.Gen.(array_size (int_range 2 40) (int_range 0 15)) in
  Util.qcheck_case ~count:200 "elevator serves in reference SCAN order" gen (fun blocks ->
      Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
          served_order (D.create ~blocks:16 ()) blocks = reference_order blocks))

(* A queued release picks and removes its waiter in place: the words a
   whole run allocates per request must not grow with the queue depth
   (the list-filtering pick allocated O(queue) words per release). *)
let test_elevator_release_allocation () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let words_per_request n =
        let blocks = Array.init n (fun i -> (i * 37) mod 64) in
        ignore (served_order (D.create ~blocks:64 ()) blocks);
        let w0 = Gc.minor_words () in
        ignore (served_order (D.create ~blocks:64 ()) blocks);
        (Gc.minor_words () -. w0) /. float_of_int n
      in
      let shallow = words_per_request 8 and deep = words_per_request 512 in
      Alcotest.(check bool)
        (Printf.sprintf "words per request flat in queue depth (%.0f at 8, %.0f at 512)" shallow deep)
        true
        (deep -. shallow < 32.))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_read_write_roundtrip;
    Alcotest.test_case "short write zero pads" `Quick test_short_write_zero_pads;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "oversize write rejected" `Quick test_oversize_write_rejected;
    Alcotest.test_case "latency model" `Quick test_latency_model;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "metrics integration" `Quick test_metrics_integration;
    Alcotest.test_case "one-byte blocks stored whole" `Quick test_one_byte_blocks;
    Alcotest.test_case "elevator serves in SCAN order" `Quick test_elevator_order;
    Alcotest.test_case "elevator release allocation flat in queue depth" `Quick
      test_elevator_release_allocation;
    prop_blocks_independent;
    prop_sum_tracks_bytes;
    prop_elevator_matches_reference;
  ]
