(* Sp_fault injection: deterministic plans, disk/net/door injection
   points, retry and failover behaviour, and trace visibility. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module D = Sp_blockdev.Disk

let bs = D.block_size

(* --- the plan machinery itself --- *)

let test_rng_determinism () =
  let draw seed = List.init 16 (fun _ -> Sp_fault.Rng.int (Sp_fault.Rng.create seed) 1000) in
  let a = Sp_fault.Rng.create 42 and b = Sp_fault.Rng.create 42 in
  Alcotest.(check (list int))
    "same seed, same stream"
    (List.init 16 (fun _ -> Sp_fault.Rng.int a 1000))
    (List.init 16 (fun _ -> Sp_fault.Rng.int b 1000));
  Alcotest.(check bool) "different seeds diverge" true (draw 1 <> draw 2)

(* The boxed-state splitmix64 that [Sp_fault.Rng] replaced, kept as the
   oracle: every plan and digest depends on the stream being
   bit-identical. *)
module Rng_oracle = struct
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    let open Int64 in
    t.state <- add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let int t bound =
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

let test_rng_matches_oracle () =
  let n = 10_000 in
  (* Bounds from 1 to max_int, so the modulo sees every magnitude. *)
  let bound i = if i mod 97 = 0 then max_int else 1 + (i * 7919 mod 1_000_003) in
  List.iter
    (fun seed ->
      let r = Sp_fault.Rng.create seed and o = Rng_oracle.create seed in
      let ints = List.init n (fun i -> Sp_fault.Rng.int r (bound i)) in
      Alcotest.(check (list int))
        (Printf.sprintf "int stream, seed %d" seed)
        (List.init n (fun i -> Rng_oracle.int o (bound i)))
        ints;
      let r = Sp_fault.Rng.create seed and o = Rng_oracle.create seed in
      let floats = List.init n (fun _ -> Int64.bits_of_float (Sp_fault.Rng.float r)) in
      Alcotest.(check (list int64))
        (Printf.sprintf "float stream, seed %d" seed)
        (List.init n (fun _ -> Int64.bits_of_float (Rng_oracle.float o)))
        floats)
    [ 0; 1; 7; -1; max_int ]

(* A draw runs on every probabilistic fault consult and every generated
   client op: the state update must not box. *)
let test_rng_int_no_alloc () =
  let r = Sp_fault.Rng.create 7 in
  Alcotest.(check (float 0.)) "Rng.int words per call" 0.
    (Util.minor_words_per_call (fun () -> ignore (Sp_fault.Rng.int r 1000)))

let outcomes plan n =
  Sp_fault.with_plan plan (fun () ->
      List.init n (fun _ -> Sp_fault.consult ~point:"p" ~label:"x"))

let test_plan_replays () =
  Util.in_world (fun () ->
      let mk () = Sp_fault.plan ~seed:5 [ Sp_fault.rule ~point:"p" ~prob:0.3 Sp_fault.Io_error ] in
      let a = outcomes (mk ()) 200 and b = outcomes (mk ()) 200 in
      Alcotest.(check bool) "probabilistic schedule replays" true (a = b);
      let fired = List.length (List.filter (fun o -> o <> Sp_fault.Pass) a) in
      Alcotest.(check bool) "some but not all fire" true (fired > 10 && fired < 190))

let test_after_count_label () =
  Util.in_world (fun () ->
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"p" ~label:"diskA" ~after:3 ~count:2 Sp_fault.Io_error ]
      in
      Sp_fault.with_plan plan (fun () ->
          let hits label =
            List.init 10 (fun _ -> Sp_fault.consult ~point:"p" ~label)
            |> List.mapi (fun i o -> (i, o))
            |> List.filter_map (fun (i, o) -> if o <> Sp_fault.Pass then Some i else None)
          in
          Alcotest.(check (list int)) "wrong label never fires" [] (hits "diskB-0");
          Alcotest.(check (list int))
            "fires on ops 4 and 5 of the matching label only" [ 3; 4 ]
            (hits "node0/diskA"));
      Alcotest.(check int) "fired counter" 2 (Sp_fault.fired plan))

let test_disarmed_is_pass () =
  Alcotest.(check bool) "no plan armed" false (Sp_fault.active ());
  Alcotest.(check bool) "consult passes" true
    (Sp_fault.consult ~point:"disk.write" ~label:"any" = Sp_fault.Pass);
  Alcotest.(check int) "nothing injected" 0 (Sp_fault.injected ())

(* --- disk injection --- *)

let test_transient_disk_error () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"inj-disk0" ~blocks:16 () in
      D.write disk 3 (Bytes.make bs 'a');
      let before = Sp_sim.Metrics.snapshot () in
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"disk.read" ~label:"inj-disk0" ~count:1 Sp_fault.Io_error ]
      in
      Sp_fault.with_plan plan (fun () ->
          Alcotest.(check bool) "first read fails" true
            (try
               ignore (D.read disk 3);
               false
             with Sp_core.Fserr.Io_error _ -> true);
          (* Transient: the very next read succeeds. *)
          Alcotest.(check char) "second read succeeds" 'a' (Bytes.get (D.read disk 3) 0));
      Alcotest.(check int) "metrics counted the fault" 1
        (Util.metrics_since before).Sp_sim.Metrics.faults_injected)

let test_torn_write () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"inj-torn0" ~blocks:16 () in
      D.write disk 5 (Bytes.make bs 'o');
      let plan =
        Sp_fault.plan ~seed:9
          [ Sp_fault.rule ~point:"disk.write" ~label:"inj-torn0" ~count:1 Sp_fault.Torn_write ]
      in
      Sp_fault.with_plan plan (fun () -> D.write disk 5 (Bytes.make bs 'n'));
      let b = D.read disk 5 in
      let cut = ref 0 in
      while !cut < bs && Bytes.get b !cut = 'n' do incr cut done;
      Alcotest.(check bool) "a strict prefix of the new data persisted" true
        (!cut > 0 && !cut < bs);
      (* The tail still holds the previous contents, not zeros. *)
      for i = !cut to bs - 1 do
        if Bytes.get b i <> 'o' then Alcotest.fail "old tail clobbered"
      done;
      (* An untouched write afterwards is whole again. *)
      D.write disk 5 (Bytes.make bs 'w');
      Alcotest.(check char) "later writes intact" 'w' (Bytes.get (D.read disk 5) (bs - 1)))

let test_fail_stop_at_nth_write () =
  Util.in_world (fun () ->
      let disk = D.create ~label:"inj-crash0" ~blocks:16 () in
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"disk.write" ~label:"inj-crash0" ~after:2 ~count:1
              Sp_fault.Fail_stop ]
      in
      Alcotest.(check bool) "third write crashes" true
        (try
           Sp_fault.with_plan plan (fun () ->
               for i = 0 to 5 do D.write disk i (Bytes.make bs 'x') done);
           false
         with Sp_fault.Crash _ -> true);
      (* Writes before the crash point persisted; the crashing one did not. *)
      Alcotest.(check char) "write 1 persisted" 'x' (Bytes.get (D.read disk 1) 0);
      Alcotest.(check char) "write 3 never happened" '\000' (Bytes.get (D.read disk 3) 0))

(* --- door injection --- *)

let test_door_call_fault () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "inj-vmm-door" in
      let sfs =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:"inj-door-sfs" ~same_domain:false
          (Util.fresh_disk ())
      in
      let f = S.create sfs (Util.name "d") in
      let plan =
        Sp_fault.plan [ Sp_fault.rule ~point:"door.call" ~count:1 Sp_fault.Io_error ]
      in
      Alcotest.(check bool) "door call raises Injected" true
        (try
           Sp_fault.with_plan plan (fun () -> ignore (F.stat f));
           false
         with Sp_fault.Injected _ -> true);
      Alcotest.(check int) "door works again after the plan" 0 (F.stat f).Sp_vm.Attr.len)

(* --- network injection: retry, partition, trace --- *)

let make_dfs_world suffix =
  let net = Sp_dfs.Net.create () in
  let vmm_a = Sp_vm.Vmm.create ~node:"alpha" ("inj-vmm" ^ suffix) in
  let sfs =
    Sp_coherency.Spring_sfs.make_split ~node:"alpha" ~vmm:vmm_a
      ~name:("inj-sfs" ^ suffix) ~same_domain:false (Util.fresh_disk ())
  in
  let dfs =
    Sp_dfs.Dfs.make_server ~node:"alpha" ~net ~vmm:vmm_a ~name:("inj-dfs" ^ suffix) ()
  in
  S.stack_on dfs sfs;
  let import = Sp_dfs.Dfs.import ~net ~client_node:"beta" dfs in
  (net, sfs, import)

let test_net_drop_retried () =
  Util.in_world (fun () ->
      let net, sfs, import = make_dfs_world "-drop" in
      let f = S.create sfs (Util.name "r") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "remote data"));
      F.sync f;
      let before = Sp_sim.Metrics.snapshot () in
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"net.rpc" ~label:"beta->alpha" ~count:2 Sp_fault.Drop ]
      in
      Sp_fault.with_plan plan (fun () ->
          (* Two dropped attempts, then success — invisible to the caller. *)
          Util.check_str "read succeeds despite drops" "remote data"
            (F.read (S.open_file import (Util.name "r")) ~pos:0 ~len:11));
      Alcotest.(check bool) "retries counted on the link" true
        ((Sp_dfs.Net.stats net).Sp_dfs.Net.retries >= 2);
      Alcotest.(check bool) "retries counted in metrics" true
        ((Util.metrics_since before).Sp_sim.Metrics.net_retries >= 2))

let test_partition_gives_up () =
  Util.in_world (fun () ->
      let _net, sfs, import = make_dfs_world "-part" in
      let f = S.create sfs (Util.name "p") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "unreachable"));
      F.sync f;
      let plan = Sp_fault.plan (Sp_fault.partition ~a:"alpha" ~b:"beta") in
      Sp_fault.with_plan plan (fun () ->
          Alcotest.(check bool) "partition surfaces as Io_error after retries" true
            (try
               ignore (S.open_file import (Util.name "p"));
               false
             with Sp_core.Fserr.Io_error _ -> true));
      (* Partition healed: the same open now works. *)
      ignore (S.open_file import (Util.name "p")))

let test_faults_visible_in_trace () =
  Util.in_world (fun () ->
      let _net, sfs, import = make_dfs_world "-trace" in
      let f = S.create sfs (Util.name "t") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "x"));
      F.sync f;
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"net.rpc" ~label:"beta->alpha" ~count:1 Sp_fault.Drop ]
      in
      let (), trace =
        Sp_trace.with_tracing ~root:"fault-test" (fun () ->
            Sp_fault.with_plan plan (fun () ->
                ignore (F.read (S.open_file import (Util.name "t")) ~pos:0 ~len:1)))
      in
      let names = List.map (fun i -> i.Sp_trace.in_name) trace.Sp_trace.tr_instants in
      Alcotest.(check bool) "drop recorded as instant" true
        (List.mem "fault:drop" names);
      Alcotest.(check bool) "retry recorded as instant" true
        (List.mem "net.retry" names);
      (* Instants survive into the Chrome export. *)
      let file = Filename.temp_file "spring_fault" ".json" in
      Sp_trace.write_chrome_json file trace;
      let ic = open_in file in
      let len = in_channel_length ic in
      let json = really_input_string ic len in
      close_in ic;
      Sys.remove file;
      Alcotest.(check bool) "chrome json has instant events" true
        (let contains s sub =
           let n = String.length sub in
           let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
           go 0
         in
         contains json "\"ph\": \"i\"" || contains json "\"ph\":\"i\""))

(* --- mirrorfs failover under injected faults --- *)

let test_mirror_auto_failover () =
  Util.in_world (fun () ->
      let vmm = Sp_vm.Vmm.create ~node:"local" "inj-vmm-mirror" in
      let mk n lbl =
        Sp_coherency.Spring_sfs.make_split ~vmm ~name:n ~same_domain:false
          (Util.fresh_disk ~label:lbl ())
      in
      let mirror = Sp_mirrorfs.Mirrorfs.make ~vmm ~name:"inj-mirror" () in
      S.stack_on mirror (mk "inj-mir-a" "inj-mdiskA");
      S.stack_on mirror (mk "inj-mir-b" "inj-mdiskB");
      let f = S.create mirror (Util.name "x") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "mirrored"));
      F.sync f;
      Alcotest.(check bool) "healthy at first" true
        (Sp_mirrorfs.Mirrorfs.degraded mirror = None);
      (* Primary's device starts failing every write. *)
      let plan =
        Sp_fault.plan
          [ Sp_fault.rule ~point:"disk.write" ~label:"inj-mdiskA" Sp_fault.Io_error ]
      in
      Sp_fault.with_plan plan (fun () ->
          ignore (F.write f ~pos:0 (Util.bytes_of_string "MIRRORED"));
          F.sync f);
      Alcotest.(check bool) "primary degraded automatically" true
        (Sp_mirrorfs.Mirrorfs.degraded mirror = Some Sp_mirrorfs.Mirrorfs.Primary);
      Alcotest.(check bool) "failover counted" true
        (Sp_mirrorfs.Mirrorfs.failovers mirror >= 1);
      Util.check_str "write survived on the secondary" "MIRRORED" (F.read f ~pos:0 ~len:8);
      (* Device repaired: resync the replica and restore redundancy. *)
      Sp_mirrorfs.Mirrorfs.repair mirror (Util.name "x");
      Sp_mirrorfs.Mirrorfs.set_degraded mirror None;
      Alcotest.(check bool) "replicas identical after repair" true
        (Sp_mirrorfs.Mirrorfs.verify mirror (Util.name "x"));
      Util.check_str "reads fine fully mirrored again" "MIRRORED" (F.read f ~pos:0 ~len:8))

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng matches the boxed oracle" `Quick test_rng_matches_oracle;
    Alcotest.test_case "rng int allocates nothing" `Quick test_rng_int_no_alloc;
    Alcotest.test_case "plan replays bit-identically" `Quick test_plan_replays;
    Alcotest.test_case "after/count/label selectors" `Quick test_after_count_label;
    Alcotest.test_case "disarmed path is a no-op" `Quick test_disarmed_is_pass;
    Alcotest.test_case "transient disk error" `Quick test_transient_disk_error;
    Alcotest.test_case "torn write keeps old tail" `Quick test_torn_write;
    Alcotest.test_case "fail-stop at nth write" `Quick test_fail_stop_at_nth_write;
    Alcotest.test_case "door.call fault" `Quick test_door_call_fault;
    Alcotest.test_case "net drop retried transparently" `Quick test_net_drop_retried;
    Alcotest.test_case "partition exhausts retries" `Quick test_partition_gives_up;
    Alcotest.test_case "faults visible in trace" `Quick test_faults_visible_in_trace;
    Alcotest.test_case "mirrorfs auto-failover + repair" `Quick test_mirror_auto_failover;
  ]
