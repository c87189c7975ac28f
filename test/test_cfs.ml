module F = Sp_core.File
module S = Sp_core.Stackable

let make_world () =
  let net = Sp_dfs.Net.create () in
  let vmm_a = Sp_vm.Vmm.create ~node:"alpha" "vmm_a" in
  let sfs =
    Sp_coherency.Spring_sfs.make_split ~node:"alpha" ~vmm:vmm_a ~name:"sfs"
      ~same_domain:false (Util.fresh_disk ())
  in
  let dfs = Sp_dfs.Dfs.make_server ~node:"alpha" ~net ~vmm:vmm_a ~name:"dfs" () in
  S.stack_on dfs sfs;
  let import = Sp_dfs.Dfs.import ~net ~client_node:"beta" dfs in
  let vmm_b = Sp_vm.Vmm.create ~node:"beta" "vmm_b" in
  let cfs = Sp_cfs.Cfs.make ~node:"beta" ~vmm:vmm_b ~name:"cfs0" () in
  (net, sfs, dfs, import, cfs)

let test_interposed_io () =
  Util.in_world (fun () ->
      let _net, _sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "f"));
      let remote = S.open_file import (Util.name "f") in
      let local = Sp_cfs.Cfs.interpose cfs remote in
      ignore (F.write local ~pos:0 (Util.bytes_of_string "cfs cached"));
      Util.check_str "read through cfs" "cfs cached" (F.read local ~pos:0 ~len:10);
      (* Idempotent interposition. *)
      Alcotest.(check bool) "same wrapper" true
        (Sp_cfs.Cfs.interpose cfs remote == local))

let test_attr_caching_cuts_network () =
  Util.in_world (fun () ->
      let net, _sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "a"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "a")) in
      ignore (F.stat local);
      (* warm the attr cache *)
      Sp_dfs.Net.reset_stats net;
      for _ = 1 to 20 do
        ignore (F.stat local)
      done;
      Alcotest.(check int) "cached stats cross no network" 0
        (Sp_dfs.Net.stats net).Sp_dfs.Net.messages)

let test_data_caching_cuts_network () =
  Util.in_world (fun () ->
      let net, _sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "d"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "d")) in
      ignore (F.write local ~pos:0 (Util.bytes_of_string "stay local"));
      ignore (F.read local ~pos:0 ~len:10);
      Sp_dfs.Net.reset_stats net;
      for _ = 1 to 20 do
        ignore (F.read local ~pos:0 ~len:10)
      done;
      Alcotest.(check int) "cached reads cross no network" 0
        (Sp_dfs.Net.stats net).Sp_dfs.Net.messages)

let test_without_cfs_everything_is_remote () =
  Util.in_world (fun () ->
      let net, _sfs, dfs, import, _cfs = make_world () in
      ignore (S.create dfs (Util.name "r"));
      let remote = S.open_file import (Util.name "r") in
      ignore (F.stat remote);
      Sp_dfs.Net.reset_stats net;
      for _ = 1 to 5 do
        ignore (F.stat remote)
      done;
      Alcotest.(check bool) "uninterposed stats all go remote" true
        ((Sp_dfs.Net.stats net).Sp_dfs.Net.messages >= 5))

let test_attr_invalidation_from_server () =
  (* A server-side change invalidates CFS's cached attributes via the
     fs_cache channel, so the client sees fresh values. *)
  Util.in_world (fun () ->
      let _net, sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "inv"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "inv")) in
      Alcotest.(check int) "initially empty" 0 (F.stat local).Sp_vm.Attr.len;
      (* Write through the server's local SFS path. *)
      let server_file = S.open_file sfs (Util.name "inv") in
      ignore (F.write server_file ~pos:0 (Util.bytes_of_string "grown!"));
      Alcotest.(check int) "cfs view refreshed" 6 (F.stat local).Sp_vm.Attr.len)

let test_local_writes_reach_server () =
  Util.in_world (fun () ->
      let _net, sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "w"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "w")) in
      ignore (F.write local ~pos:0 (Util.bytes_of_string "to the server"));
      F.sync local;
      Util.check_str "server sees data" "to the server"
        (F.read (S.open_file sfs (Util.name "w")) ~pos:0 ~len:13))

let test_wrap_import () =
  Util.in_world (fun () ->
      let net, _sfs, dfs, import, cfs = make_world () in
      S.mkdir dfs (Util.name "sub");
      ignore (S.create dfs (Util.name "sub/x"));
      let cached_view = Sp_cfs.Cfs.wrap_import cfs import in
      let f = S.open_file cached_view (Util.name "sub/x") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "wrapped"));
      ignore (F.stat f);
      Sp_dfs.Net.reset_stats net;
      ignore (F.stat f);
      ignore (F.read f ~pos:0 ~len:7);
      Alcotest.(check int) "whole name space interposed" 0
        (Sp_dfs.Net.stats net).Sp_dfs.Net.messages)

(* Two clients, on beta and gamma, each with its own CFS over the one DFS
   export of the split SFS on alpha. *)
let make_two_clients () =
  let net, sfs, dfs, import_a, cfs_a = make_world () in
  let import_b = Sp_dfs.Dfs.import ~net ~client_node:"gamma" dfs in
  let vmm_c = Sp_vm.Vmm.create ~node:"gamma" "vmm_c" in
  let cfs_b = Sp_cfs.Cfs.make ~node:"gamma" ~vmm:vmm_c ~name:"cfs1" () in
  let open_both path =
    ignore (S.create dfs (Util.name path));
    ( Sp_cfs.Cfs.interpose cfs_a (S.open_file import_a (Util.name path)),
      Sp_cfs.Cfs.interpose cfs_b (S.open_file import_b (Util.name path)) )
  in
  (net, sfs, open_both)

(* [counted net f] is [f ()] with the attribute fetches, coherency actions
   and network messages it caused. *)
let counted net f =
  let before = Sp_sim.Metrics.snapshot () in
  let m0 = (Sp_dfs.Net.stats net).Sp_dfs.Net.messages in
  let r = f () in
  let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
  ( r,
    ( d.Sp_sim.Metrics.attr_fetches,
      d.Sp_sim.Metrics.coherency_actions,
      (Sp_dfs.Net.stats net).Sp_dfs.Net.messages - m0 ) )

let check_counts msg expected actual =
  Alcotest.(check (triple int int int))
    (msg ^ " (attr fetches, coherency actions, net messages)")
    expected actual

let test_two_clients_share_attrs () =
  Util.in_world (fun () ->
      let net, sfs, open_both = make_two_clients () in
      let a, b = open_both "shared" in
      ignore (F.stat a);
      ignore (F.stat b);
      (* A length extension by A is written through and invalidates B. *)
      let _, n =
        counted net (fun () -> F.write a ~pos:0 (Util.bytes_of_string "twelve bytes"))
      in
      check_counts "A extends" (1, 0, 13) n;
      let len, n = counted net (fun () -> (F.stat b).Sp_vm.Attr.len) in
      Alcotest.(check int) "B sees the extension" 12 len;
      check_counts "B stats the extension" (1, 0, 4) n;
      (* So is a truncate. *)
      let _, n = counted net (fun () -> F.truncate a 5) in
      check_counts "A truncates" (1, 5, 27) n;
      let len, n = counted net (fun () -> (F.stat b).Sp_vm.Attr.len) in
      Alcotest.(check int) "B sees the truncate" 5 len;
      check_counts "B stats the truncate" (1, 0, 3) n;
      (* A server-side change through the SFS reaches both clients. *)
      let srv = S.open_file sfs (Util.name "shared") in
      let at = F.stat srv in
      let _, n =
        counted net (fun () -> F.set_attr srv { at with Sp_vm.Attr.mtime = 4242 })
      in
      check_counts "server sets mtime" (0, 0, 4) n;
      let mt, n = counted net (fun () -> (F.stat a).Sp_vm.Attr.mtime) in
      Alcotest.(check int) "A sees the server's mtime" 4242 mt;
      check_counts "A stats the server's mtime" (2, 0, 5) n;
      let mt, n = counted net (fun () -> (F.stat b).Sp_vm.Attr.mtime) in
      Alcotest.(check int) "B sees the server's mtime" 4242 mt;
      check_counts "B stats the server's mtime" (1, 0, 3) n;
      (* B has never fetched [cold]'s attributes: its first stat recalls
         A's unsynced copy through the DFS's coherency layer. *)
      let a2, b2 = open_both "cold" in
      let at = F.stat a2 in
      let _, n =
        counted net (fun () -> F.set_attr a2 { at with Sp_vm.Attr.mtime = 5353 })
      in
      check_counts "A sets mtime locally" (0, 0, 0) n;
      let mt, n = counted net (fun () -> (F.stat b2).Sp_vm.Attr.mtime) in
      Alcotest.(check int) "cold B stat recalls A's mtime" 5353 mt;
      check_counts "B's cold stat" (1, 0, 4) n)

let test_synced_change_invalidates_peer () =
  (* A's sync reaches the DFS's coherency layer as fp_attr_sync, whose
     recall has already installed A's copy there: the recall itself must
     invalidate B's warm copy. *)
  Util.in_world (fun () ->
      let _net, _sfs, open_both = make_two_clients () in
      let a, b = open_both "synced" in
      let at = F.stat a in
      ignore (F.stat b);
      F.set_attr a { at with Sp_vm.Attr.mtime = 5353 };
      F.sync a;
      Alcotest.(check int) "B's warm stat sees A's synced mtime" 5353
        (F.stat b).Sp_vm.Attr.mtime)

let test_recall_through_stacked_layers () =
  (* The server's SFS recalls from the DFS's coherency layer, which must
     first recall from the CFS client above it. *)
  Util.in_world (fun () ->
      let net, sfs, open_both = make_two_clients () in
      let a, _b = open_both "deep" in
      let at = F.stat a in
      F.set_attr a { at with Sp_vm.Attr.mtime = 5353 };
      let m0 = (Sp_dfs.Net.stats net).Sp_dfs.Net.messages in
      let mt = (F.stat (S.open_file sfs (Util.name "deep"))).Sp_vm.Attr.mtime in
      Alcotest.(check int) "SFS stat recalls the client's dirty mtime" 5353 mt;
      Alcotest.(check bool) "the recall crosses the network" true
        ((Sp_dfs.Net.stats net).Sp_dfs.Net.messages > m0))

(* Dropping the server stack's caches destroys the DFS's channel to the
   client, and the destroy reaches CFS through the forwarded cache
   object: CFS must forget the entry its bind recorded, whose key is the
   server's, not the remote file's id. *)
let test_destroy_forgets_entry () =
  Util.in_world (fun () ->
      let _net, _sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "gone"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "gone")) in
      ignore (F.stat local);
      Alcotest.(check int) "the stat is cached" 1 (Sp_cfs.Cfs.cached_attrs cfs);
      S.drop_caches dfs;
      Alcotest.(check int) "the destroyed channel's entry is gone" 0
        (Sp_cfs.Cfs.cached_attrs cfs))

(* A server drop evicts the file from the server's coherency layers and
   destroys the CFS channel, while the client still holds the file.  The
   client's next operation binds again, so it serves no stale attributes,
   and it shares one file with the server whichever touches the file
   first: the server's file opened before the drop, the client, or a
   fresh open on the server.  Writes each way are seen the other way. *)
let test_server_drop order () =
  Util.in_world (fun () ->
      let _net, sfs, dfs, import, cfs = make_world () in
      ignore (S.create dfs (Util.name "back"));
      let local = Sp_cfs.Cfs.interpose cfs (S.open_file import (Util.name "back")) in
      let open_srv () = S.open_file sfs (Util.name "back") in
      let held = if order = `Held then Some (open_srv ()) else None in
      let len f = (F.stat f).Sp_vm.Attr.len in
      Alcotest.(check int) "empty at first" 0 (len local);
      S.drop_caches dfs;
      if order = `Client_first then Alcotest.(check int) "empty after the drop" 0 (len local);
      let srv = match held with Some f -> f | None -> open_srv () in
      ignore (F.write srv ~pos:0 (Util.bytes_of_string "hello"));
      F.sync srv;
      Alcotest.(check int) "client sees the length" 5 (len local);
      Util.check_str "client reads" "hello" (F.read local ~pos:0 ~len:5);
      ignore (F.write local ~pos:5 (Util.bytes_of_string ", again"));
      F.sync local;
      Alcotest.(check int) "server sees the length" 12 (len srv);
      Util.check_str "server reads" "hello, again" (F.read srv ~pos:0 ~len:12);
      ignore (F.write srv ~pos:12 (Util.bytes_of_string "!"));
      F.sync srv;
      Alcotest.(check int) "client sees it again" 13 (len local);
      Util.check_str "and reads it" "hello, again!" (F.read local ~pos:0 ~len:13))

let suite =
  [
    Alcotest.test_case "interposed io" `Quick test_interposed_io;
    Alcotest.test_case "attr caching cuts network" `Quick test_attr_caching_cuts_network;
    Alcotest.test_case "data caching cuts network" `Quick test_data_caching_cuts_network;
    Alcotest.test_case "without cfs: all remote" `Quick
      test_without_cfs_everything_is_remote;
    Alcotest.test_case "attr invalidation from server" `Quick
      test_attr_invalidation_from_server;
    Alcotest.test_case "local writes reach server" `Quick test_local_writes_reach_server;
    Alcotest.test_case "wrap_import" `Quick test_wrap_import;
    Alcotest.test_case "two clients share attributes" `Quick test_two_clients_share_attrs;
    Alcotest.test_case "synced change invalidates peer" `Quick
      test_synced_change_invalidates_peer;
    Alcotest.test_case "recall through stacked layers" `Quick
      test_recall_through_stacked_layers;
    Alcotest.test_case "channel destroy forgets the entry" `Quick
      test_destroy_forgets_entry;
    Alcotest.test_case "server drop: server file held" `Quick (test_server_drop `Held);
    Alcotest.test_case "server drop: client first" `Quick
      (test_server_drop `Client_first);
    Alcotest.test_case "server drop: server open first" `Quick
      (test_server_drop `Server_first);
  ]
