module C = Sp_naming.Context
module N = Sp_naming.Sname

type C.obj += Leaf of int

let make_ctx label =
  C.make ~domain:(Sp_obj.Sdomain.create ("ns:" ^ label)) ~label ()

let test_sname_parsing () =
  let check s expected =
    Alcotest.(check (list string)) s expected (N.components (N.of_string s))
  in
  check "/a/b/c" [ "a"; "b"; "c" ];
  check "a//b/" [ "a"; "b" ];
  check "/" [];
  check "./a/./b" [ "a"; "b" ];
  Alcotest.(check string) "round trip" "a/b" (N.to_string (N.of_string "/a/b"));
  Alcotest.(check string) "empty prints as /" "/" (N.to_string (N.of_string "/"))

let test_sname_rejects_dotdot () =
  Alcotest.check_raises "dotdot"
    (Invalid_argument "Sname.of_string: '..' is not supported") (fun () ->
      ignore (N.of_string "a/../b"))

let test_bind_resolve () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      C.bind root (N.of_string "x") (Leaf 1);
      (match C.resolve root (N.of_string "x") with
      | Leaf 1 -> ()
      | _ -> Alcotest.fail "wrong object");
      Alcotest.check_raises "rebinding same name"
        (C.Already_bound "root/x") (fun () -> C.bind root (N.of_string "x") (Leaf 2)))

let test_compound_resolution () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      let a = make_ctx "a" in
      let b = make_ctx "b" in
      C.bind root (N.of_string "a") (C.Context a);
      C.bind a (N.of_string "b") (C.Context b);
      C.bind b (N.of_string "leaf") (Leaf 42);
      match C.resolve root (N.of_string "a/b/leaf") with
      | Leaf 42 -> ()
      | _ -> Alcotest.fail "compound resolution failed")

let test_resolve_unbound () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      Alcotest.check_raises "unbound" (C.Unbound "root/nope") (fun () ->
          ignore (C.resolve root (N.of_string "nope"))))

let test_multiple_names_one_object () =
  (* "An object can be bound to several different names in possibly several
     different contexts at the same time." *)
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      let other = make_ctx "other" in
      C.bind root (N.of_string "first") (Leaf 7);
      C.bind root (N.of_string "second") (Leaf 7);
      C.bind root (N.of_string "sub") (C.Context other);
      C.bind other (N.of_string "third") (Leaf 7);
      let get n = match C.resolve root (N.of_string n) with
        | Leaf v -> v
        | _ -> Alcotest.fail "not a leaf"
      in
      Alcotest.(check int) "first" 7 (get "first");
      Alcotest.(check int) "second" 7 (get "second");
      Alcotest.(check int) "third" 7 (get "sub/third"))

let test_unbind_and_list () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      C.bind root (N.of_string "b") (Leaf 2);
      C.bind root (N.of_string "a") (Leaf 1);
      Alcotest.(check (list string)) "sorted list" [ "a"; "b" ]
        (C.list root (N.of_string "/"));
      C.unbind root (N.of_string "a");
      Alcotest.(check (list string)) "after unbind" [ "b" ]
        (C.list root (N.of_string "/"));
      Alcotest.check_raises "unbind missing" (C.Unbound "root/a") (fun () ->
          C.unbind root (N.of_string "a")))

let test_rebind_replaces () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      C.bind root (N.of_string "x") (Leaf 1);
      C.rebind root (N.of_string "x") (Leaf 2);
      match C.resolve root (N.of_string "x") with
      | Leaf 2 -> ()
      | _ -> Alcotest.fail "rebind did not replace")

let test_acl_enforcement () =
  Util.in_world (fun () ->
      let domain = Sp_obj.Sdomain.create "secure" in
      let acl = Sp_naming.Acl.make [ ("alice", [ Sp_naming.Acl.Resolve; Bind ]) ] in
      let ctx = C.make ~domain ~label:"secure" ~acl () in
      C.bind ~principal:"alice" ctx (N.of_string "x") (Leaf 1);
      (match C.resolve ~principal:"alice" ctx (N.of_string "x") with
      | Leaf 1 -> ()
      | _ -> Alcotest.fail "alice resolve");
      (* bob can do nothing *)
      (try
         ignore (C.resolve ~principal:"bob" ctx (N.of_string "x"));
         Alcotest.fail "bob should be denied"
       with C.Denied _ -> ());
      (* alice cannot unbind *)
      try
        C.unbind ~principal:"alice" ctx (N.of_string "x");
        Alcotest.fail "alice unbind should be denied"
      with C.Denied _ -> ())

let test_acl_grant_revoke () =
  let acl = Sp_naming.Acl.make [] in
  Alcotest.(check bool) "initially denied" false
    (Sp_naming.Acl.permits acl ~principal:"p" Sp_naming.Acl.Resolve);
  let acl = Sp_naming.Acl.grant acl ~principal:"p" [ Sp_naming.Acl.Resolve ] in
  Alcotest.(check bool) "granted" true
    (Sp_naming.Acl.permits acl ~principal:"p" Sp_naming.Acl.Resolve);
  let acl = Sp_naming.Acl.revoke acl ~principal:"p" in
  Alcotest.(check bool) "revoked" false
    (Sp_naming.Acl.permits acl ~principal:"p" Sp_naming.Acl.Resolve)

let test_resolution_crosses_domains () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      let sub = make_ctx "sub" in
      C.bind root (N.of_string "sub") (C.Context sub);
      C.bind sub (N.of_string "leaf") (Leaf 1);
      let before = Sp_sim.Metrics.snapshot () in
      ignore (C.resolve root (N.of_string "sub/leaf"));
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      (* One door call into root's domain, one into sub's. *)
      Alcotest.(check int) "two crossings" 2 d.Sp_sim.Metrics.cross_domain_calls)

let test_mkdir_path () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      let domain = Sp_obj.Sdomain.create "mk" in
      let deep = C.mkdir_path root (N.of_string "a/b/c") ~domain in
      C.bind deep (N.of_string "leaf") (Leaf 9);
      match C.resolve root (N.of_string "a/b/c/leaf") with
      | Leaf 9 -> ()
      | _ -> Alcotest.fail "mkdir_path chain broken")

let test_namespace_overlay () =
  Util.in_world (fun () ->
      let shared = make_ctx "shared" in
      C.bind shared (N.of_string "common") (Leaf 1);
      C.bind shared (N.of_string "both") (Leaf 1);
      let d1 = Sp_obj.Sdomain.create "d1" in
      let ns1 = Sp_naming.Namespace.create ~shared ~domain:d1 in
      let ns2 =
        Sp_naming.Namespace.create ~shared ~domain:(Sp_obj.Sdomain.create "d2")
      in
      Sp_naming.Namespace.customize ns1 (N.of_string "private") (Leaf 10);
      Sp_naming.Namespace.customize ns1 (N.of_string "both") (Leaf 20);
      let v1 = Sp_naming.Namespace.as_context ns1 in
      let v2 = Sp_naming.Namespace.as_context ns2 in
      let get ctx n =
        match C.resolve ctx (N.of_string n) with
        | Leaf v -> Some v
        | _ -> None
        | exception C.Unbound _ -> None
      in
      Alcotest.(check (option int)) "ns1 sees shared" (Some 1) (get v1 "common");
      Alcotest.(check (option int)) "ns1 sees private" (Some 10) (get v1 "private");
      Alcotest.(check (option int)) "ns1 overlay wins" (Some 20) (get v1 "both");
      Alcotest.(check (option int)) "ns2 lacks private" None (get v2 "private");
      Alcotest.(check (option int)) "ns2 sees shared both" (Some 1) (get v2 "both"))

let test_name_cache () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      let sub = make_ctx "sub" in
      C.bind root (N.of_string "sub") (C.Context sub);
      C.bind sub (N.of_string "leaf") (Leaf 5);
      let cache = Sp_naming.Name_cache.create ~capacity:8 () in
      let n = N.of_string "sub/leaf" in
      ignore (Sp_naming.Name_cache.resolve cache root n);
      let before = Sp_sim.Metrics.snapshot () in
      ignore (Sp_naming.Name_cache.resolve cache root n);
      let d = Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ()) in
      Alcotest.(check int) "cached hit crosses no domains" 0
        d.Sp_sim.Metrics.cross_domain_calls;
      let stats = Sp_naming.Name_cache.stats cache in
      Alcotest.(check int) "one hit" 1 stats.Sp_naming.Name_cache.hits;
      Alcotest.(check int) "one miss" 1 stats.Sp_naming.Name_cache.misses;
      Sp_naming.Name_cache.invalidate cache n;
      ignore (Sp_naming.Name_cache.resolve cache root n);
      let stats = Sp_naming.Name_cache.stats cache in
      Alcotest.(check int) "miss after invalidate" 2 stats.Sp_naming.Name_cache.misses)

let test_name_cache_capacity () =
  Util.in_world (fun () ->
      let root = make_ctx "root" in
      for i = 0 to 9 do
        C.bind root (N.of_string (Printf.sprintf "x%d" i)) (Leaf i)
      done;
      let cache = Sp_naming.Name_cache.create ~capacity:4 () in
      for i = 0 to 9 do
        ignore (Sp_naming.Name_cache.resolve cache root
                  (N.of_string (Printf.sprintf "x%d" i)))
      done;
      (* All resolutions still return correct objects despite eviction. *)
      for i = 0 to 9 do
        match Sp_naming.Name_cache.resolve cache root
                (N.of_string (Printf.sprintf "x%d" i))
        with
        | Leaf v -> Alcotest.(check int) "value" i v
        | _ -> Alcotest.fail "wrong object"
      done)

(* Model-based property: a random bind/unbind/resolve schedule against a
   plain Map model. *)
let prop_context_matches_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 60) (triple (int_range 0 2) (int_range 0 7) small_nat))
  in
  Util.qcheck_case ~count:60 "context matches map model" gen (fun ops ->
      Util.in_world (fun () ->
          let ctx = make_ctx "model" in
          let model = Hashtbl.create 8 in
          let keys = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" |] in
          let ok = ref true in
          List.iter
            (fun (op, ki, v) ->
              let k = keys.(ki) in
              let kn = N.of_string k in
              match op with
              | 0 -> (
                  match C.bind ctx kn (Leaf v) with
                  | () ->
                      if Hashtbl.mem model k then ok := false
                      else Hashtbl.replace model k v
                  | exception C.Already_bound _ ->
                      if not (Hashtbl.mem model k) then ok := false)
              | 1 -> (
                  match C.unbind ctx kn with
                  | () ->
                      if not (Hashtbl.mem model k) then ok := false
                      else Hashtbl.remove model k
                  | exception C.Unbound _ ->
                      if Hashtbl.mem model k then ok := false)
              | _ -> (
                  match C.resolve ctx kn with
                  | Leaf got ->
                      if Hashtbl.find_opt model k <> Some got then ok := false
                  | _ -> ok := false
                  | exception C.Unbound _ ->
                      if Hashtbl.mem model k then ok := false))
            ops;
          let listed = C.list ctx (N.of_string "/") in
          let expected =
            List.sort String.compare
              (Hashtbl.fold (fun k _ acc -> k :: acc) model [])
          in
          !ok && listed = expected))

(* qcheck model of [Name_cache]: a reference cache that evicts by a
   min-stamp fold and drops components by a full scan, run beside the
   real one on random resolves (bound and unbound names, so negative
   entries occur), component broadcasts, invalidations, clears and
   restart fences.  Every resolve reveals whether its key was resident,
   so equal stats after every step pin the exact eviction victim. *)
type nc_op = Resolve of string | Note_change of string | Invalidate of string | Clear | Fence

let nc_names = [ "a"; "b"; "c"; "e"; "d/a"; "d/b"; "d/c"; "d/d" ]
let nc_bound = [ "a"; "b"; "d/a"; "d/c" ]

type nc_entry = { m_comps : string list; m_epoch : int; mutable m_stamp : int }

type nc_model = {
  m_table : (string, nc_entry) Hashtbl.t;
  mutable m_clock : int;
  mutable m_stats : Sp_naming.Name_cache.stats;
}

let nc_model_step ~capacity m op =
  let st = m.m_stats in
  let drop_where p =
    let doomed = Hashtbl.fold (fun k e acc -> if p k e then k :: acc else acc) m.m_table [] in
    List.iter (Hashtbl.remove m.m_table) doomed;
    m.m_stats <- { m.m_stats with invalidations = m.m_stats.invalidations + List.length doomed }
  in
  match op with
  | Resolve key -> (
      let epoch = Sp_naming.Name_coherence.epoch () in
      drop_where (fun k e -> k = key && e.m_epoch <> epoch);
      m.m_clock <- m.m_clock + 1;
      match Hashtbl.find_opt m.m_table key with
      | Some e when List.mem key nc_bound ->
          e.m_stamp <- m.m_clock;
          m.m_stats <- { m.m_stats with hits = st.hits + 1 }
      | Some e ->
          e.m_stamp <- m.m_clock;
          m.m_stats <- { m.m_stats with negative_hits = st.negative_hits + 1 }
      | None ->
          m.m_stats <- { m.m_stats with misses = st.misses + 1 };
          if Hashtbl.length m.m_table >= capacity then begin
            let min_stamp = Hashtbl.fold (fun _ e acc -> min e.m_stamp acc) m.m_table max_int in
            Hashtbl.filter_map_inplace
              (fun _ e -> if e.m_stamp = min_stamp then None else Some e) m.m_table
          end;
          Hashtbl.replace m.m_table key
            { m_comps = N.components (N.of_string key); m_epoch = epoch; m_stamp = m.m_clock })
  | Note_change c -> drop_where (fun _ e -> List.mem c e.m_comps)
  | Invalidate key -> drop_where (fun k _ -> k = key)
  | Clear -> Hashtbl.reset m.m_table
  | Fence -> ()

let prop_name_cache_model =
  let module NC = Sp_naming.Name_cache in
  let gen =
    QCheck2.Gen.(
      let name = oneofl nc_names in
      let op =
        frequency
          [
            (8, map (fun n -> Resolve n) name);
            (2, map (fun c -> Note_change c) (oneofl [ "a"; "b"; "c"; "d"; "e" ]));
            (1, map (fun n -> Invalidate n) name);
            (1, pure Clear);
            (1, pure Fence);
          ]
      in
      pair (int_range 1 8) (list_size (int_range 1 60) op))
  in
  let print (capacity, ops) =
    Printf.sprintf "capacity %d: %s" capacity
      (String.concat "; "
         (List.map
            (function
              | Resolve n -> "resolve " ^ n
              | Note_change c -> "note_change " ^ c
              | Invalidate n -> "invalidate " ^ n
              | Clear -> "clear"
              | Fence -> "fence")
            ops))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"name cache matches min-stamp model" ~print gen
       (fun (capacity, ops) ->
         Util.in_world (fun () ->
             let root = make_ctx "root" and sub = make_ctx "sub" in
             C.bind root (N.of_string "d") (C.Context sub);
             List.iter (fun n -> C.bind root (N.of_string n) (Leaf 0)) [ "a"; "b"; "d/a"; "d/c" ];
             let cache = NC.create ~capacity () in
             let model =
               {
                 m_table = Hashtbl.create 8;
                 m_clock = 0;
                 m_stats = { NC.hits = 0; misses = 0; invalidations = 0; negative_hits = 0 };
               }
             in
             List.iteri
               (fun i op ->
                 (match op with
                 | Resolve n -> (
                     match NC.resolve cache root (N.of_string n) with
                     | _ when not (List.mem n nc_bound) ->
                         QCheck2.Test.fail_reportf "step %d: %s resolved" i n
                     | _ -> ()
                     | exception C.Unbound _ when not (List.mem n nc_bound) -> ())
                 | Note_change c -> Sp_naming.Name_coherence.note_change c
                 | Invalidate n -> NC.invalidate cache (N.of_string n)
                 | Clear -> NC.clear cache
                 | Fence -> Sp_naming.Name_coherence.fence ());
                 nc_model_step ~capacity model op;
                 let got = NC.stats cache and want = model.m_stats in
                 if got <> want then
                   QCheck2.Test.fail_reportf
                     "step %d: stats hits/misses/inval/neg %d/%d/%d/%d, model %d/%d/%d/%d" i
                     got.hits got.misses got.invalidations got.negative_hits want.hits want.misses
                     want.invalidations want.negative_hits)
               ops;
             true)))

let prop_sname_roundtrip =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 6)
        (oneofl [ "a"; "bb"; "ccc"; "x1"; "under_score"; "d.o.t" ]))
  in
  Util.qcheck_case ~count:100 "sname parse/print roundtrip" gen (fun cs ->
      let s = String.concat "/" cs in
      N.components (N.of_string s) = cs
      && N.to_string (N.of_string s) = s)

let suite =
  [
    Alcotest.test_case "sname parsing" `Quick test_sname_parsing;
    Alcotest.test_case "sname rejects .." `Quick test_sname_rejects_dotdot;
    Alcotest.test_case "bind/resolve" `Quick test_bind_resolve;
    Alcotest.test_case "compound resolution" `Quick test_compound_resolution;
    Alcotest.test_case "resolve unbound" `Quick test_resolve_unbound;
    Alcotest.test_case "multiple names, one object" `Quick
      test_multiple_names_one_object;
    Alcotest.test_case "unbind and list" `Quick test_unbind_and_list;
    Alcotest.test_case "rebind replaces" `Quick test_rebind_replaces;
    Alcotest.test_case "acl enforcement" `Quick test_acl_enforcement;
    Alcotest.test_case "acl grant/revoke" `Quick test_acl_grant_revoke;
    Alcotest.test_case "resolution crosses domains" `Quick
      test_resolution_crosses_domains;
    Alcotest.test_case "mkdir_path" `Quick test_mkdir_path;
    Alcotest.test_case "per-domain namespaces" `Quick test_namespace_overlay;
    Alcotest.test_case "name cache" `Quick test_name_cache;
    Alcotest.test_case "name cache eviction" `Quick test_name_cache_capacity;
    prop_context_matches_model;
    prop_sname_roundtrip;
    prop_name_cache_model;
  ]
