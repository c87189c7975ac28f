let test_domain_identity () =
  let a = Sp_obj.Sdomain.create "a" in
  let b = Sp_obj.Sdomain.create "a" in
  Alcotest.(check bool) "self equal" true (Sp_obj.Sdomain.equal a a);
  Alcotest.(check bool) "same name, distinct identity" false (Sp_obj.Sdomain.equal a b);
  Alcotest.(check string) "node defaults to local" "local" (Sp_obj.Sdomain.node a)

let test_door_local_vs_cross () =
  Util.in_world (fun () ->
      let server = Sp_obj.Sdomain.create "server" in
      let before = Sp_sim.Metrics.snapshot () in
      Sp_obj.Door.call server (fun () -> ());
      let mid = Sp_sim.Metrics.snapshot () in
      Alcotest.(check int) "first call crosses" 1
        (Sp_sim.Metrics.diff ~before ~after:mid).Sp_sim.Metrics.cross_domain_calls;
      (* A nested call to the same domain is a local procedure call. *)
      Sp_obj.Door.call server (fun () -> Sp_obj.Door.call server (fun () -> ()));
      let after = Sp_sim.Metrics.snapshot () in
      let d = Sp_sim.Metrics.diff ~before:mid ~after in
      Alcotest.(check int) "one crossing" 1 d.Sp_sim.Metrics.cross_domain_calls;
      Alcotest.(check int) "one local call" 1 d.Sp_sim.Metrics.local_calls)

let test_door_restores_domain () =
  Util.in_world (fun () ->
      let server = Sp_obj.Sdomain.create "server" in
      let caller_before = Sp_obj.Door.current () in
      (try Sp_obj.Door.call server (fun () -> failwith "boom") with Failure _ -> ());
      Alcotest.(check bool) "current restored after exception" true
        (Sp_obj.Sdomain.equal caller_before (Sp_obj.Door.current ())))

let test_door_costs_charged () =
  Util.in_world ~model:Sp_sim.Cost_model.paper_1993 (fun () ->
      let server = Sp_obj.Sdomain.create "server" in
      let model = Sp_sim.Cost_model.current () in
      let t0 = Sp_sim.Simclock.now () in
      Sp_obj.Door.call server (fun () -> ());
      Alcotest.(check int) "cross-domain cost"
        model.Sp_sim.Cost_model.cross_domain_call_ns
        (Sp_sim.Simclock.now () - t0))

let test_door_from () =
  Util.in_world (fun () ->
      let app = Sp_obj.Sdomain.create "app" in
      Sp_obj.Door.from app (fun () ->
          Alcotest.(check bool) "current is app" true
            (Sp_obj.Sdomain.equal app (Sp_obj.Door.current ())));
      Alcotest.(check bool) "back to user" true
        (Sp_obj.Sdomain.equal Sp_obj.Door.user_domain (Sp_obj.Door.current ())))

(* An untraced cross-domain crossing outside a run allocates nothing of
   its own: counters bump in place, no [Fun.protect] closure, no
   deadline closure, no bulk-channel key. *)
let test_door_crossing_allocates_nothing () =
  Util.in_world (fun () ->
      let server = Sp_obj.Sdomain.create "alloc-server" in
      let body () = () in
      let call () = Sp_obj.Door.call ~op:"test.call" server body in
      let data_call () = Sp_obj.Door.data_call ~op:"test.data" server body in
      Alcotest.(check (float 0.)) "Door.call minor words per call" 0.
        (Util.minor_words_per_call call);
      Alcotest.(check (float 0.)) "Door.data_call minor words per call" 0.
        (Util.minor_words_per_call data_call);
      (* Two passes of 1,000 calls each per helper. *)
      Alcotest.(check int) "every call crossed" 4_000
        (Sp_sim.Metrics.snapshot ()).Sp_sim.Metrics.cross_domain_calls)

type Sp_obj.Exten.t += Test_ext_a of int | Test_ext_b of string

let test_narrow () =
  let extens = [ Test_ext_b "hello"; Test_ext_a 7 ] in
  let as_a = function Test_ext_a n -> Some n | _ -> None in
  let as_b = function Test_ext_b s -> Some s | _ -> None in
  Alcotest.(check (option int)) "narrow to a" (Some 7) (Sp_obj.Exten.narrow extens as_a);
  Alcotest.(check (option string))
    "narrow to b" (Some "hello")
    (Sp_obj.Exten.narrow extens as_b);
  Alcotest.(check (option int)) "narrow fails on empty" None (Sp_obj.Exten.narrow [] as_a)

let suite =
  [
    Alcotest.test_case "domain identity" `Quick test_domain_identity;
    Alcotest.test_case "door local vs cross" `Quick test_door_local_vs_cross;
    Alcotest.test_case "door restores domain on exn" `Quick test_door_restores_domain;
    Alcotest.test_case "door charges cost model" `Quick test_door_costs_charged;
    Alcotest.test_case "door from" `Quick test_door_from;
    Alcotest.test_case "door crossing allocates nothing" `Quick
      test_door_crossing_allocates_nothing;
    Alcotest.test_case "exten narrow" `Quick test_narrow;
  ]
