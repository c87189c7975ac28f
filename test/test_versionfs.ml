module F = Sp_core.File
module S = Sp_core.Stackable
module Vn = Sp_versionfs.Versionfs

let make_stack () =
  let vmm = Sp_vm.Vmm.create ~node:"local" "vmm0" in
  let sfs =
    Sp_coherency.Spring_sfs.make_split ~vmm ~name:"sfs" ~same_domain:false
      (Util.fresh_disk ())
  in
  let ver = Vn.make ~name:"versionfs" () in
  S.stack_on ver sfs;
  (vmm, sfs, ver)

let test_snapshot_and_read_back () =
  Util.in_world (fun () ->
      let _vmm, _sfs, ver = make_stack () in
      let f = S.create ver (Util.name "doc") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "draft one"));
      F.sync f;
      let v1 = Vn.snapshot ver (Util.name "doc") in
      Alcotest.(check int) "first version" 1 v1;
      ignore (F.write f ~pos:0 (Util.bytes_of_string "draft TWO"));
      F.sync f;
      let v2 = Vn.snapshot ver (Util.name "doc") in
      Alcotest.(check int) "second version" 2 v2;
      Alcotest.(check (list int)) "versions listed" [ 1; 2 ]
        (Vn.versions ver (Util.name "doc"));
      Util.check_str "current is latest" "draft TWO" (F.read f ~pos:0 ~len:9);
      Util.check_str "v1 preserved" "draft one"
        (F.read (Vn.open_version ver (Util.name "doc") 1) ~pos:0 ~len:9))

let test_versions_read_only () =
  Util.in_world (fun () ->
      let _vmm, _sfs, ver = make_stack () in
      let f = S.create ver (Util.name "d") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "content"));
      F.sync f;
      ignore (Vn.snapshot ver (Util.name "d"));
      let v = Vn.open_version ver (Util.name "d") 1 in
      Alcotest.(check bool) "history immutable" true
        (try
           ignore (F.write v ~pos:0 (Util.bytes_of_string "tamper"));
           false
         with Sp_core.Fserr.Read_only _ -> true))

let test_restore () =
  Util.in_world (fun () ->
      let _vmm, _sfs, ver = make_stack () in
      let f = S.create ver (Util.name "r") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "good state, long"));
      F.sync f;
      ignore (Vn.snapshot ver (Util.name "r"));
      F.truncate f 0;
      ignore (F.write f ~pos:0 (Util.bytes_of_string "oops"));
      F.sync f;
      Vn.restore ver (Util.name "r") 1;
      Util.check_str "restored" "good state, long" (F.read f ~pos:0 ~len:16);
      Alcotest.(check int) "restored length" 16 (F.stat f).Sp_vm.Attr.len)

let test_versions_hidden () =
  Util.in_world (fun () ->
      let _vmm, sfs, ver = make_stack () in
      let f = S.create ver (Util.name "h") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "x"));
      F.sync f;
      ignore (Vn.snapshot ver (Util.name "h"));
      Alcotest.(check (list string)) "version files hidden above" [ "h" ]
        (S.listdir ver (Util.name "/"));
      Alcotest.(check (list string)) "but present below" [ ".v1.h"; "h" ]
        (S.listdir sfs (Util.name "/"));
      Alcotest.check_raises "hidden name unresolvable"
        (Sp_core.Fserr.No_such_file ".v1.h") (fun () ->
          ignore (S.open_file ver (Util.name ".v1.h"))))

let test_history_survives_remove () =
  Util.in_world (fun () ->
      let _vmm, _sfs, ver = make_stack () in
      let f = S.create ver (Util.name "gone") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "last words"));
      F.sync f;
      ignore (Vn.snapshot ver (Util.name "gone"));
      S.remove ver (Util.name "gone");
      Alcotest.check_raises "current removed" (Sp_core.Fserr.No_such_file "gone")
        (fun () -> ignore (S.open_file ver (Util.name "gone")));
      Util.check_str "history retained" "last words"
        (F.read (Vn.open_version ver (Util.name "gone") 1) ~pos:0 ~len:10))

let test_nested_paths () =
  Util.in_world (fun () ->
      let _vmm, _sfs, ver = make_stack () in
      S.mkdir ver (Util.name "dir");
      let f = S.create ver (Util.name "dir/doc") in
      ignore (F.write f ~pos:0 (Util.bytes_of_string "nested v1"));
      F.sync f;
      ignore (Vn.snapshot ver (Util.name "dir/doc"));
      ignore (F.write f ~pos:7 (Util.bytes_of_string "99"));
      F.sync f;
      Util.check_str "nested history" "nested v1"
        (F.read (Vn.open_version ver (Util.name "dir/doc") 1) ~pos:0 ~len:9);
      Alcotest.(check (list string)) "nested listing clean" [ "doc" ]
        (S.listdir ver (Util.name "dir")))

let suite =
  [
    Alcotest.test_case "snapshot and read back" `Quick test_snapshot_and_read_back;
    Alcotest.test_case "versions are read-only" `Quick test_versions_read_only;
    Alcotest.test_case "restore" `Quick test_restore;
    Alcotest.test_case "version files hidden" `Quick test_versions_hidden;
    Alcotest.test_case "history survives remove" `Quick test_history_survives_remove;
    Alcotest.test_case "nested paths" `Quick test_nested_paths;
  ]
