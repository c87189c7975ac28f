(* unused_exports: a typed census of the values lib/ exports.

     dune build @check
     dune exec scripts/unused_exports/unused_exports.exe -- [--list] [--check]

   (scripts/unused_exports.sh does both, from any directory.)  Run from
   the repository root after `dune build @check`, which writes a typed
   tree (.cmt, .cmti) for every module of every library, executable and
   test.

   Each `val` of a lib/ interface, at top level or inside a `module M :
   sig ... end`, is an export.  Every value identifier in every .cmt
   under _build/default is resolved to the unit that defines it: dune's
   alias modules turn `Lib.Mod.x` into `Lib__Mod.x`, and `module M = P`
   (at structure level or under `let module`) is followed, so a
   same-named export of another module or a record field is not a use.
   A use from the export's own module does not count.  An export is

     nowhere    if no other module uses it;
     test-only  if only modules under test/ (or benchmark/test/) use it.

   Modules under lib/, bin/, bench/, benchmark/, examples/ and scripts/
   count as users.  `--list` marks a nowhere export its own module still
   calls with `inside`: it can leave the interface but not the code.

   Entries of scripts/unused_exports.allow are kept on purpose and counted
   in neither class; each line there is `Module.name  reason`.  An entry
   without a reason, or one that names no export, is an error.  A lib/
   .ml without an .mli exports everything and is invisible to the
   census, so such files are counted as no-mli.

   Prints one line per unlisted export and per no-mli file with --list,
   then the verdict line

     UNUSED-EXPORTS nowhere=N test-only=M no-mli=K

   With --check it exits 1 when N or M exceeds its ceiling committed in
   scripts/unused_exports.max (lines `nowhere N` and `test-only M`), or
   when K is above 0.

   Only Cmt_format, Typedtree, Tast_iterator, Path and Ident are used,
   whose shapes agree across the OCaml 5 releases the project builds
   with. *)

open Typedtree

let build_root = "_build/default"
let allow_file = "scripts/unused_exports.allow"
let ceiling_file = "scripts/unused_exports.max"

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit code)
    fmt

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then files_under p else [ p ])

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let capitalize_base path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

(* Module aliases, from every unit: "Unit.M" (or a longer prefix) to the
   path it names, as found; [canon] follows them at the end, when every
   unit has been read. *)
let aliases : (string, string) Hashtbl.t = Hashtbl.create 256

(* [include P] at a structure prefix: a use of prefix.x is a use of P.x. *)
let forwards : (string, string) Hashtbl.t = Hashtbl.create 8

let rec canon key =
  match String.split_on_char '.' key with
  | [] -> key
  | hd :: tl ->
      List.fold_left
        (fun acc c ->
          let k = acc ^ "." ^ c in
          match Hashtbl.find_opt aliases k with Some t -> canon t | None -> k)
        hd tl

type role = User | Test

type use = { key : string; unit : string; role : role }

let uses : use list ref = ref []

(* Unit name to the source file it was compiled from. *)
let sources : (string, string) Hashtbl.t = Hashtbl.create 256
let let_modules = ref 0

(* Walk one implementation, binding every structure-level value and
   module to its dotted name and recording each value identifier it
   resolves. *)
let scan_impl ~unit ~role (str : structure) =
  let locals : string Ident.Tbl.t = Ident.Tbl.create 64 in
  let prefix = ref unit in
  let rec resolve = function
    | Path.Pident id -> (
        match Ident.Tbl.find_opt locals id with
        | Some s -> Some s
        | None -> if Ident.persistent id then Some (Ident.name id) else None)
    | Path.Pdot (p, s) -> Option.map (fun r -> r ^ "." ^ s) (resolve p)
    | _ -> None
  in
  let rec strip me =
    match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip me | _ -> me
  in
  let default = Tast_iterator.default_iterator in
  let bind_module it id name me =
    let p = !prefix ^ "." ^ name in
    match (strip me).mod_desc with
    | Tmod_ident (path, _) ->
        Option.iter
          (fun t ->
            Hashtbl.replace aliases p t;
            Option.iter (fun id -> Ident.Tbl.replace locals id t) id)
          (resolve path)
    | _ ->
        Option.iter (fun id -> Ident.Tbl.replace locals id p) id;
        let saved = !prefix in
        prefix := p;
        it.Tast_iterator.module_expr it me;
        prefix := saved
  in
  let bind_value id =
    Ident.Tbl.replace locals id (!prefix ^ "." ^ Ident.name id)
  in
  let structure_item it si =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter bind_value (let_bound_idents vbs);
        default.structure_item it si
    | Tstr_primitive vd -> bind_value vd.val_id
    | Tstr_module { mb_id; mb_name = { txt = Some name; _ }; mb_expr; _ } ->
        bind_module it mb_id name mb_expr
    | Tstr_include { incl_mod; _ } -> (
        match (strip incl_mod).mod_desc with
        | Tmod_ident (path, _) ->
            Option.iter (Hashtbl.replace forwards !prefix) (resolve path)
        | _ -> default.structure_item it si)
    | _ -> default.structure_item it si
  in
  let expr it e =
    match e.exp_desc with
    | Texp_ident (path, _, _) ->
        Option.iter
          (fun key -> uses := { key; unit; role } :: !uses)
          (resolve path);
        default.expr it e
    | Texp_letmodule (id, { txt = name; _ }, _, me, body) ->
        incr let_modules;
        let name =
          Printf.sprintf "%%let%d%s" !let_modules (Option.value name ~default:"")
        in
        bind_module it id name me;
        it.expr it body
    | _ -> default.expr it e
  in
  let it = { default with structure_item; expr } in
  it.structure it str

(* Exports of one lib/ interface: (canonical key, display name). *)
let scan_intf ~unit ~display (sg : signature) =
  let rec items key shown sg =
    List.concat_map
      (fun si ->
        match si.sig_desc with
        | Tsig_value vd ->
            let n = vd.val_name.txt in
            [ (key ^ "." ^ n, shown ^ "." ^ n) ]
        | Tsig_module
            {
              md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature sg; _ };
              _;
            } ->
            items (key ^ "." ^ m) (shown ^ "." ^ m) sg
        | _ -> [])
      sg.sig_items
  in
  items unit display sg

let role_of source =
  if starts_with ~prefix:"test/" source
     || starts_with ~prefix:"benchmark/test/" source
  then Some Test
  else if
    List.exists
      (fun d -> starts_with ~prefix:(d ^ "/") source)
      [ "lib"; "bin"; "bench"; "benchmark"; "examples"; "scripts" ]
  then Some User
  else None

let read_allowlist () =
  In_channel.with_open_text allow_file In_channel.input_lines
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (n, l) ->
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i when String.trim (String.sub l i (String.length l - i)) <> ""
             ->
               Some (n, String.sub l 0 i)
           | _ ->
               die 2 "%s:%d: %s: allowlist entry without a reason" allow_file
                 n l)

let ceiling name =
  let lines = In_channel.with_open_text ceiling_file In_channel.input_lines in
  match
    List.find_map
      (fun l ->
        match String.split_on_char ' ' (String.trim l) with
        | [ k; v ] when k = name -> int_of_string_opt v
        | _ -> None)
      lines
  with
  | Some c -> c
  | None -> die 2 "%s: no %s ceiling" ceiling_file name

let () =
  let list = ref false and check = ref false in
  Array.iteri
    (fun i a ->
      if i > 0 then
        match a with
        | "--list" -> list := true
        | "--check" -> check := true
        | _ -> die 2 "usage: %s [--list] [--check]" Sys.argv.(0))
    Sys.argv;
  if not (Sys.file_exists build_root) then
    die 2 "%s: not found; run `dune build @check` at the repository root"
      build_root;
  let exports = ref [] in
  List.iter
    (fun file ->
      if Filename.check_suffix file ".cmt" || Filename.check_suffix file ".cmti"
      then
        let cmt = Cmt_format.read_cmt file in
        match cmt.cmt_sourcefile with
        | None -> ()
        | Some source -> (
            let unit = cmt.cmt_modname in
            Hashtbl.replace sources unit source;
            match (role_of source, cmt.cmt_annots) with
            | Some role, Implementation str -> scan_impl ~unit ~role str
            | Some User, Interface sg when starts_with ~prefix:"lib/" source ->
                let display = capitalize_base source in
                exports := (unit, scan_intf ~unit ~display sg) :: !exports
            | _ -> ()))
    (files_under build_root);
  if !exports = [] then
    die 2 "%s: no lib/ interfaces; run `dune build @check` first" build_root;
  (* Resolve every use now that every unit's aliases are known. *)
  let used = Hashtbl.create 4096 in
  let add key u = Hashtbl.replace used (key, u.unit, u.role) () in
  List.iter
    (fun u ->
      let key = canon u.key in
      add key u;
      match String.rindex_opt key '.' with
      | Some i -> (
          let p = String.sub key 0 i in
          match Hashtbl.find_opt forwards p with
          | Some t ->
              add (canon (t ^ String.sub key i (String.length key - i))) u
          | None -> ())
      | None -> ())
    !uses;
  let users = Hashtbl.create 4096 in
  Hashtbl.iter (fun (key, unit, role) () -> Hashtbl.add users key (unit, role)) used;
  let allowed = read_allowlist () in
  let all =
    List.concat_map
      (fun (unit, xs) -> List.map (fun (k, shown) -> (unit, k, shown)) xs)
      !exports
    |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  in
  List.iter
    (fun (n, name) ->
      if not (List.exists (fun (_, _, shown) -> shown = name) all) then
        die 2 "%s:%d: %s: allowlist entry names no export" allow_file n name)
    allowed;
  let nowhere = ref 0 and test_only = ref 0 in
  List.iter
    (fun (unit, key, shown) ->
      if not (List.exists (fun (_, a) -> a = shown) allowed) then begin
        let us = Hashtbl.find_all users (canon key) in
        let others = List.filter (fun (u, _) -> u <> unit) us in
        if others = [] then begin
          incr nowhere;
          if !list then
            Printf.printf "nowhere %s%s\n" shown
              (if us = [] then "" else " inside")
        end
        else if List.for_all (fun (_, r) -> r = Test) others then begin
          incr test_only;
          if !list then
            List.map (fun (u, _) -> Hashtbl.find sources u) others
            |> List.sort_uniq compare |> String.concat " "
            |> Printf.printf "test-only %s  %s\n" shown
        end
      end)
    all;
  let no_mli = ref 0 in
  List.iter
    (fun ml ->
      if Filename.check_suffix ml ".ml" && not (Sys.file_exists (ml ^ "i"))
      then begin
        incr no_mli;
        if !list then Printf.printf "no-mli %s\n" ml
      end)
    (files_under "lib");
  Printf.printf "UNUSED-EXPORTS nowhere=%d test-only=%d no-mli=%d\n%!" !nowhere
    !test_only !no_mli;
  if !check then begin
    let max_nowhere = ceiling "nowhere" and max_test_only = ceiling "test-only" in
    if !nowhere > max_nowhere then
      die 1 "unused exports rose above the committed ceiling of %d" max_nowhere;
    if !test_only > max_test_only then
      die 1 "test-only exports rose above the committed ceiling of %d"
        max_test_only;
    if !no_mli > 0 then
      die 1 "a lib/ module has no interface: the census cannot see its exports"
  end
