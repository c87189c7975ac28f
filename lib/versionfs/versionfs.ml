let version_prefix = ".v"

type layer = { l_over : Sp_core.Over_one.t; l_domain : Sp_obj.Sdomain.t }
type Sp_obj.Exten.t += Layer of layer

let layer_of =
  Sp_core.Stackable.narrow ~what:"a versionfs layer" (function
    | Layer l -> Some l
    | _ -> None)

let lower_of l = Sp_core.Over_one.lower l.l_over

(* ".v<digits>.<rest>" *)
let is_version_name name =
  String.length name > 3
  && String.sub name 0 2 = version_prefix
  &&
  let rec digits i =
    if i >= String.length name then false
    else
      match name.[i] with
      | '0' .. '9' -> digits (i + 1)
      | '.' -> i > 2
      | _ -> false
  in
  digits 2

let split_path path =
  match List.rev (Sp_naming.Sname.components path) with
  | [] -> invalid_arg "Versionfs: empty path"
  | last :: rev_dirs -> (List.rev rev_dirs, last)

let version_path path n =
  let dirs, last = split_path path in
  Sp_naming.Sname.of_components (dirs @ [ Printf.sprintf "%s%d.%s" version_prefix n last ])

(* Version numbers present for [path], by scanning the lower directory. *)
let versions_of l path =
  let lower = lower_of l in
  let dirs, last = split_path path in
  let suffix = "." ^ last in
  let version_of name =
    if not (is_version_name name) then None
    else
      let body = String.sub name 2 (String.length name - 2) in
      match String.index_opt body '.' with
      | Some dot when String.sub body dot (String.length body - dot) = suffix ->
          int_of_string_opt (String.sub body 0 dot)
      | _ -> None
  in
  (* Stream the lower directory rather than materialise it: the version
     sidecars are a sparse subset of a possibly huge listing. *)
  Sp_core.Stackable.fold_dir lower
    (Sp_naming.Sname.of_components dirs)
    (fun acc name ->
      match version_of name with Some n -> n :: acc | None -> acc)
    []
  |> List.sort Int.compare

let snapshot sfs path =
  let l = layer_of sfs in
  let lower = lower_of l in
  let current = Sp_core.Stackable.open_file lower path in
  let n = match List.rev (versions_of l path) with [] -> 1 | hd :: _ -> hd + 1 in
  let vfile = Sp_core.Stackable.create lower (version_path path n) in
  let data = Sp_core.File.read_all current in
  if Bytes.length data > 0 then ignore (Sp_core.File.write vfile ~pos:0 data);
  Sp_core.File.sync vfile;
  n

let versions sfs path = versions_of (layer_of sfs) path

let open_version sfs path n =
  let l = layer_of sfs in
  let lower = lower_of l in
  let vfile = Sp_core.Stackable.open_file lower (version_path path n) in
  (* Versions are immutable history: serve them through a read-only
     interposer (the §5 machinery). *)
  Sp_core.Interpose.interpose_file ~domain:l.l_domain
    (Sp_core.Interpose.read_only_hooks ())
    vfile

let restore sfs path n =
  let l = layer_of sfs in
  let lower = lower_of l in
  let vfile = Sp_core.Stackable.open_file lower (version_path path n) in
  let current = Sp_core.Stackable.open_file lower path in
  let data = Sp_core.File.read_all vfile in
  Sp_core.File.truncate current 0;
  if Bytes.length data > 0 then ignore (Sp_core.File.write current ~pos:0 data);
  Sp_core.File.sync current

(* The exported file forwards everything (data path untouched). *)
let make ?(node = "local") ?domain ~name () =
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  let l = { l_over = Sp_core.Over_one.create ~name; l_domain = domain } in
  Sp_core.Over_one.pass_through l.l_over ~sfs_type:"versionfs" ~domain
    ~exten:[ Layer l ] ~hidden:is_version_name
    ~wrap:(fun ~key _ lower -> { lower with Sp_core.File.f_id = key })
    ~on_remove:ignore

let creator ?(node = "local") () =
  {
    Sp_core.Stackable.cr_type = "versionfs";
    cr_create = (fun ~name -> make ~node ~name ());
  }
