type t = {
  sfs_name : string;
  sfs_type : string;
  sfs_domain : Sp_obj.Sdomain.t;
  sfs_ctx : Sp_naming.Context.t;
  sfs_stack_on : t -> unit;
  sfs_unders : unit -> t list;
  sfs_create : Sp_naming.Sname.t -> File.t;
  sfs_mkdir : Sp_naming.Sname.t -> unit;
  sfs_remove : Sp_naming.Sname.t -> unit;
  sfs_sync : unit -> unit;
  sfs_drop_caches : unit -> unit;
  sfs_exten : Sp_obj.Exten.t list;
}

type creator = { cr_type : string; cr_create : name:string -> t }

type Sp_naming.Context.obj += Fs of t | Creator of creator

exception Stack_error of string

let narrow ~what project fs =
  match Sp_obj.Exten.narrow fs.sfs_exten project with
  | Some x -> x
  | None -> invalid_arg (fs.sfs_name ^ ": not " ^ what)

let narrow_to_file path = function
  | File.File f -> f
  | Sp_naming.Context.Context _ | Fs _ ->
      raise (Fserr.Is_directory (Sp_naming.Sname.to_string path))
  | _ -> raise (Fserr.No_such_file (Sp_naming.Sname.to_string path))

let open_file ?principal fs path =
  match Sp_naming.Context.resolve ?principal fs.sfs_ctx path with
  | o -> narrow_to_file path o
  | exception Sp_naming.Context.Unbound _ ->
      raise (Fserr.No_such_file (Sp_naming.Sname.to_string path))

let open_file_cached ?principal cache fs path =
  match Sp_naming.Name_cache.resolve cache ?principal fs.sfs_ctx path with
  | o -> narrow_to_file path o
  | exception Sp_naming.Context.Unbound _ ->
      raise (Fserr.No_such_file (Sp_naming.Sname.to_string path))

(* The fs helpers mutate bindings inside the layer (bypassing
   [Context.bind]/[unbind]), so they broadcast the coherence signal
   themselves. *)
let note_change path =
  match List.rev (Sp_naming.Sname.components path) with
  | last :: _ -> Sp_naming.Name_coherence.note_change last
  | [] -> ()

let create fs path =
  let f =
    Sp_obj.Door.call ~op:"fs.create" fs.sfs_domain (fun () -> fs.sfs_create path)
  in
  note_change path;
  f

let mkdir fs path =
  Sp_obj.Door.call ~op:"fs.mkdir" fs.sfs_domain (fun () -> fs.sfs_mkdir path);
  note_change path

let remove fs path =
  Sp_obj.Door.call ~op:"fs.remove" fs.sfs_domain (fun () -> fs.sfs_remove path);
  note_change path

let stack_on fs under =
  Sp_obj.Door.call ~op:"fs.stack_on" fs.sfs_domain (fun () -> fs.sfs_stack_on under)

let sync fs = Sp_obj.Door.call ~op:"fs.sync" fs.sfs_domain fs.sfs_sync
let drop_caches fs = Sp_obj.Door.call ~op:"fs.drop_caches" fs.sfs_domain fs.sfs_drop_caches
let readdir ?principal fs path ~cookie ~limit =
  Sp_naming.Context.readdir ?principal fs.sfs_ctx path ~cookie ~limit

let fold_dir ?principal ?batch fs path f init =
  Sp_dir.Cursor.fold ?batch
    (fun ~cookie ~limit -> readdir ?principal fs path ~cookie ~limit)
    f init

(* Compatibility wrapper: drain the cursor.  Internal consumers stream
   with [readdir]/[fold_dir]; this stays for call sites that genuinely
   want the whole (small) listing at once.  Sorted, as [ctx_list] was. *)
let listdir fs path =
  List.sort String.compare
    (Sp_dir.Cursor.drain (fun ~cookie ~limit -> readdir fs path ~cookie ~limit))

let rec base fs =
  match fs.sfs_unders () with [ under ] -> base under | _ -> fs

(* Per-(base fs, directory) write locks serializing rename's
   lookup/link/unlink cycle.  Without them two tasks renaming the same
   name race through the unlocked window between [open_file] and
   [remove] (door crossings suspend under [Sp_sched]) and both "win":
   last-wins leaves the file bound under two names or removes it twice.
   Keyed by base name, not held by the base: a supervised restart
   re-makes the base, and its renames must share the old one's locks. *)
let rename_locks : (string, Sp_sched.Rwlock.t) Hashtbl.t = Hashtbl.create 16

let dir_key b path =
  let dir =
    match List.rev (Sp_naming.Sname.components path) with
    | _ :: rev_dir -> String.concat "/" (List.rev rev_dir)
    | [] -> ""
  in
  b.sfs_name ^ ":" ^ dir

let dir_lock key =
  match Hashtbl.find_opt rename_locks key with
  | Some l -> l
  | None ->
      let l = Sp_sched.Rwlock.create ("rename:" ^ key) in
      Hashtbl.replace rename_locks key l;
      l

let rename fs ~src ~dst =
  (* Bindings of a linear stack live in its base layer; perform the
     relink there.  Upper layers re-wrap the same underlying file under
     the new name automatically. *)
  let b = base fs in
  (* Sorted-key acquisition so two cross-directory renames in opposite
     directions cannot ABBA-deadlock; equal keys collapse to one lock
     (the write lock is not reentrant). *)
  let locks =
    List.map dir_lock
      (List.sort_uniq String.compare [ dir_key b src; dir_key b dst ])
  in
  let rec locked = function
    | [] ->
        let file = open_file b src in
        (match Sp_naming.Context.bind b.sfs_ctx dst (File.File file) with
        | () -> ()
        | exception Sp_naming.Context.Already_bound _ ->
            raise (Fserr.Already_exists (Sp_naming.Sname.to_string dst)));
        Sp_obj.Door.call ~op:"fs.remove" b.sfs_domain (fun () ->
            b.sfs_remove src);
        note_change src
    | l :: rest -> Sp_sched.Rwlock.with_write l (fun () -> locked rest)
  in
  locked locks

let sole_under fs =
  match fs.sfs_unders () with
  | [ under ] -> under
  | [] -> raise (Stack_error (fs.sfs_name ^ ": not stacked on anything"))
  | _ -> raise (Stack_error (fs.sfs_name ^ ": stacked on several file systems"))

let creator_binding type_name = Sp_naming.Sname.of_string (type_name ^ "_creator")

let register_creator ctx creator =
  Sp_naming.Context.bind ctx (creator_binding creator.cr_type) (Creator creator)

let lookup_creator ctx type_name =
  match Sp_naming.Context.resolve ctx (creator_binding type_name) with
  | Creator c -> c
  | _ -> raise (Stack_error (type_name ^ ": bound object is not a creator"))
  | exception Sp_naming.Context.Unbound _ ->
      raise (Stack_error (type_name ^ ": no such creator"))

let instantiate ctx type_name ~name =
  let creator = lookup_creator ctx type_name in
  creator.cr_create ~name
