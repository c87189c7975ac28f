(* The six springbench workloads: how each builds its world, what one
   client op does, and how the world is checked afterwards.

   warm-mix, sync-heavy, deep-stack and crowd reproduce
   [Sp_benchlib.Scale.run_row] draw for draw: the same two-domain SFS
   setup, the same per-client RNG streams, op mix and arrival gap.  The
   scale module keeps those pieces private, so they are restated here;
   the cross-check test holds the two together.

   Every payload depends only on its position in the file (byte [p] is
   [p * 131 land 0xff], and 131 * 256 is a multiple of 256), so any
   interleaving of writes leaves the same bytes and every read has one
   right answer. *)

module F = Sp_core.File
module S = Sp_core.Stackable
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

let ps = Sp_vm.Vm_types.page_size

type t = Warm_mix | Sync_heavy | Namespace | Deep_stack | Crowd | Out_of_cache

let all = [ Warm_mix; Sync_heavy; Namespace; Deep_stack; Crowd; Out_of_cache ]

let name = function
  | Warm_mix -> "warm-mix"
  | Sync_heavy -> "sync-heavy"
  | Namespace -> "namespace"
  | Deep_stack -> "deep-stack"
  | Crowd -> "crowd"
  | Out_of_cache -> "out-of-cache"

let of_name s = List.find_opt (fun w -> String.equal (name w) s) all

(* Round sizes: a round takes about a second of wall time on a 2-core
   x86-64 container (crowd's take two), so a twenty-second run measures
   eight rounds or more and reports the fastest.  Every round has at
   least 20,000 ops, so at least 20 samples lie beyond the p99.9
   latency. *)
let clients = function Crowd -> 100_000 | _ -> 64

let ops = function
  | Warm_mix -> 200_000
  | Sync_heavy -> 100_000
  | Namespace -> 20_000
  | Deep_stack -> 20_000
  | Crowd -> 100_000
  | Out_of_cache -> 20_000

(* The client calls timed one by one for the per-call latency metrics. *)
type call = Read | Write | Stat | Sync | Open | Readdir | Churn

let calls = [ Read; Write; Stat; Sync; Open; Readdir; Churn ]

let call_index = function
  | Read -> 0
  | Write -> 1
  | Stat -> 2
  | Sync -> 3
  | Open -> 4
  | Readdir -> 5
  | Churn -> 6

let call_name = function
  | Read -> "read"
  | Write -> "write"
  | Stat -> "stat"
  | Sync -> "sync"
  | Open -> "open"
  | Readdir -> "readdir"
  | Churn -> "churn"

type timer = { timed : 'a. call -> (unit -> 'a) -> 'a }

exception Wrong_bytes of string

type world = {
  vmm : Sp_vm.Vmm.t;
  disks : Sp_blockdev.Disk.t list;
  bases : S.t list;  (** the SFS (coherency) layers over each disk *)
  fs : S.t;  (** the top of the stack clients use *)
  files : F.t array;  (** data files, each [file_len] bytes of {!pattern} *)
  file_len : int;
  cache : Sp_naming.Name_cache.t option;  (** namespace only *)
  free0 : int;  (** free data blocks of all bases before population *)
}

let pattern n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr ((i * 131) land 0xff))
  done;
  b

let page = pattern ps
let payload = pattern 1024
let arrival_gap_ns = 2_000
let sync_every = 4

(* Scale's shared files and the out-of-cache file set. *)
let n_shared = 16
let n_big = 64
let big_pages = 64

(* Namespace: an indexed directory of static names, 80% of opens going
   to the hottest 20% of them, behind a name cache that holds the hot
   set with room to spare. *)
let n_entries = 4096
let n_hot = n_entries / 5
let cache_capacity = 1024
let dir = Sname.of_string "dir"
let static_name i = Printf.sprintf "g%04d" i
let static_paths = Array.init n_entries (fun i -> Sname.of_string ("dir/" ^ static_name i))

(* The VMM page budget, in pages; unbounded except in out-of-cache. *)
let vm_capacity = function Out_of_cache -> Some 256 | _ -> None

let disk_layer_of base = Sp_coherency.Spring_sfs.disk_layer base
let free_blocks bases =
  List.fold_left (fun acc b -> acc + Sp_sfs.Disk_layer.free_blocks (disk_layer_of b)) 0 bases

let setup w ~tag =
  let vmm = Sp_vm.Vmm.create ~node:tag ("vmm-" ^ tag) in
  let disks = ref [] and bases = ref [] in
  let base suffix =
    let disk = Sp_blockdev.Disk.create ~label:("disk-" ^ tag ^ suffix) ~blocks:8192 () in
    (match w with
    | Sync_heavy -> Sp_sfs.Disk_layer.mkfs ~journal:true disk
    | Namespace -> Sp_sfs.Disk_layer.mkfs ~journal:true ~inodes:(n_entries + 256) disk
    | _ -> Sp_sfs.Disk_layer.mkfs disk);
    let fs =
      Sp_coherency.Spring_sfs.make_split ~node:tag ~vmm ~name:(tag ^ suffix)
        ~same_domain:false disk
    in
    disks := disk :: !disks;
    bases := fs :: !bases;
    fs
  in
  let fs =
    match w with
    | Deep_stack ->
        let fa = base "a" and fb = base "b" in
        let mirror = Sp_mirrorfs.Mirrorfs.make ~node:tag ~vmm ~name:(tag ^ ".m") () in
        S.stack_on mirror fa;
        S.stack_on mirror fb;
        let comp = Sp_compfs.Compfs.make ~node:tag ~vmm ~name:(tag ^ ".z") () in
        S.stack_on comp mirror;
        comp
    | _ -> base ""
  in
  let free0 = free_blocks !bases in
  let make_files n prefix len =
    let data = pattern len in
    Array.init n (fun i ->
        let f = S.create fs (Sname.of_string (Printf.sprintf "%s%d" prefix i)) in
        ignore (F.write f ~pos:0 data);
        f)
  in
  let files, file_len, cache =
    match w with
    | Out_of_cache -> (make_files n_big "o" (big_pages * ps), big_pages * ps, None)
    | Namespace ->
        S.mkdir fs dir;
        Array.iter (fun p -> ignore (S.create fs p)) static_paths;
        ([||], 0, Some (Sp_naming.Name_cache.create ~capacity:cache_capacity ()))
    | _ -> (make_files n_shared "s" ps, ps, None)
  in
  S.sync fs;
  (match w with
  | Out_of_cache ->
      (* Start cold with a cache of 1 MiB over 16 MiB of data. *)
      S.drop_caches fs;
      Sp_vm.Vmm.set_capacity vmm ~pages:(vm_capacity w)
  | Namespace ->
      let cache = Option.get cache in
      for i = 0 to n_hot - 1 do
        ignore (S.open_file_cached cache fs static_paths.(i))
      done
  | _ -> ());
  { vmm; disks = List.rev !disks; bases = List.rev !bases; fs; files; file_len; cache; free0 }

let check_page what got =
  if not (Bytes.equal got page) then raise (Wrong_bytes what)

(* Scale's base mix: mostly warm 4 KiB reads of shared one-page files,
   some 1 KiB writes, stats and an occasional sync. *)
let warm_op world rng t =
  let f = world.files.(Rng.int rng n_shared) in
  match Rng.int rng 16 with
  | 0 -> t.timed Sync (fun () -> F.sync f)
  | 1 | 2 -> ignore (t.timed Stat (fun () -> F.stat f))
  | 3 | 4 | 5 ->
      let pos = 256 * Rng.int rng 12 in
      ignore (t.timed Write (fun () -> F.write f ~pos payload))
  | _ -> check_page f.F.f_id (t.timed Read (fun () -> F.read f ~pos:0 ~len:ps))

(* Scale's sync-heavy mix: every op a 1 KiB write, every fourth followed
   by a sync of the same file. *)
let sync_op world rng ~op t =
  let f = world.files.(Rng.int rng n_shared) in
  let pos = 256 * Rng.int rng 12 in
  ignore (t.timed Write (fun () -> F.write f ~pos payload));
  if op mod sync_every = 0 then t.timed Sync (fun () -> F.sync f)

let open_static world rng t =
  let i =
    if Rng.int rng 10 < 8 then Rng.int rng n_hot else n_hot + Rng.int rng (n_entries - n_hot)
  in
  t.timed Open (fun () ->
      S.open_file_cached (Option.get world.cache) world.fs static_paths.(i))

let namespace_op world rng ~client ~op t =
  match Rng.int rng 16 with
  | 0 | 1 ->
      let tmp = Sname.of_string (Printf.sprintf "dir/t%d_%d" client op) in
      t.timed Churn (fun () ->
          ignore (S.create world.fs tmp);
          S.remove world.fs tmp)
  | 2 | 3 | 4 ->
      ignore (t.timed Readdir (fun () -> S.readdir world.fs dir ~cookie:0 ~limit:32))
  | 5 | 6 ->
      let f = open_static world rng t in
      let a = t.timed Stat (fun () -> F.stat f) in
      if a.Sp_vm.Attr.len <> 0 then raise (Wrong_bytes f.F.f_id)
  | _ -> ignore (open_static world rng t)

let out_of_cache_op world rng t =
  let f = world.files.(Rng.int rng n_big) in
  let pos = ps * Rng.int rng big_pages in
  check_page f.F.f_id (t.timed Read (fun () -> F.read f ~pos ~len:ps))

let op w world rng ~client ~op t =
  match w with
  | Warm_mix | Deep_stack | Crowd -> warm_op world rng t
  | Sync_heavy -> sync_op world rng ~op t
  | Namespace -> namespace_op world rng ~client ~op t
  | Out_of_cache -> out_of_cache_op world rng t

(* After the run: push everything to disk, drop every cache, and read
   the world back cold.  Returns one message per failed check. *)
let verify w world =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (try
     S.sync world.fs;
     S.drop_caches world.fs
   with e -> fail "sync and drop_caches raised %s" (Printexc.to_string e));
  let expected = pattern world.file_len in
  Array.iter
    (fun f ->
      match F.read f ~pos:0 ~len:(world.file_len + 1) with
      | got when Bytes.length got <> world.file_len ->
          fail "%s: read back %d bytes, not %d" f.F.f_id (Bytes.length got) world.file_len
      | got when not (Bytes.equal got expected) -> fail "%s: read back wrong bytes" f.F.f_id
      | _ -> ()
      | exception e -> fail "%s: read back raised %s" f.F.f_id (Printexc.to_string e))
    world.files;
  (if w = Namespace then
     match S.listdir world.fs dir with
     | names ->
         if names <> List.init n_entries static_name then
           fail "dir lists %d names, not the %d static ones" (List.length names) n_entries
     | exception e -> fail "listdir raised %s" (Printexc.to_string e));
  List.rev !failures
