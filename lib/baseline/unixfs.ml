module L = Sp_sfs.Layout
module I = Sp_sfs.Inode
module D = Sp_sfs.Dirent

let bs = Sp_blockdev.Disk.block_size

(* CPU work per syscall beyond the trap, in cpu_op units (25 ns each under
   the paper model; zero under the fast model).  Calibrated so that the
   warm-cache numbers land near SunOS 4.1.3's Table 3 row. *)
let open_work = 4_400 (* ~110 us: namei, permission checks, fd setup *)

let io_work = 600 (* ~15 us *)

let stat_work = 500 (* ~12.5 us *)

type buf = { data : bytes; mutable dirty : bool }

type t = {
  disk : Sp_blockdev.Disk.t;
  layout : L.t;
  icache : I.cache;
  ibitmap : Sp_sfs.Bitmap.t;
  bbitmap : Sp_sfs.Bitmap.t;
  bufcache : (int, buf) Hashtbl.t;
  ncache : (string, int) Hashtbl.t;  (* absolute path -> inode *)
}

type fd = int

(* ------------------------------------------------------------------ *)
(* Buffer cache                                                        *)
(* ------------------------------------------------------------------ *)

let bread t b =
  match Hashtbl.find_opt t.bufcache b with
  | Some buf -> buf.data
  | None ->
      let data = Sp_blockdev.Disk.read t.disk b in
      Hashtbl.replace t.bufcache b { data; dirty = false };
      data

let bwrite t b data =
  match Hashtbl.find_opt t.bufcache b with
  | Some buf ->
      Bytes.blit data 0 buf.data 0 (Bytes.length data);
      if Bytes.length data < bs then
        Bytes.fill buf.data (Bytes.length data) (bs - Bytes.length data) '\000';
      buf.dirty <- true
  | None ->
      let block = Bytes.make bs '\000' in
      Bytes.blit data 0 block 0 (Bytes.length data);
      Hashtbl.replace t.bufcache b { data = block; dirty = true }

let flush_buffers t =
  Hashtbl.iter
    (fun b buf ->
      if buf.dirty then begin
        Sp_blockdev.Disk.write t.disk b buf.data;
        buf.dirty <- false
      end)
    t.bufcache

(* ------------------------------------------------------------------ *)
(* Allocation and block mapping (direct + single indirect)             *)
(* ------------------------------------------------------------------ *)

let alloc_block t =
  match Sp_sfs.Bitmap.find_free ~from:t.layout.L.data_start t.bbitmap with
  | Some b when b >= t.layout.L.data_start ->
      Sp_sfs.Bitmap.set t.bbitmap b;
      bwrite t b (Bytes.make bs '\000');
      b
  | Some _ | None -> raise (Sp_core.Fserr.No_space "unixfs: data blocks")

let ptr_get block i = Int32.to_int (Bytes.get_int32_le block (i * 4))
let ptr_set block i v = Bytes.set_int32_le block (i * 4) (Int32.of_int v)

let file_block t (inode : I.t) n =
  if n < L.n_direct then inode.I.direct.(n)
  else
    let n = n - L.n_direct in
    if n >= L.ptrs_per_block then raise (Sp_core.Fserr.No_space "unixfs: file too large")
    else if inode.I.indirect = 0 then 0
    else ptr_get (bread t inode.I.indirect) n

let ensure_block t ino (inode : I.t) n =
  if n < L.n_direct then begin
    if inode.I.direct.(n) = 0 then begin
      inode.I.direct.(n) <- alloc_block t;
      I.mark_dirty t.icache ino
    end;
    inode.I.direct.(n)
  end
  else begin
    let n = n - L.n_direct in
    if n >= L.ptrs_per_block then raise (Sp_core.Fserr.No_space "unixfs: file too large");
    if inode.I.indirect = 0 then begin
      inode.I.indirect <- alloc_block t;
      I.mark_dirty t.icache ino
    end;
    let table = Bytes.copy (bread t inode.I.indirect) in
    let b = ptr_get table n in
    if b <> 0 then b
    else begin
      let fresh = alloc_block t in
      ptr_set table n fresh;
      bwrite t inode.I.indirect table;
      fresh
    end
  end

let read_range t inode ~pos ~len =
  let out = Bytes.make len '\000' in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let b = file_block t inode (off / bs) in
      let in_block = off mod bs in
      let n = min (len - cursor) (bs - in_block) in
      if b <> 0 then Bytes.blit (bread t b) in_block out cursor n;
      go (cursor + n)
    end
  in
  go 0;
  out

let write_range t ino inode ~pos data =
  let len = Bytes.length data in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let in_block = off mod bs in
      let n = min (len - cursor) (bs - in_block) in
      let b = ensure_block t ino inode (off / bs) in
      let block = Bytes.copy (bread t b) in
      Bytes.blit data cursor block in_block n;
      bwrite t b block;
      go (cursor + n)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Directories and paths                                               *)
(* ------------------------------------------------------------------ *)

let es = D.entry_size

let dir_entries t inode =
  let data = read_range t inode ~pos:0 ~len:inode.I.len in
  let rec go off acc =
    if off + es > Bytes.length data then List.rev acc
    else
      match D.decode data off with
      | Some e -> go (off + es) (e :: acc)
      | None -> go (off + es) acc
  in
  go 0 []

let dir_lookup t inode name =
  List.find_opt (fun e -> String.equal e.D.name name) (dir_entries t inode)

let dir_add t ino inode entry =
  let slot = inode.I.len in
  write_range t ino inode ~pos:slot (D.encode entry);
  inode.I.len <- slot + es;
  I.mark_dirty t.icache ino

let dir_remove t ino inode name =
  let data = read_range t inode ~pos:0 ~len:inode.I.len in
  let rec go off =
    if off + es > Bytes.length data then raise (Sp_core.Fserr.No_such_file name)
    else
      match D.decode data off with
      | Some e when String.equal e.D.name name ->
          write_range t ino inode ~pos:off D.free_slot
      | _ -> go (off + es)
  in
  go 0

let namei t path =
  match Hashtbl.find_opt t.ncache path with
  | Some ino -> ino
  | None ->
      let components = Sp_naming.Sname.components (Sp_naming.Sname.of_string path) in
      let step ino component =
        let inode = I.get t.icache ino in
        if inode.I.kind <> I.Dir then raise (Sp_core.Fserr.Not_a_directory component);
        match dir_lookup t inode component with
        | Some e -> e.D.ino
        | None -> raise (Sp_core.Fserr.No_such_file path)
      in
      let ino = List.fold_left step 0 components in
      Hashtbl.replace t.ncache path ino;
      ino

let parent_of t path =
  let components = Sp_naming.Sname.components (Sp_naming.Sname.of_string path) in
  match List.rev components with
  | [] -> invalid_arg "unixfs: empty path"
  | last :: rev_dirs ->
      let dir_path = String.concat "/" (List.rev rev_dirs) in
      (namei t dir_path, last)

(* ------------------------------------------------------------------ *)
(* Syscalls                                                            *)
(* ------------------------------------------------------------------ *)

let syscall work =
  Sp_obj.Door.kernel_call ();
  Sp_obj.Door.charge_cpu work

let mount ?label disk =
  ignore label;
  let layout = L.decode_superblock (Sp_blockdev.Disk.read disk 0) in
  {
    disk;
    layout;
    icache = I.cache_create (Sp_sfs.Journal.raw disk) layout;
    ibitmap =
      Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk)
        ~start:layout.L.inode_bitmap_start
        ~blocks:layout.L.inode_bitmap_blocks ~bits:layout.L.inode_count;
    bbitmap =
      Sp_sfs.Bitmap.load (Sp_sfs.Journal.raw disk)
        ~start:layout.L.block_bitmap_start
        ~blocks:layout.L.block_bitmap_blocks ~bits:layout.L.total_blocks;
    bufcache = Hashtbl.create 256;
    ncache = Hashtbl.create 64;
  }

let mkfs_and_mount ?label disk =
  (* The baseline predates the checksum region, and its caches write
     through [Journal.raw] without maintaining one — format the
     pre-checksum on-disk layout (csum_blocks = 0 decodes fine). *)
  Sp_sfs.Disk_layer.mkfs ~checksums:false disk;
  mount ?label disk

let alloc_inode t kind =
  match Sp_sfs.Bitmap.find_free t.ibitmap with
  | None -> raise (Sp_core.Fserr.No_space "unixfs: inodes")
  | Some ino ->
      Sp_sfs.Bitmap.set t.ibitmap ino;
      let now = Sp_sim.Simclock.now () in
      I.put t.icache ino
        {
          I.kind;
          nlink = 1;
          len = 0;
          atime = now;
          mtime = now;
          ctime = now;
          direct = Array.make L.n_direct 0;
          indirect = 0;
          double_indirect = 0;
        };
      ino

let creat t path =
  syscall open_work;
  let parent, name = parent_of t path in
  let pnode = I.get t.icache parent in
  if dir_lookup t pnode name <> None then raise (Sp_core.Fserr.Already_exists path);
  let ino = alloc_inode t I.File in
  dir_add t parent pnode { D.ino; is_dir = false; name };
  Hashtbl.replace t.ncache path ino;
  ino

let openf t path =
  syscall open_work;
  let ino = namei t path in
  let inode = I.get t.icache ino in
  if inode.I.kind = I.Dir then raise (Sp_core.Fserr.Is_directory path);
  ino

let read t fd ~pos ~len =
  syscall io_work;
  let inode = I.get t.icache fd in
  let len = max 0 (min len (inode.I.len - pos)) in
  if len = 0 then Bytes.empty
  else begin
    let data = read_range t inode ~pos ~len in
    Sp_obj.Door.charge_copy len;
    data
  end

let write t fd ~pos data =
  syscall io_work;
  let inode = I.get t.icache fd in
  write_range t fd inode ~pos data;
  let len = Bytes.length data in
  if pos + len > inode.I.len then inode.I.len <- pos + len;
  inode.I.mtime <- Sp_sim.Simclock.now ();
  I.mark_dirty t.icache fd;
  Sp_obj.Door.charge_copy len;
  len

let fstat t fd =
  syscall stat_work;
  I.to_attr (I.get t.icache fd)

let mkdir t path =
  syscall open_work;
  let parent, name = parent_of t path in
  let pnode = I.get t.icache parent in
  if dir_lookup t pnode name <> None then raise (Sp_core.Fserr.Already_exists path);
  let ino = alloc_inode t I.Dir in
  dir_add t parent pnode { D.ino; is_dir = true; name }

let unlink t path =
  syscall open_work;
  let parent, name = parent_of t path in
  let pnode = I.get t.icache parent in
  (match dir_lookup t pnode name with
  | None -> raise (Sp_core.Fserr.No_such_file path)
  | Some e ->
      dir_remove t parent pnode name;
      let child = I.get t.icache e.D.ino in
      child.I.nlink <- child.I.nlink - 1;
      I.mark_dirty t.icache e.D.ino;
      if child.I.nlink <= 0 then Sp_sfs.Bitmap.clear t.ibitmap e.D.ino);
  Hashtbl.remove t.ncache path

let sync t =
  syscall io_work;
  flush_buffers t;
  I.flush t.icache;
  Sp_sfs.Bitmap.flush t.ibitmap;
  Sp_sfs.Bitmap.flush t.bbitmap

let drop_caches t =
  sync t;
  Hashtbl.reset t.bufcache;
  Hashtbl.reset t.ncache;
  I.drop t.icache
