let bs = Sp_blockdev.Disk.block_size

module Itbl = Hashtbl.Make (Int)

(* Group-commit window (see [flush_all]): the leader that opened it
   seals it when its commit-delay expires; syncs arriving before the
   seal park on [gw_done] and are covered by the leader's transaction. *)
type gc_window = {
  gw_done : (unit, exn) result Sp_sched.Ivar.t;
  mutable gw_sealed : bool;
}

(* One indexed directory's cached blocks: slot [fb] holds file block
   [fb], and [Bytes.empty] marks a block not cached. *)
type dir_blocks = { mutable blocks : bytes array }

type fs = {
  name : string;
  disk : Sp_blockdev.Disk.t;
  dev : Journal.dev;  (* all layer I/O goes through this *)
  layout : Layout.t;
  domain : Sp_obj.Sdomain.t;
  icache : Inode.cache;
  ibitmap : Bitmap.t;
  bbitmap : Bitmap.t;
  channels : Sp_vm.Pager_lib.t;
  files : (int, Sp_core.File.t) Hashtbl.t;
  ctxs : (int, Sp_naming.Context.t) Hashtbl.t;
  dcache : (int, Dirent.t list) Hashtbl.t;
      (* flat-directory entry cache: with the i-node cache, lets open and
         stat run without disk I/O (paper Table 2 note).  Indexed
         directories bypass it and use [dirblk] instead. *)
  dirblk : dir_blocks Itbl.t;
      (* dir inode -> its block array, the write-through block cache for
         indexed directories: warm index lookups cost no disk I/O, an
         [io] finds its array once and then reads a slot per block, and
         freeing an inode drops only its own blocks.  Forgetting a
         directory empties its array in place, so an [io] already handed
         out never serves a block the volume has dropped. *)
  indcache : (int, bytes) Hashtbl.t;
      (* indirect-block cache (write-through): metadata, like the i-node
         cache, so sequential data I/O does not thrash the head between
         indirect and data blocks.  A cached table is never patched in
         place: a change copies it first ([set_ptr]), so a lookup or an
         already-mapped [ensure_block] copies nothing. *)
  dir_index : bool;
      (* mount-time policy switch: when false, flat directories never
         upgrade to the hashed index (directories already indexed on
         disk stay indexed — the format test decides).  Exists for the
         flat-baseline benchmark; real mounts leave it on. *)
  lock : Sp_sched.Mutex.t;
      (* serializes mutating operations and sync against concurrent
         scheduler tasks: a journal commit interleaved with buffered
         writes (or two interleaved allocations) would corrupt the
         volume.  Reads stay outside it so the disk elevator sees
         concurrent I/O.  Reentrant per task (sync from inside a write
         path is fine). *)
  group_commit : bool;
      (* mount-time policy: when true (the default), concurrent syncs
         elect a leader whose single commit covers the union dirty set;
         off exists for the equivalence tests and A/B benchmarks. *)
  mutable gc : gc_window option;  (* the currently open window, if any *)
}

(* Links the exported stackable_fs back to its state, for the
   introspection API. *)
type Sp_obj.Exten.t += Layer of fs

let fs_of =
  Sp_core.Stackable.narrow ~what:"a disk layer" (function
    | Layer fs -> Some fs
    | _ -> None)

let locked fs f = Sp_sched.Mutex.with_lock fs.lock f

(* ------------------------------------------------------------------ *)
(* Block allocation                                                    *)
(* ------------------------------------------------------------------ *)

let alloc_block fs =
  match Bitmap.find_free ~from:fs.layout.Layout.data_start fs.bbitmap with
  | Some b when b >= fs.layout.Layout.data_start ->
      Bitmap.set fs.bbitmap b;
      Journal.write fs.dev b (Bytes.make bs '\000');
      b
  | Some _ | None -> raise (Sp_core.Fserr.No_space (fs.name ^ ": data blocks"))

let free_block fs b = if b <> 0 then Bitmap.clear fs.bbitmap b

(* ------------------------------------------------------------------ *)
(* File-block mapping: direct, single and double indirect              *)
(* ------------------------------------------------------------------ *)

let ptr_get block i = Int32.to_int (Bytes.get_int32_le block (i * 4))
let ptr_set block i v = Bytes.set_int32_le block (i * 4) (Int32.of_int v)
let ppb = Layout.ptrs_per_block

let read_indirect fs b =
  match Hashtbl.find_opt fs.indcache b with
  | Some data -> data
  | None ->
      let data = Journal.read fs.dev b in
      Hashtbl.replace fs.indcache b data;
      data

let write_indirect fs b data =
  Hashtbl.replace fs.indcache b (Bytes.copy data);
  Journal.write fs.dev b data

(* Disk block holding file block [n] of [inode], or 0 for a hole. *)
let file_block fs inode n =
  if n < Layout.n_direct then inode.Inode.direct.(n)
  else
    let n = n - Layout.n_direct in
    if n < ppb then
      if inode.Inode.indirect = 0 then 0
      else ptr_get (read_indirect fs inode.Inode.indirect) n
    else
      let n = n - ppb in
      if n >= ppb * ppb then
        raise (Sp_core.Fserr.No_space (fs.name ^ ": file too large"))
      else if inode.Inode.double_indirect = 0 then 0
      else
        let l1 = read_indirect fs inode.Inode.double_indirect in
        let l2_block = ptr_get l1 (n / ppb) in
        if l2_block = 0 then 0
        else ptr_get (read_indirect fs l2_block) (n mod ppb)

(* [block]'s pointer [i] set to [v], written through: the cached table
   is never patched, so a copy is made only here, when a pointer in it
   changes. *)
let set_ptr fs b block i v =
  let table = Bytes.copy block in
  ptr_set table i v;
  write_indirect fs b table

(* Pointer [i] of indirect block [b], allocating a data block for it
   when it is 0. *)
let ensure_ptr fs b i =
  let table = read_indirect fs b in
  let p = ptr_get table i in
  if p <> 0 then p
  else begin
    let fresh = alloc_block fs in
    set_ptr fs b table i fresh;
    fresh
  end

(* Like [file_block] but allocates missing blocks (and indirect blocks). *)
let ensure_block fs ino inode n =
  let dirty () = Inode.mark_dirty fs.icache ino in
  if n < Layout.n_direct then begin
    if inode.Inode.direct.(n) = 0 then begin
      inode.Inode.direct.(n) <- alloc_block fs;
      dirty ()
    end;
    inode.Inode.direct.(n)
  end
  else
    let n' = n - Layout.n_direct in
    if n' < ppb then begin
      if inode.Inode.indirect = 0 then begin
        inode.Inode.indirect <- alloc_block fs;
        dirty ()
      end;
      ensure_ptr fs inode.Inode.indirect n'
    end
    else begin
      let n' = n' - ppb in
      if n' >= ppb * ppb then
        raise (Sp_core.Fserr.No_space (fs.name ^ ": file too large"));
      if inode.Inode.double_indirect = 0 then begin
        inode.Inode.double_indirect <- alloc_block fs;
        dirty ()
      end;
      let l2_block = ensure_ptr fs inode.Inode.double_indirect (n' / ppb) in
      ensure_ptr fs l2_block (n' mod ppb)
    end

(* Free the data block behind pointer [i] of indirect block [b], if
   any, and zero the pointer. *)
let punch_ptr fs b i =
  let table = read_indirect fs b in
  let p = ptr_get table i in
  if p <> 0 then begin
    free_block fs p;
    set_ptr fs b table i 0
  end

(* Free file block [fb]'s disk block and zero its mapping pointer,
   leaving a hole (reads return zeros).  Index rebuilds punch the old
   extent out this way after the root flips. *)
let punch_file_block fs ino inode fb =
  (match Itbl.find fs.dirblk ino with
   | d -> if fb < Array.length d.blocks then d.blocks.(fb) <- Bytes.empty
   | exception Not_found -> ());
  if fb < Layout.n_direct then begin
    let b = inode.Inode.direct.(fb) in
    if b <> 0 then begin
      free_block fs b;
      inode.Inode.direct.(fb) <- 0;
      Inode.mark_dirty fs.icache ino
    end
  end
  else
    let n = fb - Layout.n_direct in
    if n < ppb then begin
      if inode.Inode.indirect <> 0 then punch_ptr fs inode.Inode.indirect n
    end
    else begin
      let n = n - ppb in
      if inode.Inode.double_indirect <> 0 then begin
        let l2_block = ptr_get (read_indirect fs inode.Inode.double_indirect) (n / ppb) in
        if l2_block <> 0 then punch_ptr fs l2_block (n mod ppb)
      end
    end

(* Free the data blocks behind pointers [first..] of indirect block [b].
   From pointer 0 the table itself goes too, unpatched; otherwise it is
   copied once, at the first pointer that changes, and written back if
   any did. *)
let free_ptrs_from fs b first =
  let cached = read_indirect fs b in
  if first = 0 then begin
    for i = 0 to ppb - 1 do
      free_block fs (ptr_get cached i)
    done;
    Hashtbl.remove fs.indcache b;
    free_block fs b
  end
  else begin
    let table = ref cached in
    for i = first to ppb - 1 do
      let p = ptr_get cached i in
      if p <> 0 then begin
        free_block fs p;
        if !table == cached then table := Bytes.copy cached;
        ptr_set !table i 0
      end
    done;
    if !table != cached then write_indirect fs b !table
  end

(* Free all blocks of file block index >= [from_block]. *)
let free_blocks_from fs ino inode ~from_block =
  let dirty () = Inode.mark_dirty fs.icache ino in
  for i = max 0 from_block to Layout.n_direct - 1 do
    if inode.Inode.direct.(i) <> 0 then begin
      free_block fs inode.Inode.direct.(i);
      inode.Inode.direct.(i) <- 0;
      dirty ()
    end
  done;
  if inode.Inode.indirect <> 0 then begin
    let first = max 0 (from_block - Layout.n_direct) in
    if first < ppb then begin
      free_ptrs_from fs inode.Inode.indirect first;
      if first = 0 then begin
        inode.Inode.indirect <- 0;
        dirty ()
      end
    end
  end;
  if inode.Inode.double_indirect <> 0 then begin
    let first = max 0 (from_block - Layout.n_direct - ppb) in
    let l1 = read_indirect fs inode.Inode.double_indirect in
    let l1' = ref l1 in
    for i = (if first = 0 then 0 else first / ppb) to ppb - 1 do
      let l2_block = ptr_get l1 i in
      if l2_block <> 0 then begin
        let lo = if i * ppb >= first then 0 else first mod ppb in
        free_ptrs_from fs l2_block lo;
        if lo = 0 && first <> 0 then begin
          if !l1' == l1 then l1' := Bytes.copy l1;
          ptr_set !l1' i 0
        end
      end
    done;
    if first = 0 then begin
      Hashtbl.remove fs.indcache inode.Inode.double_indirect;
      free_block fs inode.Inode.double_indirect;
      inode.Inode.double_indirect <- 0;
      dirty ()
    end
    else if !l1' != l1 then write_indirect fs inode.Inode.double_indirect !l1'
  end

(* ------------------------------------------------------------------ *)
(* Raw ranged I/O (ignores the inode length; holes read as zeros)      *)
(* ------------------------------------------------------------------ *)

(* Bytes the block map can address.  A damaged i-node's length can be
   anything: a span past this names blocks [file_block] refuses, so it is
   refused the same way before a buffer is sized for it. *)
let max_file_bytes = (Layout.n_direct + ppb + (ppb * ppb)) * bs

let read_span fs inode ~pos ~len =
  if len > max_file_bytes - pos then
    raise (Sp_core.Fserr.No_space (fs.name ^ ": file too large"));
  let out = Bytes.make len '\000' in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let b = file_block fs inode (off / bs) in
      let in_block = off mod bs in
      let n = min (len - cursor) (bs - in_block) in
      if b <> 0 then begin
        let data = Journal.read fs.dev b in
        Bytes.blit data in_block out cursor n
      end;
      go (cursor + n)
    end
  in
  go 0;
  out

(* A whole aligned block (every page-in) skips the assembly buffer:
   [Journal.read] already hands back a fresh copy. *)
let read_range fs inode ~pos ~len =
  if len = bs && pos mod bs = 0 then
    let b = file_block fs inode (pos / bs) in
    if b = 0 then Bytes.make bs '\000' else Journal.read fs.dev b
  else read_span fs inode ~pos ~len

(* The block of [data] at [cursor], [bs] bytes long.  The payload is
   borrowed (a client's or a pager's), and [Journal.write] keeps the
   buffer it is given until the commit, so a journaled volume gets a copy.
   On a raw dev a one-block payload goes down as it is — [Disk.write]
   copies it into the device block — and the caller keeps it unchanged
   for the write's duration. *)
let whole_block fs data cursor =
  if cursor = 0 && Bytes.length data = bs && Journal.journal fs.dev = None then data
  else Bytes.sub data cursor bs

let write_range fs ino inode ~pos data =
  let len = Bytes.length data in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let in_block = off mod bs in
      let n = min (len - cursor) (bs - in_block) in
      let b = ensure_block fs ino inode (off / bs) in
      if n = bs then Journal.write fs.dev b (whole_block fs data cursor)
      else begin
        let block = Journal.read fs.dev b in
        Bytes.blit data cursor block in_block n;
        Journal.write fs.dev b block
      end;
      go (cursor + n)
    end
  in
  go 0

(* [write_range] for one clustered-writeback extent: allocation (and its
   metadata writes) happens up front while collecting the run's blocks,
   then the data goes to the device in one [Journal.write_vec] — in
   ascending block order, so a contiguously-allocated run costs one seek
   plus a contiguous transfer instead of thrashing the head between data
   and checksum-region blocks per page. *)
let write_range_vec fs ino inode ~pos data =
  let len = Bytes.length data in
  let writes = ref [] in
  let rec go cursor =
    if cursor < len then begin
      let off = pos + cursor in
      let in_block = off mod bs in
      let n = min (len - cursor) (bs - in_block) in
      let b = ensure_block fs ino inode (off / bs) in
      let block =
        if n = bs then whole_block fs data cursor
        else begin
          let block = Journal.read fs.dev b in
          Bytes.blit data cursor block in_block n;
          block
        end
      in
      writes := (b, block) :: !writes;
      go (cursor + n)
    end
  in
  go 0;
  Journal.write_vec fs.dev (List.rev !writes)

(* ------------------------------------------------------------------ *)
(* Inode allocation, length                                            *)
(* ------------------------------------------------------------------ *)

let alloc_inode fs kind =
  match Bitmap.find_free fs.ibitmap with
  | None -> raise (Sp_core.Fserr.No_space (fs.name ^ ": inodes"))
  | Some ino ->
      Bitmap.set fs.ibitmap ino;
      let now = Sp_sim.Simclock.now () in
      let inode =
        {
          Inode.kind;
          nlink = 1;
          len = 0;
          atime = now;
          mtime = now;
          ctime = now;
          direct = Array.make Layout.n_direct 0;
          indirect = 0;
          double_indirect = 0;
        }
      in
      Inode.put fs.icache ino inode;
      (ino, inode)

let set_length fs ino len =
  let inode = Inode.get fs.icache ino in
  if len < 0 then invalid_arg "Disk_layer.set_length: negative";
  if len < inode.Inode.len then begin
    let keep = (len + bs - 1) / bs in
    free_blocks_from fs ino inode ~from_block:keep;
    (* Zero the tail of the last kept block so re-extension reads zeros. *)
    if len mod bs <> 0 then begin
      let b = file_block fs inode (len / bs) in
      if b <> 0 then begin
        let block = Journal.read fs.dev b in
        Bytes.fill block (len mod bs) (bs - (len mod bs)) '\000';
        Journal.write fs.dev b block
      end
    end
  end;
  if len <> inode.Inode.len then begin
    inode.Inode.len <- len;
    inode.Inode.mtime <- Sp_sim.Simclock.now ();
    Inode.mark_dirty fs.icache ino
  end

let file_key fs ino = Printf.sprintf "%s/ino%d" fs.name ino

let forget_dir_blocks fs ino =
  match Itbl.find fs.dirblk ino with
  | d ->
      d.blocks <- [||];
      Itbl.remove fs.dirblk ino
  | exception Not_found -> ()

let free_inode fs ino =
  (* The file's identity dies here: tear down every pager-cache channel so
     a later file reusing this inode cannot alias stale caches. *)
  Sp_vm.Pager_lib.destroy_key fs.channels ~key:(file_key fs ino);
  let inode = Inode.get fs.icache ino in
  free_blocks_from fs ino inode ~from_block:0;
  inode.Inode.kind <- Inode.Free;
  inode.Inode.len <- 0;
  inode.Inode.nlink <- 0;
  Inode.mark_dirty fs.icache ino;
  Bitmap.clear fs.ibitmap ino;
  Hashtbl.remove fs.files ino;
  Hashtbl.remove fs.ctxs ino;
  Hashtbl.remove fs.dcache ino;
  forget_dir_blocks fs ino

(* ------------------------------------------------------------------ *)
(* Directories                                                         *)
(* ------------------------------------------------------------------ *)

let es = Dirent.entry_size

let decode_dir data =
  let rec go off acc =
    if off + es > Bytes.length data then List.rev acc
    else
      match Dirent.decode data off with
      | Some e -> go (off + es) (e :: acc)
      | None -> go (off + es) acc
  in
  go 0 []

let dir_entries_uncached fs inode =
  decode_dir (read_range fs inode ~pos:0 ~len:inode.Inode.len)

(* [ino] is only used as the cache key; [inode] must be its inode.
   Flat directories only — indexed directories go through [dir_io]. *)
let dir_entries_at fs ino inode =
  match Hashtbl.find_opt fs.dcache ino with
  | Some entries -> entries
  | None ->
      let entries = dir_entries_uncached fs inode in
      Hashtbl.replace fs.dcache ino entries;
      entries

(* Index block I/O over the directory's own data blocks: reads come
   through the write-through [dirblk] cache (the indexed analog of
   [dcache]), writes route through the journalled dev so index updates
   commit atomically with everything else.  [Index] patches the block
   read returned, then writes it: the cache hands out its own bytes, and
   the journal keeps that same buffer until the commit.  Every index
   mutation runs under the volume lock, as every commit does, so the
   cache block has one owner and the journal sees it only between
   mutations. *)
let dir_blocks fs ino =
  match Itbl.find fs.dirblk ino with
  | d -> d
  | exception Not_found ->
      let d = { blocks = [||] } in
      Itbl.replace fs.dirblk ino d;
      d

let cache_dir_block d fb data =
  let n = Array.length d.blocks in
  if fb >= n then begin
    let grown = Array.make (max (fb + 1) (2 * n)) Bytes.empty in
    Array.blit d.blocks 0 grown 0 n;
    d.blocks <- grown
  end;
  d.blocks.(fb) <- data

(* A miss caches into [d] itself: once the directory's blocks are
   forgotten, an [io] still holding [d] reloads what it reads and keeps
   it to itself. *)
let dir_block_in fs inode d fb =
  if fb < Array.length d.blocks && Bytes.length d.blocks.(fb) = bs then d.blocks.(fb)
  else begin
    let b = file_block fs inode fb in
    let data = if b = 0 then Bytes.make bs '\000' else Journal.read fs.dev b in
    cache_dir_block d fb data;
    data
  end

let dir_io fs ino inode =
  let d = dir_blocks fs ino in
  {
    Sp_dir.Index.read = (fun fb -> dir_block_in fs inode d fb);
    write =
      (fun fb data ->
        let b = ensure_block fs ino inode fb in
        cache_dir_block d fb data;
        Journal.write fs.dev b data);
  }

(* Format test: an index root's magic + flag bytes cannot occur in a
   flat block, and flat directories under 64 entries short-circuit on
   length alone. *)
let dir_indexed fs ino inode =
  inode.Inode.len >= bs
  && Sp_dir.Index.is_index_root (dir_block_in fs inode (dir_blocks fs ino) 0)

(* On a journalled volume a shadow rebuild must fit one commit batch,
   so bucket growth stops at 64 (chains then deepen instead — lookups
   stay O(chain), never wrong).  Unjournaled volumes write through and
   grow to the policy cap. *)
let bucket_cap fs = if Journal.journal fs.dev <> None then 64 else 65536

(* Shadow-rebuild the index past the current extent ([start] blocks),
   flip the root, then punch the superseded blocks out of the mapping.
   Also the flat->indexed upgrade (old extent = the flat blocks). *)
let dir_rebuild fs ino inode entries ~start =
  let io = dir_io fs ino inode in
  let buckets =
    Sp_dir.Index.target_buckets ~cap:(bucket_cap fs)
      ~entries:(List.length entries) ()
  in
  let nblocks = Sp_dir.Index.build io ~entries ~buckets ~start in
  for fb = 1 to start - 1 do
    punch_file_block fs ino inode fb
  done;
  inode.Inode.len <- nblocks * bs;
  Inode.mark_dirty fs.icache ino;
  Hashtbl.remove fs.dcache ino

let dir_lookup fs ino inode name =
  if dir_indexed fs ino inode then Sp_dir.Index.lookup (dir_io fs ino inode) name
  else
    List.find_opt
      (fun e -> String.equal e.Dirent.name name)
      (dir_entries_at fs ino inode)

let dir_add fs ino inode entry =
  if dir_indexed fs ino inode then begin
    let io = dir_io fs ino inode in
    Sp_dir.Index.add io entry;
    let h = Sp_dir.Index.read_header io in
    if h.Sp_dir.Index.nblocks * bs > inode.Inode.len then
      inode.Inode.len <- h.Sp_dir.Index.nblocks * bs;
    if Sp_dir.Index.grow_due ~cap:(bucket_cap fs) h then
      dir_rebuild fs ino inode (Sp_dir.Index.entries io)
        ~start:h.Sp_dir.Index.nblocks;
    inode.Inode.mtime <- Sp_sim.Simclock.now ();
    Inode.mark_dirty fs.icache ino
  end
  else begin
    (* Reuse the first free slot, else append. *)
    let data = read_range fs inode ~pos:0 ~len:inode.Inode.len in
    let rec find_slot off =
      if off + es > Bytes.length data then inode.Inode.len
      else match Dirent.decode data off with Some _ -> find_slot (off + es) | None -> off
    in
    let slot = find_slot 0 in
    write_range fs ino inode ~pos:slot (Dirent.encode entry);
    if slot + es > inode.Inode.len then begin
      inode.Inode.len <- slot + es;
      Inode.mark_dirty fs.icache ino
    end;
    inode.Inode.mtime <- Sp_sim.Simclock.now ();
    Inode.mark_dirty fs.icache ino;
    Hashtbl.remove fs.dcache ino;
    let flat = decode_dir data in
    if fs.dir_index && List.length flat + 1 > Sp_dir.Index.upgrade_threshold then
      dir_rebuild fs ino inode (entry :: flat)
        ~start:((inode.Inode.len + bs - 1) / bs)
  end

let dir_remove fs ino inode name =
  if dir_indexed fs ino inode then begin
    (* Indexed directories never downgrade (ext-style). *)
    if not (Sp_dir.Index.remove (dir_io fs ino inode) name) then
      raise (Sp_core.Fserr.No_such_file (fs.name ^ "/" ^ name));
    inode.Inode.mtime <- Sp_sim.Simclock.now ();
    Inode.mark_dirty fs.icache ino
  end
  else begin
    let data = read_range fs inode ~pos:0 ~len:inode.Inode.len in
    let rec go off =
      if off + es > Bytes.length data then
        raise (Sp_core.Fserr.No_such_file (fs.name ^ "/" ^ name))
      else
        match Dirent.decode data off with
        | Some e when String.equal e.Dirent.name name ->
            write_range fs ino inode ~pos:off Dirent.free_slot;
            inode.Inode.mtime <- Sp_sim.Simclock.now ();
            Inode.mark_dirty fs.icache ino;
            Hashtbl.remove fs.dcache ino
        | _ -> go (off + es)
    in
    go 0
  end

let dir_entry_count fs ino inode =
  if dir_indexed fs ino inode then
    (Sp_dir.Index.read_header (dir_io fs ino inode)).Sp_dir.Index.entries
  else List.length (dir_entries_at fs ino inode)

(* ------------------------------------------------------------------ *)
(* Pager / memory objects                                              *)
(* ------------------------------------------------------------------ *)

let make_pager fs ino =
  let get_attr () = Inode.to_attr (Inode.get fs.icache ino) in
  let set_attr a =
    locked fs @@ fun () ->
    let inode = Inode.get fs.icache ino in
    Inode.apply_attr inode a;
    Inode.mark_dirty fs.icache ino
  in
  let attr_sync (a : Sp_vm.Attr.t) =
    locked fs @@ fun () ->
    let inode = Inode.get fs.icache ino in
    if a.Sp_vm.Attr.len <> inode.Inode.len then set_length fs ino a.Sp_vm.Attr.len;
    let inode = Inode.get fs.icache ino in
    Inode.apply_attr inode a;
    Inode.mark_dirty fs.icache ino
  in
  let write ~offset data =
    locked fs @@ fun () ->
    let inode = Inode.get fs.icache ino in
    write_range fs ino inode ~pos:offset data
  in
  {
    Sp_vm.Vm_types.p_domain = fs.domain;
    p_label = file_key fs ino;
    p_page_in =
      (fun ~offset ~size ~access:_ ->
        let inode = Inode.get fs.icache ino in
        read_range fs inode ~pos:offset ~len:size);
    p_page_out = write;
    p_write_out = write;
    p_sync = write;
    (* Vectored writeback: each extent is a contiguous run of blocks,
       issued to the device in ascending order with the checksum region
       flushed once per extent.  All I/O still goes through the [Journal]
       dev, so crash atomicity and checksums are preserved and a sync
       commits the whole cluster in one journal batch. *)
    p_sync_v =
      Sp_vm.Vm_types.sync_each (fun ~offset data ->
          locked fs @@ fun () ->
          let inode = Inode.get fs.icache ino in
          write_range_vec fs ino inode ~pos:offset data);
    p_done_with = (fun () -> ());
    p_exten =
      [
        Sp_vm.Vm_types.Fs_pager
          {
            Sp_vm.Vm_types.fp_get_attr = get_attr;
            fp_set_attr = set_attr;
            fp_attr_sync = attr_sync;
          };
      ];
  }

let make_memory_object fs ino =
  {
    Sp_vm.Vm_types.m_domain = fs.domain;
    m_label = file_key fs ino;
    m_bind =
      (fun manager _access ->
        Sp_vm.Pager_lib.bind fs.channels ~key:(file_key fs ino)
          ~make_pager:(fun ~id:_ -> make_pager fs ino)
          manager);
    m_get_length = (fun () -> (Inode.get fs.icache ino).Inode.len);
    m_set_length = (fun len -> locked fs (fun () -> set_length fs ino len));
  }

(* ------------------------------------------------------------------ *)
(* File objects                                                        *)
(* ------------------------------------------------------------------ *)

(* Nothing a flush would write: no buffered journal blocks, no dirty
   cached inode, no dirty bitmap block.  O(1), called without the lock —
   safe because a caller's own completed write always leaves something
   dirty (there is no suspension point between a write reaching the
   dev/cache and its dirty mark), so the fast path can never skip work
   the caller is entitled to have synced. *)
let fs_clean fs =
  Journal.pending fs.dev = 0
  && Inode.clean fs.icache
  && Bitmap.clean fs.ibitmap
  && Bitmap.clean fs.bbitmap

let flush_direct fs =
  locked fs @@ fun () ->
  (* The span wraps the whole flush so profiles attribute the commit to
     exactly one task — the leader (or solo caller); absorbed followers
     never open it. *)
  Sp_trace.span ~op:"journal.commit" @@ fun () ->
  Inode.flush fs.icache;
  Bitmap.flush fs.ibitmap;
  Bitmap.flush fs.bbitmap;
  (* On a journaled dev everything above only reached the in-memory dirty
     set; this seals it as one atomic transaction and copies it home. *)
  Journal.commit fs.dev

(* Group commit.  Under concurrent scheduler tasks, the first sync to
   arrive becomes the leader: it opens a window, waits the model's
   commit delay (idle — other clients keep running and their syncs park
   on the window), then seals the window and runs one commit over the
   union dirty set.  A follower whose sync parked before the seal is
   covered by that commit — every write it completed before calling sync
   is in the dirty set the leader flushes — so it returns (or re-raises
   the leader's failure) without touching the device.  A sync that finds
   the window already sealed waits it out and starts over.

   The leader seals with no suspension point between waking from the
   delay and setting [gw_sealed], and followers check [gw_sealed] with
   no suspension point before parking, so no sync can slip between the
   seal and the commit's enumeration of the dirty set uncovered.

   Callers already inside the fs lock (drop_caches, a writeback path
   re-entering sync) must not park — the leader needs that lock to
   commit — and take the direct path; so does everything outside a
   scheduler run, where there is no concurrency to absorb. *)
let rec flush_all fs =
  if fs_clean fs then ()
  else if
    (not fs.group_commit)
    || (not (Sp_sched.in_task ()))
    || Sp_sched.Mutex.held fs.lock
  then flush_direct fs
  else
    match fs.gc with
    | Some w when not w.gw_sealed ->
        (* Follower: the window is still open, so our completed writes
           are in the dirty set the leader will commit. *)
        Journal.note_absorbed fs.dev;
        (match Sp_sched.Ivar.read w.gw_done with
        | Ok () -> ()
        | Error e -> raise e)
    | Some w ->
        (* Sealed: too late to be covered.  Wait for it to land (its
           outcome is not ours to report) and start over. *)
        ignore (Sp_sched.Ivar.read w.gw_done : (unit, exn) result);
        flush_all fs
    | None ->
        (* Leader. *)
        let w = { gw_done = Sp_sched.Ivar.create (); gw_sealed = false } in
        fs.gc <- Some w;
        Sp_sched.sleep (Sp_sim.Cost_model.current ()).commit_delay_ns;
        w.gw_sealed <- true;
        let result =
          match flush_direct fs with () -> Ok () | exception e -> Error e
        in
        (* Clear the window before waking anyone: no suspension point
           between here and the fill, so every later sync sees a fresh
           start.  Guarded by identity — if this leader died mid-commit
           ([Dead_domain]) a successor incarnation may already have
           installed its own window. *)
        (match fs.gc with Some w' when w' == w -> fs.gc <- None | _ -> ());
        if result = Ok () then Journal.note_group_commit fs.dev;
        Sp_sched.Ivar.fill w.gw_done result;
        (match result with Ok () -> () | Error e -> raise e)

(* The disk layer serves read/write straight from the device: it has no
   data cache (Table 2's "reads and writes to the disk layer do require
   disk I/Os"). *)
let make_file fs ino =
  let get_attr () = Inode.to_attr (Inode.get fs.icache ino) in
  {
    Sp_core.File.f_id = file_key fs ino;
    f_domain = fs.domain;
    f_mem = make_memory_object fs ino;
    f_read =
      (fun ~pos ~len ->
        let inode = Inode.get fs.icache ino in
        let len = max 0 (min len (inode.Inode.len - pos)) in
        if len = 0 then Bytes.empty
        else begin
          inode.Inode.atime <- Sp_sim.Simclock.now ();
          Inode.mark_dirty fs.icache ino;
          let data = read_range fs inode ~pos ~len in
          Sp_obj.Door.charge_source_copy len;
          data
        end);
    f_write =
      (fun ~pos data ->
        locked fs @@ fun () ->
        let inode = Inode.get fs.icache ino in
        write_range fs ino inode ~pos data;
        let len = Bytes.length data in
        if pos + len > inode.Inode.len then inode.Inode.len <- pos + len;
        inode.Inode.mtime <- Sp_sim.Simclock.now ();
        Inode.mark_dirty fs.icache ino;
        Sp_obj.Door.charge_source_copy len;
        len);
    f_stat = get_attr;
    f_set_attr =
      (fun a ->
        locked fs @@ fun () ->
        let inode = Inode.get fs.icache ino in
        Inode.apply_attr inode a;
        Inode.mark_dirty fs.icache ino);
    f_truncate = (fun len -> locked fs (fun () -> set_length fs ino len));
    f_sync = (fun () -> flush_all fs);
    f_exten = [];
  }

let file_of fs ino =
  match Hashtbl.find_opt fs.files ino with
  | Some f -> f
  | None ->
      let f = make_file fs ino in
      Hashtbl.replace fs.files ino f;
      f

(* ------------------------------------------------------------------ *)
(* Naming contexts over directories                                    *)
(* ------------------------------------------------------------------ *)

let rec ctx_of fs ino =
  match Hashtbl.find_opt fs.ctxs ino with
  | Some c -> c
  | None ->
      let c = make_ctx fs ino in
      Hashtbl.replace fs.ctxs ino c;
      c

and make_ctx fs ino =
  let label = Printf.sprintf "%s:dir%d" fs.name ino in
  let dir () =
    let inode = Inode.get fs.icache ino in
    if inode.Inode.kind <> Inode.Dir then raise (Sp_core.Fserr.Not_a_directory label);
    inode
  in
  let resolve1 component =
    match dir_lookup fs ino (dir ()) component with
    | None -> raise (Sp_naming.Context.Unbound (label ^ "/" ^ component))
    | Some e ->
        if e.Dirent.is_dir then Sp_naming.Context.Context (ctx_of fs e.Dirent.ino)
        else begin
          (* Resolving a file is an open: charge the per-layer open-file
             state maintenance the paper's Table 2 measures. *)
          Sp_sim.Simclock.advance (Sp_sim.Cost_model.current ()).open_state_ns;
          Sp_core.File.File (file_of fs e.Dirent.ino)
        end
  in
  let bind1 component obj =
    locked fs @@ fun () ->
    Dirent.check_name component;
    let inode = dir () in
    if dir_lookup fs ino inode component <> None then
      raise (Sp_naming.Context.Already_bound (label ^ "/" ^ component));
    match obj with
    | Sp_core.File.File f ->
        (* Hard link: only files of this very file system can live in its
           directories. *)
        let prefix = fs.name ^ "/ino" in
        let id = f.Sp_core.File.f_id in
        if not (String.length id > String.length prefix
                && String.sub id 0 (String.length prefix) = prefix) then
          invalid_arg (label ^ ": can bind only files of this file system");
        let target =
          int_of_string (String.sub id (String.length prefix)
                           (String.length id - String.length prefix))
        in
        dir_add fs ino inode { Dirent.ino = target; is_dir = false; name = component };
        let tnode = Inode.get fs.icache target in
        tnode.Inode.nlink <- tnode.Inode.nlink + 1;
        Inode.mark_dirty fs.icache target
    | _ -> invalid_arg (label ^ ": disk layer binds only its own files")
  in
  let unbind1 component =
    locked fs @@ fun () ->
    let inode = dir () in
    match dir_lookup fs ino inode component with
    | None -> raise (Sp_naming.Context.Unbound (label ^ "/" ^ component))
    | Some e ->
        if e.Dirent.is_dir then begin
          let child = Inode.get fs.icache e.Dirent.ino in
          if dir_entry_count fs e.Dirent.ino child <> 0 then
            raise (Sp_core.Fserr.Directory_not_empty (label ^ "/" ^ component));
          dir_remove fs ino inode component;
          free_inode fs e.Dirent.ino
        end
        else begin
          dir_remove fs ino inode component;
          let child = Inode.get fs.icache e.Dirent.ino in
          child.Inode.nlink <- child.Inode.nlink - 1;
          Inode.mark_dirty fs.icache e.Dirent.ino;
          if child.Inode.nlink <= 0 then free_inode fs e.Dirent.ino
        end
  in
  let rebind1 component obj =
    locked fs @@ fun () ->
    (match dir_lookup fs ino (dir ()) component with
    | Some _ -> unbind1 component
    | None -> ());
    bind1 component obj
  in
  (* Indexed directories stream straight off the index in file-block
     order (the cookie is the index's own resume position); flat ones
     cursor over the cached listing.  Either way a batch never
     materialises more than [limit] names. *)
  let readdir1 ~cookie ~limit =
    let inode = dir () in
    if dir_indexed fs ino inode then
      Sp_dir.Index.fold_page (dir_io fs ino inode) Sp_dir.Entry.live_name ~cookie ~limit
    else
      Sp_dir.Cursor.of_list
        (List.map (fun e -> e.Dirent.name) (dir_entries_at fs ino inode))
        ~cookie ~limit
  in
  let list () =
    List.sort String.compare
      (Sp_dir.Cursor.drain (fun ~cookie ~limit -> readdir1 ~cookie ~limit))
  in
  {
    Sp_naming.Context.ctx_domain = fs.domain;
    ctx_label = label;
    ctx_acl = (fun () -> Sp_naming.Acl.open_acl);
    ctx_set_acl = (fun _ -> ());
    ctx_resolve1 = resolve1;
    ctx_bind1 = bind1;
    ctx_rebind1 = rebind1;
    ctx_unbind1 = unbind1;
    ctx_list = list;
    ctx_readdir1 = readdir1;
  }

(* ------------------------------------------------------------------ *)
(* Path operations                                                     *)
(* ------------------------------------------------------------------ *)

(* Walk to the parent directory inode of [path]; returns (parent_ino, last). *)
let walk_parent fs path =
  let components = Sp_naming.Sname.components path in
  match List.rev components with
  | [] -> invalid_arg "Disk_layer: empty path"
  | last :: rev_parents ->
      let parents = List.rev rev_parents in
      let step ino component =
        let inode = Inode.get fs.icache ino in
        if inode.Inode.kind <> Inode.Dir then
          raise (Sp_core.Fserr.Not_a_directory component);
        match dir_lookup fs ino inode component with
        | Some e when e.Dirent.is_dir -> e.Dirent.ino
        | Some _ -> raise (Sp_core.Fserr.Not_a_directory component)
        | None -> raise (Sp_core.Fserr.No_such_file component)
      in
      (List.fold_left step 0 parents, last)

let create_at fs path kind =
  locked fs @@ fun () ->
  let parent, name = walk_parent fs path in
  Dirent.check_name name;
  let pnode = Inode.get fs.icache parent in
  if pnode.Inode.kind <> Inode.Dir then raise (Sp_core.Fserr.Not_a_directory name);
  if dir_lookup fs parent pnode name <> None then
    raise (Sp_core.Fserr.Already_exists (Sp_naming.Sname.to_string path));
  let ino, _inode = alloc_inode fs kind in
  dir_add fs parent pnode { Dirent.ino; is_dir = kind = Inode.Dir; name };
  ino

(* ------------------------------------------------------------------ *)
(* Mount / mkfs / creator                                              *)
(* ------------------------------------------------------------------ *)

(* Default journal sizing: an eighth of the device, clamped to what one
   commit header can describe and to a useful minimum. *)
let journal_size ~total_blocks = min 128 (max 9 (total_blocks / 8))

let mkfs ?(journal = false) ?(checksums = true) ?inodes disk =
  let total_blocks = Sp_blockdev.Disk.block_count disk in
  let journal_blocks = if journal then journal_size ~total_blocks else 0 in
  let layout = Layout.compute ~journal_blocks ~checksums ?inodes ~total_blocks () in
  Sp_blockdev.Disk.write disk 0 (Layout.encode_superblock layout);
  (* Zero the bitmaps.  Formatting writes raw: there is nothing to
     recover on a device that was never consistent. *)
  let zero = Bytes.make bs '\000' in
  for i = layout.Layout.inode_bitmap_start
      to layout.Layout.inode_table_start + layout.Layout.inode_table_blocks - 1 do
    Sp_blockdev.Disk.write disk i zero
  done;
  if journal then Journal.init disk ~start:layout.Layout.journal_start;
  let rdev = Journal.raw disk in
  let bbitmap =
    Bitmap.load rdev ~start:layout.Layout.block_bitmap_start
      ~blocks:layout.Layout.block_bitmap_blocks ~bits:layout.Layout.total_blocks
  in
  for i = 0 to layout.Layout.data_start - 1 do
    Bitmap.set bbitmap i
  done;
  Bitmap.flush bbitmap;
  let ibitmap =
    Bitmap.load rdev ~start:layout.Layout.inode_bitmap_start
      ~blocks:layout.Layout.inode_bitmap_blocks ~bits:layout.Layout.inode_count
  in
  Bitmap.set ibitmap 0;
  Bitmap.flush ibitmap;
  let icache = Inode.cache_create rdev layout in
  let now = Sp_sim.Simclock.now () in
  Inode.put icache 0
    {
      Inode.kind = Inode.Dir;
      nlink = 1;
      len = 0;
      atime = now;
      mtime = now;
      ctime = now;
      direct = Array.make Layout.n_direct 0;
      indirect = 0;
      double_indirect = 0;
    };
  Inode.flush icache;
  (* Last: the region must record what the metadata blocks above ended up
     holding.  Formatting writes raw, like everything else in mkfs. *)
  Csum.format disk layout

let mount ?(node = "local") ?domain ?(dir_index = true) ?(group_commit = true)
    ~name disk =
  let layout = Layout.decode_superblock (Sp_blockdev.Disk.read disk 0) in
  let domain =
    match domain with Some d -> d | None -> Sp_obj.Sdomain.create ~node name
  in
  (* Attaching the journal replays any sealed-but-unapplied transaction:
     mounting IS crash recovery.  The checksum region loads afterwards so
     it sees the replayed state (region blocks are journaled alongside
     the data they describe). *)
  let journal =
    if layout.Layout.journal_blocks > 0 then
      Some
        (Journal.attach disk ~start:layout.Layout.journal_start
           ~blocks:layout.Layout.journal_blocks)
    else None
  in
  let csum = Csum.attach disk layout in
  let dev = Journal.make ?journal ?csum disk in
  (* Incarnation fence: a fiber suspended inside this mount (a device
     charge is a suspension point) whose domain has since been killed
     must die instead of resuming its I/O — a supervisor may already
     have remounted the same disk and replayed the journal, and a
     zombie's raw writes would tear the successor's blocks behind its
     checksums.  One field read when the domain is alive. *)
  Journal.fence dev (fun () ->
      if not (Sp_obj.Sdomain.alive domain) then
        raise (Sp_obj.Sdomain.Dead_domain (Sp_obj.Sdomain.name domain)));
  let fs =
    {
      name;
      disk;
      dev;
      layout;
      domain;
      icache = Inode.cache_create dev layout;
      ibitmap =
        Bitmap.load dev ~start:layout.Layout.inode_bitmap_start
          ~blocks:layout.Layout.inode_bitmap_blocks ~bits:layout.Layout.inode_count;
      bbitmap =
        Bitmap.load dev ~start:layout.Layout.block_bitmap_start
          ~blocks:layout.Layout.block_bitmap_blocks ~bits:layout.Layout.total_blocks;
      channels = Sp_vm.Pager_lib.create ();
      files = Hashtbl.create 32;
      ctxs = Hashtbl.create 8;
      dcache = Hashtbl.create 8;
      dirblk = Itbl.create 8;
      indcache = Hashtbl.create 8;
      dir_index;
      lock = Sp_sched.Mutex.create ("sfs:" ^ name);
      group_commit;
      gc = None;
    }
  in
  {
    Sp_core.Stackable.sfs_name = name;
    sfs_type = "sfs_disk";
    sfs_domain = domain;
    sfs_ctx = ctx_of fs 0;
    sfs_stack_on =
      (fun _ ->
        raise (Sp_core.Stackable.Stack_error (name ^ ": base layers stack on devices")));
    sfs_unders = (fun () -> []);
    sfs_create =
      (fun path ->
        let ino = create_at fs path Inode.File in
        file_of fs ino);
    sfs_mkdir = (fun path -> ignore (create_at fs path Inode.Dir));
    sfs_remove =
      (fun path ->
        locked fs @@ fun () ->
        let parent, name' = walk_parent fs path in
        let ctx = ctx_of fs parent in
        match ctx.Sp_naming.Context.ctx_unbind1 name' with
        | () -> ()
        | exception Sp_naming.Context.Unbound _ ->
            raise (Sp_core.Fserr.No_such_file (Sp_naming.Sname.to_string path)));
    sfs_sync = (fun () -> flush_all fs);
    sfs_drop_caches =
      (fun () ->
        locked fs @@ fun () ->
        flush_all fs;
        (* Channels pin the upper layer's per-file cache state through
           their cache objects; destroying them cascades the eviction. *)
        Sp_vm.Pager_lib.destroy_all fs.channels;
        Hashtbl.reset fs.files;
        Inode.drop fs.icache;
        Hashtbl.reset fs.dcache;
        Itbl.iter (fun _ d -> d.blocks <- [||]) fs.dirblk;
        Itbl.reset fs.dirblk;
        Hashtbl.reset fs.indcache);
    sfs_exten = [ Layer fs ];
  }

let creator ?(node = "local") ?(journal = false) ?(checksums = true) ~get_disk () =
  {
    Sp_core.Stackable.cr_type = "sfs_disk";
    cr_create =
      (fun ~name ->
        let disk = get_disk name in
        (match Layout.decode_superblock (Sp_blockdev.Disk.read disk 0) with
        | _ -> ()
        | exception Sp_core.Fserr.Io_error _ -> mkfs ~journal ~checksums disk);
        mount ~node ~name disk);
  }

(* Standalone crash recovery: replay the journal of an unmounted device.
   [mount] does this implicitly; this entry point exists for tools (fsck,
   the crash sweep) that want the replay count without mounting. *)
let recover disk =
  let layout = Layout.decode_superblock (Sp_blockdev.Disk.read disk 0) in
  if layout.Layout.journal_blocks > 0 then
    Journal.replay disk ~start:layout.Layout.journal_start
  else 0

let journaled sfs = (fs_of sfs).layout.Layout.journal_blocks > 0

let journal_stats sfs =
  match Journal.journal (fs_of sfs).dev with
  | None -> None
  | Some t -> Some (Journal.stats t)

let journal_pending sfs = Journal.pending (fs_of sfs).dev

let free_blocks sfs =
  let fs = fs_of sfs in
  Bitmap.capacity fs.bbitmap - Bitmap.used fs.bbitmap

let free_inodes sfs =
  let fs = fs_of sfs in
  Bitmap.capacity fs.ibitmap - Bitmap.used fs.ibitmap

let cached_inodes sfs = Inode.cached_count (fs_of sfs).icache
let channel_count sfs = Sp_vm.Pager_lib.channel_count (fs_of sfs).channels
