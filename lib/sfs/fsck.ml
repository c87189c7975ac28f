let bs = Sp_blockdev.Disk.block_size

type problem =
  | Unreachable_inode of int
  | Free_inode_referenced of int * string
  | Bad_kind of int * string
  | Block_out_of_range of int * int
  | Block_double_use of int
  | Block_not_allocated of int
  | Block_leak of int
  | Bad_nlink of int * int * int
  | Checksum_mismatch of int
  | Dir_index of int * string

let pp_problem ppf = function
  | Unreachable_inode i -> Format.fprintf ppf "inode %d allocated but unreachable" i
  | Free_inode_referenced (i, name) ->
      Format.fprintf ppf "entry %S references free inode %d" name i
  | Bad_kind (i, name) -> Format.fprintf ppf "entry %S kind disagrees with inode %d" name i
  | Block_out_of_range (ino, b) ->
      Format.fprintf ppf "inode %d points at out-of-range block %d" ino b
  | Block_double_use b -> Format.fprintf ppf "block %d referenced twice" b
  | Block_not_allocated b -> Format.fprintf ppf "block %d referenced but free" b
  | Block_leak b -> Format.fprintf ppf "block %d allocated but unreferenced" b
  | Bad_nlink (i, expected, stored) ->
      Format.fprintf ppf "inode %d link count %d, directories reference it %d times"
        i stored expected
  | Checksum_mismatch b ->
      Format.fprintf ppf "block %d does not match its recorded checksum" b
  | Dir_index (ino, what) ->
      Format.fprintf ppf "inode %d directory index: %s" ino what

let summary = function
  | [] -> None
  | p :: rest ->
      Some
        (Format.asprintf "%a%s" pp_problem p
           (if rest = [] then "" else Printf.sprintf " (+%d more)" (List.length rest)))

(* The checker reads the device directly; it never goes through a mount. *)
let check ?(verify_checksums = false) disk =
  let layout = Layout.decode_superblock (Sp_blockdev.Disk.read disk 0) in
  let problems = ref [] in
  let report p = problems := p :: !problems in
  let rdev = Journal.raw disk in
  let ibitmap =
    Bitmap.load rdev ~start:layout.Layout.inode_bitmap_start
      ~blocks:layout.Layout.inode_bitmap_blocks ~bits:layout.Layout.inode_count
  in
  let bbitmap =
    Bitmap.load rdev ~start:layout.Layout.block_bitmap_start
      ~blocks:layout.Layout.block_bitmap_blocks ~bits:layout.Layout.total_blocks
  in
  let read_inode ino =
    let block =
      Sp_blockdev.Disk.read disk
        (layout.Layout.inode_table_start + (ino / Layout.inodes_per_block))
    in
    Inode.decode
      (Bytes.sub block (ino mod Layout.inodes_per_block * Layout.inode_size)
         Layout.inode_size)
  in
  (* Ownership map: block -> owning inode. *)
  let owners : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let claim ino b =
    if b <> 0 then
      if b < layout.Layout.data_start || b >= layout.Layout.total_blocks then
        report (Block_out_of_range (ino, b))
      else if Hashtbl.mem owners b then report (Block_double_use b)
      else begin
        Hashtbl.replace owners b ino;
        if not (Bitmap.is_set bbitmap b) then report (Block_not_allocated b)
      end
  in
  let claim_tree ino (inode : Inode.t) =
    Array.iter (claim ino) inode.Inode.direct;
    if inode.Inode.indirect <> 0 then begin
      claim ino inode.Inode.indirect;
      let table = Sp_blockdev.Disk.read disk inode.Inode.indirect in
      for i = 0 to Layout.ptrs_per_block - 1 do
        claim ino (Int32.to_int (Bytes.get_int32_le table (i * 4)))
      done
    end;
    if inode.Inode.double_indirect <> 0 then begin
      claim ino inode.Inode.double_indirect;
      let l1 = Sp_blockdev.Disk.read disk inode.Inode.double_indirect in
      for i = 0 to Layout.ptrs_per_block - 1 do
        let l2b = Int32.to_int (Bytes.get_int32_le l1 (i * 4)) in
        if l2b <> 0 then begin
          claim ino l2b;
          let l2 = Sp_blockdev.Disk.read disk l2b in
          for j = 0 to Layout.ptrs_per_block - 1 do
            claim ino (Int32.to_int (Bytes.get_int32_le l2 (j * 4)))
          done
        end
      done
    end
  in
  (* Read a file range straight from the block tree (for directory data). *)
  let read_range (inode : Inode.t) len =
    let out = Bytes.make len '\000' in
    let rec go cursor =
      if cursor < len then begin
        let n = min (len - cursor) (bs - (cursor mod bs)) in
        let file_block = cursor / bs in
        let b =
          if file_block < Layout.n_direct then inode.Inode.direct.(file_block)
          else if inode.Inode.indirect <> 0
                  && file_block - Layout.n_direct < Layout.ptrs_per_block then
            Int32.to_int
              (Bytes.get_int32_le
                 (Sp_blockdev.Disk.read disk inode.Inode.indirect)
                 ((file_block - Layout.n_direct) * 4))
          else 0
        in
        if b <> 0 then
          Bytes.blit (Sp_blockdev.Disk.read disk b) (cursor mod bs) out cursor n;
        go (cursor + n)
      end
    in
    go 0;
    out
  in
  (* File-block -> disk-block mapping (holes read as zeros).  Indexed
     directories can spill into the double-indirect tree, which
     [read_range] does not reach. *)
  let file_block (inode : Inode.t) fb =
    if fb < Layout.n_direct then inode.Inode.direct.(fb)
    else
      let fb = fb - Layout.n_direct in
      if fb < Layout.ptrs_per_block then
        if inode.Inode.indirect = 0 then 0
        else
          Int32.to_int
            (Bytes.get_int32_le
               (Sp_blockdev.Disk.read disk inode.Inode.indirect) (fb * 4))
      else
        let fb = fb - Layout.ptrs_per_block in
        if inode.Inode.double_indirect = 0 then 0
        else
          let l1 = Sp_blockdev.Disk.read disk inode.Inode.double_indirect in
          let l2b =
            Int32.to_int (Bytes.get_int32_le l1 (fb / Layout.ptrs_per_block * 4))
          in
          if l2b = 0 then 0
          else
            Int32.to_int
              (Bytes.get_int32_le (Sp_blockdev.Disk.read disk l2b)
                 (fb mod Layout.ptrs_per_block * 4))
  in
  let dir_io inode =
    {
      Sp_dir.Index.read =
        (fun fb ->
          let b = file_block inode fb in
          if b = 0 then Bytes.make bs '\000' else Sp_blockdev.Disk.read disk b);
      write = (fun _ _ -> invalid_arg "fsck: directory index is read-only");
    }
  in
  (* Walk the directory graph from the root. *)
  let reachable : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* ino -> reference count *)
  let bump ino =
    Hashtbl.replace reachable ino
      (1 + Option.value (Hashtbl.find_opt reachable ino) ~default:0)
  in
  let rec walk_dir ino =
    let inode = read_inode ino in
    claim_tree ino inode;
    let check_entry (e : Dirent.t) =
      if e.Dirent.ino < 0 || e.Dirent.ino >= layout.Layout.inode_count then
        report (Free_inode_referenced (e.Dirent.ino, e.Dirent.name))
      else if not (Bitmap.is_set ibitmap e.Dirent.ino) then
        report (Free_inode_referenced (e.Dirent.ino, e.Dirent.name))
      else begin
        let child = read_inode e.Dirent.ino in
        let kind_ok =
          match child.Inode.kind with
          | Inode.Dir -> e.Dirent.is_dir
          | Inode.File -> not e.Dirent.is_dir
          | Inode.Free -> false
        in
        if not kind_ok then report (Bad_kind (e.Dirent.ino, e.Dirent.name));
        let first_visit = not (Hashtbl.mem reachable e.Dirent.ino) in
        bump e.Dirent.ino;
        if e.Dirent.is_dir && first_visit then walk_dir e.Dirent.ino
        else if (not e.Dirent.is_dir) && first_visit then
          claim_tree e.Dirent.ino child
      end
    in
    let io = dir_io inode in
    if inode.Inode.len >= bs && Sp_dir.Index.is_index_root (io.Sp_dir.Index.read 0)
    then begin
      (* Indexed directory: verify the index structure, then walk its
         entries leaf by leaf (never materialising the whole listing). *)
      let r = Sp_dir.Index.check io in
      if r.Sp_dir.Index.ck_dangling > 0 then
        report
          (Dir_index
             (ino, Printf.sprintf "%d dangling slot(s)" r.Sp_dir.Index.ck_dangling));
      if r.Sp_dir.Index.ck_mismatch > 0 then
        report
          (Dir_index
             ( ino,
               Printf.sprintf "%d entr(ies) in the wrong bucket"
                 r.Sp_dir.Index.ck_mismatch ));
      if r.Sp_dir.Index.ck_unreachable > 0 then
        report
          (Dir_index
             ( ino,
               Printf.sprintf "%d unreachable entr(ies)"
                 r.Sp_dir.Index.ck_unreachable ));
      if r.Sp_dir.Index.ck_damaged > 0 then
        report
          (Dir_index
             ( ino,
               Printf.sprintf "%d slot(s) with a damaged name length"
                 r.Sp_dir.Index.ck_damaged ));
      if r.Sp_dir.Index.ck_badcount then
        report (Dir_index (ino, "header entry count disagrees with leaves"));
      Sp_dir.Index.iter io check_entry
    end
    else begin
      let data = read_range inode inode.Inode.len in
      let rec entries off =
        if off + Dirent.entry_size <= Bytes.length data then begin
          (match Dirent.decode data off with
          | None -> ()
          | Some e -> check_entry e);
          entries (off + Dirent.entry_size)
        end
      in
      entries 0
    end
  in
  bump 0;
  walk_dir 0;
  (* Inode bitmap vs reachability, and link counts. *)
  for ino = 0 to layout.Layout.inode_count - 1 do
    let refs = Option.value (Hashtbl.find_opt reachable ino) ~default:0 in
    if Bitmap.is_set ibitmap ino && refs = 0 then report (Unreachable_inode ino);
    if Bitmap.is_set ibitmap ino && refs > 0 && ino <> 0 then begin
      let inode = read_inode ino in
      if inode.Inode.nlink <> refs then report (Bad_nlink (ino, refs, inode.Inode.nlink))
    end
  done;
  (* Block bitmap vs claims. *)
  for b = layout.Layout.data_start to layout.Layout.total_blocks - 1 do
    if Bitmap.is_set bbitmap b && not (Hashtbl.mem owners b) then
      report (Block_leak b)
  done;
  (* Checksum region vs block contents: metadata plus every allocated,
     referenced data block.  Unreferenced free blocks may legitimately
     hold stale data from before a truncate — skip them. *)
  (if verify_checksums then
     match Csum.attach disk layout with
     | None -> ()
     | Some c ->
         for b = 0 to layout.Layout.total_blocks - 1 do
           let in_use =
             b < layout.Layout.data_start || Hashtbl.mem owners b
           in
           if in_use && Csum.covers c b
              && not (Csum.matches c b (Sp_blockdev.Disk.read_sum disk b))
           then report (Checksum_mismatch b)
         done);
  List.rev !problems
