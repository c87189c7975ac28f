let bs = Sp_blockdev.Disk.block_size

(* FNV-1a folded to 32 bits ([Sp_dir.Hash.fold], the one copy of the
   loop), the fold on the SFS disk format (commit entries and headers in
   the journal too).  Not cryptographic; it only has to make bit rot,
   torn, misdirected and lost writes fail verification. *)
let fold b ~pad = Sp_dir.Hash.fold Sp_dir.Hash.basis b ~off:0 ~len:(Bytes.length b) ~pad
let cksum b = fold b ~pad:0

(* Checksums are taken over the full zero-padded block (Disk.write
   semantics); continue the fold over the implicit zero tail instead of
   allocating a padded copy. *)
let cksum_padded b = fold b ~pad:(bs - Bytes.length b)

(* CPU cost of hashing [len] bytes, in Door.charge_cpu units. *)
let work_units len = len / 64

type t = {
  c_start : int;
  c_blocks : int;
  c_total : int;
  c_journal_start : int;
  c_journal_blocks : int;
  c_images : bytes array;  (* current contents of the checksum region *)
  c_dirty : (int, unit) Hashtbl.t;  (* region-relative indices *)
}

let covers t n =
  n >= 0 && n < t.c_total
  && not (n >= t.c_start && n < t.c_start + t.c_blocks)
  && not (t.c_journal_blocks > 0 && n >= t.c_journal_start && n < t.c_journal_start + t.c_journal_blocks)

let home t n = t.c_start + (n / Layout.csum_entries_per_block)

let stored t n =
  let image = t.c_images.(n / Layout.csum_entries_per_block) in
  Int32.to_int (Bytes.get_int32_le image (n mod Layout.csum_entries_per_block * 4))
  land 0xffffffff

let set t n ck =
  let rel = n / Layout.csum_entries_per_block in
  Bytes.set_int32_le t.c_images.(rel)
    (n mod Layout.csum_entries_per_block * 4)
    (Int32.of_int ck);
  Hashtbl.replace t.c_dirty rel ()

let record t n data =
  if covers t n then begin
    Sp_obj.Door.charge_cpu (work_units (Bytes.length data));
    let ck = cksum_padded data in
    set t n ck;
    ck
  end
  else cksum_padded data

(* [sum] is the device's fold of the block ([Disk.sum]): the bytes are
   not folded again, but the verification still charges a fold's CPU, so
   simulated time does not depend on which side of the device did it. *)
let matches t n sum =
  (not (covers t n))
  ||
  (Sp_obj.Door.charge_cpu (work_units bs);
   sum = stored t n)

let check t ~label n sum =
  if not (matches t n sum) then begin
    Sp_sim.Metrics.incr_checksum_failures ();
    if Sp_trace.enabled () then
      Sp_trace.instant ~name:"checksum:mismatch"
        ~args:[ ("disk", label); ("block", string_of_int n) ]
        ();
    raise
      (Sp_core.Fserr.Checksum_error
         (Printf.sprintf "%s[%d]: stored checksum does not match block contents" label n))
  end

let dirty t =
  Hashtbl.fold (fun rel () acc -> (t.c_start + rel) :: acc) t.c_dirty []
  |> List.sort compare

let image t cb = Bytes.copy t.c_images.(cb - t.c_start)
let clear_dirty t = Hashtbl.reset t.c_dirty

let make (layout : Layout.t) =
  {
    c_start = layout.csum_start;
    c_blocks = layout.csum_blocks;
    c_total = layout.total_blocks;
    c_journal_start = layout.journal_start;
    c_journal_blocks = layout.journal_blocks;
    c_images = Array.init layout.csum_blocks (fun _ -> Bytes.make bs '\000');
    c_dirty = Hashtbl.create 16;
  }

let attach disk (layout : Layout.t) =
  if layout.csum_blocks = 0 then None
  else begin
    let t = make layout in
    for i = 0 to t.c_blocks - 1 do
      t.c_images.(i) <- Sp_blockdev.Disk.read disk (t.c_start + i)
    done;
    Some t
  end

let format disk (layout : Layout.t) =
  if layout.csum_blocks > 0 then begin
    let t = make layout in
    (* Fresh devices are zero-filled, so every covered block starts with
       the zero-block checksum; then re-record the metadata blocks mkfs
       actually wrote (superblock, bitmaps, inode table, journal header
       live below data_start). *)
    let zero_ck = cksum (Bytes.make bs '\000') in
    for n = 0 to t.c_total - 1 do
      if covers t n then set t n zero_ck
    done;
    for n = 0 to layout.data_start - 1 do
      if covers t n then set t n (cksum (Sp_blockdev.Disk.read disk n))
    done;
    for i = 0 to t.c_blocks - 1 do
      Sp_blockdev.Disk.write disk (t.c_start + i) t.c_images.(i)
    done
  end
