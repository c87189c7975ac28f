let block_size = Sp_blockdev.Disk.block_size
let inode_size = 256
let inodes_per_block = block_size / inode_size
let n_direct = 12
let ptrs_per_block = block_size / 4
let bits_per_block = block_size * 8
let magic = 0x5350_4653l (* "SPFS" *)
let version = 1l

type t = {
  total_blocks : int;
  inode_count : int;
  inode_bitmap_start : int;
  inode_bitmap_blocks : int;
  block_bitmap_start : int;
  block_bitmap_blocks : int;
  inode_table_start : int;
  inode_table_blocks : int;
  csum_start : int;
  csum_blocks : int;
  journal_start : int;
  journal_blocks : int;
  data_start : int;
}

let div_ceil a b = (a + b - 1) / b

(* 4-byte checksum per device block. *)
let csum_entries_per_block = block_size / 4

let compute ?(journal_blocks = 0) ?(checksums = false) ?inodes ~total_blocks () =
  if total_blocks < 16 then invalid_arg "Layout.compute: device too small";
  if journal_blocks < 0 || journal_blocks = 1 then
    invalid_arg "Layout.compute: journal needs a header block plus data slots";
  (* One inode per four data-ish blocks by default, at least 16; an
     explicit [inodes] overrides the ratio (the superblock records the
     count, so remounts see the same table). *)
  let inode_count =
    match inodes with Some n -> max 16 n | None -> max 16 (total_blocks / 4)
  in
  let inode_bitmap_blocks = div_ceil inode_count bits_per_block in
  let block_bitmap_blocks = div_ceil total_blocks bits_per_block in
  let inode_table_blocks = div_ceil inode_count inodes_per_block in
  let inode_bitmap_start = 1 in
  let block_bitmap_start = inode_bitmap_start + inode_bitmap_blocks in
  let inode_table_start = block_bitmap_start + block_bitmap_blocks in
  (* The checksum region and the journal sit between the metadata region
     and the data region, so everything below [data_start] — journal and
     checksums included — is born allocated in the block bitmap and
     invisible to Fsck's data scan. *)
  let csum_start = inode_table_start + inode_table_blocks in
  let csum_blocks =
    if checksums then div_ceil total_blocks csum_entries_per_block else 0
  in
  let journal_start = csum_start + csum_blocks in
  let data_start = journal_start + journal_blocks in
  if data_start >= total_blocks then
    invalid_arg "Layout.compute: no room for data blocks";
  {
    total_blocks;
    inode_count;
    inode_bitmap_start;
    inode_bitmap_blocks;
    block_bitmap_start;
    block_bitmap_blocks;
    inode_table_start;
    inode_table_blocks;
    csum_start;
    csum_blocks;
    journal_start;
    journal_blocks;
    data_start;
  }

let encode_superblock t =
  let b = Bytes.make block_size '\000' in
  let put i v = Bytes.set_int32_le b (i * 4) (Int32.of_int v) in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 version;
  put 2 t.total_blocks;
  put 3 t.inode_count;
  put 4 t.inode_bitmap_start;
  put 5 t.inode_bitmap_blocks;
  put 6 t.block_bitmap_start;
  put 7 t.block_bitmap_blocks;
  put 8 t.inode_table_start;
  put 9 t.inode_table_blocks;
  put 10 t.data_start;
  put 11 t.journal_start;
  put 12 t.journal_blocks;
  put 13 t.csum_start;
  put 14 t.csum_blocks;
  b

let decode_superblock b =
  if Bytes.length b < block_size then raise (Sp_core.Fserr.Io_error "short superblock");
  if Bytes.get_int32_le b 0 <> magic then
    raise (Sp_core.Fserr.Io_error "bad superblock magic");
  if Bytes.get_int32_le b 4 <> version then
    raise (Sp_core.Fserr.Io_error "unsupported superblock version");
  let get i = Int32.to_int (Bytes.get_int32_le b (i * 4)) in
  {
    total_blocks = get 2;
    inode_count = get 3;
    inode_bitmap_start = get 4;
    inode_bitmap_blocks = get 5;
    block_bitmap_start = get 6;
    block_bitmap_blocks = get 7;
    inode_table_start = get 8;
    inode_table_blocks = get 9;
    (* Words 11/12 decode as zero on images formatted before journaling
       existed: journal_blocks = 0 means "no journal", so the version
       number did not need to change.  Words 13/14 do the same for the
       checksum region: csum_blocks = 0 means "no checksums". *)
    journal_start = get 11;
    journal_blocks = get 12;
    csum_start = get 13;
    csum_blocks = get 14;
    data_start = get 10;
  }
