(* On-disk hash index for large directories — the ext2-htree / UFS
   dirhash analog, over the same 64-byte entries as the flat format.

   The index lives in the directory's own data blocks and is read and
   written through whatever block I/O the caller provides ([io]), so the
   disk layer routes it through its journalled device (index updates
   commit atomically with the entries they cover) while fsck walks the
   raw device with the same code.  Block numbers everywhere below are
   *file-relative* block indices.

   Layout (block size [bs] = 4096):

   - File block 0 is the root.  Its first five bytes — magic "SPH1" then
     an 0xFF flag — cannot occur in a flat directory block (byte 4 of a
     live entry is 0 or 1, and free slots are all-zero), so format
     detection needs only block 0.  Header: buckets, live entry count,
     and [nblocks], the index extent in file blocks.  [nblocks] — not
     the inode length — bounds every scan, which is what lets a rebuild
     switch extents atomically (see below).  After the header: 64
     continuation-block pointers, then 955 root bucket slots.
   - A bucket slot holds the file block of the bucket's head leaf
     (0 = empty bucket).  Buckets beyond the root's 955 live in
     continuation blocks of 1024 slots each, up to 64 blocks: 66 491
     buckets max, far past the 65 536 the growth policy caps at.
   - A leaf block holds 63 entry slots plus a 64-byte trailer: magic
     "SPL1", the same 0xFF flag, a zero byte where an entry would keep
     its name length (a flat decoder sees a free slot), the next leaf in
     the bucket chain, and the owning bucket.  Chains are head-linked:
     a split writes the new leaf then points the bucket slot at it.

   A mutation patches the block [io.read] returned, then writes it:
   nothing is copied, so [io.read] must hand out the buffer [io] keeps
   for that block (a cache block, or a fresh copy).  Data blocks are
   written before the root, and the root is patched only after those
   writes return, so a torn sequence leaves at worst a stale counter,
   never a dangling reference, and a failed data write leaves the
   cached root as it was.  Full rebuilds ([build]) are shadow writes:
   the new continuations and leaves go beyond the current extent, and
   the root — rewritten last — flips lookups and scans to the new extent
   in one block write.  The caller then frees the old blocks. *)

let bs = 4096
let es = Entry.entry_size
let entries_per_leaf = bs / es - 1 (* 63: the last slot is the trailer *)
let trailer_off = entries_per_leaf * es (* 4032 *)
let root_slots = (bs - 276) / 4 (* 955 *)
let cont_slots = bs / 4 (* 1024 *)
let max_conts = 64
let max_buckets = root_slots + (max_conts * cont_slots)
let magic_root = "SPH1"
let magic_leaf = "SPL1"

(* Growth policy.  A flat directory upgrades once it crosses
   [upgrade_threshold] entries; an index is rebuilt with
   [target_buckets] once average bucket population passes
   [grow_load] (leaf chains stay ~1-2 blocks). *)
let upgrade_threshold = 128
let initial_buckets = 16
let grow_load = 64

type io = { read : int -> bytes; write : int -> bytes -> unit }

type header = { buckets : int; entries : int; nblocks : int }

(* Magic + 0xFF flag at [off], compared in place. *)
let marked b off magic =
  Bytes.get b off = magic.[0]
  && Bytes.get b (off + 1) = magic.[1]
  && Bytes.get b (off + 2) = magic.[2]
  && Bytes.get b (off + 3) = magic.[3]
  && Bytes.get_uint8 b (off + 4) = 0xff

let is_index_root b = Bytes.length b >= 8 && marked b 0 magic_root
let is_leaf b = Bytes.length b = bs && marked b trailer_off magic_leaf

let decode_header root =
  if not (is_index_root root) then invalid_arg "Sp_dir.Index: not an index root";
  let get off = Int32.to_int (Bytes.get_int32_le root off) in
  { buckets = get 8; entries = get 12; nblocks = get 16 }

let set_header root h =
  Bytes.blit_string magic_root 0 root 0 4;
  Bytes.set_uint8 root 4 0xff;
  Bytes.set_uint8 root 5 1 (* version *);
  Bytes.set_int32_le root 8 (Int32.of_int h.buckets);
  Bytes.set_int32_le root 12 (Int32.of_int h.entries);
  Bytes.set_int32_le root 16 (Int32.of_int h.nblocks)

let read_header io = decode_header (io.read 0)

let cont_ptr root j = Int32.to_int (Bytes.get_int32_le root (20 + (j * 4)))
let set_cont_ptr root j v = Bytes.set_int32_le root (20 + (j * 4)) (Int32.of_int v)

(* Bucket slot addressing: slot [b] lives in the root when [b] is below
   [root_slots], else in continuation block [(b - root_slots) / cont_slots]. *)

let slot_get io root b =
  if b < root_slots then Int32.to_int (Bytes.get_int32_le root (276 + (b * 4)))
  else
    let j = (b - root_slots) / cont_slots in
    let cb = cont_ptr root j in
    if cb = 0 then 0
    else
      Int32.to_int
        (Bytes.get_int32_le (io.read cb) ((b - root_slots) mod cont_slots * 4))

(* Point slot [b] at leaf [v].  Root-resident slots are patched into
   [root] (the caller writes the root last); continuation slots are
   patched in their block and written through immediately — a
   continuation block is a data block, so it still precedes the root on
   the device. *)
let slot_set io root b v =
  if b < root_slots then Bytes.set_int32_le root (276 + (b * 4)) (Int32.of_int v)
  else begin
    let j = (b - root_slots) / cont_slots in
    let cb = cont_ptr root j in
    if cb = 0 then invalid_arg "Sp_dir.Index: missing continuation block";
    let cont = io.read cb in
    Bytes.set_int32_le cont ((b - root_slots) mod cont_slots * 4) (Int32.of_int v);
    io.write cb cont
  end

(* Leaf trailer accessors. *)
let leaf_next leaf = Int32.to_int (Bytes.get_int32_le leaf (trailer_off + 8))
let leaf_bucket leaf = Int32.to_int (Bytes.get_int32_le leaf (trailer_off + 12))

let set_trailer leaf ~next ~bucket =
  Bytes.blit_string magic_leaf 0 leaf trailer_off 4;
  Bytes.set_uint8 leaf (trailer_off + 4) 0xff;
  Bytes.set_int32_le leaf (trailer_off + 8) (Int32.of_int next);
  Bytes.set_int32_le leaf (trailer_off + 12) (Int32.of_int bucket)

let fresh_leaf ~next ~bucket =
  let leaf = Bytes.make bs '\000' in
  set_trailer leaf ~next ~bucket;
  leaf

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Slot of [name] in [leaf] at or after [s], or -1; compares in place. *)
let rec find_slot leaf name s =
  if s >= entries_per_leaf then -1
  else if Entry.name_equal leaf (s * es) name then s
  else find_slot leaf name (s + 1)

let rec free_slot_in leaf s =
  if s >= entries_per_leaf then -1
  else if Entry.is_free leaf (s * es) then s
  else free_slot_in leaf (s + 1)

(* Walk [name]'s bucket chain from leaf [fb] (at most [limit] steps, so
   a cyclic chain on a damaged image terminates); [k leaf fb s] on the
   first leaf holding [name] at slot [s], [absent] if none does. *)
let rec walk_chain io name fb steps limit ~absent k =
  if fb = 0 || steps > limit then absent
  else
    let leaf = io.read fb in
    if not (is_leaf leaf) then absent
    else
      let s = find_slot leaf name 0 in
      if s >= 0 then k leaf fb s
      else walk_chain io name (leaf_next leaf) (steps + 1) limit ~absent k

let found leaf _fb s = Entry.decode leaf (s * es)

let lookup io name =
  let root = io.read 0 in
  let h = decode_header root in
  let b = Hash.bucket name ~buckets:h.buckets in
  walk_chain io name (slot_get io root b) 0 h.nblocks ~absent:None found

(* [f leaf off] of each live slot in file-block order; the cookie is
   [fblock * 64 + slot].  Non-leaf blocks inside the extent (the root,
   continuation blocks, holes left by rebuilds) are skipped by their
   trailer. *)
let fold_page io f ~cookie ~limit =
  if limit <= 0 then invalid_arg "Sp_dir.Index.fold_page: limit must be positive";
  let h = read_header io in
  let acc = ref [] in
  let count = ref 0 in
  let resume = ref None in
  let fb0 = max 1 (cookie / 64) in
  (try
     let fb = ref fb0 in
     let s0 = ref (if cookie / 64 = 0 then 0 else cookie mod 64) in
     while !fb < h.nblocks do
       let leaf = io.read !fb in
       if is_leaf leaf then begin
         let s = ref !s0 in
         while !s < entries_per_leaf do
           if Entry.is_live leaf (!s * es) then begin
             if !count >= limit then begin
               resume := Some ((!fb * 64) + !s);
               raise Exit
             end;
             acc := f leaf (!s * es) :: !acc;
             incr count
           end;
           incr s
         done
       end;
       s0 := 0;
       incr fb
     done
   with Exit -> ());
  (List.rev !acc, !resume)

let iter io f =
  let rec go cookie =
    let page, next = fold_page io Entry.decode_live ~cookie ~limit:256 in
    List.iter f page;
    match next with None -> () | Some c -> go c
  in
  go 0

let entries io = fst (fold_page io Entry.decode_live ~cookie:0 ~limit:max_int)

(* ------------------------------------------------------------------ *)
(* Mutation                                                            *)
(* ------------------------------------------------------------------ *)

(* Insert [e]; the caller has established the name is absent.  Fills a
   free slot in the bucket's head leaf, else splits: a new head leaf
   beyond the extent, chained to the old head. *)
let add io e =
  let root = io.read 0 in
  let h = decode_header root in
  let b = Hash.bucket e.Entry.name ~buckets:h.buckets in
  let head = slot_get io root b in
  let leaf = if head = 0 then Bytes.empty else io.read head in
  let s = if head = 0 then -1 else free_slot_in leaf 0 in
  let nblocks =
    if s >= 0 then begin
      Bytes.blit (Entry.encode e) 0 leaf (s * es) es;
      io.write head leaf;
      h.nblocks
    end
    else begin
      let fb = h.nblocks in
      let fresh = fresh_leaf ~next:head ~bucket:b in
      Bytes.blit (Entry.encode e) 0 fresh 0 es;
      io.write fb fresh;
      slot_set io root b fb;
      fb + 1
    end
  in
  set_header root { h with entries = h.entries + 1; nblocks };
  io.write 0 root

(* Remove [name]; [true] if it was present. *)
let remove io name =
  let root = io.read 0 in
  let h = decode_header root in
  let b = Hash.bucket name ~buckets:h.buckets in
  let free leaf fb s =
    Bytes.blit Entry.free_slot 0 leaf (s * es) es;
    io.write fb leaf;
    true
  in
  if walk_chain io name (slot_get io root b) 0 h.nblocks ~absent:false free then begin
    set_header root { h with entries = h.entries - 1 };
    io.write 0 root;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Build / rebuild                                                     *)
(* ------------------------------------------------------------------ *)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

(* Post-rebuild target: ~32 entries per bucket, so chains sit at one
   leaf with headroom to [grow_load] before the next rebuild. *)
let target_buckets ?(cap = 65536) ~entries () =
  let cap = min cap max_buckets in
  min cap (pow2_at_least (max initial_buckets (entries / 32)) 16)

let grow_due ?(cap = 65536) (h : header) =
  h.entries > h.buckets * grow_load && h.buckets < min cap max_buckets

(* Write a complete index for [entries] with [buckets] buckets, placing
   every new block at file blocks >= [start] except the root (always
   block 0, written last).  Returns the new extent [nblocks].  When
   [start] > 1 this is a shadow rebuild: nothing the old index
   references is touched until the root flips. *)
let build io ~entries:ents ~buckets ~start =
  if buckets < 1 || buckets > max_buckets then
    invalid_arg "Sp_dir.Index.build: bucket count out of range";
  let nconts = if buckets <= root_slots then 0 else (buckets - root_slots + cont_slots - 1) / cont_slots in
  let by_bucket = Array.make buckets [] in
  let count = ref 0 in
  List.iter
    (fun e ->
      let b = Hash.bucket e.Entry.name ~buckets in
      by_bucket.(b) <- e :: by_bucket.(b);
      incr count)
    ents;
  let conts = Array.init nconts (fun _ -> Bytes.make bs '\000') in
  let root = Bytes.make bs '\000' in
  let next_fb = ref (start + nconts) in
  let set_slot b v =
    if b < root_slots then Bytes.set_int32_le root (276 + (b * 4)) (Int32.of_int v)
    else
      Bytes.set_int32_le
        conts.((b - root_slots) / cont_slots)
        ((b - root_slots) mod cont_slots * 4)
        (Int32.of_int v)
  in
  Array.iteri
    (fun b ents ->
      (* Pack the bucket's entries 63 per leaf; each leaf chains to the
         previously written one, so the last written is the head. *)
      let rec write_leaves prev = function
        | [] -> prev
        | ents ->
            let rec take n l acc =
              if n = 0 then (List.rev acc, l)
              else match l with [] -> (List.rev acc, []) | x :: tl -> take (n - 1) tl (x :: acc)
            in
            let page, rest = take entries_per_leaf ents [] in
            let leaf = fresh_leaf ~next:prev ~bucket:b in
            List.iteri (fun i e -> Bytes.blit (Entry.encode e) 0 leaf (i * es) es) page;
            let fb = !next_fb in
            incr next_fb;
            io.write fb leaf;
            write_leaves fb rest
      in
      let head = write_leaves 0 ents in
      if head <> 0 then set_slot b head)
    by_bucket;
  Array.iteri (fun j cont -> io.write (start + j) cont) conts;
  Array.iteri (fun j _ -> set_cont_ptr root j (start + j)) conts;
  set_header root { buckets; entries = !count; nblocks = !next_fb };
  io.write 0 root;
  !next_fb

(* ------------------------------------------------------------------ *)
(* Offline verification (fsck)                                         *)
(* ------------------------------------------------------------------ *)

type check_report = {
  ck_dangling : int;  (* slots/chains pointing at non-leaf or out-of-extent blocks *)
  ck_mismatch : int;  (* entries (or leaves) filed under the wrong bucket *)
  ck_unreachable : int;  (* live entries in leaves no bucket chain reaches *)
  ck_damaged : int;  (* slots whose name length byte no entry can have *)
  ck_badcount : bool;  (* header entry count disagrees with the chains *)
}

let clean_report =
  { ck_dangling = 0; ck_mismatch = 0; ck_unreachable = 0; ck_damaged = 0; ck_badcount = false }

let leaf_live leaf =
  let n = ref 0 in
  for s = 0 to entries_per_leaf - 1 do
    if Entry.is_live leaf (s * es) then incr n
  done;
  !n

let check io =
  let root = io.read 0 in
  let h = decode_header root in
  let dangling = ref 0 in
  let mismatch = ref 0 in
  let damaged = ref 0 in
  let reached = Hashtbl.create 64 in
  let counted = ref 0 in
  for b = 0 to h.buckets - 1 do
    let rec walk fb =
      if fb <> 0 then
        if fb <= 0 || fb >= h.nblocks || Hashtbl.mem reached fb then incr dangling
        else
          let leaf = io.read fb in
          if not (is_leaf leaf) then incr dangling
          else begin
            Hashtbl.replace reached fb ();
            if leaf_bucket leaf <> b then incr mismatch;
            for s = 0 to entries_per_leaf - 1 do
              match Entry.decode leaf (s * es) with
              | Some e ->
                  incr counted;
                  if Hash.bucket e.Entry.name ~buckets:h.buckets <> b then incr mismatch
              | None -> if Entry.damaged leaf (s * es) then incr damaged
            done;
            walk (leaf_next leaf)
          end
    in
    walk (slot_get io root b)
  done;
  let unreachable = ref 0 in
  for fb = 1 to h.nblocks - 1 do
    if not (Hashtbl.mem reached fb) then begin
      let b = io.read fb in
      if is_leaf b then unreachable := !unreachable + leaf_live b
    end
  done;
  {
    ck_dangling = !dangling;
    ck_mismatch = !mismatch;
    ck_unreachable = !unreachable;
    ck_damaged = !damaged;
    ck_badcount = !counted <> h.entries;
  }
