let bs = Sp_blockdev.Disk.block_size
let magic = 0x53504a4cl (* "SPJL" *)
let header_bytes = 24 (* magic, state, seq, count, cksum *)
let entry_bytes = 8 (* target block, data checksum *)
let max_entries = (bs - header_bytes) / entry_bytes

type t = {
  disk : Sp_blockdev.Disk.t;
  start : int;
  blocks : int;
  dirty : (int, bytes) Hashtbl.t;
  mutable order : int list;  (* newest first *)
  mutable seq : int;
  mutable commits : int;
  mutable journal_writes : int;
  mutable group_commits : int;  (* leader-run commits under a group window *)
  mutable absorbed : int;  (* syncs that rode a leader's commit *)
  replayed : int;
}

type dev = {
  d_disk : Sp_blockdev.Disk.t;
  d_journal : t option;
  d_csum : Csum.t option;
  (* Incarnation fence (see {!fence}): consulted before every device
     write so a fiber of a killed mount cannot keep mutating the raw
     disk behind a remounted, journal-replayed successor. *)
  mutable d_fence : unit -> unit;
}

(* Header block: word 0 magic, word 1 state (0 clean / 1 committed),
   words 2-3 seq, word 4 count, word 5 checksum (computed with the field
   zeroed, over the header words and the entry table). *)
let encode_header ~state ~seq ~entries =
  let b = Bytes.make bs '\000' in
  Bytes.set_int32_le b 0 magic;
  Bytes.set_int32_le b 4 (Int32.of_int state);
  Bytes.set_int64_le b 8 (Int64.of_int seq);
  Bytes.set_int32_le b 16 (Int32.of_int (List.length entries));
  List.iteri
    (fun i (target, data_ck) ->
      Bytes.set_int32_le b (header_bytes + (i * entry_bytes)) (Int32.of_int target);
      Bytes.set_int32_le b (header_bytes + (i * entry_bytes) + 4) (Int32.of_int data_ck))
    entries;
  let covered = header_bytes + (List.length entries * entry_bytes) in
  let ck = Sp_dir.Hash.fold Sp_dir.Hash.basis b ~off:0 ~len:covered ~pad:0 in
  Bytes.set_int32_le b 20 (Int32.of_int ck);
  b

(* Returns (state, seq, entries) or None for anything unformatted, torn
   or otherwise unverifiable. *)
let decode_header b =
  if Bytes.length b < bs || Bytes.get_int32_le b 0 <> magic then None
  else
    let state = Int32.to_int (Bytes.get_int32_le b 4) in
    let seq = Int64.to_int (Bytes.get_int64_le b 8) in
    let count = Int32.to_int (Bytes.get_int32_le b 16) in
    if (state <> 0 && state <> 1) || count < 0 || count > max_entries then None
    else
      let stored_ck = Int32.to_int (Bytes.get_int32_le b 20) in
      (* The checksum field reads as zero: fold [0, 20), four zero bytes,
         then the rest of the header and the entry table. *)
      let ck = Sp_dir.Hash.fold Sp_dir.Hash.basis b ~off:0 ~len:20 ~pad:4 in
      let ck =
        Sp_dir.Hash.fold ck b ~off:24 ~len:(count * entry_bytes) ~pad:0
      in
      if ck <> stored_ck land 0xffffffff then None
      else
        let entries =
          List.init count (fun i ->
              ( Int32.to_int (Bytes.get_int32_le b (header_bytes + (i * entry_bytes))),
                Int32.to_int (Bytes.get_int32_le b (header_bytes + (i * entry_bytes) + 4))
              ))
        in
        Some (state, seq, entries)

let init disk ~start =
  Sp_blockdev.Disk.write disk start (encode_header ~state:0 ~seq:0 ~entries:[])

let replay disk ~start =
  match decode_header (Sp_blockdev.Disk.read disk start) with
  | Some (1, seq, entries) ->
      (* Sealed transaction: verify every journalled block against its
         recorded checksum before touching home locations.  A torn journal
         data block means the seal itself cannot be trusted — treat the
         whole transaction as uncommitted (sound: the sync that wrote it
         never returned to its caller). *)
      let datas =
        List.mapi (fun i (target, ck) ->
            let data = Sp_blockdev.Disk.read disk (start + 1 + i) in
            (* the device's sum of the bytes just read: no suspension
               point lies between the copy and the sum *)
            (target, ck, data, Sp_blockdev.Disk.sum disk (start + 1 + i)))
          entries
      in
      (* Int32 round-trips make high-bit checksums negative; mask the
         entry back to 32 bits before comparing. *)
      if List.for_all (fun (_, ck, _, sum) -> sum = ck land 0xffffffff) datas
      then begin
        List.iter (fun (target, _, data, _) -> Sp_blockdev.Disk.write disk target data) datas;
        Sp_blockdev.Disk.write disk start (encode_header ~state:0 ~seq ~entries:[]);
        List.length datas
      end
      else begin
        Sp_blockdev.Disk.write disk start (encode_header ~state:0 ~seq ~entries:[]);
        0
      end
  | Some (_, _, _) | None -> 0

let attach disk ~start ~blocks =
  if blocks < 2 then invalid_arg "Journal.attach: area too small";
  let replayed = replay disk ~start in
  let seq =
    match decode_header (Sp_blockdev.Disk.read disk start) with
    | Some (_, seq, _) -> seq + 1
    | None -> 1
  in
  {
    disk;
    start;
    blocks;
    dirty = Hashtbl.create 64;
    order = [];
    seq;
    commits = 0;
    journal_writes = 0;
    group_commits = 0;
    absorbed = 0;
    replayed;
  }

let raw disk =
  { d_disk = disk; d_journal = None; d_csum = None; d_fence = (fun () -> ()) }

let make ?journal ?csum disk =
  { d_disk = disk; d_journal = journal; d_csum = csum; d_fence = (fun () -> ()) }

let fence dev f = dev.d_fence <- f
let journal dev = dev.d_journal
(* Blocks one transaction can hold given the area size passed to
   [attach] (the commit header block is not counted). *)
let capacity t = min max_entries (t.blocks - 1)

let read dev n =
  match dev.d_journal with
  | Some t when Hashtbl.mem t.dirty n ->
      (* Dirty buffered blocks are served from memory: their checksum is
         recorded only at commit, so there is nothing to verify yet. *)
      Bytes.copy (Hashtbl.find t.dirty n)
  | _ ->
      dev.d_fence ();
      let data = Sp_blockdev.Disk.read dev.d_disk n in
      (match dev.d_csum with
      | Some c when Csum.covers c n ->
          (* The device's sum, taken right after [Disk.read] returns: no
             suspension point lies between the copy and the sum, so no
             other task can have changed the stored bytes in between. *)
          Csum.check c ~label:(Sp_blockdev.Disk.label dev.d_disk) n
            (Sp_blockdev.Disk.sum dev.d_disk n)
      | _ -> ());
      data

let write dev n data =
  match dev.d_journal with
  | None -> (
      dev.d_fence ();
      Sp_blockdev.Disk.write dev.d_disk n data;
      match dev.d_csum with
      | Some c when Csum.covers c n ->
          (* Write-through: data first, then the region block holding its
             entry.  A crash between the two leaves a detectable (stale
             checksum) window — raw devs never promised atomicity.  The
             device adopts the recorded sum only if it stored [data]. *)
          Sp_blockdev.Disk.adopt_sum dev.d_disk n data (Csum.record c n data);
          List.iter
            (fun cb ->
              dev.d_fence ();
              Sp_blockdev.Disk.write dev.d_disk cb (Csum.image c cb))
            (Csum.dirty c);
          Csum.clear_dirty c
      | _ -> ())
  | Some t ->
      if n < 0 || n >= Sp_blockdev.Disk.block_count t.disk then
        invalid_arg (Printf.sprintf "Journal.write: block %d out of range" n);
      if Bytes.length data > bs then invalid_arg "Journal.write: larger than a block";
      (* Keep a full block as given — the caller gave it up or owns it
         as a cache block it mutates only under the volume lock, which
         every commit holds (see the .mli).  A short one is zero-padded
         into a block of our own, matching Disk.write semantics. *)
      let block =
        if Bytes.length data = bs then data
        else begin
          let block = Bytes.make bs '\000' in
          Bytes.blit data 0 block 0 (Bytes.length data);
          block
        end
      in
      if not (Hashtbl.mem t.dirty n) then t.order <- n :: t.order;
      Hashtbl.replace t.dirty n block

(* Vectored write: the blocks of one contiguous extent in ascending
   order.  On a journaled dev this only buffers, like [write].  On a raw
   checksummed dev the data blocks go out first — back to back, so the
   head pays one seek plus a contiguous transfer — and the checksum
   region is flushed once for the whole run instead of once per block.
   The detectable stale-checksum crash window of per-block write-through
   now spans the extent rather than one block; raw devs never promised
   atomicity, and fsck/scrub flag the window either way. *)
let write_vec dev writes =
  match dev.d_journal with
  | Some _ -> List.iter (fun (n, data) -> write dev n data) writes
  | None ->
      List.iter
        (fun (n, data) ->
          dev.d_fence ();
          Sp_blockdev.Disk.write dev.d_disk n data)
        writes;
      (match dev.d_csum with
      | Some c ->
          let recorded = ref false in
          List.iter
            (fun (n, data) ->
              if Csum.covers c n then begin
                Sp_blockdev.Disk.adopt_sum dev.d_disk n data (Csum.record c n data);
                recorded := true
              end)
            writes;
          if !recorded then begin
            List.iter
              (fun cb ->
                dev.d_fence ();
                Sp_blockdev.Disk.write dev.d_disk cb (Csum.image c cb))
              (Csum.dirty c);
            Csum.clear_dirty c
          end
      | None -> ())

(* [blocks] are (target, data, checksum of data) triples: the sums are
   taken before the first device write below suspends. *)
let commit_batch ~fence t blocks =
  (* The fence runs before every device write: each device charge is a
     suspension point, and a fiber resumed there after its mount's
     domain died must stop — its successor may already have replayed the
     journal and be writing its own transactions to the same area. *)
  (* 1. Journal data blocks: one vectored elevator request into the
     contiguous journal area — one seek, back-to-back transfers, and no
     concurrent request can drag the head away between blocks. *)
  Sp_blockdev.Disk.write_vec ~check:fence t.disk
    (List.mapi (fun i (_, data, _) -> (t.start + 1 + i, data)) blocks);
  t.journal_writes <- t.journal_writes + List.length blocks;
  (* 2. Seal: checksummed commit header.  The transaction exists on disk
     from this write onward. *)
  let entries = List.map (fun (n, _, ck) -> (n, ck)) blocks in
  fence ();
  Sp_blockdev.Disk.write t.disk t.start (encode_header ~state:1 ~seq:t.seq ~entries);
  t.journal_writes <- t.journal_writes + 1;
  (* 3. Home writes; each block's device adopts the triple's sum if it
     stored the bytes, so a later verified read need not fold them. *)
  List.iter
    (fun (n, data, ck) ->
      fence ();
      Sp_blockdev.Disk.write t.disk n data;
      Sp_blockdev.Disk.adopt_sum t.disk n data ck)
    blocks;
  (* The clean mark is NOT written here: consecutive batches of one
     commit pipeline — the next batch's sealed header (higher seq)
     supersedes this one, and [commit] writes a single clean mark after
     the last batch.  Soundness of the elision: batch k's home writes
     all complete before batch k+1's journal writes begin, so when a
     crash leaves the header sealing batch k while the journal area
     already holds (some of) batch k+1's data, the per-entry checksum
     verification in [replay] fails and the transaction is treated as
     uncommitted — correct, because batch k is already home; an
     accidental checksum match can only re-copy identical bytes. *)
  t.seq <- t.seq + 1;
  t.commits <- t.commits + 1

let commit dev =
  match dev.d_journal with
  | None -> ()
  | Some t ->
      if t.order <> [] then begin
        let cap = capacity t in
        (* Greedy batches that leave room for the batch's checksum-region
           blocks: the entries describing a batch's data commit in the
           same transaction as the data, so crash atomicity covers both
           (per batch, as before). *)
        let rec go = function
          | [] -> ()
          | blocks ->
              let rec take acc csums rest =
                match rest with
                | [] -> (List.rev acc, rest)
                | n :: tl ->
                    let csums' =
                      match dev.d_csum with
                      | Some c when Csum.covers c n ->
                          let cb = Csum.home c n in
                          if List.mem cb csums then csums else cb :: csums
                      | _ -> csums
                    in
                    if List.length acc + 1 + List.length csums' > cap && acc <> [] then
                      (List.rev acc, rest)
                    else take (n :: acc) csums' tl
              in
              let group, rest = take [] [] blocks in
              let folded n data = (n, data, Csum.cksum data) in
              (match dev.d_csum with
              | Some c ->
                  (* A buffered block is always a full block, so the sum
                     [record] folds for the region is also its commit
                     entry: each block is folded once per commit. *)
                  let datas =
                    List.map
                      (fun n ->
                        let data = Hashtbl.find t.dirty n in
                        (n, data, Csum.record c n data))
                      group
                  in
                  let images = List.map (fun cb -> folded cb (Csum.image c cb)) (Csum.dirty c) in
                  Csum.clear_dirty c;
                  commit_batch ~fence:dev.d_fence t (datas @ images)
              | None ->
                  commit_batch ~fence:dev.d_fence t
                    (List.map (fun n -> folded n (Hashtbl.find t.dirty n)) group));
              go rest
        in
        go (List.rev t.order);
        (* One clean mark for the whole commit (clean-marks between
           batches are elided — see [commit_batch]).  Carries the last
           sealed seq so [attach] keeps seq monotonically increasing
           across remounts. *)
        dev.d_fence ();
        Sp_blockdev.Disk.write t.disk t.start
          (encode_header ~state:0 ~seq:(t.seq - 1) ~entries:[]);
        t.journal_writes <- t.journal_writes + 1;
        Hashtbl.reset t.dirty;
        t.order <- []
      end

let pending dev =
  match dev.d_journal with None -> 0 | Some t -> Hashtbl.length t.dirty

(* Group-commit accounting, bumped by the disk layer's sync path: the
   journal only records what happened, the leader/follower protocol
   itself lives in [Disk_layer.flush_all]. *)
let note_group_commit dev =
  match dev.d_journal with
  | None -> ()
  | Some t -> t.group_commits <- t.group_commits + 1

let note_absorbed dev =
  match dev.d_journal with
  | None -> ()
  | Some t -> t.absorbed <- t.absorbed + 1

type stats = {
  js_commits : int;
  js_journal_writes : int;
  js_replayed : int;
  js_group_commits : int;
  js_absorbed_syncs : int;
}

let stats t =
  {
    js_commits = t.commits;
    js_journal_writes = t.journal_writes;
    js_replayed = t.replayed;
    js_group_commits = t.group_commits;
    js_absorbed_syncs = t.absorbed;
  }
