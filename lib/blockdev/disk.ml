let block_size = 4096

type stats = { reads : int; writes : int; seeks : int }

(* A stored block and the FNV-1a fold of its bytes, [unknown] (a fold is
   never negative) until [sum] folds it or [adopt_sum] takes a caller's
   fold of equal bytes.  The slot lives with the block so only
   materialised blocks pay for it. *)
type block = Zero | Block of { data : bytes; mutable sum : int }

let unknown = -1
let fold data = Sp_dir.Hash.fold Sp_dir.Hash.basis data ~off:0 ~len:block_size ~pad:0
let zero_sum = Sp_dir.Hash.fold Sp_dir.Hash.basis Bytes.empty ~off:0 ~len:0 ~pad:block_size

type t = {
  label : string;
  blocks : block array;
      (* lazily materialised: [Zero] reads as zeros.  A million-file
         volume touches a sliver of its address space; a dense array of
         zero blocks would cost gigabytes of host memory up front. *)
  mutable head : int;  (* current head position, block index *)
  mutable reads : int;
  mutable writes : int;
  mutable seeks : int;
  (* Elevator queue (only used under an [Sp_sched] run): the device
     serves one request at a time; concurrent requesters park in the
     first [q_len] slots of the parallel arrays (block, arrival seq,
     waker; unordered) and the releaser picks the next by SCAN order. *)
  mutable q_busy : bool;
  mutable q_len : int;
  mutable q_block : int array;
  mutable q_seqs : int array;
  mutable q_wake : (unit -> unit) array;
  mutable q_seq : int;
  mutable q_epoch : int;
  q_label : string;  (* the wait label, ["disk:" ^ label] *)
}

let nop () = ()

let create ?(label = "disk0") ~blocks () =
  if blocks <= 0 then invalid_arg "Disk.create: blocks must be positive";
  {
    label;
    blocks = Array.make blocks Zero;
    head = 0;
    reads = 0;
    writes = 0;
    seeks = 0;
    q_busy = false;
    q_len = 0;
    q_block = [||];
    q_seqs = [||];
    q_wake = [||];
    q_seq = 0;
    q_epoch = 0;
    q_label = "disk:" ^ label;
  }

let label t = t.label
let block_count t = Array.length t.blocks

let check t n =
  if n < 0 || n >= Array.length t.blocks then
    invalid_arg (Printf.sprintf "Disk %s: block %d out of range" t.label n)

(* The stored bytes of block [n], for a caller about to change them:
   every site that writes stored bytes comes through here, so this is
   where the block's sum is forgotten.  A never-written block gets a
   fresh buffer, zeroed unless the caller is about to write all of it
   ([~whole]). *)
let materialize ?(whole = false) t n =
  match t.blocks.(n) with
  | Block b ->
      b.sum <- unknown;
      b.data
  | Zero ->
      let data = if whole then Bytes.create block_size else Bytes.make block_size '\000' in
      t.blocks.(n) <- Block { data; sum = unknown };
      data

let all_zero data = Sp_dir.Hash.zero_tail data = Bytes.length data

(* Charge the latency of accessing block [n]: a seek (plus rotational delay)
   unless the head is already adjacent, then the media transfer. *)
let charge_raw t n =
  let model = Sp_sim.Cost_model.current () in
  if n <> t.head && n <> t.head + 1 then begin
    t.seeks <- t.seeks + 1;
    Sp_sim.Simclock.advance (model.disk_seek_ns + model.disk_rotate_ns)
  end;
  Sp_sim.Simclock.advance model.disk_per_block_ns;
  t.head <- n

let park t n seq wake =
  let i = t.q_len in
  if i = Array.length t.q_block then begin
    let cap = max 8 (2 * i) in
    let grow a fill = Array.append a (Array.make (cap - i) fill) in
    t.q_block <- grow t.q_block 0;
    t.q_seqs <- grow t.q_seqs 0;
    t.q_wake <- grow t.q_wake nop
  end;
  t.q_block.(i) <- n;
  t.q_seqs.(i) <- seq;
  t.q_wake.(i) <- wake;
  t.q_len <- i + 1

(* Take the device token, queueing behind the current request if the
   device is busy.  A woken waiter receives the token directly from the
   releaser, so [q_busy] stays set across the handoff. *)
let acquire t n =
  if t.q_epoch <> Sp_sched.epoch () then begin
    (* an aborted previous run never released; drop its state *)
    t.q_epoch <- Sp_sched.epoch ();
    t.q_busy <- false;
    Array.fill t.q_wake 0 t.q_len nop;
    t.q_len <- 0
  end;
  if not t.q_busy then t.q_busy <- true
  else begin
    t.q_seq <- t.q_seq + 1;
    let seq = t.q_seq in
    let t0 = Sp_sim.Simclock.now () in
    Sp_sched.suspend ~on:t.q_label (fun wake -> park t n seq wake);
    Sp_sched.note_queue (Sp_sim.Simclock.now () - t0)
  end

(* Whether waiter slot [i] precedes slot [j] in (block, seq) order. *)
let precedes t i j =
  let bi = t.q_block.(i) and bj = t.q_block.(j) in
  bi < bj || (bi = bj && t.q_seqs.(i) < t.q_seqs.(j))

(* SCAN (elevator): prefer the smallest pending block at or past the
   head, wrapping to the smallest overall; FIFO (seq) breaks ties.  One
   pass finds both candidates; the chosen slot is refilled from the
   last, so a release allocates nothing. *)
let release t =
  let len = t.q_len in
  if len = 0 then t.q_busy <- false
  else begin
    let ahead = ref (-1) and lowest = ref 0 in
    for i = 0 to len - 1 do
      if precedes t i !lowest then lowest := i;
      if t.q_block.(i) >= t.head && (!ahead < 0 || precedes t i !ahead) then ahead := i
    done;
    let best = if !ahead >= 0 then !ahead else !lowest in
    let wake = t.q_wake.(best) and last = len - 1 in
    t.q_block.(best) <- t.q_block.(last);
    t.q_seqs.(best) <- t.q_seqs.(last);
    t.q_wake.(best) <- t.q_wake.(last);
    t.q_wake.(last) <- nop;
    t.q_len <- last;
    wake ()
  end

(* Under a scheduler run the whole access (seek + rotate + transfer)
   holds the device; the requester charges its own service time so busy
   attribution stays with the task doing the I/O.  [match ... with
   exception] rather than [Fun.protect]: no closure per access. *)
let charge t n =
  if Sp_sched.in_task () then begin
    acquire t n;
    match charge_raw t n with
    | () -> release t
    | exception e ->
        release t;
        raise e
  end
  else charge_raw t n

(* Flip one bit of the stored block: the rot is persistent — every later
   read of [n] sees the same flipped bit.  The device still acks. *)
let rot_block t n fraction =
  let bit = min ((block_size * 8) - 1) (int_of_float (fraction *. float_of_int (block_size * 8))) in
  let block = materialize t n in
  let byte = bit / 8 in
  Bytes.set block byte (Char.chr (Char.code (Bytes.get block byte) lxor (1 lsl (bit mod 8))))

(* A read's device side: the fault plan, the latency charge and the
   counters, everything but the copy. *)
let access t n =
  check t n;
  (match Sp_fault.consult ~point:"disk.read" ~label:t.label with
  | Sp_fault.Pass -> ()
  | Sp_fault.Fail_io msg ->
      (* The access was attempted: the head moved and time passed, but no
         data came back. *)
      charge t n;
      raise (Sp_core.Fserr.Io_error msg)
  | Sp_fault.Delayed ns -> Sp_sim.Simclock.advance ns
  | Sp_fault.Bit_rot fraction -> rot_block t n fraction
  | Sp_fault.Torn _ | Sp_fault.Torn_crash _ | Sp_fault.Dropped _
  | Sp_fault.Domain_died _ | Sp_fault.Misdirected _ | Sp_fault.Lost_write_ack ->
      (* not meaningful for a read; ignore *)
      ());
  charge t n;
  t.reads <- t.reads + 1;
  Sp_sim.Metrics.incr_disk_reads ()

let read t n =
  access t n;
  match t.blocks.(n) with
  | Block b -> Bytes.copy b.data
  | Zero -> Bytes.make block_size '\000'

let sum t n =
  check t n;
  match t.blocks.(n) with
  | Zero -> zero_sum
  | Block b ->
      if b.sum = unknown then b.sum <- fold b.data;
      b.sum

let read_sum t n =
  access t n;
  sum t n

let adopt_sum t n data sum =
  check t n;
  match t.blocks.(n) with
  | Block b when b.sum = unknown && Bytes.equal b.data data -> b.sum <- sum
  | Block _ | Zero -> ()

(* One block write with a pluggable latency charge: [write] passes the
   elevator-acquiring [charge]; [write_vec] holds the elevator across the
   whole extent and passes bare [charge_raw].  The fault plan is consulted
   per block either way, so a crash-at-every-write sweep sees the same
   injection points whether the blocks went out singly or vectored. *)
let write_with ~charge t n data =
  check t n;
  if Bytes.length data > block_size then
    invalid_arg (Printf.sprintf "Disk %s: write larger than a block" t.label);
  (* Persist only a prefix of [data]; the tail of the block's previous
     contents survives.  This is what makes unjournaled metadata updates
     detectably inconsistent after a crash. *)
  let torn_write fraction =
    charge t n;
    t.writes <- t.writes + 1;
    Sp_sim.Metrics.incr_disk_writes ();
    let len = Bytes.length data in
    let keep = max 0 (min len (int_of_float (fraction *. float_of_int len))) in
    Bytes.blit data 0 (materialize t n) 0 keep
  in
  let store m =
    charge t m;
    t.writes <- t.writes + 1;
    Sp_sim.Metrics.incr_disk_writes ();
    (* Writing zeros to a never-written block (mkfs clearing bitmaps and
       inode tables, [alloc_block]'s clears) leaves it unmaterialised.
       Otherwise each byte of the block is written once: the data, then
       the zero padding after it. *)
    match t.blocks.(m) with
    | Zero when all_zero data -> ()
    | _ ->
        let len = Bytes.length data in
        let block = materialize ~whole:true t m in
        Bytes.blit data 0 block 0 len;
        Bytes.fill block len (block_size - len) '\000'
  in
  match Sp_fault.consult ~point:"disk.write" ~label:t.label with
  | Sp_fault.Fail_io msg ->
      charge t n;
      raise (Sp_core.Fserr.Io_error msg)
  | Sp_fault.Torn fraction -> torn_write fraction
  | Sp_fault.Torn_crash fraction ->
      torn_write fraction;
      raise (Sp_fault.Crash (Printf.sprintf "crash after torn write to %s[%d]" t.label n))
  | Sp_fault.Bit_rot fraction ->
      (* the data rots on its way to the platter *)
      store n;
      rot_block t n fraction
  | Sp_fault.Misdirected fraction ->
      (* the block lands at a wrong LBA; the intended block is untouched *)
      let count = Array.length t.blocks in
      let m = min (count - 1) (int_of_float (fraction *. float_of_int count)) in
      let m = if m = n then (m + 1) mod count else m in
      store m
  | Sp_fault.Lost_write_ack ->
      (* acked and charged, but nothing reaches the media *)
      charge t n;
      t.writes <- t.writes + 1;
      Sp_sim.Metrics.incr_disk_writes ()
  | (Sp_fault.Pass | Sp_fault.Delayed _ | Sp_fault.Dropped _
    | Sp_fault.Domain_died _) as outcome ->
      (match outcome with
      | Sp_fault.Delayed ns -> Sp_sim.Simclock.advance ns
      | _ -> ());
      store n

let write t n data = write_with ~charge t n data

(* Vectored write: the whole extent goes out as one elevator request —
   the device is acquired once, each block then pays only [charge_raw]
   (adjacent blocks skip the seek), and concurrent requesters cannot
   interleave and drag the head away mid-extent.  [check] (the caller's
   incarnation fence) runs before every block, and the fault plan is
   consulted per block, exactly as for N separate [write]s. *)
let write_vec ?(check = fun () -> ()) t writes =
  match writes with
  | [] -> ()
  | (n0, _) :: _ ->
      let go () =
        List.iter
          (fun (n, data) ->
            check ();
            write_with ~charge:(fun t n -> charge_raw t n) t n data)
          writes
      in
      if Sp_sched.in_task () then begin
        acquire t n0;
        match go () with
        | () -> release t
        | exception e ->
            release t;
            raise e
      end
      else go ()

let stats t = { reads = t.reads; writes = t.writes; seeks = t.seeks }

let reset_stats t =
  t.reads <- 0;
  t.writes <- 0;
  t.seeks <- 0
