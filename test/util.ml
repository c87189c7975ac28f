(* Shared helpers for the test suites. *)

(* Run [f] in a clean simulated world: fresh clock, metrics, fast cost
   model (tests assert on event counts, not simulated time, unless they
   install a model themselves). *)
let in_world ?(model = Sp_sim.Cost_model.fast) f =
  Sp_sim.Simclock.reset ();
  Sp_sim.Metrics.reset ();
  Sp_sim.Cost_model.with_model model f

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

let check_str msg expected actual =
  Alcotest.(check string) msg expected (Bytes.to_string actual)

let bytes_of_string = Bytes.of_string

(* Deterministic pseudo-random bytes (avoid stdlib Random to keep suites
   reproducible regardless of seeding). *)
let pattern_bytes ?(seed = 1) n =
  let b = Bytes.create n in
  let state = ref seed in
  for i = 0 to n - 1 do
    state := (!state * 1103515245) + 12345;
    Bytes.set b i (Char.chr ((!state lsr 16) land 0xff))
  done;
  b

let name = Sp_naming.Sname.of_string

(* A formatted disk of [blocks] blocks (default 2048 = 8 MB). *)
let fresh_disk ?(blocks = 2048) ?label () =
  let disk = Sp_blockdev.Disk.create ?label ~blocks () in
  Sp_sfs.Disk_layer.mkfs disk;
  disk

(* FNV-1a-32 of the whole raw device, masked after every byte: a
   reference that does not share the fold under test. *)
let device_digest disk =
  let h = ref 0x811c9dc5 in
  for b = 0 to Sp_blockdev.Disk.block_count disk - 1 do
    Bytes.iter
      (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0xffffffff)
      (Sp_blockdev.Disk.read disk b)
  done;
  !h

(* Minor-heap words [f] allocates per call, averaged over [n] calls.  A
   first pass warms up first-use state (table growth, lazily created
   channels), and the cost of the measuring loop itself — an empty
   loop — is subtracted. *)
let minor_words_per_call ?(n = 1_000) f =
  let measure g =
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      g ()
    done;
    Gc.minor_words () -. w0
  in
  ignore (measure f);
  let base = measure ignore in
  (measure f -. base) /. float_of_int n

(* Heap words [f] allocates per call, minor and major alike (a 4 KiB
   buffer goes straight to the major heap), averaged over [n] calls
   after a warm-up pass, less the measuring loop's own cost.  The minor
   count comes from [Gc.minor_words], which is exact at any point; the
   major count from [Gc.counters], less the words promoted into it. *)
let words_per_call ?(n = 100) f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let measure g =
    let w0 = total () in
    for _ = 1 to n do
      g ()
    done;
    total () -. w0
  in
  ignore (measure f);
  let base = measure ignore in
  (measure f -. base) /. float_of_int n

let qcheck_case ?count name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ?count ~name gen prop)
