(* Shared helpers for the test suites. *)

(* Near-zero costs: simulated time stays close to zero, and every price
   a test depends on is 0 or 1. *)
let fast_model =
  {
    Sp_sim.Cost_model.local_call_ns = 0;
    cross_domain_call_ns = 1;
    kernel_call_ns = 0;
    page_fault_ns = 0;
    copy_per_byte_ns = 0;
    cpu_op_ns = 0;
    open_state_ns = 0;
    disk_seek_ns = 1;
    disk_rotate_ns = 1;
    disk_per_block_ns = 1;
    net_rtt_ns = 1;
    net_per_byte_ns = 0;
    (* bulk_call_ns must equal cross_domain_call_ns and bulk_setup_ns must
       be zero so the bulk path leaves fast-model totals unchanged;
       readahead_max_pages = 0 keeps adaptive read-ahead windowless so
       tests see deterministic page-in counts. *)
    bulk_setup_ns = 0;
    bulk_call_ns = 1;
    readahead_max_pages = 0;
    (* commit_delay_ns = 0 keeps the group-commit leader from sleeping, so
       fast-model tests see deterministic single-task sync behaviour. *)
    commit_delay_ns = 0;
  }

(* Run [f] in a clean simulated world: fresh clock, metrics, fast cost
   model (tests assert on event counts, not simulated time, unless they
   install a model themselves). *)
let in_world ?(model = fast_model) f =
  Sp_sim.Simclock.reset ();
  Sp_sim.Metrics.reset ();
  Sp_sim.Cost_model.with_model model f

(* The counters moved since the snapshot [before]. *)
let metrics_since before =
  Sp_sim.Metrics.diff ~before ~after:(Sp_sim.Metrics.snapshot ())

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

(* The springfs CLI, found from this test binary and not from the
   current directory: [_build/default/test/main.exe] runs
   [_build/default/bin/springfs.exe] from wherever it is started. *)
let springfs_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "springfs.exe")

(* Run the CLI with [args]; returns the exit code, stdout and stderr. *)
let run_springfs args =
  let out = Filename.temp_file "springfs" ".out" in
  let err = Filename.temp_file "springfs" ".err" in
  let code =
    Sys.command (Filename.quote_command springfs_exe args ~stdout:out ~stderr:err)
  in
  let slurp file =
    let ic = open_in file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove file;
    text
  in
  (code, slurp out, slurp err)
