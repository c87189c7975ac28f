(* Silent-corruption sweep: the checksum counterpart of
   [Sp_sfs.Crash_sweep].  Instead of crashing the machine at every device
   write, it injects one silent corruption fault — bit rot, a misdirected
   write, a lost write — at every device I/O of a seeded workload, then
   checks what the system made of it.  The invariant: corrupted bytes are
   never served as good data.  Every point must end detected (a
   [Checksum_error] or other loud failure), repaired (the mirror healed
   it), or absorbed (the damage was overwritten or freed before anyone
   could read it) — a [Silent] outcome, where read-back data differs from
   what was written with no error anywhere, is the failure the checksums
   exist to rule out. *)

module Stackable = Sp_core.Stackable
module Fserr = Sp_core.Fserr
module Disk = Sp_blockdev.Disk
module Disk_layer = Sp_sfs.Disk_layer
module Fsck = Sp_sfs.Fsck
module Files = Sp_sweep.Files

type kind = Bitrot | Misdirected | Lost

type outcome =
  | Absorbed
  | Detected of string
  | Repaired
  | Silent of string

let kind_name = function
  | Bitrot -> "bitrot"
  | Misdirected -> "misdirected"
  | Lost -> "lost"

(* Which device op the fault hooks, and the fault itself. *)
let point_of = function Bitrot -> "disk.read" | Misdirected | Lost -> "disk.write"

let fault_of = function
  | Bitrot -> Sp_fault.Bitrot
  | Misdirected -> Sp_fault.Misdirected_write
  | Lost -> Sp_fault.Lost_write

let disk_blocks = 1024

(* Concurrent runs ([clients > 1]) share one model: each client owns its
   own files, so a name is only ever written by one task.  There is no
   crash here — a run either completes (and the final state must read
   back exactly) or dies loudly, so the serial verification applies
   verbatim.  The workload's reads throw their bytes away: the sweep
   never lets the application "notice" corruption by comparing —
   detection must come from the system (checksums raising, fsck
   flagging), or it does not count. *)
let run_workload files ~clients ~ops ~seed =
  Files.run files ~clients ~reads:true ~sync_every:5 ~ops ~seed

let label ~kind ~checksums ~mirror ~seed =
  Printf.sprintf "corr-%s%c%c%d" (kind_name kind)
    (if checksums then 'c' else 'n')
    (if mirror then 'm' else 's')
    seed

(* A loud failure: the system refused to serve or even mount the damaged
   bytes, or damaged metadata (a lost or misdirected directory write)
   made a workload op fail — exactly the typed storage errors.  Anything
   else escaping is a harness bug, not a detection: [Sp_fault.Crash] (this
   sweep injects no crash faults), [Invalid_argument], [Failure]. *)
let loud = function
  | Fserr.Checksum_error _ | Fserr.Io_error _ | Fserr.No_such_file _
  | Fserr.Already_exists _ | Fserr.Not_a_directory _ | Fserr.Is_directory _
  | Fserr.No_space _ ->
      true
  | _ -> false

type setup = {
  s_disks : Disk.t list;  (* fault target first *)
  s_files : Files.t;  (* the workload, on the volume or the mirror *)
  s_mirror : Stackable.t option;
  s_vmm : Sp_vm.Vmm.t option;
  s_label : string;  (* disk label the fault rule targets *)
}

(* Serial sweeps keep the historical geometry; concurrent ones scale the
   volume so three files per client never hit [No_space] (which is loud
   and would masquerade as detection). *)
let blocks_for clients =
  if clients = 1 then disk_blocks else disk_blocks * (1 + ((clients + 7) / 8))

let setup ~kind ~checksums ~mirror ~clients ~seed =
  let lbl = label ~kind ~checksums ~mirror ~seed in
  let disk_blocks = blocks_for clients in
  if not mirror then begin
    let disk = Disk.create ~label:lbl ~blocks:disk_blocks () in
    Disk_layer.mkfs ~journal:true ~checksums disk;
    let fs = Disk_layer.mount ~name:lbl disk in
    {
      s_disks = [ disk ];
      s_files = Files.create fs;
      s_mirror = None;
      s_vmm = None;
      s_label = lbl;
    }
  end
  else begin
    let disk_a = Disk.create ~label:(lbl ^ "A") ~blocks:disk_blocks () in
    let disk_b = Disk.create ~label:(lbl ^ "B") ~blocks:disk_blocks () in
    Disk_layer.mkfs ~journal:true ~checksums disk_a;
    Disk_layer.mkfs ~journal:true ~checksums disk_b;
    let fs_a = Disk_layer.mount ~name:(lbl ^ "A") disk_a in
    let fs_b = Disk_layer.mount ~name:(lbl ^ "B") disk_b in
    let vmm = Sp_vm.Vmm.create ~node:"local" (lbl ^ "-vmm") in
    let m = Sp_mirrorfs.Mirrorfs.make ~vmm ~name:(lbl ^ "-m") () in
    Stackable.stack_on m fs_a;
    Stackable.stack_on m fs_b;
    {
      s_disks = [ disk_a; disk_b ];
      s_files = Files.create m;
      s_mirror = Some m;
      s_vmm = Some vmm;
      s_label = lbl ^ "A";  (* corruption always strikes the primary twin *)
    }
  end

(* Device I/Os of the faulted kind the workload performs — the number of
   injection points a sweep visits. *)
let workload_io ?(checksums = true) ?(mirror = false) ?(clients = 1) ~kind ~ops
    ~seed () =
  if clients < 1 then invalid_arg "Corruption_sweep: clients must be >= 1";
  let s = setup ~kind ~checksums ~mirror ~clients ~seed in
  let target = List.hd s.s_disks in
  let before = Disk.stats target in
  run_workload s.s_files ~clients ~ops ~seed;
  let after = Disk.stats target in
  match point_of kind with
  | "disk.read" -> after.Disk.reads - before.Disk.reads
  | _ -> after.Disk.writes - before.Disk.writes

let run_point ?(checksums = true) ?(mirror = false) ?(clients = 1) ~kind ~ops
    ~seed ~at () =
  if clients < 1 then invalid_arg "Corruption_sweep: clients must be >= 1";
  let s = setup ~kind ~checksums ~mirror ~clients ~seed in
  let plan =
    Sp_fault.plan ~seed:(seed + at)
      [
        Sp_fault.rule ~point:(point_of kind) ~label:s.s_label ~after:(at - 1)
          ~count:1 (fault_of kind);
      ]
  in
  let attempt () =
    (* Phase 1: the workload, with the fault armed. *)
    Sp_fault.with_plan plan (fun () -> run_workload s.s_files ~clients ~ops ~seed);
    (* Phase 2: verification, disarmed.  Reads must reach stored bytes. *)
    match s.s_mirror with
    | Some m -> (
        Option.iter Sp_vm.Vmm.drop_caches s.s_vmm;
        Stackable.drop_caches m;
        match Files.mismatch m (Files.expected s.s_files) with
        | Some divergence -> Silent divergence
        | None ->
            if Sp_mirrorfs.Mirrorfs.repairs m > 0 then Repaired else Absorbed)
    | None -> (
        let disk = List.hd s.s_disks in
        match Fsck.summary (Fsck.check ~verify_checksums:checksums disk) with
        | Some problem -> Detected ("fsck: " ^ problem)
        | None -> (
            let fs2 = Disk_layer.mount ~name:(s.s_label ^ "-v") disk in
            match Files.mismatch fs2 (Files.expected s.s_files) with
            | Some divergence -> Silent divergence
            | None -> Absorbed))
  in
  match attempt () with
  | outcome -> outcome
  | exception e when loud e -> Detected (Fserr.to_string e)

let scenario ?(checksums = true) ?(mirror = false) ?(clients = 1) ~kind ~ops
    ~seed () =
  let io = workload_io ~checksums ~mirror ~clients ~kind ~ops ~seed () in
  {
    Sp_sweep.label = "SCRUB-SWEEP";
    params =
      [
        ("kind", kind_name kind);
        ("checksums", Sp_sweep.on_off checksums);
        ("mirror", Sp_sweep.on_off mirror);
      ]
      @ if clients > 1 then [ ("clients", string_of_int clients) ] else [];
    trailer =
      [ ("seed", string_of_int seed); ("ops", string_of_int ops); ("io", string_of_int io) ];
    classes = [ "absorbed"; "detected"; "repaired"; "silent" ];
    failing = [ "silent" ];
    axes = [ (kind_name kind, io) ];
    run =
      (fun p ->
        let cls, msg =
          match run_point ~checksums ~mirror ~clients ~kind ~ops ~seed ~at:p.Sp_sweep.at () with
          | Absorbed -> ("absorbed", "")
          | Detected m -> ("detected", m)
          | Repaired -> ("repaired", "")
          | Silent m -> ("silent", m)
        in
        { Sp_sweep.cls; msg; counters = [] });
  }
