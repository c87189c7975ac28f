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

module File = Sp_core.File
module Stackable = Sp_core.Stackable
module Disk = Sp_blockdev.Disk
module Disk_layer = Sp_sfs.Disk_layer
module Fsck = Sp_sfs.Fsck
module Rng = Sp_fault.Rng
module Sname = Sp_naming.Sname

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
let n_files = 6
let max_pos = 12288
let max_write = 4096

(* Concurrent mode: each client owns [client_files] files of its own
   ("c<k>f<j>"), so the shared expected-contents table never races — a
   name is only ever written by one task, and the table update sits
   between the same two suspension points as the write itself. *)
let client_files = 3

let fname ?client rng =
  match client with
  | None -> "f" ^ string_of_int (Rng.int rng n_files)
  | Some k -> Printf.sprintf "c%df%d" k (Rng.int rng client_files)

type sim = {
  top : Stackable.t;  (* where the workload runs: the volume or the mirror *)
  expected : (string, bytes) Hashtbl.t;
}

let write_step ?client st rng =
  let name = fname ?client rng in
  let path = Sname.of_components [ name ] in
  let pos = Rng.int rng max_pos in
  let len = 1 + Rng.int rng max_write in
  let base = Rng.int rng 256 in
  let data = Bytes.init len (fun i -> Char.chr ((base + i) land 0xff)) in
  let f =
    if Hashtbl.mem st.expected name then Stackable.open_file st.top path
    else begin
      let f = Stackable.create st.top path in
      Hashtbl.replace st.expected name Bytes.empty;
      f
    end
  in
  ignore (File.write f ~pos data);
  let old = Hashtbl.find st.expected name in
  let buf = Bytes.make (max (Bytes.length old) (pos + len)) '\000' in
  Bytes.blit old 0 buf 0 (Bytes.length old);
  Bytes.blit data 0 buf pos len;
  Hashtbl.replace st.expected name buf

(* Reads deliberately discard their results: the sweep never lets the
   application "notice" corruption by comparing — detection must come
   from the system (checksums raising, fsck flagging), or it does not
   count. *)
let read_step ?client st rng =
  let name = fname ?client rng in
  if Hashtbl.mem st.expected name then
    ignore (File.read_all (Stackable.open_file st.top (Sname.of_components [ name ])))

let remove_step ?client st rng =
  let name = fname ?client rng in
  if Hashtbl.mem st.expected name then begin
    Stackable.remove st.top (Sname.of_components [ name ]);
    Hashtbl.remove st.expected name
  end

let run_ops ?client st rng ops =
  for i = 1 to ops do
    (match Rng.int rng 12 with
    | 8 | 9 -> read_step ?client st rng
    | 10 -> remove_step ?client st rng
    | 11 -> Stackable.sync st.top
    | _ -> write_step ?client st rng);
    if i mod 5 = 0 then Stackable.sync st.top
  done;
  Stackable.sync st.top

(* [clients > 1]: the same op mix, one scheduler task per client on the
   shared volume.  There is no crash here — a run either completes (and
   the final state must read back exactly) or dies loudly, so the serial
   expected-contents verification still applies verbatim. *)
let run_workload st ~clients ~ops ~seed =
  if clients = 1 then run_ops st (Rng.create seed) ops
  else
    let client k () =
      run_ops ~client:k st (Rng.create (seed + ((k + 1) * 7919))) ops
    in
    ignore (Sp_sched.run ~seed (List.init clients client))

let label ~kind ~checksums ~mirror ~seed =
  Printf.sprintf "corr-%s%c%c%d" (kind_name kind)
    (if checksums then 'c' else 'n')
    (if mirror then 'm' else 's')
    seed

(* A loud failure: the system refused to serve or even mount the damaged
   bytes.  [Sp_fault.Crash] is absent on purpose — this sweep injects no
   crash faults, so one escaping would be a harness bug. *)
let loud = function
  | Sp_core.Fserr.Checksum_error _ | Sp_core.Fserr.Io_error _
  | Sp_core.Fserr.No_such_file _ | Sp_core.Fserr.Not_a_directory _
  | Sp_core.Fserr.Is_directory _ | Sp_core.Fserr.No_space _
  | Invalid_argument _ | Failure _ ->
      true
  | _ -> false

type setup = {
  s_disks : Disk.t list;  (* fault target first *)
  s_sim : sim;
  s_mirror : Stackable.t option;
  s_vmm : Sp_vm.Vmm.t option;
  s_label : string;  (* disk label the fault rule targets *)
}

(* Serial sweeps keep the historical geometry; concurrent ones scale the
   volume so [clients * client_files] files never hit [No_space] (which
   is loud and would masquerade as detection). *)
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
      s_sim = { top = fs; expected = Hashtbl.create 8 };
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
      s_sim = { top = m; expected = Hashtbl.create 8 };
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
  run_workload s.s_sim ~clients ~ops ~seed;
  let after = Disk.stats target in
  match point_of kind with
  | "disk.read" -> after.Disk.reads - before.Disk.reads
  | _ -> after.Disk.writes - before.Disk.writes

let compare_expected st top =
  let want =
    Hashtbl.fold (fun name data acc -> (name, data) :: acc) st.expected []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let got =
    List.sort String.compare
      (Stackable.fold_dir top (Sname.of_components []) (fun acc n -> n :: acc) [])
  in
  if got <> List.map fst want then
    Some
      (Printf.sprintf "file set {%s} <> {%s}" (String.concat "," got)
         (String.concat "," (List.map fst want)))
  else
    List.find_map
      (fun (name, data) ->
        let back = File.read_all (Stackable.open_file top (Sname.of_components [ name ])) in
        if Bytes.equal back data then None
        else Some (Printf.sprintf "%s: read back %d byte(s) differing from what was written" name (Bytes.length back)))
      want

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
    Sp_fault.with_plan plan (fun () -> run_workload s.s_sim ~clients ~ops ~seed);
    (* Phase 2: verification, disarmed.  Reads must reach stored bytes. *)
    match s.s_mirror with
    | Some m -> (
        Option.iter Sp_vm.Vmm.drop_caches s.s_vmm;
        Stackable.drop_caches m;
        match compare_expected s.s_sim m with
        | Some divergence -> Silent divergence
        | None ->
            if Sp_mirrorfs.Mirrorfs.repairs m > 0 then Repaired else Absorbed)
    | None -> (
        let disk = List.hd s.s_disks in
        match Fsck.summary (Fsck.check ~verify_checksums:checksums disk) with
        | Some problem -> Detected ("fsck: " ^ problem)
        | None -> (
            let fs2 = Disk_layer.mount ~name:(s.s_label ^ "-v") disk in
            match compare_expected s.s_sim fs2 with
            | Some divergence -> Silent divergence
            | None -> Absorbed))
  in
  match attempt () with
  | outcome -> outcome
  | exception e when loud e -> Detected (Sp_core.Fserr.to_string e)

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
