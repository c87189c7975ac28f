type count = Sum of int | Pair of int * int | Max of int
type point = { axis : string; index : int; at : int }
type verdict = { cls : string; msg : string; counters : (string * count) list }

type scenario = {
  label : string;
  params : (string * string) list;
  trailer : (string * string) list;
  classes : string list;
  failing : string list;
  axes : (string * int) list;
  run : point -> verdict;
}

type report = {
  label : string;
  params : (string * string) list;
  points : int;
  tally : (string * int) list;
  counters : (string * count) list;
  trailer : (string * string) list;
  failing : string list;
  first_failure : (point * verdict) option;
}

let combine a b =
  match (a, b) with
  | Sum x, Sum y -> Sum (x + y)
  | Pair (x, x'), Pair (y, y') -> Pair (x + y, x' + y')
  | Max x, Max y -> Max (max x y)
  | _ -> invalid_arg "Sp_sweep: a counter changed kind between points"

let run ~stride (s : scenario) =
  if stride < 1 then invalid_arg "Sp_sweep.run: stride must be >= 1";
  let tally = List.map (fun c -> (c, ref 0)) s.classes in
  let points = ref 0 and counters = ref None and first = ref None in
  List.iter
    (fun (axis, bound) ->
      let at = ref 1 in
      while !at <= bound do
        let p = { axis; index = !points; at = !at } in
        let v = s.run p in
        (match List.assoc_opt v.cls tally with
        | Some n -> incr n
        | None -> invalid_arg ("Sp_sweep: undeclared outcome class " ^ v.cls));
        counters :=
          Some
            (match !counters with
            | None -> v.counters
            | Some acc ->
                if List.map fst acc <> List.map fst v.counters then
                  invalid_arg "Sp_sweep: counter names changed between points";
                List.map2 (fun (name, a) (_, b) -> (name, combine a b)) acc v.counters);
        if !first = None && List.mem v.cls s.failing then first := Some (p, v);
        incr points;
        at := !at + stride
      done)
    s.axes;
  {
    label = s.label;
    params = s.params;
    points = !points;
    tally = List.map (fun (c, n) -> (c, !n)) tally;
    counters = Option.value ~default:[] !counters;
    trailer = s.trailer;
    failing = s.failing;
    first_failure = !first;
  }

let on_off b = if b then "on" else "off"
let count r cls = Option.value ~default:0 (List.assoc_opt cls r.tally)
let in_classes cs r = List.fold_left (fun n c -> n + count r c) 0 cs
let failures r = in_classes r.failing r

let counter counters name =
  match List.assoc name counters with
  | Sum n | Max n -> n
  | Pair (a, b) -> a + b

let param r name = List.assoc name (r.params @ r.trailer)

let verdict_line r =
  let tok (k, v) = k ^ "=" ^ v in
  let show = function
    | Sum n | Max n -> string_of_int n
    | Pair (a, b) -> Printf.sprintf "%d+%d" a b
  in
  String.concat " "
    ((r.label :: List.map tok r.params)
    @ (tok ("points", string_of_int r.points)
      :: List.map (fun (c, n) -> tok (c, string_of_int n)) r.tally)
    @ List.map (fun (c, v) -> tok (c, show v)) r.counters
    @ List.map tok r.trailer)

let failure_line r =
  Option.map
    (fun (p, v) ->
      Printf.sprintf "FIRST-FAILURE axis=%s at=%d class=%s: %s" p.axis p.at
        v.cls v.msg)
    r.first_failure

type expect = Clean | Some_in of string list | Every of string

let sum f reports = List.fold_left (fun n r -> n + f r) 0 reports

(* [None] when [expect] holds, else why not. *)
let check expect reports =
  match expect with
  | Clean ->
      let n = sum failures reports in
      if n = 0 then None
      else Some (Printf.sprintf "%d point(s) fell in a failing class" n)
  | Some_in cs ->
      if sum (in_classes cs) reports > 0 then None
      else
        Some
          (Printf.sprintf "expected at least one point in {%s}, got none"
             (String.concat "," cs))
  | Every c ->
      let points = sum (fun r -> r.points) reports
      and n = sum (in_classes [ c ]) reports in
      if points > 0 && n = points then None
      else Some (Printf.sprintf "expected every point %s, got %d of %d" c n points)

let exit_code expect reports = if check expect reports = None then 0 else 1

let finish expect reports =
  List.iter (fun r -> print_endline (verdict_line r)) reports;
  Option.iter print_endline (List.find_map failure_line reports);
  match check expect reports with
  | None -> 0
  | Some why ->
      prerr_endline ("verdict failed: " ^ why);
      1

module Files = struct
  module Stackable = Sp_core.Stackable
  module File = Sp_core.File
  module Sname = Sp_naming.Sname
  module Rng = Sp_fault.Rng

  (* One version of a file: its contents ([None] once removed), the
     stamp it became current at, and the span a write changed ([len = 0]
     for a create or a remove). *)
  type version = { at : int; data : bytes option; pos : int; len : int }

  type t = {
    fs : Stackable.t;
    files : (string, version list) Hashtbl.t;  (* newest first *)
    mutable stamp : int;  (* content changes so far *)
    mutable synced : int;  (* [stamp] when the latest completed sync started *)
    mutable in_flight : int option;  (* [stamp] when the sync in flight started *)
  }

  let create fs =
    { fs; files = Hashtbl.create 16; stamp = 0; synced = 0; in_flight = None }

  let client_rng ~seed k = Rng.create (seed + ((k + 1) * 7919))

  let draw rng ~max_pos ~max_write =
    let pos = Rng.int rng max_pos in
    let len = 1 + Rng.int rng max_write in
    let base = Rng.int rng 256 in
    (pos, Bytes.init len (fun i -> Char.chr ((base + i) land 0xff)))

  let history t name = Option.value ~default:[] (Hashtbl.find_opt t.files name)
  let current t name = match history t name with v :: _ -> v.data | [] -> None
  let present t name = current t name <> None

  let record t name ~pos ~len data =
    t.stamp <- t.stamp + 1;
    Hashtbl.replace t.files name ({ at = t.stamp; data; pos; len } :: history t name)

  let path name = Sname.of_components [ name ]

  let write t name ~pos data =
    let old, f =
      match current t name with
      | Some old -> (old, Stackable.open_file t.fs (path name))
      | None ->
          let f = Stackable.create t.fs (path name) in
          (* The bare file is a version of its own: under concurrent
             clients another client's sync can land between the create
             and the write. *)
          record t name ~pos:0 ~len:0 (Some Bytes.empty);
          (Bytes.empty, f)
    in
    ignore (File.write f ~pos data);
    let len = Bytes.length data in
    let buf = Bytes.make (max (Bytes.length old) (pos + len)) '\000' in
    Bytes.blit old 0 buf 0 (Bytes.length old);
    Bytes.blit data 0 buf pos len;
    record t name ~pos ~len (Some buf)

  let remove t name =
    Stackable.remove t.fs (path name);
    record t name ~pos:0 ~len:0 None

  let sync t =
    let start = t.stamp in
    t.in_flight <- Some start;
    Stackable.sync t.fs;
    t.synced <- max t.synced start;
    t.in_flight <- None

  let read fs name = File.read_all (Stackable.open_file fs (path name))

  let step t rng ~client ~reads ~sync_every i =
    let name () =
      match client with
      | None -> "f" ^ string_of_int (Rng.int rng 6)
      | Some k -> Printf.sprintf "c%df%d" k (Rng.int rng 3)
    in
    (match Rng.int rng 12 with
    | (8 | 9) when reads ->
        let name = name () in
        if present t name then ignore (read t.fs name)
    | 10 ->
        let name = name () in
        if present t name then remove t name
    | 11 -> sync t
    | _ ->
        let name = name () in
        let pos, data = draw rng ~max_pos:(12 * 1024) ~max_write:4096 in
        write t name ~pos data);
    if i mod sync_every = 0 then sync t

  let run t ~clients ~reads ~sync_every ~ops ~seed =
    let client who rng () =
      for i = 1 to ops do
        step t rng ~client:who ~reads ~sync_every i
      done;
      sync t
    in
    if clients = 1 then client None (Rng.create seed) ()
    else
      ignore
        (Sp_sched.run ~seed
           (List.init clients (fun k -> client (Some k) (client_rng ~seed k))))

  (* The files and contents as of stamp [s], sorted by name. *)
  let cut t s =
    Hashtbl.fold
      (fun name versions acc ->
        match List.find_opt (fun v -> v.at <= s) versions with
        | Some { data = Some d; _ } -> (name, d) :: acc
        | _ -> acc)
      t.files []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let expected t = cut t t.stamp
  let synced t = cut t t.synced
  let in_flight t = Option.map (cut t) t.in_flight

  let since_sync t name =
    let rec go = function
      | [] -> [ None ]
      | v :: older -> v.data :: (if v.at <= t.synced then [] else go older)
    in
    go (history t name)

  let written_since_sync t name =
    let rec go = function
      | { at; data = Some _; pos; len } :: older when at > t.synced ->
          if len = 0 then go older else (pos, len) :: go older
      | _ -> []
    in
    go (history t name)

  let names t =
    List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.files [])

  let adopt t files =
    Hashtbl.reset t.files;
    t.stamp <- t.stamp + 1;
    List.iter
      (fun (name, data) ->
        Hashtbl.replace t.files name
          [ { at = t.stamp; data = Some data; pos = 0; len = 0 } ])
      files;
    t.synced <- t.stamp

  let listing fs =
    List.sort String.compare
      (Stackable.fold_dir fs (Sname.of_components []) (fun acc n -> n :: acc) [])

  let read_back fs = List.map (fun name -> (name, read fs name)) (listing fs)

  let mismatch fs want =
    let got = listing fs and names = List.map fst want in
    if got <> names then
      Some
        (Printf.sprintf "file set {%s} <> {%s}" (String.concat "," got)
           (String.concat "," names))
    else
      List.find_map
        (fun (name, data) ->
          let back = read fs name in
          if Bytes.equal back data then None
          else
            Some
              (Printf.sprintf "%s: read back %d byte(s) differing from what was written"
                 name (Bytes.length back)))
        want
end

module Live = struct
  module Fserr = Sp_core.Fserr
  module Metrics = Sp_sim.Metrics
  module Simclock = Sp_sim.Simclock

  type outcome =
    | Served
    | Unavailable of string
    | Lost of string
    | Corrupt of string

  let classes = [ "served"; "unavailable"; "lost"; "corrupt" ]
  let failing = List.tl classes

  let verdict (outcome, counters) =
    let cls, msg =
      match outcome with
      | Served -> ("served", "")
      | Unavailable m -> ("unavailable", m)
      | Lost m -> ("lost", m)
      | Corrupt m -> ("corrupt", m)
    in
    { cls; msg; counters }

  type t = {
    at : int;
    fault : unit -> unit;
    restarts : unit -> int;
    loud : exn -> string option;
    m0 : Metrics.snapshot;
    mutable ev : int;
    mutable boundary : int;
    mutable fired : bool;
    mutable t_fault : int;
    mutable t_recover : int;  (* -1 until the first op served after the fault *)
    mutable recovery_ev : int;  (* -1 until recovery is observed *)
    mutable served : int;
    mutable misses : int;
    mutable first_err : string option;
  }

  (* Retry policy sized to a real restart window: under [paper_1993]
     rebuilding a journaled disk layer replays the journal (~10 disk
     IOs, ~130ms virtual), so the backoff series must keep probing well
     past that — cumulative raw sleep is ~560ms over 16 attempts, and
     jitter only shortens it to no less than half.  The default policy's
     ~16ms budget (tuned for a dead *domain*, not a remount) would
     exhaust mid-restart and trip the breaker on a stack that is coming
     back. *)
  let policy =
    Sp_avail.Backoff.make ~base_ns:2_000_000 ~max_delay_ns:50_000_000
      ~max_attempts:16 ()

  let create ~at ~fault ~restarts ~loud =
    {
      at;
      fault;
      restarts;
      loud;
      m0 = Metrics.snapshot ();
      ev = 0;
      boundary = 0;
      fired = false;
      t_fault = 0;
      t_recover = -1;
      recovery_ev = -1;
      served = 0;
      misses = 0;
      first_err = None;
    }

  let boundary t =
    t.boundary <- t.boundary + 1;
    if (not t.fired) && t.boundary = t.at then begin
      t.fired <- true;
      t.t_fault <- Simclock.now ();
      t.fault ()
    end

  let fired t = t.fired

  let tick t =
    t.ev <- t.ev + 1;
    t.ev

  let events t = t.ev
  let boundaries t = t.boundary

  let note_success t =
    t.served <- t.served + 1;
    if t.fired && t.t_recover < 0 then t.t_recover <- Simclock.now ();
    (* Recovery completed once an op succeeds with the restart counted:
       ops started after this watermark resolve through the rebuilt
       incarnations and their effects can no longer die with the old
       ones. *)
    if t.fired && t.recovery_ev < 0 && t.restarts () > 0 then
      t.recovery_ev <- t.ev

  let note_err t m = if t.first_err = None then t.first_err <- Some m

  let call t ~name ~rng ~deadline_ns f =
    match Sp_avail.call ~name ~policy ~deadline_ns ~rng f with
    | v ->
        note_success t;
        Some v
    | exception Fserr.Timed_out _ ->
        t.misses <- t.misses + 1;
        None
    | exception Sp_avail.Unavailable m ->
        note_err t ("unavailable: " ^ m);
        None
    | exception ((Fserr.Io_error _ | Fserr.Checksum_error _) as e) ->
        note_err t (Fserr.to_string e);
        None
    | exception e -> (
        match t.loud e with
        | Some m ->
            note_err t m;
            None
        | None -> raise e)

  let safe_after t =
    if not t.fired then -1
    else if t.recovery_ev >= 0 then t.recovery_ev
    else max_int

  type write = { pos : int; data : bytes; seq : int; mutable done_at : int }

  let pinned w ~cut ~safe_after =
    w.done_at >= 0 && (w.done_at <= cut || w.seq > safe_after)

  let loud_failure t =
    if t.t_recover < 0 && t.fired then t.t_recover <- Simclock.now ();
    match (t.first_err, t.misses) with
    | Some m, _ -> Some m
    | None, n when n > 0 -> Some (Printf.sprintf "%d ops overran their deadline" n)
    | None, _ -> None

  let tokens ~served ~retried ~shed ~failed ~misses ~gap =
    [
      ("op_served", Sum served);
      ("retried", Sum retried);
      ("shed", Sum shed);
      ("failed", Sum failed);
      ("deadline_misses", Sum misses);
      ("worst_gap_ns", Max gap);
    ]

  let counters t =
    let d = Metrics.diff ~before:t.m0 ~after:(Metrics.snapshot ()) in
    tokens ~served:t.served ~retried:d.Metrics.avail_retried
      ~shed:d.Metrics.avail_shed ~failed:d.Metrics.avail_failed
      ~misses:t.misses
      ~gap:(if t.t_recover >= 0 then t.t_recover - t.t_fault else 0)

  let no_counters = tokens ~served:0 ~retried:0 ~shed:0 ~failed:0 ~misses:0 ~gap:0
end
