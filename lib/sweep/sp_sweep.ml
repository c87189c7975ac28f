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
                List.map2
                  (fun (name, a) (name', b) ->
                    if name <> name' then
                      invalid_arg "Sp_sweep: counter names changed between points";
                    (name, combine a b))
                  acc v.counters);
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
