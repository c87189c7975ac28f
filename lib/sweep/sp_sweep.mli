(** The sweep engine shared by the fault-injection harnesses
    ([Sp_sfs.Crash_sweep], [Sp_integrity.Corruption_sweep],
    [Sp_failover.Layer_crash_sweep], [Sp_cluster.Shard_crash_sweep]),
    plus the two kits they build their workloads and oracles from:
    {!Files}, the seeded file workload and its model, and {!Live}, the
    bookkeeping of a fault that lands under concurrent clients.

    A {!scenario} knows how to build a fresh world, run its workload with
    one fault injected at point [k], and judge the result.  The engine
    owns everything around that: strided enumeration of the points over
    one or more axes, the tally of outcome classes, first-failure
    capture, summing the per-point counters, the one-line verdict, and
    the exit code.

    Verdict-line grammar (one line per report, tokens separated by one
    space):
    {v LABEL param=v ... points=N class=n ... counter=n ... trailer=v ... v}
    Classes print in declared order; a {!Pair} counter prints as [a+b].
    A failing sweep adds exactly one line,
    {v FIRST-FAILURE axis=A at=K class=C: message v}
    for the earliest point that fell in a failing class. *)

(** A per-point counter and how points combine: {!Sum} and {!Pair} add
    up across points, {!Max} keeps the largest. *)
type count = Sum of int | Pair of int * int | Max of int

(** One injection point: the [at]-th (1-based) position on [axis];
    [index] numbers the points of the whole sweep from 0 in the order
    they run. *)
type point = { axis : string; index : int; at : int }

(** What the scenario's oracle made of one point. *)
type verdict = {
  cls : string;  (** one of the scenario's [classes] *)
  msg : string;  (** why, for a failing class *)
  counters : (string * count) list;  (** same names, same order, every point *)
}

type scenario = {
  label : string;  (** first token of the verdict line *)
  params : (string * string) list;  (** tokens between the label and [points=] *)
  trailer : (string * string) list;  (** tokens after the counters *)
  classes : string list;  (** every outcome class, in verdict-line order *)
  failing : string list;  (** the classes that make a point fail *)
  axes : (string * int) list;  (** axis name and its last point, swept in order *)
  run : point -> verdict;
}

type report = {
  label : string;
  params : (string * string) list;
  points : int;
  tally : (string * int) list;  (** points per class, declared order *)
  counters : (string * count) list;  (** combined over every point *)
  trailer : (string * string) list;
  failing : string list;
  first_failure : (point * verdict) option;  (** earliest failing point *)
}

(** Sweep points [1, 1+stride, ...] up to each axis's bound, axis after
    axis.  Raises [Invalid_argument] if [stride < 1] or a verdict names
    an undeclared class or changes the counter names (or their number). *)
val run : stride:int -> scenario -> report

(** ["on"] / ["off"], the spelling of boolean verdict-line params. *)
val on_off : bool -> string

(** Points that fell in [cls] (0 for an undeclared class). *)
val count : report -> string -> int

(** Points that fell in any failing class. *)
val failures : report -> int

(** The value of a named counter ([a+b] for a {!Pair}).  Raises
    [Not_found]. *)
val counter : (string * count) list -> string -> int

(** A verdict-line param or trailer value.  Raises [Not_found]. *)
val param : report -> string -> string

val verdict_line : report -> string
val failure_line : report -> string option

(** The exit-code contract, over one or more reports summed together. *)
type expect =
  | Clean  (** no point fell in a failing class *)
  | Some_in of string list
      (** at least one point fell in one of these classes (the inverted
          controls that prove an injector can do damage) *)
  | Every of string  (** at least one point, and every point in this class *)

(** 0 when [expect] holds, 1 when it does not. *)
val exit_code : expect -> report list -> int

(** Print each report's verdict line, then the first failure line of the
    first report that has one, then — on stderr, only when [expect]
    fails — why.  Returns {!exit_code}. *)
val finish : expect -> report list -> int

(** The seeded file workload the crash, corruption and layer-crash
    sweeps run, and the one model of what it wrote.

    The workload draws every decision from an explicit {!Sp_fault.Rng.t}
    in operation order and never looks at wall time or hash order, so a
    seed gives the same ops and the same device I/O wherever a fault
    lands.  The model keeps every file's version history, each version
    stamped with the count of content changes when it became current;
    the expected contents, the last synced and the in-flight cuts and
    the spans written since the last sync are all read off it.  Each
    scenario keeps its own oracle: which of these the recovered volume
    must match. *)
module Files : sig
  type t

  (** An empty model of the workload's files on [fs]. *)
  val create : Sp_core.Stackable.t -> t

  (** The workload rng of client [k] (from 0) of a concurrent run. *)
  val client_rng : seed:int -> int -> Sp_fault.Rng.t

  (** [draw rng ~max_pos ~max_write] draws a write: a position below
      [max_pos] and [1 + n] bytes ([n < max_write]) of the pattern
      [(base + i) land 0xff]. *)
  val draw : Sp_fault.Rng.t -> max_pos:int -> max_write:int -> int * bytes

  (** Write [data] at [pos] of the root file [name] (created first if
      the model has it absent), and record the new contents. *)
  val write : t -> string -> pos:int -> bytes -> unit

  (** Remove the root file [name] and record it absent. *)
  val remove : t -> string -> unit

  (** Sync the volume; once it returns, everything current when it
      started is the last synced cut. *)
  val sync : t -> unit

  (** Op [i] (from 1) of the mix: one draw from 12 picks a write, a
      remove (10), a sync (11) or, with [reads], a read whose bytes are
      thrown away (8, 9); every [sync_every]-th op then syncs.  Names are
      [f0]..[f5], or [c<k>f0]..[c<k>f2] for [client = Some k]. *)
  val step :
    t -> Sp_fault.Rng.t -> client:int option -> reads:bool -> sync_every:int ->
    int -> unit

  (** [ops] ops of the mix and a final sync: from [Rng.create seed] for
      one client, or as [clients] [Sp_sched] tasks over the one model,
      each on its own files with {!client_rng}. *)
  val run :
    t -> clients:int -> reads:bool -> sync_every:int -> ops:int -> seed:int ->
    unit

  (** Whether the model has [name]. *)
  val present : t -> string -> bool

  (** Every file's current contents, sorted by name. *)
  val expected : t -> (string * bytes) list

  (** The files and contents as of the start of the latest completed
      sync (empty before the first). *)
  val synced : t -> (string * bytes) list

  (** The same for a sync that started but never returned.  Serial
      workloads only: concurrent syncs share the one slot. *)
  val in_flight : t -> (string * bytes) list option

  (** The versions of [name] a crash may leave on a journaled volume:
      the one current when the latest completed sync started ([None] for
      absent), and every newer one, newest first. *)
  val since_sync : t -> string -> bytes option list

  (** The [(pos, len)] spans written to [name] since the last completed
      sync and since its latest removal. *)
  val written_since_sync : t -> string -> (int * int) list

  (** Every name the model ever had, sorted. *)
  val names : t -> string list

  (** Take [files] as the current contents and the last synced cut. *)
  val adopt : t -> (string * bytes) list -> unit

  (** The sorted names in the root directory of a volume. *)
  val listing : Sp_core.Stackable.t -> string list

  (** Read the whole root file [name]. *)
  val read : Sp_core.Stackable.t -> string -> bytes

  (** Every root file with its contents, sorted by name. *)
  val read_back : Sp_core.Stackable.t -> (string * bytes) list

  (** [None] when the volume holds exactly the files [want] (sorted by
      name) with exactly their contents.  Otherwise the first
      difference: ["file set {...} <> {...}"], or
      ["<name>: read back N byte(s) differing from what was written"].
      Reads files in name order and stops at the first difference. *)
  val mismatch : Sp_core.Stackable.t -> (string * bytes) list -> string option
end

(** Live-load bookkeeping for a point whose fault lands while concurrent
    client tasks keep calling through [Sp_avail.call]: the global op
    boundary that fires the fault, the event watermark at which recovery
    was first observed, the worst fault -> served-again gap, and the
    client-op counters. *)
module Live : sig
  (** A live-load point's outcome. *)
  type outcome =
    | Served  (** recovered, nothing lost, every check clean *)
    | Unavailable of string  (** a loud failure, or no service at all *)
    | Lost of string  (** durable data or lease safety did not survive *)
    | Corrupt of string  (** fsck damage, or the scenario's contract broke *)

  (** The classes ([served] and the failing [unavailable], [lost],
      [corrupt]) and verdict of a live-load point. *)
  val classes : string list

  val failing : string list
  val verdict : outcome * (string * count) list -> verdict

  type t

  (** [create ~at ~fault ~restarts ~loud] fires [fault] at the [at]-th
      {!boundary}.  [restarts] reads the supervisor's restart count
      (recovery is observed on the first success after it turns
      positive).  A client op that raises [Sp_avail.Unavailable],
      [Io_error], [Checksum_error], or any exception [loud] describes,
      is a loud failure; [Timed_out] is a deadline miss.  Snapshots the
      metrics, so create it just before the clients start. *)
  val create :
    at:int -> fault:(unit -> unit) -> restarts:(unit -> int) ->
    loud:(exn -> string option) -> t

  (** Count one global op boundary, firing the fault on the [at]-th. *)
  val boundary : t -> unit

  (** Whether the fault has fired. *)
  val fired : t -> bool

  (** Advance the global event counter and return its new value. *)
  val tick : t -> int

  (** The current event counter. *)
  val events : t -> int

  (** Boundaries counted so far. *)
  val boundaries : t -> int

  (** [call t ~name ~rng ~deadline_ns f] runs one client op under
      [Sp_avail.call] with the sweep's backoff policy: [Some v] on
      success (counted served), [None] on a deadline miss or a loud
      failure (counted; the first message kept). *)
  val call :
    t -> name:string -> rng:Sp_fault.Rng.t -> deadline_ns:int ->
    (unit -> 'a) -> 'a option

  (** Writes started after this event are immune to the fault: [-1] if
      it never fired, the recovery watermark if recovery was observed,
      [max_int] otherwise. *)
  val safe_after : t -> int

  (** One write a client attempted, event-ordered: [seq] is the
      {!tick} at its start, [done_at] the tick at its successful
      completion ([-1] until then). *)
  type write = { pos : int; data : bytes; seq : int; mutable done_at : int }

  (** Whether the volume must hold [w]'s bytes, unless a newer write
      covers them: it completed, and either before the durable [cut] (an
      event watermark of a sync that completed before the fault) or it
      started after [safe_after]. *)
  val pinned : write -> cut:int -> safe_after:int -> bool

  (** Call once the clients are done.  Closes the recovery gap if no op
      was served after the fault, and returns the first loud failure, or
      the number of deadline misses, if any op had one. *)
  val loud_failure : t -> string option

  (** [op_served], [retried], [shed], [failed], [deadline_misses] and
      [worst_gap_ns] (fault -> first served op). *)
  val counters : t -> (string * count) list

  (** The same counters with every value zero (points with no live
      clients). *)
  val no_counters : (string * count) list
end
