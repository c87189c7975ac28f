(** Deterministic fault injection.

    A {!plan} is a seeded schedule of faults.  Injection points scattered
    through the simulator ([disk.read], [disk.write], [net.rpc],
    [door.call]) call {!consult} on every operation; when no plan is armed
    this is a single reference read, so the disarmed path costs nothing.
    All randomness comes from a splitmix64 generator seeded by an explicit
    integer — never wall-clock — and draws happen in operation order, so a
    given (plan, workload) pair replays bit-identically.

    Faults surface in three ways: as {!Sp_core.Fserr.Io_error}-style
    failures raised by the injection point itself (disk and net translate
    {!outcome} values into their native error types), as the {!Crash}
    exception modelling a fail-stop machine crash (callers unwind and the
    simulated disk image is all that survives), or as pure simulated-time
    delays. *)

(** Simulated machine crash: the process stops at the injection point.
    Harnesses catch this at top level, discard all in-memory state and
    recover from the on-disk image alone.  Never caught by layers. *)
exception Crash of string

(** Injected failure at a point with no native error type (e.g.
    [door.call]). *)
exception Injected of string

(** Deterministic splitmix64 generator (no wall-clock, no global state). *)
module Rng : sig
  type t

  val create : int -> t

  val int : t -> int -> int
  (** [int t bound] is uniform in [\[0, bound)]; [bound > 0]. *)

  val float : t -> float
  (** Uniform in [\[0, 1)]. *)
end

type fault =
  | Fail_stop  (** raise {!Crash} at the injection point *)
  | Io_error  (** transient I/O failure (disk → [Fserr.Io_error]) *)
  | Torn_write
      (** a block write persists only a prefix of the data; the tail of
          the previous block contents survives *)
  | Torn_write_crash  (** torn write immediately followed by {!Crash} *)
  | Drop  (** network message lost (→ [Net.Timeout]) *)
  | Delay of int  (** advance {!Sp_sim.Simclock} by this many ns *)
  | Domain_crash
      (** fail-stop one layer domain: consulted at the [domain.crash]
          point (label = serving domain name) by [Sp_obj.Door.call];
          the door marks the domain dead and raises
          [Fserr.Dead_domain].  Unlike {!Fail_stop}, the rest of the
          machine keeps running — recovery is a supervised layer
          restart, not a reboot. *)
  | Bitrot
      (** silent corruption at rest: one bit of the stored block flips
          (persistently) before a [disk.read] returns it, or in the data
          as a [disk.write] stores it.  The device reports success;
          only checksums can tell. *)
  | Misdirected_write
      (** the block lands at a wrong LBA: some other block is
          overwritten with the data, the intended block is untouched,
          and the device acks.  Both the victim and the stale intended
          block are silently wrong. *)
  | Lost_write
      (** the write is acked (and charged) but no bytes reach the
          media; the previous contents survive unchanged. *)

type rule

val rule :
  point:string ->
  ?label:string ->
  ?after:int ->
  ?count:int ->
  ?prob:float ->
  fault ->
  rule
(** [rule ~point fault] fires [fault] at injection point [point]
    ([disk.write], [net.rpc], ...).  [?label] restricts the rule to
    operations whose label contains that substring (disk labels,
    ["src->dst"] for RPCs, door op names).  The rule skips its first
    [after] matching operations (default 0), fires at most [count] times
    (default [max_int]), and when [prob < 1.] each eligible operation
    fires with that probability, drawn from the plan's seeded generator. *)

val partition : a:string -> b:string -> rule list
(** Network partition between nodes [a] and [b]: drops every RPC whose
    label matches ["a->b"] or ["b->a"]. *)

type plan

val plan : ?seed:int -> rule list -> plan
(** Fresh plan; [seed] defaults to 0. *)

val fired : plan -> int
(** Total faults this plan has injected. *)

val arm : plan -> unit
(** Make [plan] the active plan consulted by injection points. *)

val disarm : unit -> unit

val active : unit -> bool

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] arms [p], runs [f], and disarms — also on exception
    (including {!Crash}). *)

val injected : unit -> int
(** Faults injected by the currently armed plan (0 if none). *)

type outcome =
  | Pass
  | Fail_io of string
  | Torn of float  (** surviving prefix fraction, in [\[0.1, 0.9)] *)
  | Torn_crash of float
  | Dropped of string
  | Delayed of int
  | Domain_died of string  (** the serving domain fail-stopped *)
  | Bit_rot of float
      (** flip the bit at this fraction of the block's bit positions *)
  | Misdirected of float
      (** redirect the write to this fraction of the device's blocks *)
  | Lost_write_ack  (** ack the write without storing anything *)

val consult : point:string -> label:string -> outcome
(** Called by injection points on every operation.  Returns {!Pass} when
    no plan is armed or no rule fires.  Raises {!Crash} itself for
    {!Fail_stop} rules.  A firing rule bumps
    [Sp_sim.Metrics.faults_injected] and, when tracing is enabled,
    records an [Sp_trace] instant event. *)
