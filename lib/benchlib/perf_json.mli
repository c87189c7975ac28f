(** Machine-readable benchmark rows and the perf-regression guard.

    [bench/main.exe -- --json FILE] serialises every simulated table to
    [FILE] as a JSON array of [{table, label, ns}] objects; the committed
    snapshot (BENCH_10.json) is the baseline CI compares fresh runs
    against with [--check-perf]. *)

type row = { table : string; label : string; ns : int }

val to_string : row list -> string

exception Bad_json of string

(** Parse rows emitted by {!to_string} (a minimal parser for that flat
    shape, not general JSON).  Raises {!Bad_json} on malformed input. *)
val parse : string -> row list

type verdict =
  | Regression of row * int
      (** fresh row slower than baseline beyond tolerance; [int] is the
          baseline ns *)
  | Improvement of row * int
      (** fresh row faster than baseline beyond tolerance — refresh the
          committed snapshot to lock the gain in *)
  | Missing of row  (** baseline row absent from the fresh run *)

(** Compare a fresh run against the committed baseline.  [tolerance] is a
    fraction (0.10 = ±10%).  Rows only present in the fresh run are new
    benchmarks and pass silently. *)
val check : tolerance:float -> baseline:row list -> fresh:row list -> verdict list
