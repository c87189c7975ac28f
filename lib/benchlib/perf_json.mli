(** Machine-readable benchmark rows and the exact perf guard.

    [bench/main.exe -- --json FILE] serialises the rows of the simulated
    tables ({!Tables.rows}) to [FILE] as a JSON array of
    [{table, label, ns}] objects; the committed snapshot (BENCH_10.json)
    is the baseline CI compares fresh runs against with [--check-perf].
    The simulated clock is deterministic, so the comparison is exact: a
    row that moves either way, a baseline row the run lacks and a run row
    the baseline lacks each fail it. *)

type row = { table : string; label : string; ns : int }

val to_string : row list -> string

exception Bad_json of string

(** Parse rows emitted by {!to_string} (a minimal parser for that flat
    shape, not general JSON).  Raises {!Bad_json} on malformed input. *)
val parse : string -> row list

type verdict =
  | Changed of row * int  (** fresh row whose ns differs; [int] is the baseline ns *)
  | Missing of row  (** baseline row absent from the fresh run *)
  | Added of row  (** fresh row absent from the baseline *)

(** Compare a fresh run against the committed baseline, exactly.  Every
    verdict is a failure: an empty list means the run reproduced the
    baseline.  Baseline-order verdicts come first, then the added rows. *)
val check : baseline:row list -> fresh:row list -> verdict list
