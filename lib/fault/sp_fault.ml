exception Crash of string
exception Injected of string

module Rng = struct
  (* splitmix64: tiny, full-period, and completely determined by the seed.
     Draws happen in operation order, so a (plan, workload) pair replays
     bit-identically.  The state lives unboxed in 8 bytes: a mutable
     [int64] field would take a freshly boxed value on every draw. *)
  type t = Bytes.t

  let create seed =
    let t = Bytes.create 8 in
    Bytes.set_int64_ne t 0 (Int64.of_int seed);
    t

  let[@inline] next t =
    let open Int64 in
    let z = add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
    Bytes.set_int64_ne t 0 z;
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Sp_fault.Rng.int: bound <= 0";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    (* 53 high bits -> uniform in [0, 1) *)
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

type fault =
  | Fail_stop
  | Io_error
  | Torn_write
  | Torn_write_crash
  | Drop
  | Delay of int
  | Domain_crash
  | Bitrot
  | Misdirected_write
  | Lost_write

type rule = {
  r_point : string;
  r_label : string option;
  r_after : int;
  r_count : int;
  r_prob : float;
  r_fault : fault;
}

let rule ~point ?label ?(after = 0) ?(count = max_int) ?(prob = 1.0) fault =
  if after < 0 then invalid_arg "Sp_fault.rule: after < 0";
  if count < 0 then invalid_arg "Sp_fault.rule: count < 0";
  if prob < 0.0 || prob > 1.0 then invalid_arg "Sp_fault.rule: prob outside [0, 1]";
  { r_point = point; r_label = label; r_after = after; r_count = count;
    r_prob = prob; r_fault = fault }

let partition ~a ~b =
  [
    rule ~point:"net.rpc" ~label:(a ^ "->" ^ b) Drop;
    rule ~point:"net.rpc" ~label:(b ^ "->" ^ a) Drop;
  ]

(* Per-rule firing state lives in the plan, not the rule, so rule values
   are reusable specs and two plans built from the same rules are
   independent. *)
type armed_rule = {
  ar_rule : rule;
  mutable ar_seen : int;
  mutable ar_fired : int;
}

type plan = {
  p_seed : int;
  p_rng : Rng.t;
  p_rules : armed_rule list;
  mutable p_fired : int;
}

let plan ?(seed = 0) rules =
  {
    p_seed = seed;
    p_rng = Rng.create seed;
    p_rules = List.map (fun r -> { ar_rule = r; ar_seen = 0; ar_fired = 0 }) rules;
    p_fired = 0;
  }

let fired p = p.p_fired

let armed : plan option ref = ref None
let arm p = armed := Some p
let disarm () = armed := None
let active () = !armed <> None

let with_plan p f =
  arm p;
  Fun.protect ~finally:disarm f

let injected () = match !armed with None -> 0 | Some p -> p.p_fired

type outcome =
  | Pass
  | Fail_io of string
  | Torn of float
  | Torn_crash of float
  | Dropped of string
  | Delayed of int
  | Domain_died of string
  | Bit_rot of float
  | Misdirected of float
  | Lost_write_ack

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0

let describe = function
  | Fail_stop -> "fail_stop"
  | Io_error -> "io_error"
  | Torn_write -> "torn_write"
  | Torn_write_crash -> "torn_write_crash"
  | Drop -> "drop"
  | Delay ns -> Printf.sprintf "delay(%dns)" ns
  | Domain_crash -> "domain_crash"
  | Bitrot -> "bitrot"
  | Misdirected_write -> "misdirected_write"
  | Lost_write -> "lost_write"

let fire p ~point ~label fault =
  p.p_fired <- p.p_fired + 1;
  Sp_sim.Metrics.incr_faults_injected ();
  if Sp_trace.enabled () then
    Sp_trace.instant ~name:("fault:" ^ describe fault)
      ~args:[ ("point", point); ("label", label) ]
      ();
  let where = Printf.sprintf "%s(%s)" point label in
  match fault with
  | Fail_stop -> raise (Crash ("fail-stop at " ^ where))
  | Io_error -> Fail_io ("injected I/O error at " ^ where)
  | Torn_write -> Torn (0.1 +. (0.8 *. Rng.float p.p_rng))
  | Torn_write_crash -> Torn_crash (0.1 +. (0.8 *. Rng.float p.p_rng))
  | Drop -> Dropped ("injected drop at " ^ where)
  | Delay ns -> Delayed ns
  | Domain_crash -> Domain_died where
  | Bitrot -> Bit_rot (Rng.float p.p_rng)
  | Misdirected_write -> Misdirected (Rng.float p.p_rng)
  | Lost_write -> Lost_write_ack

let consult ~point ~label =
  match !armed with
  | None -> Pass
  | Some p ->
      let rec scan = function
        | [] -> Pass
        | ar :: rest ->
            let r = ar.ar_rule in
            let matches =
              r.r_point = point
              &&
              match r.r_label with
              | None -> true
              | Some sub -> contains ~sub label
            in
            if not matches then scan rest
            else begin
              ar.ar_seen <- ar.ar_seen + 1;
              if
                ar.ar_seen > r.r_after
                && ar.ar_fired < r.r_count
                && (r.r_prob >= 1.0 || Rng.float p.p_rng < r.r_prob)
              then begin
                ar.ar_fired <- ar.ar_fired + 1;
                fire p ~point ~label r.r_fault
              end
              else scan rest
            end
      in
      scan p.p_rules
