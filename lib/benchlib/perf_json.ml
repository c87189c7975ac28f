type row = { table : string; label : string; ns : int }

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf "  {\"table\": \"%s\", \"label\": \"%s\", \"ns\": %d}"
           (escape r.table) (escape r.label) r.ns))
    rows;
  Buffer.add_string b "\n]\n";
  Buffer.contents b

exception Bad_json of string

(* Minimal parser for the flat shape emitted above: an array of objects
   whose values are strings or integers.  Not a general JSON parser. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let peek () =
    skip_ws ();
    if !pos < n then Some s.[!pos] else None
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | 'n' -> Buffer.add_char b '\n'
            | 'u' ->
                if !pos + 4 >= n then fail "bad \\u escape";
                let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
                Buffer.add_char b (Char.chr (code land 0xff));
                pos := !pos + 4
            | c -> Buffer.add_char b c);
            incr pos;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    skip_ws ();
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected number";
    int_of_string (String.sub s start (!pos - start))
  in
  let parse_object () =
    expect '{';
    let table = ref None and label = ref None and ns = ref None in
    let rec fields () =
      let key = parse_string () in
      expect ':';
      (match key with
      | "table" -> table := Some (parse_string ())
      | "label" -> label := Some (parse_string ())
      | "ns" -> ns := Some (parse_int ())
      | _ -> (
          (* tolerate unknown string/number fields *)
          match peek () with
          | Some '"' -> ignore (parse_string ())
          | _ -> ignore (parse_int ())));
      match peek () with
      | Some ',' ->
          incr pos;
          fields ()
      | _ -> expect '}'
    in
    fields ();
    match (!table, !label, !ns) with
    | Some table, Some label, Some ns -> { table; label; ns }
    | _ -> fail "row missing table/label/ns"
  in
  expect '[';
  let rows = ref [] in
  (match peek () with
  | Some ']' -> incr pos
  | _ ->
      let rec elements () =
        rows := parse_object () :: !rows;
        match peek () with
        | Some ',' ->
            incr pos;
            elements ()
        | _ -> expect ']'
      in
      elements ());
  List.rev !rows

let key r = r.table ^ "/" ^ r.label

type verdict = Changed of row * int | Missing of row | Added of row

let check ~baseline ~fresh =
  let index rows =
    let tbl = Hashtbl.create 128 in
    List.iter (fun r -> Hashtbl.replace tbl (key r) r) rows;
    tbl
  in
  let base_tbl = index baseline and fresh_tbl = index fresh in
  List.filter_map
    (fun base ->
      match Hashtbl.find_opt fresh_tbl (key base) with
      | None -> Some (Missing base)
      | Some f when f.ns <> base.ns -> Some (Changed (f, base.ns))
      | Some _ -> None)
    baseline
  @ List.filter_map
      (fun f -> if Hashtbl.mem base_tbl (key f) then None else Some (Added f))
      fresh
