(* Streaming directory reads.  A readdir implementation is a function
   from an integer cookie and a batch limit to one bounded batch of
   names plus the cookie to resume from ([None] when exhausted).
   Cookies are opaque positions: 0 starts a scan, and a cursor is only
   weakly consistent — entries added or removed between batches may or
   may not appear, like POSIX readdir. *)

type batch = string list * int option

type source = cookie:int -> limit:int -> batch

let default_batch = 256

(* Serve a cursor view over an already-materialised listing: the cookie
   is an index into the (re-derived) list.  For in-memory contexts whose
   listing is cheap; disk-backed directories implement real cursors. *)
let of_list names ~cookie ~limit =
  if limit <= 0 then invalid_arg "Cursor.of_list: limit must be positive";
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
  let rec take n l acc =
    if n = 0 then (List.rev acc, true)
    else match l with [] -> (List.rev acc, false) | x :: tl -> take (n - 1) tl (x :: acc)
  in
  let rest = drop cookie names in
  let page, more = take limit rest [] in
  (page, if more && drop limit rest <> [] then Some (cookie + limit) else None)

(* Filtering view over a source.  Batches may come back shorter than
   [limit] (even empty, with a non-[None] resume cookie): consumers must
   key termination on the cookie, not the batch size — which is why
   [drain]/[fold]/[iter] below do. *)
let filter pred (src : source) : source =
 fun ~cookie ~limit ->
  let names, next = src ~cookie ~limit in
  (List.filter pred names, next)

(* Drain a cursor to a full listing — the compatibility path under
   [listdir]. *)
let drain ?(batch = default_batch) (read : source) =
  let rec go cookie acc =
    let names, next = read ~cookie ~limit:batch in
    let acc = List.rev_append names acc in
    match next with None -> List.rev acc | Some c -> go c acc
  in
  go 0 []

(* Fold over every name in bounded batches without materialising the
   directory: the streaming consumers (fsck, scrubber, [springfs ls])
   use this. *)
let fold ?(batch = default_batch) (read : source) f init =
  let rec go cookie acc =
    let names, next = read ~cookie ~limit:batch in
    let acc = List.fold_left f acc names in
    match next with None -> acc | Some c -> go c acc
  in
  go 0 init
