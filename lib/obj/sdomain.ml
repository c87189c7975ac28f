exception Dead_domain of string

type t = { id : int; name : string; node : string; mutable alive : bool }

let counter = ref 0

let create ?(node = "local") name =
  incr counter;
  { id = !counter; name; node; alive = true }

let name t = t.name
let node t = t.node
let id t = t.id
let alive t = t.alive
let kill t = t.alive <- false
let equal a b = a.id = b.id
