type t = ..

let narrow extens project = List.find_map project extens
