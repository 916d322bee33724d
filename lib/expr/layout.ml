type t = { names : string array; slots : (string, int) Hashtbl.t }

let of_names names =
  let slots = Hashtbl.create (Array.length names) in
  Array.iteri
    (fun i n -> if not (Hashtbl.mem slots n) then Hashtbl.add slots n i)
    names;
  { names; slots }

let size t = Array.length t.names

let slot t v =
  match Hashtbl.find_opt t.slots v with
  | Some i -> i
  | None -> raise (Eval.Unbound v)
