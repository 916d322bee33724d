module Smap = Map.Make (String)

let rec apply_map m e =
  match e with
  | Expr.Var v -> ( match Smap.find_opt v m with Some e' -> e' | None -> e)
  | _ -> Expr.map_children (apply_map m) e

let rec rename f e =
  match e with
  | Expr.Var v -> Expr.var (f v)
  | _ -> Expr.map_children (rename f) e
