exception Unbound of string

type env = (string, float) Hashtbl.t

let env_of_list l : env =
  let h = Hashtbl.create (List.length l) in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  h

let rec eval env (e : Expr.t) =
  match e with
  | Const x -> x
  | Var v -> (
      match Hashtbl.find_opt env v with
      | Some x -> x
      | None -> raise (Unbound v))
  | Add (xs, _) -> List.fold_left (fun acc x -> acc +. eval env x) 0. xs
  | Mul (xs, _) -> List.fold_left (fun acc x -> acc *. eval env x) 1. xs
  | Pow (b, e', _) -> Expr.eval_pow (eval env b) (eval env e')
  | Call (f, args, _) -> Expr.eval_func f (List.map (eval env) args)
  | If (c, t, e', _) ->
      if Expr.eval_rel c.rel (eval env c.lhs) (eval env c.rhs) then eval env t
      else eval env e'
