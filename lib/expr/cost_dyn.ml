let build ?(weights = Cost.default) layout e =
  let index = Layout.slot layout in
  let w = weights in
  let rec build (e : Expr.t) : float array -> float ref -> float =
    match e with
    | Const x -> fun _ _ -> x
    | Var v ->
        let i = index v in
        fun env _ -> env.(i)
    | Add (xs, _) ->
        let fs = Array.of_list (List.map build xs) in
        let op_cost = float_of_int (Array.length fs - 1) *. w.w_add in
        fun env acc ->
          acc := !acc +. op_cost;
          let sum = ref 0. in
          Array.iter (fun f -> sum := !sum +. f env acc) fs;
          !sum
    | Mul (xs, _) ->
        let fs = Array.of_list (List.map build xs) in
        let op_cost = float_of_int (Array.length fs - 1) *. w.w_mul in
        fun env acc ->
          acc := !acc +. op_cost;
          let prod = ref 1. in
          Array.iter (fun f -> prod := !prod *. f env acc) fs;
          !prod
    | Pow (b, Const n, _) when Float.is_integer n ->
        let fb = build b in
        let a = Float.abs n in
        let mults =
          if a <= 1. then 0.
          else Float.ceil (Float.log a /. Float.log 2.)
        in
        let op_cost =
          (mults *. w.w_mul) +. if n < 0. then w.w_div else 0.
        in
        fun env acc ->
          acc := !acc +. op_cost;
          Expr.eval_pow (fb env acc) n
    | Pow (b, ex, _) ->
        let fb = build b and fe = build ex in
        fun env acc ->
          acc := !acc +. w.w_pow;
          Expr.eval_pow (fb env acc) (fe env acc)
    | Call (f, args, _) ->
        let fs = List.map build args in
        let fcost = w.w_call f in
        (match fs with
        | [ f1 ] ->
            fun env acc ->
              acc := !acc +. fcost;
              Expr.eval_func f [ f1 env acc ]
        | [ f1; f2 ] ->
            fun env acc ->
              acc := !acc +. fcost;
              Expr.eval_func f [ f1 env acc; f2 env acc ]
        | _ ->
            fun env acc ->
              acc := !acc +. fcost;
              Expr.eval_func f (List.map (fun g -> g env acc) fs))
    | If (c, t, e', _) ->
        let fl = build c.lhs and fr = build c.rhs in
        let ft = build t and fe = build e' in
        let rel = c.rel in
        fun env acc ->
          acc := !acc +. w.w_cmp;
          if Expr.eval_rel rel (fl env acc) (fr env acc) then ft env acc
          else fe env acc
  in
  build e
