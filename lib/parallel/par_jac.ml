type rhs = float -> float array -> float array -> unit

type t = {
  mutable pool : Domain_pool.t option;
  rhss : rhs array;
  mutable time : float;
  mutable pts : float array array;
  mutable vals : float array array;
  mutable count : int;
  next : int Atomic.t;
}

let job (st : t) w =
  let rhs = st.rhss.(w) in
  let rec loop () =
    let i = Atomic.fetch_and_add st.next 1 in
    if i < st.count then begin
      rhs st.time st.pts.(i) st.vals.(i);
      loop ()
    end
  in
  loop ()

let pool_exn t =
  match t.pool with
  | Some p -> p
  | None -> invalid_arg "Par_jac: evaluator shut down"

let create_with rhss =
  let nw = Array.length rhss in
  if nw < 1 then invalid_arg "Par_jac.create_with: no workers";
  let st =
    {
      pool = None;
      rhss;
      time = 0.;
      pts = [||];
      vals = [||];
      count = 0;
      next = Atomic.make 0;
    }
  in
  st.pool <- Some (Domain_pool.create ~job:(job st) nw);
  st

let create ?nworkers (compiled : Om_codegen.Pipeline.result) =
  let nw =
    match nworkers with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if nw < 1 then invalid_arg "Par_jac.create: nworkers < 1";
  (* Every worker evaluates through its own scratch clone, so rounds
     share no mutable state.  The clones run the artifact's one
     sequential program (built once, by whichever worker asks first),
     each over its own register file, so the values are bitwise those
     of the supervisor's own evaluator. *)
  create_with
    (Array.init nw (fun _ ->
         Om_codegen.Pipeline.rhs_fn (Om_codegen.Pipeline.clone_scratch compiled)))

let batch t time pts vals =
  let n = Array.length pts in
  if n > 0 then begin
    let pool = pool_exn t in
    t.time <- time;
    t.pts <- pts;
    t.vals <- vals;
    t.count <- n;
    Atomic.set t.next 0;
    Domain_pool.round pool;
    (* Drop the borrowed buffers so a caller's arrays are not kept
       alive (or visible to a stray worker) past the round. *)
    t.pts <- [||];
    t.vals <- [||];
    t.count <- 0
  end

let batch_rhs t : Om_ode.Jacobian.batch_rhs = fun time pts vals ->
  batch t time pts vals

let nworkers t = Array.length t.rhss

let shutdown t =
  match t.pool with
  | None -> ()
  | Some p ->
      Domain_pool.shutdown p;
      t.pool <- None
