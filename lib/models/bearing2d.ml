(* Raceway profile correction: a truncated harmonic series in the roller
   position (raceway waviness / out-of-roundness, standard in rolling
   bearing dynamics).  The terms involve the compression, so the cost sits
   inside the contact-resolution path; the series order is the knob that
   reproduces the paper's right-hand-side weight ("several tens of
   thousands of floating point operations", §3.2). *)
let profile_series ~order ~compression_var =
  let term k =
    Printf.sprintf
      "0.001 / %d.0 * cos(%d.0 * Fi + 0.1 * %d.0) * sqrt(1.0 + %d.0 * %s^2)"
      k k k k compression_var
  in
  if order <= 0 then "0.0"
  else String.concat " + " (List.init order (fun i -> term (i + 1)))

(* Geometry and material constants (SI units, roughly a small cylindrical
   roller bearing).  The Hertz exponent 1.5 and the unilateral contact
   conditionals are the structurally important parts. *)
let base_classes = {|
// The class hierarchy mirrors the paper's Figure 5: a root class of
// spinning machine elements, refined into bodies with mass, then into
// rolling elements and rings.
class SpinningElement
  parameter omega_drive = 100.0;   // inner ring speed [rad/s]
  parameter pi = 3.14159265358979;
end;

class Body extends SpinningElement
  parameter m = 0.05;              // mass [kg]
end;
|}

let roller_class ~n_rollers ~profile_order =
  Printf.sprintf
    {|
class Roller extends Body
  parameter nr = %d;
  parameter j = 0.00001;       // roller inertia [kg m^2]
  parameter r_roll = 0.01;     // roller radius [m]
  parameter r_in = 0.04;       // inner raceway radius [m]
  parameter r_out = 0.06;      // outer raceway radius [m]
  parameter rc = 0.05;         // cage pitch radius [m]
  parameter k_hertz = 1000000.0;   // contact stiffness [N/m^1.5]
  parameter c_contact = 400.0;     // contact damping [Ns/m]
  parameter c_tract = 120.0;       // traction coefficient [Ns/m]
  parameter c_drag = 0.02;         // cage/lubricant drag

  variable Fi init 2.0 * pi * (index - 1) / nr;  // angular position
  variable W init 40.0;                          // angular velocity (cage speed)
  variable R init 0.05;                          // radial position
  variable U init 0.0;                           // radial velocity
  variable T3 init 200.0;                        // roller spin speed

  // Roller centre in housing coordinates.
  alias px = R * cos(Fi);
  alias py = R * sin(Fi);

  // ---- contact with the inner raceway (ring centre at Inner.x/y) ----
  alias dxi = px - Inner.x;
  alias dyi = py - Inner.y;
  alias disti = sqrt(dxi^2 + dyi^2);
  alias compi = r_in + r_roll - disti;          // compression depth
  // radial approach velocity of the contact
  alias rveli = (dxi * (U * cos(Fi) - R * W * sin(Fi) - Inner.vx)
               + dyi * (U * sin(Fi) + R * W * cos(Fi) - Inner.vy)) / disti;
  // raceway profile (waviness) correction of the contact stiffness
  alias profi = %s;
  alias ni = if compi > 0.0
             then k_hertz * compi * sqrt(compi) * (1.0 + profi)
                  - c_contact * rveli
             else 0.0;
  // surface speed mismatch at the inner contact drives the roller
  alias slipi = omega_drive * r_in - R * W - T3 * r_roll;
  alias fti = if compi > 0.0 then c_tract * slipi else 0.0;
  // unit normal (from inner centre to roller) and tangent
  alias nxi = dxi / disti;
  alias nyi = dyi / disti;

  // ---- contact with the fixed outer raceway (centred at origin) ----
  alias compo = R - (r_out - r_roll);
  alias profo = %s;
  alias no = if compo > 0.0
             then k_hertz * compo * sqrt(compo) * (1.0 + profo)
                  + c_contact * U
             else 0.0;
  alias slipo = R * W - T3 * r_roll;
  alias fto = if compo > 0.0 then c_tract * slipo else 0.0;

  // ---- force resolution in polar coordinates around the origin ----
  // radial direction components of the inner-contact force
  alias fradial = ni * (nxi * cos(Fi) + nyi * sin(Fi)) - no;
  alias ftang = fti - fto - c_drag * R * W;

  equation der(Fi) = W;
  equation der(W) = ftang / (m * R) - 2.0 * U * W / R;
  equation der(R) = U;
  equation der(U) = R * W^2 + fradial / m;
  equation der(T3) = (fti + fto) * r_roll / j - c_drag * T3;
end;
|}
    n_rollers
    (profile_series ~order:profile_order ~compression_var:"compi")
    (profile_series ~order:profile_order ~compression_var:"compo")

let inner_ring_class ~model_name = Printf.sprintf {|
class Ring extends Body with m = 1.2
  parameter c_support = 50.0;  // translational damping of the mount
end;

class InnerRing extends Ring
  parameter fx_ext = 0.0;      // external load [N]
  parameter fy_ext = -500.0;

  variable x init 0.0;
  variable y init -0.00001;
  variable vx init 0.0;
  variable vy init 0.0;
  variable theta init 0.0;     // driven rotation: the trivial SCC

  equation der(x) = vx;
  equation der(y) = vy;
  equation der(vx) = (fx_ext + fsum_x - c_support * vx) / m;
  equation der(vy) = (fy_ext + fsum_y - c_support * vy) / m;
  equation der(theta) = omega_drive;
end;
// model %s
|} model_name

(* Reaction on the inner ring from roller i: minus the inner-contact
   normal force along the contact normal. *)
let reaction axis i =
  Printf.sprintf "(0.0 - W[%d].ni * W[%d].n%si)" i i axis

let generate ~model_name ~n_rollers ~profile_order =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (Printf.sprintf "model %s;\n" model_name);
  Buffer.add_string buf base_classes;
  Buffer.add_string buf (roller_class ~n_rollers ~profile_order);
  Buffer.add_string buf (inner_ring_class ~model_name);
  let sum axis =
    String.concat " + "
      (List.init n_rollers (fun i -> reaction axis (i + 1)))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\ninstance Inner of InnerRing with fsum_x = %s, fsum_y = %s;\n"
       (sum "x") (sum "y"));
  Buffer.add_string buf
    (Printf.sprintf "instance W[1..%d] of Roller;\n" n_rollers);
  Buffer.contents buf

(* Default profile order chosen so the generated code weight matches the
   paper's 2D bearing (11 859 intermediate-form lines, RHS of tens of
   thousands of flops). *)
let default_profile_order = 24

let source ?(n_rollers = 10) () =
  generate ~model_name:"Bearing2D" ~n_rollers
    ~profile_order:default_profile_order

let model ?(n_rollers = 10) () =
  Om_lang.Flatten.flatten_string (source ~n_rollers ())
