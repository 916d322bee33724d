(* A two-axis positioning servo: each axis is a composite (controller,
   motor, integrator, compliant load, sensor) built with parts; the two
   axes are an instance array.  The axes are mutually independent, so the
   model partitions into two copies of a small SCC chain. *)
let text = {|
model Servo;

class Controller
  parameter k_p = 4.0;
  parameter k_i = 2.5;
  parameter speed_ref = 20.0;

  variable IPart init 0.0;

  alias error = speed_ref + 2.0 * sin(time) - feedback;
  alias output = k_p * error + IPart;

  equation der(IPart) = k_i * error;
end;

class Motor
  parameter resistance = 1.1;
  parameter inductance = 0.02;
  parameter k_emf = 0.35;
  parameter inertia = 0.01;
  parameter friction = 0.05;

  variable Current init 0.0;
  variable Speed init 0.0;

  equation der(Current) = (voltage - resistance * Current - k_emf * Speed)
                          / inductance;
  equation der(Speed) = (k_emf * Current - friction * Speed - load_torque)
                        / inertia;
end;

class LoadShaft
  parameter stiffness = 60.0;
  parameter damping = 0.4;
  parameter inertia = 0.05;

  variable Angle init 0.0;
  variable Speed init 0.0;

  alias twist = drive_angle - Angle;

  equation der(Angle) = Speed;
  equation der(Speed) = (stiffness * twist - damping * Speed) / inertia;
end;

class Filter
  parameter tau = 0.05;

  variable Value init 0.0;

  equation der(Value) = (input - Value) / tau;
end;

class Integrator
  variable Value init 0.0;
  equation der(Value) = input;
end;

class Axis
  part ctrl : Controller with feedback = motor.Speed;
  part motor : Motor with voltage = ctrl.output, load_torque = 0.0;
  part angle : Integrator with input = motor.Speed;
  part load : LoadShaft with drive_angle = angle.Value;
  part sensor : Filter with input = load.Speed;
end;

instance S[1..2] of Axis;
|}

let source () = String.trim text ^ "\n"

let model () = Om_lang.Flatten.flatten_string (source ())
