let gate_class = {|
class Gate
  parameter tau_servo = 2.5;      // throttle actuator time constant [s]
  parameter k_p = 0.8;            // local PI proportional gain
  parameter k_i = 0.15;           // local PI integral gain
  parameter k_flow = 35.0;        // flow through a fully open gate [m^3/s]
  parameter head_nom = 10.0;      // nominal head over the turbine [m]
  parameter setpoint = 0.6;       // commanded opening
  parameter damping = 1.2;

  parameter tau_water = 4.0;      // penstock water inertia [s]
  parameter eta = 0.85;           // turbine efficiency
  parameter j_turb = 12.0;        // turbine+generator inertia
  parameter load_torque = 240.0;  // grid load

  variable Angle init 0.5;        // gate opening angle [0..1]
  variable AngleRate init 0.0;
  variable Throttle init 0.5;     // servo/actuator position
  variable IPart init 0.0;        // local integrator state
  variable Flow init 17.5;        // penstock flow [m^3/s]
  variable TurbineSpeed init 25.0;

  // local control error: track the setpoint, corrected by the plant
  // regulator bias shipped in at instantiation
  alias error = setpoint + bias - Angle;
  alias command = k_p * error + IPart;

  // commanded flow through the gate (saturating at closed); the head is
  // taken as nominal so the plant stays feed-forward: gates -> dam ->
  // regulator, the SCC structure of the paper's Figure 3
  alias opening = max(Angle, 0.0);
  alias flow_cmd = k_flow * opening * sqrt(head_nom);

  equation der(Angle) = AngleRate;
  equation der(AngleRate) = (Throttle - Angle - damping * AngleRate) / tau_servo;
  equation der(Throttle) = (command - Throttle) / tau_servo;
  equation der(IPart) = k_i * error;
  // water column dynamics: the actual flow lags the gate command
  equation der(Flow) = (flow_cmd - Flow) / tau_water;
  // turbine accelerates with hydraulic torque ~ eta * rho g Q H / omega
  equation der(TurbineSpeed) = (eta * 9.81 * Flow * head_nom / max(TurbineSpeed, 1.0)
                               - load_torque) / j_turb;
end;
|}

let dam_class = {|
class Dam
  parameter area = 800000.0;      // reservoir surface area [m^2]
  parameter inflow = 180.0;       // river inflow [m^3/s]
  parameter nominal_level = 10.0;

  variable SurfaceLevel init 10.0;

  equation der(SurfaceLevel) = (inflow - outflow) / area;
end;
|}

let regulator_class = {|
class Regulator
  parameter k_i = 0.02;
  parameter target_level = 10.0;

  variable IPart init 0.0;

  equation der(IPart) = k_i * (level - target_level);
end;
|}

let spillway_class = {|
class Spillway
  parameter tau = 30.0;           // slow spill dynamics
  parameter crest = 10.5;         // spill starts above this level
  parameter k_spill = 60.0;

  variable Flow init 0.0;

  alias demand = if level > crest then k_spill * (level - crest) else 0.0;

  equation der(Flow) = (demand - Flow) / tau;
end;
|}

let source ?(n_gates = 6) () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "model PowerPlant;\n";
  Buffer.add_string buf gate_class;
  Buffer.add_string buf dam_class;
  Buffer.add_string buf regulator_class;
  Buffer.add_string buf spillway_class;
  let total_flow =
    String.concat " + "
      (List.init n_gates (fun i -> Printf.sprintf "G[%d].Flow" (i + 1)))
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\ninstance G[1..%d] of Gate with bias = 0.02 * index;\n" n_gates);
  Buffer.add_string buf
    (Printf.sprintf "instance Dam of Dam with outflow = %s;\n" total_flow);
  Buffer.add_string buf
    "instance Reg of Regulator with level = Dam.SurfaceLevel;\n";
  Buffer.add_string buf
    "instance Spill of Spillway with level = Dam.SurfaceLevel;\n";
  Buffer.contents buf

let model ?(n_gates = 6) () =
  Om_lang.Flatten.flatten_string (source ~n_gates ())
