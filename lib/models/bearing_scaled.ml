let source ?(n_rollers = 30) ?(profile_order = 40) () =
  Bearing2d.generate ~model_name:"Bearing3DScale" ~n_rollers ~profile_order

let model ?(n_rollers = 30) ?(profile_order = 40) () =
  Om_lang.Flatten.flatten_string (source ~n_rollers ~profile_order ())
